"""Incoherence, learnability and kernel-floor diagnostics, pinned at fixed seeds."""

import numpy as np
import pytest

from netrecover import (ConfigError, FDConfig, StudentNetwork, check_incoherence,
                        estimate_alpha, kernel_floor_omega, make_activation,
                        match_and_score)
from netrecover.teacher import block_rows
from conftest import random_teacher

REL_TOL = 1e-9


class TestIncoherence:
    @pytest.fixture(scope="class")
    def report(self):
        # D = 24, m = 12: RIP subsets of size ceil(24 / (4 log 12)) = 3
        return check_incoherence(random_teacher(24, 12, seed=7).weights,
                                 rip_trials=4, seed=3)

    def test_correlations(self, report):
        assert report.max_sq_corr == pytest.approx(0.21014301677819996, rel=REL_TOL)
        assert report.c2_hat == pytest.approx(2.029626506535801, rel=REL_TOL)

    def test_gram_inverse_norms(self, report):
        expected = {2: 1.4857239313197317, 3: 1.1608882025456944, 4: 1.0649874254983434}
        assert report.gram_inv_norms.keys() == expected.keys()
        for n, value in expected.items():
            assert report.gram_inv_norms[n] == pytest.approx(value, rel=REL_TOL), n

    def test_rip_samples(self, report):
        assert [p for p, _ in report.rip_samples] == [3, 3, 3, 3]
        devs = [dev for _, dev in report.rip_samples]
        assert devs == pytest.approx([0.44879408420746647, 0.3561606627618648,
                                      0.5631781808759835, 0.47574210968172714],
                                     rel=REL_TOL)
        assert report.rip_target_delta == 0.5
        assert report.rip_ok is False


class TestEstimateAlpha:
    # (D, m, n_mc): n_mc above and below half_dim(D) = 21 / 36 exercises both
    # eigenvalue routes; FD costs 2 D^2 + 1 queries per Hessian
    @pytest.mark.parametrize("d, n_mc, exact_value, fd_value", [
        (6, 30, 0.013051491839066556, 0.013050056905985107),
        (8, 20, 0.12052679136915083, 0.12052074890983686),
    ])
    def test_pinned(self, d, n_mc, exact_value, fd_value):
        net = random_teacher(d, 5, seed=7)
        alpha = estimate_alpha(net, n_mc, seed=1)
        assert alpha == pytest.approx(exact_value, rel=REL_TOL)
        assert (net.query_count, net.oracle_count) == (0, n_mc)
        alpha_fd = estimate_alpha(net, n_mc, FDConfig(step_h=0.01), seed=1, exact=False)
        assert alpha_fd == pytest.approx(fd_value, rel=REL_TOL)
        assert (net.query_count, net.oracle_count) == (n_mc * (2 * d * d + 1), n_mc)

    def test_needs_m_samples(self):
        with pytest.raises(ConfigError):
            estimate_alpha(random_teacher(6, 5, seed=7), 4)


class TestKernelFloor:
    @pytest.mark.parametrize("kind, omega, tau_argmin, tail", [
        ("tanh", 0.0100566949535787, 0.6, 0.0024663912596353736),
        ("sigmoid", 2.2111540945274945e-05, -1.35, 1.6273958831761132e-05),
    ])
    def test_pinned(self, kind, omega, tau_argmin, tail):
        res = kernel_floor_omega(make_activation(kind))
        assert res.omega == pytest.approx(omega, rel=REL_TOL)
        assert res.tau_argmin == pytest.approx(tau_argmin, rel=REL_TOL)
        assert res.tail_bound == pytest.approx(tail, rel=REL_TOL)
        assert res.r_max == 20


class TestScoring:
    def test_chunked_e_inf_equals_one_batch(self):
        net = random_teacher(6, 5, seed=21)
        rng = np.random.default_rng(22)
        student = StudentNetwork(net.weights, net.shifts + 1e-3 * rng.standard_normal(5),
                                 net.act)
        n_eval = 2 * block_rows(5) + 100  # two full blocks and a partial one
        met = match_and_score(student, net, n_eval=n_eval, seed=4)
        assert net.query_count == n_eval
        xs = np.random.default_rng(4).standard_normal((n_eval, 6))
        one_batch = np.max(np.abs(net.eval_batch_raw(xs) - student.eval_batch(xs))) / 5
        assert met.e_inf == one_batch

    def test_needs_an_input(self):
        net = random_teacher(4, 3, seed=23)
        with pytest.raises(ConfigError, match="n_eval"):
            match_and_score(StudentNetwork(net.weights, net.shifts, net.act), net, n_eval=0)
