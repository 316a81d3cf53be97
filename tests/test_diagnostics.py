"""Incoherence, learnability and kernel-floor diagnostics, pinned at fixed seeds."""

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linear_sum_assignment

from netrecover import (ConfigError, StudentNetwork, check_incoherence,
                        estimate_alpha, kernel_floor_omega, make_activation,
                        match_and_score, match_weights)
from netrecover import diagnostics
from netrecover.teacher import block_rows
from conftest import random_teacher, random_unit_columns

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


class TestEstimateAlpha:
    # (D, n_mc) with m = 5: n_mc above and below half_dim(D) = 21 / 36, wider
    # and taller Hessian column matrices; the Hessians are exact, so no queries
    @pytest.mark.parametrize("d, n_mc, exact_value", [
        (6, 30, 0.013051491839066556),
        (8, 20, 0.12052679136915083),
    ])
    def test_pinned(self, d, n_mc, exact_value):
        net = random_teacher(d, 5, seed=7)
        alpha = estimate_alpha(net, n_mc, seed=1)
        assert alpha == pytest.approx(exact_value, rel=REL_TOL)
        assert (net.query_count, net.oracle_count) == (0, n_mc)

    def test_needs_m_samples(self):
        with pytest.raises(ConfigError):
            estimate_alpha(random_teacher(6, 5, seed=7), 4)


# kind, omega, tau_argmin, tail bound
_FLOOR_PINS = [
    ("tanh", 0.0100566949535787, 0.6, 0.0024663912596353736),
    ("sigmoid", 2.2422371881793897e-05, 1.3, 1.6273958831761132e-05),
]


class TestKernelFloor:
    @pytest.mark.parametrize("kind, omega, tau_argmin, tail", _FLOOR_PINS)
    def test_pinned(self, kind, omega, tau_argmin, tail):
        res = kernel_floor_omega(make_activation(kind))
        assert res.omega == pytest.approx(omega, rel=REL_TOL)
        assert res.tau_argmin == pytest.approx(tau_argmin, rel=REL_TOL)
        assert res.tail_bound == pytest.approx(tail, rel=REL_TOL)

    @pytest.mark.parametrize("kind, omega, tau_argmin, tail", _FLOOR_PINS)
    def test_node_count_converged(self, kind, omega, tau_argmin, tail, monkeypatch):
        # the Hermite coefficients up to order 20 are resolved at 200 nodes:
        # 300 give the same floor (400 would overflow numpy's hermgauss
        # weights).  Only tau >= 0 is scanned, so rounding cannot flip the
        # argmin to its mirror -tau; the tail's E[g'''^2] converges slower,
        # 5.7e-11 apart for tanh
        monkeypatch.setattr(diagnostics, "_QUAD_NODES", 300)
        res = kernel_floor_omega(make_activation(kind))
        assert res.omega == pytest.approx(omega, rel=1e-12)
        assert res.tau_argmin == pytest.approx(tau_argmin, rel=1e-12)
        assert res.tail_bound == pytest.approx(tail, rel=1e-10)


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
        one_batch = np.max(np.abs(net.eval_batch(xs) - student.eval_batch(xs))) / 5
        assert met.e_inf == one_batch

    def test_needs_an_input(self):
        net = random_teacher(4, 3, seed=23)
        with pytest.raises(ConfigError, match="n_eval"):
            match_and_score(StudentNetwork(net.weights, net.shifts, net.act), net, n_eval=0)


def hungarian_match(w_hat, w_true):
    """Reference: the assignment by ``linear_sum_assignment`` on the whole matrix."""
    cos = w_true.T @ w_hat
    rows, cols = linear_sum_assignment(-np.abs(cos))
    perm = np.empty(w_true.shape[1], dtype=int)
    perm[rows] = cols
    signs = np.sign(cos[rows, perm[rows]]).astype(int)
    signs[signs == 0] = 1
    errors = np.linalg.norm(w_true - w_hat[:, perm] * signs, axis=0)
    return perm, signs, errors


def scrambled(w_true, seed, noise=1e-3):
    """The columns of ``w_true`` permuted, sign-flipped and perturbed."""
    rng = np.random.default_rng(seed)
    m = w_true.shape[1]
    perm = rng.permutation(m)
    signs = rng.choice([-1.0, 1.0], size=m)
    w = w_true[:, perm] * signs + noise * rng.standard_normal(w_true.shape)
    return w / np.linalg.norm(w, axis=0)


class TestMatchWeights:
    @pytest.fixture
    def fallback_calls(self, monkeypatch):
        """Shapes of the cost matrices handed to the Hungarian fallback."""
        calls = []

        def counting(cost):
            calls.append(cost.shape)
            return linear_sum_assignment(cost)

        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counting)
        return calls

    def assert_matches_hungarian(self, w_hat, w_true):
        got = match_weights(w_hat, w_true)
        for a, b in zip(got, hungarian_match(w_hat, w_true)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("d, m", [(3, 1), (5, 2), (10, 7), (40, 102)])
    def test_shortcut_on_scrambled_sets(self, d, m, fallback_calls):
        w_true = random_unit_columns(d, m, seed=m)
        for seed in range(3):
            self.assert_matches_hungarian(scrambled(w_true, seed), w_true)
        assert fallback_calls == []

    def test_tied_row_maximum_takes_fallback(self, fallback_calls):
        # identity truth: cos equals w_hat exactly, so the tie below is exact
        w_true = np.eye(7)
        w_hat = scrambled(w_true, seed=1, noise=1e-2)
        best = int(np.argmax(np.abs(w_hat[0])))
        w_hat[0, (best + 1) % 7] = -w_hat[0, best]
        self.assert_matches_hungarian(w_hat, w_true)
        assert fallback_calls == [(7, 7)]

    def test_identical_recovered_columns_take_fallback(self, fallback_calls):
        w_true = random_unit_columns(10, 7, seed=2)
        w_hat = scrambled(w_true, seed=3)
        w_hat[:, 4] = w_hat[:, 1]
        self.assert_matches_hungarian(w_hat, w_true)
        assert fallback_calls == [(7, 7)]

    def test_spurious_column_takes_fallback(self, fallback_calls):
        # an overcomplete set like the D=20, beta=2.0 cell (m = 160), with one
        # recovered column that matches no planted weight
        w_true = random_unit_columns(20, 160, seed=4)
        w_hat = scrambled(w_true, seed=5, noise=1e-6)
        w_hat[:, 17] = random_unit_columns(20, 1, seed=6)[:, 0]
        self.assert_matches_hungarian(w_hat, w_true)
        assert fallback_calls == [(160, 160)]

    def test_shapes_must_agree(self):
        with pytest.raises(ConfigError, match="shape"):
            match_weights(np.eye(3), np.eye(3)[:, :2])
