"""Gram powers, directional derivatives at the origin, sign/shift recovery."""

import itertools

import numpy as np
import pytest

from netrecover import (IllConditionedError, PipelineConfig, StudentNetwork,
                        TeacherNetwork, directional_derivs_at_zero, gram_power,
                        init_signs_shifts, make_activation)
from netrecover.shift_init import _solve_spd
from conftest import random_teacher, random_unit_columns


def closed_form_directional(net, w_hat, n):
    """Oracle: <grad^n f(0), u^n> = sum_l g^(n)(tau_l) <w_l, u>^n, by loops."""
    m = w_hat.shape[1]
    out = np.zeros(m)
    gn = net.act.derivative(n)
    for k in range(m):
        for l in range(net.n_neurons):
            out[k] += float(gn(net.shifts[l])) * float(net.weights[:, l] @ w_hat[:, k]) ** n
    return out


class TestGramPower:
    def test_orthonormal_gives_identity(self):
        w = np.eye(5)[:, :3]
        for n in (1, 2, 3, 5):
            assert np.allclose(gram_power(w, n), np.eye(3), atol=1e-15)

    def test_scalar_entries(self):
        w = np.zeros((3, 2))
        w[0, 0] = 1.0
        w[:, 1] = [0.5, np.sqrt(1 - 0.25), 0.0]
        g1 = gram_power(w, 1)
        assert g1[0, 1] == pytest.approx(0.5, abs=1e-15)
        g3 = gram_power(w, 3)
        assert g3[0, 1] == pytest.approx(0.125, abs=1e-15)

    def test_min_eigenvalue_nondecreasing_in_order(self):
        # Hadamard powers of a PSD Gram matrix cannot shrink the spectral floor
        for seed in range(10):
            w = random_unit_columns(20, 30, seed=seed)
            lam = [np.linalg.eigvalsh(gram_power(w, n))[0] for n in (2, 3, 4, 5)]
            for a, b in zip(lam, lam[1:]):
                assert b >= a - 1e-10


class TestDirectionalDerivs:
    def test_exact_mode_matches_closed_form(self):
        net = random_teacher(8, 6, seed=0)
        w_hat = net.weights.copy()
        for n in (2, 3):
            vals = directional_derivs_at_zero(net, w_hat, n, None)
            assert np.allclose(vals, closed_form_directional(net, w_hat, n), atol=1e-12)

    def test_fd_mode_matches_closed_form(self):
        net = random_teacher(8, 6, seed=1)
        w_hat = net.weights.copy()
        step = 0.01
        for n in (2, 3):
            vals = directional_derivs_at_zero(net, w_hat, n, step)
            ref = closed_form_directional(net, w_hat, n)
            assert np.max(np.abs(vals - ref)) < 50 * step ** 2

    def test_single_neuron_second_derivative(self, tanh_act):
        w = np.zeros((5, 1))
        w[2, 0] = 1.0
        net = TeacherNetwork(w, np.array([0.2]), tanh_act)
        step = 0.01
        val = directional_derivs_at_zero(net, w, 2, step)[0]
        assert val == pytest.approx(float(tanh_act.g2(0.2)), abs=10 * step ** 2)

    def test_single_tanh_third_derivative_at_origin(self, tanh_act):
        w = np.zeros((4, 1))
        w[0, 0] = 1.0
        net = TeacherNetwork(w, np.zeros(1), tanh_act)
        step = 0.01
        val = directional_derivs_at_zero(net, w, 3, step)[0]
        assert val == pytest.approx(-2.0, abs=100 * step ** 2)

    def test_query_costs(self):
        net = random_teacher(6, 4, seed=2)
        step = PipelineConfig.fd_step
        before = net.query_count
        directional_derivs_at_zero(net, net.weights, 2, step)
        assert net.query_count - before == 2 * 4 + 1
        before = net.query_count
        directional_derivs_at_zero(net, net.weights, 3, step)
        assert net.query_count - before == 4 * 4

    def test_one_network_call_per_order(self):
        net = random_teacher(6, 4, seed=2)
        rows = []
        net.eval_batch = lambda p, f=net.eval_batch: rows.append(len(p)) or f(p)
        for n in (2, 3):
            directional_derivs_at_zero(net, net.weights, n, PipelineConfig.fd_step)
        assert rows == [2 * 4 + 1, 4 * 4]


class TestInitSignsShifts:
    def test_exact_weights_exact_mode(self):
        net = random_teacher(10, 12, seed=3)
        res = init_signs_shifts(net, net.weights.copy(), None)
        assert np.all(res.signs == 1)
        assert np.max(np.abs(res.tau0 - net.shifts)) < 1e-8

    def test_sign_flip_equivariance_brute_force(self):
        # flipping any subset of columns must be detected exactly (m <= 8)
        net = random_teacher(7, 4, seed=4)
        for signs in itertools.product((-1, 1), repeat=4):
            s = np.array(signs)
            res = init_signs_shifts(net, net.weights * s, None)
            assert np.array_equal(res.signs, s)

    def test_single_neuron_identity_gram(self, tanh_act):
        w = np.zeros((6, 1))
        w[1, 0] = 1.0
        net = TeacherNetwork(w, np.array([0.31]), tanh_act)
        res = init_signs_shifts(net, w, None)
        assert res.c2[0] == pytest.approx(float(tanh_act.g2(0.31)), abs=1e-12)
        assert res.tau0[0] == pytest.approx(0.31, abs=1e-8)

    def test_exactness_sweep(self):
        # 20 seeds: exact inputs give shifts to 1e-8 and all signs correct
        for seed in range(20):
            net = random_teacher(10, 12, seed=1000 + seed)
            rng = np.random.default_rng(seed)
            s = rng.choice([-1, 1], size=12)
            res = init_signs_shifts(net, net.weights * s, None)
            assert np.array_equal(res.signs, s)
            assert np.linalg.norm(res.tau0 - net.shifts) <= 1e-8

    def test_clamped_to_interval(self, tanh_act):
        net = random_teacher(8, 5, seed=5)
        res = init_signs_shifts(net, net.weights, 0.05)
        assert np.max(np.abs(res.tau0)) <= tanh_act.tau_inf

    def test_error_decreases_when_step_shrinks(self):
        # the shift error splits into an h-driven term and a weight-error
        # floor; with exact weights, halving h must not worsen the estimate
        net = random_teacher(10, 8, seed=6)
        errs = []
        for h in (0.08, 0.04, 0.02, 0.01):
            res = init_signs_shifts(net, net.weights, h)
            errs.append(np.linalg.norm(res.tau0 - net.shifts))
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12

    def test_weight_noise_sets_the_floor(self):
        # with noisy weights, shrinking h converges to the exact-mode error
        net = random_teacher(10, 8, seed=6)
        rng = np.random.default_rng(7)
        w_noisy = net.weights + 1e-3 * rng.standard_normal(net.weights.shape)
        w_noisy /= np.linalg.norm(w_noisy, axis=0)
        floor = np.linalg.norm(
            init_signs_shifts(net, w_noisy, None).tau0
            - net.shifts)
        fd = np.linalg.norm(
            init_signs_shifts(net, w_noisy, 0.005).tau0
            - net.shifts)
        assert fd == pytest.approx(floor, rel=0.1)

    def test_condition_numbers_surfaced(self):
        net = random_teacher(10, 6, seed=8)
        res = init_signs_shifts(net, net.weights, None)
        assert res.cond_g2 >= 1.0 and res.cond_g3 >= 1.0
        assert res.cond_g3 <= res.cond_g2 + 1e-6  # higher Hadamard power is better conditioned

    def test_singular_gram_raises(self):
        w = random_unit_columns(6, 3, seed=9)
        w_dup = np.concatenate([w, w[:, :1]], axis=1)  # duplicated column
        net = random_teacher(6, 4, seed=10)
        with pytest.raises(IllConditionedError):
            init_signs_shifts(net, w_dup, None)


class TestSolveSpd:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_cholesky_solve(self, n):
        from scipy.linalg import cho_factor, cho_solve

        gram = gram_power(random_unit_columns(20, 30, seed=11), n)
        rhs = np.random.default_rng(12).standard_normal(30)
        sol, cond = _solve_spd(gram, rhs, f"order-{n}")
        evals = np.linalg.eigvalsh(gram)
        assert cond == evals[-1] / evals[0]
        ref = cho_solve(cho_factor(gram), rhs)
        assert np.linalg.norm(sol - ref) <= 1e-14 * cond * np.linalg.norm(ref)
        assert np.linalg.norm(gram @ sol - rhs) <= 1e-14 * np.linalg.norm(rhs)

    def test_condition_limit(self):
        gram = np.diag([1.0, 1e-11])
        with pytest.raises(IllConditionedError, match="condition number") as info:
            _solve_spd(gram, np.ones(2), "order-2")
        assert info.value.cond == pytest.approx(1e11)
