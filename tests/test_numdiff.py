"""Stencil exactness, query counts, linearity, and convergence order."""

import numpy as np
import pytest

from netrecover import (ConfigError, FDConfig, FDEvaluationError, fd_directional,
                        fd_gradient, fd_hessian)
from conftest import random_teacher


class TestConfig:
    def test_step_bounds(self):
        with pytest.raises(ConfigError):
            FDConfig(step_h=1e-9)
        with pytest.raises(ConfigError):
            FDConfig(step_h=2.0)
        assert FDConfig().step_h == 0.01


class TestGradient:
    def test_linear_function_exact(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(6)
        cfg = FDConfig(step_h=0.05)
        x = rng.standard_normal(6)
        g = fd_gradient(lambda p: p @ a, x, cfg)
        assert np.allclose(g, a, atol=1e-12)

    def test_quadratic_exact_to_roundoff(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        x = rng.standard_normal(5)
        cfg = FDConfig(step_h=0.05)
        g = fd_gradient(lambda p: np.sum((p @ a) * p, axis=1), x, cfg)
        ref = (a + a.T) @ x
        assert np.max(np.abs(g - ref)) / np.max(np.abs(ref)) < 1e-10

    def test_teacher_gradient_tolerance(self):
        net = random_teacher(8, 10, seed=2)
        cfg = FDConfig(step_h=0.01)
        tol = net.act.kappa * net.n_neurons * cfg.step_h ** 2 * 10
        x = np.random.default_rng(3).standard_normal(8)
        g = fd_gradient(net.eval_batch, x, cfg)
        assert np.max(np.abs(g - net.analytic_gradient(x))) < tol

    def test_query_count(self):
        net = random_teacher(7, 2, seed=4)
        before = net.query_count
        fd_gradient(net.eval_batch, np.zeros(7), FDConfig())
        assert net.query_count - before == 2 * 7

    def test_non_finite_propagates_with_point(self):
        def f(p):
            return np.where(p[:, 0] > 0.5, float("inf"), 0.0)

        with pytest.raises(FDEvaluationError) as err:
            fd_gradient(f, np.array([0.5, 0.0]), FDConfig(step_h=0.1))
        assert err.value.point is not None
        assert err.value.point[0] == pytest.approx(0.6)


class TestHessian:
    def test_quadratic_exact(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        h = fd_hessian(lambda p: np.sum((p @ a) * p, axis=1), x, FDConfig(step_h=0.02))
        assert np.max(np.abs(h - (a + a.T))) < 1e-8

    def test_centered_tanh_neuron_zero(self, tanh_act):
        from netrecover import TeacherNetwork
        w = np.zeros((3, 1))
        w[0, 0] = 1.0
        net = TeacherNetwork(w, np.zeros(1), tanh_act)
        h = fd_hessian(net.eval_batch, np.zeros(3), FDConfig(step_h=0.01))
        assert np.max(np.abs(h)) < 1e-6

    def test_richardson_ratio(self):
        # halving h should reduce the error roughly 4x (second-order stencils)
        net = random_teacher(6, 8, seed=6)
        x = np.random.default_rng(7).standard_normal(6)
        exact = net.analytic_hessian(x)
        errs = []
        for h in (0.02, 0.01):
            fd = fd_hessian(net.eval_batch, x, FDConfig(step_h=h))
            errs.append(np.max(np.abs(fd - exact)))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_symmetry_by_construction(self):
        net = random_teacher(5, 4, seed=8)
        h = fd_hessian(net.eval_batch, np.ones(5), FDConfig())
        assert np.array_equal(h, h.T)

    def test_query_count(self):
        net = random_teacher(6, 2, seed=9)
        before = net.query_count
        fd_hessian(net.eval_batch, np.zeros(6), FDConfig())
        d = 6
        assert net.query_count - before == 2 * d * (d - 1) + 2 * d + 1


class TestDirectional:
    def test_cubic_exact(self):
        u = np.array([1.0])
        val = fd_directional(lambda p: p[:, 0] ** 3, np.zeros(1), u, 3,
                             FDConfig(step_h=0.1))
        assert val == pytest.approx(6.0, abs=1e-10)

    def test_single_neuron_second_order(self, tanh_act):
        from netrecover import TeacherNetwork
        w = np.zeros((4, 1))
        w[1, 0] = 1.0
        net = TeacherNetwork(w, np.array([0.2]), tanh_act)
        cfg = FDConfig(step_h=0.01)
        val = fd_directional(net.eval_batch, np.zeros(4), w[:, 0], 2, cfg)
        assert val == pytest.approx(float(tanh_act.g2(0.2)), abs=10 * cfg.step_h ** 2)

    def test_query_counts(self):
        net = random_teacher(5, 2, seed=10)
        u = np.zeros(5)
        u[0] = 1.0
        for n, cost in ((1, 2), (2, 3), (3, 4)):
            before = net.query_count
            fd_directional(net.eval_batch, np.zeros(5), u, n, FDConfig())
            assert net.query_count - before == cost

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ConfigError):
            fd_directional(lambda p: np.zeros(len(p)), np.zeros(2),
                           np.array([1.0, 1.0]), 1, FDConfig())

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigError):
            fd_directional(lambda p: np.zeros(len(p)), np.zeros(2),
                           np.array([1.0, 0.0]), 4, FDConfig())


class TestLinearity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_directional_linear_in_f(self, n):
        f_net = random_teacher(6, 4, seed=11)
        g_net = random_teacher(6, 5, seed=12)
        rng = np.random.default_rng(13)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        x = rng.standard_normal(6)
        # a coarse step keeps the 1/h^n round-off amplification below 1e-12,
        # so the purely algebraic linearity identity is testable at that level
        cfg = FDConfig(step_h=0.2 if n == 3 else 0.05)
        for a in rng.uniform(-2, 2, size=3):
            combo = lambda p: a * f_net.eval_batch_raw(p) + g_net.eval_batch_raw(p)
            lhs = fd_directional(combo, x, u, n, cfg)
            rhs = a * fd_directional(f_net.eval_batch_raw, x, u, n, cfg) + fd_directional(
                g_net.eval_batch_raw, x, u, n, cfg)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_gradient_and_hessian_linear_in_f(self):
        f_net = random_teacher(4, 3, seed=14)
        g_net = random_teacher(4, 2, seed=15)
        x = np.random.default_rng(16).standard_normal(4)
        cfg = FDConfig(step_h=0.05)
        a = 1.7
        combo = lambda p: a * f_net.eval_batch_raw(p) + g_net.eval_batch_raw(p)
        g_combo = fd_gradient(combo, x, cfg)
        g_ref = (a * fd_gradient(f_net.eval_batch_raw, x, cfg)
                 + fd_gradient(g_net.eval_batch_raw, x, cfg))
        assert np.max(np.abs(g_combo - g_ref)) < 1e-11
        h_combo = fd_hessian(combo, x, cfg)
        h_ref = (a * fd_hessian(f_net.eval_batch_raw, x, cfg)
                 + fd_hessian(g_net.eval_batch_raw, x, cfg))
        assert np.max(np.abs(h_combo - h_ref)) < 1e-9


class TestConvergenceOrder:
    @pytest.mark.parametrize("op", ["gradient", "hessian", "directional"])
    def test_halving_ratio(self, op):
        # error(h) / error(h/2) should sit near the nominal 4 for smooth f
        rng = np.random.default_rng(17)
        good = 0
        for trial in range(20):
            net = random_teacher(5, 6, seed=100 + trial)
            x = rng.standard_normal(5)
            if op == "gradient":
                exact = net.analytic_gradient(x)
                err = lambda h: np.max(np.abs(
                    fd_gradient(net.eval_batch, x, FDConfig(step_h=h)) - exact))
            elif op == "hessian":
                exact = net.analytic_hessian(x)
                err = lambda h: np.max(np.abs(
                    fd_hessian(net.eval_batch, x, FDConfig(step_h=h)) - exact))
            else:
                u = rng.standard_normal(5)
                u /= np.linalg.norm(u)
                exact = net.directional_deriv_exact(u, 3)
                # shift so the third directional derivative is generic
                err = lambda h: abs(
                    fd_directional(net.eval_batch, np.zeros(5), u, 3,
                                   FDConfig(step_h=h)) - exact)
            ratio = err(0.04) / max(err(0.02), 1e-300)
            good += 3.0 < ratio < 5.0
        assert good >= 17  # allow a few trials where the leading term degenerates
