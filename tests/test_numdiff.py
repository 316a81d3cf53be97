"""Stencil exactness, query counts, linearity, and convergence order."""

import dataclasses

import numpy as np
import pytest

from netrecover import (ConfigError, FDConfig, FDEvaluationError, TeacherNetwork,
                        UniformShifts, at_stencil_points, build_hessian_matrix,
                        fd_directional, fd_hessian, make_activation, neuron_count,
                        sample_teacher)
from netrecover import teacher
from netrecover.numdiff import hessian_stencil
from netrecover.subspace import hvec
from conftest import random_teacher


class TestConfig:
    def test_step_bounds(self):
        with pytest.raises(ConfigError):
            FDConfig(step_h=1e-9)
        with pytest.raises(ConfigError):
            FDConfig(step_h=2.0)
        assert FDConfig().step_h == 0.01


class TestHessian:
    def test_quadratic_exact(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        h = fd_hessian(at_stencil_points(lambda p: np.sum((p @ a) * p, axis=1)), x,
                       FDConfig(step_h=0.02))
        assert np.max(np.abs(h - (a + a.T))) < 1e-8

    def test_centered_tanh_neuron_zero(self, tanh_act):
        w = np.zeros((3, 1))
        w[0, 0] = 1.0
        net = TeacherNetwork(w, np.zeros(1), tanh_act)
        h = fd_hessian(net.eval_stencil, np.zeros(3), FDConfig(step_h=0.01))
        assert np.max(np.abs(h)) < 1e-6

    def test_richardson_ratio(self):
        # halving h should reduce the error roughly 4x (second-order stencils)
        net = random_teacher(6, 8, seed=6)
        x = np.random.default_rng(7).standard_normal(6)
        exact = net.analytic_hessian(x)
        errs = []
        for h in (0.02, 0.01):
            fd = fd_hessian(net.eval_stencil, x, FDConfig(step_h=h))
            errs.append(np.max(np.abs(fd - exact)))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_symmetry_by_construction(self):
        net = random_teacher(5, 4, seed=8)
        h = fd_hessian(net.eval_stencil, np.ones(5), FDConfig())
        assert np.array_equal(h, h.T)

    def test_query_count(self):
        net = random_teacher(6, 2, seed=9)
        d = 6
        for f in (net.eval_stencil, at_stencil_points(net.eval_batch)):
            before = net.query_count
            fd_hessian(f, np.zeros(6), FDConfig())
            assert net.query_count - before == 2 * d * (d - 1) + 2 * d + 1

    def test_stencil_rows_are_the_points(self):
        rng = np.random.default_rng(18)
        x, h, d = rng.standard_normal(4), 0.1, 4
        e = h * np.eye(d)
        expected = [x] + [x + e[i] for i in range(d)] + [x - e[i] for i in range(d)]
        for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            expected += [x + s * e[i] + t * e[j] for i in range(d) for j in range(i + 1, d)]
        assert np.array_equal(hessian_stencil(x, e), np.array(expected))

    def test_non_finite_propagates_with_point(self):
        def f(p):
            return np.where(p[:, 0] + p[:, 1] > 0.15, float("inf"), 0.0)

        with pytest.raises(FDEvaluationError) as err:
            fd_hessian(at_stencil_points(f), np.zeros(3), FDConfig(step_h=0.1))
        assert np.array_equal(err.value.point, [0.1, 0.1, 0.0])


class TestStructuredStencil:
    """``TeacherNetwork.eval_stencil`` against the dense ``eval_batch`` route."""

    @pytest.mark.parametrize("dim", [5, 40])
    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_matches_dense_eval_batch(self, kind, dim):
        act = make_activation(kind)
        m = neuron_count(dim, 1.5)
        net = sample_teacher(dim, m, UniformShifts(-0.5, 0.5), act, seed=dim)
        cfg = FDConfig(step_h=0.01)
        # the two routes round the preactivations and the m-term row sums
        # differently; a stencil weighs its values by at most 4 / h^2, and
        # |g| <= 1 for both activations
        tol = 8 * m * np.finfo(float).eps / cfg.step_h ** 2
        rng = np.random.default_rng(19)
        for _ in range(3):
            x = rng.standard_normal(dim)
            dense = fd_hessian(at_stencil_points(net.eval_batch), x, cfg)
            structured = fd_hessian(net.eval_stencil, x, cfg)
            assert np.max(np.abs(structured - dense)) <= tol

    def test_build_hessian_matrix_query_count(self):
        net = random_teacher(7, 9, seed=20)
        n_h, d = 11, 7
        cols, anchors, n_queries = build_hessian_matrix(net, n_h, FDConfig(), seed=3)
        assert n_queries == net.query_count == n_h * (2 * d * d + 1)
        assert cols.shape == (d * (d + 1) // 2, n_h) and anchors.shape == (n_h, d)

    def test_build_hessian_matrix_builds_offsets_once(self, monkeypatch):
        calls = []

        def counted(base, steps):
            calls.append(1)
            return hessian_stencil(base, steps)

        monkeypatch.setattr(teacher, "hessian_stencil", counted)
        net = random_teacher(5, 4, seed=24)
        cfg = FDConfig(step_h=0.02)
        build_hessian_matrix(net, 4, cfg, seed=5, exact=True)
        assert calls == []
        cols, anchors, _ = build_hessian_matrix(net, 4, cfg, seed=5)
        assert len(calls) == 1
        for col, anchor in zip(cols.T, anchors):
            assert np.array_equal(col, hvec(fd_hessian(net.eval_stencil, anchor, cfg)))

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_uneven_blocks_match_default_blocks(self, kind, monkeypatch):
        # D = 6: the 2 D^2 + 1 = 73 rows leave one row in the last 3-row block
        dim, m = 6, 8
        net = random_teacher(dim, m, seed=25, act=make_activation(kind))
        x = np.random.default_rng(26).standard_normal(dim)
        default = net.eval_stencil(x, 0.01)
        monkeypatch.setattr(teacher, "BLOCK_BYTES", 3 * 8 * m)
        assert teacher.block_rows(m) == 3
        blocked = net.eval_stencil(x, 0.01)
        # |g| <= 1 for both activations
        assert np.max(np.abs(blocked - default)) <= m * np.finfo(float).eps

    def test_non_finite_value_raises_with_point(self, tanh_act, monkeypatch):
        # one neuron along (e_0 + e_1) / sqrt(2): only x + h e_0 + h e_1
        # reaches the preactivation sqrt(2) h > 0.1 where g is not finite
        act = dataclasses.replace(
            tanh_act, g=lambda z: np.where(z > 0.1, np.nan, np.tanh(z)))
        w = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0)
        net = TeacherNetwork(w, np.zeros(1), act)
        # default blocks, then 3-row blocks that put that row in the third
        for block_bytes in (teacher.BLOCK_BYTES, 3 * 8):
            monkeypatch.setattr(teacher, "BLOCK_BYTES", block_bytes)
            for f in (net.eval_stencil, at_stencil_points(net.eval_batch)):
                with pytest.raises(FDEvaluationError) as err:
                    fd_hessian(f, np.zeros(3), FDConfig(step_h=0.1))
                assert np.array_equal(err.value.point, [0.1, 0.1, 0.0])

    def test_stencil_function_checks_its_step(self):
        net = random_teacher(3, 2, seed=27)
        f = net.stencil_function(0.01)
        with pytest.raises(ConfigError, match="step"):
            f(np.zeros(3), 0.02)
        assert net.query_count == 0


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

    def test_hessian_linear_in_f(self):
        f_net = random_teacher(4, 3, seed=14)
        g_net = random_teacher(4, 2, seed=15)
        x = np.random.default_rng(16).standard_normal(4)
        cfg = FDConfig(step_h=0.05)
        a = 1.7
        combo = lambda p: a * f_net.eval_batch_raw(p) + g_net.eval_batch_raw(p)
        h_combo = fd_hessian(at_stencil_points(combo), x, cfg)
        h_ref = (a * fd_hessian(at_stencil_points(f_net.eval_batch_raw), x, cfg)
                 + fd_hessian(at_stencil_points(g_net.eval_batch_raw), x, cfg))
        assert np.max(np.abs(h_combo - h_ref)) < 1e-9


class TestConvergenceOrder:
    @pytest.mark.parametrize("op", ["hessian", "directional"])
    def test_halving_ratio(self, op):
        # error(h) / error(h/2) should sit near the nominal 4 for smooth f
        rng = np.random.default_rng(17)
        good = 0
        for trial in range(20):
            net = random_teacher(5, 6, seed=100 + trial)
            x = rng.standard_normal(5)
            if op == "hessian":
                exact = net.analytic_hessian(x)
                err = lambda h: np.max(np.abs(
                    fd_hessian(net.eval_stencil, x, FDConfig(step_h=h)) - exact))
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
