"""Stencil exactness, query counts, linearity, and convergence order."""

import dataclasses
import itertools

import numpy as np
import pytest

from netrecover import (ConfigError, FDEvaluationError, PipelineConfig, TeacherNetwork,
                        UniformShifts, at_stencil_points, build_hessian_matrix,
                        fd_directional, fd_hessian, make_activation, neuron_count,
                        sample_teacher)
from netrecover import teacher
from netrecover.numdiff import hessian_stencil
from netrecover.subspace import hvec
from conftest import random_teacher, random_unit_columns


class TestHessian:
    def test_quadratic_exact(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        h = fd_hessian(at_stencil_points(lambda p: np.sum((p @ a) * p, axis=1)), x,
                       0.02)
        assert np.max(np.abs(h - (a + a.T))) < 1e-8

    def test_centered_tanh_neuron_zero(self, tanh_act):
        w = np.zeros((3, 1))
        w[0, 0] = 1.0
        net = TeacherNetwork(w, np.zeros(1), tanh_act)
        h = fd_hessian(net.stencil_function(0.01), np.zeros(3), 0.01)
        assert np.max(np.abs(h)) < 1e-6

    def test_richardson_ratio(self):
        # halving h should reduce the error roughly 4x (second-order stencils)
        net = random_teacher(6, 8, seed=6)
        x = np.random.default_rng(7).standard_normal(6)
        exact = net.analytic_hessian(x)
        errs = []
        for h in (0.02, 0.01):
            fd = fd_hessian(net.stencil_function(h), x, h)
            errs.append(np.max(np.abs(fd - exact)))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_symmetry_by_construction(self):
        net = random_teacher(5, 4, seed=8)
        step = PipelineConfig.fd_step
        h = fd_hessian(net.stencil_function(step), np.ones(5), step)
        assert np.array_equal(h, h.T)

    def test_query_count(self):
        net = random_teacher(6, 2, seed=9)
        d = 6
        for f in (net.stencil_function(PipelineConfig.fd_step), at_stencil_points(net.eval_batch)):
            before = net.query_count
            fd_hessian(f, np.zeros(6), PipelineConfig.fd_step)
            assert net.query_count - before == d * d + d + 1

    def test_stencil_rows_are_the_points(self):
        rng = np.random.default_rng(18)
        x, h, d = rng.standard_normal(4), 0.1, 4
        e = h * np.eye(d)
        expected = [x] + [x + e[i] for i in range(d)] + [x - e[i] for i in range(d)]
        expected += [x + e[i] + e[j] for i in range(d) for j in range(i + 1, d)]
        expected += [x - e[i] - e[j] for i in range(d) for j in range(i + 1, d)]
        assert len(expected) == d * d + d + 1
        assert np.array_equal(hessian_stencil(x, e), np.array(expected))

    def test_cubic_exact(self):
        # the 7-point scheme's truncation error is a fourth derivative, so a
        # cubic with mixed terms x_i^2 x_j and x_i x_j x_k comes out exact
        rng = np.random.default_rng(28)
        d = 6
        c = rng.standard_normal((d, d, d))
        sym = sum(c.transpose(p) for p in itertools.permutations(range(3))) / 6

        def f(p):
            return np.einsum("ijk,ri,rj,rk->r", c, p, p, p)

        for x in rng.standard_normal((3, d)):
            h = fd_hessian(at_stencil_points(f), x, 0.1)
            assert np.max(np.abs(h - 6 * sym @ x)) < 1e-10

    def test_mixed_entry_error_of_a_quartic(self):
        # x_0^2 x_1^2 at 0: the 7-point scheme reads
        # (f(h, h) + f(-h, -h)) / (2 h^2) = h^2, where the exact entry is 0
        def f(p):
            return p[:, 0] ** 2 * p[:, 1] ** 2

        h = fd_hessian(at_stencil_points(f), np.zeros(3), 0.1)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 0.1 ** 2
        assert h == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_d40_matches_analytic_hessian(self):
        net = random_teacher(40, neuron_count(40, 1.5), seed=1)
        step = 0.01
        f = net.stencil_function(step)
        for x in np.random.default_rng(101).standard_normal((3, 40)):
            err = np.max(np.abs(fd_hessian(f, x, step) - net.analytic_hessian(x)))
            assert err <= 2e-5

    def test_non_finite_propagates_with_point(self):
        def f(p):
            return np.where(p[:, 0] + p[:, 1] > 0.15, float("inf"), 0.0)

        with pytest.raises(FDEvaluationError) as err:
            fd_hessian(at_stencil_points(f), np.zeros(3), 0.1)
        assert np.array_equal(err.value.point, [0.1, 0.1, 0.0])


class TestStructuredStencil:
    """``TeacherNetwork.stencil_function`` against the dense ``eval_batch`` route."""

    @pytest.mark.parametrize("dim", [5, 40])
    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_matches_dense_eval_batch(self, kind, dim):
        act = make_activation(kind)
        m = neuron_count(dim, 1.5)
        net = sample_teacher(dim, m, UniformShifts(-0.5, 0.5), act, seed=dim)
        step = 0.01
        # the two routes round the preactivations and the m-term row sums
        # differently; the weights of every entry's stencil sum to 4 / h^2 in
        # absolute value (1 + 2 + 1 on the diagonal, (1 + 1 + 4 + 2) / 2 off
        # it), and |g| <= 1 for both activations
        tol = 8 * m * np.finfo(float).eps / step ** 2
        rng = np.random.default_rng(19)
        for _ in range(3):
            x = rng.standard_normal(dim)
            dense = fd_hessian(at_stencil_points(net.eval_batch), x, step)
            structured = fd_hessian(net.stencil_function(step), x, step)
            assert np.max(np.abs(structured - dense)) <= tol

    def test_build_hessian_matrix_query_count(self):
        net = random_teacher(7, 9, seed=20)
        n_h, d = 11, 7
        cols, anchors = build_hessian_matrix(net, n_h, PipelineConfig.fd_step, seed=3)
        assert net.query_count == n_h * (d * d + d + 1)
        assert cols.shape == (d * (d + 1) // 2, n_h) and anchors.shape == (n_h, d)

    def test_build_hessian_matrix_builds_offsets_once(self, monkeypatch):
        calls = []

        def counted(base, steps):
            calls.append(1)
            return hessian_stencil(base, steps)

        monkeypatch.setattr(teacher, "hessian_stencil", counted)
        net = random_teacher(5, 4, seed=24)
        step = 0.02
        build_hessian_matrix(net, 4, None, seed=5)
        assert calls == []
        cols, anchors = build_hessian_matrix(net, 4, step, seed=5)
        assert len(calls) == 1
        stencil = net.stencil_function(step)
        for col, anchor in zip(cols.T, anchors):
            assert np.array_equal(col, hvec(fd_hessian(stencil, anchor, step)))

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_uneven_blocks_match_default_blocks(self, kind, monkeypatch):
        # D = 6: the D^2 + D + 1 = 43 = 14 * 3 + 1 rows leave one row in the
        # last 3-row block
        dim, m = 6, 8
        net = random_teacher(dim, m, seed=25, act=make_activation(kind))
        x = np.random.default_rng(26).standard_normal(dim)
        default = net.stencil_function(0.01)(x, 0.01)
        monkeypatch.setattr(teacher, "BLOCK_BYTES", 3 * 8 * m)
        assert teacher.block_rows(m) == 3
        blocked = net.stencil_function(0.01)(x, 0.01)
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
            for f in (net.stencil_function(0.1), at_stencil_points(net.eval_batch)):
                with pytest.raises(FDEvaluationError) as err:
                    fd_hessian(f, np.zeros(3), 0.1)
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
                             0.1)
        assert val == pytest.approx(6.0, abs=1e-10)

    def test_single_neuron_second_order(self, tanh_act):
        from netrecover import TeacherNetwork
        w = np.zeros((4, 1))
        w[1, 0] = 1.0
        net = TeacherNetwork(w, np.array([0.2]), tanh_act)
        step = 0.01
        val = fd_directional(net.eval_batch, np.zeros(4), w[:, 0], 2, step)
        assert val == pytest.approx(float(tanh_act.g2(0.2)), abs=10 * step ** 2)

    def test_query_counts(self):
        net = random_teacher(5, 2, seed=10)
        u = np.zeros(5)
        u[0] = 1.0
        for n, cost in ((1, 2), (2, 3), (3, 4)):
            before = net.query_count
            fd_directional(net.eval_batch, np.zeros(5), u, n, PipelineConfig.fd_step)
            assert net.query_count - before == cost

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ConfigError):
            fd_directional(lambda p: np.zeros(len(p)), np.zeros(2),
                           np.array([1.0, 1.0]), 1, PipelineConfig.fd_step)
        with pytest.raises(ConfigError):
            fd_directional(lambda p: np.zeros(len(p)), np.zeros(2),
                           np.array([[1.0, 1.0], [0.0, 1.0]]), 1, PipelineConfig.fd_step)

    @pytest.mark.parametrize("n,cost", [(1, 2), (2, 3), (3, 4)])
    def test_batch_matches_single_directions(self, n, cost):
        net = random_teacher(5, 3, seed=21)
        u = random_unit_columns(5, 4, seed=22)
        x = np.random.default_rng(23).standard_normal(5)
        step = 0.01
        rows = []
        net.eval_batch = lambda p, f=net.eval_batch: rows.append(len(p)) or f(p)
        batch = fd_directional(net.eval_batch, x, u, n, step)
        # cost is per single direction; a batch queries the order-2 center x once
        batch_cost = 2 * 4 + 1 if n == 2 else 4 * cost
        assert rows == [batch_cost] and net.query_count == batch_cost
        single = [fd_directional(net.eval_batch, x, u[:, k], n, step) for k in range(4)]
        # the rows may round differently in a larger GEMM: the stencil weights
        # sum to at most 4 / h^n in absolute value, and |g| <= 1 for m = 3
        tol = 4 * 8 * 3 * np.finfo(float).eps / step ** n
        assert np.max(np.abs(batch - single)) <= tol

    def test_batch_non_finite_names_the_point(self):
        def f(p):
            return np.where(p[:, 1] > 0.05, np.nan, 0.0)

        u = np.eye(3)[:, :2]
        with pytest.raises(FDEvaluationError) as err:
            fd_directional(f, np.zeros(3), u, 2, 0.1)
        assert np.array_equal(err.value.point, [0.0, 0.1, 0.0])

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigError):
            fd_directional(lambda p: np.zeros(len(p)), np.zeros(2),
                           np.array([1.0, 0.0]), 4, PipelineConfig.fd_step)


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
        step = 0.2 if n == 3 else 0.05
        for a in rng.uniform(-2, 2, size=3):
            combo = lambda p: a * f_net.eval_batch(p) + g_net.eval_batch(p)
            lhs = fd_directional(combo, x, u, n, step)
            rhs = a * fd_directional(f_net.eval_batch, x, u, n, step) + fd_directional(
                g_net.eval_batch, x, u, n, step)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_hessian_linear_in_f(self):
        f_net = random_teacher(4, 3, seed=14)
        g_net = random_teacher(4, 2, seed=15)
        x = np.random.default_rng(16).standard_normal(4)
        step = 0.05
        a = 1.7
        combo = lambda p: a * f_net.eval_batch(p) + g_net.eval_batch(p)
        h_combo = fd_hessian(at_stencil_points(combo), x, step)
        h_ref = (a * fd_hessian(at_stencil_points(f_net.eval_batch), x, step)
                 + fd_hessian(at_stencil_points(g_net.eval_batch), x, step))
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
                    fd_hessian(net.stencil_function(h), x, h) - exact))
            else:
                u = rng.standard_normal(5)
                u /= np.linalg.norm(u)
                exact = net.directional_deriv_exact(u, 3)
                # shift so the third directional derivative is generic
                err = lambda h: abs(
                    fd_directional(net.eval_batch, np.zeros(5), u, 3,
                                   h) - exact)
            ratio = err(0.04) / max(err(0.02), 1e-300)
            good += 3.0 < ratio < 5.0
        assert good >= 17  # allow a few trials where the leading term degenerates
