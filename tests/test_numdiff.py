"""Stencil exactness, query counts, linearity, and convergence order."""

import dataclasses
import itertools
import threading

import numpy as np
import pytest

from netrecover import (ConfigError, FDEvaluationError, PipelineConfig, TeacherNetwork,
                        UniformShifts, build_hessian_matrix,
                        fd_directional, fd_hessian, make_activation, neuron_count,
                        sample_teacher)
from netrecover import teacher
from netrecover.numdiff import hessian_stencil
from netrecover.subspace import hvec
from conftest import at_stencil_points, random_teacher, random_unit_columns


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
        with net.stencil_function(0.01) as f:
            h = fd_hessian(f, np.zeros(3), 0.01)
        assert np.max(np.abs(h)) < 1e-6

    def test_richardson_ratio(self):
        # halving h should reduce the error roughly 4x (second-order stencils)
        net = random_teacher(6, 8, seed=6)
        x = np.random.default_rng(7).standard_normal(6)
        exact = net.analytic_hessian(x)
        errs = []
        for h in (0.02, 0.01):
            with net.stencil_function(h) as f:
                fd = fd_hessian(f, x, h)
            errs.append(np.max(np.abs(fd - exact)))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_symmetry_by_construction(self):
        net = random_teacher(5, 4, seed=8)
        step = PipelineConfig.fd_step
        with net.stencil_function(step) as f:
            h = fd_hessian(f, np.ones(5), step)
        assert np.array_equal(h, h.T)

    def test_query_count(self):
        net = random_teacher(6, 2, seed=9)
        d = 6
        with net.stencil_function(PipelineConfig.fd_step) as stencil:
            for f in (stencil, at_stencil_points(net.eval_batch)):
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
        with net.stencil_function(step) as f:
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
            with net.stencil_function(step) as f:
                structured = fd_hessian(f, x, step)
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
        with net.stencil_function(step) as stencil:
            for col, anchor in zip(cols.T, anchors):
                assert np.array_equal(col, hvec(fd_hessian(stencil, anchor, step)))

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_uneven_blocks_match_default_blocks(self, kind, monkeypatch):
        # D = 6: the D^2 + D + 1 = 43 = 14 * 3 + 1 rows leave one row in the
        # last 3-row block
        dim, m = 6, 8
        net = random_teacher(dim, m, seed=25, act=make_activation(kind))
        x = np.random.default_rng(26).standard_normal(dim)
        with net.stencil_function(0.01) as f:
            default = f(x, 0.01)
        monkeypatch.setattr(teacher, "BLOCK_BYTES", 3 * 8 * m)
        assert teacher.block_rows(m) == 3
        with net.stencil_function(0.01) as f:
            blocked = f(x, 0.01)
        # |g| <= 1 for both activations
        assert np.max(np.abs(blocked - default)) <= m * np.finfo(float).eps

    def test_non_finite_value_raises_with_point(self, tanh_act, monkeypatch):
        # one neuron along (e_0 + e_1) / sqrt(2): only x + h e_0 + h e_1
        # reaches the preactivation sqrt(2) h > 0.1 where g is not finite
        act = dataclasses.replace(
            tanh_act, g=lambda z: np.where(z > 0.1, np.nan, np.tanh(z)))
        w = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0)
        net = TeacherNetwork(w, np.zeros(1), act)
        # that row is row 7 of 13: default blocks, one block on the calling
        # thread; 3-row blocks, split after row 5, which put it in the third
        # block, on the helper; 7-row blocks, split after row 6, which make it
        # the helper's first row
        for block_bytes in (teacher.BLOCK_BYTES, 3 * 8, 7 * 8):
            monkeypatch.setattr(teacher, "BLOCK_BYTES", block_bytes)
            with net.stencil_function(0.1) as stencil:
                for f in (stencil, at_stencil_points(net.eval_batch)):
                    with pytest.raises(FDEvaluationError) as err:
                        fd_hessian(f, np.zeros(3), 0.1)
                    assert np.array_equal(err.value.point, [0.1, 0.1, 0.0])

    @pytest.mark.parametrize("rows", [64, 22, 5], ids=["one-block", "two-blocks", "nine-blocks"])
    def test_helper_columns_match_one_thread(self, rows, monkeypatch):
        # D = 6: 43 stencil rows, in one block, in blocks of 22 and 21, and in
        # 8 blocks of 5 and a last block of 3
        dim, m, step = 6, 4, 0.01
        threads = set()

        def g(z):
            threads.add(threading.get_ident())
            return np.tanh(z)

        net = random_teacher(dim, m, seed=29, act=dataclasses.replace(make_activation("tanh"), g=g))
        monkeypatch.setattr(teacher, "BLOCK_BYTES", rows * 8 * m)
        assert teacher.block_rows(m) == rows
        before = threading.active_count()
        cols, anchors = build_hessian_matrix(net, 5, step, seed=30)
        assert threading.active_count() == before
        assert net.query_count == 5 * (dim * dim + dim + 1)
        # a stencil of more than one block is split between two threads
        assert len(threads) == (1 if rows == 64 else 2)

        # the reference: every block on the calling thread, in order
        offsets = hessian_stencil(np.zeros(m), step * net.weights)

        def one_thread(x, h):
            base = x @ net.weights + net.shifts
            return np.concatenate([np.tanh(offsets[lo:lo + rows] + base) @ np.ones(m)
                                   for lo in range(0, offsets.shape[0], rows)])

        for col, anchor in zip(cols.T, anchors):
            assert np.array_equal(col, hvec(fd_hessian(one_thread, anchor, step)))

    def test_helper_error_propagates_and_leaves_no_thread(self, tanh_act, monkeypatch):
        caller = threading.get_ident()

        def g(z):
            if threading.get_ident() != caller:
                raise RuntimeError("g failed on the helper")
            return np.tanh(z)

        net = random_teacher(6, 4, seed=31, act=dataclasses.replace(tanh_act, g=g))
        monkeypatch.setattr(teacher, "BLOCK_BYTES", 5 * 8 * 4)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="on the helper"):
            build_hessian_matrix(net, 4, 0.01, seed=32)
        assert threading.active_count() == before
        assert net.query_count == 0

    def test_stencil_function_checks_its_step(self):
        net = random_teacher(3, 2, seed=27)
        with net.stencil_function(0.01) as f, pytest.raises(ConfigError, match="step"):
            f(np.zeros(3), 0.02)
        assert net.query_count == 0


def two_stencils(f, x, u, h):
    """Reference: the order-2 and order-3 stencils, each from its own call of f."""
    ut = u.T
    v = np.split(f(np.concatenate([x + h * ut, x[None], x - h * ut])), [len(ut), len(ut) + 1])
    d2 = (v[0] - 2.0 * v[1] + v[2]) / (h * h)
    v = np.split(f(np.concatenate([x + 2 * h * ut, x + h * ut, x - h * ut, x - 2 * h * ut])), 4)
    d3 = (v[0] - 2.0 * v[1] + 2.0 * v[2] - v[3]) / (2.0 * h ** 3)
    return d2, d3


class TestDirectional:
    def test_cubic_exact(self):
        u = np.array([[1.0]])
        (d2,), (d3,) = fd_directional(lambda p: p[:, 0] ** 3, np.zeros(1), u, 0.1)
        assert d2 == 0.0
        assert d3 == pytest.approx(6.0, abs=1e-10)

    def test_single_neuron_second_order(self, tanh_act):
        from netrecover import TeacherNetwork
        w = np.zeros((4, 1))
        w[1, 0] = 1.0
        net = TeacherNetwork(w, np.array([0.2]), tanh_act)
        step = 0.01
        (val,), _ = fd_directional(net.eval_batch, np.zeros(4), w, step)
        assert val == pytest.approx(float(tanh_act.g2(0.2)), abs=10 * step ** 2)

    def test_query_counts(self):
        net = random_teacher(5, 2, seed=10)
        u = np.eye(5)[:, :1]
        fd_directional(net.eval_batch, np.zeros(5), u, PipelineConfig.fd_step)
        assert net.query_count == 5

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ConfigError):
            fd_directional(lambda p: np.zeros(len(p)), np.zeros(2),
                           np.array([[1.0], [1.0]]), PipelineConfig.fd_step)
        with pytest.raises(ConfigError):
            fd_directional(lambda p: np.zeros(len(p)), np.zeros(2),
                           np.array([[1.0, 1.0], [0.0, 1.0]]), PipelineConfig.fd_step)

    @pytest.mark.parametrize("n", [2, 3])
    def test_batch_matches_single_directions(self, n):
        net = random_teacher(5, 3, seed=21)
        u = random_unit_columns(5, 4, seed=22)
        x = np.random.default_rng(23).standard_normal(5)
        step = 0.01
        rows = []
        net.eval_batch = lambda p, f=net.eval_batch: rows.append(len(p)) or f(p)
        batch = fd_directional(net.eval_batch, x, u, step)[n - 2]
        # one call of 4k + 1 rows: the center x is queried once for the batch
        assert rows == [4 * 4 + 1] and net.query_count == 4 * 4 + 1
        single = [fd_directional(net.eval_batch, x, u[:, k:k + 1], step)[n - 2][0]
                  for k in range(4)]
        # the rows may round differently in a larger GEMM: the stencil weights
        # sum to at most 4 / h^n in absolute value, and |g| <= 1 for m = 3
        tol = 4 * 8 * 3 * np.finfo(float).eps / step ** n
        assert np.max(np.abs(batch - single)) <= tol

    @pytest.mark.parametrize("dim,m", [(40, 102), (10, 13)])
    def test_shared_stencil_equals_the_two_stencils(self, dim, m):
        # the order-2 and order-3 stencils share x +- hU; read from one call
        # of 4k + 1 rows, both orders equal the two calls of 2k + 1 and 4k
        # rows bit for bit
        net = random_teacher(dim, m, seed=dim)
        step = PipelineConfig.fd_step
        x = np.zeros(dim)
        for k, seed in ((1, 1), (m, 2)):
            u = random_unit_columns(dim, k, seed=seed)
            rows = []
            f = lambda p: rows.append(len(p)) or net.eval_batch(p)
            d2, d3 = fd_directional(f, x, u, step)
            assert rows == [4 * k + 1]
            r2, r3 = two_stencils(net.eval_batch, x, u, step)
            assert np.array_equal(d2, r2) and np.array_equal(d3, r3)

    def test_batch_non_finite_names_the_point(self):
        # the order-2 points come first, so x + h e_1 is named before the
        # order-3 point x + 2h e_1
        def f(p):
            return np.where(p[:, 1] > 0.05, np.nan, 0.0)

        u = np.eye(3)[:, :2]
        with pytest.raises(FDEvaluationError) as err:
            fd_directional(f, np.zeros(3), u, 0.1)
        assert np.array_equal(err.value.point, [0.0, 0.1, 0.0])


class TestLinearity:
    @pytest.mark.parametrize("n", [2, 3])
    def test_directional_linear_in_f(self, n):
        f_net = random_teacher(6, 4, seed=11)
        g_net = random_teacher(6, 5, seed=12)
        rng = np.random.default_rng(13)
        u = rng.standard_normal((6, 1))
        u /= np.linalg.norm(u)
        x = rng.standard_normal(6)
        # a coarse step keeps the 1/h^n round-off amplification below 1e-12,
        # so the purely algebraic linearity identity is testable at that level
        step = 0.2 if n == 3 else 0.05
        for a in rng.uniform(-2, 2, size=3):
            combo = lambda p: a * f_net.eval_batch(p) + g_net.eval_batch(p)
            lhs = fd_directional(combo, x, u, step)[n - 2][0]
            rhs = (a * fd_directional(f_net.eval_batch, x, u, step)[n - 2][0]
                   + fd_directional(g_net.eval_batch, x, u, step)[n - 2][0])
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

                def err(h):
                    with net.stencil_function(h) as f:
                        return np.max(np.abs(fd_hessian(f, x, h) - exact))
            else:
                u = rng.standard_normal((5, 1))
                u /= np.linalg.norm(u)
                exact = net.directional_deriv_exact(u[:, 0], 3)
                # shift so the third directional derivative is generic
                err = lambda h: abs(
                    fd_directional(net.eval_batch, np.zeros(5), u, h)[1][0] - exact)
            ratio = err(0.04) / max(err(0.02), 1e-300)
            good += 3.0 < ratio < 5.0
        assert good >= 17  # allow a few trials where the leading term degenerates
