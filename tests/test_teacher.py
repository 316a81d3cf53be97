"""Teacher sampling, the counted oracle, analytic derivatives, and file I/O."""

import math

import numpy as np
import pytest

from netrecover import (ConfigError, FixedShifts, GaussianShifts,
                        StudentNetwork, TeacherNetwork, UniformShifts,
                        fd_hessian, hvec,
                        load_teacher, make_activation, sample_teacher, save_teacher)
from netrecover.teacher import BLOCK_BYTES, block_rows
from conftest import exact_projector, hvec_basis, random_teacher, traced_peak


class TestSampling:
    def test_unit_columns_and_shift_range(self, tanh_act):
        net = sample_teacher(50, 1000, UniformShifts(-0.5, 0.5), tanh_act, seed=1)
        assert np.max(np.abs(np.linalg.norm(net.weights, axis=0) - 1)) < 1e-12
        assert np.max(np.abs(net.shifts)) <= 0.5

    def test_one_dimensional_sphere(self, tanh_act):
        net = sample_teacher(1, 1, FixedShifts((0.0,)), tanh_act, seed=9)
        assert net.weights[0, 0] in (-1.0, 1.0)
        assert net.shifts[0] == 0.0

    def test_reproducible(self, tanh_act):
        a = sample_teacher(8, 5, UniformShifts(-0.5, 0.5), tanh_act, seed=11)
        b = sample_teacher(8, 5, UniformShifts(-0.5, 0.5), tanh_act, seed=11)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.shifts, b.shifts)

    def test_shift_law_exceeding_interval_rejected(self, tanh_act):
        with pytest.raises(ConfigError):
            sample_teacher(4, 3, UniformShifts(-1.0, 1.0), tanh_act, seed=0)
        with pytest.raises(ConfigError):
            sample_teacher(4, 3, FixedShifts((0.0, 0.7, 0.0)), tanh_act, seed=0)

    def test_gaussian_shifts_clamped_and_counted(self, tanh_act):
        net = sample_teacher(4, 200, GaussianShifts(1.0), tanh_act, seed=3)
        assert np.max(np.abs(net.shifts)) <= 0.6
        assert net.n_shifts_clamped > 0

    def test_pairwise_correlation_monte_carlo(self, tanh_act):
        # empirical check of the incoherence property for uniform weights:
        # max_{i != j} <w_i, w_j>^2 <= 8 log(m) / D in at least 95 of 100 seeds
        d, m = 100, 200
        bound = 8 * math.log(m) / d
        hits = 0
        for seed in range(100):
            net = sample_teacher(d, m, UniformShifts(-0.5, 0.5), tanh_act, seed=seed)
            gram = net.weights.T @ net.weights
            np.fill_diagonal(gram, 0.0)
            hits += float(np.max(gram ** 2)) <= bound
        assert hits >= 95


class TestShiftRange:
    """The admissible interval bounds the teacher's shifts, not the student's."""

    def _unit_weights(self):
        w = np.zeros((3, 2))
        w[0, 0] = w[1, 1] = 1.0
        return w

    def test_teacher_rejects_shift_outside_interval(self, tanh_act):
        tau = np.array([0.0, tanh_act.tau_inf + 1e-3])
        with pytest.raises(ConfigError, match="admissible"):
            TeacherNetwork(self._unit_weights(), tau, tanh_act)

    def test_load_rejects_shift_outside_interval(self, tmp_path, tanh_act):
        path = tmp_path / "bad.net"
        path.write_text(f"2 1 tanh 0.6 -1\n1.0 0.0 {tanh_act.tau_inf + 1e-3!r}\n")
        with pytest.raises(ConfigError, match="admissible"):
            load_teacher(path)

    def test_student_accepts_shift_outside_interval(self, tanh_act):
        tau = np.array([0.0, tanh_act.tau_inf + 1e-3])
        student = StudentNetwork(self._unit_weights(), np.zeros(2), tanh_act)
        assert np.array_equal(student.with_shifts(tau).shifts, tau)
        assert np.array_equal(StudentNetwork(self._unit_weights(), tau, tanh_act).shifts, tau)

    @pytest.mark.parametrize("cls", [TeacherNetwork, StudentNetwork])
    def test_unit_norm_checked_for_both(self, cls, tanh_act):
        w = self._unit_weights()
        w[0, 0] = 2.0
        with pytest.raises(ConfigError, match="norm"):
            cls(w, np.zeros(2), tanh_act)


class TestEval:
    def test_zero_input_tanh_centered(self, tanh_act):
        net = sample_teacher(6, 4, FixedShifts((0.0,) * 4), tanh_act, seed=2)
        assert net.eval_batch(np.zeros((1, 6)))[0] == 0.0

    def test_zero_input_sigmoid(self, sigmoid_act):
        net = sample_teacher(6, 4, FixedShifts((0.0,) * 4), sigmoid_act, seed=2)
        assert net.eval_batch(np.zeros((1, 6)))[0] == pytest.approx(2.0, abs=1e-15)

    def test_matches_naive_loop(self, tanh_act):
        net = random_teacher(7, 9, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(7)
            ref = sum(
                math.tanh(float(net.weights[:, k] @ x) + float(net.shifts[k]))
                for k in range(9)
            )
            assert net.eval_batch(x[None])[0] == pytest.approx(ref, abs=1e-13)

    def test_batch_matches_single(self, tanh_act):
        net = random_teacher(5, 3, seed=6)
        xs = np.random.default_rng(1).standard_normal((4, 5))
        batch = net.eval_batch(xs)
        singles = [net.eval_batch(x[None])[0] for x in xs]
        assert np.allclose(batch, singles, atol=1e-15)

    def test_dimension_mismatch(self):
        net = random_teacher(5, 3, seed=6)
        with pytest.raises(ConfigError):
            net.eval_batch(np.zeros((1, 4)))
        with pytest.raises(ConfigError):
            net.eval_batch(np.zeros((2, 6)))

    def test_query_accounting(self):
        net = random_teacher(5, 3, seed=6)
        assert net.query_count == 0
        for _ in range(7):
            net.eval_batch(np.zeros((1, 5)))
        assert net.query_count == 7
        net.eval_batch(np.zeros((11, 5)))
        assert net.query_count == 18

    # a row block's GEMM rounds like the rows of the one product at these
    # shapes; at some others (D=20, m=36) it can differ in the last bit
    @pytest.mark.parametrize("dim, m", [(8, 5), (10, 4), (40, 16), (40, 102)])
    def test_blocked_batch_equals_one_product(self, dim, m):
        net = random_teacher(dim, m, seed=7)
        n = 3 * block_rows(m) + 17
        xs = np.random.default_rng(2).standard_normal((n, dim))
        one_product = np.sum(net.act.g(xs @ net.weights + net.shifts), axis=1)
        before = net.query_count
        vals = net.eval_batch(xs)
        assert net.query_count - before == n
        assert np.array_equal(vals, one_product)

    def test_batch_holds_one_block_of_preactivations(self):
        net = random_teacher(10, 40, seed=8)
        n = 50_000
        xs = np.random.default_rng(3).standard_normal((n, 10))
        vals, peak = traced_peak(net.eval_batch, xs)
        assert vals.shape == (n,)
        # the output, one block of preactivations and one of g; a one-product
        # pass holds two n x m arrays (32 MB)
        assert peak < n * 8 + 3 * BLOCK_BYTES

    def test_concurrent_counting(self):
        import threading
        net = random_teacher(4, 2, seed=0)
        x = np.zeros((1, 4))

        def worker():
            for _ in range(200):
                net.eval_batch(x)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert net.query_count == 1600


class TestAnalyticDerivatives:
    def test_single_neuron_zero_hessian(self, tanh_act):
        w = np.zeros((4, 1))
        w[0, 0] = 1.0
        net = TeacherNetwork(w, np.zeros(1), tanh_act)
        assert np.allclose(net.analytic_hessian(np.zeros(4)), 0.0, atol=1e-15)

    def test_single_neuron_rank_one(self, tanh_act):
        w = np.zeros((4, 1))
        w[0, 0] = 1.0
        net = TeacherNetwork(w, np.array([0.3]), tanh_act)
        h = net.analytic_hessian(np.zeros(4))
        expected = float(tanh_act.g2(0.3)) * np.outer(w[:, 0], w[:, 0])
        assert np.allclose(h, expected, atol=1e-15)

    def test_hessian_symmetric_low_rank(self):
        net = random_teacher(9, 4, seed=8)
        h = net.analytic_hessian(np.random.default_rng(2).standard_normal(9))
        assert np.allclose(h, h.T)
        assert np.linalg.matrix_rank(h, tol=1e-10) <= 4

    def test_fd_agrees_with_analytic(self):
        net = random_teacher(6, 5, seed=9)
        step = 1e-3
        # 2.0 = sup |g'''| of tanh, the largest of its first three derivatives
        tol = 2.0 * net.n_neurons * step ** 2 * 10
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(6)
            with net.stencil_function(step) as f:
                h = fd_hessian(f, x, step)
            assert np.max(np.abs(h - net.analytic_hessian(x))) < tol

    def test_hessians_live_in_weight_span(self):
        net = random_teacher(8, 6, seed=10)
        basis = hvec_basis(exact_projector(net.weights))
        rng = np.random.default_rng(4)
        for _ in range(5):
            h = net.analytic_hessian(rng.standard_normal(8))
            v = hvec(h)
            resid = v - basis @ (basis.T @ v)
            assert np.linalg.norm(resid) <= 1e-10

    def test_oracle_counted_separately(self):
        net = random_teacher(5, 3, seed=1)
        net.analytic_hessian(np.zeros(5))
        net.directional_deriv_exact(np.eye(5)[0], 3)
        assert net.oracle_count == 2
        assert net.query_count == 0


class TestSaveLoad:
    def test_round_trip_bit_identical(self, tmp_path):
        net = random_teacher(7, 5, seed=12)
        path = tmp_path / "teacher.net"
        save_teacher(net, path)
        loaded = load_teacher(path)
        assert np.array_equal(loaded.weights, net.weights)
        assert np.array_equal(loaded.shifts, net.shifts)
        assert loaded.act.kind == "tanh"
        assert loaded.seed == net.seed

    def test_comments_allowed(self, tmp_path):
        net = random_teacher(3, 2, seed=13)
        path = tmp_path / "teacher.net"
        save_teacher(net, path)
        text = path.read_text()
        path.write_text("# a comment\n" + text + "# trailing comment\n")
        loaded = load_teacher(path)
        assert np.array_equal(loaded.weights, net.weights)

    def test_non_unit_column_rejected(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text("2 1 tanh 0.6 -1\n1.0 1.0 0.0\n")
        with pytest.raises(ConfigError, match="norm"):
            load_teacher(path)

    def test_truncated_file_rejected(self, tmp_path):
        net = random_teacher(3, 4, seed=14)
        path = tmp_path / "teacher.net"
        save_teacher(net, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ConfigError, match="truncated|expected"):
            load_teacher(path)

    def test_malformed_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text("2 1 tanh 0.6 -1\n1.0 zero 0.0\n")
        with pytest.raises(ConfigError, match=":2:"):
            load_teacher(path)
        # the header's tau_inf: not a number, or not the activation's; a file
        # that declares 5.0 is rejected for the declaration, not its 0.9 shift
        for text, message in [
            ("2 1 tanh banana -1\n1.0 0.0 0.0\n", r":1: malformed header"),
            ("2 1 tanh 5.0 -1\n1.0 0.0 0.9\n", r":1: header declares tau_inf 5\.0"),
        ]:
            path.write_text(text)
            with pytest.raises(ConfigError, match=message):
                load_teacher(path)
