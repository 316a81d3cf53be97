"""Incoherence, learnability, kernel-floor and mean-slope diagnostics, pinned at fixed seeds."""

import sys
import threading

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linear_sum_assignment

from netrecover import (ConfigError, StudentNetwork, check_incoherence,
                        estimate_alpha, hermite_coeffs, kernel_floor_omega,
                        make_activation, match_and_score, match_weights,
                        slope_sign_certificate)
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


# kind, omega, tau_argmin
_FLOOR_PINS = [
    ("tanh", 0.01007786095119409, 0.6),
    ("sigmoid", 2.242245048576265e-05, 1.3),
]
# kind -> (truncated floor, tail bound) of the reference below at 256 nodes
_TRUNCATED_PINS = {
    "tanh": (0.010056694953578641, 0.0024663912597741146),
    "sigmoid": (2.2422371881793714e-05, 1.6273958831761132e-05),
}


def truncated_floor(act, r_max=20):
    """Reference: the floor from the Hermite series cut at order ``r_max``, on
    the same 21 shifts tau >= 0, and a bound on the part cut off.

    The derivative ladder ``mu_r(g') = mu_{r-2}(g''') / sqrt(r (r - 1))``
    bounds the cut-off part by ``E[g'''^2] / (r_max (r_max + 1))``, with
    E[g'''^2] taken at the worst of the shifts -tau_inf, 0 and tau_inf.
    """
    taus = np.linspace(-act.tau_inf, act.tau_inf, 41)[20:]
    energies = []
    for tau in taus:
        mu = hermite_coeffs(lambda y: act.g1(y + tau), r_max)
        energies.append(float(mu[4:] @ mu[4:]))
    e_g3_sq = max(float(diagnostics._gauss_mean(lambda y: act.g3(y + tau) ** 2))
                  for tau in (-act.tau_inf, 0.0, act.tau_inf))
    return 0.5 * min(energies), e_g3_sq / (r_max * (r_max + 1))


class TestKernelFloor:
    @pytest.mark.parametrize("kind, omega, tau_argmin", _FLOOR_PINS)
    def test_pinned(self, kind, omega, tau_argmin):
        res = kernel_floor_omega(make_activation(kind))
        assert res.omega == pytest.approx(omega, rel=REL_TOL)
        assert res.tau_argmin == pytest.approx(tau_argmin, rel=REL_TOL)

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_exact_floor_within_truncation_bound(self, kind):
        # the series cut at order 20 leaves out only nonnegative terms, and at
        # most half of their bound reaches the floor
        act = make_activation(kind)
        truncated, bound = truncated_floor(act)
        assert (truncated, bound) == pytest.approx(_TRUNCATED_PINS[kind], rel=1e-12)
        omega = kernel_floor_omega(act).omega
        assert truncated <= omega <= truncated + 0.5 * bound

    @pytest.mark.parametrize("kind, omega, tau_argmin", _FLOOR_PINS)
    def test_node_count_converged(self, kind, omega, tau_argmin, monkeypatch):
        # E[g'(Y + tau)^2] and the first four Hermite coefficients are
        # resolved at the default 256 nodes: 300 give the same floor (400
        # would overflow numpy's hermgauss weights).  Only tau >= 0 is
        # scanned, so rounding cannot flip the argmin to its mirror -tau
        assert diagnostics._QUAD_NODES == 256
        act = make_activation(kind)
        res = kernel_floor_omega(act)
        monkeypatch.setattr(diagnostics, "_QUAD_NODES", 300)
        ref = kernel_floor_omega(act)
        assert res.omega == pytest.approx(ref.omega, rel=1e-12)
        assert res.tau_argmin == ref.tau_argmin == tau_argmin
        assert ref.omega == pytest.approx(omega, rel=1e-12)


class TestSlopeSignCertificate:
    def test_tanh_positive_mean_slope(self, tanh_act):
        sign, min_abs = slope_sign_certificate(tanh_act)
        assert sign == 1
        assert min_abs > 0

    def test_sigmoid_positive_mean_slope(self, sigmoid_act):
        sign, _ = slope_sign_certificate(sigmoid_act)
        assert sign == 1

    def test_quadrature_matches_direct_integral(self, tanh_act):
        # scipy quadrature oracle at tau = -0.6, an end of the grid, where
        # the mean slope is smallest
        from scipy.integrate import quad
        ref, _ = quad(lambda t: (1 - np.tanh(t - 0.6) ** 2) * np.exp(-t * t / 2),
                      -12, 12)
        _, min_abs = slope_sign_certificate(tanh_act)
        assert min_abs == pytest.approx(ref, rel=1e-10)


class TestScoring:
    @staticmethod
    def perturbed_pair():
        """A D=6, m=5 teacher and a student with slightly moved shifts."""
        net = random_teacher(6, 5, seed=21)
        tau = net.shifts + 1e-3 * np.random.default_rng(22).standard_normal(5)
        return net, StudentNetwork(net.weights, tau, net.act)

    # n_eval = blocks * block_rows(m) + extra: the edges of the prefetched next block
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 0),
                                               (2, 100), (3, 0), (3, 7)],
                             ids=["1", "rows-1", "rows", "rows+1", "2rows", "2rows+100",
                                  "3rows", "3rows+7"])
    def test_chunked_e_inf_equals_one_batch(self, blocks, extra):
        net, student = self.perturbed_pair()
        n_eval = blocks * block_rows(5) + extra
        met = match_and_score(student, net, n_eval=n_eval, seed=4)
        assert net.query_count == n_eval
        xs = np.random.default_rng(4).standard_normal((n_eval, 6))
        one_batch = np.max(np.abs(net.eval_batch(xs) - student.eval_batch(xs))) / 5
        assert met.e_inf == one_batch

    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (2, 0), (3, 7)],
                             ids=["rows-1", "rows", "2rows", "3rows+7"])
    def test_inputs_are_one_draw(self, blocks, extra):
        # the helper draws each pair into the buffer the calling thread is not
        # reading; the teacher gets one call per pair, and its inputs, in query
        # order, are one draw; the student reads each block of it once, and a
        # last pair of at most one block hands the helper an empty second half
        net, student = self.perturbed_pair()
        rows = block_rows(5)
        n_eval = blocks * rows + extra
        seen = {"teacher": [], "student": []}

        def spy(name, evaluate):
            def wrapper(xs):
                seen[name].append(xs.copy())
                return evaluate(xs)
            return wrapper

        net.eval_batch = spy("teacher", net.eval_batch)
        student.eval_batch = spy("student", student.eval_batch)
        match_and_score(student, net, n_eval=n_eval, seed=4)
        xs = np.random.default_rng(4).standard_normal((n_eval, 6))
        pairs = [xs[lo:lo + 2 * rows] for lo in range(0, n_eval, 2 * rows)]
        assert len(seen["teacher"]) == len(pairs)
        for got, pair in zip(seen["teacher"], pairs):
            assert np.array_equal(got, pair)
        halves = [half for pair in pairs for half in (pair[:rows], pair[rows:])]
        # an empty second half is an empty call, b"" on both sides
        assert (sorted(block.tobytes() for block in seen["student"])
                == sorted(half.tobytes() for half in halves))

    def test_inputs_hold_under_a_short_switch_interval(self):
        # threads switching every microsecond: a draw racing a read of the
        # same buffer would change the inputs, and so e_inf
        net, student = self.perturbed_pair()
        n_eval = 5 * block_rows(5) + 3
        expected = match_and_score(student, net, n_eval=n_eval, seed=4).e_inf
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert match_and_score(student, net, n_eval=n_eval, seed=4).e_inf == expected
        finally:
            sys.setswitchinterval(interval)

    def test_nan_student_is_not_a_perfect_fit(self):
        net = random_teacher(6, 5, seed=21)
        tau = net.shifts.copy()
        tau[0] = np.nan
        met = match_and_score(StudentNetwork(net.weights, tau, net.act), net,
                              n_eval=2 * block_rows(5) + 100, seed=4)
        assert np.isnan(met.e_inf)
        assert np.isnan(met.shift_rms)

    def test_teacher_queried_on_the_calling_thread(self):
        net, student = self.perturbed_pair()
        threads = {"teacher": [], "student": []}

        def spy(name, evaluate):
            def wrapper(xs):
                threads[name].append((threading.get_ident(), xs.shape[0]))
                return evaluate(xs)
            return wrapper

        student_on = {}

        def student_spy(xs):
            student_on[xs[0, 0]] = threading.get_ident()
            return StudentNetwork.eval_batch(student, xs)

        net.eval_batch = spy("teacher", net.eval_batch)
        student.eval_batch = spy("student", student_spy)
        before = threading.active_count()
        rows = block_rows(5)
        n_eval = 3 * rows + 7
        match_and_score(student, net, n_eval=n_eval, seed=4)
        assert threading.active_count() == before
        # one teacher query per pair of blocks, on the calling thread
        assert threads["teacher"] == [(threading.get_ident(), 2 * rows),
                                      (threading.get_ident(), n_eval - 2 * rows)]
        # the calling thread evaluates the student on the first block of each
        # pair, the helper on the second, the 7-row tail among them
        xs = np.random.default_rng(4).standard_normal((n_eval, 6))
        on_caller = [student_on[xs[block * rows, 0]] == threading.get_ident()
                     for block in range(-(-n_eval // rows))]
        assert on_caller == [True, False, True, False]
        assert sorted(n for _, n in threads["student"]) == sorted(
            min(rows, n_eval - lo) for lo in range(0, n_eval, rows))

    def test_student_error_propagates_and_leaves_no_thread(self):
        net, student = self.perturbed_pair()
        calls = []

        def failing(xs):
            calls.append(xs.shape[0])
            if len(calls) == 2:
                raise RuntimeError("student failed on its second block")
            return StudentNetwork.eval_batch(student, xs)

        student.eval_batch = failing
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second block"):
            match_and_score(student, net, n_eval=3 * block_rows(5), seed=4)
        assert threading.active_count() == before
        assert calls == [block_rows(5)] * 2

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
