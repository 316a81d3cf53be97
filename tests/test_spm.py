"""Sphere-ascent objective, convergence, gating, dedup, and collection."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from netrecover import (ConfigError, IncompleteRecoveryError, SpmConfig,
                        SubspaceProjector, build_hessian_matrix, collect_weights,
                        default_restarts, hvec, match_weights, top_m_projector, unhvec)
from netrecover import spm, subspace
from netrecover.spm import _acceptance_level, _ascend_batch, _classify, canonical_sign
from conftest import (exact_projector, hvec_basis, hvec_objective, hvec_outer_batch,
                      random_teacher, random_unit_columns, spm_ascend, traced_peak)


def objective(proj, u):
    """F(u) read from the hvec basis, independent of the stack SPM reads."""
    return float(hvec_objective(proj, np.asarray(u)[:, None])[0])


class TestConfig:
    def test_defaults(self):
        cfg = SpmConfig()
        assert cfg.max_steps == 1000 and cfg.max_restarts is None
        assert (spm._GAMMA, spm._CONV_TOL, spm._DEDUP_COS) == (2.0, 1e-12, 0.99)
        # the acceptance level is derived from the spectrum; the rest are constants
        assert [f.name for f in dataclasses.fields(SpmConfig)] == ["max_steps", "max_restarts"]

    def test_restart_budget_formula(self):
        assert default_restarts(36) == 646
        assert default_restarts(12) == 150

    def test_validation(self):
        # max_steps: test_max_steps_must_be_positive; the level and the step,
        # tolerance and cosine are not options
        for removed in ("beta", "gamma", "conv_tol", "dedup_cos"):
            with pytest.raises(TypeError):
                SpmConfig(**{removed: 0.5})

    def test_max_steps_must_be_positive(self):
        with pytest.raises(ConfigError):
            SpmConfig(max_steps=0)


class TestObjective:
    def test_in_span_direction_scores_one(self):
        w = random_unit_columns(6, 1, seed=0)
        proj = exact_projector(w)
        assert objective(proj, w[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_direction_scores_zero(self):
        w = np.zeros((3, 1))
        w[0] = 1.0
        proj = exact_projector(w)
        u = np.array([0.0, 1.0, 0.0])
        assert objective(proj, u) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_projector(self):
        # oracle: explicit projector matrix applied to hvec(u u^T) at D = 8; SPM
        # reads F as the squared norm of action_batch's forms u^T B_j u
        w = random_unit_columns(8, 4, seed=1)
        proj = exact_projector(w)
        basis = hvec_basis(proj)
        dense = basis @ basis.T
        mats = proj.mats
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = rng.standard_normal(8)
            u /= np.linalg.norm(u)
            ref = float(np.linalg.norm(dense @ hvec(np.outer(u, u))) ** 2)
            assert objective(proj, u) == pytest.approx(ref, abs=1e-12)
            forms = proj.action_batch(u[:, None], mats)[2]
            assert float(np.sum(forms ** 2)) == pytest.approx(ref, abs=1e-12)

    def test_range(self):
        w = random_unit_columns(7, 5, seed=3)
        proj = exact_projector(w)
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = rng.standard_normal(7)
            u /= np.linalg.norm(u)
            assert 0.0 <= objective(proj, u) <= 1.0 + 1e-12

    def test_non_unit_rejected(self):
        proj = exact_projector(random_unit_columns(4, 2, seed=5))
        with pytest.raises(ConfigError):
            spm_ascend(proj, np.ones(4), SpmConfig())


class TestAscend:
    def test_converges_to_planted_direction(self):
        # one neuron: the ascent is a power-method-like flow toward +-w
        w = random_unit_columns(5, 1, seed=6)
        proj = exact_projector(w)
        rng = np.random.default_rng(7)
        u0 = 0.3 * w[:, 0] + rng.standard_normal(5)
        u0 /= np.linalg.norm(u0)
        u, obj, steps, converged = spm_ascend(proj, u0, SpmConfig())
        assert converged
        assert abs(float(u @ w[:, 0])) >= 1 - 1e-8
        assert obj == pytest.approx(1.0, abs=1e-10)

    def test_fixed_point_at_maximizer(self):
        w = random_unit_columns(6, 1, seed=8)
        proj = exact_projector(w)
        u, _, steps, converged = spm_ascend(proj, w[:, 0], SpmConfig())
        assert converged and steps <= 2
        assert np.linalg.norm(u - w[:, 0]) < 1e-12

    def test_monotone_objective_trajectories(self):
        # ascent property at the default step size, per trajectory: F after
        # each step of a single column, stepped until it converges
        for trial in range(20):
            net = random_teacher(8, 6, seed=900 + trial)
            proj = exact_projector(net.weights)
            mats = proj.mats
            rng = np.random.default_rng(trial)
            u = rng.standard_normal((8, 1))
            u /= np.linalg.norm(u)
            track = np.array([[np.inf], [spm._NEWTON_MOVE]])
            history = [objective(proj, u[:, 0])]
            for _ in range(SpmConfig().max_steps):
                u, track = spm._step(proj, mats, u, track)
                history.append(objective(proj, u[:, 0]))
                if track[0, 0] <= spm._CONV_TOL:
                    break
            assert np.all(np.diff(history) >= -1e-12)

    def test_leaves_a_saddle_for_a_maximum(self):
        # for orthonormal w1, w2, (w1 + w2) / sqrt(2) is a saddle of objective
        # 0.5 (a minimum along the circle through w1 and w2); a Newton step
        # taken there would converge to it, so only the ascent may move here
        w = np.linalg.qr(np.random.default_rng(30).standard_normal((6, 2)))[0]
        proj = exact_projector(w)
        v = np.random.default_rng(31).standard_normal(6)
        u0 = w[:, 0] + w[:, 1] + 1e-7 * v
        u0 /= np.linalg.norm(u0)
        assert objective(proj, u0) == pytest.approx(0.5, abs=1e-12)
        # N has a negative eigenvalue at the saddle: no Newton step there
        saddle = ((w[:, 0] + w[:, 1]) / np.sqrt(2.0))[:, None]
        mats = proj.mats
        assert np.all(np.isnan(spm._newton(mats, saddle, *proj.action_batch(saddle, mats), [True])))
        u, obj, _, converged = spm_ascend(proj, u0, SpmConfig())
        assert converged
        assert obj == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(w.T @ u)) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_iterates(self):
        w = random_unit_columns(9, 4, seed=9)
        proj = exact_projector(w)
        rng = np.random.default_rng(10)
        u0 = rng.standard_normal(9)
        u0 /= np.linalg.norm(u0)
        u, _, _, _ = spm_ascend(proj, u0, SpmConfig())
        assert abs(np.linalg.norm(u) - 1) < 1e-10


class TestNewton:
    def test_step_solves_the_dense_newton_system(self):
        # oracle: H by central differences of the gradient g(u) = P(u u^T) u
        # (F / 4 extended off the sphere), then the tangent Newton system
        net = random_teacher(7, 5, seed=32)
        proj = exact_projector(net.weights)
        mats = proj.mats
        rng = np.random.default_rng(33)
        u = net.weights[:, :1] + 1e-2 * rng.standard_normal((7, 1))
        u /= np.linalg.norm(u)
        g, prods, coeffs = proj.action_batch(u, mats)
        h = 1e-5
        hess = np.column_stack([
            (proj.action_batch(u + h * e[:, None], mats)[0]
             - proj.action_batch(u - h * e[:, None], mats)[0])[:, 0] / (2 * h)
            for e in np.eye(7)])
        lam = float(u[:, 0] @ g[:, 0])
        tangent = np.eye(7) - u @ u.T
        n = -tangent @ (hess - lam * np.eye(7)) @ tangent + u @ u.T
        ref = np.linalg.solve(n, g[:, 0] - lam * u[:, 0])
        xi = spm._newton(mats, u, g, prods, coeffs, [True])[:, 0]
        assert np.max(np.abs(xi - ref)) <= 1e-8
        assert abs(xi @ u[:, 0]) <= 1e-14

    def test_newton_converges_quadratically(self):
        net = random_teacher(8, 6, seed=34)
        proj = exact_projector(net.weights)
        mats = proj.mats
        w = net.weights[:, 2]
        rng = np.random.default_rng(35)
        u = w + 1e-3 * rng.standard_normal(8)
        u /= np.linalg.norm(u)
        errs = [np.linalg.norm(u - w)]
        for _ in range(3):
            u = u + spm._newton(mats, u[:, None], *proj.action_batch(u[:, None], mats), [True])[:, 0]
            u /= np.linalg.norm(u)
            errs.append(np.linalg.norm(u - w))
        assert errs[1] <= 10 * errs[0] ** 2 and errs[2] <= 10 * errs[1] ** 2
        assert errs[3] <= 1e-14


def _projector(spectrum):
    """A rank-2 projector at D = 3 with the given spectrum."""
    basis = np.linalg.qr(np.random.default_rng(40).standard_normal((6, 2)))[0]
    mats = np.stack([unhvec(b, 3) for b in basis.T])
    return SubspaceProjector(dim=3, rank=2, mats=mats, spectrum=np.asarray(spectrum))


class TestLevel:
    def test_read_from_sigma_m_plus_1(self):
        # r = 2e-3 / 2 = 1e-3: the level is 1 - 10 r^2
        level, ratio = _acceptance_level(_projector([4.0, 2.0, 2e-3, 1e-3]))
        assert ratio == pytest.approx(1e-3, rel=1e-12)
        assert 1.0 - level == pytest.approx(1e-5, rel=1e-9)

    def test_floor_below_a_tiny_gap(self):
        level, ratio = _acceptance_level(_projector([4.0, 2.0, 2e-8]))
        assert ratio == pytest.approx(1e-8, rel=1e-12)
        assert level == 1.0 - 1e-9

    def test_exactly_m_columns_have_no_sigma_m_plus_1(self):
        level, ratio = _acceptance_level(exact_projector(random_unit_columns(6, 4, seed=41)))
        assert (level, ratio) == (1.0 - 1e-9, 0.0)
        assert _acceptance_level(_projector([4.0, 2.0])) == (1.0 - 1e-9, 0.0)


class TestGateAndDedup:
    def test_spurious_level_rejected(self):
        # a direction with projected energy 0.3 must be rejected
        w = np.zeros((4, 1))
        w[0] = 1.0
        proj = exact_projector(w)
        c = 0.3 ** 0.25
        u = np.array([c, np.sqrt(1 - c * c), 0.0, 0.0])
        obj = objective(proj, u)
        assert obj == pytest.approx(0.3, abs=1e-12)
        level, _ = _acceptance_level(proj)
        assert _classify(u, obj, [], level) == "rejected"
        # so must a spurious maximum of the wide regime, at 1 - objective >= 1.7e-5
        assert _classify(u, 1.0 - 1.7e-5, [], 1.0 - 1e-7) == "rejected"
        assert _classify(u, 1.0 - 1e-8, [], 1.0 - 1e-7) == "accepted"

    def test_duplicate_detected(self):
        u = np.array([1.0, 0.0, 0.0])
        assert _classify(u, 1.0, [u.copy()], 0.5) == "duplicate"
        assert _classify(-u, 1.0, [u.copy()], 0.5) == "duplicate"

    def test_fresh_direction_accepted(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        assert _classify(v, 1.0, [u], 0.5) == "accepted"

    def test_canonical_sign(self):
        u = np.array([-0.3, 0.5])
        flipped = canonical_sign(u)
        assert flipped[0] > 0
        assert np.allclose(canonical_sign(flipped), flipped)
        tiny_lead = np.array([0.0, -0.7, 0.1])
        assert canonical_sign(tiny_lead)[1] > 0


class TestCollect:
    def test_exact_projector_recovers_all(self):
        net = random_teacher(10, 12, seed=11)
        proj = exact_projector(net.weights)
        w_hat, stats = collect_weights(proj, SpmConfig(), seed=12)
        assert w_hat.shape == (10, 12)
        perm, signs, errs = match_weights(w_hat, net.weights)
        assert np.max(errs) <= 1e-6
        assert stats.n_accepted == 12

    def test_returned_vectors_unit_and_above_beta(self):
        net = random_teacher(9, 7, seed=13)
        proj = exact_projector(net.weights)
        w_hat, _ = collect_weights(proj, SpmConfig(), seed=14)
        level, _ = _acceptance_level(proj)
        assert level == 1.0 - 1e-9
        for k in range(7):
            assert abs(np.linalg.norm(w_hat[:, k]) - 1) < 1e-10
            assert objective(proj, w_hat[:, k]) > level

    def test_pairwise_cosines_below_dedup(self):
        net = random_teacher(9, 7, seed=15)
        proj = exact_projector(net.weights)
        w_hat, _ = collect_weights(proj, SpmConfig(), seed=16)
        gram = np.abs(w_hat.T @ w_hat)
        np.fill_diagonal(gram, 0.0)
        assert np.max(gram) <= spm._DEDUP_COS

    def test_deterministic_under_seed(self):
        net = random_teacher(8, 5, seed=17)
        proj = exact_projector(net.weights)
        a, _ = collect_weights(proj, SpmConfig(), seed=18)
        b, _ = collect_weights(proj, SpmConfig(), seed=18)
        assert np.array_equal(a, b)

    def test_incomplete_recovery_error_carries_partial(self):
        net = random_teacher(10, 12, seed=19)
        proj = exact_projector(net.weights)
        with pytest.raises(IncompleteRecoveryError) as err:
            collect_weights(proj, SpmConfig(max_restarts=6), seed=20)
        assert err.value.partial.shape[1] < 12
        assert err.value.stats.n_processed == 6
        # the message says at which level the restarts were judged, and why
        assert "acceptance level 1 - 1.00e-09 from sigma_13/sigma_12 = 0.00e+00" in str(err.value)

    def test_default_budget_suffices(self):
        # coupon-collector sizing: ceil(5 m log m) restarts find all m
        # directions in at least 9 of 10 seeds at D=10, m=12
        hits = 0
        for seed in range(10):
            net = random_teacher(10, 12, seed=600 + seed)
            proj = exact_projector(net.weights)
            try:
                w_hat, _ = collect_weights(proj, SpmConfig(), seed=seed)
                _, _, errs = match_weights(w_hat, net.weights)
                hits += np.max(errs) <= 1e-6
            except IncompleteRecoveryError:
                pass
        assert hits >= 9


class TestExactModeIdentification:
    @pytest.mark.parametrize("dim,m", [(10, 12), (15, 30)])
    def test_recovery_with_sampled_hessians(self, dim, m):
        hits = 0
        for seed in range(10):
            net = random_teacher(dim, m, seed=700 + seed)
            cols, _ = build_hessian_matrix(net, 2 * m, None,
                                           seed=800 + seed)
            proj = top_m_projector(cols, m)
            try:
                w_hat, _ = collect_weights(proj, SpmConfig(), seed=seed)
            except IncompleteRecoveryError:
                continue
            _, _, errs = match_weights(w_hat, net.weights)
            hits += np.max(errs) <= 1e-6
        assert hits >= 9


def _starts(proj, m, seed):
    """The start stream of :func:`collect_weights` at the default budget."""
    starts = np.random.default_rng(seed).standard_normal((proj.dim, default_restarts(m)))
    return starts / np.linalg.norm(starts, axis=0)


def _reference_collect(proj, m, cfg, seed):
    """Ascend each restart alone on the full span, in index order, then classify it.

    Returns the accepted set and every restart's status.
    """
    starts = _starts(proj, m, seed)
    level, _ = _acceptance_level(proj)
    accepted, statuses = [], []
    for j in range(starts.shape[1]):
        u, obj, _, converged = spm_ascend(proj, starts[:, j], cfg)
        cand = canonical_sign(u)
        statuses.append(_classify(cand, obj, accepted, level) if converged else "rejected")
        if statuses[-1] == "accepted":
            accepted.append(cand)
            if len(accepted) == m:
                break
    return np.array(accepted).T, statuses


def _exact_case():
    return exact_projector(random_teacher(10, 12, seed=11).weights), 12, 12


def _sampled_case():
    net = random_teacher(15, 30, seed=700)
    cols, _ = build_hessian_matrix(net, 60, None, seed=800)
    return top_m_projector(cols, 30), 30, 0


def _wide_case():
    # m = 40 at D = 10 (the identifiability bound is 45), exact Hessians
    net = random_teacher(10, 40, seed=700)
    cols, _ = build_hessian_matrix(net, 80, None, seed=800)
    return top_m_projector(cols, 40), net.weights, 0


def _two_chunk_case(dim=20, m=60):
    # the first placed batch is min(_BATCH, m) wide, so m > _CHUNK steps it in two chunks
    net = random_teacher(dim, m, seed=700)
    cols, _ = build_hessian_matrix(net, 2 * m, None, seed=800)
    return top_m_projector(cols, m), m, 0


def _counts(stats):
    return (stats.n_processed, stats.n_accepted, stats.n_duplicate, stats.n_rejected)


def _same_set(a, b):
    """The largest distance from a column of either set to the nearest column of the other."""
    dist = np.max(np.abs(a[:, :, None] - b[:, None, :]), axis=0)
    return max(np.max(np.min(dist, axis=1)), np.max(np.min(dist, axis=0)))


class TestStep:
    def test_newton_step_that_lowers_the_objective_is_refused(self, monkeypatch):
        # two columns near planted directions, both under the gate: the first
        # keeps its Newton step, the second gets one turned around, which lowers F
        net = random_teacher(8, 6, seed=34)
        proj = exact_projector(net.weights)
        mats = proj.mats
        u = net.weights[:, :2] + 1e-3 * np.random.default_rng(35).standard_normal((8, 2))
        u /= np.linalg.norm(u, axis=0)
        g, prods, coeffs = proj.action_batch(u, mats)
        xi = spm._newton(mats, u, g, prods, coeffs, [True, True])
        newton = spm._newton
        monkeypatch.setattr(spm, "_newton", lambda *args: newton(*args) * np.array([1.0, -1.0]))
        lowered = (u[:, 1] - xi[:, 1]) / np.linalg.norm(u[:, 1] - xi[:, 1])
        assert objective(proj, lowered) < objective(proj, u[:, 1])
        track = np.array([[1e-3, 1e-3], [spm._NEWTON_MOVE, spm._NEWTON_MOVE]])
        unew, new_track = spm._step(proj, mats, u, track)
        taken = (u[:, 0] + xi[:, 0]) / np.linalg.norm(u[:, 0] + xi[:, 0])
        ascent = u[:, 1] + 2.0 * spm._GAMMA * g[:, 1]
        assert np.max(np.abs(unew[:, 0] - taken)) <= 1e-15
        assert np.max(np.abs(unew[:, 1] - ascent / np.linalg.norm(ascent))) <= 1e-15
        assert np.array_equal(new_track[1], [spm._NEWTON_MOVE, 0.5 * spm._NEWTON_MOVE])
        assert np.array_equal(new_track[0], np.linalg.norm(unew - u, axis=0))

    @staticmethod
    def _batch(proj):
        """64 columns: 32 near recovered directions, which try Newton on their
        second step, between 32 random ones, which take ascent steps."""
        rng = np.random.default_rng(36)
        u = rng.standard_normal((proj.dim, 64))
        w, _ = collect_weights(proj, SpmConfig(), seed=0)
        u[:, ::2] = w[:, :32] + 1e-3 * rng.standard_normal((proj.dim, 32))
        return u / np.linalg.norm(u, axis=0)

    def test_chunked_ascent_equals_its_halves(self):
        proj, _, _ = _two_chunk_case()
        mats = proj.mats
        u, cfg = self._batch(proj), SpmConfig(max_steps=2)
        whole = _ascend_batch(proj, u, cfg, mats)
        halves = [_ascend_batch(proj, u[:, cols], cfg, mats)
                  for cols in (slice(0, 32), slice(32, 64))]
        assert spm._CHUNK == 32
        for part, joined in zip(whole, zip(*halves)):
            assert np.array_equal(part, np.concatenate(joined, axis=-1))
        # the even columns took a Newton step, which ends within 1e-9 of the
        # maximum; an ascent step from a 1e-3 start would not
        assert np.all(1.0 - hvec_objective(proj, whole[0])[::2] <= 1e-9)

    def test_one_product_stack_per_chunk(self, monkeypatch):
        proj, _, _ = _two_chunk_case()
        mats = proj.mats
        u = self._batch(proj)
        formed = []
        action = subspace.SubspaceProjector.action_batch
        monkeypatch.setattr(subspace.SubspaceProjector, "action_batch",
                            lambda p, us, ms: formed.append(us.shape[1]) or action(p, us, ms))
        newton = spm._newton
        newton_formed = []

        def counted_newton(*args):
            before = len(formed)
            xi = newton(*args)
            newton_formed.append(len(formed) - before)
            return xi

        monkeypatch.setattr(spm, "_newton", counted_newton)
        _ascend_batch(proj, u, SpmConfig(max_steps=2), mats)
        # a step forms each chunk's products, then, once Newton has read them,
        # those of the chunk's 16 Newton candidates, for the test of F
        assert formed == [32, 32, 32, 16, 32, 16] and newton_formed == [0, 0]
        # so does every step of a collection, chunk by chunk
        steps = []
        step = spm._step

        def counted_step(p, ms, us, tr):
            before = len(formed)
            out = step(p, ms, us, tr)
            tried = int(np.sum(tr[0] < tr[1]))
            steps.append((formed[before:], [us.shape[1]] + [tried] * (tried > 0)))
            return out

        monkeypatch.setattr(spm, "_step", counted_step)
        formed.clear()
        newton_formed.clear()
        collect_weights(proj, SpmConfig(), seed=0)
        assert all(got == want for got, want in steps)
        assert max(len(want) for _, want in steps) == 2 and max(formed) == 32
        assert sum(newton_formed) == 0 and len(newton_formed) > 0

    def test_newton_runs_only_on_the_full_span(self, monkeypatch):
        # placement on a deflated stack stops at the first Newton gate, so Newton
        # steps, which finish a column at a maximum, run only in the polish, on
        # the full span whose maxima are classified
        assert spm._PLACE_MOVE == spm._NEWTON_MOVE
        proj, m, seed = _two_chunk_case()
        newton, deflate = spm._newton, spm._deflate
        stacks, deflated = [], []
        monkeypatch.setattr(spm, "_newton",
                            lambda ms, *args: stacks.append(ms.shape[0]) or newton(ms, *args))
        monkeypatch.setattr(spm, "_deflate",
                            lambda ms, c: deflated.append(c.shape[1]) or deflate(ms, c))
        _, stats = collect_weights(proj, SpmConfig(), seed)
        assert stats.n_accepted == m and len(deflated) >= 1 and len(stacks) > 0
        assert set(stacks) == {m}


class TestPlace:
    @pytest.mark.parametrize("case", [_exact_case, _sampled_case])
    def test_matches_restarts_ascended_alone(self, case):
        proj, m, seed = case()
        w_ref, _ = _reference_collect(proj, m, SpmConfig(), seed)
        w_hat, stats = collect_weights(proj, SpmConfig(), seed)
        assert stats.n_accepted == m
        assert _same_set(w_hat, w_ref) <= 1e-12

    def test_two_restarts_per_direction_suffice(self, caplog):
        # restarts ascended alone on the full span need 157 here
        proj, m, seed = _sampled_case()
        _, statuses = _reference_collect(proj, m, SpmConfig(), seed)
        assert len(statuses) == 157
        with caplog.at_level("INFO", logger="netrecover.spm"):
            _, stats = collect_weights(proj, SpmConfig(), seed)
        assert stats.n_processed <= 2 * m
        assert (f"collected 30 directions from {stats.n_processed} restarts "
                f"({stats.n_duplicate} duplicates; 0 rejected at or below the acceptance "
                "level 1 - 1.00e-09 from sigma_31/sigma_30 = " in caplog.text)
        assert ", or cut unconverged at max_steps = 1000)" in caplog.text

    def test_newton_finish_cuts_the_steps(self, monkeypatch):
        proj, m, seed = _sampled_case()
        w_hat, stats = collect_weights(proj, SpmConfig(), seed)
        monkeypatch.setattr(spm, "_NEWTON_MOVE", 0.0)  # ascent steps only
        w_asc, stats_asc = collect_weights(proj, SpmConfig(), seed)
        assert _counts(stats) == _counts(stats_asc) == (51, 30, 21, 0)
        # the ascent stops within about _CONV_TOL rho / (1 - rho) of the fixed point
        assert np.max(np.abs(w_hat - w_asc)) <= 1e-10
        assert sum(stats.steps) == 1138
        assert sum(stats_asc.steps) == 5290

    def test_deflated_stack_is_orthonormal_and_misses_the_accepted(self):
        proj, _, _ = _sampled_case()
        mats = proj.mats
        accepted = random_unit_columns(15, 4, seed=42).T
        stack = spm._deflate(mats, proj.action_batch(accepted.T, mats)[2].T)
        flat = stack.reshape(26, -1)
        assert np.max(np.abs(flat @ flat.T - np.eye(26))) <= 1e-12
        # no accepted w w^T has a component in the deflated span
        outer = np.einsum("ka,kb->kab", accepted, accepted).reshape(4, -1)
        assert np.max(np.abs(flat @ outer.T)) <= 1e-12

    def test_kept_coordinates_are_the_accepted_in_the_hvec_basis(self, monkeypatch):
        # _place keeps each accepted direction's forms w^T B_j w read from the
        # stack; they are its coordinates basis^T hvec(w w^T) in the span
        proj, m, seed = _sampled_case()
        deflate, kept = spm._deflate, []
        monkeypatch.setattr(spm, "_deflate", lambda ms, c: kept.append(c) or deflate(ms, c))
        w_hat, stats = collect_weights(proj, SpmConfig(), seed)
        assert stats.n_accepted == m and len(kept) >= 1
        for coords in kept:
            oracle = hvec_basis(proj).T @ hvec_outer_batch(w_hat[:, :coords.shape[1]])
            assert np.max(np.abs(coords - oracle)) <= 1e-13

    def test_memory_is_bounded_by_one_chunk(self, monkeypatch):
        # the stack, the first deflated stack (no later one is larger) and one
        # chunk's (R, m, D) products; the slack covers the restarts drawn up
        # front and the Newton step's (R, D, D) matrix, its Cholesky factor and
        # one temporary.  With m about 7 D a chunk's products (1.5 MB) outweigh
        # the slack, so a second copy of them fails here
        proj, m, seed = _two_chunk_case(dim=30, m=200)
        d, cfg = proj.dim, SpmConfig(max_restarts=3 * m)
        deflate, deflations = spm._deflate, []

        def sized_deflate(ms, coords):
            stack = deflate(ms, coords)
            deflations.append((coords.shape[1], stack.shape[0]))
            return stack

        monkeypatch.setattr(spm, "_deflate", sized_deflate)
        (_, stats), peak = traced_peak(collect_weights, proj, cfg, seed)
        assert stats.n_accepted == m and len(deflations) >= 1
        k1 = deflations[0][0]
        assert deflations[0][1] == max(size for _, size in deflations) == m - k1
        double = np.dtype(float).itemsize
        stack, deflated = m * d * d * double, (m - k1) * d * d * double
        products = spm._CHUNK * m * d * double
        slack = (d * cfg.max_restarts + 3 * spm._CHUNK * d * d) * double + 2**17
        assert peak <= stack + deflated + products + slack

    def test_polish_holds_no_deflated_stack(self, monkeypatch):
        # when a batch placed on a deflated stack starts its polish, SPM holds
        # the full stack, the restarts drawn up front and the (m, k) coordinates
        # of the k accepted directions, and the slack covers the batch's
        # iterates and the projector's small arrays, not the deflated stack
        # (1.0 MB here)
        proj, m, seed = _two_chunk_case(dim=30, m=200)
        d, cfg = proj.dim, SpmConfig(max_restarts=3 * m)
        deflate, ascend = spm._deflate, spm._ascend_batch
        deflated, held = [], []

        def polish_held(p, u0, c, ms, *args):
            if deflated and ms.shape[0] == m:
                held.append((tracemalloc.get_traced_memory()[0], deflated[-1]))
            return ascend(p, u0, c, ms, *args)

        monkeypatch.setattr(spm, "_deflate",
                            lambda ms, c: deflated.append(c.shape[1]) or deflate(ms, c))
        monkeypatch.setattr(spm, "_ascend_batch", polish_held)
        tracemalloc.start()
        try:
            _, stats = collect_weights(proj, cfg, seed)
        finally:
            tracemalloc.stop()
        assert stats.n_accepted == m and len(held) == len(deflated) >= 1
        double = np.dtype(float).itemsize
        for nbytes, k in held:
            coords = m * k * double
            assert nbytes <= (m * d * d + d * cfg.max_restarts) * double + coords + 2**18

    def test_wide_case_recovers_all_deterministically(self):
        proj, weights, seed = _wide_case()
        a, stats_a = collect_weights(proj, SpmConfig(), seed)
        b, stats_b = collect_weights(proj, SpmConfig(), seed)
        assert np.array_equal(a, b)
        assert stats_a == stats_b
        _, _, errs = match_weights(a, weights)
        assert np.max(errs) <= 1e-5


class TestUnconverged:
    def test_counted_when_max_steps_cuts_the_ascent(self, caplog):
        # 8 steps end most restarts before they converge; each is rejected,
        # whatever its objective, and the error says so
        proj, m, seed = _exact_case()
        level, _ = _acceptance_level(proj)
        with caplog.at_level("DEBUG", logger="netrecover.spm"):
            with pytest.raises(IncompleteRecoveryError) as err:
                collect_weights(proj, SpmConfig(max_steps=8), seed)
        stats = err.value.stats
        assert _counts(stats) == (150, 7, 6, 137)
        for k in range(err.value.partial.shape[1]):
            assert objective(proj, err.value.partial[:, k]) > level
        cut = [r for r in caplog.records if r.args and r.args[2] == -np.inf]
        assert len(cut) == stats.n_rejected
        assert all(r.args[-1] == "rejected" for r in cut)
        assert "; rejected at or below the acceptance level" in str(err.value)
        assert "or cut unconverged at max_steps = 8)" in str(err.value)

    def test_zero_when_every_restart_converges(self):
        # at the default budget every restart converges above the level here
        proj, m, seed = _exact_case()
        _, stats = collect_weights(proj, SpmConfig(), seed)
        assert _counts(stats) == (23, 12, 11, 0)
