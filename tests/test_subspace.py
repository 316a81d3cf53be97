"""Half-vectorization isometry, projector construction, and perturbation bounds."""

import numpy as np
import pytest

from netrecover import (PipelineConfig, SubspaceDeficientError, build_hessian_matrix,
                        exact_projector, half_dim, hvec, projector_distance,
                        top_m_projector, unhvec)
from netrecover.subspace import hvec_outer_batch
from conftest import random_teacher, random_unit_columns


def dense_projector_matrix(proj):
    """Explicit (half x half) projector matrix, usable as an oracle at small D."""
    return proj.basis @ proj.basis.T


def project(proj, x):
    """The projection of a symmetric matrix, through the basis."""
    return unhvec(proj.basis @ (proj.basis.T @ hvec(x)), proj.dim)


class TestHalfVec:
    def test_isometry_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.standard_normal((6, 6))
            a = a + a.T
            b = rng.standard_normal((6, 6))
            b = b + b.T
            assert float(hvec(a) @ hvec(b)) == pytest.approx(
                float(np.sum(a * b)), abs=1e-12 * max(1, abs(np.sum(a * b))))

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        a = a + a.T
        assert np.allclose(unhvec(hvec(a), 5), a, atol=1e-15)

    def test_hvec_outer_matches_explicit(self):
        u = np.random.default_rng(2).standard_normal(7)
        assert np.allclose(hvec_outer_batch(u[:, None])[:, 0], hvec(np.outer(u, u)), atol=1e-14)

    def test_batch_matches_loop(self):
        us = np.random.default_rng(3).standard_normal((4, 9))
        batch = hvec_outer_batch(us)
        for r in range(9):
            assert np.allclose(batch[:, r], hvec(np.outer(us[:, r], us[:, r])), atol=1e-14)

    def test_dimensions(self):
        assert half_dim(10) == 55
        assert hvec(np.eye(4)).shape == (10,)


@pytest.fixture(scope="module")
def proj():
    net = random_teacher(10, 15, seed=5)
    cols, _ = build_hessian_matrix(net, 30, None, seed=7)
    return top_m_projector(cols, 15)


class TestProjectorInvariants:
    def test_orthonormal_basis(self, proj):
        gram = proj.basis.T @ proj.basis
        assert np.max(np.abs(gram - np.eye(15))) < 1e-10

    def test_idempotent(self, proj):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 10))
        x = x + x.T
        once = project(proj, x)
        twice = project(proj, once)
        assert np.linalg.norm(once - twice) < 1e-10

    def test_preserves_symmetry(self, proj):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 10))
        x = x + x.T
        out = project(proj, x)
        assert np.array_equal(out, out.T)

    def test_matrices_are_the_basis(self, proj):
        mats = proj.matrices()
        assert mats.shape == (15, 10, 10)
        assert np.array_equal(mats, mats.transpose(0, 2, 1))
        for j in range(15):
            assert np.allclose(hvec(mats[j]), proj.basis[:, j], atol=1e-15)

    def test_matrices_are_unhvec_of_each_column_exactly(self, proj):
        mats = proj.matrices()
        assert mats.flags.c_contiguous
        for j in range(15):
            assert np.array_equal(mats[j], unhvec(proj.basis[:, j], 10))

    def test_action_matches_dense_projection(self, proj):
        # oracle: P(u u^T) u through the explicit projector matrix
        dense = dense_projector_matrix(proj)
        us = random_unit_columns(10, 6, seed=10)
        got = proj.action_batch(us, proj.matrices())[0]
        for r in range(6):
            ref = unhvec(dense @ hvec(np.outer(us[:, r], us[:, r])), 10) @ us[:, r]
            assert np.max(np.abs(got[:, r] - ref)) < 1e-14


class TestBuildHessianMatrix:
    def test_exact_mode_full_rank(self):
        # generic anchors give numerical rank m when Hessians carry enough
        # information (the learnability property, checked empirically)
        net = random_teacher(10, 15, seed=10)
        cols, _ = build_hessian_matrix(net, 15, None, seed=11)
        svals = np.linalg.svd(cols, compute_uv=False)
        assert svals[14] / svals[0] > 1e-8

    def test_single_neuron_columns_aligned(self):
        net = random_teacher(6, 1, seed=12)
        step = 0.01
        cols, _ = build_hessian_matrix(net, 4, step, seed=13)
        target = hvec_outer_batch(net.weights[:, :1])[:, 0]
        for i in range(4):
            col = cols[:, i]
            cos = abs(col @ target) / (np.linalg.norm(col) * np.linalg.norm(target))
            assert cos > 1 - 1e-4  # O(h^2) off-span contamination

    def test_query_cost(self):
        net = random_teacher(7, 3, seed=14)
        build_hessian_matrix(net, 5, PipelineConfig.fd_step, seed=15)
        assert net.query_count == 5 * (7 ** 2 + 7 + 1)

    def test_default_budget_formula(self):
        from netrecover import default_n_hessians
        assert default_n_hessians(36) == 45
        assert default_n_hessians(1) == 2
        assert default_n_hessians(5) == 7
        # at least m + 1, so that sigma_{m+1} exists
        assert all(default_n_hessians(m) >= m + 1 for m in range(1, 2001))

    def test_warns_below_neuron_count(self):
        net = random_teacher(6, 5, seed=16)
        with pytest.warns(UserWarning, match="below the neuron count"):
            build_hessian_matrix(net, 3, None, seed=17)


class TestTopMProjector:
    def test_exact_spanning_set_recovered(self):
        w = random_unit_columns(8, 6, seed=18)
        cols = hvec_outer_batch(w)
        proj = top_m_projector(cols, 6)
        ref = exact_projector(w)
        assert projector_distance(proj, ref) <= 1e-10

    def test_orthogonal_complement_annihilated(self):
        # D=3, two orthogonal weights: the symmetrized cross term is
        # orthogonal to span{w1 w1^T, w2 w2^T} and must project to zero
        w = np.zeros((3, 2))
        w[0, 0] = 1.0
        w[1, 1] = 1.0
        proj = exact_projector(w)
        assert proj.rank == 2
        cross = np.zeros((3, 3))
        cross[0, 1] = cross[1, 0] = 1.0
        assert np.linalg.norm(project(proj, cross)) <= 1e-10

    def test_deficient_rank_raises(self):
        w = random_unit_columns(6, 3, seed=19)
        cols = hvec_outer_batch(w)
        cols = np.concatenate([cols, cols], axis=1)  # rank stays 3
        with pytest.raises(SubspaceDeficientError) as err:
            top_m_projector(cols, 4)
        assert err.value.sigma_ratio <= 1e-10

    def test_too_few_columns_raises(self):
        w = random_unit_columns(6, 3, seed=20)
        with pytest.raises(SubspaceDeficientError):
            top_m_projector(hvec_outer_batch(w), 4)

    def test_gram_and_svd_paths_agree(self):
        net = random_teacher(7, 5, seed=21)
        cols, _ = build_hessian_matrix(net, 10, None, seed=22)
        p_gram = top_m_projector(cols, 5)            # 10 <= 28/2 -> gram path
        p_svd = top_m_projector(np.hstack([cols] * 3), 5)  # 30 > 14 -> svd path
        assert projector_distance(p_gram, p_svd) < 1e-10


class TestProjectorDistance:
    def test_self_distance_zero(self):
        proj = exact_projector(random_unit_columns(5, 3, seed=23))
        assert projector_distance(proj, proj) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_spans_distance_one(self):
        w1 = np.zeros((3, 1))
        w1[0] = 1.0
        w2 = np.zeros((3, 1))
        w2[1] = 1.0
        assert projector_distance(exact_projector(w1), exact_projector(w2)) == (
            pytest.approx(1.0, abs=1e-12))

    def test_matches_dense_reference(self):
        # explicit projector matrices are affordable at D = 8
        for seed in range(5):
            p = exact_projector(random_unit_columns(8, 4, seed=200 + seed))
            q = exact_projector(random_unit_columns(8, 4, seed=300 + seed))
            dense = np.linalg.norm(
                dense_projector_matrix(p) - dense_projector_matrix(q), 2)
            assert projector_distance(p, q) == pytest.approx(dense, abs=1e-10)


class TestPerturbationBounds:
    def test_projection_residual_bound(self):
        # || (I - P_hat) hvec(w_k w_k^T) || <= 2 ||P - P_hat|| for every k
        net = random_teacher(9, 8, seed=24)
        cols, _ = build_hessian_matrix(net, 24, 0.02, seed=25)
        p_hat = top_m_projector(cols, 8)
        p_true = exact_projector(net.weights)
        dist = projector_distance(p_true, p_hat)
        for k in range(8):
            v = hvec_outer_batch(net.weights[:, k:k + 1])[:, 0]
            resid = np.linalg.norm(v - p_hat.basis @ (p_hat.basis.T @ v))
            assert resid <= 2 * dist + 1e-12

    def test_wedin_bound_on_injected_perturbations(self):
        # measured projector distance never exceeds ||M - M_hat||_F / sigma_m(M_hat)
        rng = np.random.default_rng(26)
        violations = 0
        for trial in range(20):
            net = random_teacher(8, 6, seed=400 + trial)
            cols, _ = build_hessian_matrix(net, 12, None, seed=500 + trial)
            p_true = top_m_projector(cols, 6)
            noise = rng.standard_normal(cols.shape)
            noise *= 0.01 * np.linalg.norm(cols) / np.linalg.norm(noise)
            cols_hat = cols + noise
            p_hat = top_m_projector(cols_hat, 6)
            bound = np.linalg.norm(noise) / p_hat.singular_values[5]
            dist = projector_distance(p_true, p_hat)
            violations += dist > bound
        assert violations == 0
