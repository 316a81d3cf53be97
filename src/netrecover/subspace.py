"""Hessian-span estimation: PCA over finite-difference Hessians.

Symmetric matrices are handled through an isometric half-vectorization
(off-diagonal entries scaled by sqrt(2)), which preserves every Frobenius
inner product at half the memory of a full flattening.  The principal
subspace of the Hessian columns is extracted through the Gram matrix
whenever the number of columns is small, so no object of size D^2 x D^2 is
ever materialized.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import warnings

import numpy as np

from .exceptions import ConfigError, SubspaceDeficientError
from .numdiff import fd_hessian

__all__ = [
    "half_dim",
    "hvec",
    "unhvec",
    "hvec_outer_batch",
    "basis_products",
    "SubspaceProjector",
    "build_hessian_matrix",
    "top_m_projector",
    "projector_distance",
    "exact_projector",
]

logger = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def _hvec_index(d: int):
    rows, cols = np.triu_indices(d)
    scale = np.where(rows == cols, 1.0, _SQRT2)
    return rows, cols, scale


def half_dim(d: int) -> int:
    return d * (d + 1) // 2


def hvec(a: np.ndarray) -> np.ndarray:
    """Isometric half-vectorization of a symmetric matrix."""
    a = np.asarray(a, dtype=float)
    rows, cols, scale = _hvec_index(a.shape[0])
    return a[rows, cols] * scale


def unhvec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`hvec`."""
    rows, cols, scale = _hvec_index(d)
    a = np.zeros((d, d))
    vals = np.asarray(v, dtype=float) / scale
    a[rows, cols] = vals
    a[cols, rows] = vals
    return a


def hvec_outer_batch(us: np.ndarray) -> np.ndarray:
    """Column-wise hvec(u u^T) for a (D, R) batch, returned as (half, R)."""
    us = np.asarray(us, dtype=float)
    rows, cols, scale = _hvec_index(us.shape[0])
    return us[rows, :] * us[cols, :] * scale[:, None]


def basis_products(mats: np.ndarray, us: np.ndarray):
    """Every B_j u and u^T B_j u for a (D, R) batch, by one GEMM of the stack.

    ``mats`` is a (m, D, D) stack of symmetric matrices.  Returns the (R, m, D)
    products B_j u_r and the (R, m) quadratic forms u_r^T B_j u_r.
    """
    m, d, _ = mats.shape
    prods = (us.T @ mats.reshape(m * d, d).T).reshape(us.shape[1], m, d)
    return prods, (prods @ us.T[:, :, None])[:, :, 0]


@dataclasses.dataclass
class SubspaceProjector:
    """Orthogonal projector onto an m-dimensional space of symmetric matrices.

    Stored as an orthonormal basis of half-vectorized matrices.  The
    singular values of the source column matrix are retained because the
    m-th one enters the Wedin perturbation bound.
    """

    dim: int
    rank: int
    basis: np.ndarray     # (half_dim(dim), rank), orthonormal columns
    spectrum: np.ndarray  # every singular value of the source columns, descending

    @property
    def singular_values(self) -> np.ndarray:
        """The top ``rank`` singular values."""
        return self.spectrum[: self.rank]

    def matrices(self) -> np.ndarray:
        """The basis as a (rank, D, D) stack of symmetric matrices B_j, orthonormal in Frobenius.

        It takes rank * D^2 doubles, about twice the basis, so a caller builds
        it once for a run of :meth:`action_batch` calls rather than the
        projector keeping it.  The stack is written in place, so building it
        holds no second stack.
        """
        d = self.dim
        rows, cols, _ = _hvec_index(d)
        out = np.zeros((self.rank, d, d))
        out[:, rows, cols] = self.basis.T
        out[:, cols, rows] = self.basis.T
        # the off-diagonal entries were stored times sqrt(2)
        out /= np.where(np.eye(d, dtype=bool), 1.0, _SQRT2)
        return out

    def action_batch(self, us: np.ndarray, mats: np.ndarray):
        """Columnwise P(u u^T) u for a (D, R) batch of unit vectors, with its products.

        ``mats`` is :meth:`matrices`, or any stack orthonormal in Frobenius.
        P(u u^T) = sum_j (u^T B_j u) B_j, so the action is sum_j (u^T B_j u)
        B_j u, from one GEMM of the stack against the batch
        (:func:`basis_products`).  Returns ``(action, prods, coeffs)``: the
        (D, R) action and the (R, m, D) products B_j u_r and (R, m) forms
        u_r^T B_j u_r it was read from, which a Newton step reuses.
        """
        prods, coeffs = basis_products(mats, us)
        return (coeffs[:, None, :] @ prods)[:, 0, :].T, prods, coeffs

    def objective_batch(self, us: np.ndarray) -> np.ndarray:
        """Columnwise ||P(u u^T)||_F^2; lands in [0, 1] for unit u."""
        c = self.basis.T @ hvec_outer_batch(us)
        return np.einsum("jr,jr->r", c, c)


def build_hessian_matrix(net, n_hessians: int, h: float | None, seed: int):
    """Half-vectorized Hessians of the network at Gaussian anchor points.

    Returns ``(columns, anchors)`` where ``columns`` is
    ``(half_dim(D), n_hessians)``.  With a step ``h`` one stencil function,
    ``net.stencil_function(h)``, serves every anchor's :func:`fd_hessian`
    call, so the stencil's preactivation offsets are built once per stage;
    each Hessian costs D^2 + D + 1 network queries, counted by that function
    on ``net.query_count``.  ``h=None`` reads the analytic oracle instead
    (zero queries, tallied separately by the network).
    """
    if n_hessians < 1:
        raise ConfigError("n_hessians must be positive")
    if n_hessians < net.n_neurons:
        warnings.warn(
            f"n_hessians = {n_hessians} is below the neuron count {net.n_neurons}; "
            "the Hessian span cannot reach full rank",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    anchors = rng.standard_normal((n_hessians, net.dim))
    cols = np.empty((half_dim(net.dim), n_hessians))
    stencil = None if h is None else net.stencil_function(h)
    for i, x in enumerate(anchors):
        cols[:, i] = hvec(net.analytic_hessian(x) if h is None else fd_hessian(stencil, x, h))
    logger.info("built %d Hessian columns", n_hessians)
    return cols, anchors


def top_m_projector(columns: np.ndarray, m: int) -> SubspaceProjector:
    """Projector onto the top-m left singular subspace of the column matrix.

    Uses an eigendecomposition of the small Gram matrix when the number of
    columns is well below the half-vectorization dimension, otherwise a
    direct thin SVD.  Raises :class:`SubspaceDeficientError` when the m-th
    singular value is below 1e-10 of the first, which flags an unlearnable
    instance rather than mere round-off.
    """
    columns = np.asarray(columns, dtype=float)
    d_half, n_cols = columns.shape
    dim = int(round((math.isqrt(8 * d_half + 1) - 1) / 2))
    if half_dim(dim) != d_half:
        raise ConfigError(f"column length {d_half} is not a half-vectorization size")
    if n_cols < m:
        raise SubspaceDeficientError(
            f"need at least m = {m} columns, got {n_cols}", sigma_ratio=0.0
        )
    use_gram = n_cols <= d_half // 2
    if use_gram:
        gram = columns.T @ columns
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1]
        evals = np.clip(evals[order], 0.0, None)
        svals = np.sqrt(evals)
        # the Gram route squares the condition number, so a borderline
        # sigma_m needs the direct SVD to decide deficiency reliably
        if svals[m - 1] <= 1e-7 * svals[0]:
            use_gram = False
        else:
            basis = columns @ (evecs[:, order[:m]] / svals[:m])
    if not use_gram:
        u, svals, _ = np.linalg.svd(columns, full_matrices=False)
        basis = u[:, :m]
    ratio = float(svals[m - 1] / max(svals[0], np.finfo(float).tiny))
    if svals[m - 1] <= 1e-10 * max(svals[0], np.finfo(float).tiny):
        raise SubspaceDeficientError(
            f"sigma_{m}/sigma_1 = {ratio:.3e} -- Hessian span is rank deficient",
            sigma_ratio=ratio,
        )
    # polish orthonormality lost to round-off in the Gram route
    basis, r = np.linalg.qr(basis)
    basis *= np.sign(np.diag(r))
    return SubspaceProjector(dim=dim, rank=m, basis=basis, spectrum=svals)


def projector_distance(p: SubspaceProjector, q: SubspaceProjector) -> float:
    """Spectral norm of P - Q, i.e. the sine of the largest principal angle.

    Computed as ``||(I - P) Q_basis||_2``, which stays accurate for nearly
    identical subspaces where the cosine route would lose half the digits to
    cancellation.
    """
    if p.dim != q.dim or p.rank != q.rank:
        raise ConfigError("projectors must share dimension and rank")
    resid = q.basis - p.basis @ (p.basis.T @ q.basis)
    return float(np.linalg.svd(resid, compute_uv=False)[0])


def exact_projector(weights: np.ndarray) -> SubspaceProjector:
    """Projector onto span{w_k w_k^T} built from known weight columns."""
    w = np.asarray(weights, dtype=float)
    cols = hvec_outer_batch(w)
    return top_m_projector(cols, w.shape[1])
