"""Hessian-span estimation: PCA over finite-difference Hessians.

The Hessian columns and their PCA use an isometric half-vectorization
(off-diagonal entries scaled by sqrt(2)), which preserves every Frobenius
inner product at half the memory of a full flattening.  The principal
subspace is extracted through the Gram matrix whenever the number of
columns is small, so no object of size D^2 x D^2 is ever materialized.  The
projector holds the span only as the (m, D, D) stack of basis matrices B_j.
The finite-difference Hessians share one stencil function, whose helper
thread evaluates half of each stencil's rows; it lives inside
:func:`build_hessian_matrix`.
"""

from __future__ import annotations

import contextlib
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
    "SubspaceProjector",
    "build_hessian_matrix",
    "top_m_projector",
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


def _unhvec_columns(basis: np.ndarray, d: int) -> np.ndarray:
    """:func:`unhvec` of each column, as a (rank, D, D) stack written in place."""
    rows, cols, _ = _hvec_index(d)
    out = np.zeros((basis.shape[1], d, d))
    out[:, rows, cols] = basis.T
    out[:, cols, rows] = basis.T
    # the off-diagonal entries were stored times sqrt(2)
    out /= np.where(np.eye(d, dtype=bool), 1.0, _SQRT2)
    return out


@dataclasses.dataclass
class SubspaceProjector:
    """Orthogonal projector onto an m-dimensional space of symmetric matrices.

    Stored as the (rank, D, D) stack ``mats`` of symmetric matrices B_j,
    orthonormal in Frobenius, which SPM reads through :meth:`action_batch`.
    The singular values of the source column matrix are retained because the
    m-th one enters the Wedin perturbation bound.
    """

    dim: int
    rank: int
    mats: np.ndarray      # (rank, dim, dim), the span's orthonormal basis matrices B_j
    spectrum: np.ndarray  # every singular value of the source columns, descending

    @property
    def singular_values(self) -> np.ndarray:
        """The top ``rank`` singular values."""
        return self.spectrum[: self.rank]

    def action_batch(self, us: np.ndarray, mats: np.ndarray):
        """Columnwise P(u u^T) u for a (D, R) batch of unit vectors, with its products.

        ``mats`` is :attr:`mats`, or any (m, D, D) stack of symmetric
        matrices orthonormal in Frobenius.  P(u u^T) = sum_j (u^T B_j u) B_j,
        so the action is sum_j (u^T B_j u) B_j u.  Every B_j u_r comes from
        one GEMM of the whole stack, read as an (m D, D) matrix, against the
        batch.  Returns ``(action, prods, coeffs)``: the (D, R) action and
        the (R, m, D) products B_j u_r and (R, m) forms u_r^T B_j u_r it was
        read from, which a Newton step reuses.
        """
        m, d, _ = mats.shape
        prods = (us.T @ mats.reshape(m * d, d).T).reshape(us.shape[1], m, d)
        coeffs = (prods @ us.T[:, :, None])[:, :, 0]
        return (coeffs[:, None, :] @ prods)[:, 0, :].T, prods, coeffs


def build_hessian_matrix(net, n_hessians: int, h: float | None, seed: int):
    """Half-vectorized Hessians of the network at Gaussian anchor points.

    Returns ``(columns, anchors)`` where ``columns`` is
    ``(half_dim(D), n_hessians)``.  With a step ``h`` one stencil function,
    ``net.stencil_function(h)``, serves every anchor's :func:`fd_hessian`
    call, so the stencil's preactivation offsets are built once per stage;
    each Hessian costs D^2 + D + 1 network queries, counted by that function
    on ``net.query_count``.  The stencil function's helper thread evaluates
    the second half of each stencil's row blocks; it is opened and joined
    inside this call, so no thread outlives the stage, and an error on it
    propagates from here.  The anchors are visited in order on the calling
    thread.  ``h=None`` reads the analytic oracle instead (zero queries,
    tallied separately by the network) and starts no thread.
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
    with contextlib.nullcontext() if h is None else net.stencil_function(h) as stencil:
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
        evals, evecs = np.linalg.eigh(columns.T @ columns)
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
    return SubspaceProjector(dim=dim, rank=m, mats=_unhvec_columns(basis, dim), spectrum=svals)

