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
from .numdiff import FDConfig, fd_hessian

__all__ = [
    "half_dim",
    "hvec",
    "unhvec",
    "hvec_outer",
    "hvec_outer_batch",
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


def hvec_outer(u: np.ndarray) -> np.ndarray:
    """hvec(u u^T) without forming the outer product separately."""
    return hvec_outer_batch(np.asarray(u, dtype=float)[:, None])[:, 0]


def hvec_outer_batch(us: np.ndarray) -> np.ndarray:
    """Column-wise hvec(u u^T) for a (D, R) batch, returned as (half, R)."""
    us = np.asarray(us, dtype=float)
    rows, cols, scale = _hvec_index(us.shape[0])
    return us[rows, :] * us[cols, :] * scale[:, None]


def _unhvec_batch(vs: np.ndarray, d: int) -> np.ndarray:
    """(half, R) -> (d, d, R) symmetric matrices."""
    rows, cols, scale = _hvec_index(d)
    out = np.zeros((d, d, vs.shape[1]))
    vals = vs / scale[:, None]
    out[rows, cols, :] = vals
    out[cols, rows, :] = vals
    return out


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

    def coeffs(self, v: np.ndarray) -> np.ndarray:
        return self.basis.T @ v

    def apply_hvec(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ v)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Project a symmetric matrix onto the subspace."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim, self.dim):
            raise ConfigError(f"matrix has shape {x.shape}, expected ({self.dim}, {self.dim})")
        return unhvec(self.apply_hvec(hvec(x)), self.dim)

    def action_batch(self, us: np.ndarray) -> np.ndarray:
        """Columnwise P(u u^T) u for a (D, R) batch of unit vectors."""
        h = hvec_outer_batch(us)
        proj = self.basis @ (self.basis.T @ h)
        mats = _unhvec_batch(proj, self.dim)
        return np.einsum("ijr,jr->ir", mats, us)

    def objective_batch(self, us: np.ndarray) -> np.ndarray:
        """Columnwise ||P(u u^T)||_F^2; lands in [0, 1] for unit u."""
        c = self.basis.T @ hvec_outer_batch(us)
        return np.einsum("jr,jr->r", c, c)


def build_hessian_matrix(net, n_hessians: int, cfg: FDConfig | None, seed: int,
                         exact: bool = False):
    """Half-vectorized Hessians of the network at Gaussian anchor points.

    Returns ``(columns, anchors, n_queries)`` where ``columns`` is
    ``(half_dim(D), n_hessians)``.  In finite-difference mode one stencil
    function, ``net.stencil_function(cfg.step_h)``, serves every anchor's
    :func:`fd_hessian` call, so the stencil's preactivation offsets are built
    once per stage; each Hessian costs 2 D^2 + 1 network queries, counted by
    that function.  ``exact=True`` switches to the analytic oracle (zero
    queries, tallied separately by the network).
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
    before = net.query_count
    stencil = None if exact else net.stencil_function(cfg.step_h)
    for i in range(n_hessians):
        if exact:
            h = net.analytic_hessian(anchors[i])
        else:
            h = fd_hessian(stencil, anchors[i], cfg)
        cols[:, i] = hvec(h)
    n_queries = net.query_count - before
    logger.info("built %d Hessian columns (%d queries)", n_hessians, n_queries)
    return cols, anchors, n_queries


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
