"""Helpers and reference routes shared by the tests.

Besides the fixtures and teacher helpers, this module holds seven reference
routes that the package itself never calls, kept here as test oracles:
:func:`hvec_basis`, the span's orthonormal hvec basis read back from the
projector's matrix stack; :func:`spm_ascend`, one ascent from one start on
the full span;
:func:`at_stencil_points`, the stencil function of ``fd_hessian`` for a
batch function of the stencil points; :func:`projector_distance`, the
spectral distance of two projectors; :func:`hvec_outer_batch`, the
columnwise hvec(u u^T) of a batch; :func:`hvec_objective`, the objective
``||P(u u^T)||^2`` read from the hvec basis rather than from the matrix
stack SPM reads; and :func:`exact_projector`, the projector onto the span of
known weight directions.
"""

import tracemalloc

import numpy as np
import pytest

from netrecover import (ConfigError, SpmConfig, SubspaceProjector, UniformShifts, hvec,
                        make_activation, sample_teacher, top_m_projector)
from netrecover.numdiff import hessian_stencil
from netrecover.spm import _ascend_batch


@pytest.fixture(scope="session")
def tanh_act():
    return make_activation("tanh")


@pytest.fixture(scope="session")
def sigmoid_act():
    return make_activation("sigmoid")


def random_teacher(dim, m, seed, act=None, shift_law=None):
    act = act or make_activation("tanh")
    law = shift_law or UniformShifts(-0.5, 0.5)
    return sample_teacher(dim, m, law, act, seed)


def random_unit_columns(dim, m, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((dim, m))
    return w / np.linalg.norm(w, axis=0)


def traced_peak(fn, *args, **kw):
    """``fn(*args, **kw)`` and the peak bytes it held in new allocations."""
    tracemalloc.start()
    try:
        out = fn(*args, **kw)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def hvec_basis(proj: SubspaceProjector) -> np.ndarray:
    """The hvec of each matrix B_j of the projector's stack, as (D(D+1)/2, m) columns."""
    return np.column_stack([hvec(b) for b in proj.mats])


def spm_ascend(proj: SubspaceProjector, u0, cfg: SpmConfig):
    """Ascend from a single unit starting point.

    Returns ``(u_star, objective, steps, converged)``.
    """
    u0 = np.asarray(u0, dtype=float)
    nrm = float(np.linalg.norm(u0))
    if abs(nrm - 1.0) > 1e-8:
        raise ConfigError(f"expected a unit vector, got norm {nrm!r}")
    u, steps, conv = _ascend_batch(proj, u0[:, None], cfg, proj.mats)
    return u[:, 0], float(hvec_objective(proj, u)[0]), int(steps[0]), bool(conv[0])


def at_stencil_points(f):
    """The stencil function of ``fd_hessian`` for a batch function f."""
    return lambda x, h: f(hessian_stencil(x, h * np.eye(x.shape[0])))


def projector_distance(p: SubspaceProjector, q: SubspaceProjector) -> float:
    """Spectral norm of P - Q, i.e. the sine of the largest principal angle.

    Computed as ``||(I - P) Q_basis||_2`` on the hvec bases, which stays
    accurate for nearly identical subspaces where the cosine route would
    lose half the digits to cancellation.
    """
    if p.dim != q.dim or p.rank != q.rank:
        raise ConfigError("projectors must share dimension and rank")
    pb, qb = hvec_basis(p), hvec_basis(q)
    resid = qb - pb @ (pb.T @ qb)
    return float(np.linalg.svd(resid, compute_uv=False)[0])


def hvec_outer_batch(us: np.ndarray) -> np.ndarray:
    """Column-wise hvec(u u^T) for a (D, R) batch, returned as (D(D+1)/2, R)."""
    us = np.asarray(us, dtype=float)
    rows, cols = np.triu_indices(us.shape[0])
    scale = np.where(rows == cols, 1.0, np.sqrt(2.0))
    return us[rows, :] * us[cols, :] * scale[:, None]


def hvec_objective(proj: SubspaceProjector, us: np.ndarray) -> np.ndarray:
    """Columnwise ||P(u u^T)||_F^2 from the hvec basis; lands in [0, 1] for unit u."""
    c = hvec_basis(proj).T @ hvec_outer_batch(us)
    return np.einsum("jr,jr->r", c, c)


def exact_projector(weights: np.ndarray) -> SubspaceProjector:
    """Projector onto span{w_k w_k^T} built from known weight columns."""
    w = np.asarray(weights, dtype=float)
    cols = hvec_outer_batch(w)
    return top_m_projector(cols, w.shape[1])
