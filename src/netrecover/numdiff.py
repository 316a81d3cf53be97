"""Central finite-difference engine for black-box query functions.

All stencils are second order in the step size: gradients and Hessians use
the classic central schemes (4-point cross for mixed partials), and
directional derivatives up to order three use the matching 1-D stencils.
The function argument is a batch function ``f(points) -> values`` that maps
an (n, D) array of stencil points to their n values; each operator calls it
once.  Every operator is linear in the function argument and reduces its
stencil values in a fixed order, so results are deterministic.  Query
counts are exactly 2D for the gradient, 2D(D-1) + 2D + 1 for the Hessian,
and 2/3/4 for directional derivatives of order 1/2/3.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .exceptions import ConfigError, FDEvaluationError

__all__ = ["FDConfig", "fd_gradient", "fd_hessian", "fd_directional"]


@dataclasses.dataclass(frozen=True)
class FDConfig:
    """Stencil spacing for the finite-difference operators."""

    step_h: float = 0.01

    def __post_init__(self):
        if not (1e-8 <= self.step_h <= 1.0):
            raise ConfigError(f"step_h must lie in [1e-8, 1], got {self.step_h}")


def _evaluate(f, points: np.ndarray) -> np.ndarray:
    """Evaluate the batch function f at the stencil points."""
    vals = np.asarray(f(points), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = int(np.nonzero(~np.isfinite(vals))[0][0])
        raise FDEvaluationError(
            f"non-finite value {vals[bad]!r} at stencil point {points[bad]}",
            point=points[bad],
        )
    return vals


def fd_gradient(f, x, cfg: FDConfig) -> np.ndarray:
    """Central-difference gradient of the batch function f; exactly 2D queries."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    h = cfg.step_h
    pts = np.repeat(x[None, :], 2 * d, axis=0)
    idx = np.arange(d)
    pts[2 * idx, idx] += h
    pts[2 * idx + 1, idx] -= h
    vals = _evaluate(f, pts)
    return (vals[0::2] - vals[1::2]) / (2.0 * h)


def fd_hessian(f, x, cfg: FDConfig) -> np.ndarray:
    """Central-difference Hessian of the batch function f, symmetric by construction.

    Diagonal entries use the 3-point stencil sharing one center evaluation;
    each off-diagonal pair uses the 4-point cross, for 2D(D-1) + 2D + 1
    queries in total.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    h = cfg.step_h
    iu, ju = np.triu_indices(d, k=1)
    n_off = iu.shape[0]
    pts = np.repeat(x[None, :], 1 + 2 * d + 4 * n_off, axis=0)
    idx = np.arange(d)
    pts[1 + 2 * idx, idx] += h
    pts[2 + 2 * idx, idx] -= h
    base = 1 + 2 * d
    for q, (si, sj) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1))):
        rows = base + 4 * np.arange(n_off) + q
        pts[rows, iu] += si * h
        pts[rows, ju] += sj * h
    vals = _evaluate(f, pts)

    hess = np.zeros((d, d))
    f0 = vals[0]
    fp = vals[1 : base : 2]
    fm = vals[2 : base + 1 : 2]
    hess[idx, idx] = (fp - 2.0 * f0 + fm) / (h * h)
    off = vals[base:].reshape(n_off, 4)
    mixed = (off[:, 0] - off[:, 1] - off[:, 2] + off[:, 3]) / (4.0 * h * h)
    hess[iu, ju] = mixed
    hess[ju, iu] = mixed
    return hess


def fd_directional(f, x, u, n: int, cfg: FDConfig) -> float:
    """Order-n (n = 1, 2, 3) derivative of t -> f(x + t u) at t = 0.

    f is a batch function, as for the other operators.  Requires a unit
    direction.  Query counts are 2, 3 and 4 respectively; the order-3
    stencil is the 5-point antisymmetric scheme (center unused).
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    nrm = float(np.linalg.norm(u))
    if abs(nrm - 1.0) > 1e-8:
        raise ConfigError(f"direction must have unit norm, got ||u|| = {nrm!r}")
    h = cfg.step_h
    if n == 1:
        pts = np.stack([x + h * u, x - h * u])
        v = _evaluate(f, pts)
        return float((v[0] - v[1]) / (2.0 * h))
    if n == 2:
        pts = np.stack([x + h * u, x, x - h * u])
        v = _evaluate(f, pts)
        return float((v[0] - 2.0 * v[1] + v[2]) / (h * h))
    if n == 3:
        pts = np.stack([x + 2 * h * u, x + h * u, x - h * u, x - 2 * h * u])
        v = _evaluate(f, pts)
        return float((v[0] - 2.0 * v[1] + 2.0 * v[2] - v[3]) / (2.0 * h ** 3))
    raise ConfigError(f"directional derivative order must be 1, 2 or 3, got {n}")
