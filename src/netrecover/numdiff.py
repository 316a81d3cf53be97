"""Central finite-difference engine for black-box query functions.

All stencils are second order in the step size: the Hessian uses the
classic central schemes (4-point cross for mixed partials), and directional
derivatives up to order three use the matching 1-D stencils.  Every
operator is linear in the function it differentiates and reduces its
stencil values in a fixed order, so results are deterministic.

The Hessian's stencil rows are laid out once, by :func:`hessian_stencil`,
and :func:`fd_hessian` reads their values from a stencil function
``f(x, h)``.  :func:`at_stencil_points` makes one from any batch function
``f(points) -> values`` of the (2D^2 + 1, D) stencil points;
``TeacherNetwork.stencil_function(h)`` returns one that builds the
preactivations of those points directly and never forms them.  Directional
derivatives call a batch function once.  Query counts are exactly 2D^2 + 1
for the Hessian and 2/3/4 for directional derivatives of order 1/2/3; the
function that serves the values counts them.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .exceptions import ConfigError, FDEvaluationError

__all__ = ["FDConfig", "fd_hessian", "fd_directional", "hessian_stencil",
           "at_stencil_points"]


@dataclasses.dataclass(frozen=True)
class FDConfig:
    """Stencil spacing for the finite-difference operators."""

    step_h: float = 0.01

    def __post_init__(self):
        if not (1e-8 <= self.step_h <= 1.0):
            raise ConfigError(f"step_h must lie in [1e-8, 1], got {self.step_h}")


@functools.lru_cache(maxsize=None)
def _pairs(d: int):
    """The index pairs i < j of the mixed partials, in triu order."""
    return np.triu_indices(d, k=1)


def hessian_stencil(base, steps) -> np.ndarray:
    """The 2D^2 + 1 rows of the Hessian stencil, as images of a linear map.

    ``steps`` is (D, k): row i is the image of the step ``h e_i``.  The rows
    are ``base``; ``base + steps[i]`` for each i; ``base - steps[i]``; then
    four blocks over the pairs i < j, ``base + s steps[i] + t steps[j]`` for
    (s, t) = (+, +), (+, -), (-, +), (-, -).  With ``base = x`` and
    ``steps = h I`` the rows are the stencil points ``x +- h e_i +- h e_j``;
    with ``base = x W + tau`` and ``steps = h W`` they are the
    preactivations of those points in a shallow network, built by additions
    of contiguous blocks, O(D^2 k) work.  It is also used with ``base = 0``:
    the rows are then offsets, ``+- s steps[i] + t steps[j]``, that depend on
    the steps only, and adding one base to every row gives the stencil at
    that base, equal to the rows built from it up to round-off.
    """
    base = np.asarray(base, dtype=float)
    steps = np.asarray(steps, dtype=float)
    d, k = steps.shape
    iu, ju = _pairs(d)
    n = iu.size
    rows = np.empty((1 + 2 * d + 4 * n, k))
    rows[0] = base
    plus, minus = rows[1:1 + d], rows[1 + d:1 + 2 * d]
    np.add(base, steps, out=plus)
    np.subtract(base, steps, out=minus)
    step_j = steps[ju]
    lo = 1 + 2 * d
    for first in (plus[iu], minus[iu]):
        np.add(first, step_j, out=rows[lo:lo + n])
        np.subtract(first, step_j, out=rows[lo + n:lo + 2 * n])
        lo += 2 * n
    return rows


def _stencil_points(x: np.ndarray, h: float) -> np.ndarray:
    return hessian_stencil(x, h * np.eye(x.shape[0]))


def at_stencil_points(f):
    """The stencil function of :func:`fd_hessian` for a batch function f."""
    return lambda x, h: f(_stencil_points(x, h))


def _finite(vals, point_at) -> np.ndarray:
    """The values as floats, or FDEvaluationError at the first non-finite one.

    ``point_at(row)`` gives the stencil point of a row, for the error.
    """
    vals = np.asarray(vals, dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        point = point_at(int(bad[0]))
        raise FDEvaluationError(
            f"non-finite value {vals[bad[0]]!r} at stencil point {point}", point=point)
    return vals


def _evaluate(f, points: np.ndarray) -> np.ndarray:
    """Evaluate the batch function f at the stencil points."""
    return _finite(f(points), points.__getitem__)


def fd_hessian(f, x, cfg: FDConfig) -> np.ndarray:
    """Central-difference Hessian from a stencil function, symmetric by construction.

    ``f(x, h)`` returns the values at the rows of :func:`hessian_stencil`
    with ``base = x`` and ``steps = h I``, in that order.  Diagonal entries
    use the 3-point stencil sharing the center value; each off-diagonal pair
    uses the 4-point cross, for 2D^2 + 1 values in total.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    h = cfg.step_h
    iu, ju = _pairs(d)
    n = iu.size
    vals = _finite(f(x, h), lambda r: _stencil_points(x, h)[r])

    hess = np.zeros((d, d))
    idx = np.arange(d)
    f0, fp, fm = vals[0], vals[1:1 + d], vals[1 + d:1 + 2 * d]
    hess[idx, idx] = (fp - 2.0 * f0 + fm) / (h * h)
    pp, pm, mp, mm = vals[1 + 2 * d:].reshape(4, n)
    mixed = (pp - pm - mp + mm) / (4.0 * h * h)
    hess[iu, ju] = mixed
    hess[ju, iu] = mixed
    return hess


def fd_directional(f, x, u, n: int, cfg: FDConfig) -> float:
    """Order-n (n = 1, 2, 3) derivative of t -> f(x + t u) at t = 0.

    f is a batch function of the stencil points.  Requires a unit
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
