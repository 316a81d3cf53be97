"""Central finite-difference engine for black-box query functions.

All stencils are second order in the step size: the Hessian uses the
3-point central scheme on the diagonal and the 7-point mixed-partial scheme
(Abramowitz & Stegun 25.3.27) off it, and the directional derivatives of
orders two and three use the matching 1-D stencils.  Every operator is
linear in the function it differentiates and reduces its stencil values in
a fixed order, so results are deterministic.

The Hessian's stencil rows are laid out once, by :func:`hessian_stencil`,
and :func:`fd_hessian` reads their values from a stencil function
``f(x, h)``, which returns the values at the (D^2 + D + 1, D) stencil
points ``hessian_stencil(x, h I)``.  ``TeacherNetwork.stencil_function(h)``
returns one that builds the preactivations of those points directly and
never forms them.  The directional derivatives of orders 2 and 3 come
together from one call of a batch function.  Query counts are exactly
D^2 + D + 1 for the Hessian and 4k + 1 for both orders along k directions;
the function that serves the values counts them.
"""

from __future__ import annotations

import functools

import numpy as np

from .exceptions import ConfigError, FDEvaluationError

__all__ = ["fd_hessian", "fd_directional", "hessian_stencil"]


@functools.lru_cache(maxsize=None)
def _pairs(d: int):
    """The index pairs i < j of the mixed partials, in triu order."""
    return np.triu_indices(d, k=1)


def hessian_stencil(base, steps) -> np.ndarray:
    """The D^2 + D + 1 rows of the Hessian stencil, as images of a linear map.

    ``steps`` is (D, k): row i is the image of the step ``h e_i``.  The rows
    are ``base``; ``base + steps[i]`` for each i; ``base - steps[i]``; then
    two blocks over the pairs i < j, ``base + steps[i] + steps[j]`` and
    ``base - steps[i] - steps[j]``.  With ``base = x`` and ``steps = h I``
    the rows are the stencil points ``x``, ``x +- h e_i`` and
    ``x +- h (e_i + e_j)``; with ``base = x W + tau`` and ``steps = h W``
    they are the preactivations of those points in a shallow network, built
    by additions of contiguous blocks, O(D^2 k) work.  With ``base = 0`` the
    rows are offsets that depend on the steps only, and adding one base to
    every row gives the stencil at that base, equal to the rows built from
    it up to round-off.
    """
    base = np.asarray(base, dtype=float)
    steps = np.asarray(steps, dtype=float)
    d, k = steps.shape
    iu, ju = _pairs(d)
    n = iu.size
    rows = np.empty((1 + 2 * d + 2 * n, k))
    rows[0] = base
    plus, minus = rows[1:1 + d], rows[1 + d:1 + 2 * d]
    np.add(base, steps, out=plus)
    np.subtract(base, steps, out=minus)
    lo = 1 + 2 * d
    np.add(plus[iu], steps[ju], out=rows[lo:lo + n])
    np.subtract(minus[iu], steps[ju], out=rows[lo + n:])
    return rows


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


def fd_hessian(f, x, h: float) -> np.ndarray:
    """Central-difference Hessian from a stencil function, symmetric by construction.

    ``f(x, h)`` returns the values at the rows of :func:`hessian_stencil`
    with ``base = x`` and ``steps = h I``, in that order.  Diagonal entries
    use the 3-point stencil sharing the center value; each off-diagonal pair
    adds only ``f(x +- h (e_i + e_j))`` to those points (the 7-point
    scheme), for D^2 + D + 1 values in total.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    iu, ju = _pairs(d)
    vals = _finite(f(x, h), lambda r: hessian_stencil(x, h * np.eye(d))[r])

    hess = np.zeros((d, d))
    idx = np.arange(d)
    f0, fp, fm = vals[0], vals[1:1 + d], vals[1 + d:1 + 2 * d]
    hess[idx, idx] = (fp - 2.0 * f0 + fm) / (h * h)
    a = fp + fm
    pp, mm = vals[1 + 2 * d:].reshape(2, iu.size)
    mixed = (pp + mm - a[iu] - a[ju] + 2.0 * f0) / (2.0 * h * h)
    hess[iu, ju] = mixed
    hess[ju, iu] = mixed
    return hess


def fd_directional(f, x, u, h: float):
    """Order-2 and order-3 derivatives of t -> f(x + t u_k) at t = 0, at step h.

    f is a batch function of the stencil points and ``u`` a (D, k) batch of
    unit columns; returns two (k,) arrays.  One call of f reads the 4k + 1
    points x + hU, x, x - hU, x + 2hU and x - 2hU, in that order: the 3-point
    order-2 stencil and the 5-point antisymmetric order-3 stencil (center
    unused) share x +- hU, and the center is queried once for all k directions.
    """
    x = np.asarray(x, dtype=float)
    ut = np.asarray(u, dtype=float).T  # one direction per row
    nrm = np.linalg.norm(ut, axis=1)
    worst = float(nrm[np.argmax(np.abs(nrm - 1.0))])
    if abs(worst - 1.0) > 1e-8:
        raise ConfigError(f"direction must have unit norm, got ||u|| = {worst!r}")
    vp, v0, vm, vpp, vmm = _evaluate(
        f, [x + h * ut, x[None], x - h * ut, x + 2 * h * ut, x - 2 * h * ut])
    d2 = (vp - 2.0 * v0 + vm) / (h * h)
    d3 = (vpp - 2.0 * vp + 2.0 * vm - vmm) / (2.0 * h ** 3)
    return d2, d3


def _evaluate(f, blocks) -> list:
    """The batch function f at the stencil points, given as one (k, D) or (1, D) block per offset.

    Returns the values of each block, a (1,) block's broadcasting against the (k,) ones.
    """
    points = np.concatenate(blocks)
    vals = _finite(f(points), points.__getitem__)
    return np.split(vals, np.cumsum([len(b) for b in blocks[:-1]]))
