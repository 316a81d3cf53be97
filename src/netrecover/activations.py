"""Activation functions with exact derivatives up to order three.

Each activation carries the interval radius ``tau_inf`` on which shifts are
admissible, the uniform derivative bound ``kappa``, and enough monotonicity
information about the second derivative to invert it numerically (the
inversion is what turns recovered coefficient values back into shifts).
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Callable

import numpy as np

from .exceptions import ConfigError

__all__ = [
    "Activation",
    "make_activation",
    "invert_g2",
    "slope_sign_certificate",
]

_KAPPA_GRID_HALFWIDTH = 20.0
_KAPPA_GRID_POINTS = 100_000
_MONOTONE_GRID_POINTS = 1000
_INVERT_TOL = 1e-12


def _tanh_g(x):
    return np.tanh(x)


def _tanh_g1(x):
    t = np.tanh(x)
    return 1.0 - t * t


def _tanh_g2(x):
    t = np.tanh(x)
    return -2.0 * t * (1.0 - t * t)


def _tanh_g3(x):
    t2 = np.tanh(x) ** 2
    return -2.0 * (1.0 - t2) * (1.0 - 3.0 * t2)


def _sigmoid_g(x):
    # exp(-x) overflows to inf below x = -709, where the result is then exactly 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _sigmoid_g1(x):
    s = _sigmoid_g(x)
    return s * (1.0 - s)


def _sigmoid_g2(x):
    s = _sigmoid_g(x)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


def _sigmoid_g3(x):
    s = _sigmoid_g(x)
    return s * (1.0 - s) * (1.0 - 6.0 * s + 6.0 * s * s)


@dataclasses.dataclass(frozen=True)
class Activation:
    """Scalar activation with exact derivatives g, g', g'', g'''.

    Immutable after construction, so instances can be shared freely across
    threads.

    Attributes
    ----------
    kind : str
        One of ``"tanh"``, ``"sigmoid"``, ``"custom"``.
    tau_inf : float
        Admissible shift radius: shifts live in ``[-tau_inf, tau_inf]``.
    kappa : float
        ``max_n<=3 sup |g^(n)|``, estimated on a wide grid at each read.
    g2_monotone_sign : int
        +1 if g'' increases on the monotone core, -1 if it decreases.
    g2_monotone_radius : float
        Largest verified radius ``<= tau_inf`` on which g'' is strictly
        monotone.  Equals ``tau_inf`` for tanh; smaller for the sigmoid,
        whose g'' turns around at ``|x| ~ 1.317 < 1.5``.
    """

    kind: str
    g: Callable[[np.ndarray], np.ndarray]
    g1: Callable[[np.ndarray], np.ndarray]
    g2: Callable[[np.ndarray], np.ndarray]
    g3: Callable[[np.ndarray], np.ndarray]
    tau_inf: float
    g2_monotone_sign: int
    g2_monotone_radius: float

    @property
    def kappa(self) -> float:
        return _grid_kappa(self.g1, self.g2, self.g3)

    def derivative(self, n: int) -> Callable[[np.ndarray], np.ndarray]:
        """Return g^(n) for n in 0..3."""
        return (self.g, self.g1, self.g2, self.g3)[n]

    def g_and_g1(self, x):
        """``(g(x), g'(x))``, bit-equal to the two calls.  The built-in kinds share
        one tanh or one exp; a g or g1 swapped in by dataclasses.replace is called."""
        if self.g is _tanh_g and self.g1 is _tanh_g1:
            t = np.tanh(x)
            return t, 1.0 - t * t
        if self.g is _sigmoid_g and self.g1 is _sigmoid_g1:
            s = _sigmoid_g(x)
            return s, s * (1.0 - s)
        return self.g(x), self.g1(x)


def _grid_kappa(g1, g2, g3) -> float:
    x = np.linspace(-_KAPPA_GRID_HALFWIDTH, _KAPPA_GRID_HALFWIDTH, _KAPPA_GRID_POINTS)
    return float(max(np.max(np.abs(d(x))) for d in (g1, g2, g3)))


def _monotone_scan(g2, tau_inf: float):
    """Scan g'' on a grid over [-tau_inf, tau_inf].

    Returns ``(sign, radius, violation_x)`` where ``sign`` is the direction of
    monotonicity near 0, ``radius`` the largest symmetric radius on which the
    scan saw no direction change, and ``violation_x`` the location of the
    first violation (None if monotone throughout).
    """
    x = np.linspace(-tau_inf, tau_inf, _MONOTONE_GRID_POINTS)
    d = np.diff(g2(x))
    mid = len(d) // 2
    sign = 1 if d[mid] > 0 else -1
    bad = np.nonzero(sign * d <= 0)[0]
    if bad.size == 0:
        return sign, tau_inf, None
    # first violation when walking outward from the center
    lo = bad[bad < mid]
    hi = bad[bad >= mid]
    edges = []
    if hi.size:
        edges.append(x[hi[0]])
    if lo.size:
        edges.append(-x[lo[-1] + 1])
    radius = float(min(abs(e) for e in edges))
    worst = min(edges, key=abs)
    return sign, radius, float(worst)


def make_activation(kind: str, *, custom: dict | None = None) -> Activation:
    """Build one of the supported activations.

    ``kind`` is ``"tanh"``, ``"sigmoid"``, or ``"custom"``.  A custom bundle
    is a dict with callables ``g, g1, g2, g3`` and a declared ``tau_inf``;
    it is rejected (with the location of the violation) when g'' is not
    strictly monotone on the declared interval or g' changes sign there.
    """
    if kind == "tanh":
        g, g1, g2, g3 = _tanh_g, _tanh_g1, _tanh_g2, _tanh_g3
        tau_inf = 0.6
    elif kind == "sigmoid":
        g, g1, g2, g3 = _sigmoid_g, _sigmoid_g1, _sigmoid_g2, _sigmoid_g3
        tau_inf = 1.5
    elif kind == "custom":
        if custom is None or not all(k in custom for k in ("g", "g1", "g2", "g3", "tau_inf")):
            raise ConfigError("custom activation needs g, g1, g2, g3 and tau_inf")
        g, g1, g2, g3 = custom["g"], custom["g1"], custom["g2"], custom["g3"]
        tau_inf = float(custom["tau_inf"])
        if tau_inf <= 0:
            raise ConfigError("tau_inf must be positive")
    else:
        raise ConfigError(f"unknown activation kind {kind!r}")

    sign, radius, violation = _monotone_scan(g2, tau_inf)
    if kind == "custom" and violation is not None:
        raise ConfigError(
            f"custom activation: g'' is not strictly monotone on "
            f"(-{tau_inf}, {tau_inf}); first violation near x = {violation:.6g}"
        )
    # g' must keep one sign on the shift interval
    xs = np.linspace(-tau_inf, tau_inf, _MONOTONE_GRID_POINTS)
    s1 = np.sign(g1(xs))
    if np.any(s1 == 0) or np.any(s1 != s1[0]):
        raise ConfigError(f"activation {kind!r}: g' changes sign on the shift interval")

    return Activation(
        kind=kind,
        g=g,
        g1=g1,
        g2=g2,
        g3=g3,
        tau_inf=tau_inf,
        g2_monotone_sign=sign,
        g2_monotone_radius=radius,
    )


def invert_g2(act: Activation, y: float) -> float:
    """Solve ``g''(t) = y`` for t on the admissible shift interval.

    Uses bracketing bisection on the strictly monotone core of
    ``[-tau_inf, tau_inf]``; when ``y`` lies in the image the residual
    ``|g''(t) - y|`` is at most 1e-12.  Values outside the image clamp to
    the boundary of the monotone core, which for a fully monotone g''
    (tanh) is exactly ``+-tau_inf``.
    """
    if not math.isfinite(y):
        raise ConfigError(f"invert_g2: target value must be finite, got {y!r}")
    r = act.g2_monotone_radius
    lo, hi = -r, r
    flo = float(act.g2(lo))
    fhi = float(act.g2(hi))
    if act.g2_monotone_sign < 0:
        lo, hi, flo, fhi = hi, lo, fhi, flo  # orient so values increase lo -> hi
    if y <= flo:
        return lo
    if y >= fhi:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = float(act.g2(mid))
        if abs(fmid - y) <= _INVERT_TOL:
            return mid
        if fmid < y:
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) < 1e-17:
            break
    return 0.5 * (lo + hi)


def slope_sign_certificate(act: Activation, n_tau: int = 101, quad_nodes: int = 128):
    """Numerically certify that the Gaussian mean of g'(. + tau) keeps one sign.

    Evaluates ``integral g'(t + tau) exp(-t^2/2) dt`` by Gauss-Hermite
    quadrature on a tau-grid over the shift interval.  Returns
    ``(sign, min_abs_integral)``; a report, not a proof.  Raises if the sign
    flips across the grid.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(quad_nodes)
    taus = np.linspace(-act.tau_inf, act.tau_inf, n_tau)
    # change of variables t = sqrt(2) x maps the e^{-x^2} weight to e^{-t^2/2}
    vals = np.array(
        [math.sqrt(2.0) * float(weights @ act.g1(math.sqrt(2.0) * nodes + tau)) for tau in taus]
    )
    signs = np.sign(vals)
    if np.any(signs == 0) or np.any(signs != signs[0]):
        raise ConfigError("mean slope changes sign across the shift interval")
    return int(signs[0]), float(np.min(np.abs(vals)))
