"""Activation functions with exact derivatives up to order three.

Each activation declares its shift radius ``tau_inf``: on ``[-tau_inf,
tau_inf]`` g'' is strictly decreasing, g''' keeps the sign of g'''(0) and
g' > 0.  So :func:`invert_g2` reads a shift back from s_k g''(tau_k), and the
sign of s_k g'''(tau_k) against g'''(0) reads the sign s_k.  Both fail first
where g''' vanishes; each radius is a literal just inside that point, checked
on a grid by ``tests/test_activations.py``.  The module holds only the
activations and :func:`invert_g2`; the Gaussian means of their derivatives
(the kernel floor, the mean-slope certificate) are in
:mod:`netrecover.diagnostics`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .exceptions import ConfigError

__all__ = [
    "Activation",
    "make_activation",
    "invert_g2",
]

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
        ``"tanh"`` or ``"sigmoid"``.
    tau_inf : float
        Shift radius: shifts live in ``[-tau_inf, tau_inf]``, on which g'' is
        strictly decreasing, g''' keeps the sign of g'''(0) and g' > 0.
    """

    kind: str
    g: Callable[[np.ndarray], np.ndarray]
    g1: Callable[[np.ndarray], np.ndarray]
    g2: Callable[[np.ndarray], np.ndarray]
    g3: Callable[[np.ndarray], np.ndarray]
    tau_inf: float

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


def make_activation(kind: str) -> Activation:
    """Build the ``"tanh"`` or the ``"sigmoid"`` activation with its declared ``tau_inf``."""
    if kind == "tanh":
        # g''' = -2 (1 - t^2)(1 - 3 t^2) first vanishes at atanh(1/sqrt(3)) ~ 0.658
        return Activation(kind, _tanh_g, _tanh_g1, _tanh_g2, _tanh_g3, tau_inf=0.6)
    if kind == "sigmoid":
        # g''' = s (1 - s)(1 - 6 s + 6 s^2) first vanishes at ln(2 + sqrt(3)) ~ 1.3170
        return Activation(kind, _sigmoid_g, _sigmoid_g1, _sigmoid_g2, _sigmoid_g3,
                          tau_inf=1.3)
    raise ConfigError(f"unknown activation kind {kind!r}")


def invert_g2(act: Activation, y: float) -> float:
    """Solve ``g''(t) = y`` for t in ``[-tau_inf, tau_inf]``.

    Bisects on the interval, where g'' is strictly monotone, with the
    bracket oriented by comparing g'' at its two ends.  When ``y`` lies in
    the image the residual ``|g''(t) - y|`` is at most 1e-12.  A value below
    the image returns the end where g'' is smallest, one above it the other.
    """
    if not math.isfinite(y):
        raise ConfigError(f"invert_g2: target value must be finite, got {y!r}")
    lo, hi = -act.tau_inf, act.tau_inf
    flo = float(act.g2(lo))
    fhi = float(act.g2(hi))
    if flo > fhi:
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

