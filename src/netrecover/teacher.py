"""Planted shallow networks and their black-box query oracle.

A teacher network is ``f(x) = sum_k g(<w_k, x> + tau_k)`` with unit-norm
weight columns and bounded shifts.  All parameter access in the recovery
pipeline goes through the counted evaluation oracle: ``eval_batch`` for
given inputs, and ``stencil_function(h)`` for the finite-difference
Hessian's stencil points, which it evaluates without forming them.  Both
apply g to one row block of ``BLOCK_BYTES`` at a time, so no query holds
more preactivations than that.  The stencil function is a context manager
whose helper thread evaluates the second half of each stencil's row blocks;
the query is still one call, counted on the calling thread.
The analytic derivative methods exist for tests and for the
exact-derivative pipeline mode, which the derivative stages select with the
step ``h=None``, and are tallied separately so the harness can verify the
black-box budget.  Network files are read and written by
:mod:`netrecover.fileio`.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import threading

import numpy as np

from .activations import Activation
from .exceptions import ConfigError
from .numdiff import hessian_stencil

__all__ = [
    "TeacherNetwork",
    "StudentNetwork",
    "UniformShifts",
    "GaussianShifts",
    "FixedShifts",
    "sample_teacher",
]

_UNIT_TOL = 1e-12
# g is applied to row blocks of about this many bytes (every eval_batch, the
# stencil's rows, refine's sample draw and loss record): a block stays in
# cache, and g's temporaries reuse freed heap memory instead of fresh pages
BLOCK_BYTES = 1 << 18


def block_rows(width: int) -> int:
    """Rows of ``width`` float64 entries that fit in ``BLOCK_BYTES``, at least one."""
    return max(1, BLOCK_BYTES // (8 * width))


class _Counter:
    """Thread-safe accumulator for query counts."""

    __slots__ = ("_lock", "value")

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def add(self, k: int):
        with self._lock:
            self.value += k


@dataclasses.dataclass(frozen=True)
class UniformShifts:
    low: float = -0.5
    high: float = 0.5

    def __post_init__(self):
        if not -np.inf < self.low <= self.high < np.inf:
            raise ConfigError(f"uniform shift range [{self.low}, {self.high}] "
                              "must be finite with low <= high")

    def sample(self, m, tau_inf, rng):
        if self.low < -tau_inf or self.high > tau_inf:
            raise ConfigError(
                f"uniform shift range [{self.low}, {self.high}] exceeds "
                f"[-{tau_inf}, {tau_inf}]"
            )
        return rng.uniform(self.low, self.high, size=m), 0


@dataclasses.dataclass(frozen=True)
class GaussianShifts:
    """Centered Gaussian shifts with std ``sigma``, clamped at +-tau_inf.

    Clamping events are counted and reported by ``sample_teacher``.
    """

    sigma: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.sigma < np.inf:
            raise ConfigError(f"gaussian shift sigma {self.sigma} must be finite and >= 0")

    def sample(self, m, tau_inf, rng):
        tau = rng.normal(0.0, self.sigma, size=m)
        clamped = int(np.sum(np.abs(tau) > tau_inf))
        return np.clip(tau, -tau_inf, tau_inf), clamped


@dataclasses.dataclass(frozen=True)
class FixedShifts:
    values: tuple

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ConfigError(f"fixed shifts {self.values} must be finite")

    def sample(self, m, tau_inf, rng):
        tau = np.asarray(self.values, dtype=float)
        if tau.shape != (m,):
            raise ConfigError(f"fixed shift vector has length {tau.shape}, expected {m}")
        if np.max(np.abs(tau)) > tau_inf:
            raise ConfigError("fixed shifts exceed the admissible interval")
        return tau.copy(), 0


def _check_network_params(weights, shifts):
    weights = np.asarray(weights, dtype=float)
    shifts = np.asarray(shifts, dtype=float)
    if weights.ndim != 2:
        raise ConfigError("weights must be a (D, m) matrix")
    d, m = weights.shape
    if shifts.shape != (m,):
        raise ConfigError(f"shift vector has shape {shifts.shape}, expected ({m},)")
    norms = np.linalg.norm(weights, axis=0)
    # written so that a NaN norm fails the test
    bad = np.nonzero(~(np.abs(norms - 1.0) <= _UNIT_TOL))[0]
    if bad.size:
        raise ConfigError(
            f"weight column {bad[0]} has norm {float(norms[bad[0]])!r}, expected unit"
        )
    return weights, shifts


class _ShallowNet:
    """Shared evaluation machinery for teacher and student networks."""

    def __init__(self, weights, shifts, act: Activation):
        self.weights, self.shifts = _check_network_params(weights, shifts)
        self.act = act
        self.dim, self.n_neurons = self.weights.shape

    def _preactivations(self, x):
        return x @ self.weights + self.shifts

    def eval_batch(self, xs) -> np.ndarray:
        """``sum_k g(<w_k, x_i> + tau_k)`` for each row x_i of ``xs``.

        The rows are evaluated ``block_rows(m)`` at a time into one output
        array, so a batch of any size holds one block of preactivations.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ConfigError(f"batch must have shape (n, {self.dim})")
        vals = np.empty(xs.shape[0])
        rows = block_rows(self.n_neurons)
        for lo in range(0, xs.shape[0], rows):
            vals[lo:lo + rows] = np.sum(
                self.act.g(self._preactivations(xs[lo:lo + rows])), axis=1)
        return vals


class TeacherNetwork(_ShallowNet):
    """The planted model with a counted black-box query oracle.

    ``query_count`` counts scalar f-evaluations served through ``eval_batch``
    and the stencil functions, one per point, whatever the row blocks they
    are evaluated in.  The analytic derivative oracles increment
    ``oracle_count`` instead.  The shifts must lie in the activation's
    admissible interval ``[-tau_inf, tau_inf]``.
    ``n_shifts_clamped`` counts the sampled shifts that were clamped into it.
    """

    def __init__(self, weights, shifts, act: Activation, seed: int | None = None,
                 n_shifts_clamped: int = 0):
        super().__init__(weights, shifts, act)
        # written so that NaN shifts fail it
        if not np.max(np.abs(self.shifts), initial=0.0) <= act.tau_inf + 1e-15:
            raise ConfigError("shifts are not finite or exceed the admissible interval "
                              "of the activation")
        self.seed = seed
        self.n_shifts_clamped = n_shifts_clamped
        self._queries = _Counter()
        self._oracle = _Counter()

    @property
    def query_count(self) -> int:
        return self._queries.value

    @property
    def oracle_count(self) -> int:
        return self._oracle.value

    def _input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ConfigError(f"input has shape {x.shape}, expected ({self.dim},)")
        return x

    def eval_batch(self, xs) -> np.ndarray:
        vals = super().eval_batch(xs)
        self._queries.add(vals.shape[0])
        return vals

    @contextlib.contextmanager
    def stencil_function(self, h: float):
        """The stencil function of :func:`netrecover.numdiff.fd_hessian` at step h.

        A context manager: ``with net.stencil_function(h) as f:`` yields f.
        The preactivations of the stencil points ``x``, ``x +- h e_i`` and
        ``x +- h (e_i + e_j)`` are ``(x W + tau) + O`` with the offsets
        ``O = hessian_stencil(0, h W)``, which depend on W and h only.  O is
        built once, on entry; each call ``f(x, h)`` adds ``x W + tau`` to one
        block of O rows at a time and sums g over each row, for the
        D^2 + D + 1 values in the row order of
        :func:`~netrecover.numdiff.hessian_stencil`, one query each.

        A stencil of more than one block is split at the block boundary
        ``block_rows(m) * (n_blocks // 2)``: the calling thread evaluates the
        blocks before it and a helper thread, opened on entry and joined on
        exit, the blocks after it, both into one value array.  Every block
        keeps its rows, so the values do not depend on the split.  The
        queries are counted once per call, on the calling thread, after the
        helper's half has returned; an error on the helper propagates there.
        A one-block stencil never starts the helper.
        """
        offsets = hessian_stencil(np.zeros(self.n_neurons), h * self.weights)
        n_rows = offsets.shape[0]
        rows = block_rows(self.n_neurons)
        # the calling thread's rows: half the blocks, or all of a single block
        mid = rows * (-(-n_rows // rows) // 2) or n_rows
        ones = np.ones(self.n_neurons)

        def fill(vals, base, lo, hi):
            for i in range(lo, hi, rows):
                vals[i:i + rows] = self.act.g(offsets[i:i + rows] + base) @ ones

        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as helper:
            def f(x, step: float) -> np.ndarray:
                if step != h:
                    raise ConfigError(f"stencil function built for step {h}, called with {step}")
                base = self._preactivations(self._input(x))
                vals = np.empty(n_rows)
                second = helper.submit(fill, vals, base, mid, n_rows) if mid < n_rows else None
                fill(vals, base, 0, mid)
                if second is not None:
                    second.result()
                self._queries.add(n_rows)
                return vals

            yield f

    # -- analytic oracles (do not touch the query budget) ------------------

    def analytic_hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._oracle.add(1)
        w = self.weights
        return (w * self.act.g2(self._preactivations(x))) @ w.T

    def directional_deriv_exact(self, u, n: int) -> float:
        """Exact order-n derivative of t -> f(t u) at t = 0."""
        u = np.asarray(u, dtype=float)
        self._oracle.add(1)
        dots = self.weights.T @ u
        return float(np.sum(self.act.derivative(n)(self.shifts) * dots ** n))


class StudentNetwork(_ShallowNet):
    """Recovered model: sign-folded weight estimates plus trainable shifts.

    The shifts are unconstrained estimates: unlike the teacher's, they may
    leave ``[-tau_inf, tau_inf]``, which bounds the planted model only.
    """

    def with_shifts(self, shifts) -> "StudentNetwork":
        return StudentNetwork(self.weights, shifts, self.act)


def sample_teacher(dim: int, n_neurons: int, shift_law, act: Activation, seed: int):
    """Draw a planted network: weight columns i.i.d. uniform on the sphere.

    Columns are normalized standard Gaussian vectors (exact and
    dimension-free); shifts come from the given law.  Reproducible under the
    seed.  The number of clamped Gaussian shifts, if any, is recorded as
    ``net.n_shifts_clamped``.
    """
    if dim < 1 or n_neurons < 1:
        raise ConfigError("dim and n_neurons must be positive")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((dim, n_neurons))
    w /= np.linalg.norm(w, axis=0)
    tau, clamped = shift_law.sample(n_neurons, act.tau_inf, rng)
    return TeacherNetwork(w, tau, act, seed=seed, n_shifts_clamped=clamped)
