"""Shift refinement: least-squares fit of the shifts to fresh teacher queries.

Only the shifts are trained; the weight estimates stay frozen, so the
per-sample preactivations ``<w_k, x_i>`` are computed once and every step
reduces to elementwise activation work, done in row blocks on every pass
over the whole sample (:func:`_residual_in_blocks`).  Two methods:

- ``"gn"``, Gauss-Newton: with the weights fixed the shifts solve a
  noiseless nonlinear least-squares problem in m unknowns, so a few
  linearized least-squares solves on a small sample reach its minimum.
  The pipeline uses it.
- ``"gd"``, gradient descent at the fixed step ``lr``, the paper's empirical
  risk minimisation and ``RefineConfig``'s default: full-batch, or mini-batch
  with a seed-fixed permutation per epoch, which keeps trajectories reproducible.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time

import numpy as np

from .exceptions import ConfigError, DivergenceError
from .teacher import StudentNetwork, block_rows

__all__ = ["RefineConfig", "RefineResult", "loss", "refine"]

logger = logging.getLogger(__name__)

_DIVERGENCE_PATIENCE = 50
_METHODS = ("gd", "gn")
# Gauss-Newton stops once an iteration lowers the loss by less than this share
_GN_MIN_SHRINK = 1e-3


@dataclasses.dataclass(frozen=True)
class RefineConfig:
    """Training-loop knobs for the shift refinement.

    ``method`` is ``"gd"`` (gradient descent) or ``"gn"`` (Gauss-Newton).
    Gauss-Newton takes full steps and reads only ``n_train``, ``max_steps``,
    ``stop_loss`` (as a label, never as a stop) and ``timeout_s``.
    """

    n_train: int
    lr: float = 1e-3
    batch: int = 64          # 0 -> full-batch gradient descent
    max_steps: int = 10_000  # descent steps (mini-batch updates count individually)
    stop_loss: float = 1e-8
    timeout_s: float | None = 180.0
    method: str = "gd"

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(
                f"unknown refine method {self.method!r}; expected 'gd' or 'gn'")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"learning rate must be finite and positive, got {self.lr}")
        if self.n_train < 1:
            raise ConfigError("n_train must be >= 1")
        if self.batch < 0:
            raise ConfigError("batch must be 0 (full) or positive")
        if not (math.isfinite(self.stop_loss) and self.stop_loss >= 0):
            raise ConfigError(f"stop_loss must be finite and >= 0, got {self.stop_loss}")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ConfigError(f"timeout_s must be positive, got {self.timeout_s}")


@dataclasses.dataclass
class RefineResult:
    student: StudentNetwork
    tau_path: np.ndarray        # recorded shift iterates, (n_records, m)
    record_steps: np.ndarray    # descent-step index of each record
    losses: np.ndarray          # full-sample loss at each record
    steps: int
    stop_reason: str


def _residual_and_slope(act, pre, ys):
    """Prediction minus target for preactivations ``pre`` (n, m), and g'(pre)."""
    g, g1 = act.g_and_g1(pre)
    return np.add.reduce(g, axis=1) - ys, g1


def _residual_in_blocks(act, z, tau, ys, slope=None) -> np.ndarray:
    """Prediction minus target at ``z + tau`` by row blocks; g'(z + tau) into ``slope``."""
    resid = np.empty_like(ys)
    rows = block_rows(z.shape[1])
    for lo in range(0, z.shape[0], rows):
        block = slice(lo, lo + rows)
        pre = z[block] + tau
        if slope is None:
            resid[block] = np.add.reduce(act.g(pre), axis=1) - ys[block]
        else:
            resid[block], slope[block] = _residual_and_slope(act, pre, ys[block])
    return resid


def _half_mse(resid) -> float:
    """Half mean squared residual: the loss every caller reports."""
    return 0.5 * float(np.sum(resid ** 2)) / resid.size


def _grad(slope, resid) -> np.ndarray:
    """Gradient of :func:`_half_mse` of the residual in the shifts; slope = g'(pre)."""
    return (slope.T @ resid) / resid.size


def _targets(ys) -> np.ndarray:
    """``ys`` as floats; an empty sample set is a configuration error."""
    ys = np.asarray(ys, dtype=float)
    if ys.size == 0:
        raise ConfigError("empty sample set")
    return ys


def loss(student: StudentNetwork, xs, ys) -> float:
    """Half mean squared prediction error over the sample set.

    The student is evaluated in row blocks (:meth:`StudentNetwork.eval_batch`),
    so the sample's preactivations are never held whole.
    """
    ys = _targets(ys)
    return _half_mse(student.eval_batch(xs) - ys)


def _kernel_lmax(f) -> float:
    """Largest eigenvalue of the empirical kernel F^T F / 2n; F = g'(z + tau) is (n, m)."""
    return float(np.linalg.eigvalsh((f.T @ f) / (2.0 * f.shape[0]))[-1])


def refine(student: StudentNetwork, teacher, cfg: RefineConfig, seed: int,
           audit_grad: bool = False) -> RefineResult:
    """Minimize the least-squares objective over the shifts.

    Draws ``n_train`` fresh Gaussian inputs, queries the teacher for targets
    (counted against the query budget), and iterates ``cfg.method`` from the
    student's current shifts.  The iterates are unprojected: they may leave
    ``[-tau_inf, tau_inf]``, which bounds the teacher's shifts, not the
    student's.  Gradient descent stops on the step budget, the loss
    threshold, or the wall clock.  When the recorded loss fails to improve on
    its running best for 50 consecutive records, the run aborts with a
    step-size diagnostic.  Gauss-Newton is described at :func:`_gauss_newton`.

    A record (shifts, full-sample loss, step index) is taken at the starting
    shifts and after each pass over the data -- one step for full-batch
    runs, one epoch for mini-batch runs -- and a last one where the step
    budget runs out mid-epoch.  Stopping is decided at records only.
    ``audit_grad`` applies to gradient descent only.

    The inputs are drawn, queried and projected one row block of about
    256 KiB at a time, so the only whole arrays are the training data
    ``z = xs @ W`` (n_train x m) and the targets; no n_train x D array
    exists.  The blocks draw the inputs of one ``n_train``-row draw (a
    block's product can round differently from one whole product at some
    shapes).  A mini-batch step gathers its batch from ``z`` by index, and
    every full-sample pass is made in row blocks; both are bit-equal to
    per-batch gathers and a whole-array pass.  Full-batch GD keeps g' of
    the sample in one n_train x m buffer, which each record's pass writes.
    """
    rng = np.random.default_rng(seed)
    act = student.act
    # shifts enter additively; cache the linear part
    z = np.empty((cfg.n_train, student.n_neurons))
    ys = np.empty(cfg.n_train)
    rows = block_rows(max(student.dim, student.n_neurons))
    for lo in range(0, cfg.n_train, rows):
        xs = rng.standard_normal((min(rows, cfg.n_train - lo), student.dim))
        ys[lo:lo + rows] = teacher.eval_batch(xs)
        z[lo:lo + rows] = xs @ student.weights
    tau = np.array(student.shifts, dtype=float)
    if cfg.method == "gn":
        return _gauss_newton(student, z, tau, ys, cfg)

    lr = cfg.lr
    full_batch = cfg.batch == 0 or cfg.batch >= cfg.n_train
    records, rec_steps, losses = [], [], []
    best = np.inf
    stall = 0
    stop_reason = "max_steps"
    deadline = None if cfg.timeout_s is None else time.monotonic() + cfg.timeout_s
    step = 0
    slope = np.empty_like(z) if full_batch else None
    while True:
        resid = _residual_in_blocks(act, z, tau, ys, slope)
        j = _half_mse(resid)
        if audit_grad and len(records) % 100 == 99:
            _audit_gradient(act, z, tau, ys)
        records.append(tau.copy())
        rec_steps.append(step)
        losses.append(j)
        if j < best * (1.0 - 1e-12):
            best = j
            stall = 0
        else:
            stall += 1
            if stall >= _DIVERGENCE_PATIENCE and j > 2.0 * best + 1e-300:
                # suggest 0.9 / lambda_max of the kernel at the starting shifts,
                # inside GD's 2/L edge of stability; the diverged iterate sits
                # in activation saturation where the kernel vanishes
                f = np.empty_like(z)
                _residual_in_blocks(act, z, records[0], ys, f)
                lam = _kernel_lmax(f)
                suggestion = 0.9 / lam if lam > 0 else None
                raise DivergenceError(
                    f"loss failed to improve for {_DIVERGENCE_PATIENCE} consecutive "
                    f"records at lr = {lr:.3g}; try lr <= {suggestion:.3g}"
                    if suggestion else
                    f"loss failed to improve for {_DIVERGENCE_PATIENCE} records",
                    lr=lr,
                    suggested_lr=suggestion,
                )
        if j <= cfg.stop_loss:
            stop_reason = "stop_loss"
            break
        if deadline is not None and time.monotonic() > deadline:
            stop_reason = "timeout"
            break
        if step >= cfg.max_steps:
            break

        if full_batch:
            # one step, from the g and g' of the record just taken
            tau -= lr * _grad(slope, resid)
            step += 1
        else:
            # one permutation per epoch; each batch is gathered from it
            # (take: cheaper than fancy indexing for a 64-row batch)
            perm = rng.permutation(cfg.n_train)
            for lo in range(0, cfg.n_train, cfg.batch):
                idx = perm[lo:lo + cfg.batch]
                resid, g1 = _residual_and_slope(act, z.take(idx, axis=0) + tau,
                                                ys.take(idx))
                # (lr * sum) / size, not lr * mean: the two round
                # differently, and the pinned trajectories use this order
                tau -= lr * (g1.T @ resid) / resid.size
                step += 1
                if step >= cfg.max_steps:
                    break
            del perm, idx  # free the permutation before the record's row blocks

    final = student.with_shifts(tau)
    logger.info("refine: %d steps, final loss %.3e (%s)", step, losses[-1], stop_reason)
    return RefineResult(
        student=final,
        tau_path=np.array(records),
        record_steps=np.array(rec_steps, dtype=int),
        losses=np.array(losses),
        steps=step,
        stop_reason=stop_reason,
    )


def _gauss_newton(student: StudentNetwork, z, tau, ys, cfg: RefineConfig) -> RefineResult:
    """Gauss-Newton on the shifts, from ``tau``, with ``z = xs @ W`` cached.

    Each iteration linearizes the residual as ``r + F delta``, F = g'(z + tau),
    and takes the full step ``tau -= argmin_d ||F d - r||``, solved by least
    squares on F (conditioned as cond(F), not cond(F^T F), and defined when
    F^T F is singular); F is written in row blocks into one of two buffers,
    which swap when a step is kept.  A step that lowers the loss is kept and
    recorded; the loop ends at the first step that does not lower it by at
    least ``_GN_MIN_SHRINK`` of its value, once the loss is at the rounding
    level of the targets (half the mean of ``(eps y)^2``, below which steps
    only churn round-off), at ``max_steps`` kept steps, or at the wall clock.
    The result holds the best iterate, and ``steps`` counts the kept steps.
    ``stop_loss`` never ends the loop -- the starting shifts may already
    meet it -- but the stop reason reads ``"stop_loss"`` whenever the final
    loss is at or below it; otherwise it is ``"plateau"`` (which includes
    the rounding level), ``"max_steps"`` or ``"timeout"``.
    """
    act = student.act
    deadline = None if cfg.timeout_s is None else time.monotonic() + cfg.timeout_s
    slope, slope_c = np.empty_like(z), np.empty_like(z)
    resid = _residual_in_blocks(act, z, tau, ys, slope)
    j = _half_mse(resid)
    records, losses = [tau], [j]
    floor = _half_mse(np.finfo(float).eps * ys)
    stop_reason = "max_steps"
    while len(records) <= cfg.max_steps:
        if j <= floor:
            stop_reason = "plateau"
            break
        if deadline is not None and time.monotonic() > deadline:
            stop_reason = "timeout"
            break
        cand = tau - np.linalg.lstsq(slope, resid, rcond=None)[0]
        resid_c = _residual_in_blocks(act, z, cand, ys, slope_c)
        j_c = _half_mse(resid_c)
        shrank = j_c < (1.0 - _GN_MIN_SHRINK) * j
        if j_c < j:
            tau, resid, j = cand, resid_c, j_c
            slope, slope_c = slope_c, slope
            records.append(tau)
            losses.append(j)
        if not shrank:
            stop_reason = "plateau"
            break
    if j <= cfg.stop_loss:
        stop_reason = "stop_loss"
    steps = len(records) - 1
    logger.info("refine (Gauss-Newton): %d steps, final loss %.3e (%s)",
                steps, j, stop_reason)
    return RefineResult(
        student=student.with_shifts(tau),
        tau_path=np.array(records),
        record_steps=np.arange(steps + 1),
        losses=np.array(losses),
        steps=steps,
        stop_reason=stop_reason,
    )


def _audit_gradient(act, z, tau, ys, h: float = 1e-6, tol: float = 1e-6):
    """Spot-check the analytic gradient at ``tau`` against a central difference."""
    slope = np.empty_like(z)
    grad = _grad(slope, _residual_in_blocks(act, z, tau, ys, slope))
    for k in range(min(3, tau.size)):
        e = np.zeros_like(tau)
        e[k] = h
        fd = (_half_mse(_residual_in_blocks(act, z, tau + e, ys))
              - _half_mse(_residual_in_blocks(act, z, tau - e, ys))) / (2 * h)
        if abs(fd - grad[k]) > tol:
            raise AssertionError(
                f"gradient audit failed at component {k}: analytic {grad[k]!r} vs FD {fd!r}"
            )
