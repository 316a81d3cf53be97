"""Shift refinement by least-squares gradient descent.

Only the shifts are trained; the weight estimates stay frozen, so the
per-sample preactivations ``<w_k, x_i>`` are computed once and every descent
step reduces to elementwise activation work.  Supports full-batch descent
and mini-batch descent with a seed-fixed permutation per epoch, which keeps
trajectories reproducible.
"""

from __future__ import annotations

import dataclasses
import logging
import time

import numpy as np

from .exceptions import ConfigError, DivergenceError
from .teacher import StudentNetwork

__all__ = ["RefineConfig", "RefineResult", "loss", "grad_loss", "power_iteration_lmax",
           "refine"]

logger = logging.getLogger(__name__)

_DIVERGENCE_PATIENCE = 50


@dataclasses.dataclass(frozen=True)
class RefineConfig:
    """Training-loop knobs for the shift refinement."""

    n_train: int
    lr: float = 1e-3
    batch: int = 64          # 0 -> full-batch gradient descent
    max_steps: int = 10_000  # descent steps (mini-batch updates count individually)
    stop_loss: float = 1e-8
    timeout_s: float | None = 180.0
    # override lr with 0.9 / lambda_max of the empirical kernel F^T F / 2n,
    # F = g'(<w_k, x_i> + tau_k) at the starting shifts.  The loss is
    # 0.5 * mean(r^2), so 1 / lambda_max is the 2/L edge of stability for
    # the Gauss-Newton curvature L; 0.9 keeps the step strictly inside it.
    lr_auto: bool = False

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.n_train < 1:
            raise ConfigError("n_train must be >= 1")
        if self.batch < 0:
            raise ConfigError("batch must be 0 (full) or positive")


@dataclasses.dataclass
class RefineResult:
    student: StudentNetwork
    tau_path: np.ndarray        # recorded shift iterates, (n_records, m)
    record_steps: np.ndarray    # descent-step index of each record
    losses: np.ndarray          # full-sample loss at each record
    shift_errors: np.ndarray | None  # ||tau_hat - tau||_2 at each record
    steps: int
    stop_reason: str
    lr: float
    lmax: float | None


def _residual(act, pre, ys) -> np.ndarray:
    """Prediction minus target for preactivations ``pre`` (n, m)."""
    return np.sum(act.g(pre), axis=1) - ys


def _half_mse(resid) -> float:
    """Half mean squared residual: the loss every caller reports."""
    return 0.5 * float(np.sum(resid ** 2)) / resid.size


def _grad(act, pre, resid) -> np.ndarray:
    """Gradient of :func:`_half_mse` of the residual with respect to the shifts."""
    return (act.g1(pre).T @ resid) / resid.size


def _sample_terms(student: StudentNetwork, xs, ys):
    """Preactivations and residual of ``student`` on a sample set."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ys.size == 0:
        raise ConfigError("empty sample set")
    if xs.ndim != 2 or xs.shape[1] != student.dim:
        raise ConfigError(f"batch must have shape (n, {student.dim})")
    pre = xs @ student.weights + student.shifts
    return pre, _residual(student.act, pre, ys)


def loss(student: StudentNetwork, xs, ys) -> float:
    """Half mean squared prediction error over the sample set."""
    return _half_mse(_sample_terms(student, xs, ys)[1])


def grad_loss(student: StudentNetwork, xs, ys) -> np.ndarray:
    """Exact gradient of :func:`loss` with respect to the shifts."""
    pre, resid = _sample_terms(student, xs, ys)
    return _grad(student.act, pre, resid)


def power_iteration_lmax(mat: np.ndarray, iters: int = 200, seed: int = 0) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = mat @ v
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        lam = nrm
    return float(lam)


def _kernel_lmax(act, pre, seed: int) -> float:
    """Largest eigenvalue of the empirical kernel F^T F / 2n, F = g'(pre)."""
    f = act.g1(pre)
    return power_iteration_lmax((f.T @ f) / (2.0 * pre.shape[0]), seed=seed)


def refine(student: StudentNetwork, teacher, cfg: RefineConfig, seed: int,
           tau_truth=None, audit_grad: bool = False) -> RefineResult:
    """Minimize the least-squares objective over the shifts.

    Draws ``n_train`` fresh Gaussian inputs, queries the teacher for targets
    (counted against the query budget), and iterates plain gradient descent
    from the student's current shifts.  The descent is unprojected: iterates
    may leave ``[-tau_inf, tau_inf]``, which bounds the teacher's shifts, not
    the student's.  Stops on the step budget, the loss threshold, or the wall
    clock.  When the recorded loss fails to improve on its running best for
    50 consecutive records, the run aborts with a step-size diagnostic.

    ``tau_truth``, when given, must already be aligned with the student's
    column order; the distance to it is recorded alongside the loss.
    A record (shifts, full-sample loss, step index) is taken at the starting
    shifts and after each pass over the data -- one step for full-batch
    runs, one epoch for mini-batch runs -- and a last one where the step
    budget runs out mid-epoch.  Stopping is decided at records only.
    """
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((cfg.n_train, student.dim))
    ys = teacher.eval_batch(xs)
    act = student.act
    z = xs @ student.weights  # shifts enter additively; cache the linear part
    tau = np.array(student.shifts, dtype=float)
    truth = None if tau_truth is None else np.asarray(tau_truth, dtype=float)

    lr = cfg.lr
    lmax = None
    if cfg.lr_auto:
        lmax = _kernel_lmax(act, z + tau, seed)
        if lmax > 0:
            lr = 0.9 / lmax
        logger.info("auto step size: lambda_max ~ %.4g -> lr = %.4g", lmax, lr)

    full_batch = cfg.batch == 0 or cfg.batch >= cfg.n_train
    records, rec_steps, losses, errs = [], [], [], []
    best = np.inf
    stall = 0
    stop_reason = "max_steps"
    deadline = None if cfg.timeout_s is None else time.monotonic() + cfg.timeout_s
    step = 0
    while True:
        pre = z + tau
        resid = _residual(act, pre, ys)
        j = _half_mse(resid)
        if audit_grad and len(records) % 100 == 99:
            _audit_gradient(act, z, tau, ys, _grad(act, pre, resid))
        records.append(tau.copy())
        rec_steps.append(step)
        losses.append(j)
        if truth is not None:
            errs.append(float(np.linalg.norm(tau - truth)))
        if j < best * (1.0 - 1e-12):
            best = j
            stall = 0
        else:
            stall += 1
            if stall >= _DIVERGENCE_PATIENCE and j > 2.0 * best + 1e-300:
                # diagnose the kernel at the starting shifts; the diverged
                # iterate sits in activation saturation where it vanishes
                lam = _kernel_lmax(act, z + records[0], seed)
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
            tau -= lr * _grad(act, pre, resid)
            step += 1
        else:
            perm = rng.permutation(cfg.n_train)
            for lo in range(0, cfg.n_train, cfg.batch):
                idx = perm[lo:lo + cfg.batch]
                pre = z[idx] + tau
                resid = _residual(act, pre, ys[idx])
                # (lr * sum) / size, not lr * mean: the two round
                # differently, and the pinned trajectories use this order
                tau -= lr * (act.g1(pre).T @ resid) / idx.size
                step += 1
                if step >= cfg.max_steps:
                    break

    final = student.with_shifts(tau)
    logger.info("refine: %d steps, final loss %.3e (%s)", step, losses[-1], stop_reason)
    return RefineResult(
        student=final,
        tau_path=np.array(records),
        record_steps=np.array(rec_steps, dtype=int),
        losses=np.array(losses),
        shift_errors=np.array(errs) if truth is not None else None,
        steps=step,
        stop_reason=stop_reason,
        lr=lr,
        lmax=lmax,
    )


def _audit_gradient(act, z, tau, ys, grad, h: float = 1e-6, tol: float = 1e-6):
    """Spot-check the analytic gradient at ``tau`` against a central difference."""
    for k in range(min(3, tau.size)):
        e = np.zeros_like(tau)
        e[k] = h
        fd = (_half_mse(_residual(act, z + (tau + e), ys))
              - _half_mse(_residual(act, z + (tau - e), ys))) / (2 * h)
        if abs(fd - grad[k]) > tol:
            raise AssertionError(
                f"gradient audit failed at component {k}: analytic {grad[k]!r} vs FD {fd!r}"
            )
