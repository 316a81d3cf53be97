"""Plain teacher-student SGD baseline for comparison with the pipeline.

A student of identical architecture is trained jointly on weights and
shifts by mini-batch SGD on the least-squares loss.  Weights are projected
back to unit columns after every update so the student stays inside the
model class (a deviation from unconstrained SGD, logged as such).  The
budget is wall-clock capped; epoch counts are reported as the
hardware-neutral measure of training effort.
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np

from .exceptions import StageError
from .pipeline import (ExperimentResult, PipelineConfig, child_seed, score_stage,
                       teacher_stage)
from .refine import loss
from .teacher import StudentNetwork

__all__ = ["run_baseline_sgd"]

logger = logging.getLogger(__name__)

_LR = 5e-3                  # joint-SGD step size
_TRAIN_PER_M_D2 = 2.5       # training inputs per m D^2


def run_baseline_sgd(cfg: PipelineConfig) -> ExperimentResult:
    """Fit a fresh student to the pipeline's teacher by joint SGD and score it."""
    cfg.validate()
    m = cfg.resolved_m()
    result = ExperimentResult(
        mode="baseline", dim=cfg.dim, beta_order=cfg.beta_order, m=m,
        seed=cfg.seed, exact_mode=False, fd_step=cfg.fd_step,
    )
    try:
        net = teacher_stage(cfg)
    except Exception as exc:
        raise StageError("teacher", exc) from exc
    result.n_shifts_clamped = net.n_shifts_clamped
    act = net.act

    rng = np.random.default_rng(child_seed(cfg.seed, "baseline_student"))
    weights = rng.standard_normal((cfg.dim, m))
    weights /= np.linalg.norm(weights, axis=0)
    tau = np.zeros(m)

    n_train = math.ceil(_TRAIN_PER_M_D2 * m * cfg.dim ** 2)
    batch = max(1, cfg.batch) if cfg.batch else 64
    logger.info("baseline: joint SGD, %d samples, batch %d, lr %g "
                "(unit-column projection after each step)", n_train, batch, _LR)

    t0 = time.perf_counter()
    before = net.query_count
    xs = rng.standard_normal((n_train, cfg.dim))
    ys = net.eval_batch(xs)
    # a 2000-input draw that nothing reads; the epoch permutations below
    # come from the same stream, so removing it would change every run
    rng.standard_normal((2000, cfg.dim))

    deadline = None if cfg.timeout_s is None else time.monotonic() + cfg.timeout_s
    epochs_done = 0
    steps = 0
    stop_reason = "max_epochs"
    full_loss = float("nan")
    for epoch in range(cfg.baseline_max_epochs):
        perm = rng.permutation(n_train)
        for lo in range(0, n_train, batch):
            idx = perm[lo:lo + batch]
            xb = xs[idx]
            pre = xb @ weights + tau
            g, g1 = act.g_and_g1(pre)
            resid = np.sum(g, axis=1) - ys[idx]
            gp = g1 * resid[:, None]
            weights -= (_LR / idx.size) * (xb.T @ gp)
            tau -= (_LR / idx.size) * gp.sum(axis=0)
            weights /= np.linalg.norm(weights, axis=0)
            steps += 1
        np.clip(tau, -act.tau_inf, act.tau_inf, out=tau)
        epochs_done = epoch + 1
        full_loss = loss(StudentNetwork(weights, tau, act), xs, ys)
        if full_loss <= cfg.stop_loss:
            stop_reason = "stop_loss"
            break
        if deadline is not None and time.monotonic() > deadline:
            stop_reason = "timeout"
            break
    result.stage_times["refine"] = time.perf_counter() - t0
    result.stage_queries["refine"] = net.query_count - before
    result.refine_steps = steps
    result.refine_stop_reason = f"{stop_reason} ({epochs_done} epochs)"
    result.final_loss = full_loss

    student = StudentNetwork(weights, tau, act)
    result.metrics = score_stage(cfg, student, net)
    result.sign_accuracy = float(np.mean(result.metrics.signs == 1))
    return result
