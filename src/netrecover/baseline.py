"""Plain teacher-student SGD baseline for comparison with the pipeline.

A student of identical architecture is trained jointly on weights and
shifts by mini-batch SGD on the least-squares loss.  Weights are projected
back to unit columns after every update so the student stays inside the
model class (a deviation from unconstrained SGD, logged as such).  The
budget is wall-clock capped; epoch counts are reported as the
hardware-neutral measure of training effort.

The training inputs are the run's data and are held whole (n x D); the
teacher's targets and each epoch's loss are evaluated in row blocks, so
the run holds no n x m array.

The run goes through the pipeline's stage runner as three stages,
``teacher``, ``refine`` (the joint SGD) and ``score``, so it writes
``teacher.net``, ``result.csv`` and ``report.txt`` into ``cfg.out_dir``
like the pipeline, and a failing stage raises :class:`StageError`.
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np

from .pipeline import (ExperimentResult, PipelineConfig, _StageRunner, child_seed,
                       score_stage)
from .refine import loss
from .teacher import StudentNetwork

__all__ = ["run_baseline_sgd"]

logger = logging.getLogger(__name__)

_LR = 5e-3                  # joint-SGD step size
_BATCH = 64                 # joint-SGD mini-batch size
_TRAIN_PER_M_D2 = 2.5       # training inputs per m D^2
_MAX_EPOCHS = 500           # joint-SGD epoch cap
_STOP_LOSS = 1e-8           # training loss that ends the run early
_TIMEOUT_S = 180.0          # wall-clock cap, checked after each epoch


def _joint_sgd(cfg: PipelineConfig, net):
    """Train a fresh student on weights and shifts jointly.

    Returns the student, the SGD step count, the stop reason and the loss
    on the whole training sample after the last epoch.
    """
    m, act = net.n_neurons, net.act
    rng = np.random.default_rng(child_seed(cfg.seed, "baseline_student"))
    weights = rng.standard_normal((cfg.dim, m))
    weights /= np.linalg.norm(weights, axis=0)
    tau = np.zeros(m)

    n_train = math.ceil(_TRAIN_PER_M_D2 * m * cfg.dim ** 2)
    logger.info("baseline: joint SGD, %d samples, batch %d, lr %g "
                "(unit-column projection after each step)", n_train, _BATCH, _LR)
    xs = rng.standard_normal((n_train, cfg.dim))
    ys = net.eval_batch(xs)

    deadline = time.monotonic() + _TIMEOUT_S
    epochs_done = 0
    steps = 0
    stop_reason = "max_epochs"
    full_loss = float("nan")
    for epoch in range(_MAX_EPOCHS):
        perm = rng.permutation(n_train)
        for lo in range(0, n_train, _BATCH):
            idx = perm[lo:lo + _BATCH]
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
        if full_loss <= _STOP_LOSS:
            stop_reason = "stop_loss"
            break
        if time.monotonic() > deadline:
            stop_reason = "timeout"
            break
    student = StudentNetwork(weights, tau, act)
    return student, steps, f"{stop_reason} ({epochs_done} epochs)", full_loss


def run_baseline_sgd(cfg: PipelineConfig) -> ExperimentResult:
    """Fit a fresh student to the pipeline's teacher by joint SGD and score it."""
    stages = _StageRunner(cfg, "baseline")
    result = stages.result
    net = stages.teacher()
    student, result.refine_steps, result.refine_stop_reason, result.final_loss = (
        stages.run("refine", _joint_sgd, cfg, net))
    result.metrics = stages.run("score", score_stage, cfg, student, net)
    result.sign_accuracy = float(np.mean(result.metrics.signs == 1))
    return stages.finish()
