"""Weight-direction recovery by projected gradient ascent on the sphere.

Maximizes ``||P(u u^T)||_F^2`` over unit vectors, where P projects onto the
estimated Hessian span.  Local maximizers above an acceptance level are the
planted directions (up to sign); repeated random restarts collect all of
them, with the restart budget sized by the coupon-collector growth rate.
Restart batches are iterated together for speed, but acceptance and
deduplication always run in restart-index order, so the collected set is a
deterministic function of the seed.
"""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np

from .exceptions import ConfigError, IncompleteRecoveryError
from .subspace import SubspaceProjector, hvec_outer

__all__ = ["SpmConfig", "SpmStats", "default_restarts", "spm_objective",
           "spm_ascend", "collect_weights"]

logger = logging.getLogger(__name__)

_CHUNK = 256


@dataclasses.dataclass(frozen=True)
class SpmConfig:
    """Knobs for the sphere ascent and the collection loop."""

    gamma: float = 2.0
    max_steps: int = 1000
    conv_tol: float = 1e-12
    beta: float = 0.5
    dedup_cos: float = 0.99
    max_restarts: int | None = None  # None -> ceil(5 m log m)

    def __post_init__(self):
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        if not (0.0 < self.beta < 1.0):
            raise ConfigError("beta must lie in (0, 1)")
        if not (0.9 < self.dedup_cos < 1.0):
            raise ConfigError("dedup_cos must lie in (0.9, 1)")


@dataclasses.dataclass
class SpmStats:
    """Per-restart bookkeeping from :func:`collect_weights`."""

    n_processed: int = 0
    n_accepted: int = 0
    n_duplicate: int = 0
    n_rejected: int = 0
    steps: list = dataclasses.field(default_factory=list)


def default_restarts(m: int) -> int:
    """Coupon-collector budget ceil(5 m log m), floored for tiny m."""
    if m < 2:
        return 8
    return math.ceil(5.0 * m * math.log(m))


def _check_unit(u):
    u = np.asarray(u, dtype=float)
    nrm = float(np.linalg.norm(u))
    if abs(nrm - 1.0) > 1e-8:
        raise ConfigError(f"expected a unit vector, got norm {nrm!r}")
    return u


def spm_objective(proj: SubspaceProjector, u) -> float:
    """Projected Frobenius energy of u u^T; lies in [0, 1] for unit u."""
    u = _check_unit(u)
    c = proj.coeffs(hvec_outer(u))
    return float(c @ c)


def _ascend_batch(proj: SubspaceProjector, u0: np.ndarray, cfg: SpmConfig,
                  record_objectives: bool = False):
    """Iterate the sphere ascent on a (D, R) batch of starting points.

    Columns that stop moving (iterate difference below ``conv_tol``) are
    frozen.  Returns ``(U, objectives, steps, converged)`` plus the per-step
    objective trajectory when requested.
    """
    u = np.array(u0, dtype=float)
    n_cols = u.shape[1]
    steps = np.zeros(n_cols, dtype=int)
    converged = np.zeros(n_cols, dtype=bool)
    active = np.arange(n_cols)
    history = [] if record_objectives else None
    if record_objectives:
        history.append(proj.objective_batch(u))
    for _ in range(cfg.max_steps):
        ua = u[:, active]
        v = proj.action_batch(ua)
        unew = ua + (2.0 * cfg.gamma) * v
        norms = np.linalg.norm(unew, axis=0)
        dead = norms <= 0.0
        if np.any(dead):
            # measure-zero event: restart the offending columns in place
            logger.warning("sphere ascent hit the origin on %d column(s); reseeding", int(dead.sum()))
            rescue = np.random.default_rng(0x5B3)
            unew[:, dead] = rescue.standard_normal((u.shape[0], int(dead.sum())))
            norms[dead] = np.linalg.norm(unew[:, dead], axis=0)
        unew /= norms
        moved = np.linalg.norm(unew - ua, axis=0)
        u[:, active] = unew
        steps[active] += 1
        done = moved <= cfg.conv_tol
        if np.any(done):
            converged[active[done]] = True
            active = active[~done]
        if record_objectives:
            history.append(proj.objective_batch(u))
        if active.size == 0:
            break
    objectives = proj.objective_batch(u)
    if record_objectives:
        return u, objectives, steps, converged, np.asarray(history)
    return u, objectives, steps, converged


def spm_ascend(proj: SubspaceProjector, u0, cfg: SpmConfig):
    """Ascend from a single unit starting point.

    Returns ``(u_star, objective, steps, converged)``.
    """
    u0 = _check_unit(u0)
    u, obj, steps, conv = _ascend_batch(proj, u0[:, None], cfg)
    return u[:, 0], float(obj[0]), int(steps[0]), bool(conv[0])


def canonical_sign(u: np.ndarray) -> np.ndarray:
    """Flip so the first coordinate of meaningful size is positive."""
    nz = np.nonzero(np.abs(u) > 1e-14)[0]
    pivot = nz[0] if nz.size else 0
    return u if u[pivot] >= 0 else -u


def _classify(candidate, objective, accepted, cfg: SpmConfig) -> str:
    """Acceptance decision for one converged restart."""
    if objective <= cfg.beta:
        return "rejected"
    if accepted and np.max(np.abs(np.array(accepted) @ candidate)) > cfg.dedup_cos:
        return "duplicate"
    return "accepted"


def collect_weights(proj: SubspaceProjector, m: int, cfg: SpmConfig, seed: int):
    """Collect the m planted directions from repeated random restarts.

    Restart starting points are drawn up front from the seed; batches are
    ascended together and then classified one restart index at a time:
    accept when the objective clears ``beta``, fold the sign to canonical
    form, and drop near-duplicates of already-accepted vectors.  Stops at m
    distinct vectors; raises :class:`IncompleteRecoveryError` (carrying the
    partial set and the acceptance statistics) when the restart budget runs
    out first.
    """
    n_restarts = cfg.max_restarts if cfg.max_restarts is not None else default_restarts(m)
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((proj.dim, n_restarts))
    starts /= np.linalg.norm(starts, axis=0)

    accepted: list[np.ndarray] = []
    stats = SpmStats()
    for lo in range(0, n_restarts, _CHUNK):
        hi = min(lo + _CHUNK, n_restarts)
        u, obj, steps, _ = _ascend_batch(proj, starts[:, lo:hi], cfg)
        for j in range(hi - lo):
            idx = lo + j
            cand = canonical_sign(u[:, j])
            status = _classify(cand, float(obj[j]), accepted, cfg)
            if status == "accepted":
                accepted.append(cand)
                stats.n_accepted += 1
            elif status == "duplicate":
                stats.n_duplicate += 1
            else:
                stats.n_rejected += 1
            stats.n_processed += 1
            stats.steps.append(int(steps[j]))
            logger.debug(
                "restart %d: steps=%d objective=%.6f %s",
                idx, int(steps[j]), float(obj[j]), status,
            )
            if len(accepted) == m:
                break
        if len(accepted) == m:
            break
    if len(accepted) < m:
        partial = np.array(accepted).T if accepted else np.zeros((proj.dim, 0))
        raise IncompleteRecoveryError(
            f"found {len(accepted)} of {m} directions after {stats.n_processed} restarts "
            f"(accepted/duplicate/rejected = {stats.n_accepted}/{stats.n_duplicate}/"
            f"{stats.n_rejected})",
            partial=partial,
            stats=stats,
        )
    logger.info(
        "collected %d directions from %d restarts (%d duplicates, %d rejected)",
        m, stats.n_processed, stats.n_duplicate, stats.n_rejected,
    )
    return np.array(accepted).T, stats
