"""Weight-direction recovery by projected gradient ascent on the sphere.

Maximizes ``||P(u u^T)||_F^2`` over unit vectors, where P projects onto the
estimated Hessian span.  Local maximizers above an acceptance level are the
planted directions (up to sign); repeated random restarts collect all of
them, with the restart budget sized by the coupon-collector growth rate.
Restarts are ascended together in a pool of ``_POOL`` columns that the next
restarts by index refill as columns leave it.  A column leaves when it
converges, when it reaches ``max_steps``, or early, as a duplicate, when it
comes within ``dedup_cos`` of an already accepted direction.  Acceptance and
deduplication run in restart-index order, so a column is only ever stopped
against directions from lower-index restarts and the collected set is a
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

# ascent columns per step: wide enough to share each read of the basis, narrow
# enough that action_batch's (D, D, R) temporaries stay in cache at D=40
_POOL = 64


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
        if self.max_steps < 1:
            raise ConfigError("max_steps must be positive")
        if not (0.0 < self.beta < 1.0):
            raise ConfigError("beta must lie in (0, 1)")
        if not (0.9 < self.dedup_cos < 1.0):
            raise ConfigError("dedup_cos must lie in (0.9, 1)")


@dataclasses.dataclass
class SpmStats:
    """Per-restart bookkeeping from :func:`collect_weights`.

    ``n_duplicate`` includes the restarts stopped early as duplicates, and
    ``steps`` holds, in restart-index order, the ascent steps each processed
    restart took (for a stopped one, the steps before it was stopped).
    """

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


def _step(proj: SubspaceProjector, u: np.ndarray, cfg: SpmConfig):
    """One ascent step ``u + 2 gamma P(u u^T) u``, renormalized, on a (D, R) batch.

    Returns the new iterates and how far each column moved.
    """
    unew = u + (2.0 * cfg.gamma) * proj.action_batch(u)
    norms = np.linalg.norm(unew, axis=0)
    dead = norms <= 0.0
    if np.any(dead):
        # measure-zero event: restart the offending columns in place
        logger.warning("sphere ascent hit the origin on %d column(s); reseeding", int(dead.sum()))
        rescue = np.random.default_rng(0x5B3)
        unew[:, dead] = rescue.standard_normal((u.shape[0], int(dead.sum())))
        norms[dead] = np.linalg.norm(unew[:, dead], axis=0)
    unew /= norms
    return unew, np.linalg.norm(unew - u, axis=0)


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
        unew, moved = _step(proj, u[:, active], cfg)
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
    if len(accepted) and np.max(np.abs(np.asarray(accepted) @ candidate)) > cfg.dedup_cos:
        return "duplicate"
    return "accepted"


def collect_weights(proj: SubspaceProjector, m: int, cfg: SpmConfig, seed: int):
    """Collect the m planted directions from repeated random restarts.

    Restart starting points are drawn up front from the seed and ascended in
    a pool of ``_POOL`` columns, one :func:`_step` per iteration; the next
    restarts by index refill the pool as columns leave it.  A column leaves
    when it converges or reaches ``max_steps``, or is stopped early as a
    duplicate when its |cos| with an accepted vector exceeds ``dedup_cos``.
    Finished restarts are classified strictly in restart-index order: accept
    when the objective clears ``beta``, fold the sign to canonical form, and
    drop near-duplicates of already-accepted vectors.  Every accepted vector
    comes from a lower index than any column still in the pool, so a column
    is stopped only against vectors its own classification would check; the
    outcome differs from ascending each restart alone, in order, only if a
    column that came that close would later have left the accepted vector's
    basin.  Stops the moment m distinct vectors are accepted; raises
    :class:`IncompleteRecoveryError` (carrying the partial set and the
    acceptance statistics) when the restart budget runs out first.
    """
    n_restarts = cfg.max_restarts if cfg.max_restarts is not None else default_restarts(m)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((proj.dim, n_restarts))
    u /= np.linalg.norm(u, axis=0)

    accepted = np.zeros((0, proj.dim))  # one accepted direction per row
    stats = SpmStats()
    steps = np.zeros(n_restarts, dtype=int)
    finished: dict[int, float | None] = {}  # objective; None when stopped early
    pool = np.zeros(0, dtype=int)
    n_started = n_stopped = 0
    while len(accepted) < m and stats.n_processed < n_restarts:
        fresh = np.arange(n_started, min(n_started + _POOL - pool.size, n_restarts))
        pool = np.concatenate([pool, fresh])
        n_started += fresh.size
        unew, moved = _step(proj, u[:, pool], cfg)
        u[:, pool] = unew
        steps[pool] += 1
        done = (moved <= cfg.conv_tol) | (steps[pool] >= cfg.max_steps)
        dup = ~done & (np.max(np.abs(accepted @ unew), axis=0, initial=0.0) > cfg.dedup_cos)
        finished.update(zip(pool[done].tolist(), proj.objective_batch(unew[:, done]).tolist()))
        finished.update(dict.fromkeys(pool[dup].tolist()))
        pool = pool[~(done | dup)]
        while stats.n_processed in finished and len(accepted) < m:
            idx = stats.n_processed
            obj = finished.pop(idx)
            cand = canonical_sign(u[:, idx])
            status = "stopped early" if obj is None else _classify(cand, obj, accepted, cfg)
            if status == "accepted":
                accepted = np.vstack([accepted, cand])
                stats.n_accepted += 1
            elif status == "rejected":
                stats.n_rejected += 1
            else:
                stats.n_duplicate += 1
                n_stopped += status == "stopped early"
            stats.n_processed += 1
            stats.steps.append(int(steps[idx]))
            logger.debug("restart %d: steps=%d objective=%s %s", idx, int(steps[idx]), obj, status)
    if len(accepted) < m:
        raise IncompleteRecoveryError(
            f"found {len(accepted)} of {m} directions after {stats.n_processed} restarts "
            f"(accepted/duplicate/rejected = {stats.n_accepted}/{stats.n_duplicate}/"
            f"{stats.n_rejected})",
            partial=accepted.T,
            stats=stats,
        )
    logger.info(
        "collected %d directions from %d restarts (%d duplicates, %d of them stopped early; "
        "%d rejected)",
        m, stats.n_processed, stats.n_duplicate, n_stopped, stats.n_rejected,
    )
    return accepted.T, stats
