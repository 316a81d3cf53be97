"""Weight-direction recovery by projected gradient ascent on the sphere.

Maximizes ``||P(u u^T)||_F^2`` over unit vectors, where P projects onto the
estimated Hessian span.  The planted directions (up to sign) are the local
maxima near 1, the subspace power method's test of a near-rank-one maximum
(Kileel & Pereira, *Subspace power method for symmetric tensor decomposition
and generalized PCA*); in the wide regime D < m < D^2 the span also holds
spurious maxima below 1.  A planted direction lies within an angle of about
r = sigma_{m+1}/sigma_m of the estimated span, so :func:`_acceptance_level`
reads the level from r.  Random restarts, drawn up front from the seed,
collect the m directions, with the restart budget sized by the
coupon-collector growth rate.  They run in two phases, both classifying in
restart-index order, so the collected set is a deterministic function of
the seed.

Placement (:func:`_place`).  A random start on the full span mostly climbs
back to a direction already found.  So, following the same paper, a batch
of starts first climbs on the span with the accepted hvec(w w^T) deflated
out (:func:`_deflate`), whose maxima lie near the directions not yet found,
until its moves fall to ``_PLACE_MOVE``.  It is then polished on the
full span, so an accepted vector is a maximum of the same objective as
without placement, and only a converged one is accepted.  At D=40 this cuts
the restarts per direction from about 5 to 1.5.

Hand-over (:func:`_pool`).  When a placed batch accepts no new direction,
or leaves a column unconverged, as on the flat ridges of the wide regime
(D=10, m=40), the remaining starts are ascended together in a pool of
``_POOL`` columns that the next starts by index refill as columns leave it.
A column leaves when it converges, when it reaches ``max_steps``, or early,
as a duplicate, when it comes within ``_DEDUP_COS`` of an already accepted
direction; as classification runs in index order, a column is only ever
stopped against directions from lower-index restarts.

With F(u) = ||P(u u^T)||^2, a column climbs by the fixed-step ascent
``u + 2 _GAMMA P(u u^T) u``, which converges only linearly (about 0.6 per
step at D=40): polishing a column from a move of 1e-4 down to ``_CONV_TOL``
would take some 36 more steps.  Once its move falls below ``_NEWTON_MOVE``,
a column finishes instead by Newton steps on the sphere (Absil, Mahony &
Sepulchre, *Optimization Algorithms on Matrix Manifolds*, ch. 6), in two or
three steps.  A Newton step is taken only where a Cholesky factor of the
Newton matrix certifies that F is locally concave on the sphere, as near a
nondegenerate local maximum, and where the step is no longer than twice the
distance to the fixed point that the column's last moves predict.
Otherwise the column takes the ascent step, so Newton does not pull a
column to a saddle or into another basin (:func:`_step`).
"""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np

from .exceptions import ConfigError, IncompleteRecoveryError
from .subspace import SubspaceProjector, basis_products, hvec_outer_batch

__all__ = ["SpmConfig", "SpmStats", "default_restarts", "spm_ascend", "collect_weights"]

logger = logging.getLogger(__name__)

# ascent columns per step: wide enough to share each read of the basis stack,
# narrow enough to bound action_batch's (R, m, D) products (2 MB at D=40)
_POOL = 64

# the ascent step u + 2 _GAMMA P(u u^T) u
_GAMMA = 2.0
# a column whose last move falls below this finishes its ascent by Newton steps
_NEWTON_MOVE = 1e-4
# a column that moves at most this far in a step has converged
_CONV_TOL = 1e-12
# a placed restart leaves the deflated span once its move falls to this
_PLACE_MOVE = 1e-2
# a restart within this |cos| of an accepted direction is a duplicate
_DEDUP_COS = 0.99

# the acceptance level 1 - max(_LEVEL_C r^2, _LEVEL_FLOOR), r = sigma_{m+1}/sigma_m:
# planted directions measured at 1 - objective <= 0.54 r^2, spurious maxima >= 1.67e-5
_LEVEL_C = 10.0
_LEVEL_FLOOR = 1e-9


@dataclasses.dataclass(frozen=True)
class SpmConfig:
    """The two budgets: steps per restart and restarts per collection.

    A placed restart has ``max_steps`` on the deflated span and again in its
    polish.  The step size, the tolerances, the duplicate cosine and the
    pool width are module constants, and the acceptance level is read from
    the projector's spectrum (:func:`_acceptance_level`).
    """

    max_steps: int = 1000
    max_restarts: int | None = None  # None -> ceil(5 m log m)

    def __post_init__(self):
        if self.max_steps < 1:
            raise ConfigError("max_steps must be positive")


@dataclasses.dataclass
class SpmStats:
    """Per-restart bookkeeping from :func:`collect_weights`.

    ``n_duplicate`` includes the restarts stopped early as duplicates;
    ``n_unconverged`` counts the accepted restarts that reached ``max_steps``
    before they converged, which only the pool accepts.  ``steps`` holds, in
    restart-index order, the steps each processed restart took, a Newton step
    counting as one like an ascent step (for a placed restart, its steps on
    the deflated span and in its polish; for a stopped restart, the steps
    before it was stopped).
    """

    n_processed: int = 0
    n_accepted: int = 0
    n_duplicate: int = 0
    n_rejected: int = 0
    n_unconverged: int = 0
    steps: list = dataclasses.field(default_factory=list)


def default_restarts(m: int) -> int:
    """Coupon-collector budget ceil(5 m log m), floored for tiny m."""
    if m < 2:
        return 8
    return math.ceil(5.0 * m * math.log(m))


def _newton(mats: np.ndarray, u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton steps for F(u) = ||P(u u^T)||^2 on the sphere, at a (D, R) batch.

    ``mats`` is the basis as a stack of matrices B_j and ``g = M(u) u`` the
    ascent direction, where M(u) = sum_j (u^T B_j u) B_j is the matrix of
    P(u u^T).  With lambda = u^T g and H = M(u) + 2 sum_j (B_j u)(B_j u)^T (g
    and H are the gradient and Hessian of F over 4), the step xi solves
    N xi = g - lambda u with N = -P_u (H - lambda I) P_u + u u^T.  As Hu = 3g
    for the quartic F, N = lambda I - H + 3 (u g^T + g u^T) + (1 - 4 lambda) u u^T,
    rank-2 updates of H.  N is positive definite exactly where the Riemannian
    Hessian of F is negative definite, as near a nondegenerate local maximum;
    a column whose N has no Cholesky factor gets a NaN step.  Returns xi, (D, R).
    """
    m, d, _ = mats.shape
    r = u.shape[1]
    prods, coeffs = basis_products(mats, u)
    lam = np.einsum("dr,dr->r", g, u)
    n = prods.transpose(0, 2, 1) @ prods
    n *= -2.0
    n -= (coeffs @ mats.reshape(m, d * d)).reshape(r, d, d)  # -H
    # + 3 (u g^T + g u^T) + (1 - 4 lambda) u u^T as one product of (D, 2) factors
    left = np.stack([u, g], axis=1).T
    right = np.stack([3.0 * g + (1.0 - 4.0 * lam) * u, 3.0 * u], axis=1).T
    n += left.transpose(0, 2, 1) @ right
    n.reshape(r, d * d)[:, ::d + 1] += lam[:, None]
    ok = np.ones(r, dtype=bool)
    try:
        np.linalg.cholesky(n)
    except np.linalg.LinAlgError:
        # the batched factorisation fails as a whole; find the columns it failed on
        for i in range(r):
            try:
                np.linalg.cholesky(n[i])
            except np.linalg.LinAlgError:
                ok[i] = False
    xi = np.full((d, r), np.nan)
    if ok.any():
        rhs = (g - lam * u).T[ok]
        xi[:, ok] = np.linalg.solve(n[ok], rhs[:, :, None])[:, :, 0].T
    return xi


def _new_track(n_cols: int) -> np.ndarray:
    """The :func:`_step` track of fresh columns: no moves yet, the default Newton gate."""
    return np.repeat([[np.inf], [np.inf], [_NEWTON_MOVE]], n_cols, axis=1)


def _step(proj: SubspaceProjector, mats: np.ndarray, u: np.ndarray, track: np.ndarray):
    """One step on a (D, R) batch of unit columns: Newton's where it is safe, else ascent.

    ``track`` is (3, R): each column's last move, the distance to its fixed
    point that its moves predict (inf when they predict none), and its Newton
    gate.  A column whose last move is below its gate, with a predicted
    distance, tries a Newton step (:func:`_newton`, ``mats`` from
    ``proj.matrices()``) and takes it when N has a Cholesky factor and the
    step is at most twice the predicted distance.  Every other column takes
    the ascent step ``u + 2 _GAMMA P(u u^T) u``; a refused column lowers its
    gate to a tenth of its last move, so it tries Newton again only after its
    moves have shrunk tenfold.  Both steps end renormalized.

    After an ascent step the predicted distance is d rho / (1 - rho), from the
    move d and the ratio rho of the last two moves (the remaining distance at
    a linear rate rho).  After a Newton step it is d / 4, so the next Newton
    step must at least halve the move; once d^2 is below ``_CONV_TOL``, Newton's
    error is too, and the column takes an ascent step, whose move confirms
    convergence, instead of a third Newton step.  Returns the new iterates
    and the new track, whose first row is how far each column moved.
    """
    move, dist, gate = track
    newton = (move < gate) & (dist < np.inf)
    g = proj.action_batch(u, mats)
    xi = np.full_like(u, np.nan)
    if newton.any():
        xi[:, newton] = _newton(mats, u[:, newton], g[:, newton])
    take = np.linalg.norm(xi, axis=0) <= 2.0 * dist  # False for NaN steps
    unew = np.where(take, u + xi, u + (2.0 * _GAMMA) * g)
    norms = np.linalg.norm(unew, axis=0)
    dead = norms <= 0.0
    if np.any(dead):
        # measure-zero event: restart the offending columns in place
        logger.warning("sphere ascent hit the origin on %d column(s); reseeding", int(dead.sum()))
        rescue = np.random.default_rng(0x5B3)
        unew[:, dead] = rescue.standard_normal((u.shape[0], int(dead.sum())))
        norms[dead] = np.linalg.norm(unew[:, dead], axis=0)
    unew /= norms
    moved = np.linalg.norm(unew - u, axis=0)
    rho = moved / move
    linear = (0.0 < rho) & (rho < 1.0)
    after_ascent = np.where(linear, moved * rho / np.where(linear, 1.0 - rho, 1.0), np.inf)
    after_newton = np.where(moved * moved > _CONV_TOL, 0.25 * moved, np.inf)
    dist = np.where(take, after_newton, after_ascent)
    gate = np.where(newton & ~take, 0.1 * move, gate)
    return unew, np.stack([moved, dist, gate])


def _ascend_batch(proj: SubspaceProjector, u0: np.ndarray, cfg: SpmConfig, mats: np.ndarray,
                  tol: float = _CONV_TOL, record_objectives: bool = False):
    """Iterate :func:`_step` on a (D, R) batch of starting points, for at most ``max_steps``.

    ``mats`` is the stack that :func:`_step` ascends on: ``proj.matrices()``,
    or a deflated stack (:func:`_deflate`).  A column whose move falls to
    ``tol`` has converged and is frozen.  Returns ``(U, objectives, steps,
    converged)``, the objectives on the full span, plus the per-step objective
    trajectory when requested.
    """
    u = np.array(u0, dtype=float)
    n_cols = u.shape[1]
    track = _new_track(n_cols)
    steps = np.zeros(n_cols, dtype=int)
    converged = np.zeros(n_cols, dtype=bool)
    active = np.arange(n_cols)
    history = [] if record_objectives else None
    if record_objectives:
        history.append(proj.objective_batch(u))
    for _ in range(cfg.max_steps):
        u[:, active], track[:, active] = _step(proj, mats, u[:, active], track[:, active])
        steps[active] += 1
        done = track[0, active] <= tol
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
    u0 = np.asarray(u0, dtype=float)
    nrm = float(np.linalg.norm(u0))
    if abs(nrm - 1.0) > 1e-8:
        raise ConfigError(f"expected a unit vector, got norm {nrm!r}")
    u, obj, steps, conv = _ascend_batch(proj, u0[:, None], cfg, proj.matrices())
    return u[:, 0], float(obj[0]), int(steps[0]), bool(conv[0])


def canonical_sign(u: np.ndarray) -> np.ndarray:
    """Flip so the first coordinate of meaningful size is positive."""
    nz = np.nonzero(np.abs(u) > 1e-14)[0]
    pivot = nz[0] if nz.size else 0
    return u if u[pivot] >= 0 else -u


def _acceptance_level(proj: SubspaceProjector):
    """``(1 - max(_LEVEL_C r^2, _LEVEL_FLOOR), r)`` with r = sigma_{m+1}/sigma_m of the spectrum.

    r is 0 for a projector built from exactly m columns, as by ``exact_projector``.
    """
    m, spectrum = proj.rank, proj.spectrum
    ratio = float(spectrum[m] / spectrum[m - 1]) if spectrum.size > m else 0.0
    return 1.0 - max(_LEVEL_C * ratio * ratio, _LEVEL_FLOOR), ratio


def _classify(candidate, objective, accepted, level: float) -> str:
    """Acceptance decision for one converged restart: rejected at or below ``level``."""
    if objective <= level:
        return "rejected"
    if len(accepted) and np.max(np.abs(np.asarray(accepted) @ candidate)) > _DEDUP_COS:
        return "duplicate"
    return "accepted"


def _deflate(proj: SubspaceProjector, mats: np.ndarray, accepted: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """The stack of the span with every accepted hvec(w w^T) projected out, written into ``out``.

    C = basis^T hvec(w_a w_a^T) holds the k accepted directions' coordinates
    in the span (m, k); the last m - k columns Q of a complete QR of C are an
    orthonormal basis of its complement, and ``Q^T mats`` is the (m - k, D, D)
    stack of that deflated span, orthonormal in Frobenius like ``mats``.
    ``out`` has the shape of ``mats``, so no deflation allocates a stack.
    """
    m, k = mats.shape[0], accepted.shape[0]
    coords = proj.basis.T @ hvec_outer_batch(accepted.T)
    q = np.linalg.qr(coords, mode="complete")[0][:, k:]
    stack = out[:m - k]
    np.matmul(q.T, mats.reshape(m, -1), out=stack.reshape(m - k, -1))
    return stack


def _tally(stats: SpmStats, accepted: np.ndarray, idx: int, u: np.ndarray, objective,
           steps: int, level: float, converged: bool) -> np.ndarray:
    """Classify restart ``idx`` and count it; returns the accepted rows.

    ``objective`` is None for a restart stopped early as a duplicate.
    """
    cand = canonical_sign(u)
    status = "stopped early" if objective is None else _classify(cand, objective, accepted, level)
    if status == "accepted":
        accepted = np.vstack([accepted, cand])
        stats.n_accepted += 1
        stats.n_unconverged += not converged
    elif status == "rejected":
        stats.n_rejected += 1
    else:
        stats.n_duplicate += 1
    stats.n_processed += 1
    stats.steps.append(int(steps))
    logger.debug("restart %d: steps=%d objective=%s %s", idx, int(steps), objective, status)
    return accepted


def _place(proj: SubspaceProjector, mats: np.ndarray, starts: np.ndarray, m: int,
           cfg: SpmConfig, level: float, stats: SpmStats) -> np.ndarray:
    """Placed restarts, a batch at a time, until a batch stops paying; returns the accepted rows.

    With k directions accepted, the next min(``_POOL``, m, max(8, 2 (m - k)))
    starts by index climb on the span with the accepted ones deflated out
    (:func:`_deflate`) until their moves fall to ``_PLACE_MOVE``, then are
    polished on the full span by :func:`_ascend_batch` and classified in
    index order.  A batch is never wider than m, which binds on the first,
    undeflated one: 2m starts there find only about 1 - e^-2 of the m
    directions.  Classification stops at the first column that the polish
    left unconverged, and placement ends after a batch that leaves one, or
    that accepts no new direction; ``stats.n_processed`` is then the first
    start left for :func:`_pool`.
    """
    accepted = np.zeros((0, proj.dim))
    buf = np.empty_like(mats)
    n_restarts = starts.shape[1]
    while len(accepted) < m and stats.n_processed < n_restarts:
        k, first = len(accepted), stats.n_processed
        width = min(_POOL, m, max(8, 2 * (m - k)), n_restarts - first)
        stack = mats if k == 0 else _deflate(proj, mats, accepted, buf)
        u, _, placing, _ = _ascend_batch(proj, starts[:, first:first + width], cfg, stack,
                                         _PLACE_MOVE)
        u, objectives, polishing, converged = _ascend_batch(proj, u, cfg, mats)
        for j in range(width):
            if not converged[j] or len(accepted) == m:
                break
            accepted = _tally(stats, accepted, first + j, u[:, j], objectives[j],
                              placing[j] + polishing[j], level, True)
        if len(accepted) == k or not converged.all():
            break
    return accepted


def _pool(proj: SubspaceProjector, mats: np.ndarray, u: np.ndarray, m: int,
          cfg: SpmConfig, level: float, accepted: np.ndarray, stats: SpmStats):
    """Ascend the starts ``u`` from index ``stats.n_processed`` on in a refilling pool.

    The pool holds ``_POOL`` columns, one :func:`_step` per iteration, and the
    next starts by index refill it as columns leave.  A column leaves when it
    converges or reaches ``max_steps``, or is stopped early as a duplicate
    when its |cos| with an accepted vector exceeds ``_DEDUP_COS``.  Finished
    restarts are classified strictly in index order (:func:`_tally`), so every
    accepted vector comes from a lower index than any column still in the
    pool, and a column is stopped only against vectors its own classification
    would check; the outcome differs from ascending each restart alone, in
    order, only if a column that came that close would later have left the
    accepted vector's basin.  Ascends ``u`` in place.  Returns the accepted
    rows and the number of restarts stopped early.
    """
    n_restarts = u.shape[1]
    track = _new_track(n_restarts)
    steps = np.zeros(n_restarts, dtype=int)
    finished: dict[int, float | None] = {}  # objective; None when stopped early
    pool = np.zeros(0, dtype=int)
    n_started, n_stopped = stats.n_processed, 0
    while len(accepted) < m and stats.n_processed < n_restarts:
        fresh = np.arange(n_started, min(n_started + _POOL - pool.size, n_restarts))
        pool = np.concatenate([pool, fresh])
        n_started += fresh.size
        unew, track[:, pool] = _step(proj, mats, u[:, pool], track[:, pool])
        u[:, pool] = unew
        steps[pool] += 1
        done = (track[0, pool] <= _CONV_TOL) | (steps[pool] >= cfg.max_steps)
        dup = ~done & (np.max(np.abs(accepted @ unew), axis=0, initial=0.0) > _DEDUP_COS)
        finished.update(zip(pool[done].tolist(), proj.objective_batch(unew[:, done]).tolist()))
        finished.update(dict.fromkeys(pool[dup].tolist()))
        pool = pool[~(done | dup)]
        while stats.n_processed in finished and len(accepted) < m:
            idx = stats.n_processed
            obj = finished.pop(idx)
            n_stopped += obj is None
            accepted = _tally(stats, accepted, idx, u[:, idx], obj, steps[idx], level,
                              track[0, idx] <= _CONV_TOL)
    return accepted, n_stopped


def collect_weights(proj: SubspaceProjector, m: int, cfg: SpmConfig, seed: int):
    """Collect the m planted directions from restarts drawn up front from the seed.

    The restarts go first to :func:`_place`, then, from the first start that
    placement leaves, to :func:`_pool`; both classify in restart-index order
    against the level that :func:`_acceptance_level` reads from the
    projector's spectrum, fold the sign to canonical form, and drop
    near-duplicates of already-accepted vectors.  Stops the moment m distinct
    vectors are accepted; raises :class:`IncompleteRecoveryError` (carrying
    the partial set and the acceptance statistics) when the restart budget
    runs out first.  The summary line and that error state the level,
    sigma_{m+1}/sigma_m and the number of restarts accepted at ``max_steps``
    before they converged.
    """
    level, ratio = _acceptance_level(proj)
    n_restarts = cfg.max_restarts if cfg.max_restarts is not None else default_restarts(m)
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((proj.dim, n_restarts))
    starts /= np.linalg.norm(starts, axis=0)
    mats = proj.matrices()
    stats = SpmStats()
    accepted = _place(proj, mats, starts, m, cfg, level, stats)
    n_placed = stats.n_processed
    accepted, n_stopped = _pool(proj, mats, starts, m, cfg, level, accepted, stats)
    if len(accepted) < m:
        raise IncompleteRecoveryError(
            f"found {len(accepted)} of {m} directions after {stats.n_processed} restarts "
            f"(accepted/duplicate/rejected = {stats.n_accepted}/{stats.n_duplicate}/"
            f"{stats.n_rejected}, {stats.n_unconverged} accepted unconverged; acceptance "
            f"level 1 - {1.0 - level:.2e} from sigma_{m + 1}/sigma_{m} = {ratio:.2e})",
            partial=accepted.T,
            stats=stats,
        )
    logger.info(
        "collected %d directions from %d restarts, %d of them placed (%d duplicates, "
        "%d of them stopped early; %d rejected at level 1 - %.2e, sigma_%d/sigma_%d = %.2e; "
        "%d accepted unconverged)",
        m, stats.n_processed, n_placed, stats.n_duplicate, n_stopped, stats.n_rejected,
        1.0 - level, m + 1, m, ratio, stats.n_unconverged,
    )
    return accepted.T, stats
