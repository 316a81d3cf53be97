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
coupon-collector growth rate.  They are classified in restart-index order,
so the collected set is a deterministic function of the seed.

Placement (:func:`_place`).  A random start on the full span mostly climbs
back to a direction already found.  So, following the same paper, a batch
of starts first climbs on the span with the accepted w w^T deflated out
(:func:`_deflate`), whose maxima lie near the directions not yet found,
until its moves fall to ``_PLACE_MOVE``.  It is then polished on the full
span, so an accepted vector is a maximum of the same objective as without
placement.  A restart that its polish leaves unconverged at ``max_steps``
is rejected, like one below the level, and the next batch is placed until
m directions are accepted or the restarts run out.  At D=40 this takes
about 1.5 restarts per direction, against 5 from starts on the full span.

Steps (:func:`_step`).  With F(u) = ||P(u u^T)||^2, a column climbs by the
fixed-step ascent ``u + 2 _GAMMA P(u u^T) u``, which converges only
linearly: about 0.6 per step at D=40, and far slower on the flat ridges of
the wide regime (D=10, m=40).  Once its move falls below its Newton gate, a
column tries a Newton step on the sphere instead (Absil, Mahony &
Sepulchre, *Optimization Algorithms on Matrix Manifolds*, ch. 6), which
finishes it in about four steps at D=40.  The step is taken only where a
Cholesky factor of the Newton matrix certifies that F is locally concave on
the sphere, as near a nondegenerate local maximum, and where it does not
lower F.  Otherwise the column takes the ascent step and halves its gate,
so Newton neither pulls a column to a saddle nor lets it fall into another
basin.  Placement stops at the move where the gate starts (``_PLACE_MOVE``
is ``_NEWTON_MOVE``), so only the polish takes Newton steps, on the full
span.

Memory.  SPM reads the span as the projector's stack ``mats`` of B_j, through
:meth:`~netrecover.subspace.SubspaceProjector.action_batch`, whose forms
u^T B_j u give F(u) as their squared norm and, at the accepted directions,
the coordinates that :func:`_deflate` projects out.
:func:`_ascend_batch` steps ``_CHUNK`` columns at a time; a step forms their
(R, m, D) products once, Newton reads them in place, and they are freed
before the chunk's Newton candidates form theirs.  A deflated stack lives
only while its batch is placed, so the polish holds none.
"""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np

from .exceptions import ConfigError, IncompleteRecoveryError
from .subspace import SubspaceProjector

__all__ = ["SpmConfig", "SpmStats", "default_restarts", "collect_weights"]

logger = logging.getLogger(__name__)

# starts per placed batch, stepped together
_BATCH = 64
# columns per step: _ascend_batch steps its columns this many at a time, so
# action_batch's (R, m, D) products are 1 MB at D=40 and 10 MB at D=100, and
# still enough columns to share each read of the basis stack
_CHUNK = 32

# the ascent step u + 2 _GAMMA P(u u^T) u
_GAMMA = 2.0
# a column whose last move falls below this tries Newton steps; a refusal halves it
_NEWTON_MOVE = 1e-2
# a Newton step may lower F by this much: near a maximum, u^T g and the candidate's
# forms differ in F by rounding alone, up to 1.8e-15 at D=150 s1 (1e-15 would refuse
# 45 of 3,253 Newton tries there, 4e-15 none); wide-regime refusals are real drops
_F_SLACK = 4e-15
# a column that moves at most this far in a step has converged
_CONV_TOL = 1e-12
# a placed restart leaves the deflated span once its move falls to this: the
# first Newton gate, so Newton steps, which finish a column at a maximum, run
# only in the polish, on the full span whose maxima are classified
_PLACE_MOVE = _NEWTON_MOVE
# a restart within this |cos| of an accepted direction is a duplicate
_DEDUP_COS = 0.99

# the acceptance level 1 - max(_LEVEL_C r^2, _LEVEL_FLOOR), r = sigma_{m+1}/sigma_m:
# planted directions measured at 1 - objective <= 0.54 r^2, spurious maxima >= 1.67e-5
_LEVEL_C = 10.0
_LEVEL_FLOOR = 1e-9


@dataclasses.dataclass(frozen=True)
class SpmConfig:
    """The two budgets: steps per restart and restarts per collection.

    A restart has ``max_steps`` on the deflated span and again in its
    polish, and one still unconverged after its polish is rejected.  The
    step size, the tolerances, the Newton gate, the duplicate cosine and the
    batch width are module constants, and the acceptance level is read from
    the projector's spectrum (:func:`_acceptance_level`).
    """

    max_steps: int = 1000
    max_restarts: int | None = None  # None -> ceil(5 m log m)

    def __post_init__(self):
        if self.max_steps < 1:
            raise ConfigError("max_steps must be positive")
        if self.max_restarts is not None and self.max_restarts < 1:
            raise ConfigError(f"max_restarts must be >= 1, got {self.max_restarts}")


@dataclasses.dataclass
class SpmStats:
    """Per-restart bookkeeping from :func:`collect_weights`.

    ``n_rejected`` counts the restarts that converged at or below the
    acceptance level and those that their polish left unconverged at
    ``max_steps``.  ``steps`` holds, in restart-index order, the steps each
    classified restart took on the deflated span and in its polish, a Newton
    step counting as one like an ascent step.
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


def _newton(mats: np.ndarray, u: np.ndarray, g: np.ndarray, prods: np.ndarray,
            coeffs: np.ndarray, tried: np.ndarray) -> np.ndarray:
    """Newton steps for F(u) = ||P(u u^T)||^2 on the sphere, at the ``tried`` columns of u.

    ``mats`` is the basis as a stack of matrices B_j.  ``g``, ``prods`` and
    ``coeffs`` are what :meth:`SubspaceProjector.action_batch` returns at the
    (D, R) batch u: the ascent direction g = M(u) u, the (R, m, D) products
    B_j u and the (R, m) forms u^T B_j u, so no product stack is formed here,
    and N is built from one column's products at a time, so none is copied
    either.  M(u) = sum_j (u^T B_j u) B_j is the matrix of P(u u^T).  With
    lambda = u^T g and H = M(u) + 2 sum_j (B_j u)(B_j u)^T (g and H are the
    gradient and Hessian of F over 4), the step xi solves N xi = g - lambda u
    with N = -P_u (H - lambda I) P_u + u u^T.  As Hu = 3g for the quartic F,
    N = lambda I - H + 3 (u g^T + g u^T) + (1 - 4 lambda) u u^T, rank-2
    updates of H.  N is positive definite exactly where the Riemannian
    Hessian of F is negative definite, as near a nondegenerate local maximum;
    a column whose N has no Cholesky factor gets a NaN step.  Returns xi,
    (D, T) for the T tried columns.
    """
    m, d, _ = mats.shape
    cols = np.flatnonzero(tried)
    u, g, coeffs = u[:, cols], g[:, cols], coeffs[cols]
    r = cols.size
    lam = np.einsum("dr,dr->r", g, u)
    n = np.empty((r, d, d))
    for i, col in enumerate(cols):
        np.matmul(prods[col].T, prods[col], out=n[i])
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
    n[~ok] = np.eye(d)  # solvable; its step is discarded
    xi = np.linalg.solve(n, (g - lam * u).T[:, :, None])[:, :, 0].T
    xi[:, ~ok] = np.nan
    return xi


def _step(proj: SubspaceProjector, mats: np.ndarray, u: np.ndarray, track: np.ndarray):
    """One step on a (D, R) batch of unit columns: Newton's where it climbs, else ascent.

    F is the objective on the stack ``mats`` (``proj.mats`` or a deflated
    stack), and ``track`` is (2, R): each column's last move and its
    Newton gate.  :meth:`~SubspaceProjector.action_batch` forms the (R, m, D)
    products B_j u once, for the ascent direction g = P(u u^T) u and for the
    Newton step; :func:`_ascend_batch` steps at most ``_CHUNK`` columns at a
    time, so SPM holds one chunk's products.  A column whose last move is
    below its gate tries a Newton step xi (:func:`_newton`) and takes it
    when N has a Cholesky factor and F(normalize(u + xi)) >= F(u) -
    ``_F_SLACK``.  F(u) = u^T g comes with the ascent direction, and the
    candidates' F is the squared norm of their forms from a second
    ``action_batch`` on the same stack, once the chunk's products are
    released.  Placement on a deflated stack stops at ``_PLACE_MOVE``, the
    first gate, so only the polish on the full stack takes Newton steps.
    Every other column takes the ascent step ``u + 2 _GAMMA g``, and a
    column whose Newton step is refused halves its gate.  Both steps end
    renormalized; neither nears the origin, as u^T(u + 2 _GAMMA g) = 1 +
    2 _GAMMA F(u) and xi is tangent.  Returns the new iterates and the new
    track, whose first row is how far each column moved.
    """
    move, gate = track
    tried = move < gate
    g, prods, coeffs = proj.action_batch(u, mats)
    unew = u + (2.0 * _GAMMA) * g
    unew /= np.linalg.norm(unew, axis=0)
    taken = np.zeros_like(tried)
    if tried.any():
        ut = u[:, tried]
        cand = ut + _newton(mats, u, g, prods, coeffs, tried)  # NaN where N has no Cholesky factor
        del prods  # the candidates' products replace the chunk's
        cand /= np.linalg.norm(cand, axis=0)
        fc = proj.action_batch(cand, mats)[2]
        # a NaN objective compares False, so a NaN step is refused
        climbs = np.einsum("rj,rj->r", fc, fc) >= np.einsum("dr,dr->r", g[:, tried], ut) - _F_SLACK
        taken[tried] = climbs
        unew[:, taken] = cand[:, climbs]
    moved = np.linalg.norm(unew - u, axis=0)
    gate = np.where(tried & ~taken, 0.5 * gate, gate)
    return unew, np.stack([moved, gate])


def _ascend_batch(proj: SubspaceProjector, u0: np.ndarray, cfg: SpmConfig, mats: np.ndarray,
                  tol: float = _CONV_TOL):
    """Iterate :func:`_step` on a (D, R) batch of starting points, for at most ``max_steps``.

    ``mats`` is the stack that :func:`_step` ascends on: ``proj.mats``, or a
    deflated stack (:func:`_deflate`).  Each step runs the active
    columns ``_CHUNK`` at a time.  A column whose move falls to ``tol`` has
    converged and is frozen.  Returns ``(U, steps, converged)``.
    """
    u = np.array(u0, dtype=float)
    n_cols = u.shape[1]
    track = np.repeat([[np.inf], [_NEWTON_MOVE]], n_cols, axis=1)  # no move yet, the first gate
    steps = np.zeros(n_cols, dtype=int)
    converged = np.zeros(n_cols, dtype=bool)
    active = np.arange(n_cols)
    for _ in range(cfg.max_steps):
        for lo in range(0, active.size, _CHUNK):
            cols = active[lo:lo + _CHUNK]
            u[:, cols], track[:, cols] = _step(proj, mats, u[:, cols], track[:, cols])
        steps[active] += 1
        done = track[0, active] <= tol
        if np.any(done):
            converged[active[done]] = True
            active = active[~done]
        if active.size == 0:
            break
    return u, steps, converged


def canonical_sign(u: np.ndarray) -> np.ndarray:
    """Flip so the first coordinate of meaningful size is positive."""
    nz = np.nonzero(np.abs(u) > 1e-14)[0]
    pivot = nz[0] if nz.size else 0
    return u if u[pivot] >= 0 else -u


def _acceptance_level(proj: SubspaceProjector):
    """``(1 - max(_LEVEL_C r^2, _LEVEL_FLOOR), r)`` with r = sigma_{m+1}/sigma_m of the spectrum.

    r is 0 for a projector from exactly m Hessians (``--n-h m --exact-derivatives``).
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


def _deflate(mats: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The stack of the span with every accepted w w^T projected out.

    ``coords`` C (m, k) holds the forms w_a^T B_j w_a of the k accepted
    directions, their coordinates in the span; the last m - k columns Q of a
    complete QR of C are an orthonormal basis of its complement, and ``Q^T
    mats`` is the (m - k, D, D) stack of that deflated span, orthonormal in
    Frobenius like ``mats``.
    """
    m, k = coords.shape
    q = np.linalg.qr(coords, mode="complete")[0][:, k:]
    return (q.T @ mats.reshape(m, -1)).reshape(m - k, *mats.shape[1:])


def _tally(stats: SpmStats, accepted: np.ndarray, idx: int, u: np.ndarray, objective: float,
           steps: int, level: float) -> np.ndarray:
    """Classify restart ``idx`` and count it; returns the accepted rows."""
    cand = canonical_sign(u)
    status = _classify(cand, objective, accepted, level)
    if status == "accepted":
        accepted = np.vstack([accepted, cand])
        stats.n_accepted += 1
    elif status == "rejected":
        stats.n_rejected += 1
    else:
        stats.n_duplicate += 1
    stats.n_processed += 1
    stats.steps.append(int(steps))
    logger.debug("restart %d: steps=%d objective=%s %s", idx, int(steps), objective, status)
    return accepted


def _place(proj: SubspaceProjector, starts: np.ndarray, cfg: SpmConfig, level: float,
           stats: SpmStats) -> np.ndarray:
    """Placed restarts until m = ``proj.rank`` are accepted; returns the accepted rows.

    With k directions accepted, the next min(``_BATCH``, m, max(8, 2 (m - k)))
    starts by index climb on the span with the accepted ones deflated out
    (:func:`_deflate`) until their moves fall to ``_PLACE_MOVE``, then are
    polished on the full span by :func:`_ascend_batch` and classified in
    index order.  A batch is never wider than m, which binds on the first,
    undeflated one: 2m starts there find only about 1 - e^-2 of the m
    directions.  A restart that the polish leaves unconverged is rejected.
    Placement ends when m directions are accepted, the rest of that batch
    unclassified, or when the starts run out.  The polished columns' forms,
    read ``_CHUNK`` at a time, give their objectives and the accepted ones'
    coordinates.  Each deflated stack is released before the polish and
    before the next, smaller one is formed.
    """
    m, mats = proj.rank, proj.mats
    accepted, coords = np.zeros((0, proj.dim)), np.zeros((m, 0))
    n_restarts = starts.shape[1]
    while len(accepted) < m and stats.n_processed < n_restarts:
        k, first = len(accepted), stats.n_processed
        width = min(_BATCH, m, max(8, 2 * (m - k)), n_restarts - first)
        stack = mats if k == 0 else _deflate(mats, coords)
        u, placing, _ = _ascend_batch(proj, starts[:, first:first + width], cfg, stack,
                                      _PLACE_MOVE)
        del stack  # the polish holds no deflated stack
        u, polishing, converged = _ascend_batch(proj, u, cfg, mats)
        forms = np.concatenate([proj.action_batch(u[:, lo:lo + _CHUNK], mats)[2]
                                for lo in range(0, width, _CHUNK)])
        objectives = np.einsum("rj,rj->r", forms, forms)
        objectives[~converged] = -np.inf  # below every level: rejected
        kept = []
        for j in range(width):
            if len(accepted) == m:
                break
            accepted = _tally(stats, accepted, first + j, u[:, j], objectives[j],
                              placing[j] + polishing[j], level)
            if len(accepted) > k + len(kept):
                kept.append(j)
        coords = np.hstack([coords, forms[kept].T])
    return accepted


def collect_weights(proj: SubspaceProjector, cfg: SpmConfig, seed: int):
    """Collect the m = ``proj.rank`` planted directions from restarts drawn from the seed.

    :func:`_place` ascends the restarts and classifies them in index order
    against the level that :func:`_acceptance_level` reads from the
    projector's spectrum: it rejects the ones that converge at or below the
    level and the ones cut unconverged at ``max_steps``, folds the sign to
    canonical form, and drops near-duplicates of already-accepted vectors.
    Stops the moment m distinct vectors are accepted; raises
    :class:`IncompleteRecoveryError` (carrying the partial set and the
    acceptance statistics) when the restart budget runs out first.  The
    summary line and that error state the level and sigma_{m+1}/sigma_m.
    """
    m = proj.rank
    level, ratio = _acceptance_level(proj)
    n_restarts = cfg.max_restarts if cfg.max_restarts is not None else default_restarts(m)
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((proj.dim, n_restarts))
    starts /= np.linalg.norm(starts, axis=0)
    stats = SpmStats()
    accepted = _place(proj, starts, cfg, level, stats)
    why_rejected = (f"at or below the acceptance level 1 - {1.0 - level:.2e} from "
                    f"sigma_{m + 1}/sigma_{m} = {ratio:.2e}, or cut unconverged at "
                    f"max_steps = {cfg.max_steps}")
    if len(accepted) < m:
        raise IncompleteRecoveryError(
            f"found {len(accepted)} of {m} directions after {stats.n_processed} restarts "
            f"(accepted/duplicate/rejected = {stats.n_accepted}/{stats.n_duplicate}/"
            f"{stats.n_rejected}; rejected {why_rejected})",
            partial=accepted.T,
            stats=stats,
        )
    logger.info("collected %d directions from %d restarts (%d duplicates; %d rejected %s)",
                m, stats.n_processed, stats.n_duplicate, stats.n_rejected, why_rejected)
    return accepted.T, stats
