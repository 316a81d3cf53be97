"""Executable diagnostics: incoherence, learnability, Hermite machinery,
the mean-slope sign certificate, and recovered-vs-true scoring.

Everything here measures; nothing proves.  Incoherence constants are
reported as fitted values, the restricted-isometry probe samples random
submatrices (exhaustive verification is combinatorial), and the learnability
floor is an empirical eigenvalue.  Every Gaussian mean is taken by one
Gauss-Hermite rule, ``_gauss_mean``.  The scoring path is the only place the
ground truth is consulted, and the recovery algorithms never see its output.
It starts a helper thread, whose timing cannot reach a score
(``match_and_score``); the only other thread in the package is the Hessian
stencil's (``TeacherNetwork.stencil_function``).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math

import numpy as np

from .activations import Activation
from .exceptions import ConfigError
from .subspace import build_hessian_matrix
from .teacher import StudentNetwork, TeacherNetwork, block_rows

__all__ = [
    "IncoherenceReport",
    "Metrics",
    "check_incoherence",
    "estimate_alpha",
    "hermite_basis",
    "hermite_coeffs",
    "kernel_floor_omega",
    "OmegaResult",
    "slope_sign_certificate",
    "match_weights",
    "match_and_score",
    "init_shift_error_bound",
]


# ---------------------------------------------------------------------------
# incoherence
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class IncoherenceReport:
    max_sq_corr: float                 # max_{i != j} <w_i, w_j>^2
    c2_hat: float                      # max_sq_corr * D / log m
    gram_inv_norms: dict               # n -> ||G_n^{-1}||_2 for n = 2..4
    rip_samples: list                  # (p, delta_hat) per sampled submatrix


def check_incoherence(weights: np.ndarray, rip_trials: int = 20,
                      seed: int = 0) -> IncoherenceReport:
    """Measure the incoherence properties of a unit-column weight matrix.

    Pairwise correlations and inverse Hadamard-power Gram norms are exact;
    the restricted isometry constant is probed on ``rip_trials`` random
    column subsets of size ``ceil(D / (4 log m))``, each reported with its
    deviation ``||G_S - I||_2`` -- a sample, not a proof.
    """
    if rip_trials < 1:
        raise ConfigError(f"rip_trials must be >= 1, got {rip_trials}")
    w = np.asarray(weights, dtype=float)
    d, m = w.shape
    gram = w.T @ w
    off = gram - np.eye(m)
    max_sq_corr = float(np.max(off ** 2)) if m > 1 else 0.0
    c2_hat = max_sq_corr * d / math.log(m) if m > 1 else 0.0

    inv_norms = {}
    for n in (2, 3, 4):
        evals = np.linalg.eigvalsh(gram ** n)
        inv_norms[n] = float(1.0 / evals[0]) if evals[0] > 0 else float("inf")

    rng = np.random.default_rng(seed)
    rip_samples = []
    if m > 1:
        p = max(1, math.ceil(d / (4.0 * math.log(m))))
        p = min(p, m)
        for _ in range(rip_trials):
            idx = rng.choice(m, size=p, replace=False)
            sub = gram[np.ix_(idx, idx)]
            dev = float(np.linalg.norm(sub - np.eye(p), 2))
            rip_samples.append((p, dev))
    return IncoherenceReport(
        max_sq_corr=max_sq_corr,
        c2_hat=c2_hat,
        gram_inv_norms=inv_norms,
        rip_samples=rip_samples,
    )


# ---------------------------------------------------------------------------
# learnability
# ---------------------------------------------------------------------------

def estimate_alpha(net: TeacherNetwork, n_mc: int, seed: int = 0) -> float:
    """m-th eigenvalue of the empirical second moment of vectorized Hessians.

    Positive values back the claim that Hessians at Gaussian inputs span the
    full weight space.  The ``n_mc`` Hessians are exact (analytic oracle, no
    queries), so the number measures the model, not finite-difference noise.
    The eigenvalue is the m-th squared singular value of the Hessian columns
    over ``n_mc``, or 0 when the columns have fewer than m singular values.
    """
    if n_mc < net.n_neurons:
        raise ConfigError(f"need n_mc >= m = {net.n_neurons}, got {n_mc}")
    cols, _ = build_hessian_matrix(net, n_mc, None, seed)
    svals = np.linalg.svd(cols, compute_uv=False)
    if svals.size < net.n_neurons:
        return 0.0
    return float(svals[net.n_neurons - 1] ** 2) / n_mc


# ---------------------------------------------------------------------------
# Hermite machinery
# ---------------------------------------------------------------------------

# Gauss-Hermite nodes of every Gaussian mean below: at 256 the kernel floor's
# E[g'(Y + tau)^2] - sum_{r<4} mu_r^2 agrees with 300 nodes to 2.8e-15 (tanh)
# and 7.7e-14 (sigmoid) relative, and numpy's hermgauss(400) overflows to NaN
# weights; then the kernel floor's shift grid
_QUAD_NODES = 256
_OMEGA_TAU_GRID = 41


def _gauss_mean(fn):
    """``E[fn(Y)]`` over fn's last axis, Y standard Gaussian: ``_QUAD_NODES``-point
    Gauss-Hermite quadrature, its nodes scaled by sqrt(2) to the Gaussian weight."""
    nodes, wts = np.polynomial.hermite.hermgauss(_QUAD_NODES)
    return np.asarray(fn(math.sqrt(2.0) * nodes), dtype=float) @ wts / math.sqrt(math.pi)


def hermite_basis(r_max: int, y: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite values h_0..h_r at y, stacked as (r_max+1, len(y)).

    Uses the stable three-term recurrence for the basis that is orthonormal
    under the standard Gaussian measure.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.empty((r_max + 1, y.shape[0]))
    out[0] = 1.0
    if r_max >= 1:
        out[1] = y
    for r in range(1, r_max):
        out[r + 1] = (y * out[r] - math.sqrt(r) * out[r - 1]) / math.sqrt(r + 1)
    return out


def hermite_coeffs(fn, r_max: int) -> np.ndarray:
    """Coefficients ``mu_r = E[fn(Y) h_r(Y)]``, r = 0..r_max, of fn in the
    orthonormal Hermite basis, for standard Gaussian Y."""
    return _gauss_mean(lambda y: hermite_basis(r_max, y) * fn(y))


@dataclasses.dataclass
class OmegaResult:
    omega: float
    tau_argmin: float


def kernel_floor_omega(act: Activation) -> OmegaResult:
    """Half the worst-case high-order Hermite energy of the slope function.

    Computes ``0.5 * min_tau sum_{r>=4} mu_r(g'(. + tau))^2`` over
    ``_OMEGA_TAU_GRID`` evenly spaced shifts in ``[-tau_inf, tau_inf]``.  The
    whole series is read exactly by Parseval's identity, as
    ``E[g'(Y + tau)^2] - sum_{r<4} mu_r^2``.  g' is even for both
    activations, so the energy is even in tau and only the grid's
    nonnegative half is scanned: over the whole grid the mirror shifts would
    tie, and rounding would pick the argmin's sign.
    """
    taus = np.linspace(-act.tau_inf, act.tau_inf, _OMEGA_TAU_GRID)[_OMEGA_TAU_GRID // 2:]

    def energy(tau):
        mu = hermite_coeffs(lambda y: act.g1(y + tau), 3)
        return float(_gauss_mean(lambda y: act.g1(y + tau) ** 2)) - float(mu @ mu)

    energies = [energy(tau) for tau in taus]
    k = int(np.argmin(energies))
    return OmegaResult(omega=0.5 * energies[k], tau_argmin=float(taus[k]))


def slope_sign_certificate(act: Activation):
    """Numerically certify that the Gaussian mean of g'(. + tau) keeps one sign.

    Evaluates ``integral g'(t + tau) exp(-t^2/2) dt = sqrt(2 pi) E[g'(Y + tau)]``
    on a 101-point tau-grid over the shift interval.  Returns ``(sign,
    min_abs_integral)``; a report, not a proof.  Raises if the sign flips.
    """
    taus = np.linspace(-act.tau_inf, act.tau_inf, 101)
    vals = np.array([math.sqrt(2.0 * math.pi) * _gauss_mean(lambda y: act.g1(y + tau))
                     for tau in taus])
    signs = np.sign(vals)
    if np.any(signs == 0) or np.any(signs != signs[0]):
        raise ConfigError("mean slope changes sign across the shift interval")
    return int(signs[0]), float(np.min(np.abs(vals)))


# ---------------------------------------------------------------------------
# recovered-vs-true scoring
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Metrics:
    e_inf: float             # m^{-1} max_i |f(x_i) - fhat(x_i)| on held-out inputs
    max_weight_err: float    # max_k min_s ||w_k - s what_{pi(k)}||
    shift_rms: float         # m^{-1/2} ||tau - tauhat_pi||
    delta_w1: float
    delta_wo: float
    delta_ws: float
    signs: np.ndarray        # s_k = sign <w_k, what_{pi(k)}>, pi the matching


def _row_argmax_permutation(score: np.ndarray):
    """The column of each row's maximum, when every row attains its maximum in
    exactly one column and those columns are distinct; else None."""
    if score.size == 0:
        return None
    perm = score.argmax(axis=1)
    n_at_max = np.count_nonzero(score == score.max(axis=1, keepdims=True), axis=1)
    if np.all(n_at_max == 1) and np.unique(perm).size == perm.size:
        return perm
    return None


def match_weights(w_hat: np.ndarray, w_true: np.ndarray):
    """Sign-aware assignment between estimated and true weight columns.

    Maximizes the total absolute cosine ``sum_k |<w_k, what_{perm[k]}>|`` and
    returns ``(perm, signs, errors)`` with ``errors[k] = ||w_k - s_k what_{perm[k]}||``.

    When each true column's largest |cosine| is attained by exactly one
    estimated column and those columns are all distinct, every row of the
    assignment sits at its own maximum, so that permutation is the unique
    maximizer and is returned directly.  A successful recovery, where each
    estimate lies nearest its own true column, always takes this path.
    Otherwise (a tied maximum, two estimates nearest the same true column)
    the assignment problem is solved by the Hungarian method,
    ``scipy.optimize.linear_sum_assignment``.
    """
    w_hat = np.asarray(w_hat, dtype=float)
    w_true = np.asarray(w_true, dtype=float)
    if w_hat.shape != w_true.shape:
        raise ConfigError("weight matrices must share shape for matching")
    cos = w_true.T @ w_hat
    score = np.abs(cos)
    perm = _row_argmax_permutation(score)
    if perm is None:
        # imported here, not at the top: scipy.optimize (with scipy.linalg and its
        # own OpenBLAS) adds about 0.5 s and 48 MB to a process that imports it,
        # and only a wrong or degenerate recovery reaches this line
        import scipy.optimize

        _, perm = scipy.optimize.linear_sum_assignment(-score)
    signs = np.sign(cos[np.arange(perm.size), perm]).astype(int)
    signs[signs == 0] = 1
    aligned = w_hat[:, perm] * signs
    errors = np.linalg.norm(w_true - aligned, axis=0)
    return perm, signs, errors


def match_and_score(recovered: StudentNetwork, truth: TeacherNetwork,
                    n_eval: int = 100_000, seed: int = 0) -> Metrics:
    """Full comparison of a recovered network against the planted one.

    The held-out uniform error is evaluated on ``n_eval`` fresh Gaussian
    inputs (these queries are evaluation cost, not algorithm cost), drawn
    and evaluated in blocks of ``block_rows(m)`` rows from one generator,
    which reproduces the inputs of a single draw.  The weight-error functionals
    are computed after sign/permutation alignment with unit constants.

    The blocks are taken in pairs, one teacher query and one difference
    each.  The calling thread queries the teacher on the pair, which
    ``eval_batch`` evaluates in the same blocks, and subtracts the student
    on the first block; a helper thread, opened per call and joined before
    it returns, evaluates the student on the second block (empty when the
    last pair has at most one block) and then draws the next pair.  Only
    the helper draws inside the loop, each draw is joined before the next
    is issued, and the first pair is drawn before the helper starts, so the
    inputs are one stream.  The pairs go into two buffers of two blocks
    each, which the calling thread allocates once per call, so four blocks
    are alive; the helper writes into them with ``standard_normal(out=...)``.
    Fresh arrays drawn on the helper would come from its own malloc arena
    and be freed on the calling thread: at D=40, m=102 that cost about
    11,400 minor page faults per call against 200 with these buffers, and
    made the call about 40% slower.  On one CPU the two threads interleave.
    ``e_inf`` cannot depend on them: each evaluation reads only its rows,
    and a max is exact in any order (a NaN block gives NaN).  Errors
    propagate after the join.
    """
    if recovered.dim != truth.dim or recovered.n_neurons != truth.n_neurons:
        raise ConfigError("recovered and true networks must share architecture")
    if n_eval < 1:
        raise ConfigError(f"n_eval must be positive, got {n_eval}")
    d, m = truth.dim, truth.n_neurons
    perm, signs, errors = match_weights(recovered.weights, truth.weights)
    aligned = recovered.weights[:, perm] * signs
    err_mat = truth.weights - aligned

    rng = np.random.default_rng(seed)
    rows = block_rows(m)
    bufs = [np.empty((min(2 * rows, n_eval), d)) for _ in range(2)]
    peaks = []

    def rest_of_pair(second, nxt):
        """The student on a pair's second block, then the draw of the next pair."""
        vals = recovered.eval_batch(second)
        rng.standard_normal(out=nxt)
        return vals

    rng.standard_normal(out=bufs[0])
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as helper:
        for k, lo in enumerate(range(0, n_eval, 2 * rows)):
            xs = bufs[k % 2][:n_eval - lo]
            rest = helper.submit(rest_of_pair, xs[rows:],
                                 bufs[1 - k % 2][:max(0, n_eval - lo - 2 * rows)])
            diff = truth.eval_batch(xs)
            diff[:rows] -= recovered.eval_batch(xs[:rows])
            diff[rows:] -= rest.result()
            # not max(worst, .): max(0.0, nan) is 0.0
            peaks.append(np.max(np.abs(diff)))
    e_inf = float(np.max(peaks)) / m

    tau_aligned = recovered.shifts[perm]
    shift_rms = float(np.linalg.norm(truth.shifts - tau_aligned)) / math.sqrt(m)

    cross = err_mat.T @ err_mat
    delta_wo = float(np.sum(np.abs(cross)) - np.trace(np.abs(cross)))
    delta_ws = float(np.linalg.norm(err_mat.sum(axis=1)))
    fro = float(np.linalg.norm(err_mat))
    log_m = math.log(m) if m > 1 else 0.0
    delta_w1 = (math.sqrt(m) * log_m ** 0.75 / d ** 0.25) * (
        fro + math.sqrt(delta_wo) / math.sqrt(d) + delta_ws
    )
    return Metrics(
        e_inf=e_inf,
        max_weight_err=float(np.max(errors)),
        shift_rms=shift_rms,
        delta_w1=delta_w1,
        delta_wo=delta_wo,
        delta_ws=delta_ws,
        signs=signs,
    )


def init_shift_error_bound(m: int, d: int, eps_hat: float, delta_max: float) -> float:
    """Initialization error bound with unit constants:
    ``sqrt(m) eps + m^{3/2} (log m / D)^{3/4} delta_max``."""
    log_m = math.log(m) if m > 1 else 0.0
    return math.sqrt(m) * eps_hat + m ** 1.5 * (log_m / d) ** 0.75 * delta_max

