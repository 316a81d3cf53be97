"""Executable diagnostics: incoherence, learnability, Hermite machinery,
and recovered-vs-true scoring.

Everything here measures; nothing proves.  Incoherence constants are
reported as fitted values, the restricted-isometry probe samples random
submatrices (exhaustive verification is combinatorial), and the learnability
floor is an empirical eigenvalue.  The scoring path is the only place the
ground truth is consulted, and the recovery algorithms never see its output.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import scipy.optimize

from .activations import Activation
from .exceptions import ConfigError
from .numdiff import FDConfig
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
    rip_target_delta: float
    rip_ok: bool


def check_incoherence(weights: np.ndarray, delta: float = 0.5,
                      rip_trials: int = 20, seed: int = 0) -> IncoherenceReport:
    """Measure the incoherence properties of a unit-column weight matrix.

    Pairwise correlations and inverse Hadamard-power Gram norms are exact;
    the restricted isometry constant is probed on ``rip_trials`` random
    column subsets of size ``ceil(D / (4 log m))`` -- a sampled certificate,
    not a proof.
    """
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
    worst = max((dev for _, dev in rip_samples), default=0.0)
    return IncoherenceReport(
        max_sq_corr=max_sq_corr,
        c2_hat=c2_hat,
        gram_inv_norms=inv_norms,
        rip_samples=rip_samples,
        rip_target_delta=delta,
        rip_ok=worst <= delta,
    )


# ---------------------------------------------------------------------------
# learnability
# ---------------------------------------------------------------------------

def estimate_alpha(net: TeacherNetwork, n_mc: int, cfg: FDConfig | None = None,
                   seed: int = 0, exact: bool = True) -> float:
    """m-th eigenvalue of the empirical second moment of vectorized Hessians.

    Positive values back the claim that Hessians at Gaussian inputs span the
    full weight space.  Exact derivatives by default, so the number measures
    the model, not finite-difference noise; pass ``exact=False`` with an
    ``FDConfig`` for the end-to-end variant.
    """
    if n_mc < net.n_neurons:
        raise ConfigError(f"need n_mc >= m = {net.n_neurons}, got {n_mc}")
    cols, _, _ = build_hessian_matrix(net, n_mc, cfg, seed, exact=exact)
    if n_mc <= cols.shape[0]:
        evals = np.linalg.eigvalsh(cols.T @ cols)
    else:
        evals = np.linalg.eigvalsh(cols @ cols.T)
    evals = np.sort(np.clip(evals, 0.0, None))[::-1] / n_mc
    if evals.shape[0] < net.n_neurons:
        return 0.0
    return float(evals[net.n_neurons - 1])


# ---------------------------------------------------------------------------
# Hermite machinery
# ---------------------------------------------------------------------------

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


def hermite_coeffs(fn, r_max: int, quad_nodes: int = 200) -> np.ndarray:
    """Coefficients of fn in the orthonormal Hermite basis.

    ``mu_r = E[fn(Y) h_r(Y)]`` for standard Gaussian Y, computed by
    Gauss-Hermite quadrature after the change of variables that absorbs the
    ``exp(-y^2/2)`` weight.
    """
    if r_max > quad_nodes / 2:
        warnings.warn(
            f"r_max = {r_max} is large for {quad_nodes} quadrature nodes; "
            "high-order coefficients may be inaccurate",
            stacklevel=2,
        )
    nodes, wts = np.polynomial.hermite.hermgauss(quad_nodes)
    y = math.sqrt(2.0) * nodes
    basis = hermite_basis(r_max, y)
    vals = np.asarray(fn(y), dtype=float)
    return (basis * vals) @ wts / math.sqrt(math.pi)


@dataclasses.dataclass
class OmegaResult:
    omega: float
    tau_argmin: float
    tail_bound: float   # bound on the discarded sum_{r > r_max} mu_r^2
    r_max: int


def kernel_floor_omega(act: Activation, tau_grid: int = 41, r_max: int = 20,
                       quad_nodes: int = 200) -> OmegaResult:
    """Half the worst-case high-order Hermite energy of the slope function.

    Computes ``0.5 * min_tau sum_{r=4}^{r_max} mu_r(g'(. + tau))^2`` over a
    shift grid.  The truncation tail is bounded through the derivative
    ladder: ``mu_r(g') = mu_{r-2}(g''') / sqrt(r (r-1))``, so the tail is at
    most ``E[g'''^2] / (r_max (r_max + 1))``.
    """
    taus = np.linspace(-act.tau_inf, act.tau_inf, tau_grid)
    best, best_tau = np.inf, 0.0
    for tau in taus:
        mu = hermite_coeffs(lambda y: act.g1(y + tau), r_max, quad_nodes)
        energy = float(mu[4:] @ mu[4:])
        if energy < best:
            best, best_tau = energy, float(tau)
    nodes, wts = np.polynomial.hermite.hermgauss(quad_nodes)
    y = math.sqrt(2.0) * nodes
    e_g3_sq = max(
        float((np.asarray(act.g3(y + tau), dtype=float) ** 2) @ wts / math.sqrt(math.pi))
        for tau in (-act.tau_inf, 0.0, act.tau_inf)
    )
    tail = e_g3_sq / (r_max * (r_max + 1))
    return OmegaResult(omega=0.5 * best, tau_argmin=best_tau, tail_bound=tail, r_max=r_max)


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
    permutation: np.ndarray  # pi(k) = student column matched to true neuron k
    signs: np.ndarray        # sign aligning each matched column


def match_weights(w_hat: np.ndarray, w_true: np.ndarray):
    """Sign-aware assignment between estimated and true weight columns.

    Maximizes the total absolute cosine by the Hungarian method and returns
    ``(perm, signs, errors)`` with ``errors[k] = ||w_k - s_k what_{perm[k]}||``.
    """
    w_hat = np.asarray(w_hat, dtype=float)
    w_true = np.asarray(w_true, dtype=float)
    if w_hat.shape != w_true.shape:
        raise ConfigError("weight matrices must share shape for matching")
    cos = w_true.T @ w_hat
    rows, cols = scipy.optimize.linear_sum_assignment(-np.abs(cos))
    perm = np.empty(w_true.shape[1], dtype=int)
    perm[rows] = cols
    signs = np.sign(cos[rows, perm[rows]]).astype(int)
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
    worst = 0.0
    rows = block_rows(m)
    for lo in range(0, n_eval, rows):
        xs = rng.standard_normal((min(rows, n_eval - lo), d))
        worst = max(worst, float(np.max(np.abs(truth.eval_batch(xs)
                                               - recovered.eval_batch(xs)))))
    e_inf = worst / m

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
        permutation=perm,
        signs=signs,
    )


def init_shift_error_bound(m: int, d: int, eps_hat: float, delta_max: float) -> float:
    """Initialization error bound with unit constants:
    ``sqrt(m) eps + m^{3/2} (log m / D)^{3/4} delta_max``."""
    log_m = math.log(m) if m > 1 else 0.0
    return math.sqrt(m) * eps_hat + m ** 1.5 * (log_m / d) ** 0.75 * delta_max

