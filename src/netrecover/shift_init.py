"""Sign and shift initialization from directional derivatives at the origin.

With weight directions in hand (each one correct up to a global sign), the
second- and third-order directional derivatives of the network along those
directions satisfy small Hadamard-power Gram systems whose solutions are
``s_k^n g^(n)(tau_k)``.  On the shift interval g'' is strictly monotone and
g''' keeps the sign of g'''(0) (:mod:`.activations`), so inverting g''
recovers the shifts and the sign of each third-order coefficient against
g'''(0) recovers the signs.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from .activations import invert_g2
from .exceptions import ConfigError, IllConditionedError
from .numdiff import fd_directional

__all__ = ["InitResult", "gram_power", "directional_derivs_at_zero", "init_signs_shifts"]

logger = logging.getLogger(__name__)

_COND_LIMIT = 1e10


@dataclasses.dataclass
class InitResult:
    """Recovered signs and initial shifts, with solver conditioning info."""

    signs: np.ndarray            # +-1 per neuron
    tau0: np.ndarray             # initial shifts, clamped to the admissible interval
    c2: np.ndarray               # solved second-order coefficients
    c3: np.ndarray               # solved third-order coefficients
    cond_g2: float
    cond_g3: float
    n_undetermined: int = 0


def gram_power(w_hat: np.ndarray, n: int) -> np.ndarray:
    """Entrywise n-th power of the Gram matrix of the columns."""
    if n < 1:
        raise ConfigError("gram power must be >= 1")
    w_hat = np.asarray(w_hat, dtype=float)
    return (w_hat.T @ w_hat) ** n


def directional_derivs_at_zero(net, w_hat: np.ndarray, n: int, h: float | None) -> np.ndarray:
    """Order-n derivative of the network along each column, at the origin.

    Finite differences of step ``h`` cost 2 queries per column plus one at
    the origin for n = 2 and 4 per column for n = 3, all in one batch call of
    the network; ``h=None`` uses the network's analytic oracle instead.
    """
    w_hat = np.asarray(w_hat, dtype=float)
    norms = np.linalg.norm(w_hat, axis=0)
    if np.max(np.abs(norms - 1.0)) > 1e-8:
        raise ConfigError("weight estimates must have unit columns")
    if h is None:
        return np.array([net.directional_deriv_exact(w_hat[:, k], n)
                         for k in range(w_hat.shape[1])])
    return fd_directional(net.eval_batch, np.zeros(net.dim), w_hat, n, h)


def _solve_spd(gram: np.ndarray, rhs: np.ndarray, label: str):
    """Solve the SPD Gram system by ``np.linalg.solve`` plus one step of iterative
    refinement; surfaces conditioning.

    Positive definiteness and the condition number are checked from the
    eigenvalues first, so the LU solve only sees SPD matrices with condition
    number at most ``_COND_LIMIT``.
    """
    evals = np.linalg.eigvalsh(gram)
    if evals[0] <= 0:
        raise IllConditionedError(
            f"{label} Gram system is not positive definite "
            f"(lambda_min = {evals[0]:.3e}); weight incoherence failed",
            cond=np.inf,
        )
    cond = float(evals[-1] / evals[0])
    if cond > _COND_LIMIT:
        raise IllConditionedError(
            f"{label} Gram system condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}; "
            "weight incoherence failed",
            cond=cond,
        )
    sol = np.linalg.solve(gram, rhs)
    sol += np.linalg.solve(gram, rhs - gram @ sol)
    return sol, cond


def init_signs_shifts(net, w_hat: np.ndarray, h: float | None) -> InitResult:
    """Run the full initialization: Gram solves, g'' inversion, sign rule.

    The derivatives are finite differences of step ``h``, or the analytic
    oracle's for ``h=None`` (:func:`directional_derivs_at_zero`); g is the
    network's own activation ``net.act``.

    Signs come from ``sign(c3_k * g'''(0))``.  As c3_k = s_k^3 g'''(tau_k),
    and g'''(tau_k) has the sign of g'''(0) on the shift interval (which is
    -2 for tanh and -1/8 for the sigmoid), this is s_k.  A coefficient that
    is exactly zero leaves its sign undetermined: it is counted in
    ``n_undetermined`` and defaults to +1.
    """
    t2 = directional_derivs_at_zero(net, w_hat, 2, h)
    t3 = directional_derivs_at_zero(net, w_hat, 3, h)
    c2, cond_g2 = _solve_spd(gram_power(w_hat, 2), t2, "order-2")
    c3, cond_g3 = _solve_spd(gram_power(w_hat, 3), t3, "order-3")

    tau0 = np.array([invert_g2(net.act, float(v)) for v in c2])

    signs = np.sign(c3 * float(net.act.g3(0.0))).astype(int)
    n_undetermined = int(np.sum(signs == 0))
    if n_undetermined:
        logger.warning("%d sign(s) undetermined (zero coefficient); defaulting to +1",
                       n_undetermined)
        signs[signs == 0] = 1
    return InitResult(
        signs=signs,
        tau0=tau0,
        c2=np.asarray(c2),
        c3=np.asarray(c3),
        cond_g2=cond_g2,
        cond_g3=cond_g3,
        n_undetermined=n_undetermined,
    )
