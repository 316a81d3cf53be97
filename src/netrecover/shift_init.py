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

__all__ = ["InitResult", "gram_power", "check_unit_columns", "directional_derivs_at_zero",
           "init_signs_shifts"]

logger = logging.getLogger(__name__)

_COND_LIMIT = 1e10


@dataclasses.dataclass
class InitResult:
    """Recovered signs and initial shifts, with the Gram systems' condition numbers."""

    signs: np.ndarray            # +-1 per neuron
    tau0: np.ndarray             # initial shifts, clamped to the admissible interval
    cond_g2: float
    cond_g3: float


def gram_power(w_hat: np.ndarray, n: int) -> np.ndarray:
    """Entrywise n-th power of the Gram matrix of the columns."""
    if n < 1:
        raise ConfigError("gram power must be >= 1")
    w_hat = np.asarray(w_hat, dtype=float)
    return (w_hat.T @ w_hat) ** n


def check_unit_columns(w_hat: np.ndarray):
    """Refuse weight estimates whose columns are not unit vectors."""
    if np.max(np.abs(np.linalg.norm(w_hat, axis=0) - 1.0)) > 1e-8:
        raise ConfigError("weight estimates must have unit columns")


def directional_derivs_at_zero(net, w_hat: np.ndarray, h: float | None):
    """Order-2 and order-3 derivatives of the network along each column, at the origin.

    Returns ``(t2, t3)``.  Finite differences of step ``h`` cost 4 queries
    per column plus one at the origin, all in one batch call of the network
    (:func:`~.numdiff.fd_directional`); ``h=None`` reads the network's
    analytic oracle instead, twice per column.
    """
    w_hat = np.asarray(w_hat, dtype=float)
    check_unit_columns(w_hat)
    if h is None:
        return tuple(np.array([net.directional_deriv_exact(w, n) for w in w_hat.T])
                     for n in (2, 3))
    return fd_directional(net.eval_batch, np.zeros(net.dim), w_hat, h)


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

    Both orders of derivative come from one call of
    :func:`directional_derivs_at_zero`: finite differences of step ``h`` at
    4m + 1 points, or the analytic oracle's for ``h=None``; g is the
    network's own activation ``net.act``.

    Signs come from ``sign(c3_k * g'''(0))``.  As c3_k = s_k^3 g'''(tau_k),
    and g'''(tau_k) has the sign of g'''(0) on the shift interval (which is
    -2 for tanh and -1/8 for the sigmoid), this is s_k.  A coefficient that
    is exactly zero leaves its sign undetermined: it defaults to +1, with a
    warning.
    """
    t2, t3 = directional_derivs_at_zero(net, w_hat, h)
    c2, cond_g2 = _solve_spd(gram_power(w_hat, 2), t2, "order-2")
    c3, cond_g3 = _solve_spd(gram_power(w_hat, 3), t3, "order-3")

    tau0 = np.array([invert_g2(net.act, float(v)) for v in c2])

    signs = np.sign(c3 * float(net.act.g3(0.0))).astype(int)
    undetermined = signs == 0
    if undetermined.any():
        logger.warning("%d sign(s) undetermined (zero coefficient); defaulting to +1",
                       np.count_nonzero(undetermined))
        signs[undetermined] = 1
    return InitResult(signs=signs, tau0=tau0, cond_g2=cond_g2, cond_g3=cond_g3)
