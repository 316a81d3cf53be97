"""Workload definitions and the correctness gate of the netrecover benchmark.

This module imports nothing heavy, so the parent process of ``run.py`` can
read the workload table without loading numpy.  The unit runners that need
the package live in ``worker.py``.
"""

from __future__ import annotations

import dataclasses

# times each input of a run is timed; a metric takes each input's fastest time
REPEATS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: what a unit of work is and how it is checked.

    ``kind`` is ``"pipeline"`` (one ``run_pipeline`` call per unit) or
    ``"refine"`` (one ``refine`` call per unit on a student that already has
    the teacher's weights).  ``unit_s`` is the nominal wall time of one unit
    on the reference box (2 cores, one BLAS thread); it only sets how many
    inputs a run of ``--seconds`` seconds holds, each run ``REPEATS`` times,
    so the work is fixed for a given ``--seconds``.
    The ``tol_*`` fields are the correctness gate's limits: well above the
    errors measured when the benchmark was added and well below a failed
    recovery.
    """

    name: str
    kind: str
    dim: int
    beta_order: float | None = None
    n_neurons: int | None = None
    unit_s: float = 1.0
    tol_weight: float = 1e-4
    tol_shift_rms: float = 1e-3
    tol_e_inf: float = 1e-4

    def inputs_per_run(self, seconds: float) -> int:
        return max(2, round(seconds / (REPEATS * self.unit_s)))


WORKLOADS = {
    w.name: w for w in (
        # the paper's regime: the Hessian stage and its queries dominate
        Workload(name="fd-hessian", kind="pipeline", dim=40, beta_order=1.5,
                 unit_s=3.6, tol_weight=1e-4, tol_shift_rms=1e-3, tol_e_inf=1e-4),
        # ~60k tiny mini-batch refine steps; no numdiff, subspace or spm
        Workload(name="refine-sgd", kind="refine", dim=40, n_neurons=16,
                 unit_s=3.6, tol_weight=1e-12, tol_shift_rms=1e-3, tol_e_inf=1e-3),
    )
}


def gate(wl: Workload, *, sign_accuracy: float, max_weight_err: float,
         shift_rms: float, e_inf: float, stop_reason: str) -> list[str]:
    """Return the reasons a unit's output is wrong (empty when it passes)."""
    reasons = []
    if not sign_accuracy == 1.0:
        reasons.append(f"sign_accuracy {sign_accuracy!r} != 1")
    for name, value, tol in (("max_weight_err", max_weight_err, wl.tol_weight),
                             ("shift_rms", shift_rms, wl.tol_shift_rms),
                             ("e_inf", e_inf, wl.tol_e_inf)):
        if not value <= tol:  # also rejects NaN
            reasons.append(f"{name} {value!r} > {tol!r}")
    if stop_reason != "stop_loss":
        reasons.append(f"refine stopped on {stop_reason!r}, not 'stop_loss'")
    return reasons
