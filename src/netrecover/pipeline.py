"""End-to-end orchestration: teacher sampling through scoring.

``_StageRunner`` holds all stage wiring, of :func:`run_pipeline`, the SGD
baseline and the CLI stage subcommands (``recover-weights``, ``init-shifts``
and ``refine`` call the methods that ``run_pipeline`` calls).  Each stage is
a ``with self.stage(name)`` block in one of its methods, and the method owns
the stage's decisions: its seed, derived from the master seed with a counter
scheme so concurrency or stage reordering can never change results; its
finite-difference step and budget, read from the run's :class:`PipelineConfig`;
and its artifact, written when given a path.  ``stage`` times the block and
logs its time and queries; ``result.csv`` and ``report.txt`` are written at
the end or after a failure, so a run can be post-mortemed.  The result CSV
contains only deterministic fields; timings go to the report.

The shifts are refined by Gauss-Newton on a small fresh sample; the paper's
gradient descent on m D^2 inputs stays available as
``RefineConfig(method="gd")``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import math
import time
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import fileio
from .activations import make_activation
from .diagnostics import (Metrics, init_shift_error_bound, match_and_score,
                          match_weights)
from .exceptions import ConfigError, IncompleteRecoveryError, StageError
from .fileio import save_teacher
from .refine import RefineConfig, refine
from .shift_init import InitResult, init_signs_shifts
from .spm import SpmConfig, SpmStats, collect_weights
from .subspace import build_hessian_matrix, half_dim, top_m_projector, unhvec
from .teacher import StudentNetwork, UniformShifts, sample_teacher

__all__ = ["PipelineConfig", "ExperimentResult", "child_seed", "neuron_count",
           "default_n_hessians", "run_pipeline", "run_scaling_study",
           "RESULT_COLUMNS", "STAGES", "teacher_stage"]

logger = logging.getLogger(__name__)

_STAGE_IDS = {
    "teacher": 0,
    "hessians": 1,
    "spm": 2,
    "refine": 3,
    "score": 4,
    "baseline_student": 5,
    "study": 6,
}

# fewest inputs the refine stage draws (PipelineConfig.refine_config).  At
# small D the initial shifts are already close, and a small sample's
# least-squares fit can land farther from the truth: over D in {2, 3, 5, 6},
# beta = 1.0, seeds 0-59, floors of 64/128/256/512/1024 ended above the
# initial shift error on 5/4/2/0/2 cells.  The two left at 1024 sit within
# 1.6x of it, as does their least-squares optimum on 16k inputs.
_GN_MIN_TRAIN = 512

STAGES = ("teacher", "hessians", "projector", "spm", "init", "refine", "score")


def child_seed(master: int, stage: str, extra: int = 0) -> int:
    """Derive a per-stage seed from the master seed (counter-based, stable)."""
    key = (_STAGE_IDS[stage], extra)
    return int(np.random.SeedSequence(master, spawn_key=key).generate_state(1)[0])


def neuron_count(dim: int, beta_order: float) -> int:
    """Neuron-count rule m = ceil((2/5) D^beta)."""
    return math.ceil(0.4 * dim ** beta_order)


def default_n_hessians(m: int) -> int:
    """Default Hessian-anchor budget ceil(1.25 m): >= m + 1, so sigma_{m+1} exists.

    The paper's ceil(m log D) buys little: at h = 0.01, beta = 1.5, seed 1,
    ``max_weight_err`` was 6.8e-6 against 7.4e-6 at ceil(1.5 m) for D = 40,
    4.53e-6 against 4.98e-6 for D = 80 and 4.27e-6 against 4.22e-6 for D = 100.
    At the default step h = 1e-3 it is:

        cell                      m + 1     ceil(1.25 m)   ceil(1.5 m), h = 0.01
        D=40 beta=1.5 s1          2.5e-7    8.1e-8         7.4e-6
        D=80 beta=1.5 s1          3.5e-7    4.8e-8         5.0e-6
        D=20 beta=2.0 s1          3.3e-6    2.7e-7         2.4e-5
        D=10 beta=2.0 s3          1.4e-5    1.3e-6         9.2e-5
        D=40 beta=1.5 s1 sigmoid  5.9e-6    9.5e-7         3.0e-6
        D=40 beta=1.5 s2 sigmoid  2.9e-6    8.7e-7         2.8e-6

    m + 1 would take a third fewer Hessian queries than ceil(1.5 m), but it
    leaves the sigmoid cells worse than the former default; ceil(1.25 m)
    takes a sixth fewer and is more accurate on every cell measured.
    """
    return math.ceil(1.25 * m)


@dataclasses.dataclass
class PipelineConfig:
    """Declarative description of one pipeline run."""

    dim: int
    n_neurons: int | None = None
    beta_order: float | None = None
    activation: str = "tanh"
    shift_law: object = UniformShifts(-0.5, 0.5)
    # The Hessian's central stencil errs by truncation, about h^2 g''''/12,
    # and by rounding, about eps |f| / h^2; the two balance near h = 1e-3
    # (Nocedal & Wright, Numerical Optimization, 8.1).  At 0.01 truncation
    # dominates, and the pipeline's errors fall as h^2 down to 1e-3.
    # max_weight_err at ceil(1.5 m) Hessian anchors:
    #   cell                      h = 0.01   3e-3      1e-3      3e-4
    #   D=40 beta=1.5 s1          7.40e-6    6.67e-7   7.81e-8   8.54e-8
    #   D=20 beta=2.0 s1          2.41e-5    2.17e-6   2.40e-7   2.24e-7
    #   D=10 beta=2.0 s3          9.24e-5    8.31e-6   9.15e-7   2.44e-7
    #   D=80 beta=1.5 s1          4.98e-6              4.75e-8
    #   D=40 beta=1.5 s2 sigmoid  2.76e-6              7.41e-7
    # At 3e-4 the D=40 Hessian error stops falling (eps_hat 9.6e-8 at 1e-3,
    # 1.29e-7 at 3e-4): rounding takes over.  One constant holds on every
    # cell measured, so the step is not derived per run.
    fd_step: float = 1e-3
    exact_derivatives: bool = False
    n_hessians: int | None = None
    spm: SpmConfig = dataclasses.field(default_factory=SpmConfig)
    n_eval: int = 100_000
    seed: int = 0
    out_dir: str | None = None

    def resolved_m(self) -> int:
        if self.n_neurons is not None:
            if self.n_neurons < 1:
                raise ConfigError("n_neurons must be >= 1")
            return self.n_neurons
        if self.beta_order is None:
            raise ConfigError("either n_neurons or beta_order must be given")
        try:  # D^beta is nan or overflows
            return neuron_count(self.dim, self.beta_order)
        except (ValueError, OverflowError):
            raise ConfigError(f"beta_order {self.beta_order} gives no neuron count") from None

    def validate(self):
        if self.dim < 2:
            raise ConfigError("dim must be >= 2")
        m = self.resolved_m()
        # past D(D+1)/2 - D the span holds a positive-dimensional family of rank-one matrices
        bound = half_dim(self.dim) - self.dim
        if m > bound:
            raise ConfigError(f"m = {m} exceeds D(D+1)/2 - D = {bound}: not identifiable")
        if self.n_hessians is not None and self.n_hessians < 1:
            raise ConfigError(f"n_hessians must be >= 1, got {self.n_hessians}")
        if self.n_hessians is not None and self.n_hessians < m:  # top_m_projector needs m
            raise ConfigError(f"n_hessians = {self.n_hessians} is below m = {m}")
        if self.n_hessians == m and not self.exact_derivatives:
            raise ConfigError(f"n_hessians = m leaves SPM no sigma_{m + 1}; take m + 1 = {m + 1}")
        if self.n_eval < 1:
            raise ConfigError(f"n_eval must be >= 1, got {self.n_eval}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # a bad step or shift law fails here, before the first stage runs
        if not 1e-8 <= self.fd_step <= 1.0:
            raise ConfigError(f"fd_step must lie in [1e-8, 1], got {self.fd_step}")
        self.shift_law.sample(m, make_activation(self.activation).tau_inf,
                              np.random.default_rng(0))

    def derivative_step(self) -> float | None:
        """The derivative stages' step: ``fd_step``, or None for the analytic oracle."""
        return None if self.exact_derivatives else self.fd_step

    def refine_config(self) -> RefineConfig:
        """The refine stage's settings: Gauss-Newton on ceil(m log D) inputs.

        The sample is at least ``_GN_MIN_TRAIN`` inputs and does not follow
        the Hessian budget.  Every other setting is ``RefineConfig``'s
        default: Gauss-Newton stops on its own once a step stops lowering
        the loss, and reads ``stop_loss`` only as the label of a loss below it.
        """
        n_train = max(math.ceil(self.resolved_m() * math.log(self.dim)), _GN_MIN_TRAIN)
        return RefineConfig(n_train=n_train, method="gn")


def teacher_stage(cfg: PipelineConfig, path=None):
    """Draw the planted network; write it to ``path`` when given (``generate`` runs it alone)."""
    net = sample_teacher(cfg.dim, cfg.resolved_m(), cfg.shift_law,
                         make_activation(cfg.activation), child_seed(cfg.seed, "teacher"))
    if path is not None:
        save_teacher(net, path)
    return net


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def _held(stage, name, missing=float("nan")):
    return lambda r: missing if getattr(r, stage) is None else getattr(getattr(r, stage), name)


def _queries(stage):
    return lambda r: r.stage_queries.get(stage, 0)


# (column, getter) for every column of result.csv, in order
_RESULT_TABLE = [
    ("mode", attrgetter("mode")),
    ("D", attrgetter("dim")),
    ("beta", lambda r: "" if r.beta_order is None else r.beta_order),
    ("m", attrgetter("m")),
    ("seed", attrgetter("seed")),
    ("exact_mode", lambda r: int(r.exact_mode)),
    ("fd_step", attrgetter("fd_step")),
    ("e_inf", _held("metrics", "e_inf")),
    ("max_weight_err", _held("metrics", "max_weight_err")),
    ("shift_rms", _held("metrics", "shift_rms")),
    ("sign_accuracy", attrgetter("sign_accuracy")),
    ("init_shift_rms", attrgetter("init_shift_rms")),
    ("delta_w1", _held("metrics", "delta_w1")),
    ("delta_wo", _held("metrics", "delta_wo")),
    ("delta_ws", _held("metrics", "delta_ws")),
    ("init_shift_bound", attrgetter("init_shift_bound")),
    ("eps_hat", attrgetter("eps_hat")),
    ("cond_g2", _held("init", "cond_g2")),
    ("cond_g3", _held("init", "cond_g3")),
    ("spm_processed", _held("spm", "n_processed", 0)),
    ("spm_accepted", _held("spm", "n_accepted", 0)),
    ("spm_duplicate", _held("spm", "n_duplicate", 0)),
    ("spm_rejected", _held("spm", "n_rejected", 0)),
    ("refine_steps", attrgetter("refine_steps")),
    ("refine_stop_reason", attrgetter("refine_stop_reason")),
    ("final_loss", attrgetter("final_loss")),
    ("q_hessians", _queries("hessians")),
    ("q_init", _queries("init")),
    ("q_refine", _queries("refine")),
    ("q_algorithm", attrgetter("query_algorithm")),
    ("query_ceiling_ratio", attrgetter("query_ceiling_ratio")),
    ("n_shifts_clamped", attrgetter("n_shifts_clamped")),
    ("error", attrgetter("error")),
]
RESULT_COLUMNS = [column for column, _ in _RESULT_TABLE]


@dataclasses.dataclass
class ExperimentResult:
    """Everything one run produces, minus the heavyweight artifacts.

    ``spm`` and ``init`` hold the :class:`SpmStats` and :class:`InitResult` of
    their stages, or None; a run that SPM stops holds its error's ``stats``.
    """

    mode: str
    dim: int
    beta_order: float | None
    m: int
    seed: int
    exact_mode: bool
    fd_step: float
    metrics: Metrics | None = None
    sign_accuracy: float = float("nan")
    init_shift_rms: float = float("nan")
    init_shift_bound: float = float("nan")
    eps_hat: float = float("nan")
    spm: SpmStats | None = None
    init: InitResult | None = None
    refine_steps: int = 0
    refine_stop_reason: str = ""
    final_loss: float = float("nan")
    stage_times: dict = dataclasses.field(default_factory=dict)
    stage_queries: dict = dataclasses.field(default_factory=dict)
    n_shifts_clamped: int = 0
    oracle_count: int = 0
    error: str = ""

    @property
    def query_algorithm(self) -> int:
        return sum(self.stage_queries.get(k, 0) for k in ("hessians", "init", "refine"))

    @property
    def query_ceiling_ratio(self) -> float:
        log_m = math.log(self.m) if self.m > 1 else 1.0
        return self.query_algorithm / (10.0 * self.dim * self.m ** 2 * log_m ** 2)

    def csv_row(self) -> list:
        return [getter(self) for _, getter in _RESULT_TABLE]

    def write_report(self, path):
        lines = [f"{self.mode} run: D={self.dim} m={self.m} seed={self.seed}"]
        for name, dt in self.stage_times.items():
            q = self.stage_queries.get(name, 0)
            lines.append(f"  {name:<10s} {dt:9.3f} s   {q} queries")
        lines.append(f"  algorithm queries: {self.query_algorithm} "
                     f"(ceiling ratio {self.query_ceiling_ratio:.4f})")
        lines.append(f"  oracle evaluations (test/eps-probe only): {self.oracle_count}")
        if self.spm:
            lines.append(f"  spm restarts processed/accepted/duplicate/rejected: "
                         f"{self.spm.n_processed}/{self.spm.n_accepted}/"
                         f"{self.spm.n_duplicate}/{self.spm.n_rejected}")
        if self.metrics:
            lines.append(f"  e_inf={self.metrics.e_inf:.3e} "
                         f"max_weight_err={self.metrics.max_weight_err:.3e} "
                         f"shift_rms={self.metrics.shift_rms:.3e} "
                         f"sign_accuracy={self.sign_accuracy:.3f}")
        if self.error:
            lines.append(f"  error: {self.error}")
        fileio.write_lines(path, lines)


class _StageRunner:
    """The wiring of one run, shared by every mode and stage subcommand.

    Validates the config, creates ``cfg.out_dir``, starts the result from
    the run's identity columns and takes ``net``, a loaded teacher, if any.
    Each stage is a ``with self.stage(name)`` block of one method here, which
    calls its layer functions as this module's globals, so a wrapper
    installed on ``pipeline.<name>`` sees every call.
    """

    def __init__(self, cfg: PipelineConfig, mode: str, net=None):
        cfg.validate()
        self.cfg = cfg
        self.result = ExperimentResult(
            mode=mode, dim=cfg.dim, beta_order=cfg.beta_order, m=cfg.resolved_m(),
            seed=cfg.seed, fd_step=cfg.fd_step,
            # the baseline takes no derivatives
            exact_mode=cfg.exact_derivatives and mode == "pipeline",
        )
        self.net = net
        self._out_dir = Path(cfg.out_dir) if cfg.out_dir else None
        if self._out_dir:
            self._out_dir.mkdir(parents=True, exist_ok=True)

    def artifact(self, name):
        """Path of artifact ``name`` in the output directory, if there is one."""
        return self._out_dir / name if self._out_dir else None

    @contextlib.contextmanager
    def stage(self, name):
        """Stage ``name``: times the block and counts the teacher's queries across it.

        A block that raises records both as well, sets ``error``, writes
        ``result.csv`` and ``report.txt``, as :meth:`finish` does, and
        raises :class:`StageError`.
        """
        net, result = self.net, self.result
        before = net.query_count if net is not None else 0
        t0 = time.perf_counter()
        try:
            yield
            error = None
        except Exception as exc:
            error = exc
        result.stage_times[name] = dt = time.perf_counter() - t0
        result.stage_queries[name] = q = (net.query_count if net is not None else 0) - before
        if error is not None:
            result.error = f"{name}: {error}"
            self._write()
            raise StageError(name, error, result) from error
        logger.info("stage %-10s %.3f s, %d queries", name, dt, q)

    def teacher(self):
        """The teacher stage; the queries of later stages are counted on its network."""
        with self.stage("teacher"):
            self.net = teacher_stage(self.cfg, self.artifact("teacher.net"))
        self.result.n_shifts_clamped = self.net.n_shifts_clamped
        return self.net

    def weights(self, spectrum_path, weights_path):
        """Hessians -> projector -> SPM; sets ``eps_hat`` and ``spm``, returns the directions.

        ``eps_hat`` is the first few Hessians' largest entrywise deviation from
        the analytic oracle (0 with exact derivatives).  The singular values go
        to ``spectrum_path`` and the directions to ``weights_path``, when given;
        an SPM failure keeps its restart counts and writes the directions found.
        """
        cfg, net, result = self.cfg, self.net, self.result
        with self.stage("hessians"):
            n_h = default_n_hessians(result.m) if cfg.n_hessians is None else cfg.n_hessians
            h = cfg.derivative_step()
            cols, anchors = build_hessian_matrix(net, n_h, h, child_seed(cfg.seed, "hessians"))
            eps_hat = 0.0
            if h is not None:
                for i in range(min(3, n_h)):
                    dev = unhvec(cols[:, i], cfg.dim) - net.analytic_hessian(anchors[i])
                    eps_hat = max(eps_hat, float(np.max(np.abs(dev))))
            result.eps_hat = eps_hat
        with self.stage("projector"):
            proj = top_m_projector(cols, result.m)
            if spectrum_path is not None:
                fileio.write_csv(spectrum_path, ["index", "sigma"],
                                 [[i, float(s)] for i, s in enumerate(proj.spectrum)])
        del cols  # the projector holds all that SPM reads of the Hessians
        with self.stage("spm"):
            try:
                w_hat, result.spm = collect_weights(proj, cfg.spm, child_seed(cfg.seed, "spm"))
            except IncompleteRecoveryError as exc:
                result.spm = exc.stats  # the restarts SPM classified before it gave up
                if weights_path is not None:
                    fileio.save_weights(exc.partial, weights_path)
                raise
            if weights_path is not None:
                fileio.save_weights(w_hat, weights_path)
        return w_hat  # the span is freed here, before any later stage runs

    def init(self, w_hat, path):
        """Signs and shifts, written to ``path``; sets ``init``, returns the signed student."""
        with self.stage("init"):
            res = init_signs_shifts(self.net, w_hat, self.cfg.derivative_step())
            if path is not None:
                fileio.save_init_result(res, path)
        self.result.init = res
        return StudentNetwork(w_hat * res.signs, res.tau0, self.net.act)

    def refine(self, student, path, tau_truth=None):
        """Shift refinement; sets the refine columns, returns the refine result.

        The trajectory goes to ``path`` when given.  ``tau_truth``, the true
        shifts in the student's column order, adds a ``shift_error`` column
        to it; refine itself never sees them.
        """
        cfg, result = self.cfg, self.result
        with self.stage("refine"):
            ref = refine(student, self.net, cfg.refine_config(), child_seed(cfg.seed, "refine"))
            if path is not None:
                header = ["step", "loss"]
                rows = [[int(s), float(l)] for s, l in zip(ref.record_steps, ref.losses)]
                if tau_truth is not None:
                    header.append("shift_error")
                    for row, tau in zip(rows, ref.tau_path):
                        row.append(float(np.linalg.norm(tau - tau_truth)))
                fileio.write_csv(path, header, rows)
        result.refine_steps, result.refine_stop_reason, result.final_loss = (
            ref.steps, ref.stop_reason, float(ref.losses[-1]))
        return ref

    def score(self, student) -> Metrics:
        """Held-out comparison of ``student`` against the planted network; sets ``metrics``."""
        with self.stage("score"):
            self.result.metrics = match_and_score(student, self.net, n_eval=self.cfg.n_eval,
                                                  seed=child_seed(self.cfg.seed, "score"))
        return self.result.metrics

    def finish(self) -> ExperimentResult:
        result = self.result
        if result.query_ceiling_ratio > 1.0:
            logger.warning("query budget exceeded: ratio %.3f", result.query_ceiling_ratio)
        self._write()
        return result

    def _write(self):
        if self.net is not None:
            self.result.oracle_count = self.net.oracle_count
        if self._out_dir:
            fileio.write_csv(self._out_dir / "result.csv", RESULT_COLUMNS, [self.result.csv_row()])
            self.result.write_report(self._out_dir / "report.txt")


def run_pipeline(cfg: PipelineConfig) -> ExperimentResult:
    """Execute the full recovery chain and score it against the truth.

    Stage order: sample teacher, approximate Hessians, principal subspace,
    sphere-ascent collection, sign/shift initialization, sign folding,
    Gauss-Newton shift refinement, matching and scoring.  Each stage
    writes its artifact into ``cfg.out_dir`` as it finishes.  Raises
    :class:`StageError` on failure after writing the result and report.
    """
    stages = _StageRunner(cfg, "pipeline")
    result, artifact, m = stages.result, stages.artifact, stages.result.m
    net = stages.teacher()
    w_hat = stages.weights(artifact("spectrum.csv"), artifact("weights.txt"))
    # evaluate the sign-folded initialization against the (diagnostics-only) matching
    student0 = stages.init(w_hat, artifact("init.txt"))
    perm, match_signs, werrs = match_weights(student0.weights, net.weights)
    result.sign_accuracy = float(np.mean(match_signs == 1))
    result.init_shift_rms = float(np.linalg.norm(net.shifts - student0.shifts[perm]) / math.sqrt(m))
    result.init_shift_bound = init_shift_error_bound(m, cfg.dim, result.eps_hat,
                                                     float(np.max(werrs)))
    tau_truth_student = net.shifts[np.argsort(perm)]

    ref = stages.refine(student0, artifact("trajectory.csv"), tau_truth_student)
    stages.score(ref.student)
    return stages.finish()


def run_scaling_study(grid: list[PipelineConfig], repetitions: int,
                      out_csv=None) -> list[list]:
    """Run every grid cell ``repetitions`` times and tabulate long-format rows.

    Every cell's config is checked before the first run.  A failed cell's
    row is its run's result as far as it got, with the error in the
    ``error`` column, and the study continues.  Returns the rows; also
    writes them when ``out_csv`` is given.
    """
    if not grid:
        raise ConfigError("scaling study needs a nonempty grid")
    if repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    for cfg in grid:
        cfg.validate()
    rows = []
    for cell_idx, base in enumerate(grid):
        for rep in range(repetitions):
            cfg = dataclasses.replace(
                base, seed=child_seed(base.seed, "study", extra=cell_idx * 10_000 + rep),
                out_dir=None,
            )
            try:
                res = run_pipeline(cfg)
            except StageError as exc:
                res = exc.result
                logger.warning("study cell %d rep %d failed: %s", cell_idx, rep, exc)
            rows.append(res.csv_row() + [res.stage_times.get(n, float("nan"))
                                         for n in STAGES])
    if out_csv is not None:
        fileio.write_csv(out_csv, RESULT_COLUMNS + [f"t_{n}" for n in STAGES], rows)
    return rows
