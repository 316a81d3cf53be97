"""End-to-end orchestration: teacher sampling through scoring.

Each stage is a module-level function of the run's :class:`PipelineConfig`
that owns the stage's decisions (its seed, derived from the master seed with
a counter scheme so concurrency or stage reordering can never change
results; its finite-difference step; its budget defaults) and writes its
artifact when given a path.  ``_StageRunner`` holds the wiring of a
composed run, :func:`run_pipeline` or the SGD baseline: it times stages,
counts their queries, and writes ``result.csv`` and ``report.txt`` at the
end or after a failure, so a run can be post-mortemed.  The CLI stage
subcommands call the same functions.  The result CSV contains only
deterministic fields; timings go to the human-readable report.

The shifts are refined by Gauss-Newton on a small fresh sample; the paper's
gradient descent on m D^2 inputs stays available as
``RefineConfig(method="gd")``.
"""

from __future__ import annotations

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
from .exceptions import ConfigError, StageError
from .fileio import save_teacher
from .refine import RefineConfig, refine
from .shift_init import init_signs_shifts
from .spm import SpmConfig, collect_weights
from .subspace import build_hessian_matrix, half_dim, top_m_projector, unhvec
from .teacher import StudentNetwork, UniformShifts, sample_teacher

__all__ = ["PipelineConfig", "ExperimentResult", "child_seed", "neuron_count",
           "default_n_hessians", "run_pipeline", "run_scaling_study",
           "RESULT_COLUMNS", "STAGES", "teacher_stage", "hessian_stage",
           "projector_stage", "spm_stage", "init_stage", "refine_stage",
           "score_stage"]

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

# fewest inputs the refinement draws by default.  At small D the initial
# shifts are already close, and a small sample's least-squares fit can land
# farther from the truth: over D in {2, 3, 5, 6}, beta = 1.0, seeds 0-59,
# floors of 64/128/256/512/1024 ended above the initial shift error on
# 5/4/2/0/2 cells.  The two left at 1024 sit within 1.6x of it, as does
# their least-squares optimum on 16k inputs.
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
    n_train: int | None = None      # None -> see refine_config
    refine_max_steps: int = 200_000
    stop_loss: float = 1e-8
    timeout_s: float | None = 180.0
    n_eval: int = 100_000
    seed: int = 0
    out_dir: str | None = None
    baseline_max_epochs: int = 500

    def resolved_m(self) -> int:
        if self.n_neurons is not None:
            if self.n_neurons < 1:
                raise ConfigError("n_neurons must be >= 1")
            return self.n_neurons
        if self.beta_order is None:
            raise ConfigError("either n_neurons or beta_order must be given")
        return neuron_count(self.dim, self.beta_order)

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
        if self.n_hessians == m and not self.exact_derivatives:
            raise ConfigError(f"n_hessians = m leaves SPM no sigma_{m + 1}; take m + 1 = {m + 1}")
        if self.n_eval < 1:
            raise ConfigError(f"n_eval must be >= 1, got {self.n_eval}")
        # a bad step, shift law or refine setting fails here, before the first stage runs
        if not 1e-8 <= self.fd_step <= 1.0:
            raise ConfigError(f"fd_step must lie in [1e-8, 1], got {self.fd_step}")
        self.shift_law.sample(m, make_activation(self.activation).tau_inf,
                              np.random.default_rng(0))
        self.refine_config(m)

    def derivative_step(self) -> float | None:
        """The derivative stages' step: ``fd_step``, or None for the analytic oracle."""
        return None if self.exact_derivatives else self.fd_step

    def refine_config(self, m: int) -> RefineConfig:
        """The refine stage's settings: Gauss-Newton on ``n_train`` inputs.

        Without ``n_train`` it draws ceil(m log D) inputs, and at least
        ``_GN_MIN_TRAIN``; this does not follow the Hessian budget.
        """
        n_train = self.n_train
        if n_train is None:
            n_train = max(math.ceil(m * math.log(self.dim)), _GN_MIN_TRAIN)
        return RefineConfig(
            n_train=n_train,
            max_steps=self.refine_max_steps,
            stop_loss=self.stop_loss,
            timeout_s=self.timeout_s,
            method="gn",
        )


# ---------------------------------------------------------------------------
# stages; the layer functions are looked up in this module's globals at call
# time, so wrappers installed on ``pipeline.<name>`` see every call
# ---------------------------------------------------------------------------

def teacher_stage(cfg: PipelineConfig, path=None):
    """Draw the planted network; write it to ``path`` when given."""
    net = sample_teacher(cfg.dim, cfg.resolved_m(), cfg.shift_law,
                         make_activation(cfg.activation), child_seed(cfg.seed, "teacher"))
    if path is not None:
        save_teacher(net, path)
    return net


def hessian_stage(cfg: PipelineConfig, net):
    """Half-vectorized Hessian columns and the measured FD accuracy ``eps_hat``.

    ``eps_hat`` is the largest entrywise deviation from the analytic oracle
    over the first few anchors (0 with ``h=None``, which reads that oracle).
    """
    n_h = default_n_hessians(cfg.resolved_m()) if cfg.n_hessians is None else cfg.n_hessians
    h = cfg.derivative_step()
    cols, anchors = build_hessian_matrix(net, n_h, h, child_seed(cfg.seed, "hessians"))
    eps_hat = 0.0
    if h is not None:
        for i in range(min(3, n_h)):
            dev = unhvec(cols[:, i], cfg.dim) - net.analytic_hessian(anchors[i])
            eps_hat = max(eps_hat, float(np.max(np.abs(dev))))
    return cols, eps_hat


def projector_stage(cfg: PipelineConfig, cols, spectrum_path=None):
    """Top-m projector; every singular value of ``cols`` goes to ``spectrum_path`` when given."""
    proj = top_m_projector(cols, cfg.resolved_m())
    if spectrum_path is not None:
        fileio.write_csv(spectrum_path, ["index", "sigma"],
                         [[i, float(s)] for i, s in enumerate(proj.spectrum)])
    return proj


def spm_stage(cfg: PipelineConfig, proj, path=None):
    """Sphere-ascent collection; returns ``(w_hat, stats)``."""
    w_hat, stats = collect_weights(proj, cfg.resolved_m(), cfg.spm,
                                   child_seed(cfg.seed, "spm"))
    if path is not None:
        fileio.save_weights(w_hat, path)
    return w_hat, stats


def init_stage(cfg: PipelineConfig, net, w_hat, path=None):
    """Signs and initial shifts from directional derivatives at the origin."""
    res = init_signs_shifts(net, w_hat, cfg.derivative_step())
    if path is not None:
        fileio.save_init_result(res, path)
    return res


def refine_stage(cfg: PipelineConfig, student, net, tau_truth=None, path=None):
    """Shift refinement; the trajectory goes to ``path`` when given.

    ``tau_truth``, the true shifts in the student's column order, adds a
    ``shift_error`` column to it; refine itself never sees them.
    """
    ref = refine(student, net, cfg.refine_config(cfg.resolved_m()),
                 child_seed(cfg.seed, "refine"))
    if path is not None:
        header = ["step", "loss"]
        rows = [[int(s), float(l)] for s, l in zip(ref.record_steps, ref.losses)]
        if tau_truth is not None:
            header.append("shift_error")
            for row, tau in zip(rows, ref.tau_path):
                row.append(float(np.linalg.norm(tau - tau_truth)))
        fileio.write_csv(path, header, rows)
    return ref


def score_stage(cfg: PipelineConfig, student, net) -> Metrics:
    """Held-out comparison of a recovered network against the planted one."""
    return match_and_score(student, net, n_eval=cfg.n_eval,
                           seed=child_seed(cfg.seed, "score"))


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def _metric(name):
    return lambda r: getattr(r.metrics, name) if r.metrics else float("nan")


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
    ("e_inf", _metric("e_inf")),
    ("max_weight_err", _metric("max_weight_err")),
    ("shift_rms", _metric("shift_rms")),
    ("sign_accuracy", attrgetter("sign_accuracy")),
    ("init_shift_rms", attrgetter("init_shift_rms")),
    ("delta_w1", _metric("delta_w1")),
    ("delta_wo", _metric("delta_wo")),
    ("delta_ws", _metric("delta_ws")),
    ("init_shift_bound", attrgetter("init_shift_bound")),
    ("eps_hat", attrgetter("eps_hat")),
    ("cond_g2", attrgetter("cond_g2")),
    ("cond_g3", attrgetter("cond_g3")),
    ("spm_processed", attrgetter("spm_processed")),
    ("spm_accepted", attrgetter("spm_accepted")),
    ("spm_duplicate", attrgetter("spm_duplicate")),
    ("spm_rejected", attrgetter("spm_rejected")),
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
    """Everything one run produces, minus the heavyweight artifacts."""

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
    cond_g2: float = float("nan")
    cond_g3: float = float("nan")
    spm_processed: int = 0
    spm_accepted: int = 0
    spm_duplicate: int = 0
    spm_rejected: int = 0
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
    def query_ceiling(self) -> float:
        log_m = math.log(self.m) if self.m > 1 else 1.0
        return 10.0 * self.dim * self.m ** 2 * log_m ** 2

    @property
    def query_ceiling_ratio(self) -> float:
        return self.query_algorithm / self.query_ceiling

    def csv_row(self) -> list:
        return [getter(self) for _, getter in _RESULT_TABLE]

    def write_result_csv(self, path):
        fileio.write_csv(path, RESULT_COLUMNS, [self.csv_row()])

    def write_report(self, path):
        lines = [f"{self.mode} run: D={self.dim} m={self.m} seed={self.seed}"]
        for name, dt in self.stage_times.items():
            q = self.stage_queries.get(name, 0)
            lines.append(f"  {name:<10s} {dt:9.3f} s   {q} queries")
        lines.append(f"  algorithm queries: {self.query_algorithm} "
                     f"(ceiling ratio {self.query_ceiling_ratio:.4f})")
        lines.append(f"  oracle evaluations (test/eps-probe only): {self.oracle_count}")
        if self.metrics:
            lines.append(f"  e_inf={self.metrics.e_inf:.3e} "
                         f"max_weight_err={self.metrics.max_weight_err:.3e} "
                         f"shift_rms={self.metrics.shift_rms:.3e} "
                         f"sign_accuracy={self.sign_accuracy:.3f}")
        fileio.write_lines(path, lines)


class _StageRunner:
    """The wiring of one composed run, shared by every mode.

    Validates the config, creates ``cfg.out_dir`` and starts the result
    from the run's identity columns.  :meth:`run` times a stage, counts the
    teacher's queries across it and wraps its failure in :class:`StageError`
    after writing ``result.csv`` and ``report.txt``; :meth:`finish` writes
    them at the end of the run.
    """

    def __init__(self, cfg: PipelineConfig, mode: str):
        cfg.validate()
        self.cfg = cfg
        self.result = ExperimentResult(
            mode=mode, dim=cfg.dim, beta_order=cfg.beta_order, m=cfg.resolved_m(),
            seed=cfg.seed, fd_step=cfg.fd_step,
            # the baseline takes no derivatives
            exact_mode=cfg.exact_derivatives and mode == "pipeline",
        )
        self.net = None
        self._out_dir = Path(cfg.out_dir) if cfg.out_dir else None
        if self._out_dir:
            self._out_dir.mkdir(parents=True, exist_ok=True)

    def artifact(self, name):
        """Path of artifact ``name`` in the output directory, if there is one."""
        return self._out_dir / name if self._out_dir else None

    def teacher(self):
        """The teacher stage; the queries of later stages are counted on its network."""
        self.net = self.run("teacher", teacher_stage, self.cfg, self.artifact("teacher.net"))
        self.result.n_shifts_clamped = self.net.n_shifts_clamped
        return self.net

    def run(self, name, fn, *args):
        """Stage ``name``: returns ``fn(*args)``, or raises :class:`StageError`."""
        net, result = self.net, self.result
        before = net.query_count if net is not None else 0
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:
            result.stage_times[name] = time.perf_counter() - t0
            result.error = f"{name}: {exc}"
            self._write()
            raise StageError(name, exc, result) from exc
        result.stage_times[name] = dt = time.perf_counter() - t0
        result.stage_queries[name] = q = (net.query_count if net is not None else 0) - before
        logger.info("stage %-10s %.3f s, %d queries", name, dt, q)
        return out

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
            self.result.write_result_csv(self._out_dir / "result.csv")
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
    cols, result.eps_hat = stages.run("hessians", hessian_stage, cfg, net)
    proj = stages.run("projector", projector_stage, cfg, cols, artifact("spectrum.csv"))
    del cols  # the projector holds all that later stages read of the Hessians
    w_hat, stats = stages.run("spm", spm_stage, cfg, proj, artifact("weights.txt"))
    result.spm_processed, result.spm_accepted = stats.n_processed, stats.n_accepted
    result.spm_duplicate, result.spm_rejected = stats.n_duplicate, stats.n_rejected
    init_res = stages.run("init", init_stage, cfg, net, w_hat, artifact("init.txt"))
    result.cond_g2, result.cond_g3 = init_res.cond_g2, init_res.cond_g3

    # fold the recovered signs into the columns, then evaluate the
    # initialization against the (diagnostics-only) matching
    student0 = StudentNetwork(w_hat * init_res.signs, init_res.tau0, net.act)
    perm, match_signs, werrs = match_weights(student0.weights, net.weights)
    delta_max = float(np.max(werrs))
    result.sign_accuracy = float(np.mean(match_signs == 1))
    result.init_shift_rms = float(
        np.linalg.norm(net.shifts - init_res.tau0[perm]) / math.sqrt(m))
    result.init_shift_bound = init_shift_error_bound(
        m, cfg.dim, result.eps_hat, delta_max)
    tau_truth_student = np.empty(m)
    tau_truth_student[perm] = net.shifts

    ref = stages.run("refine", refine_stage, cfg, student0, net, tau_truth_student,
                     artifact("trajectory.csv"))
    result.refine_steps = ref.steps
    result.refine_stop_reason = ref.stop_reason
    result.final_loss = float(ref.losses[-1])

    result.metrics = stages.run("score", score_stage, cfg, ref.student, net)
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
