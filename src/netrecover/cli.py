"""Command-line interface.

Subcommands mirror the pipeline stages (``generate``, ``recover-weights``,
``init-shifts``, ``refine``), plus the composed runs (``pipeline``,
``baseline``, ``study``) and ``diagnose``.  The stage subcommands run the
pipeline's own stages, so for the same ``--seed`` they reproduce the
artifacts of ``pipeline``: ``teacher.net``, ``weights.txt``, ``init.txt``
and the loss column of ``trajectory.csv``; beside their ``--out`` file,
``recover-weights`` writes the span's ``.spectrum.csv`` and ``refine`` the
refined ``.shifts.txt``.  All but ``generate`` run on the pipeline's stage
runner, so they log each stage's time and queries and report a failure as
``stage failure: ...``, like ``pipeline`` and ``baseline``, which both write
``result.csv`` and ``report.txt`` into ``--out-dir``, also when a stage
fails.  ``diagnose`` reports 12 quantities of a teacher file: its
incoherence constants, ``alpha_hat``, the exact kernel floor ``omega`` with
its shift, and the mean slope's sign and smallest size.

Each subcommand takes only the flags it reads: ``study`` sets D, m and
beta per cell and keeps no run directory, ``baseline`` reads none of the
Hessian or SPM settings, and ``recover-weights`` reads D, m and the
activation from its ``--net`` file.  The refinement takes no settings.
An argument ``@FILE`` is replaced by the flags in FILE: one or more per
line, in shell quoting, with blank lines and ``#`` comments skipped; a flag
written after ``@FILE`` overrides the file.  Abbreviated flags are refused.
Exit codes: 0 success, 2 a bad flag, option file, setting or input file, or
an ``--out`` in a missing directory or naming a directory (all checked
before the first stage runs), 3 stage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import shlex
import sys
from pathlib import Path

from . import fileio
from .baseline import run_baseline_sgd
from .diagnostics import (check_incoherence, estimate_alpha, kernel_floor_omega,
                          slope_sign_certificate)
from .exceptions import ConfigError, StageError
from .pipeline import (PipelineConfig, _StageRunner, child_seed, run_pipeline,
                       run_scaling_study, teacher_stage)
from .shift_init import check_unit_columns
from .spm import SpmConfig
from .teacher import FixedShifts, GaussianShifts, StudentNetwork, UniformShifts

logger = logging.getLogger("netrecover")


def parse_shift_law(text: str):
    """``uniform:a,b`` | ``gaussian:sigma`` | ``fixed:v1,v2,...``"""
    kind, _, rest = text.partition(":")
    try:
        if kind == "uniform":
            lo, hi = (float(v) for v in rest.split(","))
            return UniformShifts(lo, hi)
        if kind == "gaussian":
            return GaussianShifts(float(rest))
        if kind == "fixed":
            return FixedShifts(tuple(float(v) for v in rest.split(",")))
    except ValueError as exc:
        raise ConfigError(f"bad shift law {text!r}: {exc}") from None
    raise ConfigError(f"unknown shift law {text!r}")


# every flag, declared once; a flag whose dest (given, or derived from the
# flag) names a PipelineConfig field sets that field, and each subcommand
# takes the flags it reads (_SUBCOMMANDS)
_FLAGS = {
    "--d": dict(type=int, dest="dim"),
    "--m": dict(type=int, dest="n_neurons"),
    "--beta": dict(type=float, dest="beta_order"),
    "--activation": dict(choices=["tanh", "sigmoid"]),
    "--shift-law": dict(help="uniform:a,b | gaussian:sigma | fixed:v1,v2,..."),
    "--fd-step": dict(type=float, help="finite-difference step of the Hessians and the "
                      f"init stencils; default {PipelineConfig.fd_step:g}"),
    "--exact-derivatives": dict(action="store_true", help="Hessians and directional "
                                "derivatives from the analytic oracle (no queries); "
                                "--fd-step is then unused"),
    "--n-h": dict(type=int, dest="n_hessians",
                  help="Hessian anchors; default ceil(1.25 m), the paper's is ceil(m log D)"),
    "--n-eval": dict(type=int),
    "--seed": dict(type=int),
    "--out-dir": dict(),
    # SPM takes only its two budgets; its step size, convergence tolerance and
    # duplicate cosine are constants, and its acceptance level is derived from
    # the Hessian span's gap
    "--spm-steps": dict(type=int, help="SPM steps per restart, on the deflated span and "
                        "again in its polish; default 1000"),
    "--spm-restarts": dict(type=int, help="SPM restart budget; default ceil(5 m log m)"),
    # files, and the settings of diagnose and study
    "--net": dict(help="teacher network file"),
    "--weights": dict(help="recovered weights file"),
    "--init": dict(help="signs and shifts file"),
    "--out": dict(help="output file (refine: the trajectory CSV)"),
    "--d-list": dict(help="comma-separated input dimensions"),
    "--beta-list": dict(help="comma-separated beta orders"),
    "--reps": dict(type=int, default=1),
    "--rip-trials": dict(type=int, default=20),
    "--n-mc": dict(type=int, help="Hessians behind alpha_hat, >= m; default max(4 m, 50)"),
}
_FIELDS = {f.name for f in dataclasses.fields(PipelineConfig)}
_SPM_FLAGS = {"spm_steps": "max_steps", "spm_restarts": "max_restarts"}


def build_pipeline_config(args, **fixed) -> PipelineConfig:
    """The defaults, overridden by the parsed flags, overridden by ``fixed``.

    ``fixed`` holds values a subcommand sets itself, e.g. the dimension and
    the neuron count of a teacher file.
    """
    given = {key: v for key, v in vars(args).items() if v is not None}
    values = {key: v for key, v in given.items() if key in _FIELDS}
    spm = {field: given[dest] for dest, field in _SPM_FLAGS.items() if dest in given}
    values.update(spm=SpmConfig(**spm), **fixed)
    if "shift_law" in values:
        values["shift_law"] = parse_shift_law(values["shift_law"])
    if "dim" not in values:
        raise ConfigError("input dimension is required (--d)")
    return PipelineConfig(**values)


def _stage_runner(args) -> _StageRunner:
    """The subcommand's stage runner on the ``--net`` teacher, with a config of its D and m."""
    net = fileio.load_teacher(args.net)
    cfg = build_pipeline_config(args, dim=net.dim, n_neurons=net.n_neurons)
    return _StageRunner(cfg, args.command, net)


def _check_columns(args, net, w_hat, signs=None):
    """The weights must have the teacher's D and m, and the init file one sign per column."""
    for name, ours, theirs in zip("Dm", w_hat.shape, (net.dim, net.n_neurons)):
        if ours != theirs:
            raise ConfigError(f"{args.weights}: weights have {name}={ours}, "
                              f"but the teacher {args.net} has {name}={theirs}")
    if signs is not None and signs.size != w_hat.shape[1]:
        raise ConfigError(f"{args.init}: {signs.size} signs for "
                          f"{w_hat.shape[1]} weight columns in {args.weights}")


def _seed(args) -> int:
    """The ``--seed`` flag, 0 when not given; numpy refuses a negative seed."""
    seed = args.seed or 0
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _cmd_generate(args) -> int:
    _seed(args)
    net = teacher_stage(build_pipeline_config(args), args.out)
    print(f"wrote teacher D={net.dim} m={net.n_neurons} -> {args.out}")
    return 0


def _cmd_recover_weights(args) -> int:
    stages = _stage_runner(args)
    w_hat = stages.weights(Path(args.out).with_suffix(".spectrum.csv"), args.out)
    print(f"recovered {w_hat.shape[1]} directions in {stages.result.spm.n_processed} "
          f"restarts -> {args.out}")
    return 0


def _cmd_init_shifts(args) -> int:
    stages = _stage_runner(args)
    w_hat = fileio.load_weights(args.weights)
    _check_columns(args, stages.net, w_hat)
    check_unit_columns(w_hat)
    stages.init(w_hat, args.out)
    res = stages.result.init
    print(f"wrote signs/shifts (cond_g2={res.cond_g2:.3g}, cond_g3={res.cond_g3:.3g}) "
          f"-> {args.out}")
    return 0


def _cmd_refine(args) -> int:
    stages = _stage_runner(args)
    w_hat = fileio.load_weights(args.weights)
    signs, tau0, _, _ = fileio.load_init_result(args.init)
    _check_columns(args, stages.net, w_hat, signs)
    res = stages.refine(StudentNetwork(w_hat * signs, tau0, stages.net.act), args.out)
    fileio.save_shifts(res.student.shifts, Path(args.out).with_suffix(".shifts.txt"))
    print(f"refined for {res.steps} steps ({res.stop_reason}); "
          f"final loss {res.losses[-1]:.3e} -> {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    res = run_pipeline(build_pipeline_config(args))
    met = res.metrics
    print(f"pipeline D={res.dim} m={res.m} seed={res.seed}: "
          f"e_inf={met.e_inf:.3e} max_weight_err={met.max_weight_err:.3e} "
          f"shift_rms={met.shift_rms:.3e} sign_accuracy={res.sign_accuracy:.3f}")
    return 0


def _cmd_baseline(args) -> int:
    res = run_baseline_sgd(build_pipeline_config(args))
    print(f"baseline D={res.dim} m={res.m} seed={res.seed}: "
          f"e_inf={res.metrics.e_inf:.3e} max_weight_err={res.metrics.max_weight_err:.3e} "
          f"({res.refine_stop_reason})")
    return 0


def _cmd_diagnose(args) -> int:
    seed = _seed(args)
    net = fileio.load_teacher(args.net)
    n_mc = max(4 * net.n_neurons, 50) if args.n_mc is None else args.n_mc
    if n_mc < net.n_neurons:
        raise ConfigError(f"--n-mc must be >= m = {net.n_neurons}, got {n_mc}")
    rep = check_incoherence(net.weights, rip_trials=args.rip_trials, seed=seed)
    alpha = estimate_alpha(net, n_mc, seed=child_seed(seed, "score"))
    omega = kernel_floor_omega(net.act)
    sign, min_abs = slope_sign_certificate(net.act)
    rows = [
        ["max_sq_corr", rep.max_sq_corr],
        ["c2_hat", rep.c2_hat],
        ["gram_inv_norm_2", rep.gram_inv_norms[2]],
        ["gram_inv_norm_3", rep.gram_inv_norms[3]],
        ["gram_inv_norm_4", rep.gram_inv_norms[4]],
        ["rip_p", rep.rip_samples[0][0] if rep.rip_samples else 0],
        ["rip_worst_delta", max((d for _, d in rep.rip_samples), default=0.0)],
        ["alpha_hat", alpha],
        ["omega", omega.omega],
        ["omega_tau_argmin", omega.tau_argmin],
        ["mean_slope_sign", sign],
        ["mean_slope_min_abs", min_abs],
    ]
    if args.out:
        fileio.write_csv(args.out, ["quantity", "value"], rows)
    for name, val in rows:
        print(f"{name:>22s}  {val}")
    return 0


def _cmd_study(args) -> int:
    try:
        dims = [int(v) for v in args.d_list.split(",")] if args.d_list else []
        betas = [float(v) for v in args.beta_list.split(",")] if args.beta_list else []
    except ValueError as exc:
        raise ConfigError(f"bad --d-list or --beta-list entry: {exc}") from None
    if not dims or not betas:
        raise ConfigError("study needs --d-list and --beta-list")
    base = build_pipeline_config(args, dim=dims[0])
    grid = [dataclasses.replace(base, dim=d, beta_order=b) for d in dims for b in betas]
    rows = run_scaling_study(grid, args.reps, out_csv=args.out)
    print(f"study: {len(rows)} rows -> {args.out}")
    return 0


# the pipeline flags that study passes to every cell: all but --d, --m,
# --beta and --out-dir
_CELL_FLAGS = ("--activation --shift-law --fd-step --exact-derivatives --n-h --n-eval "
               "--seed --spm-steps --spm-restarts")
# name, handler, help, required flags, optional flags
_SUBCOMMANDS = [
    ("generate", _cmd_generate, "sample and write a teacher network",
     "--d --m --out", "--activation --shift-law --seed"),
    ("recover-weights", _cmd_recover_weights, "Hessian PCA + sphere ascent",
     "--net --out", "--seed --fd-step --exact-derivatives --n-h --spm-steps --spm-restarts"),
    ("init-shifts", _cmd_init_shifts, "signs and initial shifts from a weight file",
     "--net --weights --out", "--fd-step --exact-derivatives"),
    ("refine", _cmd_refine, "Gauss-Newton shift refinement",
     "--net --weights --init --out", "--seed"),
    ("pipeline", _cmd_pipeline, "full recovery run with scoring",
     "", "--d --m --beta --out-dir " + _CELL_FLAGS),
    ("baseline", _cmd_baseline, "joint-SGD teacher-student baseline; writes "
                                "result.csv and report.txt like pipeline",
     "", "--d --m --beta --activation --shift-law --seed --n-eval --out-dir"),
    ("diagnose", _cmd_diagnose, "incoherence / learnability report",
     "--net", "--out --rip-trials --n-mc --seed"),
    ("study", _cmd_study, "grid of pipeline runs, long-format CSV",
     "--d-list --beta-list --out", "--reps " + _CELL_FLAGS),
]


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads an ``@FILE`` as shell words, ``#`` comments skipped."""

    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        try:
            return shlex.split(arg_line, comments=True)
        except ValueError as exc:  # an unclosed quote; argparse exits 2 on this error
            raise argparse.ArgumentError(None, f"option file line {arg_line!r}: {exc}") from None


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netrecover",
                     description="Recover planted shallow networks from black-box queries.",
                     fromfile_prefix_chars="@", allow_abbrev=False)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, required, optional in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flags, is_required in ((required, True), (optional, False)):
            for flag in flags.split():
                p.add_argument(flag, required=is_required, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        out = Path(args.out) if getattr(args, "out", None) else None
        if out and not out.parent.is_dir():
            raise ConfigError(f"--out {out}: its directory does not exist")
        if out and out.is_dir():
            raise ConfigError(f"--out {out}: is a directory")
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
