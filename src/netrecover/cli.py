"""Command-line interface.

Subcommands mirror the pipeline stages (``generate``, ``recover-weights``,
``init-shifts``, ``refine``), plus the composed runs (``pipeline``,
``baseline``, ``study``) and ``diagnose``.  The stage subcommands call the
pipeline's own stage functions, so for the same ``--seed`` they reproduce
the artifacts of ``pipeline``: ``teacher.net``, ``weights.txt``,
``init.txt`` and the loss column of ``trajectory.csv``; beside their
``--out`` file, ``recover-weights`` writes the span's ``.spectrum.csv`` and
``refine`` the refined ``.shifts.txt``.  ``pipeline`` and ``baseline`` both
write ``result.csv`` and ``report.txt`` into ``--out-dir``, also when a
stage fails.

Each subcommand takes only the flags it reads: ``study`` sets D, m and
beta per cell and keeps no run directory, ``baseline`` reads none of the
Hessian, SPM or refine settings but ``--stop-loss`` and ``--timeout-s``, and
``recover-weights`` reads D, m and the activation from its ``--net`` file.
An argument ``@FILE`` is replaced by the flags in FILE: one or more per
line, in shell quoting, with blank lines and ``#`` comments skipped; a flag
written after ``@FILE`` overrides the file.  Abbreviated flags are refused.
Exit codes: 0 success, 2 a bad flag, option file or setting (checked
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
from .activations import slope_sign_certificate
from .baseline import run_baseline_sgd
from .diagnostics import check_incoherence, estimate_alpha, kernel_floor_omega
from .exceptions import ConfigError, RecoveryError, StageError
from .pipeline import (PipelineConfig, child_seed, hessian_stage, init_stage,
                       projector_stage, refine_stage, run_pipeline,
                       run_scaling_study, spm_stage, teacher_stage)
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
    "--n-train": dict(type=int),
    "--max-steps": dict(type=int, dest="refine_max_steps"),
    "--stop-loss": dict(type=float),
    "--timeout-s": dict(type=float),
    # files, and the settings of diagnose and study
    "--net": dict(help="teacher network file"),
    "--weights": dict(help="recovered weights file"),
    "--init": dict(help="signs and shifts file"),
    "--out": dict(help="output file (refine: the trajectory CSV)"),
    "--d-list": dict(help="comma-separated input dimensions"),
    "--beta-list": dict(help="comma-separated beta orders"),
    "--reps": dict(type=int, default=1),
    "--rip-trials": dict(type=int, default=20),
    "--n-mc": dict(type=int),
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


def _teacher_and_config(args):
    """The teacher file named by ``--net`` and a config of its D and m."""
    net = fileio.load_teacher(args.net)
    cfg = build_pipeline_config(args, dim=net.dim, n_neurons=net.n_neurons)
    cfg.validate()
    return net, cfg


def _check_columns(args, net, w_hat, signs=None):
    """The weights must have the teacher's D, and the init file one sign per column."""
    if w_hat.shape[0] != net.dim:
        raise ConfigError(f"{args.weights}: weights have D={w_hat.shape[0]}, "
                          f"but the teacher {args.net} has D={net.dim}")
    if signs is not None and signs.size != w_hat.shape[1]:
        raise ConfigError(f"{args.init}: {signs.size} signs for "
                          f"{w_hat.shape[1]} weight columns in {args.weights}")


def _cmd_generate(args) -> int:
    net = teacher_stage(build_pipeline_config(args), args.out)
    print(f"wrote teacher D={net.dim} m={net.n_neurons} -> {args.out}")
    return 0


def _cmd_recover_weights(args) -> int:
    net, cfg = _teacher_and_config(args)
    cols, _ = hessian_stage(cfg, net)
    proj = projector_stage(cfg, cols, Path(args.out).with_suffix(".spectrum.csv"))
    w_hat, stats = spm_stage(cfg, proj, args.out)
    print(f"recovered {w_hat.shape[1]} directions in {stats.n_processed} restarts -> {args.out}")
    return 0


def _cmd_init_shifts(args) -> int:
    net, cfg = _teacher_and_config(args)
    w_hat = fileio.load_weights(args.weights)
    _check_columns(args, net, w_hat)
    res = init_stage(cfg, net, w_hat, args.out)
    print(f"wrote signs/shifts (cond_g2={res.cond_g2:.3g}, cond_g3={res.cond_g3:.3g}) "
          f"-> {args.out}")
    return 0


def _cmd_refine(args) -> int:
    net, cfg = _teacher_and_config(args)
    w_hat = fileio.load_weights(args.weights)
    signs, tau0, _, _ = fileio.load_init_result(args.init)
    _check_columns(args, net, w_hat, signs)
    student = StudentNetwork(w_hat * signs, tau0, net.act)
    res = refine_stage(cfg, student, net, path=args.out)
    fileio.save_shifts(res.student.shifts, Path(args.out).with_suffix(".shifts.txt"))
    print(f"refined for {res.steps} steps ({res.stop_reason}); "
          f"final loss {res.losses[-1]:.3e} -> {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = build_pipeline_config(args)
    res = run_pipeline(cfg)
    met = res.metrics
    print(f"pipeline D={res.dim} m={res.m} seed={res.seed}: "
          f"e_inf={met.e_inf:.3e} max_weight_err={met.max_weight_err:.3e} "
          f"shift_rms={met.shift_rms:.3e} sign_accuracy={res.sign_accuracy:.3f}")
    return 0


def _cmd_baseline(args) -> int:
    cfg = build_pipeline_config(args)
    res = run_baseline_sgd(cfg)
    met = res.metrics
    print(f"baseline D={res.dim} m={res.m} seed={res.seed}: "
          f"e_inf={met.e_inf:.3e} max_weight_err={met.max_weight_err:.3e} "
          f"({res.refine_stop_reason})")
    return 0

def _cmd_diagnose(args) -> int:
    net = fileio.load_teacher(args.net)
    rep = check_incoherence(net.weights, rip_trials=args.rip_trials, seed=args.seed or 0)
    n_mc = args.n_mc or max(4 * net.n_neurons, 50)
    alpha = estimate_alpha(net, n_mc, seed=child_seed(args.seed or 0, "score"))
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
        ["omega_tail_bound", omega.tail_bound],
        ["mean_slope_sign", sign],
        ["mean_slope_min_abs", min_abs],
    ]
    if args.out:
        fileio.write_csv(args.out, ["quantity", "value"], rows)
    for name, val in rows:
        print(f"{name:>22s}  {val}")
    return 0


def _cmd_study(args) -> int:
    dims = [int(v) for v in args.d_list.split(",")] if args.d_list else []
    betas = [float(v) for v in args.beta_list.split(",")] if args.beta_list else []
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
               "--seed --spm-steps --spm-restarts --n-train --max-steps --stop-loss "
               "--timeout-s")
# name, handler, help, required flags, optional flags
_SUBCOMMANDS = [
    ("generate", _cmd_generate, "sample and write a teacher network",
     "--d --m --out", "--activation --shift-law --seed"),
    ("recover-weights", _cmd_recover_weights, "Hessian PCA + sphere ascent",
     "--net --out", "--seed --fd-step --exact-derivatives --n-h --spm-steps --spm-restarts"),
    ("init-shifts", _cmd_init_shifts, "signs and initial shifts from a weight file",
     "--net --weights --out", "--fd-step --exact-derivatives"),
    ("refine", _cmd_refine, "Gauss-Newton shift refinement",
     "--net --weights --init --out", "--n-train --max-steps --timeout-s --seed"),
    ("pipeline", _cmd_pipeline, "full recovery run with scoring",
     "", "--d --m --beta --out-dir " + _CELL_FLAGS),
    ("baseline", _cmd_baseline, "joint-SGD teacher-student baseline; writes "
                                "result.csv and report.txt like pipeline",
     "", "--d --m --beta --activation --shift-law --seed --n-eval --out-dir "
         "--stop-loss --timeout-s"),
    ("diagnose", _cmd_diagnose, "incoherence / learnability report",
     "--net", "--out --rip-trials --n-mc --seed"),
    ("study", _cmd_study, "grid of pipeline runs, long-format CSV",
     "--d-list --beta-list --out", "--reps " + _CELL_FLAGS),
]


def _split_option_line(line: str) -> list[str]:
    """The flags on one line of an ``@FILE``: shell words up to a ``#``."""
    try:
        return shlex.split(line, comments=True)
    except ValueError as exc:  # an unclosed quote; argparse exits 2 on this error
        raise argparse.ArgumentError(None, f"option file line {line!r}: {exc}") from None


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netrecover",
                                     description="Recover planted shallow networks "
                                                 "from black-box queries.",
                                     fromfile_prefix_chars="@", allow_abbrev=False)
    parser.convert_arg_line_to_args = _split_option_line
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
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 3
    except RecoveryError as exc:
        print(f"recovery failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
