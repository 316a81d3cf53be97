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
stage fails.  Options can come from a config file (one section per module,
``key = value``) with every key overridable by the flag of the same name.
Exit codes: 0 success, 2 validation error (checked before the first stage
runs), 3 stage failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import logging
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
from .refine import RefineConfig
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


def _add_pipeline_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value config file with [pipeline]/[spm]/[refine] sections")
    p.add_argument("--d", type=int, dest="dim")
    p.add_argument("--m", type=int, dest="n_neurons")
    p.add_argument("--beta", type=float, dest="beta_order")
    p.add_argument("--activation", choices=["tanh", "sigmoid"])
    p.add_argument("--shift-law", dest="shift_law")
    p.add_argument("--fd-step", type=float, dest="fd_step")
    p.add_argument("--exact-derivatives", action="store_true", default=None,
                   dest="exact_derivatives")
    p.add_argument("--n-h", type=int, dest="n_hessians")
    p.add_argument("--n-eval", type=int, dest="n_eval")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    # SPM takes only its two budgets; its step size, convergence tolerance and
    # duplicate cosine are constants, and its acceptance level is derived from
    # the Hessian span's gap
    p.add_argument("--spm-steps", type=int)
    p.add_argument("--spm-restarts", type=int)
    p.add_argument("--n-train", type=int, dest="n_train")
    p.add_argument("--max-steps", type=int, dest="refine_max_steps")
    p.add_argument("--timeout-s", type=float, dest="timeout_s")


# Names that differ from the field they set: config keys by section, and
# flag destinations under section None ("spm." marks an SpmConfig field).
# A PipelineConfig field named here is read from a config file under the
# keys listed here only.
_ALIASES = {
    ("pipeline", "d"): "dim",
    ("pipeline", "dim"): "dim",
    ("pipeline", "m"): "n_neurons",
    ("pipeline", "beta"): "beta_order",
    ("pipeline", "n_h"): "n_hessians",
    ("refine", "max_steps"): "refine_max_steps",
    (None, "spm_steps"): "spm.max_steps",
    (None, "spm_restarts"): "spm.max_restarts",
}
# PipelineConfig fields that no flag or config key sets
_UNEXPOSED = ("spm", "baseline_max_epochs")


def _option_table() -> dict:
    """(config section, key) or (None, flag destination) -> (target, field).

    ``target`` names the dataclass the field belongs to, ``"pipeline"`` or
    ``"spm"``.  PipelineConfig fields that configure the refinement live in
    the ``[refine]`` section, every other one in ``[pipeline]``.
    """
    pipeline_fields = [f for f in dataclasses.fields(PipelineConfig)
                       if f.name not in _UNEXPOSED]
    spm_fields = dataclasses.fields(SpmConfig)
    by_name = {f.name: ("pipeline", f) for f in pipeline_fields}
    by_name.update({f"spm.{f.name}": ("spm", f) for f in spm_fields})
    table = {key: by_name[name] for key, name in _ALIASES.items()}
    refine_names = {f.name for f in dataclasses.fields(RefineConfig)}
    aliased = set(_ALIASES.values())
    for f in pipeline_fields:
        table[None, f.name] = ("pipeline", f)
        if f.name not in aliased:
            section = "refine" if f.name in refine_names else "pipeline"
            table[section, f.name] = ("pipeline", f)
    for f in spm_fields:
        table["spm", f.name] = ("spm", f)
    return table


_OPTIONS = _option_table()
_SECTIONS = {section for section, _ in _OPTIONS if section is not None}


def _parse_bool(raw: str) -> bool:
    """configparser's spellings: 1/yes/true/on and 0/no/false/off."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


# parser of a config-file value by the first type in the field's annotation
# (a string: both dataclasses' modules postpone annotation evaluation)
_PARSERS = {"int": int, "float": float, "bool": _parse_bool}


def build_pipeline_config(args, **fixed) -> PipelineConfig:
    """Merge defaults, config-file sections, and CLI flags (flags win).

    ``fixed`` values override all three, e.g. the dimension and the neuron
    count of a teacher file.
    """
    values: dict = {"pipeline": {}, "spm": {}}
    if getattr(args, "config", None):
        for section, entries in fileio.read_config_file(args.config).items():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in entries.items():
                if (section, key) not in _OPTIONS:
                    raise ConfigError(f"unknown [{section}] key {key!r}")
                target, field = _OPTIONS[section, key]
                parse = _PARSERS.get(field.type.split()[0], str)
                try:
                    values[target][field.name] = parse(raw)
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None
    for (section, dest), (target, field) in _OPTIONS.items():
        if section is None and getattr(args, dest, None) is not None:
            values[target][field.name] = getattr(args, dest)

    cfg_values = {**values["pipeline"], **fixed}
    if isinstance(cfg_values.get("shift_law"), str):
        cfg_values["shift_law"] = parse_shift_law(cfg_values["shift_law"])
    if "dim" not in cfg_values:
        raise ConfigError("input dimension is required (--d or config [pipeline] d)")
    if values["spm"]:
        cfg_values["spm"] = SpmConfig(**values["spm"])
    return PipelineConfig(**cfg_values)


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
    base = build_pipeline_config(args, dim=dims[0], n_neurons=None)
    grid = [dataclasses.replace(base, dim=d, beta_order=b) for d in dims for b in betas]
    rows = run_scaling_study(grid, args.reps, out_csv=args.out)
    print(f"study: {len(rows)} rows -> {args.out}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netrecover",
                                     description="Recover planted shallow networks "
                                                 "from black-box queries.")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample and write a teacher network")
    p.add_argument("--d", type=int, required=True, dest="dim")
    p.add_argument("--m", type=int, required=True, dest="n_neurons")
    p.add_argument("--activation", choices=["tanh", "sigmoid"])
    p.add_argument("--shift-law", dest="shift_law")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("recover-weights", help="Hessian PCA + sphere ascent")
    p.add_argument("--net", required=True)
    p.add_argument("--out", required=True)
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_recover_weights)

    p = sub.add_parser("init-shifts", help="signs and initial shifts from a weight file")
    p.add_argument("--net", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fd-step", type=float, dest="fd_step")
    p.add_argument("--exact-derivatives", action="store_true", dest="exact_derivatives")
    p.set_defaults(func=_cmd_init_shifts)

    p = sub.add_parser("refine", help="Gauss-Newton shift refinement")
    p.add_argument("--net", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.add_argument("--n-train", type=int, dest="n_train")
    p.add_argument("--max-steps", type=int, dest="refine_max_steps")
    p.add_argument("--timeout-s", type=float, dest="timeout_s")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("pipeline", help="full recovery run with scoring")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("baseline", help="joint-SGD teacher-student baseline; writes "
                                        "result.csv and report.txt like pipeline")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("diagnose", help="incoherence / learnability report")
    p.add_argument("--net", required=True)
    p.add_argument("--out")
    p.add_argument("--rip-trials", type=int, default=20)
    p.add_argument("--n-mc", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("study", help="grid of pipeline runs, long-format CSV")
    p.add_argument("--d-list", required=True)
    p.add_argument("--beta-list", required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_study)
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
