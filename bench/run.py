"""Benchmark command for netrecover: end-to-end and per-layer metrics.

Run one workload (the form used to compare commits):

    python3 bench/run.py --workload fd-hessian --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a traced run.  Run every
workload, untraced and traced, and write the full report as JSON:

    python3 bench/run.py --workload all --seed 1 --seconds 40

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each workload runs
in its own worker process (``worker.py``) with one BLAS thread; this
process starts it, times its set-up, watches its memory and, if it dies,
reports the last stage it entered.  Workloads and metrics are described in
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_PROBES = 2      # set-up-only launches before and again after the measured worker
DEADLINE_S = 170.0    # the whole command must end within 180 s
BLAS_THREADS = "1"    # at or below nproc; one thread keeps runs steady
# about the median time of worker.SpeedProbe's loop on the reference box (a 2-vCPU
# VM, Python 3.11), so scaled times read as wall times at that box's usual speed
REF_PROBE_S = 30e-6

END_TO_END = {
    "setup_s": "s",
    "run_s_p50": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "query_ceiling_ratio": "1",
}
PER_LAYER = {
    "numdiff.fd_hessian.calls": "count",
    "numdiff.fd_hessian.s": "s",
    "numdiff.fd_hessian.self_s": "s",
    "numdiff.fd_hessian.stencil_bytes_computed": "B",
    "teacher.eval_batch.calls": "count",
    "teacher.eval_batch.s": "s",
    "teacher.eval_batch.flops_computed": "flop",
    "teacher.eval_batch.input_bytes_computed": "B",
    "teacher.queries.hessians": "count",
    "teacher.queries.init": "count",
    "teacher.queries.refine": "count",
    "teacher.queries.score": "count",
    "subspace.build_hessian_matrix.s": "s",
    "subspace.build_hessian_matrix.self_s": "s",
    "subspace.top_m_projector.s": "s",
    "subspace.sigma_ratio": "1",
    "subspace.action_batch.calls": "count",
    "subspace.action_batch.columns": "count",
    "subspace.action_batch.s": "s",
    "spm.collect_weights.s": "s",
    "spm.collect_weights.self_s": "s",
    "spm.restarts": "count",
    "spm.duplicates": "count",
    "spm.rejected": "count",
    "spm.accept_ratio": "1",
    "spm.ascent_steps_mean": "count",
    "spm.ascent_column_steps": "count",
    "shift_init.init_signs_shifts.s": "s",
    "shift_init.queries": "count",
    "shift_init.cond_g3": "1",
    "refine.refine.s": "s",
    "refine.steps": "count",
    "refine.us_per_step": "us",
    "refine.queries": "count",
    "refine.peak_alloc_mb": "MB",
    "refine.sample_bytes_computed": "B",
    "diagnostics.match_and_score.s": "s",
    "pipeline.run_pipeline.self_s": "s",
    "fileio.s": "s",
    "max_weight_err": "1",
    "shift_rms": "1",
    "e_inf": "1",
    "failed_frac": "1",
    "trace.overhead_s": "s",
    "trace.span_violations": "count",
}


class SetupFailed(RuntimeError):
    """The worker never reached its first unit (for example, no package)."""


def _read_hwm_mb(pid: int) -> float | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        return None
    return None


def launch(spec: dict, deadline: float) -> dict:
    """Start one worker, collect its events, and record how it ended."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    out_base = ROOT / ".bench_out"
    out_base.mkdir(exist_ok=True)
    # the worker's pipeline artifacts; removed here, since a killed worker cannot
    scratch = tempfile.mkdtemp(prefix="units-", dir=out_base)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps({**spec, "scratch": scratch})],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    lines: list[tuple[float, str]] = []

    def read():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    hwm = None
    killed = False
    try:
        while proc.poll() is None:
            hwm = _read_hwm_mb(proc.pid) or hwm
            if time.perf_counter() > deadline:
                proc.kill()
                killed = True
            time.sleep(0.1)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
        shutil.rmtree(scratch, ignore_errors=True)
    out = {"status": proc.returncode, "killed_at_deadline": killed, "hwm_mb": hwm,
           "setup_s": None, "units": [], "done": None, "last_span": None}
    for t, line in lines:
        try:
            ev = json.loads(line)
        except json.JSONDecodeError:
            continue
        kind = ev.pop("ev", None)
        if kind == "ready":
            out["setup_s"] = t - t0
        elif kind == "enter":
            out["last_span"] = ev["span"]
        elif kind == "unit":
            out["units"].append(ev)
        elif kind == "done":
            out["done"] = ev
    return out


def scaled_s(unit: dict) -> float:
    """The unit's wall time had the core run at the reference speed."""
    return unit["s"] * REF_PROBE_S / unit["probe_s"]


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh worker and reduce its events to metrics."""
    deadline = time.perf_counter() + DEADLINE_S
    n_inputs = wl.inputs_per_run(seconds)
    base = {"workload": dataclasses.asdict(wl), "seed": seed}
    setup = []

    def probe_setup():
        probe = launch({**base, "mode": "setup", "inputs": 0}, deadline)
        if probe["status"] != 0 or probe["setup_s"] is None:
            raise SetupFailed(f"set-up probe exited with status {probe['status']}")
        setup.append(probe["setup_s"])

    for _ in range(SETUP_PROBES):
        probe_setup()
    # a traced run times each input traced and untraced, plus one tracemalloc pass
    run = launch({**base, "mode": "trace" if trace else "run", "inputs": n_inputs}, deadline)
    if run["setup_s"] is None:
        raise SetupFailed(f"worker exited with status {run['status']} before its first unit")
    setup.append(run["setup_s"])
    if run["done"] is not None:
        # set-up probes on both sides of the run, so one slow spell moves fewer
        for _ in range(SETUP_PROBES):
            probe_setup()

    plain = [u for u in run["units"] if not u["traced"]]
    scored = [u for u in run["units"] if "max_weight_err" in u]
    ok = [u for u in plain if u["ok"]]
    # each input's fastest repeat, scaled to the reference core speed: a shared
    # host can slow a VM by about 40% for seconds to minutes at a time
    best, passed = {}, {}
    for u in plain:
        best[u["seed"]] = min(best.get(u["seed"], math.inf), scaled_s(u))
        passed[u["seed"]] = passed.get(u["seed"], True) and u["ok"]
    attempted = len(run["units"])
    failed = sum(not u["ok"] for u in run["units"])
    crash = None
    if run["done"] is None:
        attempted += 1   # the unit the worker died in
        failed += 1
        crash = (f"workload process exited with status {run['status']}"
                 f"{' (killed at the deadline)' if run['killed_at_deadline'] else ''}"
                 f" in {run['last_span'] or 'set-up'} at {run['hwm_mb'] or 0:.0f} MB peak RSS")
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s_p50": (statistics.median(t for k, t in best.items() if passed[k])
                      if any(passed.values()) else math.nan),
        "total_s": sum(best.values()) if best else math.nan,
        "peak_rss_mb": run["done"]["peak_rss_mb"] if run["done"] else run["hwm_mb"] or math.nan,
        "query_ceiling_ratio": (statistics.fmean(u["query_ceiling_ratio"] for u in ok)
                                if ok else math.nan),
    }
    layers = dict(run["done"]["layers"]) if run["done"] else {}
    for key in ("max_weight_err", "shift_rms", "e_inf"):
        layers[key] = max((u[key] for u in scored), default=math.nan)
    layers["failed_frac"] = failed / attempted if attempted else math.nan
    return {
        "workload": wl.name, "seed": seed, "trace": trace, "inputs": len(best),
        "repeats": len(plain) / len(best) if best else 0,
        "attempted": attempted, "failed": failed, "crash": crash,
        "env": run["done"]["env"] if run["done"] else None,
        "setup_samples": setup, "units": run["units"],
        "end_to_end": metrics, "per_layer": layers,
    }


def _values(table: dict, units: dict) -> dict:
    """Metric name -> {value, unit}, dropping values that are not finite."""
    return {name: {"value": table[name], "unit": unit} for name, unit in units.items()
            if isinstance(table.get(name), (int, float)) and math.isfinite(table[name])}


def print_report(res: dict):
    wl = res["workload"]
    print(f"# {wl} seed={res['seed']} trace={int(res['trace'])} env={json.dumps(res['env'])}")
    for u in res["units"]:
        tag = ("traced+tracemalloc" if u.get("memory_pass")
               else "traced" if u["traced"] else "untraced")
        status = "ok" if u["ok"] else "FAILED " + "; ".join(u["why"])
        print(f"{wl} unit seed={u['seed']} {tag} {u['s']:.4f} s, probe"
              f" {u['probe_s'] * 1e6:.2f} us, scaled {scaled_s(u):.4f} s {status}")
    if res["crash"]:
        print(f"{wl} FAILED: {res['crash']}")
    n, k = res["inputs"], res["repeats"]
    notes = {
        "setup_s": f"median of {len(res['setup_samples'])} launches",
        "run_s_p50": (f"median over n={n} inputs of each input's fastest of {k:g} repeats,"
                      " scaled to the reference core speed; no tail percentile,"
                      " fewer than 10 inputs"),
        "total_s": (f"sum over the {n} inputs of each input's fastest of {k:g} repeats,"
                    " scaled to the reference core speed"),
        "peak_rss_mb": "ru_maxrss of the workload process, a high-water mark",
        "query_ceiling_ratio": "mean over units",
    }
    for name, unit in END_TO_END.items():
        print(f"{wl} {name} = {res['end_to_end'][name]!r} {unit} ({notes[name]})")
    if res["trace"]:
        for name, unit in PER_LAYER.items():
            print(f"{wl} {name} = {res['per_layer'].get(name, math.nan)!r} {unit}")
    else:
        for name in ("max_weight_err", "shift_rms", "e_inf", "failed_frac"):
            print(f"{wl} {name} = {res['per_layer'][name]!r} {PER_LAYER[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True, help="non-negative")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        if args.workload != "all":
            res = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
            print_report(res)
            table, units = ((res["per_layer"], PER_LAYER) if args.trace
                            else (res["end_to_end"], END_TO_END))
            print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                              "failed": res["failed"], "metrics": _values(table, units)}))
            return 0 if res["crash"] is None else 1
        results = []
        for wl in WORKLOADS.values():
            for trace in (False, True):
                res = measure(wl, args.seed, args.seconds, trace)
                print_report(res)
                results.append(res)
    except SetupFailed as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out" / f"report-{args.seed}.json"
    out.write_text(json.dumps(results, indent=1, default=str) + "\n")
    print(f"# wrote {out}")
    metrics = {}
    for res in results:
        table, units = ((res["per_layer"], PER_LAYER) if res["trace"]
                        else (res["end_to_end"], END_TO_END))
        metrics.update({f"{res['workload']}/{k}": v for k, v in _values(table, units).items()})
    print(json.dumps({"correct": all(r["failed"] == 0 for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0 if all(r["crash"] is None for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
