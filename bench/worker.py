"""The workload process of the benchmark; ``run.py`` starts and watches it.

Usage: ``python3 bench/worker.py SPEC_JSON``, where the spec gives the
workload, the seed, the input count, the mode (``setup``, ``run`` or
``trace``) and a scratch directory for pipeline artifacts.  The worker
imports ``netrecover`` from ``src/`` of its own checkout, warms up, prints
``{"ev": "ready"}``, runs its units in a closed loop and reports each one,
then prints ``{"ev": "done", ...}``.  In ``run`` mode it makes ``REPEATS``
passes over its inputs, so repeats of one input lie a pass apart.  Every line it writes to standard
output is one JSON event; stage entries are sent as ``{"ev": "enter", ...}``
so that a killed worker can be placed.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import netrecover  # noqa: E402
import tracing  # noqa: E402
from netrecover import (RefineConfig, StudentNetwork, diagnostics, exceptions,  # noqa: E402
                        make_activation, pipeline, sample_teacher)
from workloads import REPEATS, Workload, gate  # noqa: E402

# ``netrecover.refine`` is the function; the module is reached through sys.modules
refine_mod = sys.modules["netrecover.refine"]


def emit(**event):
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def blas_info() -> dict:
    """The BLAS numpy was built against, and the thread count of each loaded OpenBLAS."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {}
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_in_effect": threads}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "ru_maxrss_unit": "KiB",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def master_seeds(seed: int, name: str, n: int) -> list[int]:
    """The workload's fixed list of master seeds for benchmark seed ``seed``."""
    key = [seed, *name.encode()]
    return [int(v) for v in np.random.SeedSequence(key).generate_state(n)]


class Units:
    """Runs one unit of a workload; the timed region is the package call."""

    def __init__(self, wl: Workload, scratch: str):
        self.wl = wl
        self.scratch = scratch

    def run(self, master: int) -> dict:
        """Returns the unit record: wall time, gate outcome and scores."""
        t0 = time.perf_counter()
        try:
            rec = (self._pipeline if self.wl.kind == "pipeline" else self._refine)(master)
        except (exceptions.RecoveryError, exceptions.ConfigError) as exc:
            return {"seed": master, "ok": False, "s": time.perf_counter() - t0,
                    "why": [f"{type(exc).__name__}: {exc}"]}
        rec["why"] = gate(self.wl, **{k: rec[k] for k in (
            "sign_accuracy", "max_weight_err", "shift_rms", "e_inf", "stop_reason")})
        rec["ok"] = not rec["why"]
        return rec

    def _pipeline(self, master: int) -> dict:
        wl = self.wl
        cfg = pipeline.PipelineConfig(
            dim=wl.dim, beta_order=wl.beta_order, n_neurons=wl.n_neurons,
            seed=master, out_dir=self.scratch)
        t0 = time.perf_counter()
        res = pipeline.run_pipeline(cfg)
        dt = time.perf_counter() - t0
        met = res.metrics
        return {"seed": master, "s": dt, "sign_accuracy": res.sign_accuracy,
                "max_weight_err": met.max_weight_err, "shift_rms": met.shift_rms,
                "e_inf": met.e_inf, "stop_reason": res.refine_stop_reason,
                "query_ceiling_ratio": res.query_ceiling_ratio}

    def _refine(self, master: int) -> dict:
        """Teacher weights, perturbed shifts, the CLI ``refine`` settings."""
        wl = self.wl
        s_teacher, s_perturb, s_refine = np.random.SeedSequence(master).spawn(3)
        act = make_activation("tanh")
        net = sample_teacher(wl.dim, wl.n_neurons, pipeline.PipelineConfig(dim=wl.dim).shift_law,
                             act, int(s_teacher.generate_state(1)[0]))
        noise = np.random.default_rng(s_perturb).normal(0.0, 0.05, wl.n_neurons)
        tau0 = np.clip(net.shifts + noise, -act.tau_inf, act.tau_inf)
        student = StudentNetwork(net.weights, tau0, act)
        cfg = RefineConfig(n_train=wl.n_neurons * wl.dim ** 2, lr=1e-3, batch=64,
                           max_steps=200_000, timeout_s=180.0)
        q0 = net.query_count
        t0 = time.perf_counter()
        ref = refine_mod.refine(student, net, cfg, int(s_refine.generate_state(1)[0]))
        dt = time.perf_counter() - t0
        counted = pipeline.ExperimentResult(
            mode="refine", dim=wl.dim, beta_order=None, m=wl.n_neurons, seed=master,
            exact_mode=False, fd_step=0.0, stage_queries={"refine": net.query_count - q0})
        met = diagnostics.match_and_score(ref.student, net, seed=master)
        return {"seed": master, "s": dt, "sign_accuracy": float(np.mean(met.signs == 1)),
                "max_weight_err": met.max_weight_err, "shift_rms": met.shift_rms,
                "e_inf": met.e_inf, "stop_reason": ref.stop_reason,
                "query_ceiling_ratio": counted.query_ceiling_ratio}


PROBE_EVERY_S = 0.01


def _probe_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(500):
        acc += i
    return time.perf_counter() - t0


class SpeedProbe:
    """Times a fixed pure-Python loop every 10 ms of wall time, in this thread.

    The host can slow this core by about 40% for seconds to minutes at a
    time; the probe's median over a unit says how fast the core ran while
    the unit did, so ``run.py`` can put unit times on one scale.  The
    handler runs between bytecodes, so a long C call defers it; its cost
    is about 0.3% of the unit.
    """

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(_probe_loop()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.samples.append(_probe_loop())


def run_unit(units: Units, master: int, crumb, tracer=None, alloc=False) -> dict:
    restore = tracing.install(tracer, crumb, alloc)
    try:
        with SpeedProbe() as probe:
            rec = units.run(master)
    finally:
        restore()
    rec["probe_s"] = statistics.median(probe.samples)
    return rec


def traced_layers(units: Units, seeds: list[int], crumb) -> dict:
    """Per-layer metrics from traced units, plus the cost of tracing itself.

    Each seed runs untraced and traced, in alternating order, and the median
    paired difference is the tracing overhead.  One more pass of the first
    seed runs tracemalloc inside refine; its times are not used, because
    tracemalloc slows refine's mini-batch loop several times over.
    """
    tracer = tracing.Tracer()
    totals, overheads, violations = {}, [], 0
    for i, master in enumerate(seeds):
        pair = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.spans.clear()
            pair[traced] = run_unit(units, master, crumb, tracer if traced else None)
            emit(ev="unit", traced=traced, **pair[traced])
            if traced:
                violations += tracing.check_invariants(tracer.spans)
                for k, v in tracing.layer_totals(tracer.spans).items():
                    totals[k] = totals.get(k, 0.0) + v
        if pair[False]["ok"] and pair[True]["ok"]:
            overheads.append(pair[True]["s"] - pair[False]["s"])
    layers = tracing.layer_metrics(totals, len(seeds))
    layers["trace.span_violations"] = violations
    layers["trace.overhead_s"] = statistics.median(overheads) if overheads else math.nan

    tracer.spans.clear()
    emit(ev="unit", traced=True, memory_pass=True,
         **run_unit(units, seeds[0], crumb, tracer, alloc=True))
    peaks = [s.info["peak_alloc"] for s in tracer.spans if "peak_alloc" in s.info]
    layers["refine.peak_alloc_mb"] = statistics.fmean(peaks) / 2 ** 20 if peaks else math.nan
    return layers


def main(spec: dict) -> int:
    if Path(netrecover.__file__).resolve().parent != ROOT / "src" / "netrecover":
        print(f"netrecover imported from {netrecover.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    wl = Workload(**spec["workload"])
    # set-up: a small pipeline unit (D=10), so lazy set-up is not timed
    Units(Workload(name="warm-up", kind="pipeline", dim=10, beta_order=1.0),
          spec["scratch"]).run(1)
    env = environment()
    emit(ev="ready")
    if spec["mode"] == "setup":
        return 0
    units = Units(wl, spec["scratch"])
    seeds = master_seeds(spec["seed"], wl.name, spec["inputs"])

    def crumb(name):
        emit(ev="enter", span=name)

    if spec["mode"] == "trace":
        layers = traced_layers(units, seeds, crumb)
    else:
        layers = {}
        for _ in range(REPEATS):
            for master in seeds:
                emit(ev="unit", traced=False, **run_unit(units, master, crumb))
    emit(ev="done", env=env, peak_rss_mb=peak_rss_mb(), layers=layers)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
