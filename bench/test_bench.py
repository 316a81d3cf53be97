"""Tests of the benchmark itself: ``python3 -m pytest bench -q``.

The smoke tests run each workload kind at D=10 through the same worker
processes as a real run, so they take about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, gate  # noqa: E402

from netrecover import (StudentNetwork, make_activation, match_and_score,  # noqa: E402
                        sample_teacher)
from netrecover.teacher import UniformShifts  # noqa: E402

SMALL = {
    "fd": Workload(name="fd-small", kind="pipeline", dim=10, beta_order=1.0, unit_s=1.0),
    "refine": Workload(name="refine-small", kind="refine", dim=10, n_neurons=4,
                       unit_s=1.0, tol_weight=1e-12, tol_shift_rms=1e-3, tol_e_inf=1e-3),
}


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("kind", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(kind, trace):
    res = run.measure(SMALL[kind], seed=3, seconds=2.0, trace=trace)
    assert res["crash"] is None
    assert res["failed"] == 0, res["units"]
    assert res["env"]["blas"]["threads_in_effect"]
    table, units = ((res["per_layer"], run.PER_LAYER) if trace
                    else (res["end_to_end"], run.END_TO_END))
    emitted = run._values(table, units)
    assert set(emitted) == set(units)
    assert all(v["unit"] == units[k] for k, v in emitted.items())
    if trace:
        assert table["trace.span_violations"] == 0
        if kind == "refine":
            assert table["numdiff.fd_hessian.calls"] == 0
            assert table["refine.steps"] > 0
        else:
            assert table["teacher.queries.score"] == 100_000
    else:
        assert all(v["value"] > 0 for v in emitted.values())


def test_gate_fails_a_student_with_permuted_shifts():
    act = make_activation("tanh")
    net = sample_teacher(10, 4, UniformShifts(-0.5, 0.5), act, seed=5)
    wl = SMALL["refine"]

    def verdict(shifts):
        met = match_and_score(StudentNetwork(net.weights, shifts, act), net, n_eval=2000)
        return gate(wl, sign_accuracy=float(np.mean(met.signs == 1)),
                    max_weight_err=met.max_weight_err, shift_rms=met.shift_rms,
                    e_inf=met.e_inf, stop_reason="stop_loss")

    assert verdict(net.shifts) == []
    reasons = verdict(np.roll(net.shifts, 1))
    assert any(r.startswith("shift_rms") for r in reasons)
    assert gate(wl, sign_accuracy=0.75, max_weight_err=0.0, shift_rms=0.0, e_inf=math.nan,
                stop_reason="timeout") != []


def test_span_invariants_and_self_time():
    tr = tracing.Tracer()
    outer = tr.enter("refine.refine")
    inner = tr.enter("teacher.eval_batch")
    inner.info = {"rows": 5, "dim": 2, "m": 3}
    tr.exit(inner)
    tr.exit(outer)
    outer.info = {"steps": 0, "n_train": 5, "dim": 2, "m": 3}
    assert tracing.check_invariants(tr.spans) == 0
    tot = tracing.layer_totals(tr.spans)
    assert tot["teacher.queries.refine"] == 5
    assert tot["refine.refine.self_s"] == pytest.approx(
        tot["refine.refine.s"] - tot["teacher.eval_batch.s"])
    inner.end = outer.end + 1.0      # child outlives its parent
    assert tracing.check_invariants(tr.spans) >= 1


def test_speed_probe_samples_the_measured_thread():
    import worker
    with worker.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
    assert len(probe.samples) >= 5 and min(probe.samples) > 0
    unit = {"s": 2.0, "probe_s": 2 * run.REF_PROBE_S}   # a core at half speed
    assert run.scaled_s(unit) == pytest.approx(1.0)


def test_killed_worker_reports_its_last_stage(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 10.0)
    wl = dataclasses.replace(WORKLOADS["fd-hessian"], unit_s=1.0)
    res = run.measure(wl, seed=1, seconds=100.0, trace=False)  # 100 units
    assert res["crash"] is not None
    assert "killed at the deadline" in res["crash"]
    assert any(f" in {name} at " in res["crash"] for name in tracing.STAGE_SPANS)
    assert res["failed"] >= 1


def test_exits_nonzero_without_a_result_when_the_package_is_absent(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "fd-hessian",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
