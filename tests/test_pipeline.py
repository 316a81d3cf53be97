"""End-to-end orchestration: the fixed-seed result row and the study table."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import netrecover
from netrecover import (ConfigError, IllConditionedError, PipelineConfig, RefineConfig,
                        SpmConfig, StageError, UniformShifts, run_pipeline,
                        run_scaling_study)
from netrecover.fileio import load_weights
from netrecover.pipeline import RESULT_COLUMNS

# D=10, beta=1.5, seed=7 (m=13): the deterministic columns of result.csv at
# h = 0.01 and the paper's Hessian budget, ceil(13 log 10) = 30 anchors
# (--fd-step 0.01 --n-h 30)
EXACT_COLUMNS = {
    "mode": "pipeline", "D": "10", "beta": "1.5", "m": "13", "seed": "7",
    "exact_mode": "0", "spm_processed": "22", "spm_accepted": "13",
    "spm_duplicate": "9", "spm_rejected": "0", "refine_steps": "2",
    "refine_stop_reason": "stop_loss", "q_hessians": "3330", "q_init": "53",
    "q_refine": "512", "q_algorithm": "3895", "n_shifts_clamped": "0",
    "error": "",
}
FLOAT_COLUMNS = {
    "fd_step": 0.01,
    "e_inf": 9.189886021464789e-06,
    "max_weight_err": 1.4452989331150079e-05,
    "shift_rms": 8.26512738818976e-06,
    "sign_accuracy": 1.0,
    "init_shift_rms": 3.4878359258251654e-05,
    "delta_w1": 0.0003465769817530694,
    "delta_wo": 3.4878176702542416e-09,
    "delta_ws": 3.532127084872154e-05,
    "init_shift_bound": 0.00032069768928767413,
    "eps_hat": 2.1226598865130286e-05,
    "cond_g2": 5.757395152528569,
    "cond_g3": 3.0037260890201343,
    "final_loss": 2.1204205150775226e-10,
    "query_ceiling_ratio": 0.035031857678602826,
}
# the same run at ceil(1.5 * 13) = 20 anchors: the columns that the budget moves
COARSE_EXACT_COLUMNS = {**EXACT_COLUMNS, "q_hessians": "2220", "q_algorithm": "2785"}
COARSE_FLOAT_COLUMNS = {
    **FLOAT_COLUMNS,
    "e_inf": 8.77591582045726e-06,
    "max_weight_err": 1.505904129386483e-05,
    "shift_rms": 8.386369213555573e-06,
    "init_shift_rms": 3.595827355030386e-05,
    "delta_w1": 0.00038295850898520243,
    "delta_wo": 3.943053659740213e-09,
    "delta_ws": 3.7077655371179666e-05,
    "init_shift_bound": 0.0003309361339330309,
    "cond_g2": 5.7573563735052975,
    "cond_g3": 3.003705258964769,
    "final_loss": 2.420469250766957e-10,
    "query_ceiling_ratio": 0.025048452794585077,
}
# the same run at the defaults, h = 1e-3 and ceil(1.25 * 13) = 17 anchors:
# the columns that the step and the budget move
DEFAULT_EXACT_COLUMNS = {**COARSE_EXACT_COLUMNS, "q_hessians": "1887", "q_algorithm": "2452"}
DEFAULT_FLOAT_COLUMNS = {
    **COARSE_FLOAT_COLUMNS,
    "fd_step": 0.001,
    "e_inf": 1.057888232057171e-07,
    "max_weight_err": 2.175571809232904e-07,
    "shift_rms": 8.036903903665102e-08,
    "init_shift_rms": 3.5775954415072796e-07,
    "delta_w1": 4.4904729080900515e-06,
    "delta_wo": 5.215030003423766e-13,
    "delta_ws": 4.3514711152169604e-07,
    "init_shift_bound": 4.4412859477234645e-06,
    "eps_hat": 2.1243512268384612e-07,
    "cond_g2": 5.7573727103755825,
    "cond_g3": 3.003718682060251,
    "final_loss": 3.737760620802744e-14,
    "query_ceiling_ratio": 0.02205343132937975,
}
REL_TOL = 1e-9

STAGE_NAMES = ("teacher", "hessians", "projector", "spm", "init", "refine", "score")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="class")
def d10_run(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("d10")
    res = run_pipeline(PipelineConfig(dim=10, beta_order=1.5, seed=7, fd_step=request.cls.fd_step,
                                      n_hessians=request.cls.n_hessians, out_dir=out))
    return res, out


class TestFixedSeedRun:
    """The pinned run at the default step and Hessian budget."""

    fd_step = PipelineConfig.fd_step
    n_hessians = None
    n_columns = 17
    exact_columns = DEFAULT_EXACT_COLUMNS
    float_columns = DEFAULT_FLOAT_COLUMNS

    def test_result_csv_header(self, d10_run):
        _, out = d10_run
        assert read_csv(out / "result.csv")[0] == RESULT_COLUMNS

    def test_integer_and_string_columns_exact(self, d10_run):
        _, out = d10_run
        header, row = read_csv(out / "result.csv")
        got = dict(zip(header, row))
        assert {k: got[k] for k in self.exact_columns} == self.exact_columns

    def test_float_columns(self, d10_run):
        _, out = d10_run
        header, row = read_csv(out / "result.csv")
        got = dict(zip(header, row))
        for name, expected in self.float_columns.items():
            assert float(got[name]) == pytest.approx(expected, rel=REL_TOL), name

    def test_every_column_pinned(self):
        assert set(self.exact_columns) | set(self.float_columns) == set(RESULT_COLUMNS)

    def test_artifacts_written(self, d10_run):
        _, out = d10_run
        names = {p.name for p in out.iterdir()}
        assert names == {"teacher.net", "weights.txt", "init.txt", "trajectory.csv",
                         "spectrum.csv", "result.csv", "report.txt"}

    def test_trajectory_matches_result(self, d10_run):
        res, out = d10_run
        rows = read_csv(out / "trajectory.csv")
        assert rows[0] == ["step", "loss", "shift_error"]
        assert len(rows) == res.refine_steps + 2
        assert float(rows[-1][1]) == res.final_loss
        # one record per kept Gauss-Newton step, each lowering the loss
        assert [int(r[0]) for r in rows[1:]] == list(range(res.refine_steps + 1))
        losses = [float(r[1]) for r in rows[1:]]
        assert losses == sorted(losses, reverse=True)

    def test_spectrum_lists_every_singular_value(self, d10_run):
        # one singular value per Hessian column; the top m are the projector's
        res, out = d10_run
        rows = read_csv(out / "spectrum.csv")
        assert rows[0] == ["index", "sigma"]
        sigmas = [float(s) for _, s in rows[1:]]
        assert len(sigmas) == self.n_columns
        assert sigmas == sorted(sigmas, reverse=True)
        assert sigmas[12] / sigmas[13] > 1e4

    def test_report_lists_stages(self, d10_run):
        _, out = d10_run
        text = (out / "report.txt").read_text()
        assert text.startswith("pipeline run: D=10 m=13 seed=7\n")
        for name in STAGE_NAMES:
            assert f"  {name} " in text


class TestCoarseStepRun(TestFixedSeedRun):
    """The same run at h = 0.01 and ceil(1.5 * 13) = 20 anchors, the defaults
    before the balanced step and the ceil(1.25 m) budget, reproduces the pins
    from then, so only the defaults changed."""

    fd_step = 0.01
    n_hessians = 20
    n_columns = 20
    exact_columns = COARSE_EXACT_COLUMNS
    float_columns = COARSE_FLOAT_COLUMNS


class TestPaperBudgetRun(TestFixedSeedRun):
    """The same run at h = 0.01 and the paper's budget reproduces the pins
    from before the default budget moved."""

    fd_step = 0.01
    n_hessians = 30
    n_columns = 30
    exact_columns = EXACT_COLUMNS
    float_columns = FLOAT_COLUMNS


class TestFailedRun:
    def test_result_and_report_written(self, tmp_path, monkeypatch):
        # the projector stage fails: it reads 5 of the Hessian columns, fewer than m
        real = netrecover.pipeline.top_m_projector
        monkeypatch.setattr(netrecover.pipeline, "top_m_projector",
                            lambda cols, m: real(cols[:, :5], m))
        cfg = PipelineConfig(dim=10, n_neurons=13, out_dir=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(StageError):
                run_pipeline(cfg)
        header, row = read_csv(tmp_path / "result.csv")
        assert dict(zip(header, row))["error"] == (
            "projector: need at least m = 13 columns, got 5")
        report = (tmp_path / "report.txt").read_text()
        # the hessians stage probed eps_hat with three analytic Hessians
        assert "oracle evaluations (test/eps-probe only): 3" in report

    def test_spm_failure_keeps_its_counts(self, tmp_path):
        # D=10, beta=1.5, seed 7 (m=13): 10 restarts find 6 of the 13
        # directions; the row reports what SPM found, not the 0s of a stage
        # that never ran
        cfg = PipelineConfig(dim=10, beta_order=1.5, seed=7, spm=SpmConfig(max_restarts=10),
                             out_dir=tmp_path)
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        stats = err.value.__cause__.stats
        header, row = read_csv(tmp_path / "result.csv")
        cell = dict(zip(header, row))
        counts = [int(cell[f"spm_{k}"])
                  for k in ("processed", "accepted", "duplicate", "rejected")]
        assert counts == [10, 6, 4, 0]
        assert counts == [stats.n_processed, stats.n_accepted, stats.n_duplicate,
                          stats.n_rejected]
        assert cell["error"].startswith("spm: found 6 of 13 directions")
        assert err.value.result.spm is stats
        # the directions SPM found are written, and the report says why the run stopped
        partial = err.value.__cause__.partial
        assert partial.shape == (10, 6)
        assert (tmp_path / "weights.txt").read_text().startswith("10 6\n")
        w = load_weights(tmp_path / "weights.txt")
        assert w.shape == partial.shape and np.array_equal(w, partial)
        report = (tmp_path / "report.txt").read_text()
        assert "  spm restarts processed/accepted/duplicate/rejected: 10/6/4/0\n" in report
        assert f"  error: {cell['error']}\n" in report

    def test_spm_failure_without_directions(self, tmp_path):
        # one step per restart converges nowhere: both restarts are cut
        # unconverged and rejected, so the weights file holds its header alone
        cfg = PipelineConfig(dim=10, beta_order=1.5, seed=7,
                             spm=SpmConfig(max_steps=1, max_restarts=2), out_dir=tmp_path)
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        stats = err.value.__cause__.stats
        assert [stats.n_accepted, stats.n_duplicate, stats.n_rejected] == [0, 0, 2]
        assert (tmp_path / "weights.txt").read_text() == "10 0\n"
        assert load_weights(tmp_path / "weights.txt").shape == (10, 0)

    def test_failed_stage_counts_its_queries(self, tmp_path, monkeypatch):
        # the init stage spends its stencil of 4 m + 1 queries, then fails
        # (D=10, beta=1.5, seed 7: m=13)
        real = netrecover.pipeline.init_signs_shifts

        def spend_then_fail(net, w_hat, h):
            real(net, w_hat, h)
            raise IllConditionedError("planted failure", cond=float("inf"))

        monkeypatch.setattr(netrecover.pipeline, "init_signs_shifts", spend_then_fail)
        with pytest.raises(StageError):
            run_pipeline(PipelineConfig(dim=10, beta_order=1.5, seed=7, out_dir=tmp_path))
        header, row = read_csv(tmp_path / "result.csv")
        cell = dict(zip(header, row))
        assert int(cell["q_init"]) == 4 * 13 + 1
        assert int(cell["q_algorithm"]) == int(cell["q_hessians"]) + 4 * 13 + 1
        assert cell["error"] == "init: planted failure"
        report = (tmp_path / "report.txt").read_text()
        assert re.search(r"^  init +\d+\.\d{3} s   53 queries$", report, re.MULTILINE)

    def test_failing_stage_records_its_own_time_and_queries(self, tmp_path, monkeypatch):
        # the refine stage queries the teacher on 7 rows, then fails
        def query_then_fail(student, net, *args):
            net.eval_batch(np.zeros((7, net.dim)))
            raise RuntimeError("planted failure")

        monkeypatch.setattr(netrecover.pipeline, "refine", query_then_fail)
        with pytest.raises(StageError) as err:
            run_pipeline(PipelineConfig(dim=10, beta_order=1.5, seed=7, n_eval=2000,
                                        out_dir=tmp_path))
        result = err.value.result
        assert err.value.stage == "refine"
        assert result.stage_queries["refine"] == 7 and result.stage_times["refine"] >= 0
        assert "score" not in result.stage_times
        header, row = read_csv(tmp_path / "result.csv")
        cell = dict(zip(header, row))
        assert cell["q_refine"] == "7"
        assert cell["error"] == "refine: planted failure"
        report = (tmp_path / "report.txt").read_text()
        assert re.search(r"^  refine +\d+\.\d{3} s   7 queries$", report, re.MULTILINE)


class TestWideRegime:
    @pytest.mark.parametrize("exact", [False, True], ids=["fd", "exact"])
    def test_spurious_maxima_rejected(self, exact):
        # D=10, beta=2.0 (m=40): at a fixed level of 0.5, SPM accepted spurious
        # local maxima (1 - objective >= 3e-4 here) and the run ended with
        # max_weight_err 1.06 in both modes; the 11 rejected restarts are 10
        # that converged below the level and 1 that max_steps cut unconverged
        res = run_pipeline(PipelineConfig(dim=10, beta_order=2.0, seed=1, n_eval=2000,
                                          exact_derivatives=exact))
        assert res.spm.n_rejected == 11
        assert res.metrics.max_weight_err < 1e-3


class TestExactDerivatives:
    def test_oracle_replaces_the_derivative_queries(self, tmp_path):
        # D=10, beta=1.5, seed 7 (m=13): the Hessian and init stages read the
        # analytic oracle, ceil(1.25 m) Hessians and 2 m directional
        # derivatives, and query the teacher not once
        res = run_pipeline(PipelineConfig(dim=10, beta_order=1.5, seed=7, n_eval=2000,
                                          exact_derivatives=True, out_dir=tmp_path))
        assert {k: res.stage_queries[k] for k in ("hessians", "init", "refine")} == {
            "hessians": 0, "init": 0, "refine": 512}
        assert res.oracle_count == math.ceil(1.25 * 13) + 2 * 13 == 43
        assert res.eps_hat == 0.0
        header, row = read_csv(tmp_path / "result.csv")
        assert dict(zip(header, row))["exact_mode"] == "1"
        assert res.metrics.max_weight_err < 1e-12


class TestSpanLifetime:
    def test_span_released_once_spm_returns(self, monkeypatch):
        # the (m, D, D) stack is the largest array SPM reads; no stage after
        # it holds the projector
        pipeline, refs, alive = netrecover.pipeline, [], []
        collect, init_signs_shifts = pipeline.collect_weights, pipeline.init_signs_shifts

        def spm(proj, *args):
            refs.append(weakref.ref(proj))
            return collect(proj, *args)

        def init(*args):
            alive.append(refs[0]() is not None)
            return init_signs_shifts(*args)

        monkeypatch.setattr(pipeline, "collect_weights", spm)
        monkeypatch.setattr(pipeline, "init_signs_shifts", init)
        run_pipeline(PipelineConfig(dim=10, beta_order=1.5, seed=7, n_eval=2000))
        assert alive == [False]


class TestSigmoid:
    def test_shifts_across_the_declared_interval_recovered(self):
        # shifts up to the declared 1.3, just inside the turn of g'' at ln(2 + sqrt(3)) ~ 1.317
        # (a law past it is refused: tests/test_cli.py TestRefusedCells)
        res = run_pipeline(PipelineConfig(dim=10, beta_order=1.5, seed=1, n_eval=2000,
                                          activation="sigmoid",
                                          shift_law=UniformShifts(-1.3, 1.3)))
        assert res.sign_accuracy == 1.0
        assert res.metrics.max_weight_err < 1e-4 and res.metrics.shift_rms < 1e-4


class TestValidate:
    def test_unidentifiable_neuron_count_refused(self):
        # D(D+1)/2 - D = 45 at D=10
        PipelineConfig(dim=10, n_neurons=45).validate()
        with pytest.raises(ConfigError, match=r"m = 46 exceeds D\(D\+1\)/2 - D = 45"):
            PipelineConfig(dim=10, n_neurons=46).validate()

    def test_n_hessians_equal_to_m_refused_in_fd_mode(self):
        with pytest.raises(ConfigError, match=r"take m \+ 1 = 14"):
            PipelineConfig(dim=10, n_neurons=13, n_hessians=13).validate()
        # exact Hessians span the planted space exactly, with no gap to read
        PipelineConfig(dim=10, n_neurons=13, n_hessians=13, exact_derivatives=True).validate()
        # fewer than m can never span the planted space
        with pytest.raises(ConfigError, match="n_hessians = 5 is below m = 13"):
            PipelineConfig(dim=10, n_neurons=13, n_hessians=5).validate()

    def test_fd_step_bounds(self):
        assert PipelineConfig.fd_step == 1e-3
        for step in (1e-8, 1.0):
            PipelineConfig(dim=10, n_neurons=13, fd_step=step).validate()
        for step in (1e-9, 2.0):
            with pytest.raises(ConfigError, match=r"fd_step must lie in \[1e-8, 1\]"):
                PipelineConfig(dim=10, n_neurons=13, fd_step=step).validate()

    def test_negative_seed_refused(self):
        # numpy's seeding takes only nonnegative integers
        PipelineConfig(dim=10, n_neurons=13, seed=0).validate()
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            PipelineConfig(dim=10, n_neurons=13, seed=-1).validate()


class TestImportGraph:
    SCRIPT = textwrap.dedent("""
        import json, sys
        import netrecover, netrecover.cli
        from netrecover import PipelineConfig, run_pipeline
        errors = [run_pipeline(PipelineConfig(dim=10, beta_order=beta, seed=seed,
                                              out_dir=f"{sys.argv[1]}/{seed}")).metrics.max_weight_err
                  for beta, seed in ((1.0, 1), (1.5, 7))]
        loaded = [name for name in ("scipy.linalg", "scipy.special", "scipy.optimize")
                  if name in sys.modules]
        print(json.dumps({"errors": errors, "loaded": loaded}))
    """)

    def test_successful_runs_load_no_scipy_subpackage(self, tmp_path):
        # a fresh interpreter: this test process has scipy loaded by other tests
        src = str(Path(netrecover.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path)], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        out = json.loads(proc.stdout.splitlines()[-1])
        # the bench warm-up cell and the pinned cell both recover the network
        assert max(out["errors"]) < 1e-4
        assert out["loaded"] == []


class TestRefineConfig:
    @pytest.mark.parametrize("dim, m, n_train", [
        (30, 183, 623),     # ceil(183 log 30)
        (10, 13, 512),      # ceil(13 log 10) = 30, raised to the floor
        (2, 1, 512),
        # ceil(m log D), not the Hessian budget ceil(1.25 m) (128 and 359)
        (40, 102, 512),
        (80, 287, 1258),
    ])
    def test_default_sample_size(self, dim, m, n_train):
        # every other setting is RefineConfig's default: the 1e-8 stop_loss
        # label and the 180 s clock
        rc = PipelineConfig(dim=dim, n_neurons=m).refine_config()
        assert rc == RefineConfig(n_train=n_train, method="gn")


class TestScalingStudy:
    def test_header_rows_and_failed_cell(self, tmp_path, monkeypatch):
        # every cell reads 5 Hessians, which validate cannot see; the second
        # has more neurons than that, so its projector stage fails
        monkeypatch.setattr(netrecover.pipeline, "default_n_hessians", lambda m: 5)
        grid = [PipelineConfig(dim=6, beta_order=1.0, n_eval=2000),
                PipelineConfig(dim=10, n_neurons=13, n_eval=2000)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = run_scaling_study(grid, 1, out_csv=tmp_path / "study.csv")
        header = RESULT_COLUMNS + [f"t_{n}" for n in STAGE_NAMES]
        lines = (tmp_path / "study.csv").read_text().splitlines()
        assert lines[0] == ",".join(header)
        assert len(rows) == 2 and len(lines) == 3
        assert all(len(r) == len(header) for r in rows)
        ok, failed = (dict(zip(header, r)) for r in rows)
        assert ok["error"] == "" and ok["m"] == 3
        assert all(not math.isnan(ok[f"t_{n}"]) for n in STAGE_NAMES)
        assert failed["error"] == "projector: need at least m = 13 columns, got 5"
        assert failed["m"] == 13
        # the stages up to the failed one keep their times and query counts
        assert all(not math.isnan(failed[f"t_{n}"])
                   for n in ("teacher", "hessians", "projector"))
        assert all(math.isnan(failed[f"t_{n}"])
                   for n in ("spm", "init", "refine", "score"))
        assert failed["q_hessians"] == 5 * (10 * 10 + 10 + 1)

    def test_failed_cell_reads_back(self, tmp_path, monkeypatch):
        # the error message holds a comma; the cell is quoted, so csv.reader
        # gives every row the header's length
        monkeypatch.setattr(netrecover.pipeline, "default_n_hessians", lambda m: 5)
        grid = [PipelineConfig(dim=10, n_neurons=13, n_eval=2000)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_scaling_study(grid, 1, out_csv=tmp_path / "study.csv")
        header, *rows = read_csv(tmp_path / "study.csv")
        assert header == RESULT_COLUMNS + [f"t_{n}" for n in STAGE_NAMES]
        assert len(rows) == 1 and all(len(r) == len(header) for r in rows)
        failed = dict(zip(header, rows[0]))
        assert failed["error"] == "projector: need at least m = 13 columns, got 5"
        assert failed["m"] == "13" and failed["t_score"] == "nan"

    def test_rejects_empty_grid_and_zero_repetitions(self):
        with pytest.raises(ConfigError):
            run_scaling_study([], 1)
        with pytest.raises(ConfigError):
            run_scaling_study([PipelineConfig(dim=6, beta_order=1.0)], 0)
