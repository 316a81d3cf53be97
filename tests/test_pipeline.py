"""End-to-end orchestration: the fixed-seed result row and the study table."""

import csv
import math
import warnings

import pytest

from netrecover import ConfigError, PipelineConfig, run_pipeline, run_scaling_study
from netrecover.pipeline import RESULT_COLUMNS

# D=10, beta=1.5, seed=7 (m=13): the deterministic columns of result.csv
EXACT_COLUMNS = {
    "mode": "pipeline", "D": "10", "beta": "1.5", "m": "13", "seed": "7",
    "exact_mode": "0", "spm_processed": "51", "spm_accepted": "13",
    "spm_duplicate": "38", "spm_rejected": "0", "refine_steps": "2",
    "refine_stop_reason": "stop_loss", "q_hessians": "6030", "q_init": "91",
    "q_refine": "512", "q_algorithm": "6633", "n_shifts_clamped": "0",
    "error": "",
}
FLOAT_COLUMNS = {
    "fd_step": 0.01,
    "e_inf": 3.516908889069124e-06,
    "max_weight_err": 5.242584334600244e-06,
    "shift_rms": 3.5800351995321704e-06,
    "sign_accuracy": 1.0,
    "init_shift_rms": 3.530067866946785e-05,
    "delta_w1": 0.00014851564922162294,
    "delta_wo": 5.260940546495993e-10,
    "delta_ws": 1.5604442307865262e-05,
    "init_shift_bound": 0.00016579959329944771,
    "eps_hat": 2.142060218168762e-05,
    "cond_g2": 5.75736302725681,
    "cond_g3": 3.0037150616747037,
    "final_loss": 4.737295108138665e-11,
    "query_ceiling_ratio": 0.05965758972584661,
}
REL_TOL = 1e-9

STAGE_NAMES = ("teacher", "hessians", "projector", "spm", "init", "refine", "score")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def d10_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("d10")
    res = run_pipeline(PipelineConfig(dim=10, beta_order=1.5, seed=7, out_dir=out,
                                      dump_spectrum=True))
    return res, out


class TestFixedSeedRun:
    def test_result_csv_header(self, d10_run):
        _, out = d10_run
        assert read_csv(out / "result.csv")[0] == RESULT_COLUMNS

    def test_integer_and_string_columns_exact(self, d10_run):
        _, out = d10_run
        header, row = read_csv(out / "result.csv")
        got = dict(zip(header, row))
        assert {k: got[k] for k in EXACT_COLUMNS} == EXACT_COLUMNS

    def test_float_columns(self, d10_run):
        _, out = d10_run
        header, row = read_csv(out / "result.csv")
        got = dict(zip(header, row))
        for name, expected in FLOAT_COLUMNS.items():
            assert float(got[name]) == pytest.approx(expected, rel=REL_TOL), name

    def test_every_column_pinned(self):
        assert set(EXACT_COLUMNS) | set(FLOAT_COLUMNS) == set(RESULT_COLUMNS)

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
        # n_h = ceil(log(10) * 13) = 30 columns; the top m are the projector's
        res, out = d10_run
        rows = read_csv(out / "spectrum.csv")
        assert rows[0] == ["index", "sigma"]
        sigmas = [float(s) for _, s in rows[1:]]
        assert len(sigmas) == 30
        assert sigmas == sorted(sigmas, reverse=True)
        assert sigmas[12] / sigmas[13] > 1e4

    def test_report_lists_stages(self, d10_run):
        _, out = d10_run
        text = (out / "report.txt").read_text()
        assert text.startswith("pipeline run: D=10 m=13 seed=7\n")
        for name in STAGE_NAMES:
            assert f"  {name} " in text


class TestRefineConfig:
    @pytest.mark.parametrize("dim, m, n_train", [
        (30, 183, 623),     # ceil(183 log 30)
        (10, 13, 512),      # ceil(13 log 10) = 30, raised to the floor
        (2, 1, 512),
    ])
    def test_default_sample_size(self, dim, m, n_train):
        rc = PipelineConfig(dim=dim, n_neurons=m).refine_config(m)
        assert (rc.n_train, rc.method) == (n_train, "gn")

    def test_explicit_sample_size_wins(self):
        cfg = PipelineConfig(dim=40, n_neurons=102, n_train=1000)
        assert cfg.refine_config(102).n_train == 1000

    def test_bad_setting_rejected_before_any_stage(self):
        cfg = PipelineConfig(dim=6, beta_order=1.0, n_train=0)
        with pytest.raises(ConfigError, match="n_train must be >= 1"):
            cfg.validate()
        with pytest.raises(ConfigError, match="n_train must be >= 1"):
            run_pipeline(cfg)


class TestScalingStudy:
    def test_header_rows_and_failed_cell(self, tmp_path):
        grid = [PipelineConfig(dim=6, beta_order=1.0, n_eval=2000),
                # fewer Hessians than neurons: the projector stage fails
                PipelineConfig(dim=10, n_neurons=13, n_hessians=5, n_eval=2000)]
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
        assert failed["error"] == ("stage 'projector' failed: "
                                   "need at least m = 13 columns, got 5")
        assert failed["m"] == 13
        assert all(math.isnan(failed[f"t_{n}"]) for n in STAGE_NAMES)

    def test_failed_cell_reads_back(self, tmp_path):
        # the error message holds a comma; the cell is quoted, so csv.reader
        # gives every row the header's length
        grid = [PipelineConfig(dim=10, n_neurons=13, n_hessians=5, n_eval=2000)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_scaling_study(grid, 1, out_csv=tmp_path / "study.csv")
        header, *rows = read_csv(tmp_path / "study.csv")
        assert header == RESULT_COLUMNS + [f"t_{n}" for n in STAGE_NAMES]
        assert len(rows) == 1 and all(len(r) == len(header) for r in rows)
        failed = dict(zip(header, rows[0]))
        assert failed["error"] == ("stage 'projector' failed: "
                                   "need at least m = 13 columns, got 5")
        assert failed["m"] == "13" and failed["t_score"] == "nan"

    def test_rejects_empty_grid_and_zero_repetitions(self):
        with pytest.raises(ConfigError):
            run_scaling_study([], 1)
        with pytest.raises(ConfigError):
            run_scaling_study([PipelineConfig(dim=6, beta_order=1.0)], 0)
