"""Joint-SGD teacher-student baseline, pinned at a fixed seed, and run in full."""

import csv
import math

import pytest
# scoring an unconverged student imports scipy.optimize; import it here, so
# that the traced baseline run below does not count its modules
import scipy.optimize  # noqa: F401

from netrecover import PipelineConfig, StageError, baseline, cli, pipeline, run_baseline_sgd
from netrecover.pipeline import RESULT_COLUMNS
from netrecover.teacher import BLOCK_BYTES
from conftest import traced_peak

REL_TOL = 1e-9


@pytest.fixture(scope="module")
def result():
    # m = ceil(0.4 * 10) = 4; n_train = ceil(2.5 * 4 * 100) = 1000, batch 64
    # -> 16 steps per epoch, 80 steps in 5 epochs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baseline, "_MAX_EPOCHS", 5)
        return run_baseline_sgd(PipelineConfig(dim=10, beta_order=1.0, seed=3, n_eval=2000))


def test_identity_columns(result):
    assert (result.mode, result.dim, result.m, result.seed) == ("baseline", 10, 4, 3)
    assert result.n_shifts_clamped == 0


def test_steps_and_stop_reason(result):
    assert result.refine_steps == 80
    assert result.refine_stop_reason == "max_epochs (5 epochs)"


def test_queries_are_the_training_sample(result):
    # scoring queries n_eval held-out inputs; they are not algorithm queries
    assert result.stage_queries == {"teacher": 0, "refine": 1000, "score": 2000}
    assert result.query_algorithm == 1000


def test_final_loss_and_metrics(result):
    assert result.final_loss == pytest.approx(0.30926737076504834, rel=REL_TOL)
    met = result.metrics
    expected = {
        "e_inf": 0.7253962884461107,
        "max_weight_err": 1.3850164408771768,
        "shift_rms": 0.2214877254385524,
        "delta_w1": 6.773004562705489,
        "delta_wo": 4.446422508220388,
        "delta_ws": 1.7788722817667642,
    }
    for name, value in expected.items():
        assert getattr(met, name) == pytest.approx(value, rel=REL_TOL), name
    assert met.signs.tolist() == [1, -1, 1, 1]
    assert result.sign_accuracy == 0.75


# D=6, beta=1.0: m = 3, 270 training inputs, 500 epochs of 5 steps
CLI_RUN = ["baseline", "--d", "6", "--beta", "1.0", "--seed", "3", "--n-eval", "2000"]


def read_result(out):
    with open(out / "result.csv", newline="") as fh:
        header, row = csv.reader(fh)
    return header, dict(zip(header, row))


def test_cli_run_writes_result_and_report(tmp_path):
    out = tmp_path / "run"
    assert cli.main([*CLI_RUN, "--out-dir", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert report.startswith("baseline run: D=6 m=3 seed=3\n")
    for name in ("teacher", "refine", "score"):
        assert f"  {name} " in report
    header, cell = read_result(out)
    assert header == RESULT_COLUMNS
    assert (cell["mode"], cell["m"], cell["error"]) == ("baseline", "3", "")
    assert cell["q_refine"] == str(math.ceil(2.5 * 3 * 6 ** 2))


def test_failed_stage_is_a_stage_error_with_its_result(tmp_path, monkeypatch):
    def broken_score(*args, **kwargs):
        raise RuntimeError("scoring broke")

    monkeypatch.setattr(pipeline, "match_and_score", broken_score)
    with pytest.MonkeyPatch.context() as mp, pytest.raises(StageError) as err:
        mp.setattr(baseline, "_MAX_EPOCHS", 1)
        run_baseline_sgd(PipelineConfig(dim=6, beta_order=1.0, seed=3))
    assert err.value.stage == "score"
    assert err.value.result.error == "score: scoring broke"
    assert err.value.result.stage_queries["refine"] == math.ceil(2.5 * 3 * 6 ** 2)

    out = tmp_path / "run"
    assert cli.main([*CLI_RUN, "--out-dir", str(out)]) == 3
    assert read_result(out)[1]["error"] == "score: scoring broke"


def test_epoch_holds_the_training_set_and_row_blocks(monkeypatch):
    # D=20, beta=1.5: m = 36, n_train = ceil(2.5 * 36 * 20^2) = 36,000
    dim, n = 20, 36_000
    monkeypatch.setattr(baseline, "_MAX_EPOCHS", 1)
    cfg = PipelineConfig(dim=dim, beta_order=1.5, seed=1, n_eval=2000)
    result, peak = traced_peak(run_baseline_sgd, cfg)
    assert (result.m, result.stage_queries["refine"]) == (36, n)
    # xs and ys, the epoch loss's n-vectors (prediction, residual, its square)
    # and a few blocks; two n x m arrays (10.4 MB each) would break this
    assert peak < n * (dim + 4) * 8 + 4 * BLOCK_BYTES
