"""Joint-SGD teacher-student baseline, pinned at a fixed seed."""

import pytest

from netrecover import PipelineConfig, run_baseline_sgd

REL_TOL = 1e-9


@pytest.fixture(scope="module")
def result():
    # m = ceil(0.4 * 10) = 4; n_train = ceil(2.5 * 4 * 100) = 1000, batch 64
    # -> 16 steps per epoch, 80 steps in 5 epochs
    return run_baseline_sgd(PipelineConfig(dim=10, beta_order=1.0, seed=3,
                                           baseline_max_epochs=5, n_eval=2000))


def test_identity_columns(result):
    assert (result.mode, result.dim, result.m, result.seed) == ("baseline", 10, 4, 3)
    assert result.n_shifts_clamped == 0


def test_steps_and_stop_reason(result):
    assert result.refine_steps == 80
    assert result.refine_stop_reason == "max_epochs (5 epochs)"


def test_queries_are_the_training_sample(result):
    assert result.stage_queries == {"refine": 1000}
    assert result.query_algorithm == 1000


def test_final_loss_and_metrics(result):
    assert result.final_loss == pytest.approx(0.3095168079679537, rel=REL_TOL)
    met = result.metrics
    expected = {
        "e_inf": 0.7252070593495025,
        "max_weight_err": 1.3852306034762003,
        "shift_rms": 0.2215218301771066,
        "delta_w1": 6.774582277122544,
        "delta_wo": 4.442895661686514,
        "delta_ws": 1.7799225394369071,
    }
    for name, value in expected.items():
        assert getattr(met, name) == pytest.approx(value, rel=REL_TOL), name
    assert met.permutation.tolist() == [0, 1, 2, 3]
    assert met.signs.tolist() == [1, -1, 1, 1]
    assert result.sign_accuracy == 0.75
