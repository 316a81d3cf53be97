"""Command-line interface, driven through ``cli.main``."""

import csv

import pytest

from netrecover import GaussianShifts, PipelineConfig, SpmConfig, cli


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def config_from(argv):
    return cli.build_pipeline_config(cli.make_parser().parse_args(argv))


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The stage subcommands run one after another, and ``pipeline`` beside them."""
    d = tmp_path_factory.mktemp("chain")
    net, w, init, traj = (str(d / n) for n in
                          ("teacher.net", "weights.txt", "init.txt", "traj.csv"))
    assert cli.main(["generate", "--d", "10", "--m", "13", "--seed", "7", "--out", net]) == 0
    assert cli.main(["recover-weights", "--net", net, "--out", w, "--seed", "7"]) == 0
    assert cli.main(["init-shifts", "--net", net, "--weights", w, "--out", init]) == 0
    assert cli.main(["refine", "--net", net, "--weights", w, "--init", init,
                     "--out", traj, "--seed", "7"]) == 0
    assert cli.main(["pipeline", "--d", "10", "--beta", "1.5", "--seed", "7",
                     "--out-dir", str(d / "pipeline")]) == 0
    return d


class TestStageChain:
    @pytest.mark.parametrize("name", ["teacher.net", "weights.txt", "init.txt"])
    def test_artifacts_match_pipeline(self, chain, name):
        assert (chain / name).read_bytes() == (chain / "pipeline" / name).read_bytes()

    def test_spectrum_matches_pipeline(self, chain):
        assert ((chain / "weights.spectrum.csv").read_bytes()
                == (chain / "pipeline" / "spectrum.csv").read_bytes())

    def test_trajectory_loss_matches_pipeline(self, chain):
        ours = read_csv(chain / "traj.csv")
        theirs = read_csv(chain / "pipeline" / "trajectory.csv")
        assert ours[0] == ["step", "loss"]
        assert [r[:2] for r in ours] == [r[:2] for r in theirs]

    def test_refined_shifts_written(self, chain):
        shifts = (chain / "traj.shifts.txt").read_text().split()
        assert len(shifts) == 13

    def test_diagnose_writes_every_quantity(self, chain, tmp_path):
        out = tmp_path / "diag.csv"
        assert cli.main(["diagnose", "--net", str(chain / "teacher.net"),
                         "--out", str(out), "--seed", "1"]) == 0
        rows = read_csv(out)
        assert rows[0] == ["quantity", "value"]
        assert len(rows) == 14
        assert rows[1][0] == "max_sq_corr" and rows[-1][0] == "mean_slope_min_abs"


class TestInputsAcrossFiles:
    """Stage inputs that do not fit each other exit 2 with a message."""

    @pytest.fixture
    def teacher(self, tmp_path):
        path = tmp_path / "teacher.net"
        assert cli.main(["generate", "--d", "5", "--m", "3", "--seed", "1",
                         "--out", str(path)]) == 0
        return str(path)

    def test_weights_dimension_differs_from_teacher(self, teacher, tmp_path, capsys):
        w = tmp_path / "w.txt"
        w.write_text("6 3\n" + "".join(" ".join("1" if i == k else "0" for i in range(6))
                                        + "\n" for k in range(3)))
        assert cli.main(["init-shifts", "--net", teacher, "--weights", str(w),
                         "--out", str(tmp_path / "init.txt")]) == 2
        assert "weights have D=6, but the teacher" in capsys.readouterr().err

    def test_init_signs_differ_from_weight_columns(self, teacher, tmp_path, capsys):
        w, init = tmp_path / "w.txt", tmp_path / "init.txt"
        w.write_text("5 3\n1 0 0 0 0\n0 1 0 0 0\n0 0 1 0 0\n")
        init.write_text("signs 1 -1\nshifts 0.1 0.2\ncond_g2 1.0\ncond_g3 1.0\n")
        assert cli.main(["refine", "--net", teacher, "--weights", str(w), "--init",
                         str(init), "--out", str(tmp_path / "traj.csv")]) == 2
        assert "2 signs for 3 weight columns" in capsys.readouterr().err


# every config key the command line accepts, with the flag that sets the same value
CONFIG_TEXT = """\
[pipeline]
d = 12
m = 5
beta = 1.25
activation = sigmoid
shift_law = gaussian:0.1
fd_step = 0.02
exact_derivatives = yes
n_h = 40
n_eval = 500
seed = 9
out_dir = somewhere

[spm]
max_steps = 77
max_restarts = 31

[refine]
n_train = 1234
max_steps = 99
stop_loss = 1e-9
timeout_s = 12.5
"""
FLAGS = ["--d", "12", "--m", "5", "--beta", "1.25", "--activation", "sigmoid",
         "--shift-law", "gaussian:0.1", "--fd-step", "0.02", "--exact-derivatives",
         "--n-h", "40", "--n-eval", "500", "--seed", "9", "--out-dir", "somewhere",
         "--spm-steps", "77", "--spm-restarts", "31", "--n-train", "1234",
         "--max-steps", "99", "--timeout-s", "12.5"]
EXPECTED = PipelineConfig(
    dim=12, n_neurons=5, beta_order=1.25, activation="sigmoid",
    shift_law=GaussianShifts(0.1), fd_step=0.02, exact_derivatives=True,
    n_hessians=40, n_eval=500, seed=9, out_dir="somewhere",
    spm=SpmConfig(max_steps=77, max_restarts=31),
    n_train=1234, refine_max_steps=99, stop_loss=1e-9, timeout_s=12.5,
)


class TestConfig:
    def test_every_config_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT)
        assert config_from(["pipeline", "--config", str(path)]) == EXPECTED

    def test_flags_build_the_same_config(self, tmp_path):
        # stop_loss has no flag
        path = tmp_path / "rest.cfg"
        path.write_text("[refine]\nstop_loss = 1e-9\n")
        assert config_from(["pipeline", "--config", str(path), *FLAGS]) == EXPECTED

    def test_dim_key_and_flag_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[pipeline]\ndim = 8\nbeta = 1.0\nseed = 4\n[refine]\nn_train = 500\n")
        cfg = config_from(["pipeline", "--config", str(path), "--seed", "5"])
        assert (cfg.dim, cfg.beta_order, cfg.seed, cfg.n_train) == (8, 1.0, 5, 500)

    def test_defaults_without_config(self):
        assert config_from(["pipeline", "--d", "10"]) == PipelineConfig(dim=10)

    @pytest.mark.parametrize("text", [
        "[pipeline]\nd = 10\nbogus = 1\n",
        "[spm]\nlr = 0.1\n",
        # SPM's acceptance level is derived from the Hessian span, not set
        "[pipeline]\nd = 10\n[spm]\nbeta = 0.5\n",
        # nor are SPM's step size, tolerance and duplicate cosine, or the spectrum switch
        "[pipeline]\nd = 10\n[spm]\ngamma = 2.0\n",
        "[pipeline]\nd = 10\n[spm]\nconv_tol = 1e-12\n",
        "[pipeline]\nd = 10\n[spm]\ndedup_cos = 0.99\n",
        "[pipeline]\nd = 10\ndump_spectrum = true\n",
        "[refine]\ngamma = 2\n",
        "[refine]\nmethod = newton\n",
        "[refine]\nbatch = 16\n",
        "[pipeline]\nd = 10\nn_hessians = 20\n",
        "[pipeline]\nd = 10\n[extra]\nx = 1\n",
    ])
    def test_unknown_key_or_section_exits_2(self, tmp_path, text, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["pipeline", "--config", str(path)]) == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[pipeline]\nd = ten\n", "[pipeline] d = 'ten'"),
        ("d = 10\n", "File contains no section headers"),
        ("[pipeline]\nd = 10\nexact_derivatives = maybe\n",
         "[pipeline] exact_derivatives = 'maybe'"),
        ("[pipeline]\nd = 10\nbeta = 1.0\n[refine]\nn_train = 0\n",
         "n_train must be >= 1"),
    ], ids=["unparsable-value", "no-section-header", "not-a-boolean",
            "bad-refine-setting"])
    def test_malformed_config_exits_2(self, tmp_path, text, message, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["pipeline", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_missing_dimension_exits_2(self, capsys):
        assert cli.main(["pipeline", "--beta", "1.0"]) == 2
        assert "input dimension is required" in capsys.readouterr().err

    def test_spm_beta_flag_is_gone(self, capsys):
        for argv in (["--spm-beta", "0.5"], ["--spm-gamma", "2.0"], ["--dump-spectrum"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["pipeline", "--d", "10", *argv])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err


class TestRefusedCells:
    """Cells with no right answer, no gap to read the level from, or a bad setting exit 2
    before any stage."""

    @pytest.mark.parametrize("argv, message", [
        (["--d", "8", "--beta", "2.2"], "m = 39 exceeds D(D+1)/2 - D = 28"),
        (["--d", "10", "--beta", "2.1"], "m = 51 exceeds D(D+1)/2 - D = 45"),
        (["--d", "10", "--m", "13", "--n-h", "13"], "take m + 1 = 14"),
        (["--d", "10", "--beta", "1.5", "--fd-step", "2"], "step_h must lie in [1e-8, 1]"),
        (["--d", "10", "--beta", "1.5", "--n-eval", "0"], "n_eval must be >= 1"),
        (["--d", "10", "--beta", "1.5", "--shift-law", "uniform:-1,1"],
         "uniform shift range [-1.0, 1.0] exceeds [-0.6, 0.6]"),
        # past the sigmoid's ln(2 + sqrt(3)) ~ 1.317 the signs and shifts are not identifiable
        (["--d", "10", "--beta", "1.5", "--activation", "sigmoid",
          "--shift-law", "uniform:-1.5,1.5"],
         "uniform shift range [-1.5, 1.5] exceeds [-1.3, 1.3]"),
    ], ids=["D8-b2.2", "D10-b2.1", "n_h-equals-m", "fd-step", "n-eval", "shift-law",
            "sigmoid-shift-law"])
    def test_pipeline(self, tmp_path, argv, message, capsys):
        out = tmp_path / "run"
        assert cli.main(["pipeline", *argv, "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("d, m, message", [
        (8, 39, "m = 39 exceeds D(D+1)/2 - D = 28"),
        (10, 51, "m = 51 exceeds D(D+1)/2 - D = 45"),
    ])
    def test_recover_weights(self, tmp_path, d, m, message, capsys):
        net = str(tmp_path / "teacher.net")
        assert cli.main(["generate", "--d", str(d), "--m", str(m), "--out", net]) == 0
        out = tmp_path / "weights.txt"
        assert cli.main(["recover-weights", "--net", net, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestStudy:
    def test_flags_reach_every_cell(self, tmp_path):
        out = tmp_path / "study.csv"
        assert cli.main(["study", "--d-list", "6", "--beta-list", "1.0",
                         "--fd-step", "0.05", "--n-eval", "500", "--max-steps", "500",
                         "--out", str(out)]) == 0
        header, row = read_csv(out)
        cell = dict(zip(header, row))
        assert cell["fd_step"] == "0.05"
        assert int(cell["refine_steps"]) <= 500

    def test_config_without_dimension(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("[pipeline]\nfd_step = 0.05\nn_eval = 500\n"
                        "[refine]\nmax_steps = 500\n")
        out = tmp_path / "study.csv"
        assert cli.main(["study", "--d-list", "6,8", "--beta-list", "1.0",
                         "--config", str(path), "--out", str(out)]) == 0
        header, *rows = read_csv(out)
        cells = [dict(zip(header, r)) for r in rows]
        assert [(c["D"], c["m"], c["fd_step"]) for c in cells] == [
            ("6", "3", "0.05"), ("8", "4", "0.05")]

    @pytest.mark.parametrize("argv, message", [
        (["--d-list", "6", "--beta-list", "1.0", "--fd-step", "2"],
         "step_h must lie in [1e-8, 1]"),
        # the first cell (D=8, m=26) is valid; the second (D=4, m=7) is not
        (["--d-list", "8,4", "--beta-list", "2.0"], "m = 7 exceeds D(D+1)/2 - D = 6"),
    ], ids=["fd-step", "second-cell"])
    def test_bad_cell_exits_2_before_any_run(self, tmp_path, argv, message, capsys, caplog):
        out = tmp_path / "study.csv"
        with caplog.at_level("INFO", logger="netrecover.pipeline"):
            assert cli.main(["study", *argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert "stage teacher" not in caplog.text
        assert not out.exists()
