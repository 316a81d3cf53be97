"""Command-line interface, driven through ``cli.main``."""

import csv

import pytest

from netrecover import GaussianShifts, PipelineConfig, SpmConfig, UniformShifts, cli


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


# every value the command line sets, one flag each, as an option file
ARGS_TEXT = """\
# the planted network
--d 12 --m 5 --beta 1.25
--activation sigmoid --shift-law gaussian:0.1

# Hessians and SPM
--fd-step 0.02 --exact-derivatives --n-h 40
--spm-steps 77 --spm-restarts 31
# refine and scoring
--n-train 1234 --max-steps 99 --stop-loss 1e-9 --timeout-s 12.5
--n-eval 500 --seed 9 --out-dir somewhere
"""
FLAGS = ["--d", "12", "--m", "5", "--beta", "1.25", "--activation", "sigmoid",
         "--shift-law", "gaussian:0.1", "--fd-step", "0.02", "--exact-derivatives",
         "--n-h", "40", "--n-eval", "500", "--seed", "9", "--out-dir", "somewhere",
         "--spm-steps", "77", "--spm-restarts", "31", "--n-train", "1234",
         "--max-steps", "99", "--stop-loss", "1e-9", "--timeout-s", "12.5"]
EXPECTED = PipelineConfig(
    dim=12, n_neurons=5, beta_order=1.25, activation="sigmoid",
    shift_law=GaussianShifts(0.1), fd_step=0.02, exact_derivatives=True,
    n_hessians=40, n_eval=500, seed=9, out_dir="somewhere",
    spm=SpmConfig(max_steps=77, max_restarts=31),
    n_train=1234, refine_max_steps=99, stop_loss=1e-9, timeout_s=12.5,
)


def exit_code(argv):
    """What ``cli.main`` returns, or the status argparse exits with."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def subcommand_flags(name):
    """The flags of one subcommand's parser, ``-h`` aside."""
    sub = cli.make_parser()._subparsers._group_actions[0].choices[name]
    return {f for a in sub._actions for f in a.option_strings} - {"-h", "--help"}


def write(path, text):
    path.write_text(text)
    return f"@{path}"


class TestConfig:
    def test_every_config_key(self, tmp_path):
        assert config_from(["pipeline", write(tmp_path / "run.args", ARGS_TEXT)]) == EXPECTED

    def test_flags_build_the_same_config(self):
        assert config_from(["pipeline", *FLAGS]) == EXPECTED

    def test_one_flag_per_value(self):
        # pipeline takes exactly these flags (TestSubcommandFlags::test_kept)
        flags = [f for f in FLAGS if f.startswith("--")]
        assert len(flags) == len(set(flags)) == 17

    def test_dim_key_and_flag_precedence(self, tmp_path):
        # a later flag wins, whether it follows the file or the file follows it
        args = write(tmp_path / "run.args", "--d 8 --beta 1.0 --seed 4\n--n-train 500\n")
        cfg = config_from(["pipeline", "--n-train", "300", args, "--seed", "5"])
        assert (cfg.dim, cfg.beta_order, cfg.seed, cfg.n_train) == (8, 1.0, 5, 500)

    def test_comments_blank_lines_and_quotes(self, tmp_path):
        args = write(tmp_path / "run.args", (
            "# a run directory with a space\n"
            "\n"
            "  --out-dir 'my runs/a b'   # trailing comment\n"
            '--d 10 --shift-law "uniform:-0.25,0.25"\n'
            "   \n"
            "#--seed 3\n"))
        cfg = config_from(["pipeline", args])
        assert (cfg.out_dir, cfg.dim, cfg.shift_law, cfg.seed) == (
            "my runs/a b", 10, UniformShifts(-0.25, 0.25), 0)

    def test_defaults_without_config(self):
        assert config_from(["pipeline", "--d", "10"]) == PipelineConfig(dim=10)

    @pytest.mark.parametrize("line", [
        "--bogus 1",
        # lines of an INI file
        "[pipeline]",
        "d = 10",
        "--n-hessians 20",
        "--spm-gamma 2.0",
        "--dump-spectrum",
        "--batch 16",
        "--method newton",
    ])
    def test_unknown_flag_in_file_exits_2(self, tmp_path, line, capsys):
        args = write(tmp_path / "bad.args", f"--d 10 --beta 1.0\n{line}\n")
        assert exit_code(["pipeline", args]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert exit_code(["pipeline", f"@{tmp_path / 'absent.args'}"]) == 2
        assert "No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("--d ten\n", "argument --d: invalid int value: 'ten'"),
        ("--d 10 --exact-derivatives maybe\n", "unrecognized arguments: maybe"),
        ("--d 10 --beta 1.0\n--n-train 0\n", "n_train must be >= 1"),
        ("--d 10 --out-dir 'a b\n", "No closing quotation"),
    ], ids=["unparsable-value", "not-a-boolean", "bad-refine-setting", "unclosed-quote"])
    def test_malformed_config_exits_2(self, tmp_path, text, message, capsys):
        out = tmp_path / "run"
        assert exit_code(["pipeline", write(tmp_path / "bad.args", text),
                          "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dimension_exits_2(self, capsys):
        assert cli.main(["pipeline", "--beta", "1.0"]) == 2
        assert "input dimension is required" in capsys.readouterr().err

    def test_spm_beta_flag_is_gone(self, capsys):
        for argv in (["--spm-beta", "0.5"], ["--spm-gamma", "2.0"], ["--dump-spectrum"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["pipeline", "--d", "10", *argv])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, abbreviation", [
        (["pipeline", "--d", "10", "--max", "5"], "--max"),
        (["pipeline", "--d", "10", "--exact"], "--exact"),
        (["study", "--d-list", "6", "--beta-list", "1.0", "--out", "x", "--m", "3"], "--m"),
        (["study", "--d-list", "6", "--beta-list", "1.0", "--out", "x", "--rep", "2"],
         "--rep"),
        (["--verb", "pipeline", "--d", "10"], "--verb"),
    ], ids=["pipeline--max", "pipeline--exact", "study--m", "study--rep", "--verb"])
    def test_abbreviation_exits_2(self, tmp_path, monkeypatch, argv, abbreviation, capsys):
        monkeypatch.chdir(tmp_path)
        assert exit_code(argv) == 2
        assert f"unrecognized arguments: {abbreviation}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


# the flags each composed subcommand takes, and those it refuses because it
# would override them or never read them; test_kept pins each set whole
KEPT = {
    "pipeline": {f for f in FLAGS if f.startswith("--")},
    "baseline": {"--d", "--m", "--beta", "--activation", "--shift-law", "--seed",
                 "--n-eval", "--out-dir", "--stop-loss", "--timeout-s"},
    "study": {f for f in FLAGS if f.startswith("--")} - {"--d", "--m", "--beta", "--out-dir"}
    | {"--d-list", "--beta-list", "--reps", "--out"},
    "recover-weights": {"--net", "--out", "--seed", "--fd-step", "--exact-derivatives",
                        "--n-h", "--spm-steps", "--spm-restarts"},
}
REFUSED = {
    "baseline": ["--fd-step 0.02", "--exact-derivatives", "--n-h 40", "--spm-steps 7",
                 "--spm-restarts 7", "--n-train 100", "--max-steps 5"],
    "study": ["--d 50", "--m 3", "--beta 1.9", "--out-dir x"],
    "recover-weights": ["--d 30", "--m 99", "--beta 1.9", "--activation sigmoid",
                        "--shift-law gaussian:0.1", "--n-eval 5", "--out-dir x",
                        "--n-train 5", "--max-steps 5", "--timeout-s 5"],
}


class TestSubcommandFlags:
    @pytest.mark.parametrize("name", list(KEPT))
    def test_kept(self, name):
        assert subcommand_flags(name) == KEPT[name]

    @pytest.mark.parametrize("name, flag", [(n, f) for n, fs in REFUSED.items() for f in fs],
                             ids=[f"{n}{f.split()[0]}" for n, fs in REFUSED.items() for f in fs])
    def test_refused(self, tmp_path, name, flag, capsys, caplog):
        out = tmp_path / "out"
        base = {
            "pipeline": ["--d", "10", "--beta", "1.5", "--out-dir", str(out)],
            "baseline": ["--d", "6", "--m", "3", "--out-dir", str(out)],
            "study": ["--d-list", "6", "--beta-list", "1.0", "--out", str(out)],
            "recover-weights": ["--net", str(tmp_path / "teacher.net"), "--out", str(out)],
        }[name]
        with caplog.at_level("INFO", logger="netrecover"):
            assert exit_code([name, *base, *flag.split()]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert "stage" not in caplog.text
        assert not out.exists()


class TestRefusedCells:
    """Cells with no right answer, no gap to read the level from, or a bad setting exit 2
    before any stage."""

    @pytest.mark.parametrize("argv, message", [
        (["--d", "8", "--beta", "2.2"], "m = 39 exceeds D(D+1)/2 - D = 28"),
        (["--d", "10", "--beta", "2.1"], "m = 51 exceeds D(D+1)/2 - D = 45"),
        (["--d", "10", "--m", "13", "--n-h", "13"], "take m + 1 = 14"),
        (["--d", "10", "--beta", "1.5", "--fd-step", "2"], "fd_step must lie in [1e-8, 1]"),
        (["--d", "10", "--beta", "1.5", "--n-eval", "0"], "n_eval must be >= 1"),
        (["--d", "10", "--beta", "1.5", "--shift-law", "uniform:-1,1"],
         "uniform shift range [-1.0, 1.0] exceeds [-0.6, 0.6]"),
        # past the sigmoid's ln(2 + sqrt(3)) ~ 1.317 the signs and shifts are not identifiable
        (["--d", "10", "--beta", "1.5", "--activation", "sigmoid",
          "--shift-law", "uniform:-1.5,1.5"],
         "uniform shift range [-1.5, 1.5] exceeds [-1.3, 1.3]"),
        # a malformed shift law is a bad setting, not a traceback or a NaN teacher
        (["--d", "10", "--beta", "1.5", "--shift-law", "gaussian:-0.1"],
         "gaussian shift sigma -0.1 must be finite and >= 0"),
        (["--d", "10", "--beta", "1.5", "--shift-law", "gaussian:nan"],
         "gaussian shift sigma nan must be finite"),
        (["--d", "10", "--beta", "1.5", "--shift-law", "uniform:0.5,-0.5"],
         "uniform shift range [0.5, -0.5] must be finite with low <= high"),
        (["--d", "10", "--beta", "1.5", "--shift-law", "uniform:nan,0.5"],
         "uniform shift range [nan, 0.5] must be finite"),
        (["--d", "10", "--m", "2", "--shift-law", "fixed:0.1,inf"],
         "fixed shifts (0.1, inf) must be finite"),
        # budgets and stops that no stage can run with
        (["--d", "10", "--beta", "1.5", "--n-h", "0"], "n_hessians must be >= 1, got 0"),
        (["--d", "10", "--beta", "1.5", "--spm-restarts", "0"],
         "max_restarts must be >= 1, got 0"),
        (["--d", "10", "--beta", "1.5", "--timeout-s", "-1"],
         "timeout_s must be positive, got -1.0"),
        (["--d", "10", "--beta", "1.5", "--stop-loss", "nan"],
         "stop_loss must be finite and >= 0, got nan"),
        (["--d", "10", "--beta", "1.5", "--stop-loss", "-1"],
         "stop_loss must be finite and >= 0, got -1.0"),
    ], ids=["D8-b2.2", "D10-b2.1", "n_h-equals-m", "fd-step", "n-eval", "shift-law",
            "sigmoid-shift-law", "gaussian-negative", "gaussian-nan", "uniform-reversed",
            "uniform-nan", "fixed-inf", "n-h-zero", "spm-restarts-zero", "timeout-negative",
            "stop-loss-nan", "stop-loss-negative"])
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
        args = write(tmp_path / "study.args", "--fd-step 0.05 --n-eval 500\n--max-steps 500\n")
        out = tmp_path / "study.csv"
        assert cli.main(["study", "--d-list", "6,8", "--beta-list", "1.0", args,
                         "--out", str(out)]) == 0
        header, *rows = read_csv(out)
        cells = [dict(zip(header, r)) for r in rows]
        assert [(c["D"], c["m"], c["fd_step"]) for c in cells] == [
            ("6", "3", "0.05"), ("8", "4", "0.05")]

    @pytest.mark.parametrize("argv, message", [
        (["--d-list", "6", "--beta-list", "1.0", "--fd-step", "2"],
         "fd_step must lie in [1e-8, 1]"),
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
