"""Artifact text formats: bit-exact round trips and malformed input."""

import csv

import numpy as np
import pytest

from netrecover import (ConfigError, InitResult, TeacherNetwork, load_teacher,
                        make_activation, save_teacher)
from netrecover.fileio import (load_init_result, load_weights, save_init_result,
                               save_weights, write_csv)
from conftest import random_unit_columns


def awkward_floats(n, seed):
    """Values whose shortest repr needs all 17 significant digits."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


def test_writer_bytes_pinned(tmp_path):
    """Exact text of the teacher, weights and init-result writers."""
    w = np.array([[0.6], [0.8]])
    net = TeacherNetwork(w, np.array([0.1 + 0.2]), make_activation("tanh"), seed=5)
    save_teacher(net, tmp_path / "t.net")
    assert (tmp_path / "t.net").read_text() == (
        "# shallow network file\n2 1 tanh 0.6 5\n0.6 0.8 0.30000000000000004\n")
    save_weights(np.array([[0.6, 1e-300], [0.8, -1.0]]), tmp_path / "w.txt")
    assert (tmp_path / "w.txt").read_text() == "2 2\n0.6 0.8\n1e-300 -1.0\n"
    res = InitResult(signs=np.array([1, -1]), tau0=np.array([0.25, -1 / 3]),
                     cond_g2=2.0, cond_g3=1e20)
    save_init_result(res, tmp_path / "init.txt")
    assert (tmp_path / "init.txt").read_text() == (
        "signs 1 -1\nshifts 0.25 -0.3333333333333333\ncond_g2 2.0\ncond_g3 1e+20\n")


def test_teacher_header_radius_must_be_the_activations(tmp_path):
    """A header whose tau_inf is not the activation's declared one is refused."""
    path = tmp_path / "t.net"
    path.write_text("# shallow network file\n2 1 sigmoid 1.5 5\n0.6 0.8 0.1\n")
    with pytest.raises(ConfigError, match="header declares tau_inf 1.5, but sigmoid has "
                                          "tau_inf 1.3"):
        load_teacher(path)
    path.write_text("# shallow network file\n2 1 sigmoid 1.3 5\n0.6 0.8 0.1\n")
    assert load_teacher(path).act.tau_inf == 1.3


@pytest.mark.parametrize("neuron, message", [
    ("0.6 nan 0.1", "weight column 0 has norm nan"),
    ("0.6 0.8 nan", "shifts are not finite"),
    ("nan nan nan", "weight column 0 has norm nan"),
], ids=["nan-weight", "nan-shift", "nan-both"])
def test_teacher_with_nan_is_refused(tmp_path, neuron, message):
    path = tmp_path / "t.net"
    path.write_text(f"# shallow network file\n2 1 tanh 0.6 5\n{neuron}\n")
    with pytest.raises(ConfigError, match=message):
        load_teacher(path)


@pytest.mark.parametrize("header", ["-2 1 tanh 0.6 -1", "2 -1 tanh 0.6 -1",
                                    "0 1 tanh 0.6 -1", "2 0 tanh 0.6 -1"])
def test_teacher_negative_size_reports_line(tmp_path, header):
    # a teacher needs D >= 1 and m >= 1; a weights file may hold 0 columns
    path = tmp_path / "t.net"
    path.write_text(f"# shallow network file\n{header}\n0.6 0.8 0.1\n")
    with pytest.raises(ConfigError, match=rf"t\.net:2: size below 1 in header '{header}'"):
        load_teacher(path)


class TestWeights:
    def test_round_trip_bit_exact(self, tmp_path):
        w = random_unit_columns(7, 5, seed=0)
        w[:, 0] = awkward_floats(7, seed=1)
        save_weights(w, tmp_path / "w.txt")
        back = load_weights(tmp_path / "w.txt")
        assert back.shape == (7, 5)
        assert np.array_equal(back.view(np.int64), w.view(np.int64))

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# recovered\n2 1\n\n0.6 0.8\n")
        assert np.array_equal(load_weights(path), np.array([[0.6], [0.8]]))

    def test_malformed_header_reports_line(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# comment\n2 x\n0.6 0.8\n")
        with pytest.raises(ConfigError, match=r"w\.txt:2: malformed header"):
            load_weights(path)

    def test_short_column_reports_line(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2 2\n0.6 0.8\n1.0\n")
        with pytest.raises(ConfigError, match=r"w\.txt:3: expected 2 values, found 1"):
            load_weights(path)

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2 1\n0.6 O.8\n")
        with pytest.raises(ConfigError, match=r"w\.txt:2: could not convert"):
            load_weights(path)

    @pytest.mark.parametrize("header", ["-5 3", "2 -1"])
    def test_negative_size_reports_line(self, tmp_path, header):
        path = tmp_path / "w.txt"
        path.write_text(f"{header}\n0.6 0.8\n0.6 0.8\n0.6 0.8\n")
        with pytest.raises(ConfigError, match=rf"w\.txt:1: negative size in header '{header}'"):
            load_weights(path)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2 3\n0.6 0.8\n")
        with pytest.raises(ConfigError, match="expected 3 columns, found 1"):
            load_weights(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ConfigError, match="empty weights file"):
            load_weights(path)


class TestInitResult:
    def test_round_trip_bit_exact(self, tmp_path):
        tau = awkward_floats(6, seed=2)
        res = InitResult(signs=np.array([1, -1, 1, 1, -1, -1]), tau0=tau,
                         cond_g2=3.141592653589793, cond_g3=1e-310)
        save_init_result(res, tmp_path / "init.txt")
        signs, tau0, cond2, cond3 = load_init_result(tmp_path / "init.txt")
        assert signs.tolist() == [1, -1, 1, 1, -1, -1]
        assert np.array_equal(tau0.view(np.int64), tau.view(np.int64))
        assert (cond2, cond3) == (3.141592653589793, 1e-310)

    @pytest.mark.parametrize("text", [
        "signs 1 -1\nshifts 0.1 0.2\ncond_g2 1.0\n",            # missing key
        "signs 1 x\nshifts 0.1 0.2\ncond_g2 1.0\ncond_g3 1.0\n",  # bad sign
        "signs 1 -1\nshifts 0.1 0.2\ncond_g2\ncond_g3 1.0\n",     # empty value
        "signs 1 -1 1\nshifts 0.1 0.2\ncond_g2 1.0\ncond_g3 1.0\n",  # 3 signs, 2 shifts
        "signs 1 -1\nshifts 0.1 0.2\nsigns -1 -1\ncond_g2 1.0\ncond_g3 1.0\n",  # repeated key
        "signs 1 -1\nshifts 0.1 0.2\nbogus 7\ncond_g2 1.0\ncond_g3 1.0\n",  # unknown key
        # refine would otherwise blame the weights: "weight column 0 has norm 2.0"
        "signs 1 2\nshifts 0.1 0.2\ncond_g2 1.0\ncond_g3 1.0\n",
        "signs 0 -1\nshifts 0.1 0.2\ncond_g2 1.0\ncond_g3 1.0\n",
        # refine would otherwise spend its queries, then fail in LAPACK
        "signs 1 -1\nshifts nan 0.2\ncond_g2 1.0\ncond_g3 1.0\n",
        "signs 1 -1\nshifts 0.1 -inf\ncond_g2 1.0\ncond_g3 1.0\n",
    ])
    def test_malformed_raises(self, tmp_path, text):
        path = tmp_path / "init.txt"
        path.write_text(text)
        with pytest.raises(ConfigError, match="malformed init-result file"):
            load_init_result(path)


class TestCsv:
    def test_floats_round_trip_bit_exact(self, tmp_path):
        vals = awkward_floats(5, seed=3).tolist() + [float("nan"), float("inf")]
        write_csv(tmp_path / "t.csv", ["i", "v", "s"],
                  [[i, v, "x"] for i, v in enumerate(vals)])
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "i,v,s"
        back = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert np.array_equal(np.array(back[:5]).view(np.int64),
                              np.array(vals[:5]).view(np.int64))
        assert np.isnan(back[5]) and back[6] == float("inf")
        assert [ln.split(",")[0] for ln in lines[1:]] == [str(i) for i in range(7)]

    def test_deterministic_bytes(self, tmp_path):
        rows = [[1, 0.1, "a"], [2, 1e-300, ""]]
        write_csv(tmp_path / "a.csv", ["i", "v", "s"], rows)
        write_csv(tmp_path / "b.csv", ["i", "v", "s"], rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.csv").read_text() == "i,v,s\n1,0.1,a\n2,1e-300,\n"

    def test_cells_with_separators_are_quoted(self, tmp_path):
        rows = [[1, "a, b", 'say "hi"'], [2, "plain", None]]
        write_csv(tmp_path / "q.csv", ["i", "s", "t"], rows)
        assert (tmp_path / "q.csv").read_text() == (
            'i,s,t\n1,"a, b","say ""hi"""\n2,plain,None\n')
        with open(tmp_path / "q.csv", newline="") as fh:
            back = list(csv.reader(fh))
        assert back == [["i", "s", "t"], ["1", "a, b", 'say "hi"'], ["2", "plain", "None"]]

