"""Text formats for pipeline artifacts; no other module opens a file.

Line formats, read skipping blank lines and lines starting with ``#``:

- ``teacher.net``: ``# shallow network file``, then ``D m activation
  tau_inf seed`` (seed -1 when unknown), then per neuron its weight column
  and its shift on one line.  D and m must be at least 1, and the header's
  ``tau_inf`` must be the activation's declared one, so a sigmoid file
  written when the sigmoid declared 1.5 (beyond its identifiable 1.3) is
  refused;
- ``weights.txt`` (recovered weights): ``D m``, then one column per line;
  m may be 0, as when SPM found no direction;
- ``init.txt``: ``signs ...``, ``shifts ...``, ``cond_g2 c``, ``cond_g3 c``;
- ``*.shifts.txt`` (refined shifts): one line of m values;
- ``report.txt``: the free-text lines of ``ExperimentResult.write_report``.

Tables (result, trajectory, spectrum, study, diagnose) are CSV with a
header row.
All float output uses ``repr``, so files round-trip bit-exactly and are
byte-identical across reruns with the same seed.  Malformed input raises
:class:`ConfigError`, with the line number where there is one.
"""

from __future__ import annotations

import csv

import numpy as np

from .activations import make_activation
from .exceptions import ConfigError
from .teacher import TeacherNetwork

__all__ = [
    "write_lines",
    "save_teacher",
    "load_teacher",
    "save_weights",
    "load_weights",
    "save_init_result",
    "load_init_result",
    "save_shifts",
    "write_csv",
]


def _join(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def write_lines(path, lines):
    """Write each of ``lines`` followed by a newline."""
    with open(path, "w") as fh:
        fh.write("".join(f"{line}\n" for line in lines))


def _records(path, what: str) -> list:
    """``(line number, fields)`` of every non-blank, non-comment line."""
    with open(path) as fh:
        records = [(lineno, line.split()) for lineno, line in enumerate(fh, 1)
                   if line.strip() and not line.lstrip().startswith("#")]
    if not records:
        raise ConfigError(f"{path}: empty {what} file")
    return records


def _float_row(path, lineno: int, fields: list, n: int) -> list:
    """The n floats of one line; a wrong count or a non-number is a ConfigError."""
    if len(fields) != n:
        raise ConfigError(f"{path}:{lineno}: expected {n} values, found {len(fields)}")
    try:
        return [float(v) for v in fields]
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: {exc}") from None


def save_teacher(net: TeacherNetwork, path):
    """Network file: header, then one line per neuron (weight column, shift)."""
    seed = -1 if net.seed is None else int(net.seed)
    write_lines(path, [
        "# shallow network file",
        f"{net.dim} {net.n_neurons} {net.act.kind} {net.act.tau_inf!r} {seed}",
        *(_join([*net.weights[:, k], net.shifts[k]]) for k in range(net.n_neurons)),
    ])


def load_teacher(path) -> TeacherNetwork:
    """Parse a network file written by :func:`save_teacher`.

    The header's ``tau_inf`` must equal the activation's; the unit-norm and
    shift-range invariants are re-validated.
    """
    records = _records(path, "network")
    lineno, header = records[0]
    if len(header) != 5:
        raise ConfigError(f"{path}:{lineno}: malformed header {' '.join(header)!r}")
    try:
        dim, m, seed = int(header[0]), int(header[1]), int(header[4])
        tau_inf = float(header[3])
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: malformed header: {exc}") from None
    if dim < 1 or m < 1:
        raise ConfigError(f"{path}:{lineno}: size below 1 in header {' '.join(header)!r}")
    act = make_activation(header[2])
    if tau_inf != act.tau_inf:
        raise ConfigError(f"{path}:{lineno}: header declares tau_inf {tau_inf!r}, "
                          f"but {act.kind} has tau_inf {act.tau_inf!r}")
    if len(records) - 1 != m:
        raise ConfigError(
            f"{path}: expected {m} neuron lines, found {len(records) - 1} (truncated?)"
        )
    cols = np.empty((dim + 1, m))
    for k, (lineno, fields) in enumerate(records[1:]):
        cols[:, k] = _float_row(path, lineno, fields, dim + 1)
    return TeacherNetwork(cols[:-1], cols[-1], act, seed=None if seed == -1 else seed)


def save_weights(weights: np.ndarray, path):
    """Recovered-weights file: ``D m`` header, then one column per line."""
    w = np.asarray(weights, dtype=float)
    d, m = w.shape
    write_lines(path, [f"{d} {m}", *(_join(w[:, k]) for k in range(m))])


def load_weights(path) -> np.ndarray:
    records = _records(path, "weights")
    lineno, header = records[0]
    try:
        d, m = (int(v) for v in header)
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: malformed header "
                          f"{' '.join(header)!r}") from None
    if d < 0 or m < 0:
        raise ConfigError(f"{path}:{lineno}: negative size in header {' '.join(header)!r}")
    if len(records) - 1 != m:
        raise ConfigError(f"{path}: expected {m} columns, found {len(records) - 1}")
    w = np.empty((d, m))
    for k, (lineno, fields) in enumerate(records[1:]):
        w[:, k] = _float_row(path, lineno, fields, d)
    return w


def save_init_result(res, path):
    """Signs line, shifts line, then the two condition numbers."""
    write_lines(path, [
        "signs " + " ".join(str(int(s)) for s in res.signs),
        "shifts " + _join(res.tau0),
        f"cond_g2 {float(res.cond_g2)!r}",
        f"cond_g3 {float(res.cond_g3)!r}",
    ])


def load_init_result(path):
    """Returns ``(signs, tau0, cond_g2, cond_g3)``; each key appears once, signs are +-1,
    shifts finite."""
    fields = {}
    for lineno, (key, *vals) in _records(path, "init-result"):
        if key in fields or key not in ("signs", "shifts", "cond_g2", "cond_g3"):
            raise ConfigError(f"{path}:{lineno}: malformed init-result file: "
                              f"{'repeated' if key in fields else 'unknown'} key {key!r}")
        fields[key] = vals
    try:
        signs = np.array([int(v) for v in fields["signs"]])
        tau0 = np.array([float(v) for v in fields["shifts"]])
        cond2 = float(fields["cond_g2"][0])
        cond3 = float(fields["cond_g3"][0])
    except (KeyError, ValueError, IndexError) as exc:
        raise ConfigError(f"{path}: malformed init-result file: {exc}") from None
    if signs.size != tau0.size:
        raise ConfigError(f"{path}: malformed init-result file: "
                          f"{signs.size} signs but {tau0.size} shifts")
    if np.any(np.abs(signs) != 1):
        raise ConfigError(f"{path}: malformed init-result file: signs must be -1 or 1")
    if not np.all(np.isfinite(tau0)):
        raise ConfigError(f"{path}: malformed init-result file: shifts must be finite")
    return signs, tau0, cond2, cond3


def save_shifts(shifts, path):
    """Refined-shifts file: one line of m values."""
    write_lines(path, [_join(shifts)])


def write_csv(path, header: list[str], rows: list[list]):
    """CSV with repr-formatted floats (deterministic bytes).

    Cells holding a comma, a quote or a line break are quoted, so every row
    reads back with the header's length.
    """
    def cell(v):
        if isinstance(v, float):
            return repr(v)
        return str(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([cell(v) for v in row] for row in rows)
