"""Text formats for pipeline artifacts.

All float output uses ``repr`` so files round-trip bit-exactly and result
files are byte-identical across reruns with the same seed.
"""

from __future__ import annotations

import configparser
import csv

import numpy as np

from .exceptions import ConfigError

__all__ = [
    "save_weights",
    "load_weights",
    "save_init_result",
    "load_init_result",
    "write_csv",
    "read_config_file",
]


def _fmt(v) -> str:
    return repr(float(v))


def save_weights(weights: np.ndarray, path):
    """Recovered-weights file: ``D m`` header, then one column per line."""
    w = np.asarray(weights, dtype=float)
    d, m = w.shape
    lines = [f"{d} {m}"]
    for k in range(m):
        lines.append(" ".join(_fmt(v) for v in w[:, k]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_weights(path) -> np.ndarray:
    with open(path) as fh:
        rows = [(i + 1, ln.strip()) for i, ln in enumerate(fh)
                if ln.strip() and not ln.strip().startswith("#")]
    if not rows:
        raise ConfigError(f"{path}: empty weights file")
    lineno, header = rows[0]
    try:
        d, m = (int(v) for v in header.split())
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: malformed header {header!r}") from None
    if len(rows) - 1 != m:
        raise ConfigError(f"{path}: expected {m} columns, found {len(rows) - 1}")
    w = np.empty((d, m))
    for k, (lineno, line) in enumerate(rows[1:]):
        vals = line.split()
        if len(vals) != d:
            raise ConfigError(f"{path}:{lineno}: expected {d} values, found {len(vals)}")
        w[:, k] = [float(v) for v in vals]
    return w


def save_init_result(res, path):
    """Signs line, shifts line, then the two condition numbers."""
    lines = [
        "signs " + " ".join(str(int(s)) for s in res.signs),
        "shifts " + " ".join(_fmt(t) for t in res.tau0),
        f"cond_g2 {_fmt(res.cond_g2)}",
        f"cond_g3 {_fmt(res.cond_g3)}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_init_result(path):
    """Returns ``(signs, tau0, cond_g2, cond_g3)``."""
    fields = {}
    with open(path) as fh:
        for i, ln in enumerate(fh):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            key, *vals = ln.split()
            fields[key] = vals
    try:
        signs = np.array([int(v) for v in fields["signs"]])
        tau0 = np.array([float(v) for v in fields["shifts"]])
        cond2 = float(fields["cond_g2"][0])
        cond3 = float(fields["cond_g3"][0])
    except (KeyError, ValueError, IndexError) as exc:
        raise ConfigError(f"{path}: malformed init-result file: {exc}") from None
    return signs, tau0, cond2, cond3


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


def read_config_file(path) -> dict:
    """Flat key=value config with one section per module.

    Returns a ``{section: {key: value-string}}`` mapping; interpretation is
    the caller's job so CLI flags can override individual keys.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    return {section: dict(parser.items(section)) for section in parser.sections()}
