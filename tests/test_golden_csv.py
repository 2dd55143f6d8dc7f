"""Seeded CLI runs reproduce the committed CSVs byte for byte.

0.8.0 prints every reported float rounded to 13 decimal places. It wrote
every file under ``tests/data/`` but ``threshold-local-depol-M5``, which
0.4.0 wrote and the rounding left as it was. Each value 0.8.0 wrote is the
rounding of the one written by the last version that changed it:
``sample-local-depol-ell5`` by 0.4.3; ``sample-zero-ell6`` and
``sample-bloch-M3-ell5`` by 0.4.5, with the dense tree walk that 0.4.6
replaced by a walk on eigenvalue vectors; ``sample-zero-ell4`` by 0.4.9,
which draws the observables of four rounds or fewer in shot order;
``sample-dephasing-M2-ell3`` by 0.6.0, whose ``# exact:`` line sums
normalized purified weights; ``twirl-check-M3`` by 0.4.6; ``purify-bloch-M3``,
both ``cycle`` files and the three ``sweep`` files with their traces by
0.4.10, which reads fidelities off the purified spectrum; the other two
``threshold`` files by 0.4.0. 0.16.0 rewrote ``threshold-twirled-M2``: a
full twirl runs one qubit's copies, whose crossings are read off the one
qubit's curves (0.7574130379213 -> 0.75). Every line must match
apart from ``# pqec-version``. A change that alters these bytes on purpose
bumps the version, says so in CHANGES.md, and rewrites the files it
changes, named by stem, with

    PYTHONPATH=src python tests/test_golden_csv.py STEM [STEM ...]
"""

import re
import sys
from pathlib import Path

import pytest

from pqec.cli import EXIT_NO_CROSSING, EXIT_OK, _fmt_value, main

DATA = Path(__file__).resolve().parent / "data"

# file stem -> (argv, expected exit code, whether the run also writes --traces)
GOLDEN = {
    "sweep-local-depol-M2": (["sweep", "--channel", "local-depol", "--M", "2", "--p", "0:1:5",
                              "--ell", "0,1,2", "--cycles", "4", "--seed", "3"], EXIT_OK, True),
    "sweep-twirl20-M3": (["sweep", "--channel", "dephasing", "--twirl", "0.2", "--M", "3",
                          "--p", "0:1:5", "--ell", "0,1,3", "--cycles", "3"], EXIT_OK, True),
    "sweep-global-depol-bloch-M3": (["sweep", "--channel", "global-depol",
                                     "--state", "bloch:0.7,0.3^3", "--p", "0:1:5",
                                     "--ell", "0,1,5", "--cycles", "3"], EXIT_OK, True),
    "threshold-local-depol-M5": (["threshold", "--channel", "local-depol", "--M", "5",
                                  "--p", "0:1:9", "--ell", "0,1,2", "--cycles", "2"],
                                 EXIT_OK, False),
    "threshold-dephasing-M1": (["threshold", "--channel", "dephasing", "--M", "1",
                                "--p", "0:1:21", "--ell", "0,1,2,3,5", "--cycles", "4"],
                               EXIT_OK, False),
    "threshold-twirled-M2": (["threshold", "--channel", "twirled-dephasing", "--M", "2",
                              "--p", "0:1:11", "--ell", "0,1,2", "--cycles", "2"], EXIT_OK, False),
    "threshold-global-depol-no-crossing": (["threshold", "--channel", "global-depol", "--M", "2",
                                            "--p", "0:0.5:6", "--ell", "0,1", "--cycles", "2"],
                                           EXIT_NO_CROSSING, False),
    "cycle-local-depol-M2": (["cycle", "--channel", "local-depol", "--M", "2", "--p", "0.1",
                              "--ell", "2", "--cycles", "10"], EXIT_OK, False),
    "cycle-dephasing-bloch": (["cycle", "--channel", "dephasing", "--state", "bloch:1,0.4^2",
                               "--p", "0.2", "--ell", "1", "--cycles", "6"], EXIT_OK, False),
    # the enumerated tree (l <= 4) and the per-shot walk beyond it, on one and three qubits
    "sample-zero-ell4": (["sample", "--state", "zero^1", "--observable", "Z",
                          "--channel", "local-depol", "--p", "0.01", "--ell", "4",
                          "--shots", "20000", "--batches", "2", "--seed", "1"], EXIT_OK, False),
    # the benchmark's l=4 command
    "sample-zero-ell4-1e5": (["sample", "--state", "zero^1", "--observable", "Z",
                              "--channel", "local-depol", "--p", "0.01", "--ell", "4",
                              "--shots", "100000", "--batches", "1", "--seed", "1"],
                             EXIT_OK, False),
    "sample-dephasing-M2-ell3": (["sample", "--M", "2", "--channel", "dephasing", "--p", "0.2",
                                  "--ell", "3", "--shots", "5000", "--batches", "3",
                                  "--seed", "3", "--observable", "XZ"], EXIT_OK, False),
    "sample-local-depol-ell5": (["sample", "--M", "1", "--channel", "local-depol", "--p", "0.2",
                                 "--ell", "5", "--shots", "300", "--batches", "2",
                                 "--seed", "4"], EXIT_OK, False),
    "sample-zero-ell6": (["sample", "--state", "zero^1", "--observable", "Z",
                          "--channel", "local-depol", "--p", "0.01", "--ell", "6",
                          "--shots", "100", "--batches", "3", "--seed", "1"], EXIT_OK, False),
    "sample-bloch-M3-ell5": (["sample", "--state", "bloch:0.7,0.3^3", "--observable", "ZIZ",
                              "--channel", "local-depol", "--p", "0.1", "--ell", "5",
                              "--shots", "300", "--batches", "2", "--seed", "4"], EXIT_OK, False),
    # rounds from the closed form's small powers up to a converged spectrum
    "purify-bloch-M3": (["purify", "--state", "bloch:0.7,0.3^3", "--channel", "local-depol",
                         "--p", "0.3", "--ell", "0,1,2,5,64,1100"], EXIT_OK, False),
    "twirl-check-M3": (["twirl-check", "--M", "3", "--p", "0:1:5", "--seed", "4"],
                       EXIT_OK, False),
}

# commands that take --jobs
POOLED = ("sweep", "threshold")


def run_golden(stem, directory, jobs="1"):
    """Run one golden command, writing ``<stem>.csv`` (and traces) into ``directory``."""
    argv, code, traces = GOLDEN[stem]
    extra = ["--jobs", jobs] if argv[0] in POOLED else []
    out = ["--out", str(directory / f"{stem}.csv")]
    if traces:
        out += ["--traces", str(directory / f"{stem}-traces.csv")]
    assert main(argv + extra + out) == code
    return [f"{stem}.csv"] + ([f"{stem}-traces.csv"] if traces else [])


def _without_version(path):
    return [line for line in path.read_text().splitlines(keepends=True)
            if not line.startswith("# pqec-version:")]


@pytest.mark.parametrize("stem", sorted(GOLDEN))
def test_cli_reproduces_golden_csv(tmp_path, stem, capsys):
    for name in run_golden(stem, tmp_path):
        assert _without_version(tmp_path / name) == _without_version(DATA / name), name


def test_golden_sweep_with_a_pool(tmp_path, capsys):
    # workers split the grid into blocks; the bytes stay the same
    for name in run_golden("sweep-twirl20-M3", tmp_path, jobs="2"):
        assert _without_version(tmp_path / name) == _without_version(DATA / name), name


# header lines that echo the input or name it, rather than report a number
_NOT_REPORTED = ("pqec-version", "command", "seed", "config", "config-hash")


def _reported_fields(path):
    """Every CSV cell and reported header value of a golden, as text."""
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(": ", 1)
            if key not in _NOT_REPORTED:
                yield value
        else:
            yield from line.split(",")


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.csv")))
def test_golden_floats_are_printed_at_the_formatter_resolution(name):
    for field in _reported_fields(DATA / name):
        if re.fullmatch(r"-?\d+", field):
            continue
        try:
            value = float(field)
        except ValueError:
            continue
        assert _fmt_value(value) == field, field


if __name__ == "__main__":
    stems = sys.argv[1:]
    unknown = sorted(set(stems) - set(GOLDEN))
    if not stems or unknown:
        sys.exit(f"usage: {sys.argv[0]} STEM [STEM ...]; stems: {', '.join(GOLDEN)}"
                 + (f"; unknown: {', '.join(unknown)}" if unknown else ""))
    DATA.mkdir(exist_ok=True)
    for stem in stems:
        run_golden(stem, DATA)
