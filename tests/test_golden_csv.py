"""Seeded CLI runs reproduce the committed CSVs byte for byte.

``sample-local-depol-ell5`` under ``tests/data/`` was written by pqec
0.4.3, and ``sample-zero-ell6`` and ``sample-bloch-M3-ell5`` by 0.4.5, with
the dense tree walk that 0.4.6 replaced by a walk on eigenvalue vectors.
``sample-zero-ell4`` was written by 0.4.9, which draws the observables of
four rounds or fewer in shot order, and ``sample-dephasing-M2-ell3`` by
0.6.0, whose ``# exact:`` line sums normalized purified weights.
``twirl-check-M3`` was written by 0.4.6, before 0.4.7 merged the
command-line resolvers. 0.4.10 reads fidelities off the purified spectrum
instead of a rebuilt matrix, and wrote ``purify-bloch-M3``, both ``cycle``
files, the three ``sweep`` files with their traces and
``threshold-twirled-M2``; the other three ``threshold`` files were written by
0.4.0. Every line must match apart from ``# pqec-version``. A change that
alters these bytes on purpose bumps the version, says so in CHANGES.md, and
rewrites the files it changes, named by stem, with

    PYTHONPATH=src python tests/test_golden_csv.py STEM [STEM ...]
"""

import sys
from pathlib import Path

import pytest

from pqec.cli import EXIT_NO_CROSSING, EXIT_OK, main

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


if __name__ == "__main__":
    stems = sys.argv[1:]
    unknown = sorted(set(stems) - set(GOLDEN))
    if not stems or unknown:
        sys.exit(f"usage: {sys.argv[0]} STEM [STEM ...]; stems: {', '.join(GOLDEN)}"
                 + (f"; unknown: {', '.join(unknown)}" if unknown else ""))
    DATA.mkdir(exist_ok=True)
    for stem in stems:
        run_golden(stem, DATA)
