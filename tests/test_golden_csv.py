"""Seeded CLI runs reproduce the committed CSVs byte for byte.

The files under ``tests/data/`` were written by pqec 0.4.0. Every line
must match apart from ``# pqec-version``. A change that alters these bytes
on purpose bumps the version, says so in CHANGES.md, and rewrites them with

    PYTHONPATH=src python tests/test_golden_csv.py
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
}


def run_golden(stem, directory, jobs="1"):
    """Run one golden command, writing ``<stem>.csv`` (and traces) into ``directory``."""
    argv, code, traces = GOLDEN[stem]
    extra = ["--jobs", jobs] if argv[0] != "cycle" else []
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
    DATA.mkdir(exist_ok=True)
    for stem in GOLDEN:
        run_golden(stem, DATA)
    sys.exit(0)
