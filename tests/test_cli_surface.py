"""The command-line surface, frozen at pqec 0.11.0.

Every subcommand keeps its flags with their dests, defaults, types and
choices, so the parsed namespace, and with it each CSV's recorded config
and hash, stays the same. The flags that take one value are checked by
running the commands. The parser is built once per process and shared:
runs in one process, in turn or from several threads, write the bytes of
a run on its own and leave the surface as it was.
"""

import argparse
import json
import sys
import threading

import pytest

from pqec.cli import EXIT_ERROR, build_parser, main
from pqec.threshold import available_cpus

CPUS = object()    # stands for the --jobs default, the CPUs this process may use
CHANNELS = ("global-depol", "local-depol", "dephasing", "twirled-dephasing")


def _flag(name, dest=None, default=None, type=None, choices=None):
    return f"--{name}", (dest or name, default, type, choices)


HELP = ("-h --help", ("help", argparse.SUPPRESS, None, None))
BASE = [HELP, _flag("config"), _flag("seed", default=7, type="_seed"), _flag("out"),
        _flag("M", "m", type="int")]
EXPERIMENT = BASE + [_flag("channel", choices=CHANNELS), _flag("twirl", type="float"),
                     _flag("state")]
GRID = [_flag("p", default="0:1:41"), _flag("ell", default="0,1,2,3,5"),
        _flag("cycles", default=30, type="_cycles"), _flag("jobs", default=CPUS, type="int")]
SURFACE = {
    "purify": EXPERIMENT + [_flag("p"), _flag("ell"), _flag("svg")],
    "cycle": EXPERIMENT + [_flag("p"), _flag("ell"), _flag("cycles", default=30, type="_cycles"),
                           _flag("svg")],
    "sweep": EXPERIMENT + GRID + [_flag("traces"), _flag("svg")],
    "threshold": EXPERIMENT + GRID + [_flag("svg")],
    "sample": EXPERIMENT + [_flag("shots", default=100000, type="int"),
                            _flag("batches", default=1, type="int"), _flag("observable"),
                            _flag("p"), _flag("ell")],
    "twirl-check": BASE + [_flag("p")],
}
# the flags each command admits one value of; a list or grid there exits 1
ONE_VALUE = {"purify": {"p"}, "cycle": {"p", "ell"}, "sweep": set(), "threshold": set(),
             "sample": {"p", "ell"}, "twirl-check": set()}


def _surface(parser) -> dict:
    return {" ".join(a.option_strings): (a.dest, a.default, getattr(a.type, "__name__", None),
                                         None if a.choices is None else tuple(a.choices))
            for a in parser._actions}


def test_every_command_keeps_its_flags():
    parser = build_parser()
    assert list(parser.commands) == list(SURFACE)
    assert [a.dest for a in parser._actions] == ["help", "version", "command"]
    cpus = available_cpus()
    for command, flags in SURFACE.items():
        expected = {name: (dest, cpus if default is CPUS else default, type, choices)
                    for name, (dest, default, type, choices) in flags}
        assert _surface(parser.commands[command]) == expected, command


# one-qubit runs; the test swaps a list of two values into --p and into --ell
RUNS = {
    "purify": ["--channel", "local-depol", "--p", "0.1", "--ell", "1"],
    "cycle": ["--channel", "local-depol", "--p", "0.1", "--ell", "1", "--cycles", "1"],
    "sweep": ["--channel", "local-depol", "--p", "0.1", "--ell", "1", "--cycles", "1",
              "--jobs", "1"],
    "threshold": ["--channel", "local-depol", "--p", "0:1:3", "--ell", "0,1", "--jobs", "1"],
    "sample": ["--channel", "local-depol", "--p", "0.1", "--ell", "1", "--shots", "10"],
    "twirl-check": ["--p", "0.1"],
}
LISTS = {"--p": "0.1,0.2", "--ell": "1,2"}


@pytest.mark.parametrize("command", list(SURFACE))
def test_one_value_flags(tmp_path, capsys, command):
    run = RUNS[command]
    for flag, values in LISTS.items():
        if flag not in run:
            continue
        argv = [command, "--M", "1", "--out", str(tmp_path / "x.csv")] + run
        argv[argv.index(flag) + 1] = values
        code = main(argv)
        err = capsys.readouterr().err
        rejected = f"{flag} must be a single value for {command}" in err
        assert rejected == (flag[2:] in ONE_VALUE[command]), argv
        assert code == EXIT_ERROR if rejected else not err, argv


@pytest.mark.parametrize("command", list(SURFACE))
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: pqec {command}")
    for name, _ in SURFACE[command]:
        assert name.split()[-1] in out


def _all_surfaces(parser) -> dict:
    return {None: _surface(parser),
            **{name: _surface(sub) for name, sub in parser.commands.items()}}


def _run_bytes(command, out) -> bytes:
    assert main([command, "--M", "1", "--out", str(out)] + RUNS[command]) in (0, 2)
    return out.read_bytes()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("command", list(SURFACE))
def test_runs_in_one_process_write_the_same_bytes(tmp_path, capsys, command):
    surfaces = _all_surfaces(build_parser())
    first = _run_bytes(command, tmp_path / "first.csv")
    # a usage error, --help, a --config run and a value the command rejects
    for argv, code in (([command, "--no-such-flag"], EXIT_ERROR), ([command, "--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 11}))
    assert main([command, "--M", "1", "--config", str(config),
                 "--out", str(tmp_path / "config.csv")] + RUNS[command]) in (0, 2)
    rejected = [command, "--M", "1", "--out", str(tmp_path / "rejected.csv")] + RUNS[command]
    rejected[rejected.index("--p") + 1] = "2"
    assert main(rejected) == EXIT_ERROR
    assert "--p: values must lie in [0, 1]" in capsys.readouterr().err
    assert _run_bytes(command, tmp_path / "second.csv") == first
    assert _all_surfaces(build_parser()) == surfaces


def test_threads_share_the_parser(tmp_path):
    commands = ("threshold", "sample")
    serial = {c: _run_bytes(c, tmp_path / f"{c}-serial.csv") for c in commands}
    written = {c: [] for c in commands}
    failures = []

    def worker(command):
        try:
            for i in range(20):
                written[command].append(_run_bytes(command, tmp_path / f"{command}-{i}.csv"))
        except Exception as exc:    # reported by the test thread below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(c,)) for c in commands]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    for command in commands:
        assert written[command] == [serial[command]] * 20, command
