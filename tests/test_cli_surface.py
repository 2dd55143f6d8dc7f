"""The command-line surface, frozen at pqec 0.11.0.

Every subcommand keeps its flags with their dests, defaults, types and
choices, so the parsed namespace, and with it each CSV's recorded config
and hash, stays the same. The flags that take one value are checked by
running the commands.
"""

import argparse

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
