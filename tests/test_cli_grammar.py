"""Property test over the command-line flag and config grammar.

Whatever flags and config entries are drawn, ``pqec`` exits 0, 1 or 2 and
prints no traceback. Sizes stay tiny whatever is drawn: at most two qubits,
three rounds, 200 shots, two cycles and one worker.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from pqec.cli import main  # noqa: E402

EXAMPLES = 150

# Well-formed values of every flag, then malformed or out-of-range ones.
VALID = {
    "M": ["1", "2"],
    "state": ["plus^1", "zero^2", "bloch:pi/3,pi/4", "bloch:0.5pi,-pi/4^2"],
    "channel": ["global-depol", "local-depol", "dephasing", "twirled-dephasing"],
    "p": ["0", "0.05", "0.2", "1", "0:1:3", "0,0.5,1"],
    "twirl": ["0.2", "1"],
    "ell": ["0", "1", "2", "3"],
    "cycles": ["1", "2"],
    "shots": ["2", "50", "200"],
    "batches": ["1", "2"],
    "observable": ["Z", "X", "Y", "ZI", "XZ"],
    "seed": ["0", "7", "99999999999999999999"],
    "jobs": ["1"],
}
BAD = {
    "M": ["0", "-1", "40", "x", ""],
    "state": ["plus^0", "plus^40", "zero^-2", "cat", "bloch:1", "bloch:9**9,0", "plus^x",
              "^", ""],
    "channel": ["bogus", ""],
    "p": ["1.5", "-0.1", "0:1", "0:1:0", "nan", "0,nan", "inf", "x", "", ","],
    "twirl": ["0", "1.5", "nan", "x"],
    "ell": ["-1", "2..1", "1..", "x", ""],
    "cycles": ["0", "-1", "x", "10001"],
    "shots": ["1", "0", "x"],
    "batches": ["0", "x"],
    "observable": ["Q", "", "ZZZ"],
    "seed": ["-1", "x", "1.5", ""],
    "jobs": ["0", "-3", "x"],
}
# Flags of each command. The ones that set sizes are never left out, so the
# parser's large defaults (30 cycles, 1e5 shots, cpu-count workers, a
# 41-point grid) never apply.
CHANNEL = ("seed", "state", "M", "channel", "p", "twirl")
FLAGS = {
    "purify": CHANNEL + ("ell",),
    "cycle": CHANNEL + ("ell", "cycles"),
    "sweep": CHANNEL + ("ell", "cycles", "jobs"),
    "threshold": CHANNEL + ("ell", "cycles", "jobs"),
    "sample": CHANNEL + ("ell", "shots", "batches", "observable"),
    "twirl-check": ("seed", "M", "p"),
}
SIZES = ("p", "cycles", "shots", "jobs")
OPTIONAL = ("seed", "state", "twirl", "batches", "observable")
ELL_LISTS = ["0,1", "0..2", "1,3"]


def _config_value(text: str):
    """The flag text as a JSON number where it reads as one, else as text."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _skip(key, command, mode, given) -> bool:
    if key not in FLAGS[command]:
        return mode < 9               # an unknown key or another command's flag
    if key in OPTIONAL:
        return mode < 6
    if key == "M" and "state" in given:
        return mode != 1              # a valid --M next to --state rarely agrees
    return mode == 0 and key not in SIZES


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_flags_and_config_exit_cleanly(tmp_path, capsys, data):
    command = data.draw(st.sampled_from(sorted(FLAGS)), label="command")
    valid = dict(VALID)
    if command in ("purify", "sweep", "threshold"):
        valid["ell"] = VALID["ell"] + ELL_LISTS
    argv, entries, given_keys = [command], {}, set()
    # mostly well-formed values; now and then a malformed one, a missing
    # flag, an unknown key, or a flag of another command
    for key in FLAGS[command] + ("walrus", "shots"):
        mode = data.draw(st.integers(0, 9), label=f"{key} mode")
        if key in given_keys or _skip(key, command, mode, given_keys):
            continue
        given_keys.add(key)
        pool = BAD if mode == 1 or key not in VALID else valid
        text = data.draw(st.sampled_from(pool.get(key, ["1"])), label=key)
        if data.draw(st.booleans(), label=f"{key} in config"):
            entries[key] = _config_value(text)
        else:
            argv += [f"--{key}", text]
    if entries:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        argv += ["--config", str(cfg)]
    argv += ["--out", str(tmp_path / "out.csv")]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
