import json
import math
from pathlib import Path

import numpy as np
import pytest

import pqec
from pqec.cli import (
    EXIT_ERROR,
    EXIT_NO_CROSSING,
    EXIT_OK,
    MAX_GRID_POINTS,
    _fmt_value,
    main,
    parse_int_list,
    parse_real_grid,
    parse_state,
)
from pqec.states import ResourceLimitError, ValidationError, bloch_state, plus_state, \
    zero_state


# ----------------------------------------------------------------------
# value parsing
# ----------------------------------------------------------------------

def test_parse_real_grid():
    assert np.allclose(parse_real_grid("0.3"), [0.3])
    assert np.allclose(parse_real_grid("0,0.5,1"), [0, 0.5, 1])
    grid = parse_real_grid("0:1:41")
    assert grid.size == 41
    assert grid[0] == 0.0 and grid[-1] == 1.0
    with pytest.raises(ValidationError):
        parse_real_grid("0:1:41:2")
    assert parse_real_grid(f"0:1:{MAX_GRID_POINTS}").size == MAX_GRID_POINTS
    with pytest.raises(ResourceLimitError):
        parse_real_grid(f"0:1:{MAX_GRID_POINTS + 1}")


def test_parse_int_list():
    assert parse_int_list("3") == (3,)
    assert parse_int_list("0,1,2") == (0, 1, 2)
    assert parse_int_list("0..8") == tuple(range(9))
    assert len(parse_int_list(f"1..{MAX_GRID_POINTS}")) == MAX_GRID_POINTS
    with pytest.raises(ResourceLimitError):
        parse_int_list(f"0..{MAX_GRID_POINTS}")
    with pytest.raises(ValidationError):
        parse_int_list("2..1")


def test_parse_state_specs():
    assert np.allclose(parse_state("plus^3"), plus_state(3))
    assert np.allclose(parse_state("zero^2"), zero_state(2))
    assert np.allclose(parse_state("bloch:pi/3,pi/4"),
                       bloch_state(math.pi / 3, math.pi / 4))
    assert np.allclose(parse_state("bloch:pi/3,pi/4^3"),
                       bloch_state(math.pi / 3, math.pi / 4, 3))
    with pytest.raises(ValidationError):
        parse_state("cat^2")
    with pytest.raises(ValidationError):
        parse_state("bloch:1.0")
    assert np.allclose(parse_state("bloch:0.5pi,-(1+1)*pi/4"),
                       bloch_state(math.pi / 2, -math.pi / 2))


def test_angle_accepts_only_arithmetic(tmp_path, capsys):
    for bad in ("9**9**9", "__import__('os')", "pi.real", "[1]", "1/0", "1e999"):
        with pytest.raises(ValidationError):
            parse_state(f"bloch:{bad},0")
    assert _exit_code(["purify", "--state", "bloch:9**9**9,0", "--channel", "dephasing",
                       "--p", "0.1", "--ell", "1", "--out", str(tmp_path / "x.csv")]) == EXIT_ERROR
    assert len(capsys.readouterr().err.splitlines()) == 1


# ----------------------------------------------------------------------
# reported numbers
# ----------------------------------------------------------------------

@pytest.mark.parametrize("value, text", [
    (-0.0, "0.0"),
    (1.0000000000000004, "1.0"),
    (-6.66e-16, "0.0"),
    (0.1 + 0.2, "0.3"),
    (np.float64(0.1 + 0.2), "0.3"),
    (float("nan"), "nan"),
    (True, "1"),
    (np.int64(5), "5"),
])
def test_fmt_value(value, text):
    assert _fmt_value(value) == text


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def test_cycle_command_reaches_steady_state(tmp_path):
    out = tmp_path / "cycle.csv"
    code = main(["cycle", "--channel", "global-depol", "--p", "0.1", "--ell", "1",
                 "--M", "1", "--cycles", "50", "--out", str(out)])
    assert code == EXIT_OK
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,fidelity"
    final = float(lines[-1].split(",")[1])
    assert final == pytest.approx(0.996904, abs=1e-6)


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--channel", "local-depol", "--M", "1", "--p", "0:1:5",
            "--ell", "0,1", "--cycles", "5", "--jobs", "1"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_columns_and_traces(tmp_path):
    out = tmp_path / "sweep.csv"
    traces = tmp_path / "traces.csv"
    code = main(["sweep", "--channel", "dephasing", "--M", "1", "--p", "0:1:5",
                 "--ell", "0,1", "--cycles", "4", "--jobs", "1",
                 "--out", str(out), "--traces", str(traces)])
    assert code == EXIT_OK
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "channel,M,p,ell,t_max,gamma_L,F_steady"
    assert len(lines) == 1 + 5 * 2
    trace_lines = [l for l in traces.read_text().splitlines() if not l.startswith("#")]
    assert trace_lines[0] == "p,ell,t,fidelity"
    assert len(trace_lines) == 1 + 5 * 2 * 5


def test_threshold_command_and_exit_codes(tmp_path):
    out = tmp_path / "th.csv"
    code = main(["threshold", "--channel", "local-depol", "--M", "1",
                 "--p", "0:1:21", "--ell", "0,1,2", "--cycles", "8",
                 "--jobs", "1", "--out", str(out)])
    assert code == EXIT_OK
    header = [l for l in out.read_text().splitlines() if l.startswith("#")]
    th_line = [l for l in header if "p-threshold" in l][0]
    assert float(th_line.split(":")[1]) == pytest.approx(0.75, abs=0.05)

    code = main(["threshold", "--channel", "local-depol", "--M", "1",
                 "--p", "0:0.3:5", "--ell", "0,1", "--cycles", "5",
                 "--jobs", "1", "--out", str(tmp_path / "none.csv")])
    assert code == EXIT_NO_CROSSING


def _header(path):
    return dict(l[2:].split(": ", 1) for l in path.read_text().splitlines()
                if l.startswith("# "))


def test_threshold_grid_step_is_the_crossing_bracket(tmp_path):
    # the crossing at 0.75 lies in (0.74, 0.76), not in the first interval
    out = tmp_path / "th.csv"
    code = main(["threshold", "--channel", "local-depol", "--M", "1",
                 "--p", "0,0.5,0.74,0.76,1", "--ell", "0,1,2", "--cycles", "1",
                 "--jobs", "1", "--out", str(out)])
    assert code == EXIT_OK
    header = _header(out)
    assert float(header["p-threshold"]) == pytest.approx(0.75, abs=0.01)
    assert float(header["grid-step"]) == pytest.approx(0.02, abs=1e-12)
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0][-1] == "bracket"
    assert all(float(r[-1]) == pytest.approx(0.02, abs=1e-12) for r in rows[1:])

    # an evenly spaced grid reports its step exactly, as before
    out = tmp_path / "even.csv"
    assert main(["threshold", "--channel", "local-depol", "--M", "1",
                 "--p", "0:1:41", "--ell", "0,1", "--cycles", "1",
                 "--jobs", "1", "--out", str(out)]) == EXIT_OK
    assert _header(out)["grid-step"] == "0.025"


@pytest.mark.parametrize("argv", [
    ["--M", "6", "--ell", "3"],
    ["--M", "1", "--ell", "1,1"],
    ["--M", "1", "--ell", "0,1,1"],
    ["--M", "6", "--p", "1,0.5,0"],
    ["--M", "1", "--p", "0.5"],
])
def test_threshold_checks_its_grid_before_sweeping(tmp_path, capsys, monkeypatch, argv):
    def no_sweep(*args, **kwargs):
        raise AssertionError("threshold swept a grid it cannot read a crossing from")

    monkeypatch.setattr(pqec.cli, "sweep", no_sweep)
    out = tmp_path / "x.csv"
    assert main(["threshold", "--channel", "local-depol", "--out", str(out)] + argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "threshold extraction needs" in err
    assert not out.exists()


@pytest.mark.parametrize("channel", [["global-depol"], ["local-depol"], ["dephasing"],
                                     ["dephasing", "--twirl", "0.2"]])
def test_threshold_runs_one_cycle_whatever_cycles_says(tmp_path, monkeypatch, channel):
    # the CSV is the same at any --cycles and --jobs, apart from the recorded
    # config; every run_cycles call runs the one cycle gamma reads. The target
    # is dense, since a plus^M grid runs on the calling thread in one block
    cycles = []
    run_cycles = pqec.threshold.run_cycles

    def recording_run_cycles(psi0, model, rounds, count):
        cycles.append(count)
        return run_cycles(psi0, model, rounds, count)

    monkeypatch.setattr(pqec.threshold, "run_cycles", recording_run_cycles)
    monkeypatch.setattr(pqec.threshold, "available_cpus", lambda: 2)
    monkeypatch.setattr(pqec.threshold, "MIN_WORKER_WORK", 1)
    base = ["threshold", "--channel"] + channel + ["--state", "bloch:pi/2,0^3",
                                                   "--p", "0:1:21", "--ell", "0,1,2,3"]
    outputs = {}
    for flags in (["--cycles", "1"], ["--cycles", "30"], ["--cycles", "30", "--jobs", "2"]):
        out = tmp_path / f"{'-'.join(flags)}.csv"
        code = main(base + flags + ["--out", str(out)])
        outputs[" ".join(flags)] = code, out.read_text()
    assert outputs["--cycles 30 --jobs 2"] == outputs["--cycles 30"]

    def without_config(text):
        return [line for line in text.splitlines() if not line.startswith("# config")]

    (code1, text1), (code30, text30) = outputs["--cycles 1"], outputs["--cycles 30"]
    assert code1 == code30 and without_config(text1) == without_config(text30)
    assert '"cycles":30' in text30
    assert len(cycles) > 3 and set(cycles) == {1}


@pytest.mark.parametrize("channel, expected", [("local-depol", 0.75), ("dephasing", 0.50)])
@pytest.mark.parametrize("qubits", [6, 7])
def test_threshold_holds_at_any_register_size(tmp_path, channel, expected, qubits):
    # the paper's thresholds do not depend on M, here on the default grid
    out = tmp_path / "th.csv"
    assert main(["threshold", "--channel", channel, "--M", str(qubits),
                 "--out", str(out)]) == EXIT_OK
    header = _header(out)
    assert header["status"] == "ok"
    assert abs(float(header["p-threshold"]) - expected) <= float(header["grid-step"])


def test_sample_command(tmp_path):
    out = tmp_path / "sample.csv"
    code = main(["sample", "--channel", "local-depol", "--M", "1", "--p", "0.2",
                 "--ell", "1", "--shots", "4000", "--batches", "3",
                 "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "batch,n,A_hat,B_hat,estimate,se"
    assert len(lines) == 4
    exact = float([l for l in text.splitlines() if "exact" in l][0].split(":")[1])
    last = lines[-1].split(",")
    assert abs(float(last[4]) - exact) < 5 * float(last[5])


def test_twirl_check_command(tmp_path, capsys):
    out = tmp_path / "tw.csv"
    code = main(["twirl-check", "--M", "2", "--p", "0.37", "--out", str(out)])
    assert code == EXIT_OK
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert float(rows[1].split(",")[2]) < 1e-10

    code = main(["twirl-check", "--M", "4", "--p", "0,0.37,1", "--out", str(out)])
    assert code == EXIT_OK
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 3
    assert all(float(r.split(",")[2]) < 1e-12 for r in rows)
    # the note names the largest deviation as the CSV prints it
    column = [r.split(",")[2] for r in rows]
    assert capsys.readouterr().out.endswith(f"(max deviation {max(column, key=float)})\n")
    assert _exit_code(["twirl-check", "--M", "7", "--p", "0.1", "--out", str(out)]) == EXIT_ERROR
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_purify_converges_at_huge_rounds(tmp_path):
    # 2**1100 is beyond the float range; the powered spectrum has converged
    out = tmp_path / "purify.csv"
    code = main(["purify", "--state", "plus^1", "--channel", "local-depol",
                 "--p", "0.3", "--ell", "64,1100,1000000000", "--out", str(out)])
    assert code == EXIT_OK
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert [r[0] for r in rows] == ["64", "1100", "1000000000"]
    assert rows[0][1] == rows[1][1] == rows[2][1]
    assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)


def test_purify_command_with_svg(tmp_path):
    out = tmp_path / "purify.csv"
    svg = tmp_path / "purify.svg"
    code = main(["purify", "--state", "plus^3", "--channel", "local-depol",
                 "--p", "0.3", "--ell", "0..8", "--out", str(out),
                 "--svg", str(svg)])
    assert code == EXIT_OK
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    fids = [float(r.split(",")[1]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))
    assert fids[-1] > 0.999
    assert svg.read_text().startswith("<svg")


def test_config_file_merge_and_rejection(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channel": "global-depol", "p": "0.1",
                               "ell": "1", "M": 1, "cycles": 10}))
    out = tmp_path / "out.csv"
    code = main(["cycle", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK

    # explicit flag overrides the file value
    out2 = tmp_path / "out2.csv"
    code = main(["cycle", "--config", str(cfg), "--cycles", "3", "--out", str(out2)])
    assert code == EXIT_OK
    rows = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 4  # header plus F(0..3)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"channel": "global-depol", "p": "0.1",
                               "ell": "1", "M": 1, "walrus": 3}))
    with pytest.raises(SystemExit) as info:
        main(["cycle", "--config", str(bad), "--out", str(out)])
    assert info.value.code == EXIT_ERROR


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command, entries, flags", [
    (["cycle", "--channel", "global-depol", "--p", "0.1", "--ell", "1", "--M", "1"],
     {"cycles": "10"}, ["--cycles", "10"]),
    (["cycle", "--channel", "global-depol", "--p", "0.1", "--ell", "1"],
     {"M": "1"}, ["--M", "1"]),
    (["purify", "--channel", "local-depol", "--M", "2"],
     {"p": 0.2, "ell": 2}, ["--p", "0.2", "--ell", "2"]),
    (["sample", "--channel", "local-depol", "--M", "1", "--p", "0.2", "--ell", "1"],
     {"shots": 500, "batches": "2", "seed": 3}, ["--shots", "500", "--batches", "2",
                                                 "--seed", "3"]),
])
def test_config_entries_are_parsed_as_flags(tmp_path, command, entries, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    by_file, by_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert main(command + ["--config", str(cfg), "--out", str(by_file)]) == EXIT_OK
    assert main(command + flags + ["--out", str(by_flags)]) == EXIT_OK
    assert by_file.read_bytes() == by_flags.read_bytes()


@pytest.mark.parametrize("entries", [
    {"cycles": "ten"}, {"shots": "x"}, {"channel": "bogus"}, {"walrus": 3},
    {"config": "other.json"}, {"seed": -1}, {"batches": [1, 2]}, {"observable": None}, [1, 2],
])
def test_bad_config_entries_exit_one(tmp_path, capsys, entries):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    code = _exit_code(["sample", "--channel", "local-depol", "--M", "1", "--p", "0.2",
                       "--ell", "1", "--shots", "10", "--config", str(cfg),
                       "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert len(err.splitlines()) == 1 and "error" in err


@pytest.mark.parametrize("argv", [
    ["sample", "--ell", "30"],
    ["sample", "--ell", "1100"],
    ["sample", "--ell", "1", "--shots", "2000000"],
    ["sample", "--ell", "1", "--M", "40"],
    ["sample", "--ell", "1", "--state", "bloch:1,0^40", "--shots", "10"],
    ["purify", "--ell", "1", "--M", "40"],
    ["sweep", "--jobs", "0"],
    ["threshold", "--jobs", "-3"],
    ["threshold", "--p", "1:0:5", "--ell", "0,1"],
    ["threshold", "--p", "0.2,0.1,0.9", "--ell", "0,1"],
    ["threshold", "--M", "1", "--p", "0.5"],
    ["sweep", "--p", "0:1:1000000000"],
    # p values the CSV's 1e-13 resolution cannot tell from 0 or from each other
    ["sweep", "--p", "0,1e-14,1e-3"],
    ["sweep", "--p", "1e-14"],
    ["threshold", "--ell", "0..1000000000"],
    ["cycle", "--ell", "1", "--cycles", "1000000000000"],
    ["cycle", "--ell", "1", "--cycles", "1000000000"],
    ["sweep", "--cycles", "1000000000"],
    ["sample", "--ell", "1", "--shots", "10", "--svg", "s.svg"],
    ["twirl-check", "--svg", "s.svg"],
    ["purify", "--ell", "2..1", "--svg", "s.svg"],
    ["sample", "--state", "zero^1", "--ell", "4", "--shots", "2", "--batches", "100000"],
    ["sample", "--ell", "1", "--shots", "1000000", "--batches", "51"],
    ["sample", "--ell", "4", "--M", "6", "--shots", "10"],
    ["sample", "--ell", "4", "--state", "plus^8", "--shots", "10"],
    ["sample", "--ell", "5", "--M", "4", "--shots", "32258"],
    # a chart path that cannot be written, after the CSV is
    ["purify", "--ell", "1", "--svg", "no-such-directory/x.svg"],
    ["cycle", "--ell", "1", "--cycles", "2", "--svg", "."],
])
def test_limits_exit_one_with_one_line(tmp_path, capsys, argv):
    # twirl-check has no --channel: the flag would be an error of its own
    channel = [] if argv[0] == "twirl-check" else ["--channel", "local-depol"]
    argv = argv[:1] + channel + ["--p", "0.2", "--out", str(tmp_path / "x.csv")] + argv[1:]
    if "--M" not in argv and "--state" not in argv:
        argv += ["--M", "1"]
    assert _exit_code(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "error" in err


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 9.77 GiB"), MemoryError()])
@pytest.mark.parametrize("command", ["sweep", "threshold"])
def test_out_of_memory_exits_one_with_one_line(tmp_path, capsys, monkeypatch, exc, command):
    # a backstop for a run the limits admit but the machine cannot hold
    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(pqec.cli, "sweep", out_of_memory)
    assert main([command, "--channel", "local-depol", "--M", "1", "--p", "0:1:3",
                 "--ell", "0,1", "--out", str(tmp_path / "x.csv")]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("pqec: error: out of memory: ")
    assert not (tmp_path / "x.csv").exists()


def test_sample_enumerates_the_tree_once_per_run(tmp_path, monkeypatch):
    # 20 batches of 2 shots at l = 4 share one enumeration; each batch is one CSV row
    import pqec.montecarlo
    calls = []
    enumerate_once = pqec.montecarlo.enumerate_outcomes
    monkeypatch.setattr(pqec.montecarlo, "enumerate_outcomes",
                        lambda *args: calls.append(args) or enumerate_once(*args))
    out = tmp_path / "sample.csv"
    assert main(["sample", "--state", "zero^1", "--channel", "local-depol", "--p", "0.01",
                 "--ell", "4", "--shots", "2", "--batches", "20", "--out", str(out)]) == EXIT_OK
    assert len(calls) == 1
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 21


def test_usage_errors_exit_one(tmp_path, capsys):
    for grid in ("1.5", "0,nan"):
        assert _exit_code(["sweep", "--channel", "local-depol", "--M", "1", "--p", grid,
                           "--ell", "0,1", "--out", str(tmp_path / "x.csv")]) == EXIT_ERROR
        assert len(capsys.readouterr().err.splitlines()) == 1
    assert _exit_code(["cycle", "--channel", "global-depol", "--p", "0.1", "--ell", "1",
                       "--M", "2", "--state", "plus^3",
                       "--out", str(tmp_path / "y.csv")]) == EXIT_ERROR
    assert len(capsys.readouterr().err.splitlines()) == 1
    # purify, cycle and sample run one p; cycle and sample run one ell
    for flag, argv in [("--p", ["purify", "--p", "0.1,0.5", "--ell", "1"]),
                       ("--p", ["cycle", "--p", "0:1:5", "--ell", "1"]),
                       ("--p", ["sample", "--p", "0.3,0.01", "--ell", "1", "--shots", "10"]),
                       ("--ell", ["sample", "--p", "0.3", "--ell", "1,2", "--shots", "10"])]:
        out = tmp_path / f"{argv[0]}.csv"
        assert _exit_code(argv + ["--channel", "local-depol", "--M", "1",
                                  "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{flag} must be a single value" in err
        assert not out.exists()


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_version_declared_once():
    # pyproject.toml reads the version from the package; this needs no network
    config = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = Path(__file__).resolve().parents[1]
    project = config.read_configuration(root / "pyproject.toml")["project"]
    assert project["version"] == pqec.__version__


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PQEC_OUTPUT_DIR", str(tmp_path))
    code = main(["twirl-check", "--M", "1", "--p", "0.1"])
    assert code == EXIT_OK
    assert (tmp_path / "twirl-check.csv").exists()