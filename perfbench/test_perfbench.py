"""Self-test of the benchmark at toy sizes: python3 -m pytest -q perfbench

Runs every workload traced and untraced, checks that the checkers catch
corrupted outputs, that traced counts repeat exactly for a seed, and that
the printed result follows the contract in BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def error_rate(ops):
    return sum(1 for ok, _ in ops if not ok) / len(ops)


def _units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_benchmark_json_matches_code():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == workloads.WHY
    assert END_TO_END == run.END_TO_END_UNITS
    assert PER_LAYER == spans.PER_LAYER_UNITS
    recorded = json.loads((HERE / "trajectory.json").read_text())
    assert recorded["description"] == workloads.describe()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_toy_workload(name):
    plain = run.run(name, seed=5, seconds=0, trace=False, sizes=workloads.TOY)
    assert plain["failed"] == 0, plain["failures"]
    assert _units(plain) == END_TO_END
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    first = run.run(name, seed=5, seconds=0, trace=True, sizes=workloads.TOY)
    second = run.run(name, seed=5, seconds=0, trace=True, sizes=workloads.TOY)
    for result in (first, second):
        assert result["failed"] == 0, result["failures"]
        assert result["missing_hooks"] == []
        assert _units(result) == PER_LAYER
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    counts = {k: first["metrics"][k]["value"] for k in spans.COUNT_METRICS}
    assert counts == {k: second["metrics"][k]["value"] for k in spans.COUNT_METRICS}
    layer_calls = {
        "sweep-threshold": ("threshold.run_cycles.calls", "states.eigh.calls",
                            "channels.apply.calls.dephasing"),
        "sweep-twirl": ("channels.apply.calls.twirled-dephasing", "channels.twirl.sequences",
                        "channels.twirl.flop_computed"),
        "sample-tree": ("purify.swap_gadget.calls", "purify.enumerate_outcomes.branches",
                        "montecarlo.sample_outcome_tree.calls"),
        "sweep-parallel": ("threshold.pool.workers", "threshold.run_cycles.calls"),
    }[name]
    assert all(counts[k] > 0 for k in layer_calls)


def _cli_csv(tmp_path, argv):
    import pqec.cli
    out = tmp_path / "out.csv"
    assert pqec.cli.main(list(argv) + ["--out", str(out)]) == 0
    return out.read_text()


def test_checkers_flag_corrupted_outputs(tmp_path):
    run.import_pqec()
    sizes = workloads.TOY

    w = workloads.build("sweep-threshold", 1, sizes)
    good = _cli_csv(tmp_path, w.commands[1].argv)
    assert error_rate(w.commands[1].check(good)) == 0
    header = next(line for line in good.splitlines() if line.startswith("# p-threshold"))
    bad = good.replace(header, "# p-threshold: 0.7")
    assert error_rate(w.commands[1].check(bad)) > 0

    w = workloads.build("sample-tree", 1, sizes)
    good = _cli_csv(tmp_path, w.commands[0].argv)
    assert error_rate(w.commands[0].check(good)) == 0
    head, last = good.rstrip("\n").rsplit("\n", 1)
    fields = last.split(",")
    exact = workloads.bloch_exact(workloads.SAMPLE_P, sizes.enum_ell)
    fields[4] = repr(exact + 10 * float(fields[5]))
    bad = head + "\n" + ",".join(fields) + "\n"
    assert error_rate(w.commands[0].check(bad)) > 0

    serial = workloads.build("sweep-parallel", 1, sizes, 2).reference[0]
    good = _cli_csv(tmp_path, serial.argv)
    w = workloads.build("sweep-parallel", 1, sizes, 2, {serial.label: good})
    assert error_rate(w.commands[0].check(good)) == 0
    bad = good[:-2] + ("0" if good[-2] != "0" else "1") + good[-1]
    assert error_rate(w.commands[0].check(bad)) > 0


def test_twirl_closed_form_matches_cli(tmp_path):
    """Seeds 10 and 21 put the M=5 threshold above criterion 07's 0.8."""
    run.import_pqec()
    for seed in (7, 10, 21):
        w = workloads.build("sweep-twirl", seed, workloads.FULL)
        assert error_rate(w.commands[0].check(_cli_csv(tmp_path, w.commands[0].argv))) == 0


def _bench(cwd, *extra):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-threshold",
                           "--seed", "2", "--seconds", "0", *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_result_follows_contract(trace):
    proc = _bench(run.ROOT, "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units({"metrics": result["metrics"]}) == (PER_LAYER if trace == "1" else END_TO_END)
    for name, metric in result["metrics"].items():
        assert f"{name} {metric['value']!r} {metric['unit']}" in lines
    assert any(line.startswith("error_rate 0.0 ratio") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("environment "))[12:])
    assert {"nproc", "affinity", "cpu_model", "python", "numpy", "blas", "blas_env",
            "commit"} <= set(env)


def test_fails_without_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
