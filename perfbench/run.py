"""pqec benchmark: drive the CLI in-process on one workload and report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-threshold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
times the workload untraced for half the run and traced for the other half,
and reports the per-layer metrics of the traced half. The last line of
standard output is one JSON object; the lines before it name every metric
with its unit, the error rate and the environment. Outputs, span files and
a result file with every sample go to ``.perfbench_work/`` in the checkout.
The program is imported from the checkout's ``src/``; BLAS thread variables
are inherited and never set. End-to-end times are in reference seconds (see
``CALIBRATION_REF_S``); per-layer span times are wall seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
SETUP_RUNS = 7

# A shared host's speed drifts by up to 1.5x over seconds to minutes. A
# fixed loop (``calibration_s``) timed right before and after each CLI call
# and each set-up sample tracks that drift, and times are reported in
# reference seconds: scaled to a machine state in which the loop takes
# CALIBRATION_REF_S. Wall seconds go to the result file.
CALIBRATION_REF_S = 0.0025
_CALIBRATION_ARRAY = np.linspace(0.0, 1.0, 4096)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Printed by a fresh interpreter once the CLI module is imported and its
# parser built; the parent subtracts its own clock reading taken before the
# spawn. CLOCK_MONOTONIC is shared by all processes on Linux.
SETUP_CODE = ("import pqec.cli, time; pqec.cli.build_parser(); "
              "print(time.clock_gettime(time.CLOCK_MONOTONIC))")


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no pqec sources)."""


def import_pqec():
    """Import pqec from this checkout's src/, and only from there."""
    if not (SRC / "pqec" / "cli.py").is_file():
        raise BenchError(f"no pqec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pqec
    import pqec.cli
    if Path(pqec.__file__).resolve().parent != (SRC / "pqec").resolve():
        raise BenchError(f"imported pqec from {pqec.__file__}, not from {SRC}")
    return pqec


def environment() -> dict:
    """Machine, interpreter, BLAS and commit of this run."""
    cpu_model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": commit,
    }


def calibration_s() -> float:
    """Machine speed probe: the fastest of three runs of a fixed loop.

    The loop mixes Python arithmetic and numpy ufuncs and calls neither pqec
    nor BLAS, so no program change and no BLAS thread setting moves it; only
    the machine's speed does. The minimum drops interrupts that hit one run.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20_000):
            acc += i * 0.5
        for _ in range(170):
            acc += float((_CALIBRATION_ARRAY * 1.0001 + 0.5)[7])
        best = min(best, time.perf_counter() - t0)
    return best


def setup_sample(env: dict):
    """Reference and wall seconds from spawning a fresh interpreter to a
    built CLI parser."""
    before = calibration_s()
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
    wall = float(proc.stdout.split()[-1]) - t0
    return wall * 2.0 * CALIBRATION_REF_S / (before + calibration_s()), wall


def setup_env() -> dict:
    """The inherited environment with this checkout's src/ on the path.

    One unrecorded spawn fills the bytecode cache, which users do not pay on
    every call.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    setup_sample(env)
    return env


class Runner:
    """Runs a workload's commands through ``pqec.cli.main`` and checks them."""

    def __init__(self, pqec, name: str, seed: int, sizes: workloads.Sizes):
        self.pqec = pqec
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.cpus = len(os.sched_getaffinity(0))
        self.outdir = WORK / name
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.ops: list[tuple[bool, str]] = []
        self.workload = workloads.build(name, seed, sizes, self.cpus)
        self.main = pqec.cli.main

    def call(self, command: workloads.Command, check=True):
        """One CLI call, calibrated around it.

        Returns (reference seconds, wall seconds until the CSV exists, CSV text).
        """
        path = self.outdir / (command.label.replace("/", "_") + ".csv")
        argv = list(command.argv) + ["--out", str(path)]
        if path.exists():
            path.unlink()
        sink = io.StringIO()
        before = calibration_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing command is one failed operation
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        reference = wall * 2.0 * CALIBRATION_REF_S / (before + calibration_s())
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        if code != 0 or not text:
            self.ops.append((False, f"{command.label}: exit {code!r}, "
                                    f"output {sink.getvalue().strip()[-300:]!r}"))
        elif check:
            self.ops.extend(command.check(text))
        return reference, wall, text

    def prepare(self):
        """Run the reference commands once and rebuild the workload with them."""
        if self.workload.reference:
            refs = {}
            for command in self.workload.reference:
                refs[command.label] = self.call(command)[2]
            self.workload = workloads.build(self.name, self.seed, self.sizes, self.cpus, refs)

    def warm_up(self):
        """One unchecked, untimed pass at toy size: imports and lazy set-up."""
        toy = workloads.build(self.name, self.seed, workloads.TOY, self.cpus)
        for command in toy.reference + toy.commands:
            self.call(command, check=False)

    def iteration(self):
        """Reference and wall seconds of the timed commands."""
        times = [self.call(c)[:2] for c in self.workload.commands]
        return sum(r for r, _ in times), sum(w for _, w in times)

    def loop(self, seconds: float, body, between=None) -> list:
        """Call ``body`` until ``seconds`` have passed; at least once.

        ``between(elapsed)`` runs before each call, outside its timing.
        """
        results = []
        t0 = time.perf_counter()
        while not results or time.perf_counter() - t0 < seconds:
            if between is not None:
                between(time.perf_counter() - t0)
            results.append(body())
        return results

    def traced_iteration(self, rec: spans.Recorder):
        """One iteration with spans on; also re-runs the references at jobs=1.

        Returns the reference and wall seconds of the timed commands and
        the iteration's (per-layer metrics, spans).
        """
        rec.clear()
        self.main = rec.wrap(spans.ROOT, self.pqec.cli.main)
        try:
            reference_s = sum(self.call(c)[1] for c in self.workload.reference)
            child0 = os.times()
            solve, wall = self.iteration()
            child1 = os.times()
        finally:
            self.main = self.pqec.cli.main
        pool = None
        if self.workload.reference:
            pool = {"child_cpu_s": (child1.children_user + child1.children_system)
                    - (child0.children_user + child0.children_system)}
        span_set = rec.spans()
        metrics = spans.iteration_metrics(span_set, wall + reference_s, pool)
        return solve, wall, (metrics, span_set)


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: workloads.Sizes = workloads.FULL) -> dict:
    """Measure one workload; returns the result dict that is printed."""
    pqec = import_pqec()
    runner = Runner(pqec, name, seed, sizes)
    runner.warm_up()
    runner.prepare()
    result = {"workload": name, "seed": seed, "sizes": vars(sizes), "environment": environment()}
    if not trace:
        # Set-up samples are spread over the run as well.
        env, setup = setup_env(), []

        def sample_setup(elapsed):
            if len(setup) < SETUP_RUNS and elapsed >= len(setup) * seconds / SETUP_RUNS:
                setup.append(setup_sample(env))

        solves = runner.loop(seconds, runner.iteration, sample_setup)
        while len(setup) < SETUP_RUNS:
            setup.append(setup_sample(env))
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {"setup_s": statistics.median(s for s, _ in setup),
                   "solve_s": statistics.median(s for s, _ in solves),
                   "peak_rss_mb": rss_kb / 1024.0}
        units = END_TO_END_UNITS
        result["samples"] = {"setup_s": setup, "solve_s": solves}
    else:
        untraced = runner.loop(seconds / 2, runner.iteration)
        rec = spans.Recorder()
        spans.install(rec, pqec)
        try:
            traced = runner.loop(seconds / 2, lambda: runner.traced_iteration(rec))
        finally:
            rec.restore()
        metrics = spans.combine([m for _, _, (m, _) in traced],
                                [s for s, _, _ in traced], [s for s, _ in untraced])
        units = spans.PER_LAYER_UNITS
        traced[0][2][1].write_csv(WORK / f"{name}-spans.csv")
        result["samples"] = {"solve_s": untraced,
                             "traced_solve_s": [t[:2] for t in traced]}
        result["missing_hooks"] = rec.missing
    failed = sum(1 for ok, _ in runner.ops if not ok)
    result.update(attempted=len(runner.ops), failed=failed,
                  error_rate=failed / max(len(runner.ops), 1),
                  failures=[d for ok, d in runner.ops if not ok][:20],
                  metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy problem sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     workloads.TOY if args.toy else workloads.FULL)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    print(f"error_rate {result['error_rate']!r} ratio "
          f"({result['failed']} of {result['attempted']} checked operations failed)")
    for detail in result["failures"]:
        print(f"FAILED {detail}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
