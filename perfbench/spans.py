"""In-memory span recorder for the traced benchmark run.

The recorder wraps functions of the ``pqec`` package from the outside: no
file under ``src/`` knows about it. Because ``from .x import y`` copies the
binding into the importing module, a function is wrapped by rebinding the
name that its *caller* looks up (for example ``pqec.threshold.purified_state``
rather than ``pqec.purify.purified_state``). Spans are kept in memory as
parallel lists and turned into self times when the run ends.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from dataclasses import dataclass, field

_clock = time.perf_counter_ns


class Recorder:
    """Spans (name, start, end, parent) plus per-span attributes.

    Only the process that created the recorder records: a forked pool worker
    inherits the wrapped functions, but its spans could never reach the
    parent, so after a fork the wrappers call straight through.
    """

    def __init__(self):
        self.active = True
        self._patches = []
        self.missing = []
        self.clear()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.active = False

    def clear(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, post=None):
        """Return ``fn`` recording one span per call.

        ``post(recorder, index, args, kwargs, result)`` runs after the span has
        closed and returns the value handed back to the caller, so it may
        attach attributes or wrap a returned closure.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.starts)
            rec.names.append(name)
            rec.parents.append(rec._stack[-1] if rec._stack else -1)
            rec.ends.append(0)
            rec._stack.append(idx)
            rec.starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[idx] = _clock()
                rec._stack.pop()
            if post is not None:
                result = post(rec, idx, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, post=None):
        """Rebind ``owner.attr`` to a recording wrapper; undone by ``restore``.

        A missing attribute is noted in ``missing`` instead of failing, so a
        renamed function zeroes its metrics rather than the whole run.
        """
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, self.wrap(name, original, post))

    def restore(self):
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def spans(self) -> "SpanSet":
        return SpanSet(list(self.names), list(self.starts), list(self.ends),
                       list(self.parents), dict(self.attrs))


@dataclass
class SpanSet:
    """A closed batch of spans with derived durations and self times (ns)."""

    names: list
    starts: list
    ends: list
    parents: list
    attrs: dict
    dur: list = field(init=False)
    self_ns: list = field(init=False)

    def __post_init__(self):
        self.dur = [e - s for s, e in zip(self.starts, self.ends)]
        self.self_ns = list(self.dur)
        self._by_name = {}
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                self.self_ns[parent] -= self.dur[i]
            self._by_name.setdefault(self.names[i], []).append(i)

    def indices(self, name):
        return self._by_name.get(name, [])

    def calls(self, name) -> int:
        return len(self.indices(name))

    def self_s(self, name) -> float:
        return sum(self.self_ns[i] for i in self.indices(name)) / 1e9

    def total_s(self, name) -> float:
        return sum(self.dur[i] for i in self.indices(name)) / 1e9

    def attr(self, i, key, default=None):
        return self.attrs.get(i, {}).get(key, default)

    def write_csv(self, path):
        """Spans with their self times, in microseconds from the first start."""
        t0 = min(self.starts, default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,parent,start_us,end_us,self_us\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.parents[i]},{(self.starts[i] - t0) / 1e3:.3f},"
                         f"{(self.ends[i] - t0) / 1e3:.3f},{self.self_ns[i] / 1e3:.3f}\n")


# ----------------------------------------------------------------------
# Hooks into pqec
# ----------------------------------------------------------------------

def _set(rec, idx, **values):
    rec.attrs.setdefault(idx, {}).update(values)


def twirl_cost(qubits: int, sequences: int):
    """Computed flop and byte counts of one twirled-dephasing application.

    Follows ``apply_twirled_dephasing`` on T = ``sequences`` frames of D x D
    complex matrices: four batched matmuls (8 D**3 real flop each per frame),
    M dephasing passes of four elementwise ops, and the mean over frames.
    Bytes assume every numpy operation streams its operands from memory
    once (16 B per complex entry, 8 B per real mask entry); cache reuse is
    ignored, so both figures are computed, not measured.
    """
    d2 = (2 ** qubits) ** 2
    d3 = (2 ** qubits) ** 3
    t = sequences
    flop = 32 * t * d3 + (8 * qubits + 2) * t * d2
    complex_entries = (14 + 7 * qubits) * t * d2 + 2 * d2
    return flop, 16 * complex_entries + 8 * qubits * d2


def _twirl_sequences(model, qubits) -> int:
    """Size of the seeded twirl subset that ``make_channel`` draws."""
    if model.kind != "twirled-dephasing":
        return 0
    total = 3 ** qubits
    return total if model.twirl_fraction == 1.0 else math.ceil(model.twirl_fraction * total)


def install(rec: Recorder, pqec) -> None:
    """Wrap the public calls of each pqec module at the caller's binding."""
    cli, threshold, purify, montecarlo, states = (
        pqec.cli, pqec.threshold, pqec.purify, pqec.montecarlo, pqec.states)

    def channel_post(rec, idx, args, kwargs, chan):
        model, qubits = args[0], args[1]
        seqs = _twirl_sequences(model, qubits)
        _set(rec, idx, kind=model.kind, sequences=seqs)
        post = None
        if seqs:
            flop, nbytes = twirl_cost(qubits, seqs)

            def post(rec, i, a, k, out):
                _set(rec, i, flop=flop, bytes=nbytes)
                return out
        return rec.wrap(f"channels.apply.{model.kind}", chan, post)

    def attr_post(**getters):
        def post(rec, idx, args, kwargs, result):
            _set(rec, idx, **{k: g(args, kwargs, result) for k, g in getters.items()})
            return result
        return post

    # cli: parsing, the sweep/sample calls it makes, and CSV output
    rec.patch(cli, "build_parser", "cli.build_parser")
    rec.patch(cli._Parser, "parse_args", "cli.parse_args")
    rec.patch(cli.ResultTable, "format_csv", "cli.format_csv",
              attr_post(bytes=lambda a, k, r: len(r.encode())))
    rec.patch(cli.ResultTable, "write", "cli.write")
    rec.patch(cli, "sweep", "threshold.sweep",
              attr_post(jobs=lambda a, k, r: int(k.get("jobs", 1))))
    rec.patch(cli, "find_threshold", "threshold.find_threshold")
    rec.patch(cli, "make_channel", "channels.make_channel", channel_post)
    rec.patch(cli, "extract_observable_exact", "purify.extract_observable_exact")
    rec.patch(cli, "simulate_shots", "montecarlo.simulate_shots",
              attr_post(rounds=lambda a, k, r: a[2], shots=lambda a, k, r: a[3]))
    rec.patch(cli, "ratio_estimate", "montecarlo.ratio_estimate",
              attr_post(unstable=lambda a, k, r: bool(r.unstable_denominator)))
    # threshold: one span per sweep cell and per call inside a cycle
    rec.patch(threshold, "run_cycles", "threshold.run_cycles",
              attr_post(qubits=lambda a, k, r: r.qubits))
    rec.patch(threshold, "make_channel", "channels.make_channel", channel_post)
    rec.patch(threshold, "purified_state", "purify.purified_state")
    rec.patch(threshold, "fidelity", "states.fidelity")
    # montecarlo and purify: the outcome tree and its gadgets
    rec.patch(montecarlo, "enumerate_outcomes", "purify.enumerate_outcomes",
              attr_post(rounds=lambda a, k, r: a[1], branches=lambda a, k, r: len(r)))
    rec.patch(montecarlo, "sample_outcome_tree", "montecarlo.sample_outcome_tree",
              attr_post(rounds=lambda a, k, r: a[1]))
    rec.patch(montecarlo, "swap_gadget", "purify.swap_gadget")
    rec.patch(purify, "swap_gadget", "purify.swap_gadget")
    # states: every eigendecomposition goes through spectral_decomposition
    rec.patch(states, "spectral_decomposition", "states.spectral_decomposition")
    rec.patch(purify, "spectral_decomposition", "states.spectral_decomposition")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

KINDS = ("global-depol", "local-depol", "dephasing", "twirled-dephasing")

# Root span of each CLI command; its direct children are the layer calls.
ROOT = "cli.main"

# Metric name -> unit. Counts, computed flop and bytes must repeat exactly
# for two traced runs with the same seed.
PER_LAYER_UNITS = {
    "states.eigh.calls": "count",
    "states.eigh.self_s": "s",
    "states.eigh.us_per_call": "us",
    "states.fidelity.calls": "count",
    "states.fidelity.self_s": "s",
    **{f"channels.apply.calls.{k}": "count" for k in KINDS},
    **{f"channels.apply.self_s.{k}": "s" for k in KINDS},
    **{f"channels.apply.us_per_call.{k}": "us" for k in KINDS},
    "channels.make_channel.calls": "count",
    "channels.make_channel.self_s": "s",
    "channels.twirl.sequences": "count",
    "channels.twirl.flop_computed": "flop",
    "channels.twirl.bytes_computed": "B",
    "purify.purified_state.calls": "count",
    "purify.purified_state.self_s": "s",
    "purify.swap_gadget.calls": "count",
    "purify.swap_gadget.self_s": "s",
    "purify.enumerate_outcomes.s": "s",
    "purify.enumerate_outcomes.branches": "count",
    "purify.enumerate_outcomes.kept_ratio": "ratio",
    "montecarlo.shots_per_s.ell4": "1/s",
    "montecarlo.shots_per_s.ell6": "1/s",
    "montecarlo.sample_outcome_tree.calls": "count",
    "montecarlo.sample_outcome_tree.self_s": "s",
    "montecarlo.gadgets_per_shot.ell6": "count",
    "montecarlo.ratio_estimate.self_s": "s",
    "montecarlo.unstable_batches": "count",
    "threshold.run_cycles.calls": "count",
    "threshold.run_cycles.self_s": "s",
    "threshold.run_cycles.ms_p50": "ms",
    "threshold.run_cycles.ms_p90": "ms",
    "threshold.pool.workers": "count",
    "threshold.pool.cpu_util": "ratio",
    "threshold.pool.overhead_s": "s",
    "cli.parse_s": "s",
    "cli.format_csv.self_s": "s",
    "cli.csv_bytes": "B",
    "cli.write_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

COUNT_METRICS = tuple(n for n, u in PER_LAYER_UNITS.items() if u in ("count", "flop", "B"))


def _per_call_us(self_s, calls):
    return self_s / calls * 1e6 if calls else 0.0


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def iteration_metrics(s: SpanSet, solve_s: float, pool: dict | None) -> dict:
    """Per-layer figures of one traced workload iteration.

    ``pool`` carries the child CPU seconds measured around a parallel sweep;
    it is None on workloads without a process pool.
    """
    m = {}
    eigh = "states.spectral_decomposition"
    m["states.eigh.calls"] = s.calls(eigh)
    m["states.eigh.self_s"] = s.self_s(eigh)
    m["states.eigh.us_per_call"] = _per_call_us(m["states.eigh.self_s"], m["states.eigh.calls"])
    m["states.fidelity.calls"] = s.calls("states.fidelity")
    m["states.fidelity.self_s"] = s.self_s("states.fidelity")
    for k in KINDS:
        name = f"channels.apply.{k}"
        calls, self_s = s.calls(name), s.self_s(name)
        m[f"channels.apply.calls.{k}"] = calls
        m[f"channels.apply.self_s.{k}"] = self_s
        m[f"channels.apply.us_per_call.{k}"] = _per_call_us(self_s, calls)
    builds = s.indices("channels.make_channel")
    m["channels.make_channel.calls"] = len(builds)
    m["channels.make_channel.self_s"] = s.self_s("channels.make_channel")
    m["channels.twirl.sequences"] = max((s.attr(i, "sequences", 0) for i in builds), default=0)
    twirled = s.indices("channels.apply.twirled-dephasing")
    m["channels.twirl.flop_computed"] = sum(s.attr(i, "flop", 0) for i in twirled)
    m["channels.twirl.bytes_computed"] = sum(s.attr(i, "bytes", 0) for i in twirled)

    m["purify.purified_state.calls"] = s.calls("purify.purified_state")
    m["purify.purified_state.self_s"] = s.self_s("purify.purified_state")
    m["purify.swap_gadget.calls"] = s.calls("purify.swap_gadget")
    m["purify.swap_gadget.self_s"] = s.self_s("purify.swap_gadget")
    enum = s.indices("purify.enumerate_outcomes")
    branches = sum(s.attr(i, "branches") for i in enum)
    possible = sum(2 ** (2 ** s.attr(i, "rounds") - 1) for i in enum)
    m["purify.enumerate_outcomes.s"] = s.total_s("purify.enumerate_outcomes")
    m["purify.enumerate_outcomes.branches"] = branches
    m["purify.enumerate_outcomes.kept_ratio"] = branches / possible if possible else 0.0

    sims = s.indices("montecarlo.simulate_shots")
    for ell in (4, 6):
        mine = [i for i in sims if s.attr(i, "rounds") == ell]
        secs = sum(s.dur[i] for i in mine) / 1e9
        shots = sum(s.attr(i, "shots") for i in mine)
        m[f"montecarlo.shots_per_s.ell{ell}"] = shots / secs if secs else 0.0
    trees = s.indices("montecarlo.sample_outcome_tree")
    m["montecarlo.sample_outcome_tree.calls"] = len(trees)
    m["montecarlo.sample_outcome_tree.self_s"] = s.self_s("montecarlo.sample_outcome_tree")
    trees6 = {i for i in trees if s.attr(i, "rounds") == 6}
    gadgets6 = sum(1 for i in s.indices("purify.swap_gadget") if s.parents[i] in trees6)
    m["montecarlo.gadgets_per_shot.ell6"] = gadgets6 / len(trees6) if trees6 else 0
    m["montecarlo.ratio_estimate.self_s"] = s.self_s("montecarlo.ratio_estimate")
    m["montecarlo.unstable_batches"] = sum(
        1 for i in s.indices("montecarlo.ratio_estimate") if s.attr(i, "unstable"))

    cells = s.indices("threshold.run_cycles")
    m["threshold.run_cycles.calls"] = len(cells)
    m["threshold.run_cycles.self_s"] = s.self_s("threshold.run_cycles")
    big = sorted(s.dur[i] / 1e6 for i in cells if s.attr(i, "qubits") == 5)
    m["threshold.run_cycles.ms_p50"] = _quantile(big, 50)
    m["threshold.run_cycles.ms_p90"] = _quantile(big, 90)
    m["threshold.pool.workers"] = 0
    m["threshold.pool.cpu_util"] = 0.0
    m["threshold.pool.overhead_s"] = 0.0
    par = [i for i in s.indices("threshold.sweep") if s.attr(i, "jobs", 1) > 1]
    if pool is not None and par:
        # Cells ran in the workers; the spans of the jobs=1 reference give
        # their serial time for one sweep.
        workers = max(s.attr(i, "jobs") for i in par)
        wall = sum(s.dur[i] for i in par) / 1e9
        serial_cells = sum(s.dur[i] for i in cells) / 1e9
        m["threshold.pool.workers"] = workers
        m["threshold.pool.cpu_util"] = pool["child_cpu_s"] / (wall * workers)
        m["threshold.pool.overhead_s"] = wall / len(par) - serial_cells / workers

    m["cli.parse_s"] = s.total_s("cli.build_parser") + s.total_s("cli.parse_args")
    m["cli.format_csv.self_s"] = s.self_s("cli.format_csv")
    m["cli.csv_bytes"] = sum(s.attr(i, "bytes", 0) for i in s.indices("cli.format_csv"))
    m["cli.write_s"] = s.self_s("cli.write")

    roots = set(s.indices(ROOT))
    covered = sum(s.dur[i] for i, p in enumerate(s.parents) if p in roots) / 1e9
    m["trace.coverage"] = covered / solve_s if solve_s else 0.0
    return m


def combine(per_iteration: list[dict], traced_solve: list[float],
            untraced_solve: list[float]) -> dict:
    """Counts from the first traced iteration, times as medians over all."""
    out = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in per_iteration]
        out[name] = values[0] if name in COUNT_METRICS else statistics.median(values)
    out["trace.overhead_s"] = statistics.median(traced_solve) - statistics.median(untraced_solve)
    return out
