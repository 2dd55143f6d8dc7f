"""Workload definitions and output checkers for the pqec benchmark.

Each workload is a list of ``pqec`` CLI command lines. A checker reads the
CSV a command wrote and returns one ``(ok, detail)`` pair per checked
operation: one per command, or one per batch for ``sample``. Checkers use
only the CSV text and closed forms computed here, never pqec itself, so a
wrong result cannot check itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Criterion-05 cases: (channel, M, expected threshold). The thresholds are
# the p where the channel sends the target to the maximally mixed state (or
# its dephased version), so every rounds pair crosses there.
THRESHOLD_CASES = (
    ("global-depol", 1, 1.00),
    ("local-depol", 1, 0.75),
    ("local-depol", 5, 0.75),
    ("dephasing", 1, 0.50),
    ("dephasing", 5, 0.50),
)
THRESHOLD_TOL = 0.02
PARALLEL_CASE = ("local-depol", 5, 0.75)

# Sampling: zero^1 under local depolarizing, so the exact value follows the
# Bloch recursion. p is small enough that Tr(rho^64) = 0.65 keeps every
# 100-shot batch at l=6 clear of the unstable-denominator flag.
SAMPLE_P = 0.01
PULL_LIMIT = 4.0
EXACT_TOL = 1e-12

TWIRL_FRACTION = 0.2


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is what the benchmark measures."""

    grid: str            # p grid of the threshold cases, min:max:count
    ell: str             # rounds values of the threshold cases
    cycles: int
    twirl_grid: str
    twirl_ell: str
    twirl_cycles: int
    twirl_m: int
    enum_ell: int        # sample at l <= 4 walks the whole outcome tree
    enum_shots: int
    shot_ell: int        # sample at l > 4 draws the tree shot by shot
    shot_batches: int
    shot_shots: int
    par_grid: str        # the parallel case; repeated since one pool run is noisy
    par_cycles: int
    par_repeats: int


# The threshold depends only on the first cycle, so fewer cycles than the
# acceptance sweep's 30 leave every checked value unchanged.
FULL = Sizes(grid="0:1:41", ell="0,1,2,3,5", cycles=4,
             twirl_grid="0:1:21", twirl_ell="0,1,2", twirl_cycles=2, twirl_m=5,
             enum_ell=4, enum_shots=100000,
             shot_ell=6, shot_batches=3, shot_shots=100,
             par_grid="0:1:5", par_cycles=1, par_repeats=16)
TOY = Sizes(grid="0:1:21", ell="0,1", cycles=1,
            twirl_grid="0:1:11", twirl_ell="0,1", twirl_cycles=1, twirl_m=3,
            enum_ell=2, enum_shots=2000,
            shot_ell=5, shot_batches=2, shot_shots=100,
            par_grid="0:1:5", par_cycles=1, par_repeats=2)


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments (without ``--out``) and its checker."""

    label: str
    argv: tuple
    check: object        # callable(csv_text) -> list[(ok, detail)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layers: tuple
    commands: tuple      # timed; their wall time is solve_s
    reference: tuple = ()  # run once before timing, and traced at jobs=1


# ----------------------------------------------------------------------
# CSV parsing
# ----------------------------------------------------------------------

def parse_csv(text: str):
    """Header comments as a dict, then the table rows as dicts of strings."""
    header, rows, columns = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(dict(zip(columns, line.split(","))))
    return header, rows


# ----------------------------------------------------------------------
# Independent references
# ----------------------------------------------------------------------

def bloch_exact(p: float, rounds: int) -> float:
    """<Z> of purified zero^1 after local depolarizing, by r -> 2r/(1+r^2)."""
    r = 1.0 - 4.0 * p / 3.0
    for _ in range(rounds):
        r = 2.0 * r / (1.0 + r * r)
    return r


def twirl_subset(qubits: int, fraction: float, seed: int):
    """Frame of each qubit (0: I, 1: H, 2: HS) in the seeded twirl subset.

    Mirrors the documented draw: ceil(fraction * 3**M) indices of a seeded
    permutation, each read as M base-3 digits, qubit 0 most significant.
    """
    total = 3 ** qubits
    count = total if fraction == 1.0 else math.ceil(fraction * total)
    indices = np.random.default_rng(seed).permutation(total)[:count]
    digits = [(indices // 3 ** (qubits - 1 - q)) % 3 for q in range(qubits)]
    return np.stack(digits, axis=1)


def twirl_gamma(frames: np.ndarray, p: float, rounds: int) -> float:
    """First-cycle fidelity drop of plus^M under a twirled dephasing subset.

    Each frame dephases qubit q along Z, X or Y (frame I, H, HS). The channel
    is Pauli diagonal and plus^M has weight only on X-type strings, where a
    qubit's factor is 1 if its frame is H and 1 - 2p otherwise. The output is
    diagonal in the |+/->^M basis, with eigenvalues the Walsh-Hadamard
    transform of the averaged factors, so purification just powers them.
    """
    m = frames.shape[1]
    keep = np.where(frames == 1, 1.0, 1.0 - 2.0 * p)          # (T, M)
    subsets = (np.arange(2 ** m)[:, None] >> np.arange(m - 1, -1, -1)) & 1  # (2^M, M)
    lam = np.prod(np.where(subsets[None, :, :] == 1, keep[:, None, :], 1.0),
                  axis=2).mean(axis=0)                          # X-string eigenvalues
    signs = 1.0 - 2.0 * ((subsets @ subsets.T) % 2)             # (-1)^{|b & S|}
    mu = np.clip(signs @ lam / 2 ** m, 0.0, None)
    weights = mu ** (2 ** rounds) if rounds else mu
    return 1.0 - weights[0] / weights.sum()


def crossing_threshold(p_values, rounds, gamma) -> float | None:
    """Median of consecutive-pair crossings, by the documented rule.

    A pair crosses at the first grid step where gamma_high - gamma_low goes
    from below -1e-12 to at least -1e-12, interpolated linearly.
    """
    order = np.argsort(rounds)
    crossings = []
    for lo, hi in zip(order, order[1:]):
        diff = gamma[:, hi] - gamma[:, lo]
        for i in range(1, diff.size):
            if diff[i - 1] < -1e-12 <= diff[i]:
                frac = -diff[i - 1] / (diff[i] - diff[i - 1])
                crossings.append(p_values[i - 1] + frac * (p_values[i] - p_values[i - 1]))
                break
    return float(np.median(crossings)) if crossings else None


@functools.lru_cache(maxsize=8)
def twirl_threshold(qubits: int, seed: int, grid: str, ells: str) -> float | None:
    """Threshold of the seeded twirl subset on plus^M, from ``twirl_gamma``."""
    lo, hi, count = grid.split(":")
    p_values = np.linspace(float(lo), float(hi), int(count))
    rounds = [int(e) for e in ells.split(",")]
    frames = twirl_subset(qubits, TWIRL_FRACTION, seed)
    gamma = np.array([[twirl_gamma(frames, p, r) for r in rounds] for p in p_values])
    return crossing_threshold(p_values, rounds, gamma)


# ----------------------------------------------------------------------
# Checkers
# ----------------------------------------------------------------------

def check_threshold(text: str, lo: float, hi: float, label: str):
    """Status ok and p-threshold inside [lo, hi]."""
    header, _ = parse_csv(text)
    if header.get("status") != "ok" or "p-threshold" not in header:
        return [(False, f"{label}: status {header.get('status')!r}")]
    p_th = float(header["p-threshold"])
    return [(lo <= p_th <= hi, f"{label}: p_th {p_th:.6f} want [{lo:.4f}, {hi:.4f}]")]


def check_sample(text: str, p: float, rounds: int, shots: int, batches: int, label: str):
    """Exact header against the Bloch closed form, then every batch."""
    header, rows = parse_csv(text)
    exact = bloch_exact(p, rounds)
    got = float(header.get("exact", "nan"))
    out = [(abs(got - exact) <= EXACT_TOL, f"{label}: exact {got!r} want {exact!r}")]
    if len(rows) != batches:
        out.append((False, f"{label}: {len(rows)} batches, want {batches}"))
    for row in rows:
        n, b_hat = int(row["n"]), float(row["B_hat"])
        est, se = float(row["estimate"]), float(row["se"])
        stable = abs(b_hat) >= 3.0 / math.sqrt(n)
        within = abs(est - exact) <= PULL_LIMIT * se + EXACT_TOL
        out.append((n == shots and stable and within,
                    f"{label} batch {row['batch']}: estimate {est:.6g} se {se:.3g} "
                    f"B_hat {b_hat:.3g} n {n}"))
    return out


def check_identical(text: str, reference: str, label: str):
    same = text == reference
    return [(same, f"{label}: {'identical to' if same else 'differs from'} the serial CSV")]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

WHY = {
    "sweep-threshold": "the five criterion-05 threshold sweeps at jobs=1: M=5 cells load the 32x32 "
                       "eigh and per-qubit channels, M=1 cells are bound by Python overhead",
    "sweep-twirl": "a 20%-twirled dephasing threshold sweep at M=5, jobs=1: one twirled channel "
                   "call costs tens of eighs, so the channels layer does almost all the work",
    "sample-tree": "shot sampling at l=4 (whole outcome tree, 2^15 branches) and l=6 (per-shot "
                   "walk): montecarlo and purify on many 2x2 eighs, no threshold sweep",
    "sweep-parallel": "the local-depol M=5 sweep with --jobs = CPUs available: the only workload "
                      "that uses the threshold process pool, checked byte-identical to jobs=1",
}
LAYERS = {
    "sweep-threshold": ("cli", "threshold", "channels", "purify", "states"),
    "sweep-twirl": ("cli", "threshold", "channels"),
    "sample-tree": ("cli", "montecarlo", "purify", "states"),
    "sweep-parallel": ("cli", "threshold", "channels", "purify", "states"),
}
NAMES = tuple(WHY)


def _threshold_argv(kind, qubits, grid, ell, cycles, seed, jobs):
    return ("threshold", "--channel", kind, "--M", str(qubits), "--p", grid,
            "--ell", ell, "--cycles", str(cycles), "--jobs", str(jobs), "--seed", str(seed))


def _threshold_command(kind, qubits, expected, argv):
    label = f"{kind}/M={qubits}/jobs=1"
    return Command(label, argv,
                   lambda text: check_threshold(text, expected - THRESHOLD_TOL,
                                                expected + THRESHOLD_TOL, label))


def build(name: str, seed: int, sz: Sizes = FULL, cpus: int = 1,
          reference_csv: dict | None = None) -> Workload:
    """The workload's commands for this seed and size.

    ``reference_csv`` maps a reference label to its CSV text once the
    reference has run; the parallel check compares against it.
    """
    if name == "sweep-threshold":
        commands = tuple(
            _threshold_command(k, m, e, _threshold_argv(k, m, sz.grid, sz.ell, sz.cycles, seed, 1))
            for k, m, e in THRESHOLD_CASES)
        return Workload(name, WHY[name], LAYERS[name], commands)
    if name == "sweep-twirl":
        m = sz.twirl_m
        label = f"twirl/M={m}"
        argv = ("threshold", "--channel", "dephasing", "--twirl", str(TWIRL_FRACTION),
                "--M", str(m), "--p", sz.twirl_grid, "--ell", sz.twirl_ell,
                "--cycles", str(sz.twirl_cycles), "--jobs", "1", "--seed", str(seed))

        def check(text):
            # The closed form fixes p_th up to float noise; a partial twirl
            # damps the target less than dephasing alone, so p_th > 0.5 too.
            want = twirl_threshold(m, seed, sz.twirl_grid, sz.twirl_ell)
            if want is None:
                return [(False, f"{label}: the closed form has no crossing")]
            return check_threshold(text, max(want - 1e-9, 0.5), want + 1e-9, label)

        return Workload(name, WHY[name], LAYERS[name], (Command(label, argv, check),))
    if name == "sample-tree":
        commands = []
        for ell, shots, batches in ((sz.enum_ell, sz.enum_shots, 1),
                                    (sz.shot_ell, sz.shot_shots, sz.shot_batches)):
            label = f"sample/l={ell}"
            argv = ("sample", "--state", "zero^1", "--observable", "Z",
                    "--channel", "local-depol", "--p", str(SAMPLE_P), "--ell", str(ell),
                    "--shots", str(shots), "--batches", str(batches), "--seed", str(seed))
            commands.append(Command(label, argv,
                                    lambda t, e=ell, s=shots, b=batches, lb=label:
                                    check_sample(t, SAMPLE_P, e, s, b, lb)))
        return Workload(name, WHY[name], LAYERS[name], tuple(commands))
    if name == "sweep-parallel":
        kind, m, expected = PARALLEL_CASE
        serial = _threshold_command(kind, m, expected, _threshold_argv(
            kind, m, sz.par_grid, sz.ell, sz.par_cycles, seed, 1))
        label = f"{kind}/M={m}/jobs={cpus}"
        ref = (reference_csv or {}).get(serial.label)
        parallel = Command(label, _threshold_argv(kind, m, sz.par_grid, sz.ell, sz.par_cycles,
                                                  seed, cpus),
                           lambda t: check_identical(t, ref, label))
        return Workload(name, WHY[name], LAYERS[name], (parallel,) * sz.par_repeats, (serial,))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def describe() -> dict:
    """Each workload's reason, layers and command lines at ``FULL`` size.

    SEED stands for the benchmark's --seed and CPUS for the number of CPUs
    the process may run on.
    """
    out = {}
    for name in NAMES:
        w = build(name, "SEED", FULL, "CPUS")
        lines = []
        for c in w.commands:
            line = " ".join(("pqec",) + c.argv)
            if line not in lines:
                lines.append(line)
        out[name] = {"why": w.why, "layers": list(w.layers),
                     "reference_once": [" ".join(("pqec",) + c.argv) for c in w.reference],
                     "commands_per_iteration": len(w.commands),
                     "command_lines": lines}
    return {"sizes": vars(FULL), "workloads": out}
