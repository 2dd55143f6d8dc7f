"""Cycle engine, parameter sweeps, and error-threshold extraction.

One cycle applies the noise channel to the register state and then the
exact purification map; the fidelity with the initial pure target is
recorded after every cycle. The logical error rate is the first-cycle
fidelity drop F(0) - F(1), and the threshold of a channel family is the
error probability where the logical-error curves for different numbers of
purification rounds cross.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channels import NoiseModel, make_channel
from .purify import purified_state, werner_fidelity_update
from .states import ValidationError, check_pure_state, density_from_pure, fidelity, num_qubits

DEFAULT_P_COUNT = 41
DEFAULT_ROUNDS = (0, 1, 2, 3, 5)
DEFAULT_CYCLES = 30

# Differences smaller than this count as "curves touching" when locating a
# crossing; covers floating-point noise at exact-threshold grid points.
ZERO_TOL = 1e-12


class UndefinedSteadyStateError(ValueError):
    """The analytic steady-state expression has no real solution here."""


@dataclass(frozen=True)
class CycleTrace:
    """Fidelity record F(0..T) of one channel-then-purify experiment."""

    fidelities: np.ndarray
    channel: NoiseModel
    rounds: int
    qubits: int
    cycles: int


@dataclass(frozen=True)
class SweepResult:
    """Grid of traces over error probability and purification rounds."""

    p_values: np.ndarray
    rounds: tuple[int, ...]
    gamma: np.ndarray          # [i_p, i_rounds] first-cycle fidelity drop
    steady_fidelity: np.ndarray  # [i_p, i_rounds] fidelity at t = cycles
    traces: np.ndarray         # [i_p, i_rounds, cycles + 1]
    channel: NoiseModel        # template; p varies along the grid
    qubits: int
    cycles: int


@dataclass(frozen=True)
class CrossingPair:
    rounds_low: int
    rounds_high: int
    p_cross: float | None
    direction: str             # "crossed", "always-below", "always-above"
    bracket: float | None = None  # width of the grid interval holding p_cross


@dataclass(frozen=True)
class ThresholdEstimate:
    p_threshold: float | None
    crossing_pairs: tuple[CrossingPair, ...]
    grid_step: float           # widest crossing bracket (widest interval if none)
    status: str                # "ok" or "no-crossing"


# ----------------------------------------------------------------------
# Cycles
# ----------------------------------------------------------------------

def run_cycles(psi0: np.ndarray, model: NoiseModel, rounds: int,
               cycles: int) -> CycleTrace:
    """Iterate channel-then-purify from a pure target, recording fidelity.

    ``rounds`` = 0 applies the channel only. The purification uses the exact
    spectral map, matching the deterministic curves the threshold analysis
    is defined on.
    """
    if cycles < 1:
        raise ValidationError("cycles must be >= 1")
    psi0 = check_pure_state(psi0)
    qubits = num_qubits(psi0.size)
    channel = make_channel(model, qubits)
    rho = density_from_pure(psi0)
    fids = np.empty(cycles + 1)
    fids[0] = fidelity(rho, psi0)
    for t in range(1, cycles + 1):
        rho = channel(rho)
        rho = purified_state(rho, rounds)
        fids[t] = fidelity(rho, psi0)
    return CycleTrace(fidelities=fids, channel=model, rounds=rounds,
                      qubits=qubits, cycles=cycles)


def logical_error_rate(trace: CycleTrace) -> float:
    """First-cycle fidelity drop F(0) - F(1)."""
    return float(trace.fidelities[0] - trace.fidelities[1])


def steady_state_fidelity_analytic(dim: int, p: float) -> float:
    """Fixed-point fidelity of one-round purification under global depolarizing.

    F0 = (1 + sqrt(1 - 4 (D-1) p^2 / (D^2 (1-p)^2))) / 2. Outside the domain
    where the discriminant is nonnegative the steady state is reported as
    undefined; the iterated cycle map is the numerical fallback there.
    """
    if dim < 2:
        raise ValidationError("dimension must be >= 2")
    if p >= 1.0:
        raise UndefinedSteadyStateError("no steady state at p >= 1")
    disc = 1.0 - 4.0 * (dim - 1.0) * p * p / (dim * dim * (1.0 - p) ** 2)
    if disc < 0.0:
        raise UndefinedSteadyStateError(
            f"negative discriminant {disc} at D={dim}, p={p}")
    return 0.5 * (1.0 + math.sqrt(disc))


def werner_cycle_fidelities(dim: int, p: float, rounds: int, cycles: int) -> np.ndarray:
    """Scalar recursion for global-depolarizing cycles on the Werner family.

    Cross-check for the full-matrix engine: channel update of the mixing
    parameter, then ``rounds`` fidelity updates per cycle.
    """
    fids = np.empty(cycles + 1)
    fid = 1.0
    fids[0] = fid
    for t in range(1, cycles + 1):
        mix = (1.0 - fid) * dim / (dim - 1.0)
        mix = (1.0 - p) * mix + p
        fid = 1.0 - mix * (1.0 - 1.0 / dim)
        for _ in range(rounds):
            fid = werner_fidelity_update(fid, dim)
        fids[t] = fid
    return fids


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

class SweepCellError(RuntimeError):
    """A sweep cell failed; carries the (p, rounds) coordinates."""

    def __init__(self, p: float, rounds: int, cause: Exception):
        super().__init__(f"sweep cell p={p}, rounds={rounds}: {cause}")
        self.p = p
        self.rounds = rounds


def _sweep_cell(args):
    psi0, model, rounds, cycles = args
    try:
        trace = run_cycles(psi0, model, rounds, cycles)
    except Exception as exc:
        raise SweepCellError(model.p, rounds, exc) from exc
    return trace.fidelities


def sweep(psi0: np.ndarray, model: NoiseModel, p_values, rounds_list,
          cycles: int = DEFAULT_CYCLES, jobs: int = 1) -> SweepResult:
    """One trace per (p, rounds) cell; cells are independent and deterministic.

    ``model`` acts as a template whose ``p`` is replaced per cell. ``jobs``
    > 1 distributes cells in chunks over a process pool of at most ``jobs``
    workers, and no more than there are CPUs or cells.
    """
    if jobs < 1 or cycles < 1:
        raise ValidationError(f"jobs ({jobs}) and cycles ({cycles}) must be >= 1")
    psi0 = check_pure_state(psi0)
    p_values = np.asarray(p_values, dtype=float)
    rounds_list = tuple(int(r) for r in rounds_list)
    if p_values.size == 0 or len(rounds_list) == 0:
        raise ValidationError("sweep grid must be nonempty")
    qubits = num_qubits(psi0.size)
    cells = [(psi0, replace(model, p=float(p)), r, cycles)
             for p in p_values for r in rounds_list]
    workers = min(jobs, os.cpu_count() or 1, len(cells))
    if workers > 1:
        chunk = max(1, len(cells) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, cells, chunksize=chunk))
    else:
        results = [_sweep_cell(c) for c in cells]
    traces = np.array(results).reshape(p_values.size, len(rounds_list), cycles + 1)
    gamma = traces[:, :, 0] - traces[:, :, 1]
    steady = traces[:, :, -1]
    return SweepResult(p_values=p_values, rounds=rounds_list, gamma=gamma,
                       steady_fidelity=steady, traces=traces, channel=model,
                       qubits=qubits, cycles=cycles)


# ----------------------------------------------------------------------
# Threshold extraction
# ----------------------------------------------------------------------

def _pair_crossing(p_values: np.ndarray, widths: np.ndarray, diff: np.ndarray):
    """Smallest p where the higher-rounds curve stops being strictly better.

    Scans for a sign change of (gamma_high - gamma_low) from negative to
    nonnegative and refines it by linear interpolation between the
    bracketing grid points. Returns p and the bracket width, or two Nones.
    """
    for i in range(1, diff.size):
        if diff[i - 1] < -ZERO_TOL and diff[i] >= -ZERO_TOL:
            d0, d1 = diff[i - 1], diff[i]
            frac = -d0 / (d1 - d0)
            p = p_values[i - 1] + frac * (p_values[i] - p_values[i - 1])
            return float(min(max(p, p_values[i - 1]), p_values[i])), float(widths[i - 1])
    return None, None


def find_threshold(result: SweepResult) -> ThresholdEstimate:
    """Crossing-point threshold from consecutive rounds pairs.

    For each consecutive pair of rounds values the crossing of the
    logical-error curves is located on the grid; the reported threshold is
    the median of the pairwise crossings. Each crossing carries the width
    of the grid interval that brackets it, and the widest of those is the
    resolution reported with the threshold.
    """
    rounds_sorted = sorted(result.rounds)
    if len(rounds_sorted) < 2:
        raise ValidationError("threshold extraction needs >= 2 rounds values")
    order = {r: i for i, r in enumerate(result.rounds)}
    # an evenly spaced grid is even only up to rounding: report its step exactly
    widths = np.diff(result.p_values)
    widths = np.where(np.isclose(widths, widths[:1], rtol=1e-9, atol=0.0), widths[:1], widths)
    pairs = []
    for low, high in zip(rounds_sorted, rounds_sorted[1:]):
        diff = result.gamma[:, order[high]] - result.gamma[:, order[low]]
        p_cross, bracket = _pair_crossing(result.p_values, widths, diff)
        if p_cross is not None:
            direction = "crossed"
        else:
            direction = "always-below" if np.all(diff <= ZERO_TOL) else "always-above"
        pairs.append(CrossingPair(rounds_low=low, rounds_high=high, p_cross=p_cross,
                                  direction=direction, bracket=bracket))
    crossings = [pair.p_cross for pair in pairs if pair.p_cross is not None]
    brackets = [pair.bracket for pair in pairs if pair.bracket is not None]
    return ThresholdEstimate(p_threshold=float(np.median(crossings)) if crossings else None,
                             crossing_pairs=tuple(pairs),
                             grid_step=max(brackets, default=float(widths.max(initial=0.0))),
                             status="ok" if crossings else "no-crossing")
