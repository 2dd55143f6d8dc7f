"""Cycle engine, parameter sweeps, and error-threshold extraction.

One cycle applies the noise channel to the register state and then the
exact purification map; the fidelity with the initial pure target is
recorded after every cycle. The logical error rate is the first-cycle
fidelity drop F(0) - F(1), and the threshold of a channel family is the
error probability where the logical-error curves for different numbers of
purification rounds cross.

The engine runs a whole (p, rounds) grid in lock-step. Its noise model
holds the grid's p values as one tuple, so each cycle makes one call of
one channel closure on the stack of (P, L) states, each p's channel on
that p's L states. The target sets how a state is held
(``stabilizer_letters``). From ``plus^M`` or ``zero^M`` every state is
diagonal in the X or the Z product basis, so it is held as its 2**M
diagonal, with the target at index 0: the channel acts on it through
Walsh-Hadamard passes (``channels.apply_to_diagonal``), purification
powers it (``purify.purified_weights``), and F is its first weight, in
O(M 2**M) per cell and cycle. Any other target is held as a d x d matrix,
with one stacked eigendecomposition per rounds value. Every purified
fidelity is sum_i w_i |<v_i|psi>|^2 over the eigenvectors
v_i of the noisy state and its normalized powered eigenvalues w_i
(``purify.purified_weights``), with the overlaps |<v_i|psi>|^2 taken once
per decomposition. A purified matrix V diag(w) V^dagger
(``states.from_spectrum``) is built only for a cycle that follows. The
first cycle starts all rounds values of a p from the same noisy state, so
it decomposes that state once; a one-cycle run, as every threshold is,
holds one state per p and builds no purified matrix. Every step acts state
by state, so a trace has the same bits as a run of its cell alone, however
the grid is split into blocks. Parallel blocks of a dense grid run on
threads of the calling process: the stacked ``eigh`` and Pauli kernels
release the interpreter lock, and no worker is forked. A diagonal grid runs
on the calling thread (``cell_cost``). At ``jobs`` > 1, every OpenBLAS
loaded in the process, numpy's among them, is pinned to one thread, so its
own thread pool does not compete with the workers for the CPUs; its old
thread count comes back when the sweep ends.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .channels import NoiseModel, make_channel
from .purify import CHUNK_BYTES, check_rounds, purified_spectra, purified_weights
# The engine builds no state through ``purified_state``; the name stays bound
# here because perfbench's span recorder wraps it at this module.
from .purify import purified_state  # noqa: F401
from .states import PAULI_LABELS, ValidationError, check_pure_state, density_from_pure, \
    fidelity, from_spectrum, num_qubits, plus_state, zero_state

DEFAULT_P_COUNT = 41
DEFAULT_ROUNDS = (0, 1, 2, 3, 5)
DEFAULT_CYCLES = 30

# Differences smaller than this count as "curves touching" when locating a
# crossing; covers floating-point noise at exact-threshold grid points.
ZERO_TOL = 1e-12

# Most bytes of states one lock-step block of a sweep holds: one noisy state
# per p for a one-cycle sweep, one state per (p, rounds) cell for a longer
# one, and one state at least, whatever its size. A cycle makes a few
# working copies of its block, so every stacked step stays well inside
# CHUNK_BYTES. Larger blocks save no time but raise peak memory: the
# benchmark's five threshold sweeps peaked 13 MB higher with 3.4 MB blocks
# and 1.5 MB higher with 512 KiB ones, while below 256 KiB they slow down
# (measured in 0.4.1 on dense states, with a state per cell in every block).
BLOCK_BYTES = CHUNK_BYTES // 16

# Lock-step work (cells x cycles x per-cell work, ``cell_cost``: d**3 on a
# dense state) per sweep worker thread. Smaller blocks pass the interpreter
# lock back and forth: on a 2-vCPU VM two workers lost to one up to 1.7e7,
# tied at 2.5e7 and won from 2.7e7 (README).
MIN_WORKER_WORK = 10 ** 7

# (get, set) thread-count symbols of OpenBLAS builds: numpy's wheels vendor
# scipy-openblas with 64-bit integers, other builds export the plain names.
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# Held while a parallel sweep has OpenBLAS pinned, so that two such sweeps in
# one process cannot restore each other's thread count.
_BLAS_PIN_LOCK = threading.Lock()


class UndefinedSteadyStateError(ValueError):
    """The analytic steady-state expression has no real solution here."""


@dataclass(frozen=True)
class CycleTrace:
    """Fidelity record F(0..T) of channel-then-purify experiments.

    ``fidelities`` is (cycles + 1,) for a scalar p and one rounds value,
    and gains a leading axis for a tuple p and then one for a sequence of
    rounds values, as given to ``run_cycles``.
    """

    fidelities: np.ndarray
    channel: NoiseModel
    rounds: int | tuple[int, ...]
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

def stabilizer_letters(psi0: np.ndarray) -> str:
    """The Pauli letters of ``run_cycles`` states from target ``psi0``, which fix their form.

    IX where ``psi0`` equals ``plus_state(M)`` exactly and IZ where it
    equals ``zero_state(M)``: every state is then diagonal in the X or Z
    product basis, the target at index 0. IXYZ, a d x d matrix, otherwise.
    """
    qubits = num_qubits(psi0.size)
    if np.array_equal(psi0, plus_state(qubits)):
        return "IX"
    if np.array_equal(psi0, zero_state(qubits)):
        return "IZ"
    return PAULI_LABELS


def cell_cost(psi0: np.ndarray) -> tuple[int, int]:
    """Bytes of one cell's state and worker work of one of its cycles, from target ``psi0``.

    A dense state holds 16 d**2 bytes and costs about d**3 per cycle, its
    ``eigh``, which runs outside the interpreter lock. A diagonal
    (``stabilizer_letters`` IX or IZ) holds 8 d bytes and counts no worker
    work: its Walsh passes over d weights are short numpy calls that hold
    the lock for much of their time, so a diagonal grid runs on the calling
    thread. On a 2-vCPU VM, two workers ran 41 x 5 cells of plus^5 over
    1000 cycles in 1.15 s against one worker's 0.48 s, and of plus^3 over
    10,000 cycles in 5.1 s against 2.1 s; they won only at plus^8 over
    1000 cycles, 1.60 s against 2.04 s. d = 2**M.
    """
    d = psi0.size
    if stabilizer_letters(psi0) == PAULI_LABELS:
        return 16 * d * d, d ** 3
    return 8 * d, 0


def run_cycles(psi0: np.ndarray, model: NoiseModel, rounds, cycles: int) -> CycleTrace:
    """Iterate channel-then-purify from a pure target, recording fidelity.

    ``rounds`` = 0 applies the channel only. The purification uses the exact
    spectral map, matching the deterministic curves the threshold analysis
    is defined on. ``model.p`` and ``rounds`` broadcast like numpy
    arguments: a scalar p and one rounds value give fidelities of shape
    (cycles + 1,); a tuple of P values of p and a sequence of L rounds
    values give (P, L, cycles + 1), every cell run in lock-step under one
    channel closure, called once per cycle. The target picks the state's
    representation (``stabilizer_letters``): a 2**M diagonal for
    ``plus_state(M)`` and ``zero_state(M)``, a dense matrix otherwise, which
    keeps the dtype of ``psi0``: float64 for a real target.
    """
    if cycles < 1:
        raise ValidationError("cycles must be >= 1")
    psi0 = check_pure_state(psi0)
    qubits = num_qubits(psi0.size)
    ells = tuple(int(r) for r in np.atleast_1d(rounds))
    check_rounds(min(ells, default=0))
    letters = stabilizer_letters(psi0)
    channel = make_channel(model, qubits, letters)
    run = _dense_cycles if letters == PAULI_LABELS else _diagonal_cycles
    fids = run(psi0, channel, ells, cycles)
    # a scalar argument drops its axis, as in numpy broadcasting
    scalar = [np.ndim(model.p) == 0, np.ndim(rounds) == 0]
    return CycleTrace(fidelities=fids.squeeze(axis=tuple(np.flatnonzero(scalar))),
                      channel=model, rounds=rounds, qubits=qubits, cycles=cycles)


def _diagonal_cycles(psi0: np.ndarray, channel, ells: tuple, cycles: int) -> np.ndarray:
    """(P, L, cycles + 1) fidelities of a target whose states are diagonals, F the weight at 0.

    Powering a diagonal is purification, so no state is decomposed.
    """
    target = np.zeros(psi0.size)
    target[0] = 1.0
    noisy = _clamped(channel(target).reshape(-1, psi0.size))
    fids = np.empty((len(noisy), len(ells), cycles + 1))
    fids[..., 0] = 1.0
    # the (P, L) diagonals of the next cycle
    weights = np.repeat(noisy[:, None], len(ells), axis=1) if cycles > 1 else None
    for t in range(1, cycles + 1):
        if t > 1:
            weights = _clamped(channel(weights))
        for j, ell in enumerate(ells):
            w = noisy if t == 1 else weights[:, j]
            if ell:
                w = purified_weights(w, ell)
            fids[:, j, t] = w[:, 0]
            if t < cycles:
                weights[:, j] = w
    return fids


def _clamped(weights: np.ndarray) -> np.ndarray:
    """Diagonals with rounding negatives clamped to 0 and renormalized, as spectra from ``eigh``."""
    weights = np.clip(weights, 0.0, None)
    return weights / weights.sum(axis=-1, keepdims=True)


def _dense_cycles(psi0: np.ndarray, channel, ells: tuple, cycles: int) -> np.ndarray:
    """(P, L, cycles + 1) fidelities of a target whose states are d x d matrices."""
    rho = density_from_pure(psi0)
    # one noisy state per p: every cell of a p starts from it, so one
    # decomposition per p serves all rounds values in the first cycle
    noisy = channel(rho).reshape((-1,) + rho.shape)
    fids = np.empty((len(noisy), len(ells), cycles + 1))
    fids[..., 0] = fidelity(rho, psi0)
    vecs, weights = purified_spectra(noisy, ells)
    # the (P, L) states of the next cycle; a one-cycle run reads every
    # fidelity off the spectra and builds no state
    rho = np.repeat(noisy[:, None], len(ells), axis=1) if cycles > 1 else None
    populations = None
    for t in range(1, cycles + 1):
        if t > 1:
            rho = channel(rho)
        for j, ell in enumerate(ells):
            if t > 1:
                # each rounds value now has states of its own to decompose
                vecs, weights = purified_spectra(rho[:, j], (ell,))
            w = next(weights)
            if w is None:
                fids[:, j, t] = fidelity(noisy if t == 1 else rho[:, j], psi0)
                continue
            # the first cycle's weights share one eigenbasis, later ones have one each
            if t > 1 or populations is None:
                amplitudes = psi0.conj() @ vecs
                populations = amplitudes.real ** 2 + amplitudes.imag ** 2
            fids[:, j, t] = (w * populations).sum(axis=-1)
            if t < cycles:
                rho[:, j] = from_spectrum(w, vecs)
    return fids


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


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

def available_cpus() -> int:
    """CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_paths() -> list[str]:
    """Files of the OpenBLAS libraries this process has loaded.

    Read from the process's memory map where the OS has one; otherwise the
    library vendored next to the numpy package.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # a mapped file is the sixth field; its name may hold spaces
            fields = [line.split(maxsplit=5) for line in fh if "openblas" in line]
    except OSError:
        site = os.path.dirname(os.path.dirname(np.__file__))
        return sorted(glob.glob(os.path.join(site, "numpy.libs", "*openblas*")))
    return list(dict.fromkeys(f[5].strip() for f in fields if len(f) == 6))


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of each loaded OpenBLAS, found once.

    Empty where no OpenBLAS, or none with a known symbol pair, is loaded.
    """
    controls = []
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get_count, set_count = getattr(lib, get_name), getattr(lib, set_name)
                get_count.argtypes, get_count.restype = [], ctypes.c_int
                set_count.argtypes, set_count.restype = [ctypes.c_int], None
                controls.append((get_count, set_count))
                break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Pin every loaded OpenBLAS to one thread, and restore its count after.

    Sweep workers each run their own stacked ``eigh``; OpenBLAS's threads
    would compete with them for the same CPUs. The thread count is global
    to the library, so one lock serializes pinned sweeps. Where no OpenBLAS
    thread control is found, nothing is pinned or locked.
    """
    controls = _openblas_controls()
    if not controls:
        yield
        return
    with _BLAS_PIN_LOCK:
        counts = [get_count() for get_count, _ in controls]
        try:
            for _, set_count in controls:
                set_count(1)
            yield
        finally:
            for (_, set_count), count in zip(controls, counts):
                set_count(count)


def sweep(psi0: np.ndarray, model: NoiseModel, p_values, rounds_list,
          cycles: int = DEFAULT_CYCLES, jobs: int = 1) -> SweepResult:
    """One trace per (p, rounds) cell; cells are independent and deterministic.

    ``model`` acts as a template whose ``p`` is replaced per block of
    consecutive p values by the tuple of the block's values. The blocks run
    in lock-step, one ``run_cycles`` call and one channel closure each,
    and no block holds more than ``BLOCK_BYTES`` of states, or one state
    where that is larger: one per p at one cycle, one per cell otherwise,
    so a longer sweep splits its blocks along the rounds values too. A
    state's bytes and work per cycle are ``cell_cost``'s: 16 d**2 and d**3
    dense, 8 d and no worker work on a diagonal, whose grid therefore runs
    on the calling thread at any ``jobs``. At ``jobs`` = 1 that is the whole grid
    where it fits; ``jobs`` > 1 splits the p values into one block per
    worker, over a pool of at most ``jobs`` threads in this process, and no
    more than there are CPUs, blocks, or ``MIN_WORKER_WORK`` units in the
    work, cells x cycles x per-cell work; a single worker runs on the
    calling thread.
    The traces do not depend on the split, and ``p_values`` may come in any
    order. At ``jobs`` > 1, OpenBLAS is pinned to one thread, also for one
    worker, so each worker's ``eigh``, and each concurrent pqec run, keeps
    to its CPU; the old thread count is restored afterwards, also when a
    block raises. Where no OpenBLAS thread control is found, the blocks
    share the CPUs with BLAS's own threads.
    """
    if jobs < 1 or cycles < 1:
        raise ValidationError(f"jobs ({jobs}) and cycles ({cycles}) must be >= 1")
    psi0 = check_pure_state(psi0)
    p_values = np.asarray(p_values, dtype=float)
    rounds_list = tuple(int(r) for r in rounds_list)
    if p_values.size == 0 or len(rounds_list) == 0:
        raise ValidationError("sweep grid must be nonempty")
    check_rounds(min(rounds_list))
    qubits = num_qubits(psi0.size)
    cell_bytes, cell_work = cell_cost(psi0)
    work = p_values.size * len(rounds_list) * cycles * cell_work
    workers = max(1, min(jobs, available_cpus(), work // MIN_WORKER_WORK))
    # states a block may hold; one cycle holds one per p whatever the rounds
    states = max(1, BLOCK_BYTES // cell_bytes)
    r_step = len(rounds_list) if cycles == 1 else min(len(rounds_list), states)
    p_step = min(max(1, states // (1 if cycles == 1 else r_step)),
                 math.ceil(p_values.size / workers))
    models = [replace(model, p=tuple(p_values[lo:lo + p_step].tolist()))
              for lo in range(0, p_values.size, p_step)]
    ells = [rounds_list[lo:lo + r_step] for lo in range(0, len(rounds_list), r_step)]
    blocks = [(block_model, block_ells) for block_model in models for block_ells in ells]
    workers = min(workers, len(blocks))
    with _one_blas_thread() if jobs > 1 else nullcontext():
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run_cycles, repeat(psi0), *zip(*blocks),
                                        repeat(cycles)))
        else:
            results = [run_cycles(psi0, *block, cycles) for block in blocks]
    # blocks run p-major: each row of len(ells) blocks spans every rounds value
    traces = np.concatenate([
        np.concatenate([result.fidelities for result in results[lo:lo + len(ells)]], axis=1)
        for lo in range(0, len(results), len(ells))])
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


def check_threshold_grid(p_values, rounds) -> None:
    """Reject a grid that ``find_threshold`` cannot read crossings from.

    A crossing pairs two distinct rounds values, so none may repeat, and is
    read from left to right between two p values, so p must strictly
    increase over at least two.
    """
    if len(rounds) < 2 or len(set(rounds)) != len(rounds):
        raise ValidationError(
            f"threshold extraction needs >= 2 distinct rounds values, got {rounds}")
    if len(p_values) < 2:
        raise ValidationError(f"threshold extraction needs >= 2 p values, got {len(p_values)}")
    if np.any(np.diff(p_values) <= 0):
        raise ValidationError("threshold extraction needs a strictly increasing p grid")


def find_threshold(result: SweepResult) -> ThresholdEstimate:
    """Crossing-point threshold from consecutive rounds pairs.

    For each consecutive pair of rounds values the crossing of the
    logical-error curves is located on the grid; the reported threshold is
    the median of the pairwise crossings. Each crossing carries the width
    of the grid interval that brackets it, and the widest of those is the
    resolution reported with the threshold. Only ``gamma``, the first
    cycle, is read, so a sweep of one cycle suffices. The grid must pass
    ``check_threshold_grid``.
    """
    check_threshold_grid(result.p_values, result.rounds)
    rounds_sorted = sorted(result.rounds)
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
