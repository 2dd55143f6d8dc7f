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
that p's L states. One loop runs the cycles over a representation of the
states, which the target and the channel pick once per run
(``representation``). Every target the command line parses is a product
of one one-qubit state (``ProductState``). Global depolarizing keeps its
state in span{|psi><psi|, I}: two eigenvalues, of multiplicities 1 and
d - 1. A channel that acts on each qubit alone keeps it a product, so a
cell runs on one qubit and its fidelities are raised to the M-th power.
Only a twirl subset couples the qubits: from ``plus^M`` or ``zero^M``
every state is then diagonal in the X or the Z product basis, and held as
its 2**M diagonal, with the target at index 0; the channel acts on it
through Walsh-Hadamard passes (``channels.apply_to_diagonal``) and it is
its own spectrum. Any other such target, and a pure-state vector given
directly, is held as a d x d matrix, with one stacked eigendecomposition
per rounds value. Every purified fidelity is sum_i w_i |<v_i|psi>|^2 over
the eigenvectors v_i of the noisy state (the basis states on a diagonal)
and its normalized powered eigenvalues w_i (``purify.purified_weights``),
with the populations |<v_i|psi>|^2 taken once per decomposition. A
purified matrix V diag(w) V^dagger (``states.from_spectrum``) is built
only for a cycle that follows. The first cycle starts all rounds values
of a p from the same noisy state, so it decomposes that state once; a
one-cycle run, as every threshold is, holds one state per p and builds no
purified matrix. Every step acts state by state, so a trace has the same
bits as a run of its cell alone, however the grid is split into blocks.
Parallel blocks of a dense grid run on threads of the calling process:
the stacked ``eigh`` and Pauli kernels release the interpreter lock, and
no worker is forked. Diagonal and Werner grids run on the calling thread
(their ``cell_work`` is 0). At ``jobs`` > 1, every OpenBLAS loaded in the
process, numpy's among them, is pinned to one thread for a grid with
worker work, so its own thread pool does not compete with the workers for
the CPUs; its old thread count comes back when the sweep ends.
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
from .purify import CHUNK_BYTES, check_rounds, purified_weights
from .states import MAX_DENSE_QUBITS, PAULI_LABELS, ProductState, ResourceLimitError, \
    ValidationError, check_pure_state, check_register, density_from_pure, fidelity, \
    from_spectrum, num_qubits, plus_state, spectral_decomposition, zero_state

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

# Most bytes of traces a sweep holds, P x L x (cycles + 1) float64 (twice at
# its peak: the blocks' and the joined grid), and most rows the sweep command
# writes to its CSV (P x L) or --traces (P x L x (cycles + 1)); both are
# checked before anything is built.
MAX_TRACE_BYTES = 2 ** 28
MAX_TRACE_ROWS = 10 ** 6

# Largest register a product or a Werner cell stands for. Either holds the
# same few values at any M, where M is only a power or a multiplicity.
MAX_PRODUCT_QUBITS = 64

# Letters of the one-qubit states whose copies stay diagonal in the X and Z bases.
_ONE_QUBIT = (("IX", plus_state(1)), ("IZ", zero_state(1)))

# Lock-step work (cells x cycles x the representation's ``cell_work``: d**3
# on a dense state) per sweep worker thread. Smaller blocks pass the interpreter
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
    rounds values, as given to ``run_cycles``. ``cell_gamma`` is the
    cells' first-cycle fidelity drop, shaped as ``fidelities`` without its
    last axis: one qubit's where a cell stands for copies of it, else the
    register's, with the bits of ``fidelities[..., 0] - fidelities[..., 1]``.
    """

    fidelities: np.ndarray
    channel: NoiseModel
    rounds: int | tuple[int, ...]
    qubits: int
    cycles: int
    cell_gamma: np.ndarray


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
    # [i_p, i_rounds] the cells' gamma, one qubit's where a cell stands for copies
    # of it: 1 - F1 orders the rounds values as 1 - F1**M does, without rounding to 1
    cell_gamma: np.ndarray


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

class _Cells:
    """What every representation shares.

    A cell's states stand for ``cell_qubits`` of the register's ``qubits``;
    ``finish`` raises its fidelities to the power ``copies`` = qubits /
    cell_qubits. ``counts`` holds the multiplicity of each value a state
    holds, where a value stands for several eigenvalues (None: one each).
    """

    counts = None

    def __init__(self, cell_qubits: int, copies: int):
        self.cell_qubits, self.copies, self.qubits = cell_qubits, copies, cell_qubits * copies

    def channel(self, model: NoiseModel):
        return make_channel(model, self.cell_qubits, self.letters)

    def finish(self, fids: np.ndarray) -> np.ndarray:
        """``fids`` to the power ``copies``, by repeated squaring.

        Its steps are elementwise products, so every entry has the same bits
        however the array is laid out; ``np.power``'s do not.
        """
        result, n = None, self.copies
        while n:
            if n & 1:
                result = fids if result is None else result * fids
            n >>= 1
            fids = fids * fids if n else fids
        return result


class _Dense(_Cells):
    """States as d x d matrices, purified through their eigendecomposition.

    A state holds 16 d**2 bytes and costs about d**3 per cycle, its
    ``eigh``, which runs outside the interpreter lock.
    """

    def __init__(self, psi0: np.ndarray, copies: int = 1):
        super().__init__(num_qubits(psi0.size), copies)
        self.letters, self.psi0, self.target = PAULI_LABELS, psi0, density_from_pure(psi0)
        self.cell_bytes, self.cell_work = 16 * psi0.size ** 2, psi0.size ** 3

    def settle(self, states: np.ndarray) -> np.ndarray:
        return states

    def fidelity(self, states: np.ndarray) -> np.ndarray:
        return fidelity(states, self.psi0)

    def decompose(self, states: np.ndarray):
        """Eigenvalues, eigenvectors v_i and the target's populations |<v_i|psi>|^2."""
        vals, vecs = spectral_decomposition(states)
        amplitudes = self.psi0.conj() @ vecs
        return vals, vecs, amplitudes.real ** 2 + amplitudes.imag ** 2

    def rebuild(self, weights: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        return from_spectrum(weights, vecs)


class _Diagonal(_Cells):
    """States as 2**M diagonals in the X or Z product basis, the target at index 0.

    A state holds 8 d bytes and counts no worker work: its Walsh passes
    over d weights are short numpy calls that hold the interpreter lock
    for much of their time, so a diagonal grid runs on the calling thread.
    On a 2-vCPU VM, two workers ran 41 x 5 cells of plus^5 over 1000
    cycles in 1.15 s against one worker's 0.48 s, and of plus^3 over
    10,000 cycles in 5.1 s against 2.1 s; they won only at plus^8 over
    1000 cycles, 1.60 s against 2.04 s. A diagonal is its own spectrum,
    and powering it purifies it.
    """

    def __init__(self, qubits: int, letters: str, copies: int = 1):
        super().__init__(qubits, copies)
        self.letters, self.target = letters, np.zeros(2 ** qubits)
        self.target[0] = 1.0
        self.cell_bytes, self.cell_work = 8 * self.target.size, 0

    def settle(self, weights: np.ndarray) -> np.ndarray:
        """Rounding negatives clamped to 0 and renormalized, as spectra from ``eigh``."""
        weights = np.clip(weights, 0.0, None)
        return weights / (weights if self.counts is None else weights * self.counts).sum(
            axis=-1, keepdims=True)

    def fidelity(self, weights: np.ndarray) -> np.ndarray:
        return weights[..., 0]

    def decompose(self, weights: np.ndarray):
        """The weights, no basis, and the target's populations e_0."""
        return weights, None, self.target

    def rebuild(self, weights: np.ndarray, basis) -> np.ndarray:
        return weights


class _Werner(_Diagonal):
    """States in span{|psi><psi|, I}, as the eigenvalue of the target and the one of the rest.

    Global depolarizing and purification keep the state of any pure target
    in that span, so a state is two values, of multiplicities 1 and
    d - 1, whatever the target: 16 bytes and no worker work at any M.
    """

    def __init__(self, qubits: int):
        super().__init__(1, None)  # two values, the target's first; no channel letters
        self.qubits, self.counts = qubits, np.array([1.0, 2.0 ** qubits - 1.0])

    def channel(self, model: NoiseModel):
        """(1 - p) rho + p I / d on the two values; p's axes lead, as ``make_channel``'s do."""
        p = np.asarray(model.validate().p, dtype=float)
        keep, floor = 1.0 - p, p / 2.0 ** self.qubits

        def apply(values: np.ndarray) -> np.ndarray:
            shape = p.shape + (1,) * max(1, values.ndim - p.ndim)
            return keep.reshape(shape) * values + floor.reshape(shape)
        return apply


def representation(target, model: NoiseModel) -> _Cells:
    """How ``run_cycles`` holds the states of ``target`` under ``model``.

    A pure-state vector runs on d x d matrices (IXYZ), unlimited in M. A
    ``ProductState``, as the command line parses every target, runs on the
    smallest exact form, within its register limit:
    - global depolarizing: a Werner state (``MAX_PRODUCT_QUBITS``);
    - a channel that acts on each qubit alone (local depolarizing,
      dephasing, the full twirl): one qubit's cell, its fidelities raised to
      the M-th power (``MAX_PRODUCT_QUBITS``);
    - a twirl subset, which couples the qubits: the whole register
      (``MAX_DENSE_QUBITS``).
    A cell is a diagonal in the X basis (letters IX) where the one qubit's
    state is exactly ``plus_state(1)``, in the Z basis (IZ) where it is
    ``zero_state(1)``, and a matrix otherwise. A representation passes
    through. Each gives its ``target`` state, the ``cell_bytes`` and
    ``cell_work`` of one cell's state and cycle, and the steps of a
    cycle: its ``channel``, ``settle`` a channel's output, the
    ``fidelity`` of an unpurified state, ``decompose``, ``rebuild`` and
    ``finish``.
    """
    if isinstance(target, _Cells):
        return target
    if not isinstance(target, ProductState):
        return _Dense(check_pure_state(target))
    qubits = target.qubits
    if model.kind == "global-depol":
        check_register(qubits, MAX_PRODUCT_QUBITS, "a Werner state")
        return _Werner(qubits)
    single = target.vector(1)
    letters = next((key for key, state in _ONE_QUBIT if np.array_equal(single, state)), None)
    if model.kind != "twirled-dephasing" or model.twirl_fraction == 1.0:
        check_register(qubits, MAX_PRODUCT_QUBITS, "copies of one qubit")
        return _Diagonal(1, letters, qubits) if letters else _Dense(single, qubits)
    check_register(qubits, MAX_DENSE_QUBITS, "a 2**M diagonal" if letters else "a dense matrix")
    return _Diagonal(qubits, letters) if letters else _Dense(target.vector())


def run_cycles(target, model: NoiseModel, rounds, cycles: int) -> CycleTrace:
    """Iterate channel-then-purify from a pure target, recording fidelity.

    ``rounds`` = 0 applies the channel only. The purification uses the exact
    spectral map, matching the deterministic curves the threshold analysis
    is defined on. ``model.p`` and ``rounds`` broadcast like numpy
    arguments: a scalar p and one rounds value give fidelities of shape
    (cycles + 1,); a tuple of P values of p and a sequence of L rounds
    values give (P, L, cycles + 1), every cell run in lock-step under one
    channel closure, called once per cycle. ``target`` is a pure-state
    vector, a ``ProductState`` or a representation, and picks the state's
    representation (``representation``); a dense matrix keeps the dtype of
    its target: float64 for a real one.
    """
    if cycles < 1:
        raise ValidationError("cycles must be >= 1")
    ells = tuple(int(r) for r in np.atleast_1d(rounds))
    check_rounds(min(ells, default=0))
    rep = representation(target, model)
    channel = rep.channel(model)
    # one noisy state per p: every cell of a p starts from it, so one
    # decomposition per p serves all rounds values in the first cycle
    noisy = rep.settle(channel(rep.target).reshape((-1,) + rep.target.shape))
    fids = np.empty((len(noisy), len(ells), cycles + 1))
    fids[..., 0] = rep.fidelity(rep.target)
    # the (P, L) states of the next cycle; a one-cycle run reads every
    # fidelity off the spectra and builds no state
    states = np.repeat(noisy[:, None], len(ells), axis=1) if cycles > 1 else None
    spectrum = None
    for t in range(1, cycles + 1):
        if t > 1:
            states = rep.settle(channel(states))
        for j, ell in enumerate(ells):
            state = noisy if t == 1 else states[:, j]
            if not ell:
                # unpurified: the next cycle starts from the state it holds
                fids[:, j, t] = rep.fidelity(state)
                continue
            # the first cycle's cells share one spectrum, later ones have one each
            if t > 1 or spectrum is None:
                spectrum = rep.decompose(state)
            vals, basis, populations = spectrum
            weights = purified_weights(vals, ell, rep.counts)
            fids[:, j, t] = (weights * populations).sum(axis=-1)
            if t < cycles:
                states[:, j] = rep.rebuild(weights, basis)
    # a scalar argument drops its axis, as in numpy broadcasting
    scalar = tuple(axis for axis, arg in enumerate((model.p, rounds)) if np.ndim(arg) == 0)
    cell_gamma = (fids[..., 0] - fids[..., 1]).squeeze(axis=scalar)
    return CycleTrace(fidelities=rep.finish(fids).squeeze(axis=scalar), channel=model,
                      rounds=rounds, qubits=rep.qubits, cycles=cycles, cell_gamma=cell_gamma)


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


def sweep(target, model: NoiseModel, p_values, rounds_list,
          cycles: int = DEFAULT_CYCLES, jobs: int = 1) -> SweepResult:
    """One trace per (p, rounds) cell; cells are independent and deterministic.

    ``target`` is as ``run_cycles`` takes it; its representation is picked
    once, after the traces' bytes are checked against
    ``MAX_TRACE_BYTES``. ``model`` acts as a template whose ``p`` is
    replaced per block of consecutive p values by the tuple of the block's
    values. The blocks run in lock-step, one ``run_cycles`` call and one
    channel closure each, and no block holds more than ``BLOCK_BYTES`` of
    states, or one state where that is larger: one per p at one cycle, one
    per cell otherwise, so a longer sweep splits its blocks along the
    rounds values too. A state's bytes and work per cycle are its
    representation's: 16 d**2 and d**3 for a d x d matrix, 8 d and no
    worker work on a diagonal, 16 bytes and none for a Werner state; a grid
    with no worker work runs on the calling thread at any ``jobs``. At
    ``jobs`` = 1 that is the whole grid where it fits; ``jobs`` > 1 splits
    the p values into one block per worker, over a pool of at most
    ``jobs`` threads in this process, and no more than there are CPUs,
    blocks, or ``MIN_WORKER_WORK`` units in the work, cells x cycles x
    per-cell work; a single worker runs on the calling thread.
    The traces do not depend on the split, and ``p_values`` may come in any
    order. At ``jobs`` > 1, OpenBLAS is pinned to one thread, also for one
    worker, so each worker's ``eigh``, and each concurrent pqec run, keeps
    to its CPU; the old thread count is restored afterwards, also when a
    block raises. A grid with no worker work makes no BLAS call large
    enough to thread, and is not pinned. Where no OpenBLAS thread control
    is found, the blocks share the CPUs with BLAS's own threads.
    """
    if jobs < 1 or cycles < 1:
        raise ValidationError(f"jobs ({jobs}) and cycles ({cycles}) must be >= 1")
    p_values = np.asarray(p_values, dtype=float)
    rounds_list = tuple(int(r) for r in rounds_list)
    if p_values.size == 0 or len(rounds_list) == 0:
        raise ValidationError("sweep grid must be nonempty")
    check_rounds(min(rounds_list))
    trace_bytes = 8 * p_values.size * len(rounds_list) * (cycles + 1)
    if trace_bytes > MAX_TRACE_BYTES:
        raise ResourceLimitError(
            f"traces of {p_values.size} p x {len(rounds_list)} rounds values x {cycles + 1}"
            f" times take {trace_bytes} bytes, past the limit of {MAX_TRACE_BYTES}")
    rep = representation(target, model)
    work = p_values.size * len(rounds_list) * cycles * rep.cell_work
    workers = max(1, min(jobs, available_cpus(), work // MIN_WORKER_WORK))
    # states a block may hold; one cycle holds one per p whatever the rounds
    states = max(1, BLOCK_BYTES // rep.cell_bytes)
    r_step = len(rounds_list) if cycles == 1 else min(len(rounds_list), states)
    p_step = min(max(1, states // (1 if cycles == 1 else r_step)),
                 math.ceil(p_values.size / workers))
    models = [replace(model, p=tuple(p_values[lo:lo + p_step].tolist()))
              for lo in range(0, p_values.size, p_step)]
    ells = [rounds_list[lo:lo + r_step] for lo in range(0, len(rounds_list), r_step)]
    blocks = [(block_model, block_ells) for block_model in models for block_ells in ells]
    workers = min(workers, len(blocks))
    # a grid with no worker work makes no BLAS call large enough to thread
    with _one_blas_thread() if jobs > 1 and rep.cell_work else nullcontext():
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run_cycles, repeat(rep), *zip(*blocks),
                                        repeat(cycles)))
        else:
            results = [run_cycles(rep, *block, cycles) for block in blocks]
    def joined(parts):
        # blocks run p-major: each row of len(ells) blocks spans every rounds value
        if len(parts) == 1:
            return parts[0]
        return np.concatenate([np.concatenate(parts[lo:lo + len(ells)], axis=1)
                               for lo in range(0, len(parts), len(ells))])

    traces = joined([result.fidelities for result in results])
    return SweepResult(p_values=p_values, rounds=rounds_list,
                       gamma=traces[:, :, 0] - traces[:, :, 1],
                       steady_fidelity=traces[:, :, -1], traces=traces, channel=model,
                       qubits=rep.qubits, cycles=cycles,
                       cell_gamma=joined([result.cell_gamma for result in results]))


# ----------------------------------------------------------------------
# Threshold extraction
# ----------------------------------------------------------------------

def _pair_crossing(p_values: np.ndarray, widths: np.ndarray, diff: np.ndarray):
    """Smallest p where the higher-rounds curve stops being strictly better.

    Finds the first sign change of (gamma_high - gamma_low) from negative
    to nonnegative in one pass over the grid, and refines it by linear
    interpolation between the bracketing grid points, on Python floats.
    Returns p and the bracket width, or two Nones.
    """
    rises = np.flatnonzero((diff[:-1] < -ZERO_TOL) & (diff[1:] >= -ZERO_TOL))
    if not rises.size:
        return None, None
    i = int(rises[0]) + 1
    d0, d1 = float(diff[i - 1]), float(diff[i])
    p0, p1 = float(p_values[i - 1]), float(p_values[i])
    frac = -d0 / (d1 - d0)
    p = p0 + frac * (p1 - p0)
    return min(max(p, p0), p1), float(widths[i - 1])


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
    resolution reported with the threshold. Only the first cycle is read,
    so a sweep of one cycle suffices: its ``cell_gamma``. The grid must
    pass ``check_threshold_grid``.
    """
    check_threshold_grid(result.p_values, result.rounds)
    rounds_sorted = sorted(result.rounds)
    order = {r: i for i, r in enumerate(result.rounds)}
    # an evenly spaced grid is even only up to rounding: report its step exactly
    widths = np.diff(result.p_values)
    step = widths[0]
    widths = np.where(np.abs(widths - step) <= 1e-9 * abs(step), step, widths)
    pairs = []
    for low, high in zip(rounds_sorted, rounds_sorted[1:]):
        diff = result.cell_gamma[:, order[high]] - result.cell_gamma[:, order[low]]
        p_cross, bracket = _pair_crossing(result.p_values, widths, diff)
        if p_cross is not None:
            direction = "crossed"
        else:
            direction = "always-below" if np.all(diff <= ZERO_TOL) else "always-above"
        pairs.append(CrossingPair(rounds_low=low, rounds_high=high, p_cross=p_cross,
                                  direction=direction, bracket=bracket))
    crossings = sorted(pair.p_cross for pair in pairs if pair.p_cross is not None)
    brackets = [pair.bracket for pair in pairs if pair.bracket is not None]
    # the median: the middle crossing, or the mean of the middle two
    half, median = len(crossings) // 2, None
    if crossings:
        median = (crossings[half] if len(crossings) % 2
                  else (crossings[half - 1] + crossings[half]) / 2)
    return ThresholdEstimate(p_threshold=median,
                             crossing_pairs=tuple(pairs),
                             grid_step=max(brackets, default=float(widths.max())),
                             status="ok" if crossings else "no-crossing")
