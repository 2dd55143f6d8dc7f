"""Noise channels acting per register between correction cycles.

Implements the global depolarizing mixture, the per-qubit depolarizing
product channel, per-qubit dephasing, and Clifford-frame twirling of the
dephasing channel (full or seeded-subset). All four are diagonal in the
Pauli basis, so each is one transfer-eigenvalue tensor applied by one kernel.
The kernel changes basis to the real Pauli-type basis {I, X, XZ, Z}, where
XZ = -iY, so a real state stays real and a complex one runs the same code.
A state diagonal in the X or the Z product basis, as every state of a
``plus^M`` or ``zero^M`` run is, needs only the strings over {I, X} or
{I, Z}: the same kernel reads them off its 2**M diagonal by Walsh-Hadamard
passes (``apply_to_diagonal``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .purify import chunk_rows
from .states import PAULI_LABELS, ValidationError, num_qubits, pauli_matrix, pauli_weight_tensor

# Fixed default seed for subset twirling; documented in the README. Chosen so
# the seeded single-gate subset at M=1 rotates the dephasing axis to one that
# still damps the |+> target (see tests).
DEFAULT_SEED = 7

# Row f marks the IXYZ labels that frame f damps. Averaged as
# U^dag E_z(U rho U^dag) U, frame 0 (I) keeps the dephasing axis on Z, 1 (H)
# rotates it onto X and 2 (HS) onto Y; each damps all but I and that axis.
_DAMPED = np.array([[0, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1]])

CHANNEL_KINDS = ("global-depol", "local-depol", "dephasing", "twirled-dephasing")


@dataclass(frozen=True)
class NoiseModel:
    """Tagged channel description, constructible from CLI flags.

    ``kind`` is one of ``global-depol`` ((1-p) rho + p Tr(rho) I/D),
    ``local-depol`` (Kraus sqrt(1-p) I, sqrt(p/3) X, Y, Z on every qubit),
    ``dephasing`` ((1-p) rho + p Z rho Z on every qubit) or
    ``twirled-dephasing`` (the mean of U^dag E_z(U rho U^dag) U over the
    seeded frame subset); ``p`` is the error probability, or a tuple of
    them for one channel per entry, stacked. The twirl fields only matter
    for ``twirled-dephasing``. ``make_channel`` applies it.
    """

    kind: str
    p: float | tuple[float, ...]
    twirl_fraction: float = 1.0
    twirl_seed: int = DEFAULT_SEED

    def validate(self) -> "NoiseModel":
        if self.kind not in CHANNEL_KINDS:
            raise ValidationError(f"unknown channel kind {self.kind!r}")
        values = self.p if isinstance(self.p, tuple) else (self.p,)
        if not values or any(np.ndim(p) != 0 for p in values):
            raise ValidationError(
                f"error probability {self.p!r} is neither a number nor a flat nonempty tuple")
        for p in values:
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"error probability {p} outside [0, 1]")
        if not 0.0 < self.twirl_fraction <= 1.0:
            raise ValidationError(
                f"twirl fraction {self.twirl_fraction} outside (0, 1]")
        seed = self.twirl_seed
        if not hasattr(type(seed), "__index__") or operator.index(seed) < 0:
            raise ValidationError(f"twirl seed {seed!r} is not an integer >= 0")
        return self

    def transfer_eigenvalues(self, qubits: int, letters: str = PAULI_LABELS) -> np.ndarray:
        """Tensor lam: the channel maps Tr(rho P) to lam[P] Tr(rho P).

        Its shape is np.shape(p) + (len(letters),)*qubits, over the strings
        P of ``letters``: IXYZ for all of them, IX or IZ for the ones that a
        state diagonal in the X or Z product basis has. A subset is built on
        its letters, never sliced out of the 4**M tensor. A tuple ``p``
        gives one row per entry, each with the bits of a call with that
        entry alone.
        """
        self.validate()
        p = np.asarray(self.p, dtype=float)
        lam_shape = p.shape + (len(letters),) * qubits
        if self.kind == "global-depol":
            lam = np.repeat(1.0 - p, len(letters) ** qubits).reshape(lam_shape)
            lam[(...,) + (0,) * qubits] = 1.0
            return lam
        if self.kind == "twirled-dephasing":
            shares = _seeded_damping_shares(qubits, self.twirl_fraction, self.twirl_seed, letters)
            k = np.arange(qubits + 1)
            # one matrix-vector product per p: a stacked product sums in another order
            return np.stack([shares @ (1.0 - 2.0 * q) ** k for q in p.ravel()]).reshape(lam_shape)
        local = self.kind == "local-depol"
        eta = 1.0 - 4.0 * p / 3.0 if local else 1.0 - 2.0 * p
        one = np.ones_like(eta)
        factors = np.stack([one, eta, eta, eta if local else one], axis=-1)[..., _columns(letters)]
        # outer products folded from the left, qubit 0 outermost, per p
        lam = factors
        for q in range(1, qubits):
            lam = lam[..., None] * factors.reshape(p.shape + (1,) * q + (len(letters),))
        return lam


def _columns(letters: str) -> list[int]:
    """Positions of ``letters`` in IXYZ."""
    return [PAULI_LABELS.index(c) for c in letters]


# Pair one qubit's row and column indices as k = 2i + j. Then T[a, k] =
# B_a[j, i] maps the pair to the coefficients Tr(rho B_a) in the real basis
# B = (I, X, XZ, Z). Tr(B_a^T B_b) = 2 delta_ab makes T.T / 2 its exact
# inverse. A Pauli-diagonal channel scales Tr(rho XZ) = -i Tr(rho Y) by Y's
# eigenvalue, so lam keeps its IXYZ axes. Stored transposed, for
# right-multiplication.
_PAIR_T = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]], dtype=float)
_TO_PAIR, _FROM_PAIR = _PAIR_T.T.copy(), _PAIR_T / 2

# One qubit's Walsh-Hadamard pass. On a diagonal in the X (or Z) product
# basis it gives Tr(rho P) for P in {I, X} (or {I, Z}), and applied again it
# gives twice the diagonal. Its entries are +-1, so every product is exact and
# every sum has two terms: the bits do not depend on how a stack is laid out.
_WALSH = np.array([[1.0, 1.0], [1.0, -1.0]])


def _each_qubit(t: np.ndarray, mat: np.ndarray, qubits: int) -> np.ndarray:
    # each pass contracts the leading axis and appends the result last, so
    # after ``qubits`` passes the axes are back in qubit order
    for _ in range(qubits):
        t = t.reshape(len(mat), -1).T @ mat
    return t


def _scale_strings(t: np.ndarray, stack: tuple, lam: np.ndarray, qubits: int,
                   to_strings: np.ndarray, from_strings: np.ndarray):
    """The kernel: per-qubit passes to the Pauli coefficients, lam, and passes back.

    ``t`` has one axis per qubit, of the size of ``to_strings``, then a
    stack axis of ``stack``'s shape, flattened. Returns the result, its
    stack first and its qubit axes after in qubit order, and the stack's
    shape after broadcasting with ``lam``'s channel axes.
    """
    m, lead = qubits, lam.ndim - qubits
    coeffs = _each_qubit(t, to_strings, m).reshape(stack + lam.shape[lead:])
    coeffs = coeffs * lam.reshape(lam.shape[:lead] + (1,) * (len(stack) - lead) + lam.shape[lead:])
    # and back, with the stack axis last again
    out_stack = coeffs.shape[:coeffs.ndim - m]
    t = coeffs.reshape((-1,) + lam.shape[lead:]).transpose(list(range(1, m + 1)) + [0])
    return _each_qubit(t, from_strings, m), out_stack


def apply_pauli_diagonal(rho: np.ndarray, lam: np.ndarray, qubits: int | None = None) -> np.ndarray:
    """Multiply the coefficient of every Pauli string P in rho by lam[P].

    O(M 4**M) and not limited in M. The last ``qubits`` axes of ``lam``
    (all by default) are its Pauli axes, in IXYZ order; any before them are
    a stack of channels, lined up with the leading axes of ``rho``. So one
    matrix under a stack of P channels gives ``(P, d, d)``, and a stack
    ``(P, L, d, d)`` under it maps each channel over its L matrices. Every
    matrix gets the bits of one call with its channel alone. A real ``rho``
    gives a real result.
    """
    m = lam.ndim if qubits is None else qubits
    rho = np.asarray(rho)
    rho_qubits = num_qubits(rho.shape[-1])
    if rho_qubits != m:
        raise ValidationError(f"channel acts on {m} qubits, input on {rho_qubits}")
    # pair each qubit's row and column axes, with the stack axis last, so
    # that the passes of ``_each_qubit`` bring it out first
    t = rho.reshape((-1,) + (2,) * (2 * m))
    t = t.transpose([1 + a for q in range(m) for a in (q, m + q)] + [0])
    t, out_stack = _scale_strings(t, rho.shape[:-2], lam, m, _TO_PAIR, _FROM_PAIR)
    # rows before columns
    t = t.reshape((-1,) + (2,) * (2 * m))
    rows_then_cols = [0] + list(range(1, 2 * m, 2)) + list(range(2, 2 * m + 1, 2))
    return t.transpose(rows_then_cols).reshape(out_stack + (2 ** m, 2 ** m))


def apply_to_diagonal(weights: np.ndarray, lam: np.ndarray,
                      qubits: int | None = None) -> np.ndarray:
    """The channel on states diagonal in the X or the Z product basis, given as their diagonals.

    ``weights`` (..., 2**M) are the diagonals, index b meaning the product
    state whose qubit q is |+> or |-> (X basis), or |0> or |1> (Z basis),
    as bit q of b is 0 or 1, qubit 0 most significant. Its Walsh transform
    is Tr(rho P) over the strings P of I and X (or Z), which ``lam``,
    built on those letters (``NoiseModel.transfer_eigenvalues``), scales;
    the transform back gives the new diagonal. A Pauli-diagonal channel
    keeps such a state diagonal, so this is exact, in O(M 2**M). ``lam``'s
    axes and the stack broadcast as in ``apply_pauli_diagonal``, and every
    diagonal gets the bits of one call with its channel alone.
    """
    m = lam.ndim if qubits is None else qubits
    weights = np.asarray(weights, dtype=float)
    if num_qubits(weights.shape[-1]) != m:
        raise ValidationError(
            f"channel acts on {m} qubits, diagonal has {weights.shape[-1]} entries")
    t = weights.reshape((-1,) + (2,) * m).transpose(list(range(1, m + 1)) + [0])
    t, out_stack = _scale_strings(t, weights.shape[:-1], lam, m, _WALSH, _WALSH)
    return t.reshape(out_stack + (2 ** m,)) / 2 ** m


# ----------------------------------------------------------------------
# Twirling
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _seeded_damping_shares(qubits: int, fraction: float, seed: int,
                           letters: str = PAULI_LABELS) -> np.ndarray:
    """shares[P + (k,)]: fraction of the sequences that damp P on exactly k qubits.

    A sequence's eigenvalue on P is (1-2p)**k, so this is the p-independent
    part of the twirl. A subset is the first ceil(fraction * 3**M) entries
    of ``default_rng(seed).permutation(3**M)``; each entry's base-3 digits,
    qubit 0 most significant, are its frames. The counts are exact
    integers, divided once at the end. P runs over the strings of
    ``letters``, as in ``NoiseModel.transfer_eigenvalues``.
    """
    total = 3 ** qubits
    if fraction == 1.0:
        counts = _full_damping_counts(qubits, letters)
    else:
        index = np.random.default_rng(seed).permutation(total)[:math.ceil(fraction * total)]
        counts, total = _subset_damping_counts(qubits, index, letters), len(index)
    shares = counts / total
    shares.flags.writeable = False
    return shares


def _full_damping_counts(qubits: int, letters: str) -> np.ndarray:
    """Damping counts of all 3**M sequences, in O(M len(letters)**M).

    The set is a product over qubits: no frame damps I, and two of the three
    damp each of X, Y and Z. So a string of weight w is damped on k qubits
    by comb(w, k) 2**k 3**(M - w) sequences, the x**k coefficient of the
    per-qubit product 3**(M - w) (1 + 2x)**w.
    """
    weight = pauli_weight_tensor(qubits, letters)[..., None]
    k = np.arange(qubits + 1)
    comb = np.array([[math.comb(n, j) for j in k] for n in k])
    return comb[weight, k] * 2 ** k * 3 ** (qubits - weight)


def _subset_damping_counts(qubits: int, index: np.ndarray, letters: str) -> np.ndarray:
    """Damping counts of the sequences ``index``, by ``np.bincount`` over chunks of them."""
    strings = len(letters) ** qubits
    flat = np.arange(strings) * (qubits + 1)
    counts = np.zeros(strings * (qubits + 1), dtype=np.int64)
    table = _DAMPED[:, _columns(letters)]
    step = chunk_rows(8 * strings)
    for lo in range(0, len(index), step):
        chunk = index[lo:lo + step]
        # damped-qubit count of every string, qubit 0 outermost as in lam's tensor
        k = np.zeros((len(chunk), 1), dtype=np.int64)
        for q in range(qubits):
            damped = table[chunk // 3 ** (qubits - 1 - q) % 3]
            k = (k[:, :, None] + damped[:, None, :]).reshape(len(chunk), -1)
        counts += np.bincount((flat + k).ravel(), minlength=counts.size)
    return counts.reshape((len(letters),) * qubits + (qubits + 1,))


# ----------------------------------------------------------------------
# Channel factory and comparison
# ----------------------------------------------------------------------

def make_channel(model: NoiseModel, qubits: int, letters: str = PAULI_LABELS):
    """Closure applying the described channel to a density matrix or a stack.

    The transfer eigenvalues are built once here. A tuple ``p`` makes one
    closure for all its entries: one matrix in gives ``(P, d, d)`` out, one
    state per p, and a stack ``(P, L, d, d)`` gets p's channel on each of
    its L matrices (``apply_pauli_diagonal``). With ``letters`` IX or IZ
    the closure takes diagonals in the X or Z product basis instead,
    ``(..., d)`` for ``(..., d, d)`` (``apply_to_diagonal``). A twirled
    model's seeded subset and damping table are cached per (qubits,
    fraction, seed, letters), so a sweep draws one subset and each p costs
    O(M len(letters)**M).
    """
    if letters not in (PAULI_LABELS, "IX", "IZ"):
        raise ValidationError(f"letters {letters!r}: IXYZ for matrices, IX or IZ for diagonals")
    lam = model.transfer_eigenvalues(qubits, letters)
    if letters == PAULI_LABELS:
        return lambda rho: apply_pauli_diagonal(rho, lam, qubits)
    return lambda weights: apply_to_diagonal(weights, lam, qubits)


def channel_matrix_equality(chan_a, chan_b, qubits: int) -> float:
    """Maximum entrywise deviation of two channels over all Pauli inputs.

    Both channels are linear, so agreement on the 4**M Pauli basis matrices
    is agreement everywhere.
    """
    worst = 0.0
    for labels in itertools.product(PAULI_LABELS, repeat=qubits):
        pauli = pauli_matrix("".join(labels))
        dev = float(np.max(np.abs(chan_a(pauli) - chan_b(pauli))))
        worst = max(worst, dev)
    return worst
