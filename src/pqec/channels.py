"""Noise channels acting per register between correction cycles.

Implements the global depolarizing mixture, the per-qubit depolarizing
product channel, per-qubit dephasing, and Clifford-frame twirling of the
dephasing channel (full or seeded-subset). All four are diagonal in the
Pauli basis, so each is one transfer-eigenvalue tensor applied by one kernel.
The kernel changes basis to the real Pauli-type basis {I, X, XZ, Z}, where
XZ = -iY, so a real state stays real and a complex one runs the same code.
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

    def transfer_eigenvalues(self, qubits: int) -> np.ndarray:
        """Tensor lam, shape np.shape(p) + (4,)*qubits: the channel maps Tr(rho P) to lam[P] Tr(rho P).

        A tuple ``p`` gives one row per entry, each with the bits of a call
        with that entry alone.
        """
        self.validate()
        p = np.asarray(self.p, dtype=float)
        lam_shape = p.shape + (4,) * qubits
        if self.kind == "global-depol":
            lam = np.repeat(1.0 - p, 4 ** qubits).reshape(lam_shape)
            lam[(...,) + (0,) * qubits] = 1.0
            return lam
        if self.kind == "twirled-dephasing":
            shares = _seeded_damping_shares(qubits, self.twirl_fraction, self.twirl_seed)
            k = np.arange(qubits + 1)
            # one matrix-vector product per p: a stacked product sums in another order
            return np.stack([shares @ (1.0 - 2.0 * q) ** k for q in p.ravel()]).reshape(lam_shape)
        local = self.kind == "local-depol"
        eta = 1.0 - 4.0 * p / 3.0 if local else 1.0 - 2.0 * p
        one = np.ones_like(eta)
        factors = np.stack([one, eta, eta, eta if local else one], axis=-1)
        # outer products folded from the left, qubit 0 outermost, per p
        lam = factors
        for q in range(1, qubits):
            lam = lam[..., None] * factors.reshape(p.shape + (1,) * q + (4,))
        return lam


# Pair one qubit's row and column indices as k = 2i + j. Then T[a, k] =
# B_a[j, i] maps the pair to the coefficients Tr(rho B_a) in the real basis
# B = (I, X, XZ, Z). Tr(B_a^T B_b) = 2 delta_ab makes T.T / 2 its exact
# inverse. A Pauli-diagonal channel scales Tr(rho XZ) = -i Tr(rho Y) by Y's
# eigenvalue, so lam keeps its IXYZ axes. Stored transposed, for
# right-multiplication.
_PAIR_T = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]], dtype=float)
_TO_PAIR, _FROM_PAIR = _PAIR_T.T.copy(), _PAIR_T / 2


def _each_qubit(t: np.ndarray, mat: np.ndarray, qubits: int) -> np.ndarray:
    # each pass contracts the leading axis and appends the result last, so
    # after ``qubits`` passes the axes are back in qubit order
    for _ in range(qubits):
        t = t.reshape(4, -1).T @ mat
    return t


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
    stack = rho.shape[:-2]
    # pair each qubit's row and column axes, with the stack axis last, so
    # that the passes of ``_each_qubit`` bring it out first
    t = rho.reshape((-1,) + (2,) * (2 * m))
    t = t.transpose([1 + a for q in range(m) for a in (q, m + q)] + [0])
    coeffs = _each_qubit(t, _TO_PAIR, m).reshape(stack + (4,) * m)
    lead = lam.ndim - m
    coeffs = coeffs * lam.reshape(lam.shape[:lead] + (1,) * (len(stack) - lead) + lam.shape[lead:])
    # and back: the stack axis last again, then rows before columns
    out_stack = coeffs.shape[:coeffs.ndim - m]
    t = coeffs.reshape((-1,) + (4,) * m).transpose(list(range(1, m + 1)) + [0])
    t = _each_qubit(t, _FROM_PAIR, m).reshape((-1,) + (2,) * (2 * m))
    rows_then_cols = [0] + list(range(1, 2 * m, 2)) + list(range(2, 2 * m + 1, 2))
    return t.transpose(rows_then_cols).reshape(out_stack + (2 ** m, 2 ** m))


# ----------------------------------------------------------------------
# Twirling
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _seeded_damping_shares(qubits: int, fraction: float, seed: int) -> np.ndarray:
    """shares[P + (k,)]: fraction of the sequences that damp P on exactly k qubits.

    A sequence's eigenvalue on P is (1-2p)**k, so this is the p-independent
    part of the twirl. A subset is the first ceil(fraction * 3**M) entries
    of ``default_rng(seed).permutation(3**M)``; each entry's base-3 digits,
    qubit 0 most significant, are its frames. The counts are exact
    integers, divided once at the end.
    """
    total = 3 ** qubits
    if fraction == 1.0:
        counts = _full_damping_counts(qubits)
    else:
        index = np.random.default_rng(seed).permutation(total)[:math.ceil(fraction * total)]
        counts, total = _subset_damping_counts(qubits, index), len(index)
    shares = counts / total
    shares.flags.writeable = False
    return shares


def _full_damping_counts(qubits: int) -> np.ndarray:
    """Damping counts of all 3**M sequences, in O(M 4**M).

    The set is a product over qubits: no frame damps I, and two of the three
    damp each of X, Y and Z. So a string of weight w is damped on k qubits
    by comb(w, k) 2**k 3**(M - w) sequences, the x**k coefficient of the
    per-qubit product 3**(M - w) (1 + 2x)**w.
    """
    weight = pauli_weight_tensor(qubits)[..., None]
    k = np.arange(qubits + 1)
    comb = np.array([[math.comb(n, j) for j in k] for n in k])
    return comb[weight, k] * 2 ** k * 3 ** (qubits - weight)


def _subset_damping_counts(qubits: int, index: np.ndarray) -> np.ndarray:
    """Damping counts of the sequences ``index``, by ``np.bincount`` over chunks of them."""
    flat = np.arange(4 ** qubits) * (qubits + 1)
    counts = np.zeros(4 ** qubits * (qubits + 1), dtype=np.int64)
    step = chunk_rows(8 * 4 ** qubits)
    for lo in range(0, len(index), step):
        chunk = index[lo:lo + step]
        # damped-qubit count of every string, qubit 0 outermost as in the (4,)*M tensor
        k = np.zeros((len(chunk), 1), dtype=np.int64)
        for q in range(qubits):
            damped = _DAMPED[chunk // 3 ** (qubits - 1 - q) % 3]
            k = (k[:, :, None] + damped[:, None, :]).reshape(len(chunk), -1)
        counts += np.bincount((flat + k).ravel(), minlength=counts.size)
    return counts.reshape((4,) * qubits + (qubits + 1,))


# ----------------------------------------------------------------------
# Channel factory and comparison
# ----------------------------------------------------------------------

def make_channel(model: NoiseModel, qubits: int):
    """Closure applying the described channel to a density matrix or a stack.

    The transfer eigenvalues are built once here. A tuple ``p`` makes one
    closure for all its entries: one matrix in gives ``(P, d, d)`` out, one
    state per p, and a stack ``(P, L, d, d)`` gets p's channel on each of
    its L matrices (``apply_pauli_diagonal``). A twirled model's seeded
    subset and damping table are cached per (qubits, fraction, seed), so a
    sweep draws one subset and each p costs O(M 4**M).
    """
    lam = model.transfer_eigenvalues(qubits)
    return lambda rho: apply_pauli_diagonal(rho, lam, qubits)


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
