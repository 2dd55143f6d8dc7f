"""Noise channels acting per register between correction cycles.

Implements the global depolarizing mixture, the per-qubit depolarizing
product channel, per-qubit dephasing, and Clifford-frame twirling of the
dephasing channel (full or seeded-subset). All four are diagonal in the
Pauli basis, so each is one transfer-eigenvalue tensor applied by one kernel.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .purify import chunk_rows
from .states import PAULI_LABELS, ValidationError, from_pauli_basis, num_qubits, pauli_matrix, \
    to_pauli_basis

# Fixed default seed for subset twirling; documented in the README. Chosen so
# the seeded single-gate subset at M=1 rotates the dephasing axis to one that
# still damps the |+> target (see tests).
DEFAULT_SEED = 7

# Averaged as U^dag E_z(U rho U^dag) U, frame I keeps the dephasing axis on Z,
# H rotates it onto X and HS onto Y. Per frame, 1 marks the IXYZ labels that
# its dephasing damps: all but I and that axis.
FRAME_LABELS = ("I", "H", "HS")
_DAMPED = {"I": np.array([0, 1, 1, 0]), "H": np.array([0, 0, 1, 1]),
           "HS": np.array([0, 1, 0, 1])}

CHANNEL_KINDS = ("global-depol", "local-depol", "dephasing", "twirled-dephasing")


@dataclass(frozen=True)
class NoiseModel:
    """Tagged channel description, constructible from CLI flags.

    ``kind`` is one of ``global-depol`` ((1-p) rho + p Tr(rho) I/D),
    ``local-depol`` (Kraus sqrt(1-p) I, sqrt(p/3) X, Y, Z on every qubit),
    ``dephasing`` ((1-p) rho + p Z rho Z on every qubit) or
    ``twirled-dephasing`` (the mean of U^dag E_z(U rho U^dag) U over the
    seeded frame subset); ``p`` is the error probability. The twirl fields
    only matter for ``twirled-dephasing``. ``make_channel`` applies it.
    """

    kind: str
    p: float
    twirl_fraction: float = 1.0
    twirl_seed: int = DEFAULT_SEED

    def validate(self) -> "NoiseModel":
        if self.kind not in CHANNEL_KINDS:
            raise ValidationError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"error probability {self.p} outside [0, 1]")
        if not 0.0 < self.twirl_fraction <= 1.0:
            raise ValidationError(
                f"twirl fraction {self.twirl_fraction} outside (0, 1]")
        return self

    def transfer_eigenvalues(self, qubits: int) -> np.ndarray:
        """Tensor lam, shape (4,)*qubits: the channel maps Tr(rho P) to lam[P] Tr(rho P)."""
        self.validate()
        p = self.p
        if self.kind == "global-depol":
            lam = np.full((4,) * qubits, 1.0 - p)
            lam[(0,) * qubits] = 1.0
            return lam
        if self.kind == "twirled-dephasing":
            shares = _seeded_damping_shares(qubits, self.twirl_fraction, self.twirl_seed)
            return shares @ (1.0 - 2.0 * p) ** np.arange(qubits + 1)
        eta = 1.0 - 4.0 * p / 3.0 if self.kind == "local-depol" else 1.0 - 2.0 * p
        factors = np.array([1.0, eta, eta, eta if self.kind == "local-depol" else 1.0])
        return functools.reduce(np.multiply.outer, [factors] * qubits)


def apply_pauli_diagonal(rho: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Multiply the coefficient of every Pauli string P in rho by lam[P].

    O(M 4**M) and, unlike the Pauli expansion, not limited in M. A stack
    ``(..., d, d)`` is mapped matrix by matrix, with the same result as one
    call each.
    """
    qubits = num_qubits(np.shape(rho)[-1])
    if qubits != lam.ndim:
        raise ValidationError(f"channel acts on {lam.ndim} qubits, input on {qubits}")
    return from_pauli_basis(to_pauli_basis(rho) * lam, qubits)


# ----------------------------------------------------------------------
# Twirling
# ----------------------------------------------------------------------

def generate_twirl_set(qubits: int, fraction: float,
                       seed: int = DEFAULT_SEED) -> tuple[tuple[str, ...], ...]:
    """Seeded subset of the 3**M frame-gate sequences, each a length-M label tuple.

    ``fraction`` = 1 yields the full set in lexicographic order; otherwise
    ceil(fraction * 3**M) distinct sequences are drawn without replacement
    from the index space using the given seed.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"twirl fraction {fraction} outside (0, 1]")
    total = 3 ** qubits

    def decode(n: int):
        digits = []
        for _ in range(qubits):
            n, r = divmod(n, 3)
            digits.append(FRAME_LABELS[r])
        return tuple(reversed(digits))

    if fraction == 1.0:
        indices = range(total)
    else:
        count = math.ceil(fraction * total)
        rng = np.random.default_rng(seed)
        indices = rng.permutation(total)[:count]
    return tuple(decode(int(n)) for n in indices)


@functools.lru_cache(maxsize=16)
def _seeded_damping_shares(qubits: int, fraction: float, seed: int) -> np.ndarray:
    """shares[P + (k,)]: fraction of the sequences that damp P on exactly k qubits.

    A sequence's eigenvalue on P is (1-2p)**k, so this is the p-independent
    part of the twirl. The counts are exact integers, divided once at the
    end.
    """
    if fraction == 1.0:
        counts, total = _full_damping_counts(qubits), 3 ** qubits
    else:
        gates = generate_twirl_set(qubits, fraction, seed)
        counts, total = _subset_damping_counts(qubits, gates), len(gates)
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
    weight = functools.reduce(np.add.outer, [np.array([0, 1, 1, 1])] * qubits)[..., None]
    k = np.arange(qubits + 1)
    comb = np.array([[math.comb(n, j) for j in k] for n in k])
    return comb[weight, k] * 2 ** k * 3 ** (qubits - weight)


def _subset_damping_counts(qubits: int, gates) -> np.ndarray:
    """Damping counts of the listed sequences, by ``np.bincount`` over chunks of them."""
    flat = np.arange(4 ** qubits) * (qubits + 1)
    counts = np.zeros(4 ** qubits * (qubits + 1), dtype=np.int64)
    step = chunk_rows(8 * 4 ** qubits)
    for lo in range(0, len(gates), step):
        damped = np.array([[_DAMPED[g] for g in seq] for seq in gates[lo:lo + step]])
        # damped-qubit count of every string, qubit 0 outermost as in the (4,)*M tensor
        k = damped[:, 0]
        for q in range(1, qubits):
            k = (k[:, :, None] + damped[:, q, None, :]).reshape(len(damped), -1)
        counts += np.bincount((flat + k).ravel(), minlength=counts.size)
    return counts.reshape((4,) * qubits + (qubits + 1,))


# ----------------------------------------------------------------------
# Channel factory and comparison
# ----------------------------------------------------------------------

def make_channel(model: NoiseModel, qubits: int):
    """Closure applying the described channel to a density matrix.

    The transfer eigenvalues are built once here. A twirled model's seeded
    subset and damping table are cached per (qubits, fraction, seed), so a
    sweep draws one subset and each cell costs O(M 4**M).
    """
    lam = model.transfer_eigenvalues(qubits)
    return lambda rho: apply_pauli_diagonal(rho, lam)


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
