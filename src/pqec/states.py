"""Quantum state representations, Pauli algebra, and spectral utilities.

Everything operates on plain numpy arrays: pure states are normalized
vectors of length D = 2**M, density matrices are D x D Hermitian,
trace-one, positive-semidefinite matrices. A state is float64 when its
entries are real and complex128 otherwise (``real_or_complex``), and every
helper here keeps that dtype: a real target such as ``plus_state`` stays
real through channels, eigendecompositions and fidelities. Validation is
explicit (``check_pure_state``) rather than implicit on every operation,
so parameter sweeps stay cheap; ``project_to_density`` puts a computed
matrix back on the PSD manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ----------------------------------------------------------------------
# Pauli matrices and basic constants
# ----------------------------------------------------------------------

PAULI_I = np.eye(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

PAULI_LABELS = "IXYZ"
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

# Largest register on which ``twirl-check`` compares channels exhaustively;
# channel application is not limited in M.
MAX_PAULI_QUBITS = 6
# Largest register held as a 2**M diagonal or a dense 2**M x 2**M matrix.
MAX_DENSE_QUBITS = 8

NORM_TOL = 1e-12


class ValidationError(ValueError):
    """An input fails a state invariant (norm, trace, Hermiticity, PSD, shape)."""


class ResourceLimitError(ValueError):
    """An operation was requested beyond its guarded cost limit."""


def check_register(qubits: int, limit: int, held_as: str) -> None:
    """Raise ``ResourceLimitError`` if a register of ``qubits`` is past the ``limit`` of its form."""
    if qubits > limit:
        raise ResourceLimitError(
            f"{qubits} qubits exceed the limit of {limit} for a register held as {held_as}")


def num_qubits(dim: int) -> int:
    """Number of qubits for Hilbert-space dimension ``dim`` (must be 2**M)."""
    m = int(dim).bit_length() - 1
    if dim <= 0 or (1 << m) != dim:
        raise ValidationError(f"dimension {dim} is not a power of two")
    return m


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, first factor leftmost.

    Qubit 0 is the leftmost factor, i.e. the most significant bit of the
    basis-state index. Returns a new array, also for one factor: float64
    unless a factor is complex. No factors give the 1 x 1 identity.
    """
    factors = iter(mats)
    out = np.array(real_or_complex(next(factors, [[1.0]])))
    for m in factors:
        out = np.kron(out, m)
    return out


def pauli_matrix(code: str) -> np.ndarray:
    """Dense matrix of a Pauli string such as ``"XZI"`` (qubit 0 leftmost); complex only with Y."""
    try:
        return kron_all([PAULIS[c] for c in code])
    except KeyError as exc:
        raise ValidationError(f"invalid Pauli label in {code!r}") from exc


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------

def real_or_complex(a) -> np.ndarray:
    """``a`` as a complex128 array if its dtype is complex, else as float64.

    Integers and booleans become float64 too. The one dtype rule of every
    state helper: a real input stays real, and an array already of its
    dtype is returned as it is.
    """
    a = np.asarray(a)
    return a.astype(float if np.isrealobj(a) else complex, copy=False)


def check_pure_state(psi: np.ndarray) -> np.ndarray:
    """Validate and return a pure state as a 1-D array, real or complex as ``real_or_complex``."""
    psi = real_or_complex(psi)
    if psi.ndim != 1:
        raise ValidationError("pure state must be a 1-D amplitude vector")
    num_qubits(psi.size)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValidationError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")
    return psi


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    """Rank-one projector |psi><psi| of a normalized pure state."""
    psi = check_pure_state(psi)
    return np.outer(psi, psi.conj())


def zero_state(qubits: int) -> np.ndarray:
    """|0...0> as a float64 vector."""
    psi = np.zeros(2 ** qubits)
    psi[0] = 1.0
    return psi


def plus_state(qubits: int) -> np.ndarray:
    """|+...+> as a float64 vector."""
    d = 2 ** qubits
    return np.full(d, 1.0 / math.sqrt(d))


def bloch_state(theta: float, phi: float, qubits: int = 1) -> np.ndarray:
    """Product state (cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>)^{tensor qubits}, complex128."""
    single = np.array([math.cos(theta / 2),
                       complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)],
                      dtype=complex)
    psi = np.array([1.0 + 0j])
    for _ in range(qubits):
        psi = np.kron(psi, single)
    return psi


@dataclass(frozen=True)
class ProductState:
    """A target of ``qubits`` copies of one one-qubit pure state, as parsed: no vector.

    ``name`` is ``plus``, ``zero`` or ``bloch``, with ``angles`` (theta,
    phi) for ``bloch``. ``vector`` builds the amplitudes on request, by
    ``plus_state``, ``zero_state`` or ``bloch_state``, so they have those
    functions' bits: ``vector(1)`` is the one qubit's state.
    """

    name: str
    qubits: int
    angles: tuple = ()

    def vector(self, qubits: int | None = None) -> np.ndarray:
        qubits = self.qubits if qubits is None else qubits
        if self.name == "bloch":
            return bloch_state(*self.angles, qubits)
        return {"plus": plus_state, "zero": zero_state}[self.name](qubits)


# ----------------------------------------------------------------------
# Scalar functionals
# ----------------------------------------------------------------------

def fidelity(rho: np.ndarray, psi: np.ndarray):
    """Overlap <psi|rho|psi> with a pure target state.

    A stack ``(..., d, d)`` gives an array of overlaps, one per matrix, with
    the same bits as one call each.
    """
    rho = np.asarray(rho)
    psi = np.asarray(psi)
    if rho.shape[-1] != psi.shape[0]:
        raise ValidationError(
            f"dimension mismatch: state {rho.shape[-1]}, target {psi.shape[0]}")
    overlap = np.real((psi.conj()[None, :] @ rho) @ psi[:, None])[..., 0, 0]
    return float(overlap) if rho.ndim == 2 else overlap


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2)."""
    rho = np.asarray(rho)
    return float(np.real(np.trace(rho @ rho)))


# ----------------------------------------------------------------------
# Spectral path
# ----------------------------------------------------------------------

def _dagger(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return mat.conj().swapaxes(-1, -2)


def spectral_decomposition(rho: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of the symmetrized matrix.

    The matrix is symmetrized to (rho + rho^dagger)/2 before the Hermitian
    eigensolver; small negative eigenvalues from numerical noise are clamped
    to zero and the spectrum renormalized to unit sum, which keeps iterated
    maps on the PSD manifold. A stack ``(..., d, d)`` is decomposed matrix
    by matrix, with the same result as one call per matrix. A real matrix
    gets real eigenvectors.
    """
    rho = real_or_complex(rho)
    herm = rho + _dagger(rho)
    herm /= 2
    vals, vecs = np.linalg.eigh(herm)
    vals = np.clip(vals, 0.0, None)
    total = vals.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise ValidationError("all-zero spectrum: input has no positive weight")
    return vals / total, vecs


def from_spectrum(weights: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """V diag(weights) V^dagger: the matrix with eigenvalues ``weights`` on eigenvectors ``vecs``.

    Stacks ``(..., d)`` of weights and ``(..., d, d)`` of eigenvectors
    broadcast, and give one matrix per row of weights.
    """
    return (vecs * weights[..., None, :]) @ _dagger(vecs)


def project_to_density(mat: np.ndarray) -> np.ndarray:
    """Nearest well-formed density matrix: symmetrize, clamp, renormalize.

    Accepts a stack ``(..., d, d)`` and projects each matrix on its own; a
    real matrix stays real.
    """
    vals, vecs = spectral_decomposition(mat)
    scaled = vecs * vals[..., None, :]
    # ``from_spectrum``, but conjugating V in place to spare a copy of the stack
    return scaled @ np.conj(vecs, out=vecs).swapaxes(-1, -2)
