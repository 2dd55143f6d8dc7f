"""Quantum state representations, Pauli algebra, and spectral utilities.

Everything operates on plain numpy arrays: pure states are normalized
complex vectors of length D = 2**M, density matrices are D x D complex
Hermitian, trace-one, positive-semidefinite matrices. Validation is
explicit (``check_pure_state`` / ``check_density_matrix``) rather than
implicit on every operation, so parameter sweeps stay cheap.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# ----------------------------------------------------------------------
# Pauli matrices and basic constants
# ----------------------------------------------------------------------

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_LABELS = "IXYZ"
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

# Guard on the 4**M cost of Pauli-basis operations.
MAX_PAULI_QUBITS = 6
# Largest register the command line builds as a dense 2**M x 2**M matrix.
MAX_DENSE_QUBITS = 8

NORM_TOL = 1e-12
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_TOL = 1e-10


class ValidationError(ValueError):
    """An input fails a state invariant (norm, trace, Hermiticity, PSD, shape)."""


class ResourceLimitError(ValueError):
    """An operation was requested beyond its guarded cost limit."""


def num_qubits(dim: int) -> int:
    """Number of qubits for Hilbert-space dimension ``dim`` (must be 2**M)."""
    m = int(dim).bit_length() - 1
    if dim <= 0 or (1 << m) != dim:
        raise ValidationError(f"dimension {dim} is not a power of two")
    return m


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, first factor leftmost.

    Qubit 0 is the leftmost factor, i.e. the most significant bit of the
    basis-state index.
    """
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_matrix(code: str) -> np.ndarray:
    """Dense matrix of a Pauli string such as ``"XZI"`` (qubit 0 leftmost)."""
    try:
        return kron_all([PAULIS[c] for c in code])
    except KeyError as exc:
        raise ValidationError(f"invalid Pauli label in {code!r}") from exc


def pauli_weight(code: str) -> int:
    """Number of non-identity factors in a Pauli string."""
    return sum(1 for c in code if c != "I")


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------

def check_pure_state(psi: np.ndarray) -> np.ndarray:
    """Validate and return a pure state as a complex 1-D array."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValidationError("pure state must be a 1-D amplitude vector")
    num_qubits(psi.size)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValidationError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")
    return psi


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError("density matrix must be square")
    num_qubits(rho.shape[0])
    herm_dev = np.max(np.abs(rho - rho.conj().T))
    if herm_dev > HERM_TOL:
        raise ValidationError(f"Hermiticity violation {herm_dev} > {HERM_TOL}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"trace {tr} deviates from 1 by more than {TRACE_TOL}")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if min_eig < -EIG_TOL:
        raise ValidationError(f"negative eigenvalue {min_eig} below -{EIG_TOL}")
    return rho


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    """Rank-one projector |psi><psi| of a normalized pure state."""
    psi = check_pure_state(psi)
    return np.outer(psi, psi.conj())


def maximally_mixed(qubits: int) -> np.ndarray:
    d = 2 ** qubits
    return np.eye(d, dtype=complex) / d


def zero_state(qubits: int) -> np.ndarray:
    psi = np.zeros(2 ** qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def plus_state(qubits: int) -> np.ndarray:
    d = 2 ** qubits
    return np.full(d, 1.0 / math.sqrt(d), dtype=complex)


def bloch_state(theta: float, phi: float, qubits: int = 1) -> np.ndarray:
    """Product state (cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>)^{tensor qubits}."""
    single = np.array([math.cos(theta / 2),
                       complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)],
                      dtype=complex)
    psi = np.array([1.0 + 0j])
    for _ in range(qubits):
        psi = np.kron(psi, single)
    return psi


def random_pure_state(qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state on ``qubits`` qubits."""
    d = 2 ** qubits
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    return vec / np.linalg.norm(vec)


def random_density_matrix(qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix, Wishart-normalized."""
    d = 2 ** qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


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
    by matrix, with the same result as one call per matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    herm = rho + _dagger(rho)
    herm /= 2
    vals, vecs = np.linalg.eigh(herm)
    vals = np.clip(vals, 0.0, None)
    total = vals.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise ValidationError("all-zero spectrum: input has no positive weight")
    return vals / total, vecs


def project_to_density(mat: np.ndarray) -> np.ndarray:
    """Nearest well-formed density matrix: symmetrize, clamp, renormalize.

    Accepts a stack ``(..., d, d)`` and projects each matrix on its own.
    """
    vals, vecs = spectral_decomposition(mat)
    scaled = vecs * vals[..., None, :]
    # V diag(vals) V^dagger, conjugating V in place to spare a copy of the stack
    return scaled @ np.conj(vecs, out=vecs).swapaxes(-1, -2)


@dataclass(frozen=True)
class SpectralPower:
    """rho**n in scaled form: V diag(eigenvalues) V^dagger * exp(log_scale) equals rho**n.

    Eigenvalues are divided by the largest one before powering, so the
    object stays finite for n as large as 2**30 even when the true trace
    underflows; ``log_scale`` carries n*log(lambda_max). For a stack of
    matrices every field gains the stack's leading axes.
    """

    eigenvalues: np.ndarray   # (lambda_i / lambda_max) ** n, ascending
    eigenvectors: np.ndarray
    log_scale: float | np.ndarray

    @property
    def value(self) -> np.ndarray:
        """rho**n itself; underflows to zero for extreme n, by design."""
        return np.exp(self.log_scale)[..., None, None] * self._reconstruct(self.eigenvalues)

    @property
    def trace(self):
        """Tr(rho**n); may underflow to 0.0 for extreme n."""
        return np.exp(self.log_scale) * self.eigenvalues.sum(axis=-1)

    def normalized(self) -> np.ndarray:
        """rho**n / Tr(rho**n), computed without leaving the scaled form."""
        return self._reconstruct(self._weights())

    def fidelity(self, psi: np.ndarray):
        """<psi|rho**n|psi> / Tr(rho**n) as sum_i w_i |<v_i|psi>|^2, with no matrix built.

        The weights w_i are the normalized spectrum. A stack gives an array
        of overlaps, one per matrix, with the same bits as one call each.
        """
        amplitudes = np.asarray(psi).conj() @ self.eigenvectors
        overlap = (self._weights() * (amplitudes.real ** 2 + amplitudes.imag ** 2)).sum(axis=-1)
        return float(overlap) if overlap.ndim == 0 else overlap

    def _weights(self) -> np.ndarray:
        return self.eigenvalues / self.eigenvalues.sum(axis=-1, keepdims=True)

    def _reconstruct(self, weights: np.ndarray) -> np.ndarray:
        # V diag(weights) V^dagger, matrix by matrix for a stack
        return (self.eigenvectors * weights[..., None, :]) @ _dagger(self.eigenvectors)


# Any eigenvalue ratio below one powered by 2**64 or more is already 0.0 in
# float64, so capping exponents there changes no value and keeps them floats.
_POWER_CAP = 2 ** 64


def spectral_power(rho: np.ndarray, power: int) -> SpectralPower:
    """Matrix power rho**power through the eigendecomposition.

    The eigenbasis is the input's own; only the spectrum is powered. A
    stack ``(..., d, d)`` is powered matrix by matrix, with the same result
    as one call each.
    """
    return power_spectrum(*spectral_decomposition(rho), power)


def power_spectrum(vals: np.ndarray, vecs: np.ndarray, power: int) -> SpectralPower:
    """``spectral_power`` from a ``spectral_decomposition`` already made."""
    if power < 1:
        raise ValidationError("power must be >= 1")
    lam_max = vals[..., -1]
    # one scalar exponent for the whole stack, as for a single matrix
    scaled = (vals / lam_max[..., None]) ** float(min(power, _POWER_CAP))
    try:
        log_scale = power * np.log(lam_max)
    except OverflowError:  # power beyond the float range: n log(lam) is 0 or -inf
        log_scale = np.where(lam_max < 1.0, -np.inf, 0.0)
    return SpectralPower(eigenvalues=scaled, eigenvectors=vecs, log_scale=log_scale)


# ----------------------------------------------------------------------
# Pauli expansion
# ----------------------------------------------------------------------

# Pair one qubit's row and column indices as k = 2i + j. Then T[a, k] =
# P_a[j, i] maps the pair to the coefficients Tr(rho P_a), and Tr(P_a P_b) =
# 2 delta_ab makes T^dagger / 2 its exact inverse. Stored transposed, for
# right-multiplication.
_PAIR_T = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]).transpose(0, 2, 1).reshape(4, 4)
_TO_PAULI, _FROM_PAULI = _PAIR_T.T.copy(), _PAIR_T.conj() / 2


def _each_qubit(t: np.ndarray, mat: np.ndarray, qubits: int) -> np.ndarray:
    # each pass contracts the leading axis and appends the result last, so
    # after ``qubits`` passes the axes are back in qubit order
    for _ in range(qubits):
        t = t.reshape(4, -1).T @ mat
    return t


def to_pauli_basis(rho: np.ndarray) -> np.ndarray:
    """Complex tensor Tr(rho P), shape (4,)*M, IXYZ axes; O(M 4**M), no qubit guard.

    A stack ``(..., d, d)`` gives ``(...,) + (4,)*M``, matrix by matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    m = num_qubits(rho.shape[-1])
    t = rho.reshape((-1,) + (2,) * (2 * m))
    # pair each qubit's row and column axes; the stack axis goes last, so
    # that the passes of ``_each_qubit`` bring it out first
    t = t.transpose([1 + a for q in range(m) for a in (q, m + q)] + [0])
    return _each_qubit(t, _TO_PAULI, m).reshape(rho.shape[:-2] + (4,) * m)


def from_pauli_basis(coeffs: np.ndarray, qubits: int | None = None) -> np.ndarray:
    """Inverse of ``to_pauli_basis``: 2**-M sum_P coeffs[P] P, with no qubit guard.

    The last ``qubits`` axes (all by default) are the Pauli axes; any axes
    before them are a stack, mapped matrix by matrix.
    """
    m = coeffs.ndim if qubits is None else qubits
    stack = coeffs.shape[:coeffs.ndim - m]
    t = coeffs.reshape((-1,) + (4,) * m).transpose(list(range(1, m + 1)) + [0])
    t = _each_qubit(t, _FROM_PAULI, m).reshape((-1,) + (2,) * (2 * m))
    rows_then_cols = [0] + list(range(1, 2 * m, 2)) + list(range(2, 2 * m + 1, 2))
    return t.transpose(rows_then_cols).reshape(stack + (2 ** m, 2 ** m))


def _check_pauli_budget(qubits: int) -> None:
    if qubits > MAX_PAULI_QUBITS:
        raise ResourceLimitError(
            f"Pauli expansion limited to {MAX_PAULI_QUBITS} qubits "
            f"(4**{qubits} coefficients requested)")


def pauli_expand(rho: np.ndarray) -> dict[str, float]:
    """Map from Pauli string (e.g. ``"XZ"``) to its real coefficient Tr(rho P)."""
    rho = np.asarray(rho, dtype=complex)
    m = num_qubits(rho.shape[0])
    _check_pauli_budget(m)
    coeffs = to_pauli_basis(rho).real
    out = {}
    for idx in itertools.product(range(4), repeat=m):
        out["".join(PAULI_LABELS[i] for i in idx)] = float(coeffs[idx])
    return out


def pauli_weight_tensor(qubits: int) -> np.ndarray:
    """Tensor of Pauli weights, shape (4,)*qubits: count of non-identity axes."""
    return functools.reduce(np.add.outer, [np.array([0, 1, 1, 1])] * qubits)


def pauli_weight_distribution(psi: np.ndarray):
    """Weight distribution a_k of a pure target and its mean weight.

    a_k = 2**-M sum_{w(P)=k} r_P^2 with sum_k a_k = 1; the second return
    value is sum_k k a_k, the average Pauli weight of the target.
    """
    psi = check_pure_state(psi)
    m = num_qubits(psi.size)
    _check_pauli_budget(m)
    coeffs = to_pauli_basis(density_from_pure(psi)).real
    weights = pauli_weight_tensor(m)
    sq = coeffs ** 2 / 2 ** m
    a = np.array([sq[weights == k].sum() for k in range(m + 1)])
    mean_weight = float(np.sum(np.arange(m + 1) * a))
    return a, mean_weight


# ----------------------------------------------------------------------
# Bloch sphere (single qubit)
# ----------------------------------------------------------------------

def bloch_decompose(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (r_x, r_y, r_z) of a single-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValidationError("Bloch decomposition requires a single qubit")
    r = np.array([np.trace(rho @ PAULI_X), np.trace(rho @ PAULI_Y),
                  np.trace(rho @ PAULI_Z)])
    return np.real(r)


def bloch_compose(r: np.ndarray) -> np.ndarray:
    """Density matrix (I + r . sigma)/2 of a Bloch vector with |r| <= 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValidationError("Bloch vector must have three components")
    norm = np.linalg.norm(r)
    if norm > 1.0 + NORM_TOL:
        raise ValidationError(f"Bloch vector length {norm} exceeds 1")
    return (PAULI_I + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2


# ----------------------------------------------------------------------
# Werner family
# ----------------------------------------------------------------------

def werner_state(mix: float, target: np.ndarray) -> np.ndarray:
    """(1 - mix)|psi><psi| + mix I/D for mixing parameter in [0, 1]."""
    if not 0.0 <= mix <= 1.0 + NORM_TOL:
        raise ValidationError(f"mixing parameter {mix} outside [0, 1]")
    psi = check_pure_state(target)
    d = psi.size
    return (1.0 - mix) * density_from_pure(psi) + mix * np.eye(d) / d


def werner_fidelity(mix: float, dim: int) -> float:
    """Fidelity 1 - mix (1 - 1/D) of a Werner state with its target."""
    return 1.0 - mix * (1.0 - 1.0 / dim)


def werner_mixing(fid: float, dim: int) -> float:
    """Inverse of ``werner_fidelity``."""
    return (1.0 - fid) * dim / (dim - 1.0)
