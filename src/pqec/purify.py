"""SWAP-gadget purification: the merge, the spectral shortcut, the Werner map.

The elementary step projects two copies onto the symmetric or antisymmetric
subspace and discards one register:

    rho_out = (rho + rho' +- (rho rho' + rho' rho)) / (4 P),
    P       = (1 +- Tr(rho rho')) / 2.

``rounds`` levels of the binary merge tree consume 2**rounds copies and
produce 2**rounds - 1 measurement outcomes, listed left subtree first, then
right subtree, then the root. Averaging the conditional states over all
outcomes returns the input, while weighting each term by the outcome parity
(the product of all signs) extracts the matrix power rho**(2**rounds) with
unit coefficient; the normalized power is the purified state. The spectral
shortcut never builds the power: it keeps rho's eigenvectors v_i and the
normalized powered eigenvalues w_i (``purified_weights``), and reads any
purified expectation as sum_i w_i <v_i|O|v_i>. Every branch state shares
rho's eigenbasis, so the sampler's tree (``montecarlo``) merges eigenvalue
vectors (``merge_spectra``). The dense gadget (``swap_gadget``) builds one
merge as matrices; the tests enumerate whole trees with it as the oracle
both are checked against.
"""

from __future__ import annotations

import numpy as np

from .states import (
    ValidationError,
    from_spectrum,
    project_to_density,
    real_or_complex,
    spectral_decomposition,
)

# Node probabilities below this are treated as exactly zero: the branch is
# unreachable and its conditional state undefined.
PROB_FLOOR = 1e-14

# Most bytes of matrices one stacked step builds at once. Longer stacks of
# merges, and of shots, run in chunks of this size, so working memory does
# not grow with the number of branches, shots or qubits.
CHUNK_BYTES = 2 ** 22


class DegenerateOutcomeError(RuntimeError):
    """Requested the conditional state of a zero-probability branch."""


def chunk_rows(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` bytes one chunk holds; at least one."""
    return max(1, CHUNK_BYTES // row_bytes)


def check_rounds(rounds: int) -> None:
    """Raise ``ValidationError`` if ``rounds`` is negative."""
    if rounds < 0:
        raise ValidationError(f"rounds must be >= 0, got {rounds}")


# ----------------------------------------------------------------------
# The elementary gadget
# ----------------------------------------------------------------------

def _sign_probability(overlap: np.ndarray, sign) -> np.ndarray:
    """(1 + sign overlap) / 2, the probability of a merge with overlap Tr(rho_a rho_b)."""
    return 0.5 * (1.0 + sign * overlap)


def pair_overlap(rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Re Tr(rho_a rho_b), pair by pair over stacks ``(..., d, d)``, without a matrix product.

    The gadget takes its overlap from here, one pair or a stack of pairs,
    so a merge has the same probability bits alone or stacked.
    """
    return (rho_a * rho_b.swapaxes(-1, -2)).sum(axis=(-2, -1)).real


def spectra_overlap(spec_a: np.ndarray, spec_b: np.ndarray) -> np.ndarray:
    """Tr(rho_a rho_b) of states that share an eigenbasis, from their eigenvalues ``(..., d)``."""
    return (spec_a * spec_b).sum(axis=-1)


def _check_reachable(prob: np.ndarray, sign) -> None:
    """Raise ``DegenerateOutcomeError`` if any merge probability is below ``PROB_FLOOR``."""
    unreachable = prob < PROB_FLOOR
    if unreachable.any():
        first = np.argmax(unreachable)
        raise DegenerateOutcomeError(
            f"outcome sign {int(np.broadcast_to(sign, prob.shape).flat[first]):+d} has"
            f" probability {prob.flat[first]} (unreachable branch)")


def swap_gadget(rho_a: np.ndarray, rho_b: np.ndarray, sign):
    """Post-measurement state and probability of one SWAP merge, or of a stack.

    Returns ``(state, probability)`` for the chosen sign, the probability
    being (1 + sign Tr(rho_a rho_b)) / 2; the state is re-symmetrized and
    clamped back onto the PSD manifold. Stacks ``(..., d, d)`` of pairs,
    with one sign or a sign per pair, merge pair by pair with the same
    result as one call each, and the probability takes the stack's shape.
    Real inputs give a real state (``real_or_complex``). Raises
    ``DegenerateOutcomeError`` when any requested branch has (numerically)
    zero probability, e.g. the antisymmetric outcome of identical pure inputs.
    """
    rho_a, rho_b = real_or_complex(rho_a), real_or_complex(rho_b)
    if rho_a.shape != rho_b.shape or rho_a.ndim < 2 or rho_a.shape[-1] != rho_a.shape[-2]:
        raise ValidationError("gadget inputs must be square matrices of equal dimensions")
    sign = np.asarray(sign)
    if (np.abs(sign) != 1).any():
        raise ValidationError("sign must be +1 or -1")
    prob = _sign_probability(pair_overlap(rho_a, rho_b), sign)
    _check_reachable(prob, sign)
    # (rho_a + rho_b + sign (cross + cross^dagger)) / (4 prob), built in place
    cross = rho_a @ rho_b
    raw = rho_a + rho_b
    cross += cross.conj().swapaxes(-1, -2)
    cross *= sign[..., None, None]
    raw += cross
    del cross
    raw /= 4.0 * prob[..., None, None]
    return project_to_density(raw), (prob if prob.ndim else float(prob))


def merge_spectra(spec_a: np.ndarray, spec_b: np.ndarray, sign: np.ndarray,
                  overlap: np.ndarray):
    """The SWAP merge of two states that share an eigenbasis, on their eigenvalues.

    ``spec_a`` and ``spec_b`` are (..., d) eigenvalues in one common
    eigenbasis, as every branch of an outcome tree has rho's, and
    ``overlap`` is their ``spectra_overlap``, which the caller already
    holds. The merged state's eigenvalues in that basis are
    (a + b + 2 sign a b) / (4 P), clamped and renormalized as
    ``project_to_density`` does, with P = (1 + sign overlap) / 2; returns
    them with P, which must clear ``PROB_FLOOR`` as in ``swap_gadget``.
    """
    prob = _sign_probability(overlap, sign)
    _check_reachable(prob, sign)
    merged = np.clip((spec_a + spec_b + 2.0 * sign[..., None] * spec_a * spec_b)
                     / (4.0 * prob[..., None]), 0.0, None)
    return merged / merged.sum(axis=-1, keepdims=True), prob


# ----------------------------------------------------------------------
# Exact purification (spectral shortcut)
# ----------------------------------------------------------------------

# Any eigenvalue ratio below one powered by 2**64 or more is already 0.0 in
# float64, so rounds are capped there, before the integer 2**rounds is built:
# more rounds change no purified state.
MAX_SPECTRAL_ROUNDS = 64


def purified_weights(vals: np.ndarray, rounds: int, counts: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of rho**N / Tr(rho**N), N = 2**rounds, from rho's eigenvalues ``vals``.

    ``vals`` may come in any order, as a diagonal does. They are divided by
    the largest before powering, so the weights stay finite where
    Tr(rho**N) underflows. A stack ``(..., d)`` is powered row by row, as
    one call each. ``counts`` gives each value's multiplicity, where one
    value stands for several eigenvalues; by default each is one.
    """
    power = float(2 ** min(rounds, MAX_SPECTRAL_ROUNDS))
    scaled = (vals / vals.max(axis=-1, keepdims=True)) ** power
    return scaled / (scaled if counts is None else scaled * counts).sum(axis=-1, keepdims=True)


def purified_state(rho: np.ndarray, rounds: int) -> np.ndarray:
    """rho**N / Tr(rho**N) with N = 2**rounds; rounds = 0 returns the input.

    Computed spectrally, so the eigenbasis of the output is the input's own
    and the cost is one eigendecomposition regardless of ``rounds``. A
    stack ``(..., d, d)`` is purified matrix by matrix, with the same result
    as one call each. A real ``rho`` gives a real state.
    """
    rho = real_or_complex(rho)
    check_rounds(rounds)
    if not rounds:
        return rho
    vals, vecs = spectral_decomposition(rho)
    return from_spectrum(purified_weights(vals, rounds), vecs)


def check_observable(obs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``obs`` as ``real_or_complex`` gives it: float64 unless complex.

    Raises ``ValidationError`` unless ``obs`` is a Hermitian d x d matrix,
    d being the dimension of the state ``rho``.
    """
    obs = real_or_complex(obs)
    if obs.shape != (np.shape(rho)[-1],) * 2:
        raise ValidationError(f"observable shape {obs.shape} does not match state {np.shape(rho)}")
    if np.max(np.abs(obs - obs.conj().T)) > 1e-10:
        raise ValidationError("observable must be Hermitian")
    return obs


def extract_observable_exact(obs: np.ndarray, rho: np.ndarray, rounds: int) -> float:
    """Tr(O rho**N) / Tr(rho**N), N = 2**rounds, as sum_i w_i <v_i|O|v_i> over rho's eigenbasis."""
    obs = check_observable(obs, rho)
    check_rounds(rounds)
    vals, vecs = spectral_decomposition(rho)
    diag = np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, obs, vecs))
    return float((purified_weights(vals, rounds) * diag).sum())


# ----------------------------------------------------------------------
# Closed form: the Werner fidelity map
# ----------------------------------------------------------------------


def werner_fidelity_update(fid: float, dim: int) -> float:
    """One purification round on the Werner family, in fidelity coordinates.

    F -> F^2 / (F^2 + (1-F)^2 / (D-1)); improves iff F > 1/D, with fixed
    points at 1/D and 1.
    """
    if dim < 2:
        raise ValidationError("dimension must be >= 2")
    # F^2 and (1-F)^2 cannot both vanish, even in underflow, so the sum is never 0
    return fid * fid / (fid * fid + (1.0 - fid) ** 2 / (dim - 1.0))
