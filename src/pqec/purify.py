"""SWAP-gadget purification: outcome trees, parity extraction, the Werner map.

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
purified expectation as sum_i w_i <v_i|O|v_i>. The explicit tree runs the
sampler's shot draw up to four rounds, and is the brute-force oracle the
spectral shortcut is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    ResourceLimitError,
    ValidationError,
    from_spectrum,
    num_qubits,
    project_to_density,
    real_or_complex,
    spectral_decomposition,
)

# Node probabilities below this are treated as exactly zero: the branch is
# unreachable and its conditional state undefined.
PROB_FLOOR = 1e-14

# Exhaustive enumeration walks 2**(2**rounds - 1) outcome strings and holds a
# d x d state for each reachable one: up to 2**15 * 4**M * 16 B at four rounds
# (complex entries; real ones take half), which the limit admits up to M = 5.
MAX_BRUTE_FORCE_ROUNDS = 4
MAX_ENUMERATION_BYTES = 2 ** 29

# Most bytes of matrices one stacked step builds at once. Longer stacks of
# merges, and of shots, run in chunks of this size, so working memory does
# not grow with the number of branches, shots or qubits.
CHUNK_BYTES = 2 ** 22


class DegenerateOutcomeError(RuntimeError):
    """Requested the conditional state of a zero-probability branch."""


def chunk_rows(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` bytes one chunk holds; at least one."""
    return max(1, CHUNK_BYTES // row_bytes)


@dataclass(frozen=True)
class OutcomeBranches:
    """Branches of the purification tree, stacked along a leading axis.

    ``state`` is (B, d, d), ``probability`` and ``parity`` are (B,), and
    row b of ``outcomes`` (B, 2**rounds - 1) is the sign string of branch b.
    One branch is the B = 1 case.
    """

    state: np.ndarray
    probability: np.ndarray
    parity: np.ndarray
    outcomes: np.ndarray

    def __len__(self) -> int:
        return len(self.probability)


# ----------------------------------------------------------------------
# The elementary gadget
# ----------------------------------------------------------------------

def _sign_probability(overlap: np.ndarray, sign) -> np.ndarray:
    """(1 + sign overlap) / 2, the probability of a merge with overlap Tr(rho_a rho_b)."""
    return 0.5 * (1.0 + sign * overlap)


def pair_overlap(rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Re Tr(rho_a rho_b), pair by pair over stacks ``(..., d, d)``, without a matrix product.

    The gadget and ``level_merges`` both take their overlaps from here, so a
    merge has the same probability bits whichever of them computes it.
    """
    return (rho_a * rho_b.swapaxes(-1, -2)).sum(axis=(-2, -1)).real


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


def merge_spectra(spec_a: np.ndarray, spec_b: np.ndarray, sign: np.ndarray):
    """The SWAP merge of two states that share an eigenbasis, on their eigenvalues.

    ``spec_a`` and ``spec_b`` are (..., d) eigenvalues in one common
    eigenbasis, as every branch of an outcome tree has rho's. The merged
    state's eigenvalues in that basis are (a + b + 2 sign a b) / (4 P),
    clamped and renormalized as ``project_to_density`` does, with P =
    (1 + sign sum(a b)) / 2; returns them with P, which must clear
    ``PROB_FLOOR`` as in ``swap_gadget``.
    """
    prob = _sign_probability((spec_a * spec_b).sum(axis=-1), sign)
    _check_reachable(prob, sign)
    merged = np.clip((spec_a + spec_b + 2.0 * sign[..., None] * spec_a * spec_b)
                     / (4.0 * prob[..., None]), 0.0, None)
    return merged / merged.sum(axis=-1, keepdims=True), prob


# ----------------------------------------------------------------------
# Outcome tree
# ----------------------------------------------------------------------


def check_rounds(rounds: int) -> None:
    """Raise ``ValidationError`` if ``rounds`` is negative."""
    if rounds < 0:
        raise ValidationError(f"rounds must be >= 0, got {rounds}")


def check_enumeration_budget(rounds: int, qubits: int) -> None:
    """Raise ``ResourceLimitError`` unless ``enumerate_outcomes`` may run.

    Checks the rounds (negative ones by ``check_rounds``), then the bytes of
    branch states the last level may hold, before anything is built.
    """
    check_rounds(rounds)
    if rounds > MAX_BRUTE_FORCE_ROUNDS:
        raise ResourceLimitError(
            f"exhaustive enumeration limited to rounds <= {MAX_BRUTE_FORCE_ROUNDS}")
    size = 2 ** (2 ** rounds - 1) * 16 * 4 ** qubits
    if size > MAX_ENUMERATION_BYTES:
        raise ResourceLimitError(
            f"enumerating {rounds} rounds on {qubits} qubits may hold {size / 2 ** 20:.0f} MiB"
            f" of branch states, over the limit of {MAX_ENUMERATION_BYTES / 2 ** 20:.0f} MiB")


def enumerate_outcomes(rho: np.ndarray, rounds: int) -> OutcomeBranches:
    """All reachable outcome branches of a ``rounds``-level tree.

    Left and right subtrees share the same branch set, so each level is
    built once from the reachable merges of the level below
    (``level_merges``), all of which merge in one stacked ``swap_gadget``
    call per chunk (``merge_states``).
    """
    rho = real_or_complex(rho)
    check_enumeration_budget(rounds, num_qubits(rho.shape[0]))
    level = OutcomeBranches(state=rho[None], probability=np.ones(1), parity=np.ones(1, dtype=int),
                            outcomes=np.ones((1, 0), dtype=np.int8))
    for _ in range(rounds):
        merges = level_merges(level)
        level = OutcomeBranches(state=merge_states(merges, np.arange(len(merges)), swap_gadget),
                                probability=merges.probability, parity=merges.parity,
                                outcomes=merges.outcomes)
    return level


@dataclass(frozen=True)
class LevelMerges:
    """The reachable merges of a tree level with itself, before any state is built.

    Merge b joins branches ``left[b]`` and ``right[b]`` (int32) of ``below``
    with sign ``sign[b]`` (int8). ``probability`` and ``parity`` are those of the
    merged branches, as in ``OutcomeBranches``. Their sign strings
    ``outcomes`` are built on each access, since only enumeration reads
    them, and ``merge_states`` builds their states.
    """

    below: OutcomeBranches
    left: np.ndarray
    right: np.ndarray
    sign: np.ndarray
    probability: np.ndarray
    parity: np.ndarray

    def __len__(self) -> int:
        return len(self.probability)

    @property
    def outcomes(self) -> np.ndarray:
        """(B, 2**rounds - 1) int8 sign strings: left string, right string, then the sign."""
        return np.concatenate([self.below.outcomes[self.left], self.below.outcomes[self.right],
                               self.sign[:, None]], axis=1, dtype=np.int8)


def level_merges(level: OutcomeBranches) -> LevelMerges:
    """Every reachable (left, right, sign) merge of ``level`` with itself.

    Merges are ordered left outermost, then right, then sign +1 before -1.
    The node probabilities of both signs come from one ``pair_overlap`` per
    pair, as the gadget computes it; merges whose node probability falls below
    ``PROB_FLOOR`` are unreachable and left out, and the rest still sum to
    one.
    """
    n, d = len(level), level.state.shape[-1]
    states = level.state
    probs = np.empty((n, n, 2))
    step = chunk_rows(16 * d * d * n)
    for lo in range(0, n, step):
        overlap = pair_overlap(states[lo:lo + step, None], states[None])
        probs[lo:lo + step, :, 0] = _sign_probability(overlap, 1)
        probs[lo:lo + step, :, 1] = _sign_probability(overlap, -1)
    left, right, minus = np.nonzero(probs >= PROB_FLOOR)
    # enumeration stops at four rounds, so a level below holds at most 2**7 branches
    left, right = left.astype(np.int32), right.astype(np.int32)
    sign = (1 - 2 * minus).astype(np.int8)
    return LevelMerges(
        below=level, left=left, right=right, sign=sign,
        probability=level.probability[left] * level.probability[right] * probs[left, right, minus],
        parity=level.parity[left] * level.parity[right] * sign)


def merge_states(merges: LevelMerges, index: np.ndarray, gadget) -> np.ndarray:
    """(len(index), d, d) states of the merges ``index``, in ``CHUNK_BYTES`` chunks.

    Each chunk is one stacked call of ``gadget``, which is ``swap_gadget``
    as the caller's module binds it, so a merge has the same state whichever
    others share its call. The states have the dtype of the level below.
    """
    below = merges.below.state
    d = below.shape[-1]
    out = np.empty((len(index), d, d), dtype=below.dtype)
    step = chunk_rows(16 * d * d)
    for lo in range(0, len(index), step):
        part = index[lo:lo + step]
        out[lo:lo + step], _ = gadget(below[merges.left[part]], below[merges.right[part]],
                                      merges.sign[part])
    return out


def parity_weighted_sum(rho: np.ndarray, rounds: int):
    """Brute-force sum_sigma P_sigma Omega_sigma rho_sigma and its trace.

    Equals the unnormalized matrix power rho**(2**rounds); this is the
    module's core oracle against the spectral shortcut.
    """
    branches = enumerate_outcomes(rho, rounds)
    total = np.tensordot(branches.probability * branches.parity, branches.state, axes=1)
    return total, float(np.real(np.trace(total)))


# ----------------------------------------------------------------------
# Exact purification (spectral shortcut)
# ----------------------------------------------------------------------

# Any eigenvalue ratio below one powered by 2**64 or more is already 0.0 in
# float64, so rounds are capped there, before the integer 2**rounds is built:
# more rounds change no purified state.
MAX_SPECTRAL_ROUNDS = 64


def purified_weights(vals: np.ndarray, rounds: int) -> np.ndarray:
    """Eigenvalues of rho**N / Tr(rho**N), N = 2**rounds, from rho's eigenvalues ``vals``.

    ``vals`` may come in any order, as a diagonal does. They are divided by
    the largest before powering, so the weights stay finite where
    Tr(rho**N) underflows. A stack ``(..., d)`` is powered row by row, as
    one call each.
    """
    power = float(2 ** min(rounds, MAX_SPECTRAL_ROUNDS))
    scaled = (vals / vals.max(axis=-1, keepdims=True)) ** power
    return scaled / scaled.sum(axis=-1, keepdims=True)


def purified_spectra(rho: np.ndarray, rounds):
    """The eigenvectors of ``rho`` and the purified weights of each r in ``rounds``.

    Returns ``(vecs, weights)``: every rounds value shares one
    eigendecomposition of the stack ``(..., d, d)``, made at the call, and
    ``weights`` yields ``purified_weights`` for each value lazily, so a long
    ``rounds`` holds one spectrum at a time. r = 0 yields None, which leaves
    the input unpurified; if every r is 0 nothing is decomposed and
    ``vecs`` is None. The purified state is ``from_spectrum(w, vecs)``, and
    a purified fidelity is sum_i w_i |<v_i|psi>|^2.
    """
    ells = tuple(int(r) for r in rounds)
    check_rounds(min(ells, default=0))
    vals, vecs = spectral_decomposition(rho) if any(ells) else (None, None)
    return vecs, (purified_weights(vals, ell) if ell else None for ell in ells)


def purified_state(rho: np.ndarray, rounds: int) -> np.ndarray:
    """rho**N / Tr(rho**N) with N = 2**rounds; rounds = 0 returns the input.

    Computed spectrally, so the eigenbasis of the output is the input's own
    and the cost is one eigendecomposition regardless of ``rounds``. A
    stack ``(..., d, d)`` is purified matrix by matrix, with the same result
    as one call each. A real ``rho`` gives a real state.
    """
    rho = real_or_complex(rho)
    vecs, (weights,) = purified_spectra(rho, (rounds,))
    return rho if weights is None else from_spectrum(weights, vecs)


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
