"""SWAP-gadget purification: outcome trees, parity extraction, closed forms.

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
shortcut computes that power directly, and the explicit tree is kept as a
brute-force oracle for small ``rounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    ResourceLimitError,
    ValidationError,
    fidelity,
    num_qubits,
    project_to_density,
    power_spectrum,
    purity,
    spectral_decomposition,
    spectral_power,
)

# Node probabilities below this are treated as exactly zero: the branch is
# unreachable and its conditional state undefined.
PROB_FLOOR = 1e-14

# Exhaustive enumeration walks 2**(2**rounds - 1) outcome strings and holds a
# d x d complex state for each reachable one: up to 2**15 * 4**M * 16 B at
# four rounds, which the byte limit admits up to M = 5 (512 MiB).
MAX_BRUTE_FORCE_ROUNDS = 4
MAX_ENUMERATION_BYTES = 2 ** 29

# Most bytes of matrices one stacked step builds at once. Longer stacks of
# merges, and of shots, run in chunks of this size, so working memory does
# not grow with the number of branches, shots or qubits.
CHUNK_BYTES = 2 ** 22


class DegenerateOutcomeError(RuntimeError):
    """Requested the conditional state of a zero-probability branch."""


def _tree_rounds(n_outcomes: int) -> int:
    rounds = (n_outcomes + 1).bit_length() - 1
    if 2 ** rounds - 1 != n_outcomes or rounds < 1:
        raise ValidationError(
            f"outcome string length {n_outcomes} is not 2**rounds - 1")
    return rounds


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
    Raises ``DegenerateOutcomeError`` when any requested branch has
    (numerically) zero probability, e.g. the antisymmetric outcome of
    identical pure inputs.
    """
    rho_a = np.asarray(rho_a, dtype=complex)
    rho_b = np.asarray(rho_b, dtype=complex)
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

def conditional_state(rho: np.ndarray, outcomes) -> OutcomeBranches:
    """Conditional states after full outcome strings.

    ``outcomes`` is one string of 2**rounds - 1 signs, ordered left
    subtree, right subtree, root, or a (B, 2**rounds - 1) stack of them;
    all leaves carry the same input state. The tree is walked post-order,
    so signs are read in string order, and every node is one stacked
    ``swap_gadget`` call over all strings. A branch's probability is the
    product of its per-node probabilities.
    """
    strings = np.atleast_2d(np.asarray(outcomes))
    if strings.ndim != 2 or not np.all((strings == 1) | (strings == -1)):
        raise ValidationError("outcomes must be +1 or -1")
    rounds = _tree_rounds(strings.shape[1])
    rho = np.asarray(rho, dtype=complex)
    leaf = np.broadcast_to(rho, (len(strings),) + rho.shape)
    columns = iter(strings.T.astype(int))

    def walk(level: int):
        if level == 0:
            return leaf, np.ones(len(strings))
        left, prob_l = walk(level - 1)
        right, prob_r = walk(level - 1)
        state, prob = swap_gadget(left, right, next(columns))
        return state, prob_l * prob_r * prob

    state, prob = walk(rounds)
    outcomes = strings.astype(np.int8)
    return OutcomeBranches(state=state, probability=prob, parity=np.prod(outcomes, axis=1),
                           outcomes=outcomes)


def check_enumeration_budget(rounds: int, qubits: int) -> None:
    """Raise ``ResourceLimitError`` unless ``enumerate_outcomes`` may run.

    Checks the rounds, then the bytes of branch states the last level may
    hold, before anything is built.
    """
    if rounds > MAX_BRUTE_FORCE_ROUNDS:
        raise ResourceLimitError(
            f"exhaustive enumeration limited to rounds <= {MAX_BRUTE_FORCE_ROUNDS}")
    size = 2 ** (2 ** max(rounds, 0) - 1) * 16 * 4 ** qubits
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
    rho = np.asarray(rho, dtype=complex)
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

    Merge b joins branches ``left[b]`` and ``right[b]`` of ``below`` with
    sign ``sign[b]``. ``probability``, ``parity`` and ``outcomes`` are
    those of the merged branches, as in ``OutcomeBranches``;
    ``merge_states`` builds their states.
    """

    below: OutcomeBranches
    left: np.ndarray
    right: np.ndarray
    sign: np.ndarray
    probability: np.ndarray
    parity: np.ndarray
    outcomes: np.ndarray

    def __len__(self) -> int:
        return len(self.probability)


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
    sign = 1 - 2 * minus
    return LevelMerges(
        below=level, left=left, right=right, sign=sign,
        probability=level.probability[left] * level.probability[right] * probs[left, right, minus],
        parity=level.parity[left] * level.parity[right] * sign,
        outcomes=np.concatenate([level.outcomes[left], level.outcomes[right], sign[:, None]],
                                axis=1, dtype=np.int8))


def merge_states(merges: LevelMerges, index: np.ndarray, gadget) -> np.ndarray:
    """(len(index), d, d) states of the merges ``index``, in ``CHUNK_BYTES`` chunks.

    Each chunk is one stacked call of ``gadget``, which is ``swap_gadget``
    as the caller's module binds it, so a merge has the same state whichever
    others share its call.
    """
    below = merges.below.state
    d = below.shape[-1]
    out = np.empty((len(index), d, d), dtype=complex)
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


def plain_sum_check(rho: np.ndarray, rounds: int) -> float:
    """Max entrywise deviation of sum_sigma P_sigma rho_sigma from the input."""
    rho = np.asarray(rho, dtype=complex)
    branches = enumerate_outcomes(rho, rounds)
    total = np.tensordot(branches.probability, branches.state, axes=1)
    return float(np.max(np.abs(total - rho)))


def conditional_state_two_rounds(rho: np.ndarray, outcomes) -> OutcomeBranches:
    """Two-round conditional state from its closed form, no recursion.

    Expresses the (s1, s2, s3) branch directly through the matrix powers
    rho..rho**4 and the power traces, with the root probability conditioned
    on the two first-round outcomes. Used as an independent check of the
    recursive evaluator.
    """
    s1, s2, s3 = (int(s) for s in outcomes)
    rho = np.asarray(rho, dtype=complex)
    rho2 = rho @ rho
    rho3 = rho2 @ rho
    rho4 = rho3 @ rho
    t2 = float(np.real(np.trace(rho2)))
    t3 = float(np.real(np.trace(rho3)))
    t4 = float(np.real(np.trace(rho4)))
    p1 = 0.5 * (1.0 + s1 * t2)
    p2 = 0.5 * (1.0 + s2 * t2)
    if min(p1, p2) < PROB_FLOOR:
        raise DegenerateOutcomeError("unreachable first-round branch")
    overlap_12 = (t2 + (s1 + s2) * t3 + s1 * s2 * t4) / (4.0 * p1 * p2)
    p3 = 0.5 * (1.0 + s3 * overlap_12)
    if p3 < PROB_FLOOR:
        raise DegenerateOutcomeError("unreachable root branch")
    state = (
        (1.0 / (p1 * p3) + 1.0 / (p2 * p3)) * rho
        + (s1 / (p1 * p3) + s2 / (p2 * p3) + s3 / (p1 * p2 * p3)) * rho2
        + ((s1 * s3 + s2 * s3) / (p1 * p2 * p3)) * rho3
        + (s1 * s2 * s3 / (p1 * p2 * p3)) * rho4
    ) / 8.0
    return OutcomeBranches(state=state[None], probability=np.array([p1 * p2 * p3]),
                           parity=np.array([s1 * s2 * s3]),
                           outcomes=np.array([[s1, s2, s3]], dtype=np.int8))


# ----------------------------------------------------------------------
# Exact purification (spectral shortcut)
# ----------------------------------------------------------------------

# Powering by more than 2**64 changes no normalized spectrum (``spectral_power``
# caps there), so rounds are capped before the integer 2**rounds is built.
MAX_SPECTRAL_ROUNDS = 64


def purified_spectra(rho: np.ndarray, rounds):
    """The spectra of rho**N, N = 2**r, for each r of the sequence ``rounds``.

    Yields one ``SpectralPower`` per value, or None for r = 0, which leaves
    the input unpurified. Every value shares one eigendecomposition of the
    stack ``(..., d, d)``, made at the call; the powers follow lazily, so
    a long ``rounds`` holds one spectrum at a time. ``.fidelity`` of one
    reads the purified fidelity off the spectrum, and ``.normalized`` builds
    the purified state.
    """
    ells = tuple(int(r) for r in rounds)
    if min(ells, default=0) < 0:
        raise ValidationError(f"rounds must be >= 0, got {min(ells)}")
    decomposition = spectral_decomposition(rho) if any(ells) else None
    # each power has its own scalar exponent, exactly as one call per value
    return (power_spectrum(*decomposition, 2 ** min(ell, MAX_SPECTRAL_ROUNDS)) if ell else None
            for ell in ells)


def purified_state(rho: np.ndarray, rounds) -> np.ndarray:
    """rho**N / Tr(rho**N) with N = 2**rounds; rounds = 0 returns the input.

    Computed spectrally, so the eigenbasis of the output is the input's own
    and the cost is one eigendecomposition regardless of ``rounds``. A
    stack ``(..., d, d)`` is purified matrix by matrix, with the same result
    as one call each. A sequence of ``rounds`` values shares that one
    decomposition (``purified_spectra``) and returns
    ``(..., len(rounds), d, d)``.
    """
    ells = np.atleast_1d(rounds)
    rho = np.asarray(rho, dtype=complex)
    states = (rho if spectrum is None else spectrum.normalized()
              for spectrum in purified_spectra(rho, ells))
    if np.ndim(rounds) == 0:
        return next(states)
    out = np.empty(rho.shape[:-2] + (len(ells),) + rho.shape[-2:], dtype=complex)
    for j, state in enumerate(states):
        out[..., j, :, :] = state
    return out


def check_observable(obs: np.ndarray) -> np.ndarray:
    """``obs`` as a complex array; raises ``ValidationError`` unless Hermitian."""
    obs = np.asarray(obs, dtype=complex)
    if np.max(np.abs(obs - obs.conj().T)) > 1e-10:
        raise ValidationError("observable must be Hermitian")
    return obs


def extract_observable_exact(obs: np.ndarray, rho: np.ndarray, rounds: int) -> float:
    """Tr(O rho**N) / Tr(rho**N) for N = 2**rounds, evaluated spectrally."""
    rho = np.asarray(rho, dtype=complex)
    if np.shape(obs) != rho.shape:
        raise ValidationError("observable and state dimensions differ")
    obs = check_observable(obs)
    power = spectral_power(rho, 2 ** min(rounds, MAX_SPECTRAL_ROUNDS))
    vecs = power.eigenvectors
    diag = np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, obs, vecs))
    return float(np.sum(power.eigenvalues * diag) / np.sum(power.eigenvalues))


# ----------------------------------------------------------------------
# Closed forms: Bloch, Werner, anisotropic qubit
# ----------------------------------------------------------------------

def bloch_purify(r: np.ndarray) -> np.ndarray:
    """Radial rescaling r -> 2 r / (1 + |r|^2) of a single-qubit Bloch vector.

    Direction is preserved exactly; the radius strictly increases for
    0 < |r| < 1 with fixed points at 0 and 1.
    """
    r = np.asarray(r, dtype=float)
    norm_sq = float(r @ r)
    if norm_sq > 1.0 + 1e-12:
        raise ValidationError("Bloch vector length exceeds 1")
    return 2.0 * r / (1.0 + norm_sq)


def werner_fidelity_update(fid: float, dim: int) -> float:
    """One purification round on the Werner family, in fidelity coordinates.

    F -> F^2 / (F^2 + (1-F)^2 / (D-1)); improves iff F > 1/D, with fixed
    points at 1/D and 1.
    """
    if dim < 2:
        raise ValidationError("dimension must be >= 2")
    denom = fid * fid + (1.0 - fid) ** 2 / (dim - 1.0)
    if denom == 0.0:
        return 0.0
    return fid * fid / denom


def werner_mixing_update(mix: float, dim: int) -> float:
    """One purification round in Werner mixing-parameter coordinates."""
    denom = dim * (1.0 - mix) ** 2 - mix * (mix - 2.0)
    return mix * mix / denom


def fidelity_bounds(rho: np.ndarray, psi: np.ndarray):
    """Sandwich bounds (F^2/Tr rho^2, min(1, F/Tr rho^2)) on one-round output."""
    f = fidelity(rho, psi)
    p2 = purity(rho)
    if p2 <= 0.0:
        raise ValidationError("purity must be positive")
    return f * f / p2, min(1.0, f / p2)


def anisotropic_qubit_purify_fidelity(theta: float, p: float):
    """Dephase-then-purify fidelities of a tilted single-qubit target.

    The target points along (sin theta, 0, cos theta) up to an irrelevant
    azimuth. Dephasing with probability p contracts the transverse Bloch
    components by beta = 1 - 2p; one purification round rescales the radius
    but cannot rotate the (tilted) direction back. Returns the fidelity
    after the channel and after the subsequent purification round.
    """
    beta = 1.0 - 2.0 * p
    sin_sq = math.sin(theta) ** 2
    cos_sq = math.cos(theta) ** 2
    f_in = 0.5 * (1.0 + 1.0 - (1.0 - beta) * sin_sq)
    radius_sq = beta * beta * sin_sq + cos_sq
    f_out = 0.5 * (1.0 + 2.0 * (beta * sin_sq + cos_sq) / (1.0 + radius_sq))
    return f_in, f_out
