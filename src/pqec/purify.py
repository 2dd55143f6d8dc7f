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
    project_to_density,
    purity,
    spectral_decomposition,  # noqa: F401 -- perfbench/spans.py hooks this name
    spectral_power,
)

# Node probabilities below this are treated as exactly zero: the branch is
# unreachable and its conditional state undefined.
PROB_FLOOR = 1e-14

# Exhaustive enumeration walks 2**(2**rounds - 1) outcome strings.
MAX_BRUTE_FORCE_ROUNDS = 4


class DegenerateOutcomeError(RuntimeError):
    """Requested the conditional state of a zero-probability branch."""


def _tree_rounds(n_outcomes: int) -> int:
    rounds = (n_outcomes + 1).bit_length() - 1
    if 2 ** rounds - 1 != n_outcomes or rounds < 1:
        raise ValidationError(
            f"outcome string length {n_outcomes} is not 2**rounds - 1")
    return rounds


@dataclass(frozen=True)
class ConditionalOutcome:
    """State and bookkeeping of one branch of the purification tree."""

    state: np.ndarray
    probability: float
    parity: int
    outcomes: tuple[int, ...]


# ----------------------------------------------------------------------
# The elementary gadget
# ----------------------------------------------------------------------

def gadget_probability(rho_a: np.ndarray, rho_b: np.ndarray, sign: int) -> float:
    """Probability (1 + sign Tr(rho_a rho_b)) / 2 of the given SWAP outcome."""
    overlap = float(np.real(np.trace(rho_a @ rho_b)))
    return 0.5 * (1.0 + sign * overlap)


def swap_gadget(rho_a: np.ndarray, rho_b: np.ndarray, sign: int):
    """Post-measurement state and probability of one SWAP merge.

    Returns ``(state, probability)`` for the chosen sign; the state is
    re-symmetrized and clamped back onto the PSD manifold. Raises
    ``DegenerateOutcomeError`` when the branch has (numerically) zero
    probability, e.g. the antisymmetric outcome of identical pure inputs.
    """
    rho_a = np.asarray(rho_a, dtype=complex)
    rho_b = np.asarray(rho_b, dtype=complex)
    if rho_a.shape != rho_b.shape:
        raise ValidationError("gadget inputs must have equal dimensions")
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    prob = gadget_probability(rho_a, rho_b, sign)
    if prob < PROB_FLOOR:
        raise DegenerateOutcomeError(
            f"outcome sign {sign:+d} has probability {prob} (unreachable branch)")
    cross = rho_a @ rho_b
    raw = (rho_a + rho_b + sign * (cross + cross.conj().T)) / (4.0 * prob)
    return project_to_density(raw), prob


# ----------------------------------------------------------------------
# Outcome tree
# ----------------------------------------------------------------------

def conditional_state(rho: np.ndarray, outcomes) -> ConditionalOutcome:
    """Conditional state after a full outcome string.

    ``outcomes`` holds 2**rounds - 1 signs ordered left subtree, right
    subtree, root; all leaves carry the same input state. The probability is
    the product of the per-node conditional probabilities.
    """
    sig = tuple(int(s) for s in outcomes)
    if any(s not in (1, -1) for s in sig):
        raise ValidationError("outcomes must be +1 or -1")
    _tree_rounds(len(sig))
    rho = np.asarray(rho, dtype=complex)

    def walk(seg):
        if len(seg) == 1:
            return swap_gadget(rho, rho, seg[0])
        half = (len(seg) - 1) // 2
        left, prob_l = walk(seg[:half])
        right, prob_r = walk(seg[half:-1])
        state, prob = swap_gadget(left, right, seg[-1])
        return state, prob_l * prob_r * prob

    state, prob = walk(sig)
    parity = 1
    for s in sig:
        parity *= s
    return ConditionalOutcome(state=state, probability=prob, parity=parity,
                              outcomes=sig)


def enumerate_outcomes(rho: np.ndarray, rounds: int) -> list[ConditionalOutcome]:
    """All reachable outcome branches of a ``rounds``-level tree.

    Zero-probability branches are skipped; the surviving probabilities still
    sum to one. Left and right subtrees share the same branch set, so each
    level is built once and combined pairwise.
    """
    if rounds > MAX_BRUTE_FORCE_ROUNDS:
        raise ResourceLimitError(
            f"exhaustive enumeration limited to rounds <= {MAX_BRUTE_FORCE_ROUNDS}")
    rho = np.asarray(rho, dtype=complex)
    level = [ConditionalOutcome(state=rho, probability=1.0, parity=1, outcomes=())]
    for _ in range(rounds):
        merged = []
        for a in level:
            for b in level:
                overlap = float(np.real(np.trace(a.state @ b.state)))
                for sign in (1, -1):
                    prob = 0.5 * (1.0 + sign * overlap)
                    if prob < PROB_FLOOR:
                        continue
                    state, _ = swap_gadget(a.state, b.state, sign)
                    merged.append(ConditionalOutcome(
                        state=state,
                        probability=a.probability * b.probability * prob,
                        parity=a.parity * b.parity * sign,
                        outcomes=a.outcomes + b.outcomes + (sign,)))
        level = merged
    return level


def parity_weighted_sum(rho: np.ndarray, rounds: int):
    """Brute-force sum_sigma P_sigma Omega_sigma rho_sigma and its trace.

    Equals the unnormalized matrix power rho**(2**rounds); this is the
    module's core oracle against the spectral shortcut.
    """
    total = np.zeros_like(np.asarray(rho, dtype=complex))
    for branch in enumerate_outcomes(rho, rounds):
        total += branch.probability * branch.parity * branch.state
    return total, float(np.real(np.trace(total)))


def plain_sum_check(rho: np.ndarray, rounds: int) -> float:
    """Max entrywise deviation of sum_sigma P_sigma rho_sigma from the input."""
    rho = np.asarray(rho, dtype=complex)
    total = np.zeros_like(rho)
    for branch in enumerate_outcomes(rho, rounds):
        total += branch.probability * branch.state
    return float(np.max(np.abs(total - rho)))


def conditional_state_two_rounds(rho: np.ndarray, outcomes) -> ConditionalOutcome:
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
    return ConditionalOutcome(state=state, probability=p1 * p2 * p3,
                              parity=s1 * s2 * s3, outcomes=(s1, s2, s3))


# ----------------------------------------------------------------------
# Exact purification (spectral shortcut)
# ----------------------------------------------------------------------

def purified_state(rho: np.ndarray, rounds: int) -> np.ndarray:
    """rho**N / Tr(rho**N) with N = 2**rounds; rounds = 0 returns the input.

    Computed spectrally, so the eigenbasis of the output is the input's own
    and the cost is one eigendecomposition regardless of ``rounds``.
    """
    if rounds < 0:
        raise ValidationError("rounds must be >= 0")
    if rounds == 0:
        return np.asarray(rho, dtype=complex)
    return spectral_power(rho, 2 ** rounds).normalized()


def extract_observable_exact(obs: np.ndarray, rho: np.ndarray, rounds: int) -> float:
    """Tr(O rho**N) / Tr(rho**N) for N = 2**rounds, evaluated spectrally."""
    obs = np.asarray(obs, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if obs.shape != rho.shape:
        raise ValidationError("observable and state dimensions differ")
    if np.max(np.abs(obs - obs.conj().T)) > 1e-10:
        raise ValidationError("observable must be Hermitian")
    power = spectral_power(rho, 2 ** rounds)
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
