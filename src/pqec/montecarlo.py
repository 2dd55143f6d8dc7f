"""Shot-level simulation of the purification measurement record.

Each shot yields an outcome-string parity and a single observable
eigenvalue measured on the conditional output state. The purified
expectation is recovered by the ratio estimator

    A_hat = mean(parity * outcome),   B_hat = mean(parity),
    estimate = A_hat / B_hat,

whose delta-method standard error is sqrt(Var(parity (outcome - estimate)))
/ (sqrt(n) |B_hat|). The required shot count for target precision eps with
a bounded observable scales as 1 / (eps Tr(rho**N))**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .purify import MAX_BRUTE_FORCE_ROUNDS, ConditionalOutcome, check_observable, \
    enumerate_outcomes, walk_tree
from .purify import swap_gadget  # noqa: F401 -- perfbench/spans.py hooks this name
from .states import ResourceLimitError, ValidationError

# Budget of one sampling run. Beyond the enumeration limit every shot walks
# its own tree of 2**rounds - 1 gadget merges, about 70 us each on one core of
# a 2-vCPU Xeon VM for registers up to three qubits; the shot records of a
# batch are held in memory at once.
MAX_SHOT_MERGES = 10 ** 6
MAX_SHOTS_PER_BATCH = 10 ** 6


class ShotRecord(NamedTuple):
    parity: int
    observable_outcome: float


@dataclass(frozen=True)
class EstimatorResult:
    """Ratio estimate with its components and plug-in standard error.

    ``unstable_denominator`` flags |B_hat| < 3/sqrt(n); the estimate is
    still reported.
    """

    estimate: float
    numerator_mean: float
    denominator_mean: float
    standard_error: float
    n_samples: int
    unstable_denominator: bool


def required_samples(epsilon: float, trace_rho_n: float) -> int:
    """Shot-count bound ceil(1 / (eps^2 Tr(rho^N)^2)) for a bounded observable."""
    if epsilon <= 0.0:
        raise ValidationError("epsilon must be positive")
    if not 0.0 < trace_rho_n <= 1.0:
        raise ValidationError("Tr(rho^N) must lie in (0, 1]")
    return math.ceil(1.0 / (epsilon * epsilon * trace_rho_n * trace_rho_n))


def ratio_estimate(shots) -> EstimatorResult:
    """Ratio estimator over a sequence of (parity, outcome) records."""
    arr = np.asarray(shots, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValidationError("need at least two (parity, outcome) shots")
    parities = arr[:, 0]
    outcomes = arr[:, 1]
    n = arr.shape[0]
    a_hat = float(np.mean(parities * outcomes))
    b_hat = float(np.mean(parities))
    unstable = abs(b_hat) < 3.0 / math.sqrt(n)
    if b_hat == 0.0:
        return EstimatorResult(estimate=math.nan, numerator_mean=a_hat,
                               denominator_mean=b_hat, standard_error=math.nan,
                               n_samples=n, unstable_denominator=True)
    estimate = a_hat / b_hat
    residual = parities * (outcomes - estimate)
    se = math.sqrt(float(np.var(residual, ddof=1)) / n) / abs(b_hat)
    return EstimatorResult(estimate=estimate, numerator_mean=a_hat,
                           denominator_mean=b_hat, standard_error=se,
                           n_samples=n, unstable_denominator=unstable)


# ----------------------------------------------------------------------
# Drawing shots
# ----------------------------------------------------------------------

def check_sampling_budget(rounds: int, shots: int, batches: int) -> None:
    """Raise ``ResourceLimitError`` if a sampling run exceeds the budget.

    Checks the shots per batch and, on the per-shot path, the total gadget
    merges ``batches * shots * (2**rounds - 1)``, before anything is built.
    """
    if shots > MAX_SHOTS_PER_BATCH:
        raise ResourceLimitError(
            f"{shots} shots per batch exceed the limit of {MAX_SHOTS_PER_BATCH}")
    # the budget is far below 2**64, so a capped exponent gives the same verdict
    merges = batches * shots * (2 ** min(rounds, 64) - 1)
    if rounds > MAX_BRUTE_FORCE_ROUNDS and merges > MAX_SHOT_MERGES:
        raise ResourceLimitError(
            f"{batches} x {shots} shots at {rounds} rounds exceed the limit of"
            f" {MAX_SHOT_MERGES:.0e} gadget merges")


def _outcome_probs(state: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    q = np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, state, vecs))
    q = np.clip(q, 0.0, None)
    return q / q.sum()


def sample_observable(state: np.ndarray, obs: np.ndarray,
                      rng: np.random.Generator) -> float:
    """One projective measurement outcome: an eigenvalue of ``obs``.

    The eigenvalue is selected by index from the eigendecomposition, drawn
    with probability Tr(Pi_j rho).
    """
    vals, vecs = np.linalg.eigh(check_observable(obs))
    q = _outcome_probs(np.asarray(state, dtype=complex), vecs)
    return float(vals[rng.choice(vals.size, p=q)])


def sample_outcome_tree(rho: np.ndarray, rounds: int, rng: np.random.Generator):
    """Draw one outcome string node by node through the merge tree.

    Every node's sign is drawn with its conditional probability given the
    two child states; zero-probability branches are never drawn. Returns
    the outcome string (left subtree, right subtree, root order) and the
    resulting ``ConditionalOutcome``.
    """
    def draw(left, right):
        overlap = float(np.real(np.trace(left @ right)))
        return 1 if rng.random() < 0.5 * (1.0 + overlap) else -1

    branch = walk_tree(rho, rounds, draw)
    return np.array(branch.outcomes, dtype=int), branch


def _measure(records: np.ndarray, sel, branch: ConditionalOutcome, vals: np.ndarray,
             vecs: np.ndarray, rng: np.random.Generator) -> None:
    """Record the parity of ``branch`` and one observable draw on it per shot in ``sel``."""
    records[sel, 0] = branch.parity
    q = _outcome_probs(branch.state, vecs)
    records[sel, 1] = vals[rng.choice(vals.size, size=len(sel), p=q)]


def simulate_shots(rho: np.ndarray, obs: np.ndarray, rounds: int, n_shots: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(n_shots, 2) array of (parity, observable outcome) records.

    Up to the enumeration limit the outcome tree is walked exactly once
    and shots are drawn vectorized from the joint branch/eigenvalue
    distribution, which is identical to the node-by-node draw: first the
    branch of every shot, then each drawn branch, in index order, measures
    its shots in shot order. Beyond the limit the sequential sampler is used
    per shot.
    """
    if n_shots < 1:
        raise ValidationError("n_shots must be >= 1")
    vals, vecs = np.linalg.eigh(check_observable(obs))
    records = np.empty((n_shots, 2), dtype=float)
    if rounds <= MAX_BRUTE_FORCE_ROUNDS:
        branches = enumerate_outcomes(rho, rounds)
        probs = np.array([b.probability for b in branches])
        which = rng.choice(len(branches), size=n_shots, p=probs / probs.sum())
        # shots grouped by branch, each group in shot order
        order = np.argsort(which, kind="stable")
        counts = np.bincount(which)
        ends = np.cumsum(counts)
        for k in np.flatnonzero(counts):
            _measure(records, order[ends[k] - counts[k]:ends[k]], branches[k], vals, vecs, rng)
        return records
    for k in range(n_shots):
        _measure(records, [k], sample_outcome_tree(rho, rounds, rng)[1], vals, vecs, rng)
    return records


def estimate_observable(rho: np.ndarray, obs: np.ndarray, rounds: int,
                        n_shots: int, seed: int | np.random.Generator) -> EstimatorResult:
    """End-to-end sampled estimate of the purified expectation value."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return ratio_estimate(simulate_shots(rho, obs, rounds, n_shots, rng))
