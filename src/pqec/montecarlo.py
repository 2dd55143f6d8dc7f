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

from .purify import MAX_BRUTE_FORCE_ROUNDS, OutcomeBranches, check_enumeration_budget, \
    check_observable, chunk_rows, enumerate_outcomes, walk_tree
from .purify import swap_gadget  # noqa: F401 -- perfbench/spans.py hooks this name
from .states import ResourceLimitError, ValidationError

# Budget of one sampling run, checked before anything is built:
# - shots per batch, whose records are held in memory at once;
# - shots in all, batches x shots, and batches, since each batch adds a CSV
#   row and a fixed cost: many tiny batches stay bounded too;
# - beyond the enumeration limit, where every shot walks its own tree, gadget
#   merges batches x shots x (2**rounds - 1), each weighted by (d/2)**2 =
#   4**(M-1), so the limit is the M=1 count. Stacked over the shots of a
#   batch, a merge takes about 3 us at M=1, 18 us at M=3 and 65 us at M=4 on
#   one core of a 2-vCPU Xeon VM.
MAX_SHOTS_PER_BATCH = 10 ** 6
MAX_RUN_SHOTS = 5 * 10 ** 7
MAX_BATCHES = 10 ** 4
MAX_SHOT_MERGES = 10 ** 6


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

def check_sampling_budget(rounds: int, shots: int, batches: int, qubits: int = 1) -> None:
    """Raise ``ResourceLimitError`` if a sampling run exceeds the budget.

    Checks the shots per batch, the batches and the shots in all, then, up
    to the enumeration limit, the branch states the enumerated tree of a
    ``qubits``-qubit register may hold, and beyond it the total gadget
    merges ``batches * shots * (2**rounds - 1)`` weighted by
    ``4**(qubits - 1)``, before anything is built.
    """
    if shots > MAX_SHOTS_PER_BATCH:
        raise ResourceLimitError(
            f"{shots} shots per batch exceed the limit of {MAX_SHOTS_PER_BATCH}")
    if batches > MAX_BATCHES or batches * shots > MAX_RUN_SHOTS:
        raise ResourceLimitError(
            f"{batches} x {shots} shots exceed the limits of {MAX_BATCHES} batches and"
            f" {MAX_RUN_SHOTS:.0e} shots in all")
    if rounds <= MAX_BRUTE_FORCE_ROUNDS:
        check_enumeration_budget(rounds, qubits)
        return
    # the budget is far below 2**64, so a capped exponent gives the same verdict
    merges = batches * shots * (2 ** min(rounds, 64) - 1) * 4 ** (qubits - 1)
    if merges > MAX_SHOT_MERGES:
        raise ResourceLimitError(
            f"{batches} x {shots} shots at {rounds} rounds on {qubits} qubits exceed the"
            f" limit of {MAX_SHOT_MERGES:.0e} single-qubit gadget merges")


def _outcome_cdf(states: np.ndarray, index: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row k: the CDF of the eigenvectors ``vecs`` measured on ``states[index[k]]``.

    Each row is what ``Generator.choice(p=...)`` builds from the clamped,
    normalized probabilities Tr(Pi_j rho): their cumulative sum, divided by
    its last entry. States are gathered one chunk at a time.
    """
    q = np.empty((len(index), vecs.shape[1]))
    step = chunk_rows(16 * vecs.size)
    for lo in range(0, len(index), step):
        q[lo:lo + step] = np.real(np.einsum("ij,bjk,ki->bi", vecs.conj().T,
                                            states[index[lo:lo + step]], vecs))
    q = np.clip(q, 0.0, None)
    cdf = np.cumsum(q / q.sum(axis=1, keepdims=True), axis=1)
    return cdf / cdf[:, -1:]


def sample_outcome_tree(rho: np.ndarray, rounds: int, rng: np.random.Generator,
                        shots: int = 1) -> OutcomeBranches:
    """Draw ``shots`` outcome strings node by node through the merge tree.

    The shots walk the tree together, one stacked gadget call per node.
    Every node's sign is drawn for all shots from one vector of uniforms,
    each with its conditional probability given the shot's two child
    states; zero-probability branches are never drawn. Returns the drawn
    branches, one per shot, with their strings in outcome-string order.
    """
    def draw(left, right):
        overlap = (left @ right).trace(axis1=-2, axis2=-1).real
        return np.where(rng.random(shots) < 0.5 * (1.0 + overlap), 1, -1)

    return walk_tree(rho, rounds, draw, shots)


def _measure(records: np.ndarray, shots: np.ndarray, rows: np.ndarray, parity: np.ndarray,
             cdf: np.ndarray, vals: np.ndarray, rng: np.random.Generator) -> None:
    """Record a parity and one observable draw for each shot in ``shots``.

    Shot ``shots[k]`` sits on row ``rows[k]`` of ``parity`` and of the
    eigenvalue CDFs ``cdf``. Its draw is the inverse CDF at the k-th of
    ``len(shots)`` uniforms, which is how ``Generator.choice(p=...)`` draws,
    so the stream matches one ``choice`` per row group in ``shots`` order.
    """
    u = rng.random(len(shots))
    records[shots, 0] = parity[rows]
    step = chunk_rows(8 * cdf.shape[1])
    for lo in range(0, len(shots), step):
        part = slice(lo, lo + step)
        records[shots[part], 1] = vals[np.sum(cdf[rows[part]] <= u[part, None], axis=1)]


def sampling_tree(rho: np.ndarray, rounds: int) -> OutcomeBranches | None:
    """The enumerated outcome tree that ``simulate_shots`` draws branches from.

    None beyond the enumeration limit, where every shot walks its own tree.
    Enumeration draws no random numbers, so one tree serves any number of
    batches.
    """
    return enumerate_outcomes(rho, rounds) if rounds <= MAX_BRUTE_FORCE_ROUNDS else None


def simulate_shots(rho: np.ndarray, obs: np.ndarray, rounds: int, n_shots: int,
                   rng: np.random.Generator, tree: OutcomeBranches | None = None) -> np.ndarray:
    """(n_shots, 2) array of (parity, observable outcome) records.

    Up to the enumeration limit, shots are drawn vectorized from the joint
    branch/eigenvalue distribution of the enumerated tree, which is
    identical to the node-by-node draw: first the branch of every shot,
    then the observable of every shot, grouped by branch in index order
    and in shot order within a branch. ``tree``, if given, is
    ``sampling_tree(rho, rounds)`` from an earlier batch; it is enumerated
    here otherwise. Beyond the limit the shots walk the tree together, in
    chunks of ``CHUNK_BYTES``, and each chunk then draws its observables.
    """
    if n_shots < 1:
        raise ValidationError("n_shots must be >= 1")
    vals, vecs = np.linalg.eigh(check_observable(obs))
    records = np.empty((n_shots, 2), dtype=float)
    if rounds <= MAX_BRUTE_FORCE_ROUNDS:
        branches = enumerate_outcomes(rho, rounds) if tree is None else tree
        probs = branches.probability
        which = rng.choice(len(branches), size=n_shots, p=probs / probs.sum())
        order = np.argsort(which, kind="stable")
        # only the branches drawn need their observable distribution
        drawn, rows = np.unique(which[order], return_inverse=True)
        _measure(records, order, rows, branches.parity[drawn],
                 _outcome_cdf(branches.state, drawn, vecs), vals, rng)
        return records
    step = chunk_rows(16 * vals.size ** 2)
    for lo in range(0, n_shots, step):
        shots = np.arange(lo, min(lo + step, n_shots))
        drawn = sample_outcome_tree(rho, rounds, rng, len(shots))
        rows = np.arange(len(shots))
        _measure(records, shots, rows, drawn.parity, _outcome_cdf(drawn.state, rows, vecs),
                 vals, rng)
    return records


def estimate_observable(rho: np.ndarray, obs: np.ndarray, rounds: int,
                        n_shots: int, seed: int | np.random.Generator) -> EstimatorResult:
    """End-to-end sampled estimate of the purified expectation value."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return ratio_estimate(simulate_shots(rho, obs, rounds, n_shots, rng))
