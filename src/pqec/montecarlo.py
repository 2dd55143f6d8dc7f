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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .purify import MAX_BRUTE_FORCE_ROUNDS, LevelMerges, OutcomeBranches, \
    check_enumeration_budget, check_observable, check_rounds, chunk_rows, enumerate_outcomes, \
    level_merges, merge_spectra, merge_states, swap_gadget
from .states import ResourceLimitError, ValidationError, from_spectrum, num_qubits, \
    spectral_decomposition

# Budget of one sampling run, checked before anything is built:
# - shots per batch, whose records are held in memory at once;
# - shots in all, batches x shots, and batches, since each batch adds a CSV
#   row and a fixed cost: many tiny batches stay bounded too;
# - beyond the enumeration limit, where every shot walks its own branch,
#   merges batches x shots x (2**rounds - 1), each weighted by (d/2)**2 =
#   4**(M-1), so the limit is the M=1 count. The weight was set for dense
#   gadget merges, which took 3.4, 9.9 and 29 us at M = 1, 3, 4. Walked
#   level by level on eigenvalue vectors, one merge takes about 0.17, 0.36,
#   0.40 and 0.74 us at M = 1, 3, 4, 5 with 100 shots at l = 6, and 0.15,
#   0.34, 0.47 and 1.0 us in the largest l = 5 batch the budget admits
#   (32258, 2016, 504 and 126 shots), on a 2-vCPU Xeon VM.
MAX_SHOTS_PER_BATCH = 10 ** 6
MAX_RUN_SHOTS = 5 * 10 ** 7
MAX_BATCHES = 10 ** 4
MAX_SHOT_MERGES = 10 ** 6


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
    if not 0.0 < epsilon < math.inf:
        raise ValidationError(f"epsilon must be positive and finite, got {epsilon}")
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


def _outcome_cdf(states: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row k: the CDF of the eigenvectors ``vecs`` measured on ``states[k]``.

    Each row is what ``Generator.choice(p=...)`` builds from the clamped,
    normalized probabilities Tr(Pi_j rho): their cumulative sum, divided by
    its last entry. The three-operand ``einsum`` builds nothing beyond its
    (n, d) output.
    """
    q = np.real(np.einsum("ij,bjk,ki->bi", vecs.conj().T, states, vecs)).clip(0.0)
    cdf = np.cumsum(q / q.sum(axis=1, keepdims=True), axis=1)
    return cdf / cdf[:, -1:]


@functools.cache
def _level_rows(height: int) -> tuple[np.ndarray, ...]:
    """Post-order indices of the nodes of a ``height``-level tree, one array per level.

    Entry k - 1 lists the nodes k levels above the leaves, left to right.
    Post-order (left subtree, right subtree, root) is the order of the
    outcome string and of the walk's uniforms, and it keeps nodes of one
    level in left-to-right order.
    """
    heights = np.zeros(0, dtype=int)
    for level in range(1, height + 1):
        heights = np.concatenate([heights, heights, [level]])
    rows = tuple(np.flatnonzero(heights == level) for level in range(1, height + 1))
    for index in rows:
        index.setflags(write=False)
    return rows


def _merge_nodes(left, right, prob_l, prob_r, u):
    """Draw each node's sign from its uniform ``u``, then merge its two child spectra.

    Every argument is a stack over the nodes of a level, or one node, and
    each node draws and merges as it would alone. Returns the merged
    spectra, the branch probabilities and the signs.
    """
    overlap = (left * right).sum(axis=-1)
    sign = np.where(u < 0.5 * (1.0 + overlap), 1, -1)
    spectrum, prob = merge_spectra(left, right, sign)
    return spectrum, prob_l * prob_r * prob, sign


def _walk(vals: np.ndarray, rounds: int, height: int, rng: np.random.Generator,
          signs: np.ndarray, first: int):
    """Root spectra and probabilities of a ``rounds``-level subtree; its signs go to ``signs``.

    ``first`` is the post-order index of the subtree's first node. Up to
    ``height`` levels the subtree is stacked: one ``rng.random`` call for
    the uniforms of all its nodes, one merge per level. A taller one walks
    its left subtree, its right subtree, then its root, so the uniforms
    come in post-order either way.
    """
    shots = signs.shape[1]
    if rounds > height:
        left, prob_l = _walk(vals, rounds - 1, height, rng, signs, first)
        right, prob_r = _walk(vals, rounds - 1, height, rng, signs, first + 2 ** (rounds - 1) - 1)
        spectrum, prob, signs[first + 2 ** rounds - 2] = _merge_nodes(
            left, right, prob_l, prob_r, rng.random(shots))
        return spectrum, prob
    u = rng.random((2 ** rounds - 1, shots))
    spectrum = np.broadcast_to(vals, (2 ** rounds, shots, vals.size))
    prob_l = prob_r = np.ones((1, shots))
    for rows in _level_rows(rounds):
        spectrum, prob, signs[first + rows] = _merge_nodes(
            spectrum[0::2], spectrum[1::2], prob_l, prob_r, u[rows])
        prob_l, prob_r = prob[0::2], prob[1::2]
    return spectrum[0], prob_l[0]


def sample_outcome_tree(rho: np.ndarray, rounds: int, rng: np.random.Generator,
                        shots: int = 1) -> OutcomeBranches:
    """Draw ``shots`` outcome strings through the merge tree, one level at a time.

    Every branch state is a polynomial in rho, so it shares rho's
    eigenbasis: after one ``spectral_decomposition`` the shots walk the
    tree together as (shots, d) eigenvalue vectors. Each node's sign is
    drawn for all shots from one vector of uniforms, each with its
    conditional probability given the shot's two child states, so
    zero-probability branches are never drawn. The walk stacks whole
    subtrees: one ``rng.random`` call draws all the uniforms of a subtree,
    and one ``merge_spectra`` call merges each of its levels. A subtree is
    as tall as lets the arrays that merging its widest level builds fit
    ``CHUNK_BYTES``; above that the walk goes node by node. Both take the
    uniforms in post-order, so the draws are those of a node-by-node walk
    for any shot count. Returns the drawn branches, one per shot, with
    their strings in outcome-string order and their states rebuilt once,
    at the root.
    """
    check_rounds(rounds)
    vals, vecs = spectral_decomposition(rho)
    # merging a level of n nodes builds nine (n, shots, d) arrays and about
    # sixteen (n, shots) ones, so the widest level, of 2**(height - 1) nodes,
    # builds at most CHUNK_BYTES
    height = min(rounds, chunk_rows(8 * max(shots, 1) * (9 * vals.size + 16)).bit_length())
    signs = np.empty((2 ** rounds - 1, shots), dtype=np.int8)
    spectrum, prob = _walk(vals, rounds, height, rng, signs, 0)
    outcomes = signs.T
    return OutcomeBranches(state=from_spectrum(spectrum, vecs),
                           probability=prob, parity=np.prod(outcomes, axis=1),
                           outcomes=outcomes)


def _measure(records: np.ndarray, rows: np.ndarray, parity: np.ndarray, cdf: np.ndarray,
             vals: np.ndarray, rng: np.random.Generator) -> None:
    """Fill ``records`` with a parity and one observable draw per record.

    Record k sits on row ``rows[k]`` of ``parity`` and of the eigenvalue
    CDFs ``cdf``. Its draw is the inverse CDF at the k-th of
    ``len(records)`` uniforms, which is how ``Generator.choice(p=...)``
    draws, so the stream matches one scalar ``choice`` per record, in order.
    The index is counted column by column: how many of the first d - 1 CDF
    entries lie at or below the uniform, which is ``searchsorted(side="right")``
    on a nondecreasing row; the last entry is exactly 1.0, above every
    uniform. Records run in chunks of ``CHUNK_BYTES`` of indices and
    gathered CDF entries, so no (records, d) block is built.
    """
    u = rng.random(len(records))
    records[:, 0] = parity[rows]
    step = chunk_rows(16)
    for lo in range(0, len(records), step):
        part = rows[lo:lo + step]
        index = np.zeros(len(part), dtype=np.intp)
        for column in cdf[:, :-1].T:
            index += column[part] <= u[lo:lo + step]
        records[lo:lo + step, 1] = vals[index]


def _choice(p: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``rng.choice(len(p), size=size, p=p)``, bit for bit, with the most probable index looked up.

    This is ``choice``'s own inverse-CDF draw: the normalized cumulative sum
    of ``p``, one ``rng.random(size)`` call and ``searchsorted(side="right")``,
    so the indices and the generator's state afterwards are ``choice``'s.
    Uniforms in the half-open CDF interval of the most probable index are
    resolved by two comparisons; only the rest are binary-searched.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(size)
    top = int(np.argmax(p))
    low = cdf[top - 1] if top else 0.0
    index = np.full(size, top, dtype=np.int64)
    rest = np.flatnonzero((u < low) | (u >= cdf[top]))
    index[rest] = cdf.searchsorted(u[rest], side="right")
    return index


def sampling_tree(rho: np.ndarray, rounds: int) -> LevelMerges | OutcomeBranches | None:
    """The outcome tree that ``simulate_shots`` draws branches from.

    Up to the enumeration limit, the reachable merges of the last level
    over the enumerated tree of ``rounds - 1`` levels: every branch's
    probability and parity, but no state and no sign string, since only the
    branches that shots draw need a state and no sampler output reads a
    string (``LevelMerges.outcomes`` builds them on access). Zero rounds
    give the one unmerged branch, and None beyond the limit, where every
    shot walks its own tree. The tree draws no random numbers, so one serves
    any number of batches.
    """
    if rounds > MAX_BRUTE_FORCE_ROUNDS:
        return None
    check_enumeration_budget(rounds, num_qubits(np.shape(rho)[-1]))
    if rounds == 0:
        return enumerate_outcomes(rho, 0)
    return level_merges(enumerate_outcomes(rho, rounds - 1))


def simulate_shots(rho: np.ndarray, obs: np.ndarray, rounds: int, n_shots: int,
                   rng: np.random.Generator,
                   tree: LevelMerges | OutcomeBranches | None = None) -> np.ndarray:
    """(n_shots, 2) array of (parity, observable outcome) records.

    Up to the enumeration limit, shots are drawn vectorized from the joint
    branch/eigenvalue distribution of the enumerated tree, which is
    identical to the node-by-node draw: first the branch of every shot,
    by ``Generator.choice``'s inverse-CDF draw with the most probable
    branch looked up by two comparisons (``_choice``), then the observable
    of every shot, counted column by column (``_measure``), both in shot
    order. Only the distinct branches drawn are merged, bit for bit as in
    ``enumerate_outcomes``. ``tree``, if given, is ``sampling_tree(rho,
    rounds)`` from an earlier batch; it is built here otherwise. Beyond the
    limit the shots walk the tree together on eigenvalue vectors, a level
    of a stacked subtree per ``merge_spectra`` call and one ``rng.random``
    call per subtree (``sample_outcome_tree``), in chunks of ``CHUNK_BYTES``
    of rebuilt states, and each chunk then draws its observables through
    the same measurement step.
    """
    check_rounds(rounds)
    if n_shots < 1:
        raise ValidationError("n_shots must be >= 1")
    vals, vecs = np.linalg.eigh(check_observable(obs, rho))
    records = np.empty((n_shots, 2), dtype=float)
    if rounds <= MAX_BRUTE_FORCE_ROUNDS:
        branches = sampling_tree(rho, rounds) if tree is None else tree
        probs = branches.probability
        which = _choice(probs / probs.sum(), n_shots, rng)
        # only the branches drawn need a state and their observable distribution
        counts = np.bincount(which)
        drawn = np.flatnonzero(counts)
        states = (branches.state[drawn] if isinstance(branches, OutcomeBranches)
                  else merge_states(branches, drawn, swap_gadget))
        # each shot's row among the drawn branches, written over its branch index so that
        # a million-shot batch holds one shots-long index array, not two
        np.take(np.cumsum(counts > 0) - 1, which, out=which)
        _measure(records, which, branches.parity[drawn], _outcome_cdf(states, vecs), vals, rng)
        return records
    step = chunk_rows(16 * vals.size ** 2)
    for lo in range(0, n_shots, step):
        block = records[lo:lo + step]
        drawn = sample_outcome_tree(rho, rounds, rng, len(block))
        _measure(block, np.arange(len(block)), drawn.parity, _outcome_cdf(drawn.state, vecs),
                 vals, rng)
    return records


def estimate_observable(rho: np.ndarray, obs: np.ndarray, rounds: int,
                        n_shots: int, seed: int | np.random.Generator) -> EstimatorResult:
    """End-to-end sampled estimate of the purified expectation value."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return ratio_estimate(simulate_shots(rho, obs, rounds, n_shots, rng))
