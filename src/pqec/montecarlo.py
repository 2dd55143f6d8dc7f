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

from .purify import PROB_FLOOR, check_observable, check_rounds, chunk_rows, merge_spectra, \
    spectra_overlap
from .states import ResourceLimitError, ValidationError, spectral_decomposition

# Up to this many rounds shots draw their branches from the whole tree's last
# level (``_choice``), beyond it they walk the tree (``_walk``); the two take
# their uniforms in different orders, so the split fixes a seed's draws.
MAX_TREE_ROUNDS = 4

# Budget of one sampling run, checked before anything is built:
# - shots per batch, whose records are held in memory at once;
# - shots in all, batches x shots, and batches, since each batch adds a CSV
#   row and a fixed cost: many tiny batches stay bounded too;
# - up to MAX_TREE_ROUNDS nothing more: the tree's size does not grow with M;
# - beyond it, where every shot walks its own branch, the merges
#   batches x shots x (2**rounds - 1), each weighted by d/2 = 2**(M-1), so
#   the limit counts one-qubit merges: a merge of two vectors of d
#   eigenvalues costs about 80 + 11 d ns (README).
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
    product = epsilon * epsilon * trace_rho_n * trace_rho_n
    # a tiny epsilon or Tr(rho^N) underflows the product to 0 or overflows the bound
    bound = 1.0 / product if product else math.inf
    if bound == math.inf:
        raise ValidationError(f"the shot bound for epsilon {epsilon} and Tr(rho^N) "
                              f"{trace_rho_n} is not a finite count")
    return math.ceil(bound)


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

    Checks the shots per batch, the batches and the shots in all, then,
    beyond ``MAX_TREE_ROUNDS``, the total merges ``batches * shots *
    (2**rounds - 1)`` weighted by ``2**(qubits - 1)``, before anything is
    built.
    """
    if shots > MAX_SHOTS_PER_BATCH:
        raise ResourceLimitError(
            f"{shots} shots per batch exceed the limit of {MAX_SHOTS_PER_BATCH}")
    if batches > MAX_BATCHES or batches * shots > MAX_RUN_SHOTS:
        raise ResourceLimitError(
            f"{batches} x {shots} shots exceed the limits of {MAX_BATCHES} batches and"
            f" {MAX_RUN_SHOTS:.0e} shots in all")
    check_rounds(rounds)
    if rounds <= MAX_TREE_ROUNDS:
        return
    # the budget is far below 2**64, so a capped exponent gives the same verdict
    merges = batches * shots * (2 ** min(rounds, 64) - 1) * 2 ** (qubits - 1)
    if merges > MAX_SHOT_MERGES:
        raise ResourceLimitError(
            f"{batches} x {shots} shots at {rounds} rounds on {qubits} qubits exceed the"
            f" limit of {MAX_SHOT_MERGES:.0e} single-qubit spectrum merges")


def _outcome_cdf(spectra: np.ndarray, vecs: np.ndarray, obs_vecs: np.ndarray) -> np.ndarray:
    """Row k: the CDF of the observable's eigenvectors ``obs_vecs`` measured on branch k.

    Branch k has eigenvalues ``spectra[k]`` on rho's eigenvectors ``vecs``,
    so Tr(Pi_i rho_k) = sum_j spectra[k, j] |<u_i|v_j>|^2, with no d x d
    state built. Each row is what ``Generator.choice(p=...)`` builds from
    these probabilities: their cumulative sum over their total, divided by
    its last entry.
    """
    q = spectra @ np.abs(vecs.conj().T @ obs_vecs) ** 2
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
    overlap = spectra_overlap(left, right)
    sign = np.where(u < 0.5 * (1.0 + overlap), 1, -1)
    spectrum, prob = merge_spectra(left, right, sign, overlap)
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


def _walk_shots(vals: np.ndarray, rounds: int, rng: np.random.Generator, shots: int):
    """Root spectra (shots, d), probabilities and signs (2**rounds - 1, shots) of a walk."""
    # merging a level of n nodes builds nine (n, shots, d) arrays and about
    # sixteen (n, shots) ones, so the widest level, of 2**(height - 1) nodes,
    # builds at most CHUNK_BYTES
    height = min(rounds, chunk_rows(8 * max(shots, 1) * (9 * vals.size + 16)).bit_length())
    signs = np.empty((2 ** rounds - 1, shots), dtype=np.int8)
    spectrum, prob = _walk(vals, rounds, height, rng, signs, 0)
    return spectrum, prob, signs


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


@dataclass(frozen=True)
class SpectralTree:
    """The outcome tree of ``sampling_tree``, on rho's eigenvectors ``vecs``.

    ``level`` holds the (n, d) eigenvalues of the level below the last, and
    ``overlap`` their ``overlap_matrix``. Branch b merges ``level[left[b]]``
    and ``level[right[b]]`` with sign ``sign[b]`` when drawn (``spectra``).
    With zero rounds ``level`` is rho's spectrum and the merge fields None.
    """

    vecs: np.ndarray
    level: np.ndarray
    probability: np.ndarray
    parity: np.ndarray
    overlap: np.ndarray | None = None
    left: np.ndarray | None = None
    right: np.ndarray | None = None
    sign: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.probability)

    def spectra(self, index: np.ndarray) -> np.ndarray:
        """(len(index), d) eigenvalues of the branches ``index``, each as merged alone."""
        if self.sign is None:
            return self.level[index]
        left, right = self.left[index], self.right[index]
        return merge_spectra(self.level[left], self.level[right], self.sign[index],
                             self.overlap[left, right])[0]


def overlap_matrix(level: np.ndarray) -> np.ndarray:
    """(n, n) ``spectra_overlap`` of a level's n spectra with each other, in ``CHUNK_BYTES`` chunks."""
    n = len(level)
    out = np.empty((n, n))
    step = chunk_rows(8 * level[0].size * n)
    for lo in range(0, n, step):
        out[lo:lo + step] = spectra_overlap(level[lo:lo + step, None], level[None])
    return out


def reachable_merges(overlap: np.ndarray, probability: np.ndarray, parity: np.ndarray):
    """``(left, right, sign, probability, parity)`` of a level's reachable merges with itself.

    Merges of a level's branches, given its ``overlap_matrix``, are ordered
    left outermost, then right, then sign +1 before -1; those whose node
    probability falls below ``PROB_FLOOR`` are left out, and the rest still
    sum to one.
    """
    probs = np.stack([0.5 * (1.0 + overlap), 0.5 * (1.0 - overlap)], axis=-1)
    left, right, minus = np.nonzero(probs >= PROB_FLOOR)
    # trees stop at four rounds, so a level below holds at most 2**7 branches
    left, right = left.astype(np.int32), right.astype(np.int32)
    sign = (1 - 2 * minus).astype(np.int8)
    return (left, right, sign, probability[left] * probability[right] * probs[left, right, minus],
            parity[left] * parity[right] * sign)


def sampling_tree(rho: np.ndarray, rounds: int) -> SpectralTree | None:
    """The tree ``simulate_shots`` draws from up to ``MAX_TREE_ROUNDS``; None beyond.

    After one ``spectral_decomposition`` of rho, each level below the last
    is merged as (n, d) eigenvalue vectors from the ``reachable_merges`` of
    the one below. The last level keeps only its merges, probabilities and
    parities: just the branches that shots draw need a spectrum, and no
    sampler output reads a sign string. The tree draws no random numbers,
    so one serves every batch.
    """
    if rounds > MAX_TREE_ROUNDS:
        return None
    check_rounds(rounds)
    vals, vecs = spectral_decomposition(rho)
    tree = SpectralTree(vecs, vals[None], np.ones(1), np.ones(1, dtype=int))
    for _ in range(rounds):
        level = tree.spectra(np.arange(len(tree)))
        overlap = overlap_matrix(level)
        left, right, sign, probability, parity = reachable_merges(
            overlap, tree.probability, tree.parity)
        tree = SpectralTree(vecs, level, probability, parity, overlap, left, right, sign)
    return tree


def simulate_shots(rho: np.ndarray, obs: np.ndarray, rounds: int, n_shots: int,
                   rng: np.random.Generator, tree: SpectralTree | None = None) -> np.ndarray:
    """(n_shots, 2) array of (parity, observable outcome) records.

    Up to ``MAX_TREE_ROUNDS`` every shot draws its branch from
    ``sampling_tree`` (``_choice``), or from ``tree`` if an earlier batch
    built it, and only the distinct branches drawn are merged; beyond it
    the shots walk the tree together (``_walk``), a block at a time. Then
    each shot draws its observable in shot order (``_measure``) from a CDF
    read off its branch's spectrum: no branch state is built.
    """
    check_rounds(rounds)
    if n_shots < 1:
        raise ValidationError("n_shots must be >= 1")
    obs_vals, obs_vecs = np.linalg.eigh(check_observable(obs, rho))
    records = np.empty((n_shots, 2), dtype=float)
    if rounds <= MAX_TREE_ROUNDS:
        tree = sampling_tree(rho, rounds) if tree is None else tree
        probs = tree.probability
        which = _choice(probs / probs.sum(), n_shots, rng)
        # only the branches drawn need a spectrum and their observable distribution
        counts = np.bincount(which)
        drawn = np.flatnonzero(counts)
        # each shot's row among the drawn branches, written over its branch index so that
        # a million-shot batch holds one shots-long index array, not two
        np.take(np.cumsum(counts > 0) - 1, which, out=which)
        _measure(records, which, tree.parity[drawn],
                 _outcome_cdf(tree.spectra(drawn), tree.vecs, obs_vecs), obs_vals, rng)
        return records
    vals, vecs = spectral_decomposition(rho)
    # each walk draws the uniforms of its block, so the block size, which once
    # bounded the block's d x d states, fixes the draws of a seed
    step = chunk_rows(16 * obs_vals.size ** 2)
    for lo in range(0, n_shots, step):
        block = records[lo:lo + step]
        spectrum, _, signs = _walk_shots(vals, rounds, rng, len(block))
        _measure(block, np.arange(len(block)), np.prod(signs, axis=0),
                 _outcome_cdf(spectrum, vecs, obs_vecs), obs_vals, rng)
    return records


def estimate_observable(rho: np.ndarray, obs: np.ndarray, rounds: int,
                        n_shots: int, seed: int | np.random.Generator) -> EstimatorResult:
    """End-to-end sampled estimate of the purified expectation value."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return ratio_estimate(simulate_shots(rho, obs, rounds, n_shots, rng))
