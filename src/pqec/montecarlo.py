"""Shot-level simulation of the purification measurement record.

Each shot yields an outcome-string parity and a single observable
eigenvalue measured on the conditional output state. The purified
expectation is recovered by the ratio estimator

    A_hat = mean(parity * outcome),   B_hat = mean(parity),
    estimate = A_hat / B_hat,

whose delta-method standard error is sqrt(Var(parity (outcome - estimate)))
/ (sqrt(n) |B_hat|). The required shot count for target precision eps with
a bounded observable scales as 1 / (eps Tr(rho**N))**2.

A run builds what its batches share once (``sampling_tree``): the
observable's weights in rho's eigenbasis and the outcome tree on
eigenvalue vectors. Up to ``MAX_TREE_ROUNDS`` a batch draws its shots'
branches from the tree's last level and measures them in place, block by
block, so it builds no shots-long array but its records. Beyond, its shots
walk the tree, looking the lowest ``LABEL_LEVELS`` levels up as labels and
merging spectra above them, with no branch probability carried: a shot
records only its parity and its observable. Every observable is drawn by
one rule, the count of its branch's CDF entries at or below its uniform.
The estimator sums the records in blocks, in numpy's own order.
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
# level (``_draw_from_tree``), beyond it they walk the tree (``_walk``); the
# two take their uniforms in different orders, so the split fixes a seed's
# draws.
MAX_TREE_ROUNDS = 4

# The walk's lowest levels hold few distinct branches, level k at most
# 2**(2**k - 1), so up to this level it looks labels up in tables built once
# per run (``label_levels``), and above it merges spectra.
LABEL_LEVELS = 3

# Shots per block of the draw from the tree and of the estimator's sums:
# each block's scratch arrays stay in cache and in the allocator's heap.
SHOT_BLOCK = 2 ** 13

# Budget of one sampling run, checked before anything is built:
# - shots per batch, whose records are held in memory at once;
# - shots in all, batches x shots, and batches, since each batch adds a CSV
#   row and a fixed cost: many tiny batches stay bounded too;
# - up to MAX_TREE_ROUNDS nothing more: the tree's size does not grow with M;
# - beyond it, where every shot walks its own branch, the nodes walked
#   batches x shots x (2**rounds - 1), each weighted by d/2 = 2**(M-1), so
#   the limit counts one-qubit merges: a node costs about 25 + 3.5 d ns,
#   its three lowest levels looked up and the rest merged (README).
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


def _pairwise_sum(fill, count: int, scratch: np.ndarray, start: int = 0):
    """``np.add.reduce`` of ``count`` values, bit for bit, with no array of ``count`` built.

    ``fill(out, start)`` writes the values ``start .. start + len(out) - 1``
    into ``out``. Numpy sums a contiguous float64 array pairwise: a run longer
    than 128 values is split at half its length rounded down to a multiple
    of eight, and each half summed alone. This splits the same way until a
    run fits ``scratch``, which it sums with ``np.add.reduce``.
    """
    if count <= len(scratch):
        part = scratch[:count]
        fill(part, start)
        return np.add.reduce(part)
    half = count // 2
    half -= half % 8
    return (_pairwise_sum(fill, half, scratch, start)
            + _pairwise_sum(fill, count - half, scratch, start + half))


def ratio_estimate(shots) -> EstimatorResult:
    """Ratio estimator over a sequence of (parity, outcome) records.

    The means and the variance are those of ``np.mean`` and
    ``np.var(ddof=1)``, bit for bit, summed block by block in one scratch
    buffer of ``SHOT_BLOCK`` values (``_pairwise_sum``).
    """
    arr = np.asarray(shots, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValidationError("need at least two (parity, outcome) shots")
    parities, outcomes = arr.T
    n = arr.shape[0]
    # numpy sums a run of up to 128 values in one piece
    scratch = np.empty(min(n, max(SHOT_BLOCK, 128)))

    def products(out, lo):
        np.multiply(parities[lo:lo + len(out)], outcomes[lo:lo + len(out)], out=out)

    a_hat = float(_pairwise_sum(products, n, scratch) / n)
    b_hat = float(np.add.reduce(parities) / n)
    unstable = abs(b_hat) < 3.0 / math.sqrt(n)
    if b_hat == 0.0:
        return EstimatorResult(estimate=math.nan, numerator_mean=a_hat,
                               denominator_mean=b_hat, standard_error=math.nan,
                               n_samples=n, unstable_denominator=True)
    estimate = a_hat / b_hat

    def residuals(out, lo):
        np.subtract(outcomes[lo:lo + len(out)], estimate, out=out)
        out *= parities[lo:lo + len(out)]

    mean = _pairwise_sum(residuals, n, scratch) / n

    def squared_deviations(out, lo):
        residuals(out, lo)
        out -= mean
        np.square(out, out=out)

    variance = _pairwise_sum(squared_deviations, n, scratch) / (n - 1)
    se = math.sqrt(float(variance) / n) / abs(b_hat)
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


def _outcome_cdf(spectra: np.ndarray, tree: SamplingTree, out: np.ndarray | None = None):
    """Row k: the observable's CDF on a branch of eigenvalues ``spectra[k]``, at its steps.

    Tr(Pi_i rho_k) = sum_j spectra[k, j] weights[j, i] (``SamplingTree``),
    with no d x d state built. The CDF is what ``Generator.choice(p=...)``
    builds from these probabilities: their cumulative sum over their total,
    divided by its last entry. Only its entries at ``tree.steps`` are kept,
    written into ``out`` or into a new array.
    """
    q = spectra @ tree.weights
    cdf = np.cumsum(q / q.sum(axis=1, keepdims=True), axis=1)
    return np.divide(cdf[:, tree.steps], cdf[:, -1:], out=out)


def _outcome_count(columns, u: np.ndarray) -> np.ndarray:
    """For each shot, how many of the CDF entries ``columns`` lie at or below its uniform ``u``.

    Each item of ``columns`` is one step of ``_outcome_cdf`` rows: one row's
    entry for every shot, or an array of each shot's own row's. The rows are
    nondecreasing, so the count is ``searchsorted(side="right")`` on a
    shot's row, the index of its eigenvalue in ``values``.
    """
    count = np.zeros(len(u), dtype=np.intp)
    for column in columns:
        count += column <= u
    return count


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


@dataclass(frozen=True)
class LabelLevel:
    """One of the walk's lowest levels as a lookup table: its branches are labels 0..n-1.

    A node whose children carry labels a and b of the level below draws
    sign +1 iff its uniform lies below ``threshold[a, b]``, which is
    (1 + overlap) / 2, and then carries ``label[a, b, minus]``, -1 where
    that merge is unreachable. ``spectra`` holds each label's eigenvalues.
    The leaf level has one label, rho, and no tables.
    """

    spectra: np.ndarray
    threshold: np.ndarray | None = None
    label: np.ndarray | None = None


def _look_up(level: LabelLevel, below: LabelLevel, left, right, u):
    """Labels and signs of nodes whose children carry labels ``left`` and ``right``.

    Every argument is a stack over the nodes of a level, or one node. An
    unreachable merge raises ``DegenerateOutcomeError`` as ``merge_spectra``
    does on it.
    """
    pair = left * len(below.spectra) + right
    minus = u >= level.threshold.ravel()[pair]
    labels = level.label.ravel()[2 * pair + minus]
    sign = 1 - 2 * minus.astype(np.int8)
    if labels.min() < 0:
        left, right = below.spectra[left], below.spectra[right]
        merge_spectra(left, right, sign, spectra_overlap(left, right))
    return labels, sign


def _merge_nodes(left, right, u):
    """Draw each node's sign from its uniform ``u``, then merge its two child spectra.

    Every argument is a stack over the nodes of a level, or one node, and
    each node draws and merges as it would alone. Returns the merged
    spectra and the signs.
    """
    overlap = spectra_overlap(left, right)
    sign = np.where(u < 0.5 * (1.0 + overlap), 1, -1)
    return merge_spectra(left, right, sign, overlap)[0], sign


def _walk(tables, rounds: int, height: int, rng: np.random.Generator, signs: np.ndarray,
          first: int):
    """The root of a ``rounds``-level subtree; its signs go to ``signs``.

    The root is a label of ``tables[rounds]`` up to ``LABEL_LEVELS``,
    otherwise (shots, d) spectra. ``first`` is the post-order index of the
    subtree's first node. Up to ``height`` levels the subtree is stacked:
    one ``rng.random`` call for the uniforms of all its nodes, one lookup
    or merge per level. A taller one walks its left subtree, its right
    subtree, then its root, so the uniforms come in post-order either way.
    """
    shots = signs.shape[1]
    if rounds > height:
        left = _walk(tables, rounds - 1, height, rng, signs, first)
        right = _walk(tables, rounds - 1, height, rng, signs, first + 2 ** (rounds - 1) - 1)
        u, root = rng.random(shots), first + 2 ** rounds - 2
        if rounds <= LABEL_LEVELS:
            labels, signs[root] = _look_up(tables[rounds], tables[rounds - 1], left, right, u)
            return labels
        spectrum, signs[root] = _merge_nodes(_spectra(tables, rounds - 1, left),
                                             _spectra(tables, rounds - 1, right), u)
        return spectrum
    u = rng.random((2 ** rounds - 1, shots))
    rows = _level_rows(rounds)
    labels = np.zeros((2 ** rounds, shots), dtype=np.intp)
    for level in range(1, min(rounds, LABEL_LEVELS) + 1):
        labels, signs[first + rows[level - 1]] = _look_up(
            tables[level], tables[level - 1], labels[0::2], labels[1::2], u[rows[level - 1]])
    if rounds <= LABEL_LEVELS:
        return labels[0]
    spectrum = _spectra(tables, LABEL_LEVELS, labels)
    for level in range(LABEL_LEVELS + 1, rounds + 1):
        spectrum, signs[first + rows[level - 1]] = _merge_nodes(
            spectrum[0::2], spectrum[1::2], u[rows[level - 1]])
    return spectrum[0]


def _spectra(tables, level: int, root):
    """``root`` of a ``level``-level subtree as spectra, labels looked up."""
    return root if level > LABEL_LEVELS else tables[level].spectra[root]


def _walk_shots(tables, rounds: int, rng: np.random.Generator, shots: int):
    """Root spectra (shots, d) and signs (2**rounds - 1, shots) of a walk."""
    # merging a level of n nodes builds nine (n, shots, d) arrays and about
    # sixteen (n, shots) ones, so the widest level, of 2**(height - 1) nodes,
    # builds at most CHUNK_BYTES
    d = tables[0].spectra.shape[1]
    height = min(rounds, chunk_rows(8 * max(shots, 1) * (9 * d + 16)).bit_length())
    signs = np.empty((2 ** rounds - 1, shots), dtype=np.int8)
    return _spectra(tables, rounds, _walk(tables, rounds, height, rng, signs, 0)), signs


@dataclass(frozen=True)
class SpectralTree:
    """One level of the outcome tree, on eigenvalue vectors.

    ``level`` holds the (n, d) eigenvalues of the level below, and
    ``overlap`` their ``overlap_matrix``. Branch b is merge ``merges[b]`` of
    the level below, a flat index into (left, right, minus) of shape
    (n, n, 2), minus being 1 for sign -1, or merge b itself when
    ``merges`` is None and every merge is reachable; it merges when drawn
    (``spectra``). With zero rounds ``level`` is rho's spectrum and
    ``overlap`` None.
    """

    level: np.ndarray
    probability: np.ndarray
    parity: np.ndarray
    overlap: np.ndarray | None = None
    merges: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.probability)

    def merge_index(self, index: np.ndarray) -> np.ndarray:
        """The flat (left, right, minus) index of the branches ``index``."""
        return index if self.merges is None else self.merges[index]

    def pairs(self, index: np.ndarray):
        """``(left, right, sign)`` of the branches ``index``."""
        pair, minus = np.divmod(self.merge_index(index), 2)
        left, right = np.divmod(pair, len(self.level))
        return left, right, (1 - 2 * minus).astype(np.int8)

    def spectra(self, index: np.ndarray) -> np.ndarray:
        """(len(index), d) eigenvalues of the branches ``index``, each as merged alone."""
        if self.overlap is None:
            return self.level[index]
        left, right, sign = self.pairs(index)
        return merge_spectra(self.level[left], self.level[right], sign,
                             self.overlap[left, right])[0]

    def above(self, level: np.ndarray) -> SpectralTree:
        """The next level, given this level's spectra ``level``: its ``reachable_merges``."""
        overlap = overlap_matrix(level)
        probability, parity, merges = reachable_merges(overlap, self.probability, self.parity)
        return SpectralTree(level, probability, parity, overlap, merges)


def overlap_matrix(level: np.ndarray) -> np.ndarray:
    """(n, n) ``spectra_overlap`` of a level's n spectra with each other, in ``CHUNK_BYTES`` chunks."""
    n = len(level)
    out = np.empty((n, n))
    step = chunk_rows(8 * level[0].size * n)
    for lo in range(0, n, step):
        out[lo:lo + step] = spectra_overlap(level[lo:lo + step, None], level[None])
    return out


def reachable_merges(overlap: np.ndarray, probability: np.ndarray, parity: np.ndarray):
    """``(probability, parity, merges)`` of a level's reachable merges with itself.

    Merges of a level's branches, given its ``overlap_matrix``, are ordered
    left outermost, then right, then sign +1 before -1, and ``merges``
    holds their flat indices into that (n, n, 2) grid, or is None if all
    are reachable. Those whose node probability falls below ``PROB_FLOOR``
    are left out, and the rest still sum to one. Products over the grid are
    built as outer products, then compressed by the mask of the reachable
    merges.
    """
    # the grids are filled one sign at a time: numpy is slow on a length-2 inner axis
    pair_probability = np.multiply.outer(probability, probability)
    pair_parity = np.multiply.outer(parity, parity)
    probs, probability, parity = (np.empty(overlap.shape + (2,), dtype=a.dtype)
                                  for a in (overlap, pair_probability, pair_parity))
    np.multiply(0.5, 1.0 + overlap, out=probs[..., 0])
    np.multiply(0.5, 1.0 - overlap, out=probs[..., 1])
    np.multiply(pair_probability, probs[..., 0], out=probability[..., 0])
    np.multiply(pair_probability, probs[..., 1], out=probability[..., 1])
    parity[..., 0] = pair_parity
    np.negative(pair_parity, out=parity[..., 1])
    keep = probs >= PROB_FLOOR
    if keep.all():
        return probability.ravel(), parity.ravel(), None
    return probability[keep], parity[keep], np.flatnonzero(keep)


@dataclass(frozen=True)
class SamplingTree:
    """What every batch of a sampling run reads, built once by ``sampling_tree``.

    ``rho`` and ``obs`` are copies of the state and the checked observable
    it was built for, which ``simulate_shots`` compares with its own.
    ``weights[j, i]`` = |<u_i|v_j>|^2 pairs rho's eigenvectors v_j, which
    no draw reads, with the observable's eigenvectors u_i. Its eigenvalues
    come ascending, in runs of equal values; ``values`` holds one per run
    and ``steps`` the index of the last eigenvalue of each run but the
    last, so a draw's eigenvalue is ``values[k]``, k counting the CDF
    entries at the steps that lie at or below its uniform. A Pauli string
    has one step, at d/2 - 1.

    Up to ``MAX_TREE_ROUNDS`` rounds ``last`` is the tree's last level,
    which shots draw their branches from by the inverse of its CDF
    ``branch_cdf``; ``top`` is its most probable branch. Beyond,
    ``labels`` holds the leaves and the ``LABEL_LEVELS`` levels above them
    as lookup tables, which every walk starts from.
    """

    rounds: int
    rho: np.ndarray
    obs: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    steps: np.ndarray
    last: SpectralTree | None = None
    branch_cdf: np.ndarray | None = None
    top: int = 0
    labels: tuple[LabelLevel, ...] = ()


def label_levels(vals: np.ndarray) -> tuple[LabelLevel, ...]:
    """The leaves, of eigenvalues ``vals``, and the ``LABEL_LEVELS`` levels above as lookups."""
    tree = SpectralTree(vals[None], np.ones(1), np.ones(1, dtype=np.int8))
    levels = [LabelLevel(tree.level)]
    for _ in range(LABEL_LEVELS):
        tree = tree.above(levels[-1].spectra)
        # label b is branch b
        branches = np.arange(len(tree))
        label = np.full(tree.overlap.shape + (2,), -1, dtype=np.intp)
        label.ravel()[tree.merge_index(branches)] = branches
        levels.append(LabelLevel(tree.spectra(branches), 0.5 * (1.0 + tree.overlap), label))
    return tuple(levels)


def sampling_tree(rho: np.ndarray, obs: np.ndarray, rounds: int) -> SamplingTree:
    """The tree ``simulate_shots`` draws from for rho, the observable ``obs`` and ``rounds``.

    After one ``spectral_decomposition`` of rho, each level is merged as
    (n, d) eigenvalue vectors from the ``reachable_merges`` of the one below
    (``SpectralTree.above``). Up to ``MAX_TREE_ROUNDS`` the last level keeps
    only its merges, probabilities and parities: just the branches that
    shots draw need a spectrum, and no sampler output reads a sign string.
    Shots draw those branches by ``branch_cdf``. Beyond, the walk starts
    from ``label_levels``. Then the observable is decomposed, once. The
    tree draws no random numbers, so one serves every batch.
    """
    check_rounds(rounds)
    obs = check_observable(obs, rho)
    vals, vecs = spectral_decomposition(rho)
    if rounds > MAX_TREE_ROUNDS:
        draw = {"labels": label_levels(vals)}
    else:
        tree = SpectralTree(vals[None], np.ones(1), np.ones(1, dtype=np.int8))
        for _ in range(rounds):
            tree = tree.above(tree.spectra(np.arange(len(tree))))
        cdf, top = branch_cdf(tree.probability)
        draw = {"last": tree, "branch_cdf": cdf, "top": top}
    # after the tree, whose overlaps are the largest arrays of a run
    obs_vals, obs_vecs = np.linalg.eigh(obs)
    steps = np.flatnonzero(obs_vals[1:] != obs_vals[:-1])
    weights = np.abs(vecs.conj().T @ obs_vecs) ** 2
    return SamplingTree(rounds, np.array(rho), np.array(obs), weights,
                        obs_vals[np.r_[0, steps + 1]], steps, **draw)


def branch_cdf(probability: np.ndarray):
    """``Generator.choice``'s CDF over the branches, and the most probable branch.

    The CDF is the cumulative sum of the normalized probabilities over its
    last entry, as ``choice(p=...)`` builds it from p = probability / sum.
    """
    cdf = probability / probability.sum()
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf, int(np.argmax(probability))


def _draw_from_tree(tree: SamplingTree, records: np.ndarray, rng: np.random.Generator) -> None:
    """Fill the column-major ``records`` with shots drawn from the tree's last level.

    The stream is that of ``rng.choice(len(p), size=n, p=p)`` over the
    branch probabilities, then of one scalar ``choice`` per shot over its
    branch's observable probabilities: two ``rng.random(n)`` calls, drawn
    straight into the two record columns. The branch is ``choice``'s
    inverse CDF, ``searchsorted(side="right")``. A first pass searches only
    the shots outside the CDF interval of the most probable branch, marks
    the branches drawn and writes -1 - branch over each such shot's
    uniform; only the marked branches are merged and measured, in chunks
    of ``chunk_rows(8 d)`` branches, each writing its rows of one outcome
    CDF. A second pass gives every shot the most probable branch's parity
    and the searched shots their own, and every shot its observable by
    ``_outcome_count`` on its branch's CDF row. Both passes run in blocks
    of ``SHOT_BLOCK`` shots.
    """
    last, cdf, top = tree.last, tree.branch_cdf, tree.top
    uniforms, outcomes = records.T
    rng.random(len(records), out=uniforms)
    rng.random(len(records), out=outcomes)
    low, high = (cdf[top - 1] if top else 0.0), cdf[top]
    drawn = np.zeros(len(last), dtype=bool)
    for lo in range(0, len(records), SHOT_BLOCK):
        u = uniforms[lo:lo + SHOT_BLOCK]
        rest = np.flatnonzero((u < low) | (u >= high))
        drawn[top] |= len(rest) < len(u)
        branch = cdf.searchsorted(u[rest], side="right")
        drawn[branch] = True
        u[rest] = -1.0 - branch
    which = np.flatnonzero(drawn)
    row = np.cumsum(drawn, dtype=np.int32)
    row -= 1
    parity = last.parity[which].astype(float)
    # every row is written by one chunk
    outcome_cdf = np.empty((len(which), len(tree.steps)))
    step = chunk_rows(8 * len(tree.weights))
    for lo in range(0, len(which), step):
        _outcome_cdf(last.spectra(which[lo:lo + step]), tree, outcome_cdf[lo:lo + step])
    top_parity, top_row = parity[row[top]], outcome_cdf[row[top]]
    for lo in range(0, len(records), SHOT_BLOCK):
        u, v = uniforms[lo:lo + SHOT_BLOCK], outcomes[lo:lo + SHOT_BLOCK]
        rest = np.flatnonzero(u < 0.0)
        rows = row[(-1.0 - u[rest]).astype(np.intp)]
        count = _outcome_count(top_row, v)
        count[rest] = _outcome_count(outcome_cdf[rows].T, v[rest])
        tree.values.take(count, out=v)
        u.fill(top_parity)
        u[rest] = parity[rows]


def simulate_shots(rho: np.ndarray, obs: np.ndarray, rounds: int, n_shots: int,
                   rng: np.random.Generator, tree: SamplingTree | None = None) -> np.ndarray:
    """(n_shots, 2) array of (parity, observable outcome) records, in column-major order.

    ``tree`` is ``sampling_tree(rho, obs, rounds)``, built here unless an
    earlier batch built it; a tree built for other rounds, or for a state
    or observable whose entries differ from rho's or ``obs``'s, raises
    ``ValidationError``.
    Up to ``MAX_TREE_ROUNDS`` every shot draws its branch from the tree's
    last level (``_draw_from_tree``), and only the distinct branches drawn
    are merged; beyond it the shots walk the tree together (``_walk``), a
    block at a time, and each then draws its observable in shot order from
    a CDF read off its branch's spectrum. No branch state is built.
    """
    check_rounds(rounds)
    if n_shots < 1:
        raise ValidationError("n_shots must be >= 1")
    if tree is None:
        tree = sampling_tree(rho, check_observable(obs, rho), rounds)
    elif tree.rounds != rounds:
        raise ValidationError(f"the tree was built for {tree.rounds} rounds, not {rounds}")
    elif not (np.array_equal(tree.rho, rho) and np.array_equal(tree.obs, obs)):
        raise ValidationError("the tree was built for another state or observable")
    records = np.empty((n_shots, 2), order="F")
    if rounds <= MAX_TREE_ROUNDS:
        _draw_from_tree(tree, records, rng)
        return records
    # each walk draws the uniforms of its block, so the block size, which once
    # bounded the block's d x d states, fixes the draws of a seed
    step = chunk_rows(16 * len(tree.weights) ** 2)
    for lo in range(0, n_shots, step):
        parities, outcomes = records[lo:lo + step].T
        spectrum, signs = _walk_shots(tree.labels, rounds, rng, len(parities))
        np.prod(signs, axis=0, out=parities)
        rng.random(len(outcomes), out=outcomes)
        tree.values.take(_outcome_count(_outcome_cdf(spectrum, tree).T, outcomes), out=outcomes)
    return records


def estimate_observable(rho: np.ndarray, obs: np.ndarray, rounds: int,
                        n_shots: int, seed: int | np.random.Generator) -> EstimatorResult:
    """End-to-end sampled estimate of the purified expectation value."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return ratio_estimate(simulate_shots(rho, obs, rounds, n_shots, rng))
