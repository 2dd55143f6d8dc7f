import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from pqec import (
    NoiseModel,
    density_from_pure,
    estimate_observable,
    extract_observable_exact,
    make_channel,
    pauli_matrix,
    plus_state,
    ratio_estimate,
    required_samples,
    run_cycles,
    simulate_shots,
    sweep,
    zero_state,
)
import pqec.montecarlo
from pqec.montecarlo import MAX_BATCHES, MAX_RUN_SHOTS, MAX_SHOT_MERGES, MAX_SHOTS_PER_BATCH, \
    SamplingTree, SpectralTree, branch_cdf, check_sampling_budget, sampling_tree
import pqec.purify
from pqec.purify import DegenerateOutcomeError, check_observable, merge_spectra, swap_gadget
from pqec.states import ResourceLimitError, ValidationError, from_spectrum, kron_all, \
    spectral_decomposition
from oracles import conditional_state, enumerate_outcomes, frozen_shot_records, maximally_mixed, \
    per_node_outcome_tree, random_density_matrix, random_pure_state, sample_outcome_tree

DIAG = np.diag([0.8, 0.2]).astype(complex)
Z = pauli_matrix("Z")
LOCAL = NoiseModel("local-depol", 0.1)


def sample_observable(state, obs, rng):
    """One projective measurement outcome: an eigenvalue of ``obs``.

    The eigenvalue is selected by index from the eigendecomposition, drawn
    with probability Tr(Pi_j rho).
    """
    vals, vecs = np.linalg.eigh(check_observable(obs, state))
    q = np.clip(np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, state, vecs)), 0.0, None)
    return float(vals[rng.choice(vals.size, p=q / q.sum())])


# ----------------------------------------------------------------------
# ratio estimator
# ----------------------------------------------------------------------

def test_ratio_estimate_constant_shots():
    res = ratio_estimate([(1, 1.0)] * 100)
    assert res.estimate == pytest.approx(1.0)
    assert res.standard_error == pytest.approx(0.0)
    assert not res.unstable_denominator


def test_ratio_estimate_component_means():
    shots = [(1, 1.0), (-1, 1.0), (1, -1.0), (1, 1.0)]
    res = ratio_estimate(shots)
    assert res.numerator_mean == pytest.approx((1 - 1 - 1 + 1) / 4)
    assert res.denominator_mean == pytest.approx(0.5)
    assert res.n_samples == 4


def test_ratio_estimate_adversarial_denominator():
    # fair-coin parity with o = parity: B_hat hovers near zero and the
    # estimate diverges, but it is still reported alongside the warning flag
    rng = np.random.default_rng(0)
    parities = rng.choice([-1.0, 1.0], size=10000)
    shots = np.column_stack([parities, parities])
    res = ratio_estimate(shots)
    assert res.unstable_denominator
    assert res.numerator_mean == pytest.approx(1.0)  # o = parity makes A_hat = 1
    assert np.isfinite(res.estimate) or np.isnan(res.estimate)


def _numpy_estimate(records):
    """The estimate, its components and its standard error from np.mean and np.var(ddof=1)."""
    parities, outcomes = records[:, 0], records[:, 1]
    a_hat, b_hat = float(np.mean(parities * outcomes)), float(np.mean(parities))
    if b_hat == 0.0:
        return a_hat, b_hat, math.nan, math.nan
    estimate = a_hat / b_hat
    residual = parities * (outcomes - estimate)
    se = math.sqrt(float(np.var(residual, ddof=1)) / len(records)) / abs(b_hat)
    return a_hat, b_hat, estimate, se


@pytest.mark.parametrize("n", [2, 3, 8193, 300_000])
def test_ratio_estimate_is_numpy_mean_and_var(n):
    # outcomes off +-1 round in every sum, so the blocked sums must add in numpy's order
    rng = np.random.default_rng(n)
    parities = rng.choice([-1.0, 1.0], size=n, p=[0.3, 0.7])
    parities[0] = 1.0
    cases = {"mixed": np.column_stack([parities, rng.normal(size=n)]),
             "zero B_hat": np.column_stack([np.resize([1.0, -1.0], n - n % 2), np.ones(n - n % 2)]),
             "constant": np.column_stack([np.ones(n), np.full(n, -1.0)])}
    for name, records in cases.items():
        want = _numpy_estimate(records)
        for shots in (records, np.asfortranarray(records), records.tolist()):
            res = ratio_estimate(shots)
            got = (res.numerator_mean, res.denominator_mean, res.estimate, res.standard_error)
            assert np.array_equal(got, want, equal_nan=True), name
            assert res.n_samples == len(records)
        if name == "zero B_hat":
            assert math.isnan(res.estimate) and res.unstable_denominator
        if name == "constant":
            assert res.standard_error == 0.0 and res.estimate == -1.0


def test_ratio_estimate_needs_two_shots():
    with pytest.raises(ValidationError):
        ratio_estimate([(1, 1.0)])


def test_required_samples_examples():
    assert required_samples(0.01, 1.0) == 10000
    assert required_samples(0.01, 0.68) == 21627
    assert required_samples(0.1, 0.5) == 400
    with pytest.raises(ValidationError):
        required_samples(0.0, 0.5)
    with pytest.raises(ValidationError):
        required_samples(0.1, 0.0)
    # an infinite epsilon asked for no shots; nan failed in math.ceil
    for epsilon in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="epsilon must be positive and finite"):
            required_samples(epsilon, 0.5)
    # a tiny positive input underflowed the product to 0 or overflowed the bound
    for epsilon, trace in ((1e-200, 0.5), (0.1, 1e-200), (0.1, 1e-170), (1e-160, 0.5),
                           (1e-5, 1e-150)):
        with pytest.raises(ValidationError, match="not a finite count"):
            required_samples(epsilon, trace)


# ----------------------------------------------------------------------
# outcome-tree sampling
# ----------------------------------------------------------------------

def test_sample_outcome_tree_pure_state():
    rng = np.random.default_rng(1)
    rho = density_from_pure(zero_state(1))
    for _ in range(20):
        branch = sample_outcome_tree(rho, 2, rng)
        assert np.all(branch.outcomes == 1)
        assert branch.parity[0] == 1


def test_sample_outcome_tree_single_round_frequency():
    # one round draws one uniform per shot, so n shots in one walk take the uniforms of n
    # one-shot walks, in the same order, and count the same signs
    rng = np.random.default_rng(2)
    n = 20000
    plus = np.sum(sample_outcome_tree(DIAG, 1, rng, n).outcomes[:, 0] == 1)
    assert plus / n == pytest.approx(0.84, abs=0.01)


def test_sample_outcome_tree_mixed_state_frequency():
    rng = np.random.default_rng(3)
    n = 20000
    plus = np.sum(sample_outcome_tree(maximally_mixed(1), 1, rng, n).outcomes[:, 0] == 1)
    assert plus / n == pytest.approx(0.75, abs=0.011)


def test_sample_outcome_tree_chi_square():
    # node-by-node draws must reproduce the product distribution over strings
    rng = np.random.default_rng(4)
    branches = enumerate_outcomes(DIAG, 2)
    probs = dict(zip(map(tuple, branches.outcomes.tolist()), branches.probability))
    n = 20000
    counts = {key: 0 for key in probs}
    for _ in range(n):
        counts[tuple(sample_outcome_tree(DIAG, 2, rng).outcomes[0].tolist())] += 1
    chi2 = sum((counts[k] - n * p) ** 2 / (n * p) for k, p in probs.items())
    assert chi2 < 26.1  # 99.9% quantile at 7 degrees of freedom


def test_sample_outcome_tree_matches_conditional_state():
    # a drawn string and the same string evaluated as given land on one branch
    rng = np.random.default_rng(12)
    for qubits in (1, 2):
        for rounds in (1, 2, 3):
            rho = random_density_matrix(qubits, rng)
            for _ in range(4):
                branch = sample_outcome_tree(rho, rounds, rng)
                outs = branch.outcomes[0]
                fixed = conditional_state(rho, outs)
                assert np.array_equal(branch.outcomes, fixed.outcomes)
                assert np.max(np.abs(branch.state - fixed.state)) < 1e-12
                assert branch.probability == pytest.approx(fixed.probability, rel=1e-12)
                assert branch.parity == fixed.parity == np.prod(outs)


def _string_codes(outcomes):
    """Each sign string read as a binary number, -1 as a set bit."""
    return (outcomes == -1) @ (2 ** np.arange(outcomes.shape[1])[::-1])


def _chi_square_quantile(df):
    """Wilson-Hilferty approximation of the 99.9% quantile of chi-square(df)."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + 3.0902 * math.sqrt(c)) ** 3


@pytest.mark.parametrize("rounds, n", [(2, 20000), (3, 60000)])
def test_batched_tree_walk_chi_square(rounds, n):
    # one call walks all shots together; the strings follow the enumerated distribution
    rng = np.random.default_rng(40 + rounds)
    rho = random_density_matrix(1, rng)
    branches = enumerate_outcomes(rho, rounds)
    drawn = sample_outcome_tree(rho, rounds, rng, n)
    assert drawn.outcomes.shape == (n, 2 ** rounds - 1)
    expected = n * branches.probability
    found = {code: k for k, code in enumerate(_string_codes(branches.outcomes))}
    counts = np.bincount([found[code] for code in _string_codes(drawn.outcomes)],
                         minlength=len(branches))
    # cells expecting fewer than five draws are pooled into one
    small = expected < 5
    obs = np.append(counts[~small], counts[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if not small.any():
        obs, exp = obs[:-1], exp[:-1]
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    assert chi2 < _chi_square_quantile(len(obs) - 1)


def test_batched_tree_walk_matches_conditional_state():
    # every string of a batched walk, evaluated as given, lands on the drawn branch
    rng = np.random.default_rng(13)
    for qubits in (1, 2):
        for rounds in (1, 3, 5):
            rho = random_density_matrix(qubits, rng)
            drawn = sample_outcome_tree(rho, rounds, rng, 200)
            fixed = conditional_state(rho, drawn.outcomes)
            assert np.array_equal(drawn.outcomes, fixed.outcomes)
            assert np.max(np.abs(drawn.state - fixed.state)) < 1e-12
            assert np.max(np.abs(drawn.probability / fixed.probability - 1.0)) < 1e-12
            assert np.array_equal(drawn.parity, fixed.parity)
            assert np.array_equal(drawn.parity, np.prod(drawn.outcomes, axis=1))


def _dephased_plus_pair():
    """Rank 2 of 4: a dephased |+> beside a pure |+>."""
    dephased = make_channel(NoiseModel("dephasing", 0.2), 1)(density_from_pure(plus_state(1)))
    return kron_all([dephased, density_from_pure(plus_state(1))])


# (M, l, state): l = 5 up to M = 3, l <= 3 at M = 4, 5; pure and rank-deficient inputs
SPECTRAL_CASES = ([(m, 5, "random") for m in (1, 2, 3)] + [(m, 5, "zero") for m in (1, 3)]
                  + [(2, 5, "dephased-plus")]
                  + [(m, ell, "random") for m in (4, 5) for ell in (2, 3)]
                  + [(m, 3, "zero") for m in (4, 5)])


@pytest.mark.parametrize("qubits, rounds, kind", SPECTRAL_CASES)
def test_spectral_walk_matches_dense_conditional_state(qubits, rounds, kind):
    # the eigenvalue walk and the dense gadget oracle agree on every drawn string
    rng = np.random.default_rng(100 * qubits + rounds)
    rho = {"random": lambda: random_density_matrix(qubits, rng),
           "zero": lambda: density_from_pure(zero_state(qubits)),
           "dephased-plus": _dephased_plus_pair}[kind]()
    drawn = sample_outcome_tree(rho, rounds, rng, 64)
    fixed = conditional_state(rho, drawn.outcomes)
    assert np.array_equal(drawn.outcomes, fixed.outcomes)
    assert np.array_equal(drawn.parity, fixed.parity)
    assert np.max(np.abs(drawn.state - fixed.state)) < 1e-13
    assert np.max(np.abs(drawn.probability / fixed.probability - 1.0)) < 1e-12
    if kind == "zero":
        assert np.all(drawn.outcomes == 1)


def _same_walk(rho, rounds, shots, seed):
    """The level-order walk and the per-node oracle draw the same bits from one seed."""
    fast_rng, node_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = sample_outcome_tree(rho, rounds, fast_rng, shots)
    node = per_node_outcome_tree(rho, rounds, node_rng, shots)
    for field in ("state", "probability", "parity", "outcomes"):
        assert np.array_equal(getattr(fast, field), getattr(node, field)), field
    assert fast_rng.random() == node_rng.random()


@pytest.mark.parametrize("qubits, rounds", [(m, ell) for m in (1, 2, 3) for ell in range(8)])
def test_level_walk_matches_per_node_walk(qubits, rounds):
    # stacked subtrees draw and merge bit for bit as the node-by-node walk
    rho = random_density_matrix(qubits, np.random.default_rng(10 * qubits + rounds))
    for shots in (1, 3, 100):
        _same_walk(rho, rounds, shots, seed=shots)


def test_level_walk_splits_under_chunk_bound(monkeypatch):
    # a small chunk leaves three-level subtrees under four levels walked node by node; the
    # three-level subtrees are label lookups, so spectra merge only in the tables, once per
    # walk, and at the fifteen nodes above them
    monkeypatch.setattr(pqec.purify, "CHUNK_BYTES", 2 ** 17)
    calls = []
    merge = pqec.montecarlo.merge_spectra
    monkeypatch.setattr(pqec.montecarlo, "merge_spectra",
                        lambda a, b, sign, overlap: calls.append(sign.shape)
                        or merge(a, b, sign, overlap))
    rho = random_density_matrix(1, np.random.default_rng(3))
    _same_walk(rho, 7, 100, seed=4)
    assert calls == [(2,), (8,), (128,)] + [(100,)] * (2 ** 4 - 1)


def test_unreachable_label_raises_as_the_merge_does():
    # a pure leaf's antisymmetric merge is unreachable: the table holds -1 for it, and a node
    # that draws it raises the error the merge raised
    vals = np.array([0.0, 1.0])
    tables = pqec.montecarlo.label_levels(vals)
    assert tables[1].label[0, 0].tolist() == [0, -1]
    zero = np.zeros(2, dtype=np.intp)
    with pytest.raises(DegenerateOutcomeError) as lookup:
        pqec.montecarlo._look_up(tables[1], tables[0], zero, zero, np.array([0.5, 1.0]))
    with pytest.raises(DegenerateOutcomeError) as merge:
        merge_spectra(np.stack([vals, vals]), np.stack([vals, vals]), np.array([1, -1]),
                      np.ones(2))
    assert str(lookup.value) == str(merge.value)


def test_stacked_merge_builds_at_most_chunk_bytes(monkeypatch):
    # the largest l=9 run the merge budget admits on one qubit stacks within CHUNK_BYTES
    peaks = []
    merge = pqec.montecarlo._merge_nodes

    def traced(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = merge(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(pqec.montecarlo, "_merge_nodes", traced)
    rho = make_channel(NoiseModel("local-depol", 0.01), 1)(density_from_pure(zero_state(1)))
    tracemalloc.start()
    try:
        sample_outcome_tree(rho, 9, np.random.default_rng(2), 1900)
    finally:
        tracemalloc.stop()
    assert len(peaks) < 2 ** 9 - 1
    assert 0 < max(peaks) <= pqec.purify.CHUNK_BYTES


def test_simulate_shots_leaves_no_garbage():
    # the walk holds no reference cycle, so a batch's arrays are freed without a gc pass
    rho = make_channel(NoiseModel("local-depol", 0.01), 1)(density_from_pure(zero_state(1)))
    rng = np.random.default_rng(6)
    gc.collect()
    gc.disable()
    try:
        simulate_shots(rho, Z, 6, 100, rng)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sample_observable_examples():
    rng = np.random.default_rng(5)
    assert sample_observable(density_from_pure(zero_state(1)), Z, rng) == 1.0
    draws = [sample_observable(maximally_mixed(1), Z, rng) for _ in range(4000)]
    assert np.mean(draws) == pytest.approx(0.0, abs=0.06)
    draws = [sample_observable(DIAG, Z, rng) for _ in range(4000)]
    assert np.mean(draws) == pytest.approx(0.6, abs=0.04)


def test_sample_observable_rejects_non_hermitian():
    rng = np.random.default_rng(6)
    with pytest.raises(ValidationError):
        sample_observable(DIAG, np.array([[0, 1], [0, 0]]), rng)


# ----------------------------------------------------------------------
# bulk simulation and end-to-end estimation
# ----------------------------------------------------------------------

def test_parity_frequencies_at_full_shot_count():
    # P(+1) = 0.84 for diag(0.8, 0.2) and 0.75 for I/2 at a single round
    shots = simulate_shots(DIAG, Z, 1, 100_000, np.random.default_rng(10))
    assert (1 + np.mean(shots[:, 0])) / 2 == pytest.approx(0.84, abs=0.004)
    shots = simulate_shots(maximally_mixed(1), Z, 1, 100_000,
                           np.random.default_rng(11))
    assert (1 + np.mean(shots[:, 0])) / 2 == pytest.approx(0.75, abs=0.005)


def test_simulate_shots_deterministic():
    a = simulate_shots(DIAG, Z, 2, 500, np.random.default_rng(42))
    b = simulate_shots(DIAG, Z, 2, 500, np.random.default_rng(42))
    assert np.array_equal(a, b)


def _per_branch_scan(rho, obs, rounds, n_shots, rng):
    """Enumeration-path oracle: every branch first, then one ``choice`` per shot."""
    vals, vecs = np.linalg.eigh(obs)
    records = np.empty((n_shots, 2))
    branches = enumerate_outcomes(rho, rounds)
    probs = branches.probability
    which = rng.choice(len(branches), size=n_shots, p=probs / probs.sum())
    for shot, k in enumerate(which):
        q = np.clip(np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, branches.state[k], vecs)),
                    0.0, None)
        records[shot] = branches.parity[k], vals[rng.choice(vals.size, p=q / q.sum())]
    return records


@pytest.mark.parametrize("seed", [0, 1, 97])
def test_enumeration_path_matches_per_branch_scan(seed):
    # the vectorized draw keeps the RNG stream of one scalar draw per shot, record for record
    cases = [(random_density_matrix(2, np.random.default_rng(seed)), pauli_matrix("ZX")),
             (density_from_pure(zero_state(1)), Z), (DIAG, Z)]
    for rho, obs in cases:
        for rounds in (0, 1, 2, 3):
            fast = simulate_shots(rho, obs, rounds, 3000, np.random.default_rng(seed))
            slow = _per_branch_scan(rho, obs, rounds, 3000, np.random.default_rng(seed))
            assert np.array_equal(fast, slow)


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_observable_draw_matches_per_branch_scan_at_three_qubits(p):
    # At p = 0 the target stays pure, so each level has one branch, and |000> has
    # probability 0 on six of the eight ZZX eigenvectors: its CDF has plateaus. At p = 0.3
    # every level holds many branches. The all-plus branch is the most probable of every
    # tree, so the other positions of the branch lookup are checked on their own below.
    rho = make_channel(NoiseModel("local-depol", p), 3)(density_from_pure(zero_state(3)))
    obs = pauli_matrix("ZZX")
    for rounds in (0, 1, 2, 3):
        fast = simulate_shots(rho, obs, rounds, 3000, np.random.default_rng(rounds))
        slow = _per_branch_scan(rho, obs, rounds, 3000, np.random.default_rng(rounds))
        assert np.array_equal(fast, slow)


@pytest.mark.parametrize("weights", [
    [1.0],                          # one branch
    [0.5, 0.2, 0.0, 0.3],           # the maximum first
    [0.1, 0.0, 0.2, 0.6, 0.1],      # in the middle
    [0.0, 0.2, 0.3, 0.5],           # last
    [0.1, 0.4, 0.1, 0.4],           # a tie for the maximum
    [1.0] * 7,                      # flat
])
def test_branch_draw_is_generator_choice(weights):
    # one-hot branch spectra measured in their own basis: a shot's outcome is its branch,
    # and its parity the branch's; seven branches give CDF rows of six steps
    k = len(weights)
    p = np.array(weights) / np.sum(weights)
    last = SpectralTree(np.eye(k), p, (-1) ** np.arange(k))
    tree = SamplingTree(1, np.diag(p), np.diag(np.arange(k, dtype=float)), np.eye(k),
                        np.arange(k, dtype=float), np.arange(k - 1), last, *branch_cdf(p))
    ours, theirs = np.random.default_rng(12), np.random.default_rng(12)
    records = np.empty((5000, 2), order="F")
    pqec.montecarlo._draw_from_tree(tree, records, ours)
    want = theirs.choice(k, size=5000, p=p / p.sum())
    theirs.random(5000)
    assert np.array_equal(records[:, 1], want)
    assert np.array_equal(records[:, 0], (-1.0) ** want)
    assert ours.random() == theirs.random()


# (M, l): the tree's draw up to l = 4 and the walk beyond, at l = 5..7 on label lookups
FROZEN_CASES = [(m, ell) for m in (1, 2, 3) for ell in range(8)]


@pytest.mark.parametrize("qubits, rounds", FROZEN_CASES)
def test_simulate_shots_draws_as_frozen_oracle(qubits, rounds):
    # every record and the generator's state after them match the 0.13.0 draw, with the tree
    # built per call or passed in; a Pauli string's CDF rows have one step, a random
    # Hermitian observable's 2**M - 1
    observables = (pauli_matrix("Z" + "X" * (qubits - 1)),
                   random_density_matrix(qubits, np.random.default_rng(50 + rounds)))
    for obs, p in itertools.product(observables, (0.0, 0.01, 0.3)):
        rho = make_channel(NoiseModel("local-depol", p), qubits)(
            density_from_pure(random_pure_state(qubits, np.random.default_rng(rounds))))
        tree = sampling_tree(rho, obs, rounds)
        for shots in (1, 2, 37, 5000):
            oracle_rng = np.random.default_rng(shots + rounds)
            want, _ = frozen_shot_records(rho, obs, rounds, shots, oracle_rng)
            after = oracle_rng.random()
            for given in (None, tree):
                rng = np.random.default_rng(shots + rounds)
                got = simulate_shots(rho, obs, rounds, shots, rng, given)
                assert np.array_equal(got, want), (p, shots, given is None)
                assert rng.random() == after


def test_tree_of_other_rounds_is_rejected():
    # a tree is read without rho or the observable, so its rounds must be the batch's
    rng = np.random.default_rng(0)
    for built, asked in ((2, 3), (3, 2), (4, 5), (5, 4), (6, 5)):
        with pytest.raises(ValidationError, match=f"built for {built} rounds, not {asked}"):
            simulate_shots(DIAG, Z, asked, 10, rng, sampling_tree(DIAG, Z, built))


def test_tree_of_another_state_or_observable_is_rejected():
    # a tree built for Z read as X's would estimate 0.0025 where X's own gives 0.998
    rho = make_channel(LOCAL, 1)(density_from_pure(plus_state(1)))
    x = pauli_matrix("X")
    rng = np.random.default_rng(0)
    for tree in (sampling_tree(rho, Z, 2), sampling_tree(DIAG, x, 2)):
        with pytest.raises(ValidationError, match="another state or observable"):
            simulate_shots(rho, x, 2, 20000, rng, tree)
    own = ratio_estimate(simulate_shots(rho, x, 2, 20000, rng, sampling_tree(rho, x, 2)))
    assert own.estimate == pytest.approx(0.998, abs=0.01)
    # the tree keeps copies: an argument changed in place after the build is caught
    tree, moved = sampling_tree(rho, x, 2), rho.copy()
    moved[0, 1] = 0.0
    with pytest.raises(ValidationError, match="another state or observable"):
        simulate_shots(moved, x, 2, 10, rng, tree)


@pytest.mark.parametrize("obs", [pauli_matrix("ZZX"), None], ids=["ZZX", "random"])
def test_branches_measured_in_chunks_draw_as_unchunked(monkeypatch, obs):
    # drawn branches are merged and measured a few rows at a time, with the bits and the
    # generator state of one chunk and of the frozen oracle
    rng = np.random.default_rng(21)
    if obs is None:
        obs = random_density_matrix(3, rng)
    rho = make_channel(NoiseModel("local-depol", 0.3), 3)(density_from_pure(zero_state(3)))
    tree = sampling_tree(rho, obs, 4)
    rng = np.random.default_rng(5)
    whole, after = simulate_shots(rho, obs, 4, 5000, rng, tree), rng.random()
    oracle_rng = np.random.default_rng(5)
    want, _ = frozen_shot_records(rho, obs, 4, 5000, oracle_rng)
    assert np.array_equal(whole, want) and oracle_rng.random() == after
    chunks = []
    measure = pqec.montecarlo._outcome_cdf

    def counting(spectra, *args):
        chunks.append(len(spectra))
        return measure(spectra, *args)

    monkeypatch.setattr(pqec.montecarlo, "_outcome_cdf", counting)
    monkeypatch.setattr(pqec.purify, "CHUNK_BYTES", 3 * 8 * 8)
    rng = np.random.default_rng(5)
    assert np.array_equal(simulate_shots(rho, obs, 4, 5000, rng, tree), whole)
    assert rng.random() == after
    assert len(chunks) > 1 and max(chunks) == 3


def test_draw_outside_the_top_branch_matches_frozen_oracle():
    # shots that all miss the most probable branch are searched alone; its CDF row is not read
    rho = make_channel(NoiseModel("local-depol", 0.3), 3)(density_from_pure(zero_state(3)))
    obs = pauli_matrix("ZZX")
    tree = sampling_tree(rho, obs, 4)
    top = int(np.argmax(tree.last.probability))
    missed = 0
    for seed in range(40):
        want, which = frozen_shot_records(rho, obs, 4, 3, np.random.default_rng(seed))
        missed += top not in which
        assert np.array_equal(simulate_shots(rho, obs, 4, 3, np.random.default_rng(seed), tree),
                              want)
    assert missed > 0


def test_enumeration_path_stream_is_pinned():
    # the benchmark's l=4 state: the branch draw (B_hat) is that of every version since
    # 0.2.0; the observables are drawn in shot order since 0.4.9
    rho = make_channel(NoiseModel("local-depol", 0.01), 1)(density_from_pure(zero_state(1)))
    res = ratio_estimate(simulate_shots(rho, Z, 4, 100_000, np.random.default_rng(1)))
    assert res.numerator_mean == 0.89912
    assert res.denominator_mean == 0.89916


def test_chunk_size_changes_no_enumeration_draw(monkeypatch):
    # overlaps in chunks of a few rows give the same tree and, up to l = 4, the same shots;
    # so do blocks of a few shots
    rng = np.random.default_rng(8)
    rho = random_density_matrix(2, rng)
    obs = pauli_matrix("ZX")
    whole = sampling_tree(rho, obs, 3).last
    shots = simulate_shots(rho, obs, 3, 5000, np.random.default_rng(3))
    monkeypatch.setattr("pqec.purify.CHUNK_BYTES", 3 * 8 * 4 * 8)
    chunked = sampling_tree(rho, obs, 3).last
    for field in ("level", "overlap", "probability", "parity", "merges"):
        assert np.array_equal(getattr(whole, field), getattr(chunked, field))
    assert np.array_equal(shots, simulate_shots(rho, obs, 3, 5000, np.random.default_rng(3)))
    walked = simulate_shots(rho, obs, 5, 50, np.random.default_rng(3))
    assert set(np.unique(walked)) <= {-1.0, 1.0}
    for block in (1, 7, 64):
        monkeypatch.setattr(pqec.montecarlo, "SHOT_BLOCK", block)
        assert np.array_equal(shots, simulate_shots(rho, obs, 3, 5000, np.random.default_rng(3)))
        res = ratio_estimate(shots)
        monkeypatch.undo()
        assert res == ratio_estimate(shots)
        monkeypatch.setattr("pqec.purify.CHUNK_BYTES", 3 * 8 * 4 * 8)


# (M, l, p): M = 1..5 at l = 0..4; p = 0 keeps the target pure, so antisymmetric merges of
# equal branches are unreachable. At M = 5, l = 4 only the pure target runs: the mixed one
# would hold 2**15 dense 32 x 32 branch states, 512 MiB, in the oracle.
LAZY_CASES = [(m, ell, p) for m in range(1, 6) for ell in range(5) for p in (0.0, 0.3)
              if (m, ell, p) != (5, 4, 0.3)]


@pytest.mark.parametrize("qubits, rounds, p", LAZY_CASES)
def test_sampling_tree_merges_lazily_as_enumerated(qubits, rounds, p):
    # the spectral tree's last level comes without spectra; its triples, probabilities,
    # parities and drawn states match the dense enumeration
    rho = make_channel(NoiseModel("dephasing", p), qubits)(
        density_from_pure(random_pure_state(qubits, np.random.default_rng(rounds))))
    obs = pauli_matrix("X" * qubits)
    sampler = sampling_tree(rho, obs, rounds)
    tree = sampler.last
    whole = enumerate_outcomes(rho, rounds)
    assert len(tree) == len(whole)
    if rounds:
        # a tree with every merge reachable stores no merge index
        assert (len(whole) < 2 ** (2 ** rounds - 1)) == (p == 0.0) == (tree.merges is not None)
        below = enumerate_outcomes(rho, rounds - 1).outcomes
        left, right, sign = tree.pairs(np.arange(len(tree)))
        strings = np.concatenate([below[left], below[right], sign[:, None]], axis=1)
        assert np.array_equal(strings, whole.outcomes)
    # parities are +-1, held in one byte each
    assert tree.parity.dtype == np.int8
    assert np.array_equal(tree.parity, whole.parity)
    assert np.max(np.abs(tree.probability / whole.probability - 1.0)) < 1e-12
    spectra = tree.spectra(np.arange(len(tree)))
    vecs = spectral_decomposition(rho)[1]
    assert np.max(np.abs(from_spectrum(spectra, vecs) - whole.state)) < 1e-13
    # a branch merges alone as it does among all the others
    rng = np.random.default_rng(qubits)
    drawn = np.unique(rng.choice(len(tree), size=300, p=tree.probability / tree.probability.sum()))
    assert np.array_equal(tree.spectra(drawn), spectra[drawn])
    # the whole sampler draws the same records from a tree it builds or is given
    given = simulate_shots(rho, obs, rounds, 2000, np.random.default_rng(rounds), sampler)
    assert np.array_equal(given, simulate_shots(rho, obs, rounds, 2000,
                                                np.random.default_rng(rounds)))


def test_benchmark_draw_merges_only_the_drawn_branches(monkeypatch):
    # the benchmark's l=4 draw lands on 207 of the 2**15 branches; only those merge
    merged = []
    merge = pqec.montecarlo.merge_spectra
    monkeypatch.setattr(pqec.montecarlo, "merge_spectra",
                        lambda a, b, sign, overlap: merged.append(len(sign))
                        or merge(a, b, sign, overlap))
    rho = make_channel(NoiseModel("local-depol", 0.01), 1)(density_from_pure(zero_state(1)))
    tree = sampling_tree(rho, Z, 4)
    # the three levels below the last hold 2, 8 and 128 spectra
    assert len(tree.last) == 2 ** 15 and merged == [2, 8, 128]
    merged.clear()
    simulate_shots(rho, Z, 4, 100_000, np.random.default_rng(1), tree)
    assert merged == [207]


def test_sampler_makes_no_dense_merge(monkeypatch):
    # the sampler works on eigenvalue vectors at every l; the dense gadget is only the oracle
    def refuse(*args):
        raise AssertionError("a dense merge or projection ran in the sampler")

    for name in ("swap_gadget", "project_to_density"):
        monkeypatch.setattr(pqec.purify, name, refuse)
        assert not hasattr(pqec.montecarlo, name)
    rho = random_density_matrix(2, np.random.default_rng(14))
    for rounds in range(7):
        records = simulate_shots(rho, pauli_matrix("ZX"), rounds, 500, np.random.default_rng(rounds))
        assert set(np.unique(records)) <= {-1.0, 1.0}


def test_simulate_shots_unbiased_components():
    # component means converge to the unnormalized power traces
    rng = np.random.default_rng(7)
    n = 1_000_000
    for rounds in (1, 2):
        shots = simulate_shots(DIAG, Z, rounds, n, rng)
        a_hat = np.mean(shots[:, 0] * shots[:, 1])
        b_hat = np.mean(shots[:, 0])
        n_power = 2 ** rounds
        expect_a = float(np.trace(Z @ np.linalg.matrix_power(DIAG, n_power)).real)
        expect_b = float(np.trace(np.linalg.matrix_power(DIAG, n_power)).real)
        # four-sigma windows from the bounded-variance estimates
        assert abs(a_hat - expect_a) < 4.0 / np.sqrt(n)
        assert abs(b_hat - expect_b) < 4.0 / np.sqrt(n)


def test_estimate_matches_exact_value():
    res = estimate_observable(DIAG, Z, 1, 1_000_000, seed=11)
    exact = extract_observable_exact(Z, DIAG, 1)
    assert exact == pytest.approx(0.6 / 0.68, abs=1e-12)
    assert abs(res.estimate - exact) < 3 * res.standard_error


def test_sequential_path_beyond_enumeration_limit():
    # rounds > 4 walks the shots of a batch together on eigenvalue vectors
    seq = simulate_shots(DIAG, Z, 5, 400, np.random.default_rng(9))
    assert seq.shape == (400, 2)
    assert set(np.unique(seq[:, 0])) <= {-1.0, 1.0}
    assert set(np.unique(seq[:, 1])) <= {-1.0, 1.0}
    res = ratio_estimate(seq)
    exact = extract_observable_exact(Z, DIAG, 5)
    assert abs(res.estimate - exact) < 4 * res.standard_error


def test_sampling_budget():
    # rounds, shots, batches of the benchmark's and the CLI's default runs
    for rounds, shots, batches in ((6, 100, 3), (4, 100_000, 1), (1, 100_000, 8),
                                   (4, MAX_SHOTS_PER_BATCH, 50), (5, MAX_SHOT_MERGES // 31, 1)):
        check_sampling_budget(rounds, shots, batches)
    for rounds, shots, batches in ((30, 100_000, 1), (1100, 2, 1), (10**9, 2, 1),
                                   (5, MAX_SHOT_MERGES // 31 + 1, 1), (6, 100, 200),
                                   (1, MAX_SHOTS_PER_BATCH + 1, 1)):
        with pytest.raises(ResourceLimitError):
            check_sampling_budget(rounds, shots, batches)
    # batches and shots in all count on every path; up to four rounds the spectral tree's
    # size does not grow with the register, so M = 6..8 fit as M = 5 does
    for qubits in (5, 6, 8):
        check_sampling_budget(4, 100_000, 1, qubits)
        check_sampling_budget(4, MAX_SHOTS_PER_BATCH, 1, qubits)
    check_sampling_budget(4, 2, MAX_BATCHES)
    for rounds, shots, batches, qubits in ((4, 2, MAX_BATCHES + 1, 1), (1, 2, 10**5, 1),
                                           (4, MAX_SHOTS_PER_BATCH, 51, 1),
                                           (2, MAX_RUN_SHOTS // 5000 + 1, 5000, 1),
                                           (4, 2, MAX_BATCHES + 1, 8)):
        with pytest.raises(ResourceLimitError):
            check_sampling_budget(rounds, shots, batches, qubits)
    # beyond four rounds a merge of two M-qubit spectra counts d/2 = 2**(M - 1) one-qubit
    # merges: (rounds, M, the most shots admitted), 1e6 // (2**rounds - 1) // 2**(M - 1)
    for rounds, qubits, largest in ((5, 2, 16129), (5, 4, 4032), (6, 5, 992), (5, 8, 252)):
        check_sampling_budget(rounds, largest, 1, qubits)
        with pytest.raises(ResourceLimitError, match="single-qubit spectrum merges"):
            check_sampling_budget(rounds, largest + 1, 1, qubits)
    check_sampling_budget(6, 500, 1, 5)
    for rounds, shots, batches, qubits in ((6, 1000, 1, 5), (6, 100, 3, 8)):
        with pytest.raises(ResourceLimitError):
            check_sampling_budget(rounds, shots, batches, qubits)


# ----------------------------------------------------------------------
# input checks and the dtype rule
# ----------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda rng: simulate_shots(DIAG, Z, -1, 10, rng),
    lambda rng: estimate_observable(DIAG, Z, -2, 10, rng),
    lambda rng: sweep(plus_state(1), LOCAL, [0.1], (0, -2), cycles=1),
    lambda rng: run_cycles(plus_state(1), LOCAL, -1, 1),
], ids=["simulate_shots", "estimate_observable", "sweep", "run_cycles"])
def test_negative_rounds_are_rejected(call):
    with pytest.raises(ValidationError, match=r"rounds must be >= 0, got -[12]$"):
        call(np.random.default_rng(0))


def test_observable_shape_is_checked_before_any_tree(monkeypatch):
    def no_tree(*args):
        raise AssertionError("a tree was built for a malformed observable")

    monkeypatch.setattr(pqec.montecarlo, "sampling_tree", no_tree)
    monkeypatch.setattr(pqec.montecarlo, "spectral_decomposition", no_tree)
    rho = maximally_mixed(2)
    for obs in (np.ones((4, 3)), Z, np.ones(4), np.ones((1, 4, 4))):
        for rounds in (0, 3, 5):
            with pytest.raises(ValidationError, match="observable shape"):
                simulate_shots(rho, obs, rounds, 10, np.random.default_rng(0))
            with pytest.raises(ValidationError, match="observable shape"):
                estimate_observable(rho, obs, rounds, 10, 0)
        with pytest.raises(ValidationError, match="observable shape"):
            extract_observable_exact(obs, rho, 1)


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_real_targets_stay_float64_through_the_sampler(qubits, monkeypatch):
    noisy = make_channel(NoiseModel("local-depol", 0.2), qubits)(
        density_from_pure(plus_state(qubits)))
    assert noisy.dtype == np.float64
    # the dense gadget keeps a real state real
    assert swap_gadget(noisy, noisy, 1)[0].dtype == np.float64
    assert swap_gadget(np.stack([noisy, noisy]), np.stack([noisy, noisy]),
                       np.array([1, -1]))[0].dtype == np.float64
    # the sampler's only basis is rho's eigenvectors: real for a real target, complex for
    # its cast; its spectra are float64 either way
    cast = noisy.astype(complex)
    obs = pauli_matrix("Z" * qubits)
    bases = []
    decompose = pqec.montecarlo.spectral_decomposition

    def recorded(rho):
        vals, vecs = decompose(rho)
        bases.append(vecs.dtype)
        return vals, vecs

    for rounds in range(7):
        with monkeypatch.context() as patch:
            patch.setattr(pqec.montecarlo, "spectral_decomposition", recorded)
            real, complex_ = sampling_tree(noisy, obs, rounds), sampling_tree(cast, obs, rounds)
        assert bases == [np.float64, np.complex128]
        bases.clear()
        assert real.weights.dtype == complex_.weights.dtype == np.float64
        if rounds <= 4:
            drawn = np.arange(0, len(real.last), 7)
            spectra = real.last.spectra(drawn), complex_.last.spectra(drawn)
            assert spectra[0].dtype == spectra[1].dtype == np.float64
        else:
            levels = real.labels + complex_.labels
            assert {level.spectra.dtype for level in levels} == {np.dtype(float)}
    measured, decomposed = [], []
    build = pqec.montecarlo.sampling_tree
    monkeypatch.setattr(pqec.montecarlo, "sampling_tree",
                        lambda rho, obs, rounds: measured.append(rho.dtype)
                        or build(rho, obs, rounds))
    spectral = pqec.purify.spectral_decomposition
    monkeypatch.setattr(pqec.purify, "spectral_decomposition",
                        lambda rho: decomposed.append(rho.dtype) or spectral(rho))
    for label in ("Z" * qubits, "Y" + "X" * (qubits - 1)):
        obs = pauli_matrix(label)
        assert obs.dtype == (complex if "Y" in label else float)
        for rounds in range(7):
            real_shots = simulate_shots(noisy, obs, rounds, 300, np.random.default_rng(rounds))
            assert np.array_equal(real_shots, simulate_shots(cast, obs, rounds, 300,
                                                             np.random.default_rng(rounds)))
            extract_observable_exact(obs, noisy, rounds)
    # real runs build their trees on float64 states and their complex casts on complex128
    # ones, and the matrix the exact value diagonalizes stays float64
    assert measured[0::2] == [np.float64] * 14 and measured[1::2] == [np.complex128] * 14
    assert decomposed == [np.float64] * 14
