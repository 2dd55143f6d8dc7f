import math

import numpy as np
import pytest

from pqec import (
    NoiseModel,
    ShotRecord,
    conditional_state,
    density_from_pure,
    enumerate_outcomes,
    estimate_observable,
    extract_observable_exact,
    make_channel,
    maximally_mixed,
    pauli_matrix,
    random_density_matrix,
    ratio_estimate,
    required_samples,
    sample_outcome_tree,
    simulate_shots,
    zero_state,
)
from pqec.montecarlo import MAX_BATCHES, MAX_RUN_SHOTS, MAX_SHOT_MERGES, MAX_SHOTS_PER_BATCH, \
    check_sampling_budget
from pqec.purify import check_observable
from pqec.states import ResourceLimitError, ValidationError

DIAG = np.diag([0.8, 0.2]).astype(complex)
Z = pauli_matrix("Z")


def sample_observable(state, obs, rng):
    """One projective measurement outcome: an eigenvalue of ``obs``.

    The eigenvalue is selected by index from the eigendecomposition, drawn
    with probability Tr(Pi_j rho).
    """
    vals, vecs = np.linalg.eigh(check_observable(obs))
    q = np.clip(np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, state, vecs)), 0.0, None)
    return float(vals[rng.choice(vals.size, p=q / q.sum())])


# ----------------------------------------------------------------------
# ratio estimator
# ----------------------------------------------------------------------

def test_ratio_estimate_constant_shots():
    res = ratio_estimate([ShotRecord(1, 1.0)] * 100)
    assert res.estimate == pytest.approx(1.0)
    assert res.standard_error == pytest.approx(0.0)
    assert not res.unstable_denominator


def test_ratio_estimate_component_means():
    shots = [ShotRecord(1, 1.0), ShotRecord(-1, 1.0), ShotRecord(1, -1.0),
             ShotRecord(1, 1.0)]
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


def test_ratio_estimate_needs_two_shots():
    with pytest.raises(ValidationError):
        ratio_estimate([ShotRecord(1, 1.0)])


def test_required_samples_examples():
    assert required_samples(0.01, 1.0) == 10000
    assert required_samples(0.01, 0.68) == 21627
    assert required_samples(0.1, 0.5) == 400
    with pytest.raises(ValidationError):
        required_samples(0.0, 0.5)
    with pytest.raises(ValidationError):
        required_samples(0.1, 0.0)


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
    rng = np.random.default_rng(2)
    n = 20000
    plus = sum(sample_outcome_tree(DIAG, 1, rng).outcomes[0, 0] == 1 for _ in range(n))
    assert plus / n == pytest.approx(0.84, abs=0.01)


def test_sample_outcome_tree_mixed_state_frequency():
    rng = np.random.default_rng(3)
    n = 20000
    plus = sum(sample_outcome_tree(maximally_mixed(1), 1, rng).outcomes[0, 0] == 1
               for _ in range(n))
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
    """Enumeration-path oracle: one scan of all shots for every branch."""
    vals, vecs = np.linalg.eigh(obs)
    records = np.empty((n_shots, 2))
    branches = enumerate_outcomes(rho, rounds)
    probs = branches.probability
    which = rng.choice(len(branches), size=n_shots, p=probs / probs.sum())
    for k in range(len(branches)):
        sel = np.flatnonzero(which == k)
        if sel.size == 0:
            continue
        q = np.clip(np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, branches.state[k], vecs)),
                    0.0, None)
        draws = rng.choice(vals.size, size=sel.size, p=q / q.sum())
        records[sel, 0] = branches.parity[k]
        records[sel, 1] = vals[draws]
    return records


@pytest.mark.parametrize("seed", [0, 1, 97])
def test_enumeration_path_matches_per_branch_scan(seed):
    # grouping shots by branch must keep the RNG stream record for record
    cases = [(random_density_matrix(2, np.random.default_rng(seed)), pauli_matrix("ZX")),
             (density_from_pure(zero_state(1)), Z), (DIAG, Z)]
    for rho, obs in cases:
        for rounds in (0, 1, 2, 3):
            fast = simulate_shots(rho, obs, rounds, 3000, np.random.default_rng(seed))
            slow = _per_branch_scan(rho, obs, rounds, 3000, np.random.default_rng(seed))
            assert np.array_equal(fast, slow)


def test_enumeration_path_stream_is_pinned():
    # the benchmark's l=4 state: these are the values every version since 0.2.0 draws
    rho = make_channel(NoiseModel("local-depol", 0.01), 1)(density_from_pure(zero_state(1)))
    res = ratio_estimate(simulate_shots(rho, Z, 4, 100_000, np.random.default_rng(1)))
    assert res.numerator_mean == 0.89904
    assert res.denominator_mean == 0.89916


def test_chunk_size_changes_no_enumeration_draw(monkeypatch):
    # chunks of a few matrices give the same tree and, up to l = 4, the same shots
    rng = np.random.default_rng(8)
    rho = random_density_matrix(2, rng)
    obs = pauli_matrix("ZX")
    whole = enumerate_outcomes(rho, 3)
    shots = simulate_shots(rho, obs, 3, 5000, np.random.default_rng(3))
    monkeypatch.setattr("pqec.purify.CHUNK_BYTES", 3 * 16 * 4 * 4)
    chunked = enumerate_outcomes(rho, 3)
    for field in ("state", "probability", "parity", "outcomes"):
        assert np.array_equal(getattr(whole, field), getattr(chunked, field))
    assert np.array_equal(shots, simulate_shots(rho, obs, 3, 5000, np.random.default_rng(3)))
    walked = simulate_shots(rho, obs, 5, 50, np.random.default_rng(3))
    assert set(np.unique(walked)) <= {-1.0, 1.0}


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
    # rounds > 4 falls back to the per-shot sampler
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
    # batches and shots in all count on every path, and so does the enumerated
    # tree's register size: four rounds fit M = 5 but not M = 6
    check_sampling_budget(4, 100_000, 1, 5)
    check_sampling_budget(4, 2, MAX_BATCHES)
    for rounds, shots, batches, qubits in ((4, 2, MAX_BATCHES + 1, 1), (1, 2, 10**5, 1),
                                           (4, MAX_SHOTS_PER_BATCH, 51, 1),
                                           (2, MAX_RUN_SHOTS // 5000 + 1, 5000, 1),
                                           (4, 2, 1, 6), (4, 2, 1, 8)):
        with pytest.raises(ResourceLimitError):
            check_sampling_budget(rounds, shots, batches, qubits)
    # beyond four rounds a merge on M qubits counts 4**(M - 1) single-qubit merges
    check_sampling_budget(5, MAX_SHOT_MERGES // 31 // 64, 1, 4)
    for rounds, shots, batches, qubits in ((5, MAX_SHOT_MERGES // 31 // 4 + 1, 1, 2),
                                           (5, MAX_SHOT_MERGES // 31, 1, 4), (6, 100, 3, 8)):
        with pytest.raises(ResourceLimitError):
            check_sampling_budget(rounds, shots, batches, qubits)
