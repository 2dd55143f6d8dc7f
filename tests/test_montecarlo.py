import numpy as np
import pytest

from pqec import (
    ShotRecord,
    density_from_pure,
    enumerate_outcomes,
    estimate_observable,
    extract_observable_exact,
    maximally_mixed,
    pauli_matrix,
    ratio_estimate,
    required_samples,
    sample_observable,
    sample_outcome_tree,
    simulate_shots,
    zero_state,
)
from pqec.montecarlo import MAX_SHOT_MERGES, MAX_SHOTS_PER_BATCH, check_sampling_budget
from pqec.states import ResourceLimitError, ValidationError

DIAG = np.diag([0.8, 0.2]).astype(complex)
Z = pauli_matrix("Z")


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
        outs, branch = sample_outcome_tree(rho, 2, rng)
        assert np.all(outs == 1)
        assert branch.parity == 1


def test_sample_outcome_tree_single_round_frequency():
    rng = np.random.default_rng(2)
    n = 20000
    plus = sum(sample_outcome_tree(DIAG, 1, rng)[0][0] == 1 for _ in range(n))
    assert plus / n == pytest.approx(0.84, abs=0.01)


def test_sample_outcome_tree_mixed_state_frequency():
    rng = np.random.default_rng(3)
    n = 20000
    plus = sum(sample_outcome_tree(maximally_mixed(1), 1, rng)[0][0] == 1
               for _ in range(n))
    assert plus / n == pytest.approx(0.75, abs=0.011)


def test_sample_outcome_tree_chi_square():
    # node-by-node draws must reproduce the product distribution over strings
    rng = np.random.default_rng(4)
    branches = enumerate_outcomes(DIAG, 2)
    probs = {b.outcomes: b.probability for b in branches}
    n = 20000
    counts = {key: 0 for key in probs}
    for _ in range(n):
        outs, _ = sample_outcome_tree(DIAG, 2, rng)
        counts[tuple(outs)] += 1
    chi2 = sum((counts[k] - n * p) ** 2 / (n * p) for k, p in probs.items())
    assert chi2 < 26.1  # 99.9% quantile at 7 degrees of freedom


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
