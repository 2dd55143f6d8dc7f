import itertools
import math

import numpy as np
import pytest

from pqec import (
    DegenerateOutcomeError,
    NoiseModel,
    density_from_pure,
    extract_observable_exact,
    fidelity,
    make_channel,
    pauli_matrix,
    plus_state,
    purified_state,
    purified_weights,
    purity,
    swap_gadget,
    werner_fidelity_update,
    zero_state,
)
from pqec import purify
from pqec.purify import merge_spectra, spectra_overlap
from pqec.states import ValidationError, spectral_decomposition
from oracles import anisotropic_qubit_purify_fidelity, bloch_compose, bloch_purify, \
    conditional_state, conditional_state_two_rounds, enumerate_outcomes, fidelity_bounds, \
    maximally_mixed, parity_weighted_sum, plain_sum_check, random_density_matrix, \
    random_pure_state, werner_mixing, werner_state


DIAG = np.diag([0.8, 0.2]).astype(complex)


# ----------------------------------------------------------------------
# gadget
# ----------------------------------------------------------------------

def test_gadget_identical_pure_inputs():
    rho = density_from_pure(zero_state(1))
    out, prob = swap_gadget(rho, rho, +1)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out - rho)) < 1e-12


def test_gadget_mixed_inputs():
    out, prob = swap_gadget(DIAG, DIAG, +1)
    assert prob == pytest.approx(0.84, abs=1e-12)
    assert np.allclose(np.diag(out).real, [6 / 7, 1 / 7], atol=1e-12)

    out, prob = swap_gadget(DIAG, DIAG, -1)
    assert prob == pytest.approx(0.16, abs=1e-12)
    assert np.allclose(out, maximally_mixed(1), atol=1e-12)


def _swap_operator(qubits):
    # permutation construction: |i>|j> -> |j>|i>
    d = 2 ** qubits
    op = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            op[j * d + i, i * d + j] = 1.0
    return op


def _trace_out_second(mat, d):
    return mat.reshape(d, d, d, d).trace(axis1=1, axis2=3)


def test_swap_operator_pauli_form():
    # the two-qubit swap is (II + XX + YY + ZZ)/2, tensored per qubit pair
    single = sum(np.kron(pauli_matrix(c), pauli_matrix(c))
                 for c in "IXYZ") / 2
    assert np.max(np.abs(_swap_operator(1) - single)) < 1e-14
    # reorder (A1 A2 B1 B2) -> (A1 B1 A2 B2) to compare the M=2 operator
    two = np.kron(single, single).reshape((2,) * 8)
    two = two.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
    assert np.max(np.abs(_swap_operator(2) - two)) < 1e-14


def test_gadget_matches_projector_route():
    # independent derivation: project two registers onto the (anti)symmetric
    # subspace, discard the second, renormalize
    rng = np.random.default_rng(21)
    for qubits in (1, 2):
        d = 2 ** qubits
        swap = _swap_operator(qubits)
        eye = np.eye(d * d)
        rho_a = random_density_matrix(qubits, rng)
        rho_b = random_density_matrix(qubits, rng)
        joint = np.kron(rho_a, rho_b)
        for sign in (1, -1):
            proj = (eye + sign * swap) / 2
            projected = proj @ joint @ proj
            prob_ref = float(np.real(np.trace(projected)))
            state_ref = _trace_out_second(projected, d) / prob_ref
            state, prob = swap_gadget(rho_a, rho_b, sign)
            assert prob == pytest.approx(prob_ref, abs=1e-12)
            assert np.max(np.abs(state - state_ref)) < 1e-12


def test_swap_projectors_commute_with_bilateral_unitaries():
    rng = np.random.default_rng(22)
    for qubits in (1, 2):
        d = 2 ** qubits
        swap = _swap_operator(qubits)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u, _ = np.linalg.qr(g)
        bilateral = np.kron(u, u)
        for sign in (1, -1):
            proj = (np.eye(d * d) + sign * swap) / 2
            comm = proj @ bilateral - bilateral @ proj
            assert np.max(np.abs(comm)) < 1e-13


def test_gadget_degenerate_branch():
    rho = density_from_pure(plus_state(1))
    with pytest.raises(DegenerateOutcomeError):
        swap_gadget(rho, rho, -1)


def test_spectral_merge_rejects_unreachable_branch_like_the_gadget():
    # identical pure spectra: the antisymmetric merge is unreachable on either form
    pure = np.array([[0.0, 1.0], [0.3, 0.7]])
    overlap = spectra_overlap(pure, pure)
    merged, prob = merge_spectra(pure, pure, np.array([1, -1]), overlap)
    assert prob[0] == 1.0 and np.array_equal(merged[0], [0.0, 1.0])
    with pytest.raises(DegenerateOutcomeError, match="sign -1"):
        merge_spectra(pure, pure, np.array([-1, 1]), overlap)


def test_stacked_gadget_matches_per_pair_calls():
    # one call over a stack of pairs, signs mixed, is bit for bit the per-pair calls
    rng = np.random.default_rng(23)
    for qubits in (1, 2, 3):
        rho_a = np.stack([random_density_matrix(qubits, rng) for _ in range(9)])
        rho_b = np.stack([random_density_matrix(qubits, rng) for _ in range(9)])
        signs = rng.choice([1, -1], size=9)
        states, probs = swap_gadget(rho_a, rho_b, signs)
        assert states.shape == rho_a.shape and probs.shape == (9,)
        for k in range(9):
            state, prob = swap_gadget(rho_a[k], rho_b[k], int(signs[k]))
            assert np.array_equal(states[k], state)
            assert probs[k] == prob


def test_stacked_gadget_rejects_any_unreachable_pair():
    rng = np.random.default_rng(24)
    pure = density_from_pure(plus_state(1))
    rho_a = np.stack([random_density_matrix(1, rng), pure, random_density_matrix(1, rng)])
    rho_b = np.stack([random_density_matrix(1, rng), pure, random_density_matrix(1, rng)])
    swap_gadget(rho_a, rho_b, np.array([1, 1, -1]))
    with pytest.raises(DegenerateOutcomeError):
        swap_gadget(rho_a, rho_b, np.array([1, -1, 1]))


def test_gadget_shape_and_sign_validation():
    with pytest.raises(ValidationError):
        swap_gadget(maximally_mixed(1), maximally_mixed(2), +1)
    with pytest.raises(ValidationError):
        swap_gadget(DIAG, DIAG, 0)


# ----------------------------------------------------------------------
# conditional states and the outcome tree
# ----------------------------------------------------------------------

def test_conditional_state_single_round():
    branch = conditional_state(DIAG, (1,))
    assert len(branch) == 1
    assert branch.probability[0] == pytest.approx(0.84, abs=1e-12)
    assert branch.parity[0] == 1
    assert np.allclose(np.diag(branch.state[0]).real, [6 / 7, 1 / 7], atol=1e-12)


def test_conditional_state_pure_input():
    rho = density_from_pure(zero_state(1))
    branch = conditional_state(rho, (1,))
    assert branch.probability == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(branch.state - rho)) < 1e-12


def test_conditional_state_matches_two_round_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(5):
        rho = random_density_matrix(1, rng)
        for signs in [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]:
            rec = conditional_state(rho, signs)
            direct = conditional_state_two_rounds(rho, signs)
            assert np.max(np.abs(rec.state - direct.state)) < 1e-10
            assert rec.probability == pytest.approx(direct.probability, abs=1e-12)
            assert rec.parity == direct.parity


def test_conditional_state_rejects_bad_strings():
    with pytest.raises(ValidationError):
        conditional_state(DIAG, (1, 1))  # length 2 is not 2**rounds - 1
    with pytest.raises(ValidationError):
        conditional_state(DIAG, (2,))


def test_enumerate_skips_unreachable_branches():
    rho = density_from_pure(zero_state(1))
    branches = enumerate_outcomes(rho, 2)
    assert len(branches) == 1
    assert branches.outcomes.tolist() == [[1, 1, 1]]
    assert branches.probability[0] == pytest.approx(1.0, abs=1e-12)


def _reachable_strings(rho, rounds):
    """Every sign string, + before -, that ``conditional_state`` evaluates: no node unreachable."""
    strings = []
    for string in itertools.product((1, -1), repeat=2 ** rounds - 1):
        try:
            conditional_state(rho, string)
        except DegenerateOutcomeError:
            continue
        strings.append(string)
    return np.array(strings, dtype=np.int8)


def _check_against_fixed_strings(rho, rounds):
    branches = enumerate_outcomes(rho, rounds)
    assert np.array_equal(branches.outcomes, _reachable_strings(rho, rounds))
    fixed = conditional_state(rho, branches.outcomes)
    for field in ("state", "probability", "parity"):
        assert np.array_equal(getattr(branches, field), getattr(fixed, field)), field
    return branches


def test_enumeration_matches_per_pair_merges():
    # the per-pair enumeration lists every string the fixed-string evaluator reaches, in
    # order, and each branch bit for bit as that evaluator's one stacked call per node
    rng = np.random.default_rng(25)
    cases = [(random_density_matrix(m, rng), 3) for m in (1, 2, 3)]
    cases.append((make_channel(NoiseModel("local-depol", 0.3), 2)(
        density_from_pure(plus_state(2))), 2))
    cases.append((density_from_pure(zero_state(1)), 3))
    for rho, rounds in cases:
        # the fixed-string evaluator runs in complex128
        _check_against_fixed_strings(rho.astype(complex), rounds)


@pytest.mark.parametrize("qubits", [4, 5])
def test_enumeration_matches_per_pair_merges_on_large_registers(qubits):
    # the elementwise overlap sums a 16x16 and 32x32 pair the same way alone or stacked
    rho = random_density_matrix(qubits, np.random.default_rng(26 + qubits))
    assert len(_check_against_fixed_strings(rho, 2)) == 8


def test_parity_weighted_sum_single_round():
    mat, tr = parity_weighted_sum(DIAG, 1)
    assert np.allclose(mat, np.diag([0.64, 0.04]), atol=1e-12)
    assert tr == pytest.approx(0.68, abs=1e-12)


def test_parity_weighted_sum_matches_spectral():
    rng = np.random.default_rng(1)
    rho = random_density_matrix(2, rng)
    mat, _ = parity_weighted_sum(rho, 2)
    assert np.max(np.abs(mat - np.linalg.matrix_power(rho, 4))) < 1e-9


def test_parity_weighted_sum_pure_state():
    rho = density_from_pure(plus_state(1))
    mat, tr = parity_weighted_sum(rho, 2)
    assert np.max(np.abs(mat - rho)) < 1e-10
    assert tr == pytest.approx(1.0, abs=1e-10)


def test_plain_sum_examples():
    rng = np.random.default_rng(2)
    assert plain_sum_check(random_density_matrix(1, rng), 1) < 1e-12
    assert plain_sum_check(random_density_matrix(1, rng), 2) < 1e-10
    assert plain_sum_check(maximally_mixed(1), 3) < 1e-12


# ----------------------------------------------------------------------
# exact purification
# ----------------------------------------------------------------------

def test_purified_state_examples():
    out = purified_state(DIAG, 1)
    assert np.allclose(np.diag(out).real, [0.64 / 0.68, 0.04 / 0.68], atol=1e-12)

    assert np.allclose(purified_state(maximally_mixed(2), 4), maximally_mixed(2),
                       atol=1e-12)
    rho = density_from_pure(plus_state(1))
    assert np.max(np.abs(purified_state(rho, 6) - rho)) < 1e-12
    assert purified_state(DIAG, 0) is not None
    assert np.allclose(purified_state(DIAG, 0), DIAG)


def test_purified_state_stacks_and_negative_rounds():
    # a stack purifies matrix by matrix
    rng = np.random.default_rng(10)
    stack = np.stack([random_density_matrix(2, rng) for _ in range(4)])
    for r in (0, 1, 3, 70):
        out = purified_state(stack, r)
        assert out.shape == stack.shape
        for b, rho in enumerate(stack):
            assert np.array_equal(out[b], purified_state(rho, r))
    with pytest.raises(ValidationError, match="-2"):
        purified_state(stack, -2)


# float64 rounding of two d-term sums, set before the test first ran
SPECTRAL_FIDELITY_TOL = 1e-14


def spectral_fidelity(weights, vecs, psi):
    """sum_i w_i |<v_i|psi>|^2, as the cycle engine reads a purified fidelity."""
    amplitudes = psi.conj() @ vecs
    return (weights * (amplitudes.real ** 2 + amplitudes.imag ** 2)).sum(axis=-1)


@pytest.mark.parametrize("qubits", range(1, 6))
def test_spectral_fidelity_matches_purified_matrix(monkeypatch, qubits):
    rng = np.random.default_rng(40 + qubits)
    psi = random_pure_state(qubits, rng)
    noisy = make_channel(NoiseModel("local-depol", 0.2), qubits)(density_from_pure(psi))
    stack = np.stack([noisy] + [random_density_matrix(qubits, rng) for _ in range(3)])
    vals, vecs = spectral_decomposition(stack)
    for r in (1, 2, 5, 64, 1100):
        spectral = spectral_fidelity(purified_weights(vals, r), vecs, psi)
        assert spectral.shape == (len(stack),)
        for b, rho in enumerate(stack):
            assert abs(spectral[b] - fidelity(purified_state(rho, r), psi)) < SPECTRAL_FIDELITY_TOL
            # one matrix alone gives the bits of its row of the stack
            alone, alone_vecs = spectral_decomposition(rho)
            assert spectral_fidelity(purified_weights(alone, r), alone_vecs, psi) == spectral[b]
    # zero rounds leave the input unpurified: nothing is decomposed
    monkeypatch.setattr(purify, "spectral_decomposition", None)
    assert purified_state(stack, 0) is stack


def test_purity_monotone():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = random_density_matrix(2, rng)
        assert purity(purified_state(rho, 1)) >= purity(rho) - 1e-12
    # equality on flat spectra only
    flat = maximally_mixed(2)
    assert purity(purified_state(flat, 1)) == pytest.approx(purity(flat), abs=1e-10)


def test_eigenvalue_ratio_squares():
    rng = np.random.default_rng(4)
    rho = random_density_matrix(2, rng)
    before = np.linalg.eigvalsh(rho)
    after = np.linalg.eigvalsh(purified_state(rho, 1))
    ratio_before = before[-1] / before[-2]
    ratio_after = after[-1] / after[-2]
    assert ratio_after == pytest.approx(ratio_before ** 2, rel=1e-9)


def test_purified_weights_take_a_spectrum_in_any_order():
    # an ascending spectrum keeps the bits of dividing by its last entry; a
    # permuted one, such as a diagonal, gives the permuted weights
    rng = np.random.default_rng(6)
    vals = np.sort(rng.dirichlet(np.full(8, 0.5), size=(3, 2)), axis=-1)
    order = rng.permutation(8)
    for rounds in (0, 1, 3, 64, 1000):
        ascending = purified_weights(vals, rounds)
        power = float(2 ** min(rounds, 64))
        last = (vals / vals[..., -1:]) ** power
        assert np.array_equal(ascending, last / last.sum(axis=-1, keepdims=True))
        assert np.max(np.abs(purified_weights(vals[..., order], rounds)
                             - ascending[..., order])) <= 1e-15, rounds


def test_purification_preserves_eigenvectors():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(2, rng)
    vals, vecs = np.linalg.eigh(rho)
    out = purified_state(rho, 2)
    for i in range(4):
        v = vecs[:, i]
        w = out @ v
        # v must remain an eigenvector: residual orthogonal component vanishes
        residual = w - (v.conj() @ w) * v
        assert np.linalg.norm(residual) < 1e-8


def test_bilateral_unitary_commutation():
    rng = np.random.default_rng(6)
    rho = random_density_matrix(2, rng)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(g)
    a = purified_state(u @ rho @ u.conj().T, 3)
    b = u @ purified_state(rho, 3) @ u.conj().T
    assert np.max(np.abs(a - b)) < 1e-9


# ----------------------------------------------------------------------
# observable extraction
# ----------------------------------------------------------------------

def test_extract_observable_examples():
    z = pauli_matrix("Z")
    assert extract_observable_exact(z, DIAG, 1) == pytest.approx(0.6 / 0.68, abs=1e-12)
    assert extract_observable_exact(np.eye(2), DIAG, 3) == pytest.approx(1.0, abs=1e-12)
    assert extract_observable_exact(z, maximally_mixed(1), 2) == pytest.approx(0.0, abs=1e-12)


def test_extract_observable_matches_outcome_sum():
    rng = np.random.default_rng(7)
    z = pauli_matrix("Z")
    rho = random_density_matrix(1, rng)
    for rounds in (1, 2, 3):
        branches = enumerate_outcomes(rho, rounds)
        weights = branches.probability * branches.parity
        values = np.real(np.trace(z @ branches.state, axis1=1, axis2=2))
        num = float(np.sum(weights * values))
        den = float(np.sum(weights))
        assert extract_observable_exact(z, rho, rounds) == pytest.approx(
            num / den, abs=1e-9)


def test_extract_observable_converges_at_huge_rounds():
    # 2**1100 is beyond the float range; the powered spectrum has converged,
    # and 2**(10**9) is never built
    z = pauli_matrix("Z")
    for rounds in (1100, 10**9):
        assert extract_observable_exact(z, DIAG, rounds) == extract_observable_exact(z, DIAG, 64)


def test_extract_observable_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        extract_observable_exact(np.array([[0, 1], [0, 0]]), DIAG, 1)


def test_extract_observable_rejects_negative_rounds():
    with pytest.raises(ValidationError, match="-1"):
        extract_observable_exact(pauli_matrix("Z"), DIAG, -1)


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------

def test_bloch_purify_examples():
    assert np.allclose(bloch_purify([0, 0, 0.5]), [0, 0, 0.8])
    assert np.allclose(bloch_purify([0, 0, 1.0]), [0, 0, 1.0])
    assert np.allclose(bloch_purify([0, 0, 0]), [0, 0, 0])


def test_bloch_purify_direction_preserved():
    rng = np.random.default_rng(8)
    for _ in range(10):
        r = rng.normal(size=3)
        r *= rng.uniform(0.05, 0.95) / np.linalg.norm(r)
        out = bloch_purify(r)
        assert np.allclose(out / np.linalg.norm(out), r / np.linalg.norm(r), atol=1e-12)
        assert np.linalg.norm(out) > np.linalg.norm(r)


def test_bloch_purify_matches_matrix_map():
    rng = np.random.default_rng(9)
    for _ in range(10):
        r = rng.normal(size=3)
        r *= rng.uniform(0.05, 0.95) / np.linalg.norm(r)
        via_matrix = purified_state(bloch_compose(r), 1)
        assert np.max(np.abs(via_matrix - bloch_compose(bloch_purify(r)))) < 1e-12


def test_werner_fidelity_update_examples():
    assert werner_fidelity_update(0.8, 2) == pytest.approx(0.941176, abs=1e-6)
    for dim in (2, 4, 16):
        assert werner_fidelity_update(1 / dim, dim) == pytest.approx(1 / dim, abs=1e-14)
    assert werner_fidelity_update(0.5, 4) == pytest.approx(0.75, abs=1e-12)


def test_werner_update_parameterizations_agree():
    # the mixing-parameter update and the fidelity update describe the same map
    from oracles import werner_fidelity, werner_mixing_update
    for dim in (2, 4, 16, 256):
        for mix in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            via_mix = werner_fidelity(werner_mixing_update(mix, dim), dim)
            via_fid = werner_fidelity_update(werner_fidelity(mix, dim), dim)
            assert via_mix == pytest.approx(via_fid, abs=1e-12)


def test_werner_closure_through_gadget_pipeline():
    rng = np.random.default_rng(10)
    psi = random_pure_state(2, rng)
    for fid in (0.4, 0.6, 0.9):
        rho = werner_state(werner_mixing(fid, 4), psi)
        out = purified_state(rho, 1)
        assert fidelity(out, psi) == pytest.approx(
            werner_fidelity_update(fid, 4), abs=1e-10)


def test_werner_monotone_convergence():
    for dim in (2, 4, 16):
        fid = 1 / dim + 0.05
        prev = fid
        for _ in range(60):
            fid = werner_fidelity_update(fid, dim)
            assert fid >= prev - 1e-15
            prev = fid
        assert fid == pytest.approx(1.0, abs=1e-9)
        # quadratic local rate near 1
        eps = 1e-3
        drop = 1.0 - werner_fidelity_update(1.0 - eps, dim)
        assert drop == pytest.approx(eps ** 2 / (dim - 1), rel=0.01)


def test_fidelity_bounds_examples():
    plus = plus_state(1)
    pure = density_from_pure(plus)
    assert fidelity_bounds(pure, plus) == (pytest.approx(1.0), pytest.approx(1.0))

    rho = 0.6 * pure + 0.4 * maximally_mixed(1)
    lo, hi = fidelity_bounds(rho, plus)
    assert lo == pytest.approx(0.941176, abs=1e-6)
    assert hi == pytest.approx(1.0)

    lo, hi = fidelity_bounds(maximally_mixed(1), zero_state(1))
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(1.0)


def test_fidelity_bounds_contain_purified_fidelity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        psi = random_pure_state(1, rng)
        rho = random_density_matrix(1, rng)
        lo, hi = fidelity_bounds(rho, psi)
        actual = fidelity(purified_state(rho, 1), psi)
        assert lo - 1e-10 <= actual <= hi + 1e-10


def test_anisotropic_closed_forms():
    f_in, f_out = anisotropic_qubit_purify_fidelity(math.pi / 2, 0.3)
    assert f_in == pytest.approx(0.7, abs=1e-12)
    assert f_out == pytest.approx(0.844828, abs=1e-6)
    assert anisotropic_qubit_purify_fidelity(0.0, 0.4) == (pytest.approx(1.0),
                                                           pytest.approx(1.0))
    assert anisotropic_qubit_purify_fidelity(math.pi / 2, 0.0) == (pytest.approx(1.0),
                                                                   pytest.approx(1.0))


def test_anisotropic_matches_generic_pipeline():
    for theta in (0.3, math.pi / 3, math.pi / 2):
        for p in (0.05, 0.2, 0.45):
            target = np.array([math.sin(theta), 0.0, math.cos(theta)])
            psi = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
            noisy = make_channel(NoiseModel("dephasing", p), 1)(bloch_compose(target))
            f_in, f_out = anisotropic_qubit_purify_fidelity(theta, p)
            assert fidelity(noisy, psi) == pytest.approx(f_in, abs=1e-12)
            assert fidelity(purified_state(noisy, 1), psi) == pytest.approx(
                f_out, abs=1e-12)


def test_small_error_cancellation_single_state():
    # one-round purification removes the first-order infidelity
    rng = np.random.default_rng(12)
    psi = random_pure_state(2, rng)
    rho0 = density_from_pure(psi)
    p = 1e-3
    noisy = make_channel(NoiseModel("local-depol", p), 2)(rho0)
    assert 1 - fidelity(noisy, psi) > p  # first order present
    assert 1 - fidelity(purified_state(noisy, 1), psi) < 20 * p * p  # removed
