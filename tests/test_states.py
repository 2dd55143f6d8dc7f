import functools
import itertools

import numpy as np
import pytest

from pqec import (
    ResourceLimitError,
    ValidationError,
    bloch_state,
    check_pure_state,
    density_from_pure,
    fidelity,
    pauli_matrix,
    plus_state,
    purified_state,
    purity,
    zero_state,
)
from pqec.states import PAULIS, project_to_density, spectral_decomposition
from oracles import bloch_compose, bloch_decompose, check_density_matrix, from_pauli_basis, \
    maximally_mixed, pauli_expand, pauli_weight, pauli_weight_distribution, \
    random_density_matrix, random_pure_state, to_pauli_basis, werner_fidelity, werner_state


def haar_unitary(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_density_from_pure_basis():
    assert np.allclose(density_from_pure(zero_state(1)), np.diag([1, 0]))


def test_density_from_pure_plus():
    assert np.allclose(density_from_pure(plus_state(1)), np.full((2, 2), 0.5))


def test_density_from_pure_random_purity():
    rng = np.random.default_rng(3)
    rho = density_from_pure(random_pure_state(3, rng))
    assert abs(purity(rho) - 1.0) < 1e-12


def test_density_from_pure_rejects_unnormalized():
    with pytest.raises(ValidationError):
        density_from_pure(np.array([1.0, 1.0]))


def test_check_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        check_density_matrix(np.array([[0.5, 0.3], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        check_density_matrix(np.diag([0.8, 0.8]))  # trace 1.6
    with pytest.raises(ValidationError):
        check_density_matrix(np.diag([1.2, -0.2]))  # negative eigenvalue
    with pytest.raises(ValidationError):
        check_density_matrix(np.eye(3) / 3)  # not a power of two


# ----------------------------------------------------------------------
# fidelity and purity
# ----------------------------------------------------------------------

def test_fidelity_examples():
    zero = zero_state(1)
    assert fidelity(density_from_pure(zero), zero) == pytest.approx(1.0)
    assert fidelity(maximally_mixed(1), zero) == pytest.approx(0.5)
    plus = plus_state(1)
    rho = 0.6 * density_from_pure(plus) + 0.4 * maximally_mixed(1)
    assert fidelity(rho, plus) == pytest.approx(0.8, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValidationError):
        fidelity(maximally_mixed(2), zero_state(1))


def test_purity_examples():
    assert purity(density_from_pure(plus_state(2))) == pytest.approx(1.0, abs=1e-12)
    assert purity(maximally_mixed(2)) == pytest.approx(0.25)
    assert purity(np.diag([0.8, 0.2])) == pytest.approx(0.68)


@pytest.mark.parametrize("psi, dtype", [
    (np.array([1, 0]), np.float64),
    (np.array([True, False]), np.float64),
    (np.array([0, 1], dtype=np.float32), np.float64),
    ([0.6, 0.8], np.float64),
    (np.array([1j, 0], dtype=np.complex64), np.complex128),
    ([0.6, 0.8j], np.complex128),
])
def test_helpers_keep_real_inputs_real(psi, dtype):
    # one rule for every state helper: real (int and bool too) to float64,
    # complex to complex128
    psi = check_pure_state(psi)
    assert psi.dtype == dtype
    rho = density_from_pure(psi)
    mixed = 0.8 * rho + 0.1 * np.eye(2)
    vals, vecs = spectral_decomposition(mixed)
    assert rho.dtype == vecs.dtype == dtype and vals.dtype == np.float64
    assert purified_state(mixed, 2).dtype == project_to_density(mixed).dtype == dtype
    # no rounds returns the input, in the helpers' dtype
    single = mixed.astype(np.complex64 if dtype == np.complex128 else np.float32)
    assert purified_state(single, 0).dtype == dtype


def test_real_targets_and_complex_bloch_states():
    for qubits in (1, 3):
        assert plus_state(qubits).dtype == zero_state(qubits).dtype == np.float64
        assert bloch_state(np.pi / 2, 0.0, qubits).dtype == np.complex128
    assert check_pure_state(np.eye(2, dtype=int)[0]).dtype == np.float64


# ----------------------------------------------------------------------
# purified states
# ----------------------------------------------------------------------

def test_purified_state_commutes_with_conjugation():
    rng = np.random.default_rng(11)
    for _ in range(5):
        rho = random_density_matrix(2, rng)
        u = haar_unitary(4, rng)
        a = purified_state(u @ rho @ u.conj().T, 3)
        b = u @ purified_state(rho, 3) @ u.conj().T
        assert np.max(np.abs(a - b)) < 1e-9


def test_spectral_power_flat_spectrum_large_n():
    # a flat spectrum stays flat at any power, here rho**(2**20)
    assert np.allclose(purified_state(maximally_mixed(1), 20), maximally_mixed(1), atol=1e-12)


def test_spectral_power_rejects_zero_spectrum():
    # a zero matrix has no spectrum to normalize
    with pytest.raises(ValidationError):
        purified_state(np.zeros((2, 2)), 1)


# ----------------------------------------------------------------------
# Pauli expansion
# ----------------------------------------------------------------------

def test_pauli_expand_zero_state():
    coeffs = pauli_expand(density_from_pure(zero_state(1)))
    assert coeffs["I"] == pytest.approx(1.0)
    assert coeffs["Z"] == pytest.approx(1.0)
    assert coeffs["X"] == pytest.approx(0.0, abs=1e-14)
    assert coeffs["Y"] == pytest.approx(0.0, abs=1e-14)


def test_pauli_expand_maximally_mixed():
    coeffs = pauli_expand(maximally_mixed(1))
    assert coeffs["I"] == pytest.approx(1.0)
    assert coeffs["X"] == coeffs["Y"] == coeffs["Z"] == 0.0


def test_pauli_expand_plus_plus():
    coeffs = pauli_expand(density_from_pure(plus_state(2)))
    for label, value in coeffs.items():
        expected = 1.0 if set(label) <= {"I", "X"} else 0.0
        assert value == pytest.approx(expected, abs=1e-12), label


def test_dense_pauli_expansion_matches_the_basis_change():
    # the oracle takes one trace per string; the kernel pairs qubit axes
    rng = np.random.default_rng(12)
    for m in (1, 2, 3):
        rho = random_density_matrix(m, rng)
        coeffs = to_pauli_basis(rho).real
        for label, value in pauli_expand(rho).items():
            assert abs(value - coeffs[tuple("IXYZ".index(c) for c in label)]) <= 1e-12, label


def test_pauli_roundtrip_and_norm_identity():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 4):
        rho = random_density_matrix(m, rng)
        coeffs = to_pauli_basis(rho)
        back = from_pauli_basis(coeffs)
        assert np.max(np.abs(back - rho)) < 1e-10
        # Tr(rho P) of a Hermitian rho is real
        assert np.max(np.abs(coeffs.imag)) < 1e-12
        coeffs = coeffs.real
        # sum of squared coefficients ties to the purity
        assert np.sum(coeffs ** 2) == pytest.approx(2 ** m * purity(rho), abs=1e-10)
        assert purity(rho) == pytest.approx(np.sum(coeffs ** 2) / 2 ** m, abs=1e-10)


def test_stacks_give_the_bits_of_one_call_each():
    # Pauli basis changes and overlaps map a stack matrix by matrix
    rng = np.random.default_rng(9)
    for m in (1, 2, 3, 5):
        psi = random_pure_state(m, rng)
        stack = np.stack([random_density_matrix(m, rng) for _ in range(6)]).reshape(3, 2, 2 ** m,
                                                                                  2 ** m)
        flat = stack.reshape(6, 2 ** m, 2 ** m)
        coeffs = to_pauli_basis(stack)
        assert coeffs.shape == (3, 2) + (4,) * m
        assert np.array_equal(coeffs.reshape((6,) + (4,) * m),
                              [to_pauli_basis(rho) for rho in flat])
        assert np.array_equal(from_pauli_basis(coeffs, m).reshape(flat.shape),
                              [from_pauli_basis(c) for c in coeffs.reshape((6,) + (4,) * m)])
        assert np.array_equal(fidelity(stack, psi).ravel(), [fidelity(rho, psi) for rho in flat])


def test_pauli_expansion_guarded():
    with pytest.raises(ResourceLimitError):
        pauli_expand(maximally_mixed(7))


def test_pauli_matrix_and_weight():
    assert pauli_weight("IXZY") == 3
    xz = pauli_matrix("XZ")
    assert np.allclose(xz, np.kron(pauli_matrix("X"), pauli_matrix("Z")))
    with pytest.raises(ValidationError):
        pauli_matrix("XQ")


def test_pauli_matrix_is_a_fresh_kron_chain():
    # every label up to three qubits, as an explicit kron chain, in an array of its own
    assert np.array_equal(pauli_matrix(""), [[1.0]])
    for m in (1, 2, 3):
        for label in map("".join, itertools.product("IXYZ", repeat=m)):
            mat = pauli_matrix(label)
            assert mat.dtype == (complex if "Y" in label else float) and mat.flags.writeable
            assert np.array_equal(mat, functools.reduce(np.kron, [PAULIS[c] for c in label]))
            assert not any(np.shares_memory(mat, p) for p in PAULIS.values())


def test_weight_distribution_plus():
    a, mean_w = pauli_weight_distribution(plus_state(1))
    assert np.allclose(a, [0.5, 0.5], atol=1e-12)
    assert mean_w == pytest.approx(0.5, abs=1e-12)


def test_weight_distribution_plus_product():
    for m in (2, 3, 4):
        a, mean_w = pauli_weight_distribution(plus_state(m))
        from math import comb
        expected = np.array([comb(m, k) / 2 ** m for k in range(m + 1)])
        assert np.allclose(a, expected, atol=1e-12)
        assert mean_w == pytest.approx(m / 2, abs=1e-10)
        assert a.sum() == pytest.approx(1.0, abs=1e-12)


def test_weight_distribution_zero():
    a, _ = pauli_weight_distribution(zero_state(1))
    assert np.allclose(a, [0.5, 0.5], atol=1e-12)


# ----------------------------------------------------------------------
# Bloch sphere
# ----------------------------------------------------------------------

def test_bloch_examples():
    assert np.allclose(bloch_decompose(density_from_pure(zero_state(1))), [0, 0, 1])
    assert np.allclose(bloch_decompose(maximally_mixed(1)), [0, 0, 0], atol=1e-14)
    rho = bloch_compose([0.7071, 0.0, 0.0])
    assert rho[0, 1] == pytest.approx(0.35355, abs=1e-6)


def test_bloch_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(10):
        r = rng.normal(size=3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        assert np.allclose(bloch_decompose(bloch_compose(r)), r, atol=1e-12)


def test_bloch_rejects_long_vector():
    with pytest.raises(ValidationError):
        bloch_compose([1.1, 0.0, 0.0])


# ----------------------------------------------------------------------
# Werner family
# ----------------------------------------------------------------------

def test_werner_state_valid_and_fidelity():
    rng = np.random.default_rng(2)
    psi = random_pure_state(2, rng)
    for mix in (0.0, 0.3, 0.9, 1.0):
        rho = werner_state(mix, psi)
        check_density_matrix(rho)
        assert fidelity(rho, psi) == pytest.approx(werner_fidelity(mix, 4), abs=1e-12)
