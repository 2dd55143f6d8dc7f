import numpy as np
import pytest

from pqec import (
    ResourceLimitError,
    ValidationError,
    bloch_compose,
    bloch_decompose,
    check_density_matrix,
    density_from_pure,
    fidelity,
    maximally_mixed,
    pauli_expand,
    pauli_matrix,
    pauli_weight,
    pauli_weight_distribution,
    plus_state,
    purity,
    random_density_matrix,
    random_pure_state,
    spectral_power,
    werner_fidelity,
    werner_state,
    zero_state,
)
from pqec.states import from_pauli_basis, to_pauli_basis


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


# ----------------------------------------------------------------------
# spectral powers
# ----------------------------------------------------------------------

def test_spectral_power_square():
    sp = spectral_power(np.diag([0.8, 0.2]).astype(complex), 2)
    assert np.allclose(sp.value, np.diag([0.64, 0.04]), atol=1e-12)
    assert sp.trace == pytest.approx(0.68, abs=1e-12)


def test_spectral_power_pure_idempotent():
    rho = density_from_pure(plus_state(1))
    sp = spectral_power(rho, 17)
    assert np.allclose(sp.value, rho, atol=1e-12)
    assert sp.trace == pytest.approx(1.0, abs=1e-10)


def test_spectral_power_flat_spectrum_large_n():
    sp = spectral_power(maximally_mixed(1), 2 ** 20)
    assert np.allclose(sp.normalized(), maximally_mixed(1), atol=1e-12)


def test_spectral_power_requires_positive_exponent():
    with pytest.raises(ValidationError):
        spectral_power(maximally_mixed(1), 0)


def test_spectral_power_rejects_zero_spectrum():
    with pytest.raises(ValidationError):
        spectral_power(np.zeros((2, 2)), 2)


def test_spectral_power_commutes_with_conjugation():
    rng = np.random.default_rng(11)
    for _ in range(5):
        rho = random_density_matrix(2, rng)
        u = haar_unitary(4, rng)
        a = spectral_power(u @ rho @ u.conj().T, 8).value
        b = u @ spectral_power(rho, 8).value @ u.conj().T
        assert np.max(np.abs(a - b)) < 1e-9


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
    # Pauli basis changes, powers and overlaps map a stack matrix by matrix
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
        for power in (2, 8, 2 ** 40):
            assert np.array_equal(spectral_power(stack, power).normalized().reshape(flat.shape),
                                  [spectral_power(rho, power).normalized() for rho in flat])
        assert np.array_equal(spectral_power(stack, 4).trace.ravel(),
                              [spectral_power(rho, 4).trace for rho in flat])
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
