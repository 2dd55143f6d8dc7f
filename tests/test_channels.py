import functools

import numpy as np
import pytest

from pqec import (
    DEFAULT_SEED,
    NoiseModel,
    ValidationError,
    apply_global_depolarizing,
    apply_local_dephasing,
    apply_local_depolarizing,
    apply_twirled_dephasing,
    bloch_compose,
    bloch_decompose,
    channel_matrix_equality,
    density_from_pure,
    fidelity,
    generate_twirl_set,
    make_channel,
    maximally_mixed,
    pauli_expand,
    pauli_weight,
    plus_state,
    random_density_matrix,
    random_pure_state,
    werner_state,
    zero_state,
)
from pqec.channels import TwirlSet
from pqec.states import MAX_PAULI_QUBITS


# ----------------------------------------------------------------------
# Independent oracles: the channels from their operator definitions, on
# dense matrices, sharing no code with the Pauli-diagonal kernel
# ----------------------------------------------------------------------

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j])
_FRAMES = {"I": np.eye(2, dtype=complex), "H": _H, "HS": _H @ _S}


def _on_qubit(op, q, m):
    """``op`` on qubit q (qubit 0 leftmost) of an m-qubit register."""
    return functools.reduce(np.kron, [op if k == q else np.eye(2) for k in range(m)])


def _qubit_count(rho):
    return int(np.log2(rho.shape[0]))


def dephase_by_kraus(rho, p):
    """(1-p) rho + p Z rho Z on every qubit."""
    m = _qubit_count(rho)
    for q in range(m):
        z = _on_qubit(_Z, q, m)
        rho = (1 - p) * rho + p * z @ rho @ z
    return rho


def depolarize_by_kraus(rho, p, order=None):
    """(1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z) on every qubit, in ``order``."""
    m = _qubit_count(rho)
    for q in (range(m) if order is None else order):
        paulis = [_on_qubit(op, q, m) for op in (_X, _Y, _Z)]
        rho = (1 - p) * rho + (p / 3) * sum(s @ rho @ s for s in paulis)
    return rho


def twirl_by_conjugation(rho, p, gates):
    """Mean of U^dag E_z(U rho U^dag) U over the frame-gate sequences ``gates``."""
    out = 0
    for seq in gates:
        u = functools.reduce(np.kron, [_FRAMES[g] for g in seq])
        out = out + u.conj().T @ dephase_by_kraus(u @ rho @ u.conj().T, p) @ u
    return out / len(gates)


# ----------------------------------------------------------------------
# global depolarizing
# ----------------------------------------------------------------------

def test_global_depolarizing_endpoints():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(2, rng)
    assert np.allclose(apply_global_depolarizing(rho, 0.0), rho)
    assert np.allclose(apply_global_depolarizing(rho, 1.0), maximally_mixed(2))


def test_global_depolarizing_mixture():
    out = apply_global_depolarizing(density_from_pure(zero_state(1)), 0.4)
    assert np.allclose(out, np.diag([0.8, 0.2]))


def test_global_depolarizing_preserves_werner():
    rng = np.random.default_rng(1)
    psi = random_pure_state(2, rng)
    for mix, p in [(0.3, 0.2), (0.7, 0.5), (0.0, 0.9)]:
        out = apply_global_depolarizing(werner_state(mix, psi), p)
        expected = werner_state((1 - p) * mix + p, psi)
        assert np.max(np.abs(out - expected)) < 1e-14


def test_global_depolarizing_range_check():
    with pytest.raises(ValidationError):
        apply_global_depolarizing(maximally_mixed(1), 1.2)


# ----------------------------------------------------------------------
# local depolarizing
# ----------------------------------------------------------------------

def test_local_depolarizing_examples():
    plus = plus_state(1)
    out = apply_local_depolarizing(density_from_pure(plus), 0.3)
    expected = 0.6 * density_from_pure(plus) + 0.4 * maximally_mixed(1)
    assert np.max(np.abs(out - expected)) < 1e-12
    assert fidelity(out, plus) == pytest.approx(0.8, abs=1e-12)

    for m in (1, 2, 3):
        out = apply_local_depolarizing(density_from_pure(plus_state(m)), 0.75)
        assert np.max(np.abs(out - maximally_mixed(m))) < 1e-14

    rng = np.random.default_rng(2)
    rho = random_density_matrix(2, rng)
    assert np.allclose(apply_local_depolarizing(rho, 0.0), rho)


def test_local_depolarizing_is_weight_contraction():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3):
        rho = random_density_matrix(m, rng)
        p = 0.23
        eta = 1 - 4 * p / 3
        before = pauli_expand(rho)
        after = pauli_expand(apply_local_depolarizing(rho, p))
        for label, value in before.items():
            assert after[label] == pytest.approx(
                value * eta ** pauli_weight(label), abs=1e-10), label


def test_local_depolarizing_qubit_order_irrelevant():
    # apply the same per-qubit map with qubit order reversed; channels commute
    rng = np.random.default_rng(4)
    rho = random_density_matrix(3, rng)
    p = 0.4
    out = depolarize_by_kraus(rho, p, order=reversed(range(3)))
    assert np.max(np.abs(out - apply_local_depolarizing(rho, p))) < 1e-13


def test_dense_local_depolarizing_beyond_pauli_guard():
    # the kernel has no Pauli-count guard: dense registers past it still work
    m = 7
    assert m > MAX_PAULI_QUBITS
    rng = np.random.default_rng(8)
    rho = random_density_matrix(m, rng)
    expected = depolarize_by_kraus(rho, 0.37)
    assert np.max(np.abs(apply_local_depolarizing(rho, 0.37) - expected)) < 1e-12
    chan = make_channel(NoiseModel("local-depol", 0.37), m)
    assert np.max(np.abs(chan(rho) - expected)) < 1e-12


# ----------------------------------------------------------------------
# local dephasing
# ----------------------------------------------------------------------

def test_dephasing_bloch_contraction():
    out = apply_local_dephasing(bloch_compose([1, 0, 0]), 0.3)
    assert np.allclose(bloch_decompose(out), [0.4, 0, 0], atol=1e-14)

    out = apply_local_dephasing(bloch_compose([0.6, 0, 0.8]), 0.5)
    assert np.allclose(bloch_decompose(out), [0, 0, 0.8], atol=1e-14)


def test_dephasing_matches_kraus_oracle():
    rng = np.random.default_rng(9)
    for m in (1, 2, 3):
        rho = random_density_matrix(m, rng)
        for p in (0.0, 0.37, 1.0):
            dev = np.max(np.abs(apply_local_dephasing(rho, p) - dephase_by_kraus(rho, p)))
            assert dev < 1e-13


def test_dephasing_fixes_z_eigenstates():
    rho = density_from_pure(zero_state(1))
    for p in (0.1, 0.5, 1.0):
        assert np.allclose(apply_local_dephasing(rho, p), rho)


def test_channels_preserve_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3):
        rho = random_density_matrix(m, rng)
        for chan in (lambda x: apply_global_depolarizing(x, 0.37),
                     lambda x: apply_local_depolarizing(x, 0.37),
                     lambda x: apply_local_dephasing(x, 0.37)):
            out = chan(rho)
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-10


# ----------------------------------------------------------------------
# twirling
# ----------------------------------------------------------------------

def test_generate_twirl_set_full():
    tset = generate_twirl_set(1, 1.0)
    assert tset.gates == (("I",), ("H",), ("HS",))
    assert len(generate_twirl_set(2, 1.0)) == 9


def test_generate_twirl_set_fraction():
    tset = generate_twirl_set(5, 0.2, seed=7)
    assert len(tset) == 49
    assert len(set(tset.gates)) == 49
    again = generate_twirl_set(5, 0.2, seed=7)
    assert tset.gates == again.gates
    other = generate_twirl_set(5, 0.2, seed=8)
    assert other.gates != tset.gates


def test_twirl_set_rejects_duplicates():
    with pytest.raises(ValidationError):
        TwirlSet([("I",), ("I",)], 1)


def test_full_twirl_equals_local_depolarizing():
    for m in (1, 2, 3):
        tset = generate_twirl_set(m, 1.0)
        dev = channel_matrix_equality(
            lambda x: apply_twirled_dephasing(x, 0.37, tset),
            lambda x: apply_local_depolarizing(x, 0.37), m)
        assert dev < 1e-10


@pytest.mark.parametrize("qubits,fraction", [(1, 1.0), (2, 1.0), (3, 1.0),
                                              (1, 0.2), (2, 0.2), (3, 0.2), (4, 0.2)])
def test_twirl_kernel_matches_conjugation_oracle(qubits, fraction):
    tset = generate_twirl_set(qubits, fraction, seed=DEFAULT_SEED)
    for p in (0.0, 0.37, 1.0):
        oracle = lambda x: twirl_by_conjugation(x, p, tset.gates)
        dev = channel_matrix_equality(
            oracle, lambda x: apply_twirled_dephasing(x, p, tset), qubits)
        assert dev < 1e-12
        model = NoiseModel("twirled-dephasing", p, twirl_fraction=fraction,
                           twirl_seed=DEFAULT_SEED)
        assert channel_matrix_equality(oracle, make_channel(model, qubits), qubits) < 1e-12


def test_full_twirl_bloch_example():
    tset = generate_twirl_set(1, 1.0)
    out = apply_twirled_dephasing(bloch_compose([1, 0, 0]), 0.3, tset)
    assert np.allclose(bloch_decompose(out), [0.6, 0, 0], atol=1e-12)


def test_twirl_identity_at_p_zero():
    rng = np.random.default_rng(6)
    rho = random_density_matrix(2, rng)
    tset = generate_twirl_set(2, 0.5, seed=1)
    assert np.max(np.abs(apply_twirled_dephasing(rho, 0.0, tset) - rho)) < 1e-12


def test_twirl_rejects_empty_set_and_mismatch():
    with pytest.raises(ValidationError):
        apply_twirled_dephasing(maximally_mixed(1), 0.1, TwirlSet([], 1))
    with pytest.raises(ValidationError):
        apply_twirled_dephasing(maximally_mixed(2), 0.1, generate_twirl_set(1, 1.0))


def test_single_gate_twirl_stays_anisotropic():
    # one frame gate only rotates the dephasing axis; some Pauli input must
    # deviate from the depolarizing channel by at least p/2
    p = 0.3
    for seed in (7, 8, 9):
        tset = generate_twirl_set(1, 0.2, seed=seed)
        assert len(tset) == 1
        dev = channel_matrix_equality(
            lambda x: apply_twirled_dephasing(x, p, tset),
            lambda x: apply_local_depolarizing(x, p), 1)
        assert dev >= p / 2


# ----------------------------------------------------------------------
# channel comparison and factory
# ----------------------------------------------------------------------

def test_channel_matrix_equality_self():
    chan = lambda x: apply_local_dephasing(x, 0.3)
    assert channel_matrix_equality(chan, chan, 2) == 0.0


def test_dephasing_differs_from_depolarizing():
    dev = channel_matrix_equality(
        lambda x: apply_local_dephasing(x, 0.3),
        lambda x: apply_local_depolarizing(x, 0.3), 1)
    assert dev >= 0.1  # the Z input is preserved vs contracted by 0.6


def test_make_channel_dispatch():
    rng = np.random.default_rng(7)
    rho = random_density_matrix(2, rng)
    pairs = [
        (NoiseModel("global-depol", 0.3), apply_global_depolarizing(rho, 0.3)),
        (NoiseModel("local-depol", 0.3), apply_local_depolarizing(rho, 0.3)),
        (NoiseModel("dephasing", 0.3), apply_local_dephasing(rho, 0.3)),
    ]
    for model, expected in pairs:
        assert np.allclose(make_channel(model, 2)(rho), expected)
    twirled = make_channel(NoiseModel("twirled-dephasing", 0.3), 2)
    assert np.max(np.abs(twirled(rho) - apply_local_depolarizing(rho, 0.3))) < 1e-12
    with pytest.raises(ValidationError):
        twirled(maximally_mixed(1))


def test_noise_model_validation():
    with pytest.raises(ValidationError):
        NoiseModel("banana", 0.1).validate()
    with pytest.raises(ValidationError):
        NoiseModel("dephasing", -0.1).validate()
    with pytest.raises(ValidationError):
        NoiseModel("twirled-dephasing", 0.1, twirl_fraction=0.0).validate()
