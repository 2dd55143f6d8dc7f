import functools
import math

import numpy as np
import pytest

from pqec import (
    DEFAULT_SEED,
    NoiseModel,
    ValidationError,
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
from pqec.channels import _DAMPED, CHANNEL_KINDS, FRAME_LABELS, _seeded_damping_shares
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


def apply(kind, rho, p, *twirl):
    """The ``kind`` channel at error probability p, built for rho's register."""
    return make_channel(NoiseModel(kind, p, *twirl), _qubit_count(rho))(rho)


# ----------------------------------------------------------------------
# global depolarizing
# ----------------------------------------------------------------------

def test_global_depolarizing_endpoints():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(2, rng)
    assert np.allclose(apply("global-depol", rho, 0.0), rho)
    assert np.allclose(apply("global-depol", rho, 1.0), maximally_mixed(2))


def test_global_depolarizing_mixture():
    out = apply("global-depol", density_from_pure(zero_state(1)), 0.4)
    assert np.allclose(out, np.diag([0.8, 0.2]))


def test_global_depolarizing_preserves_werner():
    rng = np.random.default_rng(1)
    psi = random_pure_state(2, rng)
    for mix, p in [(0.3, 0.2), (0.7, 0.5), (0.0, 0.9)]:
        out = apply("global-depol", werner_state(mix, psi), p)
        expected = werner_state((1 - p) * mix + p, psi)
        assert np.max(np.abs(out - expected)) < 1e-14


def test_global_depolarizing_range_check():
    with pytest.raises(ValidationError):
        make_channel(NoiseModel("global-depol", 1.2), 1)


# ----------------------------------------------------------------------
# local depolarizing
# ----------------------------------------------------------------------

def test_local_depolarizing_examples():
    plus = plus_state(1)
    out = apply("local-depol", density_from_pure(plus), 0.3)
    expected = 0.6 * density_from_pure(plus) + 0.4 * maximally_mixed(1)
    assert np.max(np.abs(out - expected)) < 1e-12
    assert fidelity(out, plus) == pytest.approx(0.8, abs=1e-12)

    for m in (1, 2, 3):
        out = apply("local-depol", density_from_pure(plus_state(m)), 0.75)
        assert np.max(np.abs(out - maximally_mixed(m))) < 1e-14

    rng = np.random.default_rng(2)
    rho = random_density_matrix(2, rng)
    assert np.allclose(apply("local-depol", rho, 0.0), rho)


def test_local_depolarizing_is_weight_contraction():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3):
        rho = random_density_matrix(m, rng)
        p = 0.23
        eta = 1 - 4 * p / 3
        before = pauli_expand(rho)
        after = pauli_expand(apply("local-depol", rho, p))
        for label, value in before.items():
            assert after[label] == pytest.approx(
                value * eta ** pauli_weight(label), abs=1e-10), label


def test_local_depolarizing_qubit_order_irrelevant():
    # apply the same per-qubit map with qubit order reversed; channels commute
    rng = np.random.default_rng(4)
    rho = random_density_matrix(3, rng)
    p = 0.4
    out = depolarize_by_kraus(rho, p, order=reversed(range(3)))
    assert np.max(np.abs(out - apply("local-depol", rho, p))) < 1e-13


def test_dense_local_depolarizing_beyond_pauli_guard():
    # the kernel has no Pauli-count guard: dense registers past it still work
    m = 7
    assert m > MAX_PAULI_QUBITS
    rng = np.random.default_rng(8)
    rho = random_density_matrix(m, rng)
    expected = depolarize_by_kraus(rho, 0.37)
    chan = make_channel(NoiseModel("local-depol", 0.37), m)
    assert np.max(np.abs(chan(rho) - expected)) < 1e-12


# ----------------------------------------------------------------------
# local dephasing
# ----------------------------------------------------------------------

def test_dephasing_bloch_contraction():
    out = apply("dephasing", bloch_compose([1, 0, 0]), 0.3)
    assert np.allclose(bloch_decompose(out), [0.4, 0, 0], atol=1e-14)

    out = apply("dephasing", bloch_compose([0.6, 0, 0.8]), 0.5)
    assert np.allclose(bloch_decompose(out), [0, 0, 0.8], atol=1e-14)


def test_dephasing_matches_kraus_oracle():
    rng = np.random.default_rng(9)
    for m in (1, 2, 3):
        rho = random_density_matrix(m, rng)
        for p in (0.0, 0.37, 1.0):
            dev = np.max(np.abs(apply("dephasing", rho, p) - dephase_by_kraus(rho, p)))
            assert dev < 1e-13


def test_dephasing_fixes_z_eigenstates():
    rho = density_from_pure(zero_state(1))
    for p in (0.1, 0.5, 1.0):
        assert np.allclose(apply("dephasing", rho, p), rho)


def test_channels_preserve_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    models = [NoiseModel(kind, 0.37) for kind in CHANNEL_KINDS]
    models.append(NoiseModel("twirled-dephasing", 0.37, 0.2, DEFAULT_SEED))
    for m in (1, 2, 3):
        rho = random_density_matrix(m, rng)
        for model in models:
            out = make_channel(model, m)(rho)
            assert abs(np.trace(out) - 1.0) < 1e-12, model
            assert np.max(np.abs(out - out.conj().T)) < 1e-10, model


# ----------------------------------------------------------------------
# twirling
# ----------------------------------------------------------------------

def test_generate_twirl_set_full():
    assert generate_twirl_set(1, 1.0) == (("I",), ("H",), ("HS",))
    assert len(generate_twirl_set(2, 1.0)) == 9


def test_generate_twirl_set_fraction():
    tset = generate_twirl_set(5, 0.2, seed=7)
    assert len(tset) == 49
    assert len(set(tset)) == 49
    assert generate_twirl_set(5, 0.2, seed=7) == tset
    assert generate_twirl_set(5, 0.2, seed=8) != tset


def test_twirl_set_rejects_duplicates():
    # every drawn subset holds ceil(fraction 3**M) distinct valid sequences
    for m in (1, 2, 3, 4, 5):
        for fraction in (0.05, 0.2, 0.5, 0.9, 1.0):
            for seed in (0, DEFAULT_SEED, 97):
                tset = generate_twirl_set(m, fraction, seed)
                assert len(set(tset)) == len(tset) == math.ceil(fraction * 3 ** m)
                assert all(len(seq) == m and set(seq) <= set(FRAME_LABELS) for seq in tset)


def test_full_twirl_equals_local_depolarizing():
    for m in (1, 2, 3):
        dev = channel_matrix_equality(
            make_channel(NoiseModel("twirled-dephasing", 0.37), m),
            make_channel(NoiseModel("local-depol", 0.37), m), m)
        assert dev < 1e-10


@pytest.mark.parametrize("qubits,fraction", [(1, 1.0), (2, 1.0), (3, 1.0),
                                              (1, 0.2), (2, 0.2), (3, 0.2), (4, 0.2)])
def test_twirl_kernel_matches_conjugation_oracle(qubits, fraction):
    tset = generate_twirl_set(qubits, fraction, DEFAULT_SEED)
    for p in (0.0, 0.37, 1.0):
        oracle = lambda x: twirl_by_conjugation(x, p, tset)
        chan = make_channel(NoiseModel("twirled-dephasing", p, fraction, DEFAULT_SEED), qubits)
        assert channel_matrix_equality(oracle, chan, qubits) < 1e-12


def damping_shares_one_hot(qubits, fraction, seed):
    """The damping table by one one-hot (4,)*M x (M+1) tensor per sequence."""
    gates = generate_twirl_set(qubits, fraction, seed)
    one_hot = np.eye(qubits + 1)
    shares = np.zeros((4,) * qubits + (qubits + 1,))
    for seq in gates:
        shares += one_hot[functools.reduce(np.add.outer, [_DAMPED[g] for g in seq])]
    return shares / len(gates)


@pytest.mark.parametrize("qubits", [1, 2, 3, 4])
def test_damping_counts_match_one_hot_construction(qubits):
    for fraction in (1.0, 0.2):
        for seed in (DEFAULT_SEED, 10):
            assert np.array_equal(_seeded_damping_shares(qubits, fraction, seed),
                                  damping_shares_one_hot(qubits, fraction, seed))


def test_channel_maps_a_stack_matrix_by_matrix():
    rng = np.random.default_rng(8)
    for m in (1, 2, 3, 5):
        stack = np.stack([random_density_matrix(m, rng) for _ in range(6)]).reshape(2, 3, 2 ** m,
                                                                                  2 ** m)
        for model in (NoiseModel("local-depol", 0.3), NoiseModel("global-depol", 0.3),
                      NoiseModel("twirled-dephasing", 0.3, 0.2)):
            chan = make_channel(model, m)
            one_by_one = np.array([[chan(rho) for rho in row] for row in stack])
            assert np.array_equal(chan(stack), one_by_one)


def test_full_twirl_bloch_example():
    out = apply("twirled-dephasing", bloch_compose([1, 0, 0]), 0.3)
    assert np.allclose(bloch_decompose(out), [0.6, 0, 0], atol=1e-12)


def test_twirl_identity_at_p_zero():
    rng = np.random.default_rng(6)
    rho = random_density_matrix(2, rng)
    out = apply("twirled-dephasing", rho, 0.0, 0.5, 1)
    assert np.max(np.abs(out - rho)) < 1e-12


def test_twirl_rejects_empty_set_and_mismatch():
    # a zero fraction would draw the empty set
    with pytest.raises(ValidationError):
        generate_twirl_set(1, 0.0)
    with pytest.raises(ValidationError):
        make_channel(NoiseModel("twirled-dephasing", 0.1, 0.0), 1)
    twirled = make_channel(NoiseModel("twirled-dephasing", 0.1), 1)
    with pytest.raises(ValidationError):
        twirled(maximally_mixed(2))


def test_single_gate_twirl_stays_anisotropic():
    # one frame gate only rotates the dephasing axis; some Pauli input must
    # deviate from the depolarizing channel by at least p/2
    p = 0.3
    for seed in (7, 8, 9):
        assert len(generate_twirl_set(1, 0.2, seed)) == 1
        dev = channel_matrix_equality(
            make_channel(NoiseModel("twirled-dephasing", p, 0.2, seed), 1),
            make_channel(NoiseModel("local-depol", p), 1), 1)
        assert dev >= p / 2


# ----------------------------------------------------------------------
# channel comparison and factory
# ----------------------------------------------------------------------

def test_channel_matrix_equality_self():
    chan = make_channel(NoiseModel("dephasing", 0.3), 2)
    assert channel_matrix_equality(chan, chan, 2) == 0.0


def test_dephasing_differs_from_depolarizing():
    dev = channel_matrix_equality(
        make_channel(NoiseModel("dephasing", 0.3), 1),
        make_channel(NoiseModel("local-depol", 0.3), 1), 1)
    assert dev >= 0.1  # the Z input is preserved vs contracted by 0.6


def test_make_channel_dispatch():
    # each kind against its operator definition
    rng = np.random.default_rng(7)
    rho = random_density_matrix(2, rng)
    pairs = [
        ("global-depol", 0.7 * rho + 0.3 * maximally_mixed(2)),
        ("local-depol", depolarize_by_kraus(rho, 0.3)),
        ("dephasing", dephase_by_kraus(rho, 0.3)),
        ("twirled-dephasing", twirl_by_conjugation(rho, 0.3, generate_twirl_set(2, 1.0))),
    ]
    for kind, expected in pairs:
        assert np.max(np.abs(make_channel(NoiseModel(kind, 0.3), 2)(rho) - expected)) < 1e-12
    twirled = make_channel(NoiseModel("twirled-dephasing", 0.3), 2)
    with pytest.raises(ValidationError):
        twirled(maximally_mixed(1))


def test_noise_model_validation():
    with pytest.raises(ValidationError):
        NoiseModel("banana", 0.1).validate()
    with pytest.raises(ValidationError):
        NoiseModel("dephasing", -0.1).validate()
    with pytest.raises(ValidationError):
        NoiseModel("twirled-dephasing", 0.1, twirl_fraction=0.0).validate()
