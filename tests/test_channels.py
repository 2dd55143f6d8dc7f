import functools
import math

import numpy as np
import pytest

from pqec import (
    DEFAULT_SEED,
    NoiseModel,
    ValidationError,
    apply_pauli_diagonal,
    channel_matrix_equality,
    density_from_pure,
    fidelity,
    make_channel,
    plus_state,
    run_cycles,
    zero_state,
)
from pqec.channels import CHANNEL_KINDS, _seeded_damping_shares
from pqec.states import MAX_PAULI_QUBITS
from oracles import DAMPED, FRAME_LABELS, bloch_compose, bloch_decompose, generate_twirl_set, \
    maximally_mixed, pauli_diagonal_oracle, pauli_expand, pauli_weight, random_density_matrix, \
    random_pure_state, werner_state


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
        shares += one_hot[functools.reduce(np.add.outer, [DAMPED[g] for g in seq])]
    return shares / len(gates)


@pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5, 6])
def test_damping_counts_match_one_hot_construction(qubits):
    for fraction in (1.0, 0.9, 0.5, 0.2, 0.05):
        for seed in (DEFAULT_SEED, 10):
            assert np.array_equal(_seeded_damping_shares(qubits, fraction, seed),
                                  damping_shares_one_hot(qubits, fraction, seed))


@pytest.mark.parametrize("psi", [np.kron(zero_state(1), plus_state(1)),
                                 np.kron(zero_state(1), plus_state(2))], ids=["M2", "M3"])
@pytest.mark.parametrize("seed", [0, 7, 10])
def test_twirled_cycle_on_an_asymmetric_target_matches_conjugation(psi, seed):
    # |0> on qubit 0 only: a subset read in another qubit order damps it otherwise
    rho = density_from_pure(psi)
    trace = run_cycles(psi, NoiseModel("twirled-dephasing", 0.3, 0.2, seed), (0, 1), 1)
    noisy = twirl_by_conjugation(rho, 0.3, generate_twirl_set(_qubit_count(rho), 0.2, seed))
    for ell, fids in zip((0, 1), trace.fidelities):
        power = np.linalg.matrix_power(noisy, 2 ** ell)
        expected = (psi.conj() @ power @ psi).real / np.trace(power).real
        assert abs(fids[1] - expected) < 1e-12, (ell, fids[1], expected)


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


# a sweep block's p values: both ends, exact and inexact binary fractions
STACKED_P = (0.0, 0.1, 0.25, 1 / 3, 0.6, 0.75, 1.0)
STACKED_KINDS = [(kind, 1.0) for kind in CHANNEL_KINDS] + [("twirled-dephasing", 0.2)]


def scalar_eigenvalues_reference(kind, p, qubits, fraction):
    """One p's transfer eigenvalues by the single-p formulas of pqec 0.4.10."""
    if kind == "global-depol":
        lam = np.full((4,) * qubits, 1.0 - p)
        lam[(0,) * qubits] = 1.0
        return lam
    if kind == "twirled-dephasing":
        shares = _seeded_damping_shares(qubits, fraction, DEFAULT_SEED)
        return shares @ (1.0 - 2.0 * p) ** np.arange(qubits + 1)
    eta = 1.0 - 4.0 * p / 3.0 if kind == "local-depol" else 1.0 - 2.0 * p
    factors = np.array([1.0, eta, eta, eta if kind == "local-depol" else 1.0])
    return functools.reduce(np.multiply.outer, [factors] * qubits)


@pytest.mark.parametrize("qubits", [1, 2, 3, 4])
def test_stacked_transfer_eigenvalues_match_scalar_bits(qubits):
    for kind, fraction in STACKED_KINDS:
        stacked = NoiseModel(kind, STACKED_P, fraction).transfer_eigenvalues(qubits)
        assert stacked.shape == (len(STACKED_P),) + (4,) * qubits
        for row, p in zip(stacked, STACKED_P):
            scalar = NoiseModel(kind, p, fraction).transfer_eigenvalues(qubits)
            assert np.array_equal(row, scalar), (kind, fraction, p)
            assert np.array_equal(scalar, scalar_eigenvalues_reference(kind, p, qubits, fraction))


def test_stacked_channel_matches_per_p_calls():
    # one matrix in gives one state per p; a (P, L, d, d) stack gets each
    # p's channel on its L matrices, bit for bit as one call per matrix
    rng = np.random.default_rng(9)
    for m in (1, 2, 3):
        rho = random_density_matrix(m, rng)
        stack = np.array([[random_density_matrix(m, rng) for _ in range(3)] for _ in STACKED_P])
        for kind, fraction in STACKED_KINDS:
            stacked = make_channel(NoiseModel(kind, STACKED_P, fraction), m)
            singles = [make_channel(NoiseModel(kind, p, fraction), m) for p in STACKED_P]
            assert np.array_equal(stacked(rho), np.array([chan(rho) for chan in singles]))
            per_matrix = np.array([[chan(r) for r in row] for chan, row in zip(singles, stack)])
            assert np.array_equal(stacked(stack), per_matrix), (m, kind, fraction)
            with pytest.raises(ValidationError):
                stacked(maximally_mixed(m + 1))


# X-basis product states |+>, |-> as columns, and the Z basis
_BASES = {"IX": np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2), "IZ": np.eye(2)}


@pytest.mark.parametrize("qubits", [1, 2, 3, 4])
def test_letter_subsets_are_the_full_tensor_on_those_letters(qubits):
    # built on two letters, lam has the values of the 4**M tensor's strings over them
    for kind, fraction in STACKED_KINDS:
        model = NoiseModel(kind, STACKED_P, fraction)
        full = model.transfer_eigenvalues(qubits)
        for letters in ("IX", "IZ"):
            columns = ["IXYZ".index(c) for c in letters]
            part = full[np.ix_(range(len(STACKED_P)), *[columns] * qubits)]
            lam = model.transfer_eigenvalues(qubits, letters)
            assert lam.shape == (len(STACKED_P),) + (2,) * qubits
            assert np.max(np.abs(lam - part)) <= 1e-15, (kind, fraction, letters)
            for row, p in zip(lam, STACKED_P):
                scalar = NoiseModel(kind, p, fraction).transfer_eigenvalues(qubits, letters)
                assert np.array_equal(row, scalar), (kind, fraction, p, letters)


def test_letter_subsets_are_built_without_the_full_tensor():
    # 41 p values at M = 12 on four letters would take 5.5 GB; on two, 1.3 MB
    p_values = tuple(np.linspace(0, 1, 41).tolist())
    for kind in ("global-depol", "local-depol", "dephasing"):
        lam = NoiseModel(kind, p_values).transfer_eigenvalues(12, "IX")
        assert lam.shape == (41,) + (2,) * 12
        assert lam[(slice(None),) + (0,) * 12].tolist() == [1.0] * 41
        eta = lam[(slice(None), 1) + (0,) * 11]
        all_x = eta ** 12 if kind != "global-depol" else eta
        assert np.allclose(lam[(slice(None),) + (1,) * 12], all_x, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("letters", ["IX", "IZ"])
def test_diagonal_channel_matches_the_dense_kernel(qubits, letters):
    # a state diagonal in the X or Z product basis stays so under every
    # channel; its new diagonal is the dense channel's, read in that basis
    rng = np.random.default_rng(11)
    basis = functools.reduce(np.kron, [_BASES[letters]] * qubits)
    weights = rng.dirichlet(np.ones(2 ** qubits), size=(2, 3))
    for kind, fraction in STACKED_KINDS:
        model = NoiseModel(kind, (0.1, 0.4), fraction)
        dense = make_channel(model, qubits)((basis * weights[..., None, :]) @ basis.T)
        in_basis = basis.T @ dense @ basis
        assert np.max(np.abs(in_basis - in_basis * np.eye(2 ** qubits))) <= 1e-14
        diagonal = make_channel(model, qubits, letters)
        assert np.max(np.abs(diagonal(weights) - np.diagonal(in_basis, axis1=-2, axis2=-1))) \
            <= 1e-14, (kind, fraction)
        # one diagonal under the stack of channels gives one per p
        assert diagonal(weights[0, 0]).shape == (2, 2 ** qubits)
        with pytest.raises(ValidationError):
            diagonal(np.ones(2 ** (qubits + 1)))
    for letters in ("XZ", "IXZ", "", "ZI"):
        with pytest.raises(ValidationError, match="letters"):
            make_channel(NoiseModel("dephasing", 0.1), qubits, letters)


@pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("real", [True, False])
def test_real_pair_kernel_matches_the_ixyz_oracle(qubits, real):
    # the kernel's {I, X, XZ, Z} pair has entries 0 and +-1 and XZ = -iY, so it
    # rounds as the complex IXYZ basis change does, bit for bit
    rng = np.random.default_rng(25 + qubits)
    d = 2 ** qubits
    p = (0.0, 0.37, 1.0)
    for kind, fraction in STACKED_KINDS:
        lam = NoiseModel(kind, p, fraction).transfer_eigenvalues(qubits)
        stack = rng.normal(size=(len(p), 2, d, d))
        if not real:
            stack = stack + 1j * rng.normal(size=stack.shape)
        for rho in (stack, stack[0, 0]):
            out = apply_pauli_diagonal(rho, lam, qubits)
            assert out.dtype == (np.float64 if real else np.complex128)
            assert np.array_equal(out, pauli_diagonal_oracle(rho, lam, qubits)), (kind, fraction)


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


@pytest.mark.parametrize("cached", [False, True])
def test_noise_model_rejects_a_bad_twirl_seed(cached):
    # the table cache keys 7.0 like 7: the verdict must not depend on what it holds
    _seeded_damping_shares.cache_clear()
    if cached:
        NoiseModel("twirled-dephasing", 0.1, 0.2, 7).transfer_eigenvalues(2)
    for seed in (-1, 7.0, "7", None):
        with pytest.raises(ValidationError):
            NoiseModel("twirled-dephasing", 0.1, 0.2, seed).transfer_eigenvalues(2)
    assert np.array_equal(NoiseModel("twirled-dephasing", 0.1, 0.2, np.int64(7))
                          .transfer_eigenvalues(2),
                          NoiseModel("twirled-dephasing", 0.1, 0.2, 7).transfer_eigenvalues(2))


@pytest.mark.parametrize("p", [(0.1, 1.2), (-0.1, 0.5), (0.2, float("nan")), (),
                               ((0.1, 0.2),), (0.1, (0.2,)), [0.1, 0.2]])
def test_noise_model_rejects_a_bad_p_stack(p):
    # every entry is checked, and the stack must be one flat, nonempty tuple
    with pytest.raises(ValidationError):
        NoiseModel("dephasing", p).validate()
    with pytest.raises(ValidationError):
        make_channel(NoiseModel("local-depol", p), 1)


def test_noise_model_with_a_p_stack_is_hashable():
    model = NoiseModel("local-depol", (0.0, 0.5, 1.0)).validate()
    assert model == NoiseModel("local-depol", (0.0, 0.5, 1.0))
    assert len({model, NoiseModel("local-depol", (0.0, 0.5, 1.0))}) == 1
