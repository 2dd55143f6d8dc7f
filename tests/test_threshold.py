import threading
from dataclasses import replace

import numpy as np
import pytest

from pqec import (
    NoiseModel,
    UndefinedSteadyStateError,
    bloch_state,
    density_from_pure,
    fidelity,
    find_threshold,
    make_channel,
    plus_state,
    purified_weights,
    run_cycles,
    steady_state_fidelity_analytic,
    sweep,
    zero_state,
)
from pqec import channels, purify, states, threshold
from pqec.channels import _seeded_damping_shares
from pqec.cli import main
from pqec.states import ProductState, ResourceLimitError, ValidationError, from_spectrum, \
    num_qubits, spectral_decomposition
from oracles import logical_error_rate, numpy_find_threshold, plus_cycle_fidelities, \
    werner_cycle_fidelities
from test_channels import STACKED_KINDS
from test_purify import spectral_fidelity


def cell_oracle(psi, model, rounds, cycles):
    """One cell's trace by a plain loop over single matrices.

    F is sum_i w_i |<v_i|psi>|^2 over the purified weights, and the state
    of the next cycle is V diag(w) V^dagger, as the engine does.
    """
    channel = make_channel(model, num_qubits(psi.size))
    rho = density_from_pure(psi)
    fids = [fidelity(rho, psi)]
    for _ in range(cycles):
        rho = channel(rho)
        if not rounds:
            fids.append(fidelity(rho, psi))
            continue
        vals, vecs = spectral_decomposition(rho)
        w = purified_weights(vals, rounds)
        fids.append(spectral_fidelity(w, vecs, psi))
        rho = from_spectrum(w, vecs)
    return np.array(fids)


# ----------------------------------------------------------------------
# cycles
# ----------------------------------------------------------------------

def test_run_cycles_global_depolarizing_closed_form():
    p = 0.2
    trace = run_cycles(plus_state(1), NoiseModel("global-depol", p), 0, 10)
    t = np.arange(11)
    expected = 1 - (1 - (1 - p) ** t) / 2
    assert np.max(np.abs(trace.fidelities - expected)) < 1e-12


def test_run_cycles_noiseless():
    trace = run_cycles(plus_state(2), NoiseModel("local-depol", 0.0), 2, 5)
    assert np.allclose(trace.fidelities, 1.0, atol=1e-10)


def test_run_cycles_local_depol_one_cycle():
    trace = run_cycles(plus_state(1), NoiseModel("local-depol", 0.1), 1, 1)
    assert trace.fidelities[0] == pytest.approx(1.0, abs=1e-12)
    assert trace.fidelities[1] == pytest.approx(0.994924, abs=1e-6)


def test_logical_error_rate_examples():
    bare = run_cycles(plus_state(1), NoiseModel("local-depol", 0.1), 0, 1)
    assert logical_error_rate(bare) == pytest.approx(2 * 0.1 / 3, abs=1e-9)
    one = run_cycles(plus_state(1), NoiseModel("local-depol", 0.1), 1, 1)
    assert logical_error_rate(one) == pytest.approx(0.005076, abs=1e-6)
    clean = run_cycles(plus_state(1), NoiseModel("local-depol", 0.0), 1, 1)
    assert logical_error_rate(clean) == pytest.approx(0.0, abs=1e-12)


def test_run_cycles_validation():
    with pytest.raises(ValidationError):
        run_cycles(plus_state(1), NoiseModel("local-depol", 0.1), 1, 0)
    # no rounds values is an empty grid, on either representation
    for psi in (plus_state(1), bloch_state(0.7, 0.3, 1)):
        for p, shape in ((0.1, (0, 4)), ((0.1, 0.2), (2, 0, 4))):
            trace = run_cycles(psi, NoiseModel("local-depol", p), (), 3)
            assert trace.fidelities.shape == shape


def test_run_cycles_broadcasts_models_and_rounds():
    # a real target off the X and Z axes runs on the dense engine
    psi = bloch_state(0.7, 0.0, 2).real
    p_values = (0.1, 0.3, 0.6)
    stacked = NoiseModel("local-depol", p_values)
    rounds = (0, 1, 3)
    cells = np.array([[cell_oracle(psi, NoiseModel("local-depol", p), r, 4) for r in rounds]
                      for p in p_values])
    assert run_cycles(psi, NoiseModel("local-depol", 0.3), 3, 4).fidelities.shape == (5,)
    assert np.array_equal(run_cycles(psi, stacked, rounds, 4).fidelities, cells)
    assert np.array_equal(run_cycles(psi, stacked, 1, 4).fidelities, cells[:, 1])
    assert np.array_equal(run_cycles(psi, NoiseModel("local-depol", 0.6), rounds, 4).fidelities,
                          cells[2])
    assert np.array_equal(run_cycles(psi, NoiseModel("local-depol", (0.1,)), rounds[1:],
                                     1).fidelities, cells[:1, 1:, :2])


def tilted(target, qubits):
    """A real product target 0.3 rad off ``target``'s axis, which keeps the dense engine."""
    theta = {plus_state: np.pi / 2 - 0.3, zero_state: 0.3}[target]
    return bloch_state(theta, 0.0, qubits).real


@pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("target", [plus_state, zero_state])
def test_real_targets_stay_float64_through_the_cycle(monkeypatch, qubits, target):
    # every noisy state, eigenbasis and state a next cycle starts from is real,
    # and the traces are those of the same target run as complex128; plus^M and
    # zero^M themselves run on diagonals, so the dense engine gets a tilted target
    dtypes = []

    def decomposed(rho):
        vals, vecs = spectral_decomposition(rho)
        dtypes.extend([("noisy", rho.dtype), ("vecs", vecs.dtype)])
        return vals, vecs

    def unpurified(rho, psi):
        dtypes.append(("noisy", rho.dtype))
        return fidelity(rho, psi)

    def rebuilt(weights, vecs):
        state = from_spectrum(weights, vecs)
        dtypes.append(("state", state.dtype))
        return state

    psi = tilted(target, qubits)
    assert psi.dtype == np.float64
    for kind, fraction in STACKED_KINDS:
        model = NoiseModel(kind, (0.05, 0.37, 0.9), fraction)
        with monkeypatch.context() as patch:
            patch.setattr(threshold, "spectral_decomposition", decomposed)
            patch.setattr(threshold, "fidelity", unpurified)
            patch.setattr(threshold, "from_spectrum", rebuilt)
            real = run_cycles(psi, model, (0, 1, 3), 3).fidelities
        assert {what for what, _ in dtypes} == {"noisy", "vecs", "state"}
        assert all(dtype == np.float64 for _, dtype in dtypes), (kind, fraction, dtypes)
        dtypes.clear()
        cast = run_cycles(psi.astype(complex), model, (0, 1, 3), 3).fidelities
        assert np.max(np.abs(real - cast)) <= 1e-13, (kind, fraction)


# ----------------------------------------------------------------------
# stabilizer targets: plus^M and zero^M on a 2^M diagonal
# ----------------------------------------------------------------------

def spec(target, qubits):
    """The parsed form of ``target(qubits)``, for plus_state or zero_state."""
    return ProductState(target.__name__.removesuffix("_state"), qubits)


def diagonal(target, qubits):
    """The 2^M diagonal of ``target(qubits)``, reached directly whatever the channel."""
    return threshold._Diagonal(qubits, "IX" if target is plus_state else "IZ")


@pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("target", [plus_state, zero_state])
def test_stabilizer_targets_match_the_dense_oracle(qubits, target):
    # up to six cycles, before rounding steers the dense trace of plus^M under
    # dephasing (test_long_plus_traces_follow_the_walsh_recursion); the diagonal
    # runs every kind here, where a parsed target takes it for a twirl subset only
    psi = target(qubits)
    p_values, rounds = (0.0, 0.05, 0.37, 0.75, 1.0), (0, 1, 3, 5)
    for kind, fraction in STACKED_KINDS:
        traces = run_cycles(diagonal(target, qubits), NoiseModel(kind, p_values, fraction),
                            rounds, 6).fidelities
        for i, p in enumerate(p_values):
            for j, r in enumerate(rounds):
                oracle = cell_oracle(psi, NoiseModel(kind, p, fraction), r, 6)
                assert np.max(np.abs(traces[i, j] - oracle)) <= 1e-13, (kind, fraction, p, r)


PARSED = [("plus", ()), ("zero", ()), ("bloch", (1.0, 0.4))]


@pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("name, angles", PARSED)
def test_product_and_werner_cells_match_the_dense_oracle(qubits, name, angles):
    # every untwirled kind and the full twirl, against the vector's d x d engine
    target = ProductState(name, qubits, angles)
    p_values, rounds = (0.0, 0.05, 0.37, 0.75, 1.0), (0, 1, 3, 5)
    for kind, fraction in STACKED_KINDS:
        model = NoiseModel(kind, p_values, fraction)
        rep = threshold.representation(target, model)
        if fraction < 1.0:
            assert rep.cell_qubits == qubits
            continue
        werner = kind == "global-depol"
        assert isinstance(rep, threshold._Werner) == werner
        assert (rep.qubits, rep.copies) == (qubits, 1 if werner else qubits)
        cells = run_cycles(target, model, rounds, 6).fidelities
        dense = run_cycles(target.vector(), model, rounds, 6).fidelities
        assert np.max(np.abs(cells - dense)) <= 1e-13, (kind, fraction)


@pytest.mark.parametrize("qubits", [1, 2, 6, 20, 64])
@pytest.mark.parametrize("name, angles", PARSED)
def test_werner_cells_follow_the_werner_recursion(qubits, name, angles):
    target = ProductState(name, qubits, angles)
    for p, rounds in ((0.1, 1), (0.3, 2), (0.6, 0), (0.5, 3), (1.0, 1)):
        trace = run_cycles(target, NoiseModel("global-depol", p), rounds, 300).fidelities
        scalar = werner_cycle_fidelities(2 ** qubits, p, rounds, 300)
        assert np.max(np.abs(trace - scalar)) < 1e-12, (p, rounds)


def test_registers_past_their_representation_limit_are_refused():
    # one qubit's copies and Werner states up to MAX_PRODUCT_QUBITS; the twirl subset
    # holds the whole register, up to MAX_DENSE_QUBITS
    big, over = threshold.MAX_PRODUCT_QUBITS, threshold.MAX_PRODUCT_QUBITS + 1
    for kind, fraction in STACKED_KINDS:
        limit = big if fraction == 1.0 else states.MAX_DENSE_QUBITS
        for name, angles in PARSED:
            model = NoiseModel(kind, 0.1, fraction)
            assert threshold.representation(ProductState(name, limit, angles), model).qubits == limit
            with pytest.raises(ResourceLimitError, match=f"limit of {limit}"):
                run_cycles(ProductState(name, limit + 1, angles), model, 1, 1)
    with pytest.raises(ResourceLimitError, match=f"limit of {big}"):
        sweep(ProductState("plus", over), NoiseModel("dephasing", 0.0), [0.1, 0.2], (0, 1))


def test_only_the_exact_stabilizer_targets_take_the_diagonal():
    # bloch:pi/2,0 is plus up to one ulp and stays dense; bloch:0,0 is zero exactly.
    # A twirl subset holds the register, any other channel one qubit of it
    subset, local = NoiseModel("twirled-dephasing", 0.0, 0.2), NoiseModel("dephasing", 0.0)
    for target, letters in ((ProductState("plus", 3), "IX"), (ProductState("zero", 3), "IZ"),
                            (ProductState("bloch", 3, (0.0, 0.0)), "IZ"),
                            (ProductState("bloch", 3, (np.pi / 2, 0.0)), "IXYZ"),
                            (ProductState("bloch", 3, (0.7, 0.3)), "IXYZ"),
                            (ProductState("bloch", 3, (np.pi, 0.0)), "IXYZ")):
        whole, cell = threshold.representation(target, subset), threshold.representation(target, local)
        assert whole.letters == cell.letters == letters
        assert (whole.cell_qubits, whole.copies, cell.cell_qubits, cell.copies) == (3, 1, 1, 3)
        assert whole.qubits == cell.qubits == 3
    # a vector runs on the dense engine, whatever it holds
    for psi in (plus_state(3), zero_state(3), plus_state(3)[::-1] * np.repeat([1, -1], 4)):
        for model in (subset, local, NoiseModel("global-depol", 0.0)):
            assert threshold.representation(psi, model).letters == "IXYZ"


@pytest.mark.parametrize("target", [plus_state, zero_state])
def test_stabilizer_bits_do_not_depend_on_stacks_blocks_or_jobs(monkeypatch, target):
    # every representation a parsed target takes: Werner, one qubit's copies, the diagonal
    monkeypatch.setattr(threshold, "available_cpus", lambda: 2)
    monkeypatch.setattr(threshold, "MIN_WORKER_WORK", 1)
    psi, p_values, rounds = spec(target, 3), np.linspace(0, 1, 7), (0, 1, 3)
    for kind, fraction in STACKED_KINDS:
        model = NoiseModel(kind, 0.0, fraction)
        cell_bytes = threshold.representation(psi, model).cell_bytes
        cells = np.array([[run_cycles(psi, replace(model, p=float(p)), r, 5).fidelities
                           for r in rounds] for p in p_values])
        stacked = run_cycles(psi, replace(model, p=tuple(p_values.tolist())), rounds, 5)
        assert np.array_equal(stacked.fidelities, cells), (kind, fraction)
        # the whole grid, one cell per block, and blocks of two p by two rounds
        for budget in (threshold.BLOCK_BYTES, cell_bytes, 4 * cell_bytes):
            with monkeypatch.context() as patch:
                patch.setattr(threshold, "BLOCK_BYTES", budget)
                for jobs in (1, 2):
                    result = sweep(psi, model, p_values, rounds, cycles=5, jobs=jobs)
                    assert np.array_equal(result.traces, cells), (kind, fraction, budget, jobs)


@pytest.mark.parametrize("target", [plus_state, zero_state])
def test_stabilizer_global_depol_follows_the_werner_recursion(target):
    for qubits in (1, 2, 3, 4):
        for p, rounds in ((0.1, 1), (0.3, 2), (0.6, 0), (0.5, 3)):
            for target_form in (diagonal(target, qubits), spec(target, qubits)):
                trace = run_cycles(target_form, NoiseModel("global-depol", p), rounds, 300)
                scalar = werner_cycle_fidelities(2 ** qubits, p, rounds, 300)
                assert np.max(np.abs(trace.fidelities - scalar)) < 1e-12, (qubits, p, rounds)


@pytest.mark.parametrize("kind", ["local-depol", "dephasing"])
@pytest.mark.parametrize("target", [plus_state, zero_state])
def test_stabilizer_product_traces_factorize_up_to_16_qubits(kind, target):
    # one qubit's copies against the 2^M diagonal, which runs all M qubits
    model = NoiseModel(kind, (0.05, 0.3, 0.6))
    for qubits in (2, 5, 9, 16):
        product = run_cycles(spec(target, qubits), model, (0, 1, 3), 6)
        assert threshold.representation(spec(target, qubits), model).cell_qubits == 1
        traces = run_cycles(diagonal(target, qubits), model, (0, 1, 3), 6).fidelities
        assert np.max(np.abs(product.fidelities - traces)) < 1e-13, qubits


@pytest.mark.parametrize("qubits, kind, fraction", [(3, "dephasing", 1.0),
                                                    (2, "twirled-dephasing", 0.2)])
def test_long_plus_traces_follow_the_walsh_recursion(qubits, kind, fraction):
    # a dense state of plus^M let rounding seed the I/Z strings, which these
    # channels leave undamped and purification amplifies: 0.1250051 and
    # 0.9994675 at t = 30 in 0.11.2. The diagonal cannot leave the X basis.
    trace = run_cycles(spec(plus_state, qubits), NoiseModel(kind, 0.4, fraction), 5,
                       30).fidelities
    oracle = plus_cycle_fidelities(qubits, kind, 0.4, 5, 30, fraction)
    assert np.max(np.abs(trace - oracle)) < 1e-9
    assert oracle[-1] == pytest.approx(0.99999304614 if qubits == 3 else 0.9999954, abs=1e-7)


def test_stabilizer_targets_decompose_and_build_no_matrix(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("a dense step ran on a stabilizer target")

    for owner, name in ((states, "spectral_decomposition"), (purify, "spectral_decomposition"),
                        (channels, "apply_pauli_diagonal"),
                        (threshold, "spectral_decomposition"), (threshold, "from_spectrum"),
                        (threshold, "density_from_pure"), (threshold, "fidelity")):
        monkeypatch.setattr(owner, name, refuse)
    for target in (plus_state, zero_state):
        for kind, fraction in STACKED_KINDS:
            sweep(spec(target, 4), NoiseModel(kind, 0.0, fraction), np.linspace(0, 1, 5),
                  (0, 1, 3), cycles=3)
    argv = ["threshold", "--channel", "dephasing", "--M", "5", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 0


@pytest.mark.parametrize("channel, expected", [("local-depol", "0.75"), ("dephasing", "0.5"),
                                               ("global-depol", "1.0"),
                                               ("dephasing --twirl 1", "0.75")])
@pytest.mark.parametrize("state", ["plus", "zero", "bloch:1,0.4"])
def test_large_registers_build_no_vector(monkeypatch, tmp_path, capsys, channel, expected, state):
    # one qubit's copies and Werner states hold a few values at any M: no vector of more
    # than one qubit is built, nor a channel on more than one
    def refusing(build, qubits_at=-1):
        def build_small(*args):
            assert args[qubits_at] == 1, f"{build.__name__} ran on more than one qubit"
            return build(*args)
        return build_small

    for name in ("plus_state", "zero_state", "bloch_state"):
        monkeypatch.setattr(states, name, refusing(getattr(states, name)))
    monkeypatch.setattr(NoiseModel, "transfer_eigenvalues",
                        refusing(NoiseModel.transfer_eigenvalues, 1))
    out = tmp_path / "t.csv"
    argv = ["threshold", "--channel", *channel.split(), "--out", str(out),
            "--state", f"{state}^{threshold.MAX_PRODUCT_QUBITS}"]
    # zero^M has no crossing under dephasing, which leaves it as it is
    assert main(argv) == (2 if (state, channel) == ("zero", "dephasing") else 0)
    header = dict(line[2:].split(": ", 1) for line in out.read_text().splitlines()
                  if line.startswith("# "))
    if state == "plus":
        assert header["p-threshold"] == expected


def _recording_blocks(blocks):
    """``run_cycles`` stand-in that records each block's (p values, rounds values)."""
    def recording(psi0, model, rounds, cycles):
        blocks.append((len(model.p), len(rounds)))
        return _zero_run_cycles(psi0, model, rounds, cycles)
    return recording


def test_sweep_blocks_and_workers_follow_the_representation(monkeypatch):
    # a diagonal holds 8 d bytes and counts no worker work, a dense state 16 d^2 and d^3;
    # one qubit's copies hold that qubit's cell, a Werner state two values
    monkeypatch.setattr(threshold, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(threshold.os, "sched_getaffinity", _cpus(16))
    blocks = []
    monkeypatch.setattr(threshold, "run_cycles", _recording_blocks(blocks))
    model, grid, rounds = NoiseModel("local-depol", 0.0), np.linspace(0, 1, 41), (0, 1, 2, 3, 5)
    subset, werner = NoiseModel("twirled-dephasing", 0.0, 0.2), NoiseModel("global-depol", 0.0)
    bloch5 = ProductState("bloch", 5, (0.7, 0.3))
    for psi, kind, cost in ((ProductState("plus", 5), subset, (256, 0)),
                            (bloch_state(0.7, 0.3, 5), model, (16384, 32768)),
                            (bloch5, subset, (16384, 32768)), (ProductState("plus", 5), model, (16, 0)),
                            (bloch5, model, (64, 8)), (bloch5, werner, (16, 0))):
        rep = threshold.representation(psi, kind)
        assert (rep.cell_bytes, rep.cell_work) == cost
    # the default threshold grid at M = 5: one block on a diagonal, three dense
    sweep(ProductState("plus", 5), subset, grid, rounds, cycles=1, jobs=1)
    assert blocks == [(41, 5)]
    blocks.clear()
    sweep(bloch_state(0.7, 0.3, 5), model, grid, rounds, cycles=1, jobs=1)
    assert blocks == [(16, 5), (16, 5), (9, 5)]
    # a diagonal grid starts no pool at any --jobs, whatever its length,
    # even under a floor of one unit
    monkeypatch.setattr(threshold, "MIN_WORKER_WORK", 1)
    for cycles in (30, 1000):
        blocks.clear()
        sweep(ProductState("plus", 8), subset, grid, rounds, cycles=cycles, jobs=64)
        assert blocks == [(25, 5), (16, 5)]
    assert _RecordingPool.sizes == []


def test_sweep_blocks_split_along_rounds(monkeypatch):
    # a budget of two states gives one-p blocks of two rounds values, bit for bit
    psi, model = bloch_state(0.7, 0.3, 2), NoiseModel("dephasing", 0.0)
    p_values, rounds = np.linspace(0, 1, 3), (0, 1, 2, 3, 70)
    whole = sweep(psi, model, p_values, rounds, cycles=4)
    blocks = []
    record = _recording_blocks(blocks)

    def recording_run_cycles(psi0, model, rounds, cycles):
        record(psi0, model, rounds, cycles)
        return run_cycles(psi0, model, rounds, cycles)

    monkeypatch.setattr(threshold, "run_cycles", recording_run_cycles)
    monkeypatch.setattr(threshold, "BLOCK_BYTES",
                        2 * threshold.representation(psi, model).cell_bytes)
    split = sweep(psi, model, p_values, rounds, cycles=4)
    assert blocks == [(1, 2), (1, 2), (1, 1)] * 3
    assert np.array_equal(whole.traces, split.traces)
    # one cycle holds one state per p, whatever the rounds
    blocks.clear()
    one = sweep(psi, model, p_values, rounds, cycles=1)
    assert blocks == [(2, 5), (1, 5)]
    assert np.array_equal(one.traces, whole.traces[..., :2])


# ----------------------------------------------------------------------
# steady states
# ----------------------------------------------------------------------

def test_steady_state_examples():
    assert steady_state_fidelity_analytic(2, 0.1) == pytest.approx(0.996904, abs=1e-6)
    assert steady_state_fidelity_analytic(4, 0.0) == pytest.approx(1.0)


def test_steady_state_matches_iterated_map():
    value = steady_state_fidelity_analytic(2, 0.1)
    trace = run_cycles(plus_state(1), NoiseModel("global-depol", 0.1), 1, 200)
    assert abs(trace.fidelities[-1] - value) < 1e-8


def test_steady_state_undefined_domain():
    with pytest.raises(UndefinedSteadyStateError):
        steady_state_fidelity_analytic(2, 0.8)
    with pytest.raises(UndefinedSteadyStateError):
        steady_state_fidelity_analytic(2, 1.0)


def test_werner_scalar_recursion_matches_matrix_engine():
    for dim_qubits, p, rounds in [(1, 0.1, 1), (2, 0.2, 2), (1, 0.3, 0)]:
        trace = run_cycles(plus_state(dim_qubits), NoiseModel("global-depol", p),
                           rounds, 25)
        scalar = werner_cycle_fidelities(2 ** dim_qubits, p, rounds, 25)
        assert np.max(np.abs(trace.fidelities - scalar)) < 1e-10


# ----------------------------------------------------------------------
# sweeps and thresholds
# ----------------------------------------------------------------------

def test_sweep_grid_and_monotonicity():
    p_values = np.linspace(0, 0.7, 15)
    result = sweep(plus_state(1), NoiseModel("local-depol", 0.0), p_values,
                   (0, 1, 2), cycles=10)
    assert result.gamma.shape == (15, 3)
    assert np.allclose(result.gamma[0], 0.0, atol=1e-12)
    # below threshold more purification rounds mean lower logical error
    for j in (1, 2):
        assert np.all(result.gamma[1:, j] <= result.gamma[1:, j - 1] + 1e-10)


ORACLE_MODELS = [NoiseModel("global-depol", 0.0), NoiseModel("local-depol", 0.0),
                 NoiseModel("dephasing", 0.0), NoiseModel("twirled-dephasing", 0.0),
                 NoiseModel("twirled-dephasing", 0.0, twirl_fraction=0.2, twirl_seed=7)]


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: f"{m.kind}-{m.twirl_fraction}")
# "plus3" is a real target 0.3 rad off plus^3: plus^3 itself runs on diagonals
@pytest.mark.parametrize("psi", [tilted(plus_state, 3), bloch_state(0.7, 0.3, 2)],
                         ids=["plus3", "bloch2"])
def test_sweep_traces_match_per_cell_oracle(psi, model):
    p_values = np.linspace(0, 1, 6)
    rounds = (0, 1, 2, 5)
    result = sweep(psi, model, p_values, rounds, cycles=3)
    for i, p in enumerate(p_values):
        for j, r in enumerate(rounds):
            oracle = cell_oracle(psi, NoiseModel(model.kind, float(p), model.twirl_fraction,
                                                 model.twirl_seed), r, 3)
            assert np.array_equal(result.traces[i, j], oracle), (p, r)


def test_a_block_applies_its_channel_once_per_cycle(monkeypatch):
    # one closure for the block's p values, called once on the whole stack per cycle
    builds, applications = [], []
    make = threshold.make_channel

    def counting_make_channel(model, qubits, letters):
        builds.append(model.p)
        channel = make(model, qubits, letters)

        def counting_channel(rho):
            applications.append(rho.shape)
            return channel(rho)
        return counting_channel

    monkeypatch.setattr(threshold, "make_channel", counting_make_channel)
    p_values = np.linspace(0, 1, 5)
    # a dense state, and the 2-entry diagonal of one qubit of plus^2
    for psi, shape in ((bloch_state(0.7, 0.0, 2).real, (4, 4)), (ProductState("plus", 2), (2,))):
        builds.clear()
        applications.clear()
        sweep(psi, NoiseModel("local-depol", 0.0), p_values, (0, 1, 3), cycles=3)
        assert builds == [tuple(p_values.tolist())]
        assert applications == [shape, (5, 3) + shape, (5, 3) + shape]


def test_purified_states_are_built_only_for_a_next_cycle(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("a purified state was built")

    monkeypatch.setattr(purify, "purified_state", refuse)
    for owner in (purify, threshold):
        monkeypatch.setattr(owner, "from_spectrum", refuse)
    model, p_values, rounds = NoiseModel("local-depol", 0.0), np.linspace(0, 1, 5), (0, 1, 3)
    psi = bloch_state(0.7, 0.0, 2).real
    one = sweep(psi, model, p_values, rounds, cycles=1)
    argv = ["purify", "--state", "bloch:0.7,0^2", "--channel", "local-depol", "--p", "0.2",
            "--ell", "0..70"]
    assert main(argv + ["--out", str(tmp_path / "purify.csv")]) == 0

    monkeypatch.undo()
    built = []

    def counting(weights, vecs):
        built.append(weights.shape)
        return from_spectrum(weights, vecs)

    monkeypatch.setattr(threshold, "from_spectrum", counting)
    three = sweep(psi, model, p_values, rounds, cycles=3)
    # cycles 1 and 2 build the states of the two purified columns; cycle 3 builds none
    assert built == [(len(p_values), 4)] * 4
    assert np.array_equal(three.traces[..., :2], one.traces)


# OpenBLAS thread control of this process, if numpy's BLAS has one
BLAS_CONTROLS = threshold._openblas_controls()
needs_openblas = pytest.mark.skipif(not BLAS_CONTROLS,
                                    reason="no OpenBLAS thread-count symbols found")


def blas_counts():
    return [get_count() for get_count, _ in BLAS_CONTROLS]


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS on two threads for the test, so a pin to one shows."""
    counts = blas_counts()
    for _, set_count in BLAS_CONTROLS:
        set_count(2)
    yield [2] * len(BLAS_CONTROLS)
    for (_, set_count), count in zip(BLAS_CONTROLS, counts):
        set_count(count)


def test_sweep_traces_do_not_depend_on_blocks(monkeypatch, two_blas_threads):
    # jobs=1 runs on two BLAS threads and jobs=2 on one, with the same bits
    monkeypatch.setattr(threshold, "available_cpus", lambda: 2)
    model = NoiseModel("local-depol", 0.0)
    p_values = np.linspace(0, 1, 7)
    for psi in (bloch_state(0.7, 0.3, 3), ProductState("bloch", 6, (0.7, 0.3)),
                tilted(plus_state, 6)):
        whole = sweep(psi, model, p_values, (0, 1, 3), cycles=4, jobs=1)
        halves = [run_cycles(psi, NoiseModel("local-depol", tuple(part.tolist())),
                             (0, 1, 3), 4).fidelities for part in (p_values[:3], p_values[3:])]
        assert np.array_equal(whole.traces, np.concatenate(halves))
        # a byte budget of two p values per block splits the grid into four blocks
        with monkeypatch.context() as patch:
            patch.setattr(threshold, "BLOCK_BYTES",
                          2 * threshold.representation(psi, model).cell_bytes * 3)
            for jobs in (1, 2):
                split = sweep(psi, model, p_values, (0, 1, 3), cycles=4, jobs=jobs)
                assert np.array_equal(whole.traces, split.traces), (psi.size, jobs)


def test_sweep_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(threshold, "MIN_WORKER_WORK", 1)
    p_values = np.linspace(0, 1, 5)
    serial = sweep(tilted(plus_state, 1), NoiseModel("dephasing", 0.0), p_values,
                   (0, 1), cycles=5, jobs=1)
    parallel = sweep(tilted(plus_state, 1), NoiseModel("dephasing", 0.0), p_values,
                     (0, 1), cycles=5, jobs=2)
    assert np.array_equal(serial.traces, parallel.traces)


def test_sweep_workers_are_threads_with_serial_bits(monkeypatch):
    # blocks run on threads of this process: nothing forks, and two workers
    # that build the same channel on a cold twirl cache give the serial bits
    def no_fork():
        raise AssertionError("sweep forked a worker process")

    workers = set()

    def recording_run_cycles(*args):
        workers.add(threading.get_ident())
        return run_cycles(*args)

    monkeypatch.setattr(threshold.os, "fork", no_fork)
    monkeypatch.setattr(threshold, "available_cpus", lambda: 2)
    monkeypatch.setattr(threshold, "MIN_WORKER_WORK", 1)
    monkeypatch.setattr(threshold, "run_cycles", recording_run_cycles)
    psi = bloch_state(0.7, 0.3, 2)
    p_values = np.linspace(0, 1, 5)
    for model in ORACLE_MODELS:
        _seeded_damping_shares.cache_clear()
        parallel = sweep(psi, model, p_values, (0, 1, 3), cycles=3, jobs=2)
        serial = sweep(psi, model, p_values, (0, 1, 3), cycles=3, jobs=1)
        assert np.array_equal(parallel.traces, serial.traces), model
    assert workers - {threading.get_ident()}


def _counting_run_cycles(counts, fail_at=None):
    """``run_cycles`` that records the BLAS thread counts each call sees."""
    def counting(*args):
        counts.append(blas_counts())
        if len(counts) == fail_at:
            raise RuntimeError("worker failed")
        return run_cycles(*args)
    return counting


@needs_openblas
def test_parallel_sweep_pins_blas_to_one_thread(monkeypatch, two_blas_threads):
    monkeypatch.setattr(threshold, "available_cpus", lambda: 2)
    psi, model = tilted(plus_state, 2), NoiseModel("local-depol", 0.0)
    p_values = np.linspace(0, 1, 4)
    with monkeypatch.context() as patch:
        patch.setattr(threshold, "MIN_WORKER_WORK", 1)
        for jobs, inside in ((2, [1] * len(BLAS_CONTROLS)), (1, two_blas_threads)):
            counts = []
            patch.setattr(threshold, "run_cycles", _counting_run_cycles(counts))
            sweep(psi, model, p_values, (0, 1), cycles=2, jobs=jobs)
            assert counts and all(seen == inside for seen in counts), jobs
            assert blas_counts() == two_blas_threads
        # a worker that raises still restores the count, and releases the pin
        patch.setattr(threshold, "run_cycles", _counting_run_cycles([], fail_at=1))
        with pytest.raises(RuntimeError, match="worker failed"):
            sweep(psi, model, p_values, (0, 1), cycles=2, jobs=2)
        assert blas_counts() == two_blas_threads
        assert not threshold._BLAS_PIN_LOCK.locked()
    # under the work floor a jobs=2 sweep runs every block on the calling
    # thread, still on one BLAS thread, and restores the count after it,
    # also when a block raises; a byte budget of one p value makes four blocks
    rep = threshold.representation(psi, model)
    assert len(p_values) * 2 * 2 * rep.cell_work < threshold.MIN_WORKER_WORK
    monkeypatch.setattr(threshold, "BLOCK_BYTES", rep.cell_bytes * 2)
    calls = []

    def calling_thread_run_cycles(*args):
        calls.append((threading.get_ident(), blas_counts()))
        return run_cycles(*args)

    monkeypatch.setattr(threshold, "run_cycles", calling_thread_run_cycles)
    sweep(psi, model, p_values, (0, 1), cycles=2, jobs=2)
    assert calls == [(threading.get_ident(), [1] * len(BLAS_CONTROLS))] * 4
    assert blas_counts() == two_blas_threads
    monkeypatch.setattr(threshold, "run_cycles", _counting_run_cycles([], fail_at=2))
    with pytest.raises(RuntimeError, match="worker failed"):
        sweep(psi, model, p_values, (0, 1), cycles=2, jobs=2)
    assert blas_counts() == two_blas_threads
    assert not threshold._BLAS_PIN_LOCK.locked()


@needs_openblas
def test_grids_without_worker_work_stay_unpinned(monkeypatch, two_blas_threads):
    # diagonals and Werner states make no BLAS call large enough to thread
    counts = []
    monkeypatch.setattr(threshold, "run_cycles", _counting_run_cycles(counts))
    for kind, fraction in STACKED_KINDS:
        model = NoiseModel(kind, 0.0, fraction)
        assert threshold.representation(ProductState("plus", 3), model).cell_work == 0
        sweep(ProductState("plus", 3), model, np.linspace(0, 1, 4), (0, 1), cycles=2, jobs=2)
    assert len(counts) == len(STACKED_KINDS)
    assert all(seen == two_blas_threads for seen in counts)


def test_sweep_without_blas_control_runs_unpinned(monkeypatch, two_blas_threads):
    # where no OpenBLAS thread control is found, the workers share the CPUs
    # with BLAS's threads and the traces keep their bits
    monkeypatch.setattr(threshold, "available_cpus", lambda: 2)
    monkeypatch.setattr(threshold, "MIN_WORKER_WORK", 1)
    psi, p_values = bloch_state(0.7, 0.3, 3), np.linspace(0, 1, 6)
    model = ORACLE_MODELS[-1]
    pinned = sweep(psi, model, p_values, (0, 1, 3), cycles=3, jobs=2)
    counts = []
    monkeypatch.setattr(threshold, "_openblas_controls", lambda: ())
    monkeypatch.setattr(threshold, "run_cycles", _counting_run_cycles(counts))
    unpinned = sweep(psi, model, p_values, (0, 1, 3), cycles=3, jobs=2)
    assert np.array_equal(pinned.traces, unpinned.traces)
    assert counts and all(seen == two_blas_threads for seen in counts)


@needs_openblas
def test_overlapping_parallel_sweeps_restore_blas_count(monkeypatch, two_blas_threads):
    # sweep A (dephasing) pins BLAS, and its workers wait until sweep B
    # (local-depol) has asked for the pin; B's workers wait until A has
    # returned. B must take the pin after A restored the count, or B's
    # workers run unpinned and B restores A's pin.
    monkeypatch.setattr(threshold, "available_cpus", lambda: 2)
    monkeypatch.setattr(threshold, "MIN_WORKER_WORK", 1)
    a_running, b_asked, a_done = threading.Event(), threading.Event(), threading.Event()
    find = threshold._openblas_controls

    def finding():
        if threading.current_thread().name == "sweep-b":
            b_asked.set()
        return find()

    counts = []

    def waiting_run_cycles(psi, model, rounds, cycles):
        if model.kind == "dephasing":
            a_running.set()
            b_asked.wait(timeout=5)
        else:
            a_done.wait(timeout=5)
        counts.append(blas_counts())
        return run_cycles(psi, model, rounds, cycles)

    monkeypatch.setattr(threshold, "_openblas_controls", finding)
    monkeypatch.setattr(threshold, "run_cycles", waiting_run_cycles)
    results = {}

    def run(kind, done=None):
        results[kind] = sweep(tilted(plus_state, 2), NoiseModel(kind, 0.0), np.linspace(0, 1, 4),
                              (0, 1), cycles=2, jobs=2)
        if done is not None:
            done.set()

    sweep_a = threading.Thread(target=run, args=("dephasing", a_done), name="sweep-a")
    sweep_b = threading.Thread(target=run, args=("local-depol",), name="sweep-b")
    sweep_a.start()
    assert a_running.wait(timeout=5)
    sweep_b.start()
    for thread in (sweep_a, sweep_b):
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert b_asked.is_set() and sorted(results) == ["dephasing", "local-depol"]
    assert len(counts) == 4 and all(seen == [1] * len(BLAS_CONTROLS) for seen in counts)
    assert blas_counts() == two_blas_threads


class _RecordingPool:
    """Serial stand-in for ThreadPoolExecutor that records its size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def _cpus(count):
    return lambda pid: set(range(count))


def _zero_run_cycles(psi0, model, rounds, cycles):
    """``run_cycles`` stand-in that returns zero traces of the right shape."""
    return threshold.CycleTrace(fidelities=np.zeros((len(model.p), len(rounds), cycles + 1)),
                                channel=model, rounds=tuple(rounds),
                                qubits=psi0.qubits, cycles=cycles,
                                cell_gamma=np.zeros((len(model.p), len(rounds))))


def test_sweep_caps_workers_at_cpus_and_cells(monkeypatch):
    # workers are capped at the CPUs this process may use and at the blocks
    # of p values, whatever the number of rounds values
    monkeypatch.setattr(threshold, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(threshold.os, "cpu_count", lambda: 64)
    model = NoiseModel("dephasing", 0.0)
    with monkeypatch.context() as patch:
        patch.setattr(threshold, "MIN_WORKER_WORK", 1)
        # a dense target: a diagonal grid runs on the calling thread
        psi = tilted(plus_state, 1)
        patch.setattr(threshold.os, "sched_getaffinity", _cpus(2))
        sweep(psi, model, [0.1, 0.2, 0.3], (0, 1), cycles=1, jobs=64)
        patch.setattr(threshold.os, "sched_getaffinity", _cpus(16))
        sweep(psi, model, [0.1, 0.2, 0.3], (0,), cycles=1, jobs=64)
        sweep(psi, model, [0.1, 0.2, 0.3], (0, 1), cycles=1, jobs=4)
        # five p values in blocks of two: three blocks for four workers
        sweep(psi, model, np.linspace(0, 1, 5), (0, 1), cycles=1, jobs=4)
        # one worker, or one p value, runs serially without a pool
        sweep(psi, model, [0.1], (0, 1, 2), cycles=1, jobs=64)
        sweep(psi, model, [0.1, 0.2], (0,), cycles=1, jobs=1)
        assert _RecordingPool.sizes == [2, 3, 3, 3]
    # with the real floor, a dense grid whose work (cells x cycles x d^3) holds
    # k floors starts min(k, CPUs, blocks) workers, and none below two floors;
    # these grids are sized by their work, so their cells are not run
    _RecordingPool.sizes.clear()
    monkeypatch.setattr(threshold, "run_cycles", _zero_run_cycles)
    monkeypatch.setattr(threshold.os, "sched_getaffinity", _cpus(16))
    psi = bloch_state(0.7, 0.3, 5)
    floors = [p_count * cycles * psi.size ** 3 // threshold.MIN_WORKER_WORK
              for p_count, cycles in ((5, 61), (6, 51), (5, 183), (6, 153), (5, 245))]
    assert floors == [0, 1, 2, 3, 4]
    sweep(plus_state(1), model, [0.1, 0.2, 0.3], (0, 1), cycles=1, jobs=64)
    sweep(psi, model, np.linspace(0, 1, 5), (0,), cycles=61, jobs=64)
    sweep(psi, model, np.linspace(0, 1, 6), (0,), cycles=51, jobs=64)
    assert _RecordingPool.sizes == []
    # k = 2 and k = 3 bind; five p values at k = 4 make three blocks of two
    sweep(psi, model, np.linspace(0, 1, 5), (0,), cycles=183, jobs=64)
    sweep(psi, model, np.linspace(0, 1, 6), (0,), cycles=153, jobs=64)
    sweep(psi, model, np.linspace(0, 1, 5), (0,), cycles=245, jobs=64)
    # two CPUs bind at k = 3
    monkeypatch.setattr(threshold.os, "sched_getaffinity", _cpus(2))
    sweep(psi, model, np.linspace(0, 1, 6), (0,), cycles=153, jobs=64)
    assert _RecordingPool.sizes == [2, 3, 3, 2]
    for jobs in (0, -3):
        with pytest.raises(ValidationError):
            sweep(plus_state(1), model, [0.1], (0,), cycles=1, jobs=jobs)


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValidationError):
        sweep(plus_state(1), NoiseModel("dephasing", 0.0), [], (0, 1))


def test_sweep_rejects_negative_rounds_up_front(monkeypatch):
    # checked before any cell runs or any worker starts
    monkeypatch.setattr(threshold, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(threshold, "run_cycles", None)
    for jobs in (1, 2):
        with pytest.raises(ValidationError, match="-1"):
            sweep(plus_state(1), NoiseModel("dephasing", 0.0), [0.1, 0.2], (0, -1),
                  cycles=3, jobs=jobs)
    assert _RecordingPool.sizes == []


def test_sweep_strict_monotonicity_below_threshold():
    # below threshold each extra purification round strictly lowers the
    # logical error rate once p > 0
    p_values = np.linspace(0, 0.7, 15)
    result = sweep(plus_state(1), NoiseModel("local-depol", 0.0), p_values,
                   (0, 1, 2), cycles=10)
    for j in (1, 2):
        diff = result.gamma[1:, j] - result.gamma[1:, j - 1]
        assert np.all(diff < -1e-10)


def test_threshold_local_depol_small_grid():
    p_values = np.linspace(0, 1, 21)
    result = sweep(plus_state(1), NoiseModel("local-depol", 0.0), p_values,
                   (0, 1, 2), cycles=10)
    estimate = find_threshold(result)
    assert estimate.status == "ok"
    assert estimate.p_threshold == pytest.approx(0.75, abs=0.05)


def test_threshold_curves_invert_above_crossing():
    p_values = np.linspace(0, 1, 21)
    result = sweep(plus_state(1), NoiseModel("dephasing", 0.0), p_values,
                   (0, 3), cycles=10)
    below = result.p_values < 0.5 - 1e-9
    above = result.p_values > 0.5 + 1e-9
    diff = result.gamma[:, 1] - result.gamma[:, 0]
    assert np.all(diff[below & (result.p_values > 0)] < 0)
    assert np.all(diff[above] >= -1e-12)
    assert np.any(diff[above] > 1e-3)


def test_deep_purification_suppresses_errors_everywhere_below_one():
    # twenty rounds (2**20 copies) exercise the log-space power path and
    # flatten the logical error rate essentially to zero for p < 1
    for p in (0.5, 0.9, 0.99):
        trace = run_cycles(plus_state(1), NoiseModel("global-depol", p), 20, 2)
        assert logical_error_rate(trace) < 1e-6
        assert trace.fidelities[2] > 1 - 1e-6


def test_five_qubit_saturation_ladder():
    # below threshold each purification depth pins the fidelity to a steady
    # value strictly above the shallower one; without correction the state
    # decays to the maximally mixed overlap
    steadies = []
    for rounds in (0, 1, 2):
        trace = run_cycles(plus_state(5), NoiseModel("local-depol", 0.3),
                           rounds, 30)
        fids = trace.fidelities
        assert fids[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(fids >= -1e-12) and np.all(fids <= 1 + 1e-12)
        assert abs(fids[30] - fids[29]) < 1e-4  # saturated
        steadies.append(fids[30])
    assert steadies[0] == pytest.approx(1 / 32, abs=1e-3)
    assert steadies[0] < steadies[1] < steadies[2]


@pytest.mark.parametrize("p_values", [[1.0, 0.75, 0.5, 0.25, 0.0], [0.2, 0.1, 0.9],
                                      [0.1, 0.1, 0.2]])
def test_threshold_needs_strictly_increasing_grid(p_values):
    # sweep takes p in any order; a crossing is read from left to right
    model = NoiseModel("local-depol", 0.0)
    result = sweep(plus_state(1), model, p_values, (0, 1), cycles=2)
    ordered = sweep(plus_state(1), model, np.sort(p_values), (0, 1), cycles=2)
    assert np.array_equal(result.traces[np.argsort(p_values, kind="stable")], ordered.traces)
    with pytest.raises(ValidationError, match="increasing"):
        find_threshold(result)


def test_threshold_needs_two_p_values():
    # one point brackets no crossing; it would read as a no-crossing with grid-step 0
    result = sweep(plus_state(1), NoiseModel("local-depol", 0.0), [0.5], (0, 1), cycles=1)
    with pytest.raises(ValidationError, match=">= 2 p values"):
        find_threshold(result)
    threshold.check_threshold_grid([0.4, 0.5], (0, 1))


@pytest.mark.parametrize("rounds", [(1, 1), (0, 1, 1), (2, 0, 2, 1), (3,)])
def test_threshold_needs_two_distinct_rounds_values(rounds):
    # a repeated value would pair a curve with itself: a bogus always-below row
    result = sweep(plus_state(1), NoiseModel("local-depol", 0.0), [0.0, 0.5, 1.0], rounds,
                   cycles=1)
    with pytest.raises(ValidationError, match="distinct rounds"):
        find_threshold(result)


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: f"{m.kind}-{m.twirl_fraction}")
def test_gamma_does_not_depend_on_cycles(model):
    # gamma is the first cycle, which a cell runs the same way however many follow
    psi = bloch_state(0.7, 0.3, 3)
    p_values = np.linspace(0, 1, 11)
    one = sweep(psi, model, p_values, (0, 1, 2, 5), cycles=1)
    many = sweep(psi, model, p_values, (0, 1, 2, 5), cycles=30)
    assert np.array_equal(one.gamma, many.gamma)
    assert np.array_equal(one.traces, many.traces[:, :, :2])


@pytest.mark.parametrize("kind", ["local-depol", "dephasing"])
@pytest.mark.parametrize("target", ["plus", "bloch:0.7,0.3"])
def test_product_target_traces_factorize(kind, target):
    # a local channel and the spectral power both act qubit by qubit on a product
    # state, so F_M(t) = F_1(t)**M, and the gamma curves of any M cross where M = 1's do
    def psi(qubits):
        return plus_state(qubits) if target == "plus" else bloch_state(0.7, 0.3, qubits)

    model = NoiseModel(kind, tuple(np.linspace(0, 1, 11).tolist()))
    single = run_cycles(psi(1), model, (0, 1, 2, 3), 6).fidelities
    for qubits in (2, 4):
        traces = run_cycles(psi(qubits), model, (0, 1, 2, 3), 6).fidelities
        assert np.max(np.abs(traces - single ** qubits)) < 1e-13


def test_threshold_no_crossing_status():
    p_values = np.linspace(0, 0.3, 7)  # grid ends below the crossing
    result = sweep(plus_state(1), NoiseModel("local-depol", 0.0), p_values,
                   (0, 1), cycles=10)
    estimate = find_threshold(result)
    assert estimate.status == "no-crossing"
    assert estimate.p_threshold is None
    assert estimate.crossing_pairs[0].direction == "always-below"


# gamma differences that lie within ZERO_TOL of 0, the edges included
TOUCHING = (-threshold.ZERO_TOL, -threshold.ZERO_TOL / 2, 0.0, threshold.ZERO_TOL / 2,
            threshold.ZERO_TOL)


def seeded_p_grid(rng, n_p):
    """Strictly increasing p: even, even but for one interval near the 1e-9 width rule, or uneven."""
    shape = rng.integers(3)
    if shape == 0:
        low = rng.uniform(0.0, 0.5)
        return np.linspace(low, rng.uniform(low + 0.1, 1.0), n_p), "even"
    if shape == 1:
        p = np.linspace(0.0, 1.0, n_p)
        if n_p > 2:
            p[rng.integers(1, n_p - 1)] += p[1] * rng.choice([-2e-9, -5e-10, 5e-10, 2e-9])
        return p, "nearly-even"
    p = np.cumsum(rng.uniform(0.1, 1.0, n_p))
    return (p - p[0]) / (p[-1] - p[0]), "uneven"


def seeded_difference(rng, p):
    """One rounds pair's gamma difference: a step, a line, a touch or a random walk of signs."""
    n_p, size = p.size, rng.uniform(1e-6, 1e-2)
    shape = rng.integers(4)
    if shape == 0:
        # negative before index k, positive from it: k = 0 and n_p never cross
        k = rng.choice([0, 1, n_p - 1, n_p, rng.integers(0, n_p + 1)])
        return np.where(np.arange(n_p) < k, -size, size)
    if shape == 1:
        return size * (p - rng.uniform(-0.1, 1.1))
    if shape == 2:
        # touching within ZERO_TOL, after a negative run or from the start
        diff = rng.choice(TOUCHING, n_p)
        diff[:rng.integers(0, n_p) if rng.integers(2) else 0] = -size
        return diff
    levels = np.concatenate([[-size, size], TOUCHING])
    return levels[np.repeat(rng.integers(0, levels.size, n_p), rng.integers(1, 4))[:n_p]]


def seeded_threshold_result(rng, n_p, n_rounds):
    p, grid = seeded_p_grid(rng, n_p)
    # columns in increasing rounds order, from a zero or a random first curve
    columns = [np.zeros(n_p) if rng.integers(2) else rng.uniform(0.0, 0.5, n_p)]
    for _ in range(n_rounds - 1):
        columns.append(columns[-1] + seeded_difference(rng, p))
    order = rng.permutation(n_rounds)
    rounds = np.sort(rng.choice(10, n_rounds, replace=False))[order]
    gamma = np.stack(columns, axis=1)[:, order]
    result = threshold.SweepResult(p_values=p, rounds=tuple(rounds.tolist()), gamma=gamma,
                                   steady_fidelity=gamma, traces=gamma[..., None],
                                   channel=NoiseModel("dephasing", 0.0), qubits=1, cycles=1,
                                   cell_gamma=gamma)
    return result, grid


def test_threshold_scan_matches_the_numpy_reference():
    # the one-pass search reads every field with the bits of the point-by-point scan
    rng = np.random.default_rng(34)
    seen = set()
    for case in range(400):
        n_p = 10 ** 4 if case % 40 == 0 else (2, 3, int(rng.integers(4, 80)))[case % 3]
        n_rounds = int(rng.integers(2, 7))
        result, grid = seeded_threshold_result(rng, n_p, n_rounds)
        expected = numpy_find_threshold(result)
        assert find_threshold(result) == expected, case
        crossed = [pair.p_cross for pair in expected.crossing_pairs if pair.p_cross is not None]
        seen |= {f"p={n_p}", f"rounds={n_rounds}", grid,
                 "crossings " + ("odd" if len(crossed) % 2 else "even" if crossed else "none")}
        seen |= {"first" for c in crossed if c <= result.p_values[1]}
        seen |= {"last" for c in crossed if c >= result.p_values[-2]}
        widths = np.diff(result.p_values)
        if grid == "nearly-even" and expected.grid_step != widths[0]:
            seen.add("nearly-even, a width off the step reported")
        columns = dict(zip(result.rounds, result.gamma.T))
        for pair in expected.crossing_pairs:
            diff = columns[pair.rounds_high] - columns[pair.rounds_low]
            if pair.p_cross is None and np.any(np.abs(diff) <= threshold.ZERO_TOL):
                seen.add("touching, no crossing")
    assert seen >= {"p=2", "p=3", "p=10000", "even", "nearly-even", "uneven", "first", "last",
                    "crossings odd", "crossings even", "crossings none",
                    "touching, no crossing", "nearly-even, a width off the step reported"} | {f"rounds={n}" for n in range(2, 7)}, seen
