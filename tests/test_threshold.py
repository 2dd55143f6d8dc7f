import numpy as np
import pytest

from pqec import (
    NoiseModel,
    UndefinedSteadyStateError,
    find_threshold,
    logical_error_rate,
    plus_state,
    run_cycles,
    steady_state_fidelity_analytic,
    sweep,
    werner_cycle_fidelities,
)
from pqec import threshold
from pqec.states import ValidationError
from pqec.threshold import SweepCellError


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


def test_sweep_parallel_matches_serial():
    p_values = np.linspace(0, 1, 5)
    serial = sweep(plus_state(1), NoiseModel("dephasing", 0.0), p_values,
                   (0, 1), cycles=5, jobs=1)
    parallel = sweep(plus_state(1), NoiseModel("dephasing", 0.0), p_values,
                     (0, 1), cycles=5, jobs=2)
    assert np.array_equal(serial.traces, parallel.traces)


class _RecordingPool:
    """Serial stand-in for ProcessPoolExecutor that records its size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


def test_sweep_caps_workers_at_cpus_and_cells(monkeypatch):
    monkeypatch.setattr(threshold, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    model = NoiseModel("dephasing", 0.0)
    monkeypatch.setattr(threshold.os, "cpu_count", lambda: 2)
    sweep(plus_state(1), model, [0.1, 0.2, 0.3], (0, 1), cycles=1, jobs=64)
    monkeypatch.setattr(threshold.os, "cpu_count", lambda: 16)
    sweep(plus_state(1), model, [0.1, 0.2, 0.3], (0,), cycles=1, jobs=64)
    sweep(plus_state(1), model, [0.1, 0.2, 0.3], (0, 1), cycles=1, jobs=4)
    # one worker, or one cell, runs serially without a pool
    sweep(plus_state(1), model, [0.1], (0,), cycles=1, jobs=64)
    sweep(plus_state(1), model, [0.1, 0.2], (0,), cycles=1, jobs=1)
    assert _RecordingPool.sizes == [2, 3, 4]
    for jobs in (0, -3):
        with pytest.raises(ValidationError):
            sweep(plus_state(1), model, [0.1], (0,), cycles=1, jobs=jobs)


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValidationError):
        sweep(plus_state(1), NoiseModel("dephasing", 0.0), [], (0, 1))


def test_sweep_cell_errors_carry_coordinates():
    with pytest.raises(SweepCellError) as info:
        sweep(plus_state(1), NoiseModel("dephasing", 0.0), [0.1, 0.2], (0, -1),
              cycles=3)
    assert info.value.rounds == -1
    assert "rounds=-1" in str(info.value)


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


def test_threshold_no_crossing_status():
    p_values = np.linspace(0, 0.3, 7)  # grid ends below the crossing
    result = sweep(plus_state(1), NoiseModel("local-depol", 0.0), p_values,
                   (0, 1), cycles=10)
    estimate = find_threshold(result)
    assert estimate.status == "no-crossing"
    assert estimate.p_threshold is None
    assert estimate.crossing_pairs[0].direction == "always-below"
