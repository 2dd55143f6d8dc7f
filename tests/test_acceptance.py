"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy register-size-5
sweeps use two worker threads and stay well inside their runtime budgets.
"""

import math
import time

import numpy as np

from pqec import (
    DEFAULT_SEED,
    NoiseModel,
    channel_matrix_equality,
    bloch_state,
    density_from_pure,
    extract_observable_exact,
    fidelity,
    find_threshold,
    make_channel,
    pauli_matrix,
    plus_state,
    purified_state,
    purity,
    ratio_estimate,
    required_samples,
    run_cycles,
    simulate_shots,
    steady_state_fidelity_analytic,
    sweep,
    werner_fidelity_update,
)
from oracles import anisotropic_qubit_purify_fidelity, conditional_state, \
    conditional_state_two_rounds, generate_twirl_set, parity_weighted_sum, \
    pauli_weight_distribution, plain_sum_check, random_density_matrix, random_pure_state, \
    werner_mixing, werner_state
from test_channels import twirl_by_conjugation

JOBS = 2
Z = pauli_matrix("Z")


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_parity_extraction_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst_parity = 0.0
    worst_plain = 0.0
    for qubits in (1, 2):
        for _ in range(25):
            rho = random_density_matrix(qubits, rng)
            for rounds in (1, 2, 3):
                brute, _ = parity_weighted_sum(rho, rounds)
                exact = np.linalg.matrix_power(rho, 2 ** rounds)
                worst_parity = max(worst_parity, float(np.max(np.abs(brute - exact))))
                worst_plain = max(worst_plain, plain_sum_check(rho, rounds))
    elapsed = time.perf_counter() - start
    ok = worst_parity < 1e-9 and worst_plain < 1e-9 and elapsed < 30.0
    _report(1, "parity-extraction oracle", ok,
            f"max parity dev {worst_parity:.2e}, max plain dev {worst_plain:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_02_two_round_closed_form():
    rng = np.random.default_rng(101)
    worst = 0.0
    signs = [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    for _ in range(20):
        rho = random_density_matrix(1, rng)
        for sig in signs:
            rec = conditional_state(rho, sig)
            direct = conditional_state_two_rounds(rho, sig)
            worst = max(worst, float(np.max(np.abs(rec.state - direct.state))),
                        abs(rec.probability - direct.probability))
    ok = worst < 1e-10
    _report(2, "two-round closed form", ok, f"max deviation {worst:.2e}")


def test_criterion_03_werner_fidelity_map():
    rng = np.random.default_rng(102)
    worst_curve = 0.0
    worst_cross = 0.0
    worst_quad = 0.0
    for dim in (2, 4, 16, 256):
        qubits = dim.bit_length() - 1
        psi = random_pure_state(qubits, rng)
        # mixing parameter in [0, 1] spans fidelities from 1/D up to 1
        for f_in in np.linspace(1.0 / dim + 0.02, 0.98, 10):
            rho = werner_state(werner_mixing(f_in, dim), psi)
            f_out = fidelity(purified_state(rho, 1), psi)
            worst_curve = max(worst_curve,
                              abs(f_out - werner_fidelity_update(f_in, dim)))
        worst_cross = max(worst_cross,
                          abs(werner_fidelity_update(1.0 / dim, dim) - 1.0 / dim))
        eps = 1e-3
        coeff = (1.0 - werner_fidelity_update(1.0 - eps, dim)) * (dim - 1) / eps ** 2
        worst_quad = max(worst_quad, abs(coeff - 1.0))
    ok = worst_curve < 1e-10 and worst_cross <= 1e-12 and worst_quad <= 0.01
    _report(3, "Werner fidelity map", ok,
            f"curve dev {worst_curve:.2e}, crossing dev {worst_cross:.2e}, "
            f"quadratic coeff off by {worst_quad:.2%}")


def test_criterion_04_steady_state():
    worst = 0.0
    example = None
    for qubits in (1, 2):
        dim = 2 ** qubits
        for p in (0.05, 0.1, 0.2):
            target = steady_state_fidelity_analytic(dim, p)
            trace = run_cycles(plus_state(qubits), NoiseModel("global-depol", p),
                               1, 300)
            worst = max(worst, abs(trace.fidelities[-1] - target))
            if dim == 2 and p == 0.1:
                example = target
    ok = worst < 1e-8 and abs(example - 0.996904) < 1e-6
    _report(4, "global-depolarizing steady state", ok,
            f"max |F(T) - F0| {worst:.2e}, F0(D=2,p=0.1) = {example:.6f}")


def test_criterion_05_thresholds():
    start = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 41)
    rounds = (0, 1, 2, 3, 5)
    cases = [
        ("global-depol", 1, 1.00),
        ("local-depol", 1, 0.75),
        ("local-depol", 5, 0.75),
        ("dephasing", 1, 0.50),
        ("dephasing", 5, 0.50),
    ]
    details = []
    ok = True
    m5_elapsed = 0.0
    for kind, qubits, expected in cases:
        t0 = time.perf_counter()
        result = sweep(plus_state(qubits), NoiseModel(kind, 0.0), grid, rounds,
                       cycles=30, jobs=JOBS)
        estimate = find_threshold(result)
        if qubits == 5:
            m5_elapsed += time.perf_counter() - t0
        good = (estimate.status == "ok"
                and abs(estimate.p_threshold - expected) <= 0.02)
        ok &= good
        details.append(f"{kind}/M={qubits}: {estimate.p_threshold:.4f} "
                       f"(want {expected:.2f})")
    elapsed = time.perf_counter() - start
    ok &= m5_elapsed < 600.0
    _report(5, "error thresholds", ok,
            "; ".join(details) + f"; M=5 sweeps {m5_elapsed:.0f}s, total {elapsed:.0f}s")


def test_criterion_06_twirl_equivalence():
    worst_channel = 0.0
    for qubits in (1, 2, 3):
        twirl = generate_twirl_set(qubits, 1.0)
        for p in (0.1, 0.3, 0.6):
            dev = channel_matrix_equality(
                lambda x: twirl_by_conjugation(x, p, twirl),
                make_channel(NoiseModel("local-depol", p), qubits), qubits)
            worst_channel = max(worst_channel, dev)

    grid = np.linspace(0.0, 1.0, 41)
    rounds = (0, 1, 2, 3, 5)
    twirled = sweep(plus_state(3), NoiseModel("twirled-dephasing", 0.0), grid,
                    rounds, cycles=30, jobs=JOBS)
    depol = sweep(plus_state(3), NoiseModel("local-depol", 0.0), grid,
                  rounds, cycles=30, jobs=JOBS)
    cell_dev = max(float(np.max(np.abs(twirled.gamma - depol.gamma))),
                   float(np.max(np.abs(twirled.steady_fidelity
                                       - depol.steady_fidelity))))
    ok = worst_channel < 1e-10 and cell_dev < 1e-9
    _report(6, "full-twirl equivalence", ok,
            f"channel dev {worst_channel:.2e}, sweep cell dev {cell_dev:.2e}")


def test_criterion_07_approximate_twirl():
    grid = np.linspace(0.0, 1.0, 41)
    rounds = (0, 1, 2, 3, 5)
    model5 = NoiseModel("twirled-dephasing", 0.0, twirl_fraction=0.2,
                        twirl_seed=DEFAULT_SEED)
    est5 = find_threshold(sweep(plus_state(5), model5, grid, rounds,
                                cycles=30, jobs=JOBS))
    model1 = NoiseModel("twirled-dephasing", 0.0, twirl_fraction=0.2,
                        twirl_seed=DEFAULT_SEED)
    est1 = find_threshold(sweep(plus_state(1), model1, grid, rounds,
                                cycles=30, jobs=1))
    ok = (est5.status == "ok" and 0.5 < est5.p_threshold < 0.8
          and est1.status == "ok" and abs(est1.p_threshold - 0.5) <= 0.02)
    _report(7, "approximate (20%) twirl", ok,
            f"M=5 p_th {est5.p_threshold:.4f} in (0.5, 0.8); "
            f"M=1 single-gate p_th {est1.p_threshold:.4f} (want 0.50)")


def test_criterion_08_small_p_expansion():
    rng = np.random.default_rng(103)
    worst_slope = 0.0
    worst_loglog = 0.0
    p_grid = np.logspace(-3, -2, 7)
    for _ in range(10):
        psi = random_pure_state(2, rng)
        rho0 = density_from_pure(psi)
        _, mean_weight = pauli_weight_distribution(psi)
        p0 = 1e-3
        depol = lambda p: make_channel(NoiseModel("local-depol", p), 2)(rho0)
        slope = (1.0 - fidelity(depol(p0), psi)) / p0
        worst_slope = max(worst_slope,
                          abs(slope / (4.0 * mean_weight / 3.0) - 1.0))
        infid = [1.0 - fidelity(purified_state(depol(p), 1), psi) for p in p_grid]
        fit = np.polyfit(np.log(p_grid), np.log(infid), 1)[0]
        worst_loglog = max(worst_loglog, abs(fit - 2.0))
    ok = worst_slope <= 0.005 and worst_loglog <= 0.05
    _report(8, "small-p expansion", ok,
            f"slope off by {worst_slope:.2%} (limit 0.5%), "
            f"log-log exponent off by {worst_loglog:.3f} (limit 0.05)")


def test_criterion_09_monte_carlo_estimator():
    rng = np.random.default_rng(104)
    # consistency at 1e5 shots
    consistent = True
    worst_pull = 0.0
    for _ in range(10):
        rho = random_density_matrix(1, rng)
        for rounds in (1, 2):
            shots = simulate_shots(rho, Z, rounds, 100_000, rng)
            res = ratio_estimate(shots)
            exact = extract_observable_exact(Z, rho, rounds)
            pull = abs(res.estimate - exact) / res.standard_error
            worst_pull = max(worst_pull, pull)
            consistent &= pull <= 4.0

    # batch-empirical standard error versus the plug-in formula
    rho = np.diag([0.8, 0.2]).astype(complex)
    estimates = []
    predicted = []
    for _ in range(200):
        res = ratio_estimate(simulate_shots(rho, Z, 1, 2500, rng))
        estimates.append(res.estimate)
        predicted.append(res.standard_error)
    ratio = float(np.std(estimates, ddof=1) / np.mean(predicted))
    se_ok = 1 / 1.25 <= ratio <= 1.25

    # sampling-overhead bound at the prescribed shot count
    eps = 0.05
    trace_n = purity(rho)  # Tr(rho^2) for one round
    n_req = required_samples(eps, trace_n)
    reps = [ratio_estimate(simulate_shots(rho, Z, 1, n_req, rng)).estimate
            for _ in range(50)]
    empirical_se = float(np.std(reps, ddof=1))
    bound_ok = empirical_se <= 1.5 * eps

    ok = consistent and se_ok and bound_ok
    _report(9, "Monte Carlo ratio estimator", ok,
            f"worst pull {worst_pull:.2f} sigma (limit 4); "
            f"SE ratio {ratio:.3f} (limit 1.25); "
            f"empirical SE {empirical_se:.4f} <= {1.5 * eps:.4f} at n={n_req}")


def test_criterion_10_anisotropic_saturation():
    worst = 0.0
    for theta in (0.2, math.pi / 3, math.pi / 2, 2.0):
        for p in (0.0, 0.1, 0.3, 0.5):
            f_in_ref, f_out_ref = anisotropic_qubit_purify_fidelity(theta, p)
            psi = bloch_state(theta, 0.0)
            noisy = make_channel(NoiseModel("dephasing", p), 1)(density_from_pure(psi))
            worst = max(worst, abs(fidelity(noisy, psi) - f_in_ref),
                        abs(fidelity(purified_state(noisy, 1), psi) - f_out_ref))
    _, example = anisotropic_qubit_purify_fidelity(math.pi / 2, 0.3)
    example_ok = abs(example - 0.844828) < 1e-6

    # tilted product states saturate strictly below unit fidelity
    saturation_ok = True
    details = []
    for qubits in (1, 3):
        psi = bloch_state(math.pi / 3, math.pi / 4, qubits)
        noisy = make_channel(NoiseModel("dephasing", 0.3), qubits)(density_from_pure(psi))
        fids = [fidelity(purified_state(noisy, rounds), psi) for rounds in range(13)]
        saturated = abs(fids[12] - fids[10]) < 1e-6
        saturation_ok &= saturated and fids[12] < 1 - 1e-3 and fids[12] > fids[0]
        details.append(f"M={qubits}: F_sat {fids[12]:.4f}")
    ok = worst < 1e-12 and example_ok and saturation_ok
    _report(10, "anisotropic closed forms and saturation", ok,
            f"pipeline dev {worst:.2e}; F'(pi/2, 0.3) = {example:.6f}; "
            + "; ".join(details))