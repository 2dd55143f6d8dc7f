"""Estimating observables from the measurement record, and what it costs.

Every shot produces an outcome-string parity and one eigenvalue of the
measured observable. The sign-weighted ratio estimator recovers the
purified expectation value without postselection, at the price of a
sampling overhead that grows as the inverse square of Tr(rho^N): the more
mixed the input, the more the parities cancel.
"""

import numpy as np

from pqec import (
    estimate_observable,
    extract_observable_exact,
    pauli_matrix,
    required_samples,
)

Z = pauli_matrix("Z")
rho = np.diag([0.8, 0.2]).astype(complex)

print("state diag(0.8, 0.2), observable Z")
for rounds in (0, 1, 2, 3):
    exact = extract_observable_exact(Z, rho, rounds)
    res = estimate_observable(rho, Z, rounds, 100_000, seed=12)
    flag = " (denominator unstable)" if res.unstable_denominator else ""
    print(f"  rounds={rounds}: exact {exact:.6f}  sampled {res.estimate:.6f} "
          f"+- {res.standard_error:.6f}{flag}")

print("\nshot-count bound for target precision 0.01:")
for rounds in (1, 2, 3, 4):
    trace_n = np.trace(np.linalg.matrix_power(rho, 2 ** rounds)).real
    print(f"  rounds={rounds}: Tr(rho^N) = {trace_n:.4f} -> "
          f"{required_samples(0.01, trace_n):>8d} shots")

print("\nthe same bound for a noisier state diag(0.6, 0.4):")
noisier = np.diag([0.6, 0.4]).astype(complex)
for rounds in (1, 2, 3, 4):
    trace_n = np.trace(np.linalg.matrix_power(noisier, 2 ** rounds)).real
    print(f"  rounds={rounds}: Tr(rho^N) = {trace_n:.4f} -> "
          f"{required_samples(0.01, trace_n):>8d} shots")

print("\nstandard error shrinks like 1/sqrt(shots):")
for shots in (1_000, 10_000, 100_000):
    res = estimate_observable(rho, Z, 1, shots, seed=34)
    print(f"  {shots:>7d} shots: estimate {res.estimate:.6f} "
          f"+- {res.standard_error:.6f}")
