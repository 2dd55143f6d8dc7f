"""A first look at the SWAP merge: two noisy copies in, one better copy out.

Walks through the elementary gadget on a single qubit: outcome
probabilities, the conditional states of both branches, and how weighting
by the measurement sign isolates the squared state. Run from the repo
root with ``python demos/01_single_swap_purification.py``.
"""

import numpy as np

from pqec import (
    density_from_pure,
    fidelity,
    plus_state,
    purified_state,
    purity,
    swap_gadget,
)

# ----------------------------------------------------------------------
# A noisy qubit: 60% of the intended |+> state, 40% white noise.
# ----------------------------------------------------------------------
plus = plus_state(1)
rho = 0.6 * density_from_pure(plus) + 0.4 * np.eye(2) / 2
print("input fidelity :", fidelity(rho, plus))
print("input purity   :", purity(rho))

# ----------------------------------------------------------------------
# Merge two copies. The symmetric outcome carries a purified mixture, the
# antisymmetric one is worse; their probability-weighted average is exactly
# the input again, so nothing is gained by averaging alone.
# ----------------------------------------------------------------------
sym, p_sym = swap_gadget(rho, rho, +1)
anti, p_anti = swap_gadget(rho, rho, -1)
print("\nP(+) =", p_sym, "  fidelity of + branch:", fidelity(sym, plus))
print("P(-) =", p_anti, "  fidelity of - branch:", fidelity(anti, plus))
recombined = p_sym * sym + p_anti * anti
print("probability-weighted average deviates from input by",
      np.max(np.abs(recombined - rho)))

# ----------------------------------------------------------------------
# Weighting each branch by its outcome sign instead extracts the square of
# the state with unit coefficient. One round of the exact map is the
# normalized square.
# ----------------------------------------------------------------------
signed = p_sym * sym - p_anti * anti
print("\nsign-weighted sum equals rho^2 up to",
      np.max(np.abs(signed - rho @ rho)))
print("trace of the signed sum (the purity):", np.trace(signed).real)

better = purified_state(rho, 1)
print("\nafter one round  : fidelity", fidelity(better, plus),
      " purity", purity(better))
best = purified_state(rho, 4)
print("after four rounds: fidelity", fidelity(best, plus),
      " purity", purity(best))
