"""Error thresholds: where more purification stops helping.

Sweeps the logical error rate (the first-cycle fidelity drop) over the
physical error probability for several purification depths and reads the
threshold off the curve crossings: 1 for global depolarizing, 3/4 for
local depolarizing, 1/2 for plain dephasing. Uses a reduced grid so the
demo finishes in seconds; the CLI ``threshold`` command runs the full one.
Writes ``thresholds_<channel>.svg``.
"""

import os

import numpy as np

from pqec import NoiseModel, find_threshold, plus_state, sweep
from pqec.svgplot import line_chart

HERE = os.path.dirname(os.path.abspath(__file__))

grid = np.linspace(0.0, 1.0, 21)
rounds = (0, 1, 2, 3)

for kind, qubits in (("global-depol", 1), ("local-depol", 1), ("dephasing", 1),
                     ("local-depol", 3)):
    # the crossings read only gamma, the first cycle
    result = sweep(plus_state(qubits), NoiseModel(kind, 0.0), grid, rounds,
                   cycles=1)
    estimate = find_threshold(result)
    pairs = ", ".join(f"({c.rounds_low},{c.rounds_high})->{c.p_cross:.3f}"
                      for c in estimate.crossing_pairs if c.p_cross is not None)
    print(f"{kind} M={qubits}: p_th = {estimate.p_threshold:.3f} "
          f"+- {estimate.grid_step:.3f}   crossings: {pairs}")
    series = [(f"ell={r}", grid, result.gamma[:, j])
              for j, r in enumerate(rounds)]
    name = f"thresholds_{kind}_M{qubits}.svg"
    line_chart(series, os.path.join(HERE, name),
               title=f"logical error rate, {kind}, M={qubits}",
               xlabel="physical error probability", ylabel="gamma_L")
    print(f"  wrote {name}")
