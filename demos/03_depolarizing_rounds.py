"""Fidelity vs purification rounds for locally depolarized product states.

Applies the per-qubit depolarizing channel once to |+>^M and then purifies
with an increasing number of rounds. Below error probability 3/4 every
register size converges to unit fidelity; at 3/4 the state is completely
mixed and unrecoverable; above it the rounds actively help the wrong
state. Writes ``depolarizing_rounds.svg``.
"""

import os

import numpy as np

from pqec import NoiseModel, density_from_pure, fidelity, make_channel, \
    plus_state, purified_state
from pqec.svgplot import line_chart

HERE = os.path.dirname(os.path.abspath(__file__))

rounds = np.arange(0, 11)
series = []
for p in (0.1, 0.3, 0.7, 0.8):
    for qubits in (1, 3, 5):
        psi = plus_state(qubits)
        noisy = make_channel(NoiseModel("local-depol", p), qubits)(density_from_pure(psi))
        fids = [fidelity(purified_state(noisy, r), psi) for r in rounds]
        if p in (0.3, 0.8):
            series.append((f"p={p} M={qubits}", rounds, fids))
        print(f"p={p:4.1f} M={qubits}: F(0)={fids[0]:.4f} "
              f"F(4)={fids[4]:.4f} F(10)={fids[10]:.4f}")
    print()

line_chart(series, os.path.join(HERE, "depolarizing_rounds.svg"),
           title="purifying locally depolarized |+>^M",
           xlabel="purification rounds", ylabel="fidelity")
print("wrote depolarizing_rounds.svg")
