"""Purification-based quantum error correction at desk scale.

Dense density-matrix simulation of SWAP-test purification: the elementary
merge gadget and its outcome tree, noise channels with Clifford twirling,
exact and sampled observable extraction, and error-threshold sweeps.
"""

from .channels import (
    DEFAULT_SEED,
    NoiseModel,
    apply_pauli_diagonal,
    channel_matrix_equality,
    make_channel,
)
from .montecarlo import (
    EstimatorResult,
    estimate_observable,
    ratio_estimate,
    required_samples,
    simulate_shots,
)
from .purify import (
    DegenerateOutcomeError,
    extract_observable_exact,
    purified_state,
    purified_weights,
    swap_gadget,
    werner_fidelity_update,
)
from .states import (
    ResourceLimitError,
    ValidationError,
    bloch_state,
    check_pure_state,
    density_from_pure,
    fidelity,
    from_spectrum,
    pauli_matrix,
    plus_state,
    purity,
    zero_state,
)
from .threshold import (
    CycleTrace,
    SweepResult,
    ThresholdEstimate,
    UndefinedSteadyStateError,
    find_threshold,
    run_cycles,
    steady_state_fidelity_analytic,
    sweep,
)

__version__ = "0.16.1"
