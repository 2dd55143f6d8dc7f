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
    generate_twirl_set,
    make_channel,
)
from .montecarlo import (
    EstimatorResult,
    ShotRecord,
    estimate_observable,
    ratio_estimate,
    required_samples,
    sample_outcome_tree,
    simulate_shots,
)
from .purify import (
    DegenerateOutcomeError,
    OutcomeBranches,
    anisotropic_qubit_purify_fidelity,
    bloch_purify,
    conditional_state,
    conditional_state_two_rounds,
    enumerate_outcomes,
    extract_observable_exact,
    fidelity_bounds,
    parity_weighted_sum,
    plain_sum_check,
    purified_spectra,
    purified_state,
    swap_gadget,
    werner_fidelity_update,
    werner_mixing_update,
)
from .states import (
    ResourceLimitError,
    SpectralPower,
    ValidationError,
    bloch_compose,
    bloch_decompose,
    bloch_state,
    check_density_matrix,
    check_pure_state,
    density_from_pure,
    fidelity,
    maximally_mixed,
    pauli_expand,
    pauli_matrix,
    pauli_weight,
    pauli_weight_distribution,
    plus_state,
    purity,
    random_density_matrix,
    random_pure_state,
    spectral_power,
    werner_fidelity,
    werner_mixing,
    werner_state,
    zero_state,
)
from .threshold import (
    CycleTrace,
    SweepResult,
    ThresholdEstimate,
    UndefinedSteadyStateError,
    find_threshold,
    logical_error_rate,
    run_cycles,
    steady_state_fidelity_analytic,
    sweep,
    werner_cycle_fidelities,
)

__version__ = "0.4.10"
