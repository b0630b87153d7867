"""Exact dynamics of the quantum Rabi model in its two effective frames.

The model splits into a rotating (Jaynes-Cummings) and a counter-rotating
(anti-Jaynes-Cummings) component with separately conserved excitation
numbers. This package builds the operators, solves the dynamics in closed
form in both frames, cross-validates every closed form against a dense
eigendecomposition propagator, and ships a CLI for time series, figures,
and self-verification.
"""

from .errors import (
    ConfigError,
    DegenerateBranchError,
    HermiticityError,
    NullStateError,
    NumericConsistencyError,
    QrmError,
    TruncationError,
)
from .hilbert import (
    HilbertSpace,
    OperatorMatrix,
    StateVector,
    basis_state,
    commutator,
    evolve_with,
    expectation,
    fock_operators,
    identity,
    qubit_operators,
)
from .model import (
    ModelParams,
    build_components,
    build_effective,
    build_number_ops,
    build_parity,
    build_rabi,
    build_transition_ops,
    frame_conjugation_check,
)
from .analytic import (
    FRAMES,
    BranchCoeffs,
    Frame,
    Observables,
    ajc_branch,
    ajc_eigenstate,
    crf_branch_states,
    evolve_crf,
    evolve_rf,
    evolve_series,
    initial_state,
    jc_branch,
    jc_eigenstate,
    observables,
    observables_crf,
    observables_rf,
    rf_branch_states,
)
from .oracle import (
    ComparisonReport,
    compare_scenario,
    interior_commutator_norm,
    interior_projector,
    observable_series,
    propagate_series,
    standard_observables,
)
from .runner import (
    COLUMNS,
    ExperimentConfig,
    TimeSeriesBundle,
    VerifyReport,
    beat_modulation_period,
    emit_csv,
    emit_svg,
    parse_config_comment,
    read_csv,
    reproduce_figures,
    run_experiment,
    verify_suite,
)

__version__ = "0.1.0"
