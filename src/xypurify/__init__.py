"""Entanglement purification and pumping via three-spin ring-exchange
dynamics, with the cavity-mediated microscopic model as validation layer.
"""
from .cavity import (
    AgreementReport,
    AmplitudeState,
    AsymptoticCouplings,
    CavityGeometry,
    Trajectory,
    asymptotic_hamiltonian,
    convergence_study,
    coupling,
    integrate_effective,
    integrate_full,
    solve_geometry,
    xy_agreement,
)
from .cnot import (
    CnotRoundResult,
    ComparisonRow,
    U_MINUS,
    U_PLUS,
    closed_form_cnot,
    cnot_round,
    comparison_table,
    scheme_c_pump,
)
from .errors import (
    AnalysisError,
    BelowThresholdWarning,
    ConfigurationError,
    DegenerateCouplingError,
    DomainError,
    GeometryError,
    LabelError,
    NegativeDurationError,
    ShapeError,
    SingularExpressionError,
    StateValidationError,
    StiffnessError,
    TruncationError,
    XyPurifyError,
    ZeroProbabilityError,
)
from .montecarlo import (
    BatchStats,
    ProtocolConfig,
    ProtocolStats,
    expected_attempts,
    run_protocol,
    simulate_batch,
)
from .pumping import (
    PumpRound,
    PumpTrace,
    SaturationRow,
    fixed_point,
    optimal_rounds,
    pump,
    saturation_table,
)
from .rounds import (
    BellCoefficients,
    OperationalTime,
    RoundFormulas,
    RoundInput,
    RoundResult,
    bell_coefficients,
    bell_diagonal_map,
    bootstrap_round,
    closed_form_fidelity,
    closed_form_general,
    closed_form_success,
    operational_time,
    restore,
    run_round,
)
from .states import (
    BellDecomposition,
    BellProjector,
    DensityMatrix,
    Tolerance,
    bell_decompose,
    bell_projector,
    computational_pair,
    conditional_state,
    fidelity,
    measurement_distribution,
    partial_trace,
    permute,
    random_bell_diagonal,
    tensor,
    werner,
)
from .xy import (
    EvolutionOperator,
    XYHamiltonian,
    build_xy,
    evolve_composite,
    evolve_triplet,
    number_operator,
)

__version__ = "0.1.0"
