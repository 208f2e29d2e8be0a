"""Entanglement purification and pumping via three-spin ring-exchange
dynamics, with the cavity-mediated microscopic model as validation layer.
"""
from .cavity import (
    AgreementReport,
    AsymptoticCouplings,
    CavityGeometry,
    Trajectory,
    asymptotic_hamiltonian,
    convergence_study,
    integrate_full,
    solve_geometry,
    xy_agreement,
)
from .cnot import (
    ComparisonRow,
    closed_form_cnot,
    comparison_table,
)
from .errors import (
    AnalysisError,
    BelowThresholdWarning,
    ConfigurationError,
    DomainError,
    GeometryError,
    ShapeError,
    StateValidationError,
    StiffnessError,
    XyPurifyError,
    ZeroProbabilityError,
)
from .montecarlo import (
    BatchStats,
    ProtocolConfig,
    expected_attempts,
    simulate_batch,
)
from .pumping import (
    PumpRound,
    PumpTrace,
    fixed_point,
    pump,
)
from .rounds import (
    OperationalTime,
    RoundFormulas,
    RoundInput,
    RoundResult,
    bell_diagonal_map,
    bootstrap_round,
    closed_form_at,
    closed_form_general,
    operational_time,
    run_round,
)
from .states import (
    DensityMatrix,
    computational_pair,
    fidelity,
    random_bell_diagonal,
    werner,
    werner_weights,
)
from .xy import (
    evolve_triplet,
)

__version__ = "0.1.0"

