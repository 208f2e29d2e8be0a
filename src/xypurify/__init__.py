"""Entanglement purification and pumping via three-spin ring-exchange
dynamics, with the cavity-mediated microscopic model as validation layer.
"""
import importlib

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
    bell_decompose,
    bell_projector,
    computational_pair,
    fidelity,
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

# the cavity model is the only user of scipy; load it on first use
_CAVITY_NAMES = frozenset({
    "AgreementReport", "AsymptoticCouplings",
    "CavityGeometry", "Trajectory", "asymptotic_hamiltonian",
    "convergence_study", "coupling", "integrate_effective", "integrate_full",
    "solve_geometry", "xy_agreement",
})


def __getattr__(name: str):
    # import_module, not ``from . import cavity``: the latter asks this
    # function for "cavity" first
    if name == "cavity" or name in _CAVITY_NAMES:
        cavity = importlib.import_module(".cavity", __name__)
        return cavity if name == "cavity" else getattr(cavity, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _CAVITY_NAMES | {"cavity"})
