"""Exception taxonomy.

Two families matter for the CLI: subclasses of ValueError are user/input
validation problems (exit code 2), subclasses of ArithmeticError or
RuntimeError are numeric failures discovered during computation (exit
code 3).
"""


class XyPurifyError(Exception):
    """Base class for all package-specific errors."""


class DomainError(XyPurifyError, ValueError):
    """Argument outside its mathematical domain (e.g. fidelity not in [0, 1])."""


class ShapeError(XyPurifyError, ValueError):
    """Matrix dimension does not match the expected qubit layout."""


class StateValidationError(XyPurifyError, ValueError):
    """Density matrix violates hermiticity, unit trace, or positivity."""


class GeometryError(XyPurifyError, ValueError):
    """Cavity geometry is infeasible or inconsistent."""


class ConfigurationError(XyPurifyError, ValueError):
    """Protocol configuration is contradictory or unreachable."""


class ZeroProbabilityError(XyPurifyError, ArithmeticError):
    """Conditioning on an outcome of (numerically) zero probability."""


class StiffnessError(XyPurifyError, RuntimeError):
    """Adaptive integrator failed; detuning too large for the tolerance."""


class AnalysisError(XyPurifyError, RuntimeError):
    """A root/fixed-point search failed where a solution was expected."""


class BelowThresholdWarning(UserWarning):
    """State fidelity at or below 1/2; purification cannot improve it."""
