"""Exception hierarchy for the plap package."""


class PlapError(Exception):
    """Base class for all package-specific errors."""


class NoZeroFound(PlapError):
    """Bracket expansion exhausted without finding a sign change."""


class HypothesisViolated(PlapError):
    """The nonlinearity fails one of the structural hypotheses."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DomainError(PlapError):
    """Argument outside the mathematical domain of the operation."""


class OutOfRange(PlapError):
    """Shooting slope or level outside its admissible open interval."""


class Divergent(PlapError):
    """The requested singular integral diverges for these exponents."""


class QuadratureFailure(PlapError):
    """Adaptive refinement stalled before reaching the tolerance."""


class BudgetMismatch(PlapError):
    """Flat-interval lengths do not sum to the available core budget."""


class ShapeError(PlapError):
    """Assembled profile does not cover [0, 1] within tolerance."""


class Blowup(PlapError):
    """Shooting trajectory left the bounded region or exhausted its step budget."""


class ConfigError(PlapError):
    """Malformed run configuration."""
