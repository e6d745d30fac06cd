"""Exception hierarchy for the plap package, and the floating-point state
its public functions run in."""

import functools

import numpy as np


def ignores_underflow(fn):
    """``fn`` with numpy's underflow ignored, whatever a caller's
    ``np.seterr`` says.  Underflow to a subnormal or to 0 is part of the
    arithmetic here (w^beta near w = 0 at large beta, F at tiny levels, a
    tail mean of tiny m), and numpy's default state already ignores it; so
    the public entry points check it once per call (about 0.7 us) rather
    than each integrand pass.  The state is set only when the caller's
    differs, as every ufunc call is slower inside ``np.errstate``, even with
    the default's values (a scalar I by 1.8% in the median of 300
    interleaved pairs, numpy 2.4 on a 2-vCPU x86 machine)."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        if np.geterr()["under"] == "ignore":
            return fn(*args, **kwargs)
        with np.errstate(under="ignore"):
            return fn(*args, **kwargs)

    return run


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
