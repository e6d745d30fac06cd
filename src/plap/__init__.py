"""Equilibrium structure of -(|u'|^{p-2}u')' = lambda(|u|^{q-2}u - f(u)) on (0,1).

Time-map based: bifurcation sequences, per-class solution enumeration
(including flat-core continua for p > 2), profile reconstruction with
independent verification, and sharp regularity classification.
"""

from .bifurcation import (
    BifurcationTable,
    StructureReport,
    bifurcation_table,
    eigenvalue_base,
    structure,
)
from .errors import (
    Blowup,
    BudgetMismatch,
    ConfigError,
    Divergent,
    DomainError,
    HypothesisViolated,
    NoZeroFound,
    OutOfRange,
    PlapError,
    QuadratureFailure,
    ShapeError,
)
from .nonlinearity import (
    HypothesisReport,
    Nonlinearity,
    areas,
    build_nonlinearity,
    eval_F,
    eval_f,
    eval_g,
    validate_hypotheses,
)
from .profile import (
    Profile,
    RegularityReport,
    classify_regularity,
    energy_residual,
    reconstruct,
    shoot,
    shoot_compare,
)
from .solver import (
    SolutionClass,
    SolutionDescriptor,
    enumerate_solutions,
    matching_residual,
    solve_class,
    sweep,
)
from .timemap import (
    Problem,
    SlopeBounds,
    alpha,
    flat_core_half_widths,
    integral_I,
    integral_J,
    s_of_r,
    slope_bounds,
    theta,
    z_of_r,
)

__version__ = "0.1.0"
