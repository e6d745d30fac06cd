"""Per-class solution enumeration by root-finding the matching conditions.

A candidate in class ``S_j^sign`` alternates ``n_pos`` positive and ``n_neg``
negative arches; it solves the boundary value problem exactly when the arch
widths fill ``[0, 1]``:

    2*n_pos*theta(r) + 2*n_neg*alpha(r) = 1.

The left side is searched in the arch level z of the class's lead side
(``_roots``): monotone for ``q <= p`` (0 or 1 root per class); for ``q > p``
it diverges as ``z -> 0`` and dips to an interior minimum, so roots appear
in pairs born at a tangency.  Such a pair can hide between scan points, so a
scanned minimum in [-delta, 0.05] (delta = 1e-6, a hundred times the store's
scan tolerance) is located by the store's lambda-free fold search, the one
that gives ``bifurcation``'s thresholds; a deeper dip already has its roots
bracketed by sign changes.  For ``p > 2`` the left side stays finite at the
slope bound; when it is still below 1 there, the remaining length is
absorbed by flat plateaus at ``z_plus``/``z_minus`` and the class carries a
continuum of solutions, represented by a single descriptor with the plateau
budget and the continuum dimension.

A class is solved in two parts: the root search (scan, brackets, Brent and
the fold path) and the descriptors.  ``enumerate_solutions`` runs the
searches of all its classes at one lambda together, in rounds that
integrate every pending residual of a side in one pass; ``solve_class``
runs the search of one class alone.  Either way a root is the float of its
class's search alone.  S_j^+ and S_j^- have one matching equation when j
is even (n_pos = n_neg) or f is odd (J = I), so ``enumerate_solutions``
searches it once and such an S_j^- takes the roots of S_j^+; they are
bit-identical to a search of its own, and only its sign and flat-core
descriptor are its own.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import OutOfRange, ignores_underflow
from .nonlinearity import Nonlinearity, areas
from .roots import brentq_lockstep
from .timemap import (
    RESIDUAL_TOL, Problem, _SCAN_TOL, _area, _rho_of_r, integral_I, level_pos, slope_bounds, time_map_curves, weigh
)

SIGN_POS = "+"
SIGN_NEG = "-"

_TANGENT_TOL = 1e-9  # |residual| at a refined minimum below this is a tangency
_AREA_TOL = 1e-12  # areas A(z+), A(z-) this close (relative) are equal


@dataclass(frozen=True)
class SolutionClass:
    """Class S_j^sign: sign of the initial slope and j-1 interior zeros."""

    j: int
    sign: str

    def __post_init__(self):
        if self.j < 1:
            raise ValueError(f"class index must be >= 1, got {self.j}")
        if self.sign not in (SIGN_POS, SIGN_NEG):
            raise ValueError(f"sign must be '+' or '-', got {self.sign!r}")

    # the layout is read at every residual evaluation, so it is computed once
    @cached_property
    def arches(self) -> tuple[bool, ...]:
        """Which arch, in order, is positive: they alternate from ``sign``."""
        return tuple((self.sign == SIGN_POS) == (i % 2 == 0) for i in range(self.j))

    @cached_property
    def n_pos(self) -> int:
        return sum(self.arches)

    @cached_property
    def n_neg(self) -> int:
        return self.j - self.n_pos

    def bound(self, pos: float, neg: float) -> float:
        """The class's admissible upper end from the bounds of the two arch
        signs (slopes or areas): the smaller one among the signs it uses."""
        return min(pos if self.n_pos else math.inf, neg if self.n_neg else math.inf)

    def plateaus(self, side: str) -> tuple[bool, ...]:
        """Which arches carry a plateau when ``side`` ("positive", "negative"
        or "alternating", see ``flat_core_side``) saturates."""
        return tuple(side == "alternating" or pos == (side == "positive") for pos in self.arches)


@dataclass(frozen=True)
class SolutionDescriptor:
    """Symbolic identity of one solution (or one flat-core continuum)."""

    j: int
    sign: str
    kind: str  # "regular" | "flat_core" | "trivial"
    r: float
    degenerate: bool = False
    residual: float = 0.0  # at the root's level, where the search ran (``_roots``)
    core_budget: float = 0.0
    core_count: int = 0
    core_side: str = ""
    continuum_dim: int = 0

    @property
    def descriptor_id(self) -> str:
        key = (
            f"{self.j}|{self.sign}|{self.kind}|{self.r:.12g}|"
            f"{self.core_count}|{self.core_side}"
        )
        return hashlib.sha256(key.encode()).hexdigest()[:12]

    def to_json_dict(self) -> dict:
        return {"id": self.descriptor_id, **asdict(self)}


TRIVIAL = SolutionDescriptor(j=0, sign="0", kind="trivial", r=0.0)


def area_relation(nl) -> str:
    """'equal', 'plus_less', or 'plus_greater' comparison of A(z+) and A(z-)."""
    a_plus, a_minus = areas(nl)
    if abs(a_plus - a_minus) <= _AREA_TOL * max(a_plus, a_minus):
        return "equal"
    return "plus_less" if a_plus < a_minus else "plus_greater"


def flat_core_side(sclass: SolutionClass, relation: str) -> str:
    """Which arches carry plateaus: single-arch classes saturate their own
    sign, multi-arch classes follow the area comparison."""
    if sclass.j == 1:
        return "positive" if sclass.sign == SIGN_POS else "negative"
    return {
        "equal": "alternating",
        "plus_less": "positive",
        "plus_greater": "negative",
    }[relation]


def continuum_dimension(sclass: SolutionClass, relation: str) -> int:
    """Dimension of the flat-core continuum: free plateau lengths minus the
    one constraint that they sum to the budget."""
    return sum(sclass.plateaus(flat_core_side(sclass, relation))) - 1


@ignores_underflow
def matching_residual(problem: Problem, sclass: SolutionClass, r: float) -> float:
    """Left side of the class's matching condition minus 1: ``weigh`` of the
    half-widths kappa I at the levels of slope r (theta on the positive side,
    alpha on the reflected one) at ``timemap.RESIDUAL_TOL``."""
    bounds = slope_bounds(problem)
    upper = sclass.bound(bounds.r_pos, bounds.r_neg)
    if not 0.0 < r < upper:
        raise OutOfRange(f"r = {r} outside (0, {upper}) for class {sclass}")
    kappa, p, rho = problem.kappa, problem.p, float(_rho_of_r(problem, r))

    def half_width(side: Nonlinearity) -> float:
        return kappa * integral_I(side, p, level_pos(side, rho), RESIDUAL_TOL)

    return weigh(problem.nl, half_width, 2.0 * sclass.n_pos, 2.0 * sclass.n_neg) - 1.0


def _flat_core_descriptor(problem: Problem, sclass: SolutionClass) -> SolutionDescriptor | None:
    if problem.p <= 2.0:
        return None
    curves = time_map_curves(problem.nl, problem.p)
    weight = curves.bound_weight(sclass.n_pos, sclass.n_neg, sclass.bound(*areas(problem.nl)))
    budget = 1.0 - 2.0 * problem.kappa * weight
    if budget <= 0.0:
        return None
    relation = area_relation(problem.nl)
    side = flat_core_side(sclass, relation)
    bounds = slope_bounds(problem)
    return SolutionDescriptor(
        j=sclass.j,
        sign=sclass.sign,
        kind="flat_core",
        r=sclass.bound(bounds.r_pos, bounds.r_neg),
        core_budget=budget,
        core_count=sum(sclass.plateaus(side)),
        core_side=side,
        continuum_dim=continuum_dimension(sclass, relation),
    )


def _roots(problem: Problem, searches: tuple[tuple[SolutionClass, float], ...]) -> tuple[tuple, ...]:
    """Per (class, area bound) of ``searches``, the sorted (r, residual,
    degenerate) matching roots of the class on the scan grid of that area
    bound, searched in the level z of its lead side: the residual is
    2 kappa W(z) - 1 at RESIDUAL_TOL and r = (lambda p A(z)/(p-1))^(1/p).

    The searches run in rounds: the residuals at the ends of every scanned
    sign change, then one Brent iterate of each search per round
    (``brentq_lockstep``), then for q > p the dip path, whose filter reads
    those roots and whose folds are one lockstep search
    (``TimeMapCurves.folds``).  A round weighs all its points
    (``TimeMapCurves.weigh_at``), integrating the tops of a side by one
    ``integral_I`` of a list of levels, whose rows are the floats of calls
    of their own, so each search's roots are those it finds alone.  At the
    scan points, the ends of the sign changes and the grid ends of the dip
    path, the I per side is lambda-free, so the store keeps it
    (``TimeMapCurves.scan_terms``) and each lambda weighs kappa times it;
    Brent's iterates and the folds are integrated anew at every call."""
    curves = time_map_curves(problem.nl, problem.p)
    nl, kappa, lam, p = curves.nl, problem.kappa, problem.lam, problem.p
    weights = [(2.0 * sc.n_pos, 2.0 * sc.n_neg) for sc, _ in searches]
    leads = [curves.lead(sc.n_pos) for sc, _ in searches]
    grids = [curves.levels(area, lead is not nl) for lead, (_, area) in zip(leads, searches)]
    scans = [2.0 * kappa * curves.weights(sc.n_pos, sc.n_neg, area) - 1.0 for sc, area in searches]
    known: list[dict[float, float]] = [{} for _ in searches]  # each search's residuals by level
    roots: list[list[tuple[float, float, bool]]] = [[] for _ in searches]  # (z, residual, degenerate)

    def residuals(points: list[tuple[int, float]]) -> list[float]:
        """The residual of search k at level z for each (k, z) of ``points``,
        evaluating each new one once and each side's new tops in one list."""
        new = list(dict.fromkeys((k, z) for k, z in points if z not in known[k]))
        half_widths = curves.weigh_at(
            [(z, *weights[k]) for k, z in new],
            lambda side, levels: [kappa * i for i in integral_I(side, p, levels, RESIDUAL_TOL)],
        )
        for (k, z), w in zip(new, half_widths):
            known[k][z] = w - 1.0
        return [known[k][z] for k, z in points]

    def scanned(points: list[tuple[int, int]]) -> list[float]:
        """The residual of search k at point i of its scan grid for each
        (k, i), weighing kappa times the I the store keeps there
        (``TimeMapCurves.scan_terms``) as ``residuals`` weighs a new level,
        which then knows it by its level."""
        terms = curves.scan_terms([(searches[k][1], i, *weights[k]) for k, i in points])
        out = []
        for (k, i), term in zip(points, terms):
            f = weigh(nl, lambda side: kappa * term[side is not nl], *weights[k]) - 1.0
            known[k][float(grids[k][i])] = f
            out.append(f)
        return out

    def refine(brackets: list[tuple[int, float, float]]) -> None:
        """Brent's zero of each (k, lo, hi), all in lockstep."""
        zeros = brentq_lockstep(
            lambda xs, idx: residuals([(brackets[n][0], x) for n, x in zip(idx, xs)]),
            [(lo, hi, 1e-15 * hi) for _, lo, hi in brackets],
        )
        for (k, _, _), z0 in zip(brackets, zeros):
            roots[k].append((z0, known[k][z0], False))

    # strict crossings only: exact zeros over a run of grid points happen when
    # lambda sits on a birth threshold (the residual flattens onto 0 at the
    # interval edge) and do not correspond to class members; the scan runs at
    # a coarser tolerance, so each bracket is confirmed before Brent, and a
    # crossing that never rises above evaluation noise is rejected
    crossings = [(k, i) for k, res in enumerate(scans) for i in np.where(np.sign(res[:-1]) * np.sign(res[1:]) < 0)[0]]
    ends = scanned([(k, n) for k, i in crossings for n in (i, i + 1)])
    noise_floor = 1e-10  # residual evaluations are only this trustworthy
    refine([
        (k, float(grids[k][i]), float(grids[k][i + 1]))
        for (k, i), f_lo, f_hi in zip(crossings, ends[::2], ends[1::2])
        if f_lo * f_hi < 0.0 and min(abs(f_lo), abs(f_hi)) >= noise_floor
    ])

    if problem.q > p:
        # an interior minimum can hide a tangency or a just-born root pair
        # between grid points; one the scan shows below -delta, far beyond
        # its error, already has its roots bracketed by sign changes
        delta = 100.0 * _SCAN_TOL
        dips = []  # (k, i) of each minimum that needs its fold
        for k, res in enumerate(scans):
            for i in np.where((res[1:-1] < res[:-2]) & (res[1:-1] <= res[2:]))[0] + 1:
                lo, hi = float(grids[k][i - 1]), float(grids[k][i + 1])
                if -delta <= res[i] <= 0.05 and not any(lo <= z <= hi for z, _, _ in roots[k]):
                    dips.append((k, i))
        folds = curves.folds([(searches[k][0].n_pos, searches[k][0].n_neg, searches[k][1], i) for k, i in dips])
        below = []  # (k, i, z) of each fold below zero
        for (k, i), fold, f_min in zip(dips, folds, residuals([(k, fold.level) for (k, _), fold in zip(dips, folds)])):
            if abs(f_min) <= _TANGENT_TOL:
                roots[k].append((fold.level, f_min, True))
            elif f_min < 0.0:
                below.append((k, i, fold.level))
        ends = scanned([(k, n) for k, i, _ in below for n in (i - 1, i + 1)])
        sides = []  # each side of a fold below zero whose grid end is above it
        for (k, i, z_min), f_lo, f_hi in zip(below, ends[::2], ends[1::2]):
            if f_lo > 0.0:
                sides.append((k, float(grids[k][i - 1]), z_min))
            if f_hi > 0.0:
                sides.append((k, z_min, float(grids[k][i + 1])))
        refine(sides)
    return tuple(
        tuple(((lam * p * _area(lead, z) / (p - 1.0)) ** (1.0 / p), f, deg) for z, f, deg in sorted(found))
        for lead, found in zip(leads, roots)
    )


def _search(problem: Problem, sclass: SolutionClass) -> tuple[SolutionClass, float]:
    """The (class, area bound) whose root search ``sclass`` reads: S_j^+'s
    for S_j^- when the two have one matching equation, j even (equal arch
    counts) or f odd (J = I).  Its roots are the floats of a search of
    S_j^-'s own, not close ones: equal counts evaluate one sum, and an odd f
    reads one side's integrals, whose a v + b v is b v + a v in IEEE
    arithmetic."""
    searched = SolutionClass(sclass.j, SIGN_POS) if sclass.j % 2 == 0 or problem.nl.odd else sclass
    return searched, sclass.bound(*areas(problem.nl))


def _descriptors(problem: Problem, sclass: SolutionClass, roots) -> list[SolutionDescriptor]:
    """The class's regular descriptors at ``roots``, then its flat-core one."""
    out = [
        SolutionDescriptor(
            j=sclass.j, sign=sclass.sign, kind="regular", r=r0, residual=f0, degenerate=deg
        )
        for r0, f0, deg in roots
    ]
    fc = _flat_core_descriptor(problem, sclass)
    if fc is not None:
        out.append(fc)
    return out


@ignores_underflow
def solve_class(problem: Problem, sclass: SolutionClass) -> list[SolutionDescriptor]:
    """All solutions in one class: regular matching roots, a tangent root at
    a fold, and the flat-core continuum descriptor when the budget is open.

    The residual is scanned on the class's level grid from the store, where
    classes with the same area bound share the scans.  S_j^- searches the
    equation of S_j^+ when the two have one (``_search``); the flat-core
    descriptor is the class's own.  The descriptors are those of the class
    in ``enumerate_solutions``, float for float.  Returns an empty list
    when the class has no solutions at this lambda.
    """
    (roots,) = _roots(problem, (_search(problem, sclass),))
    return _descriptors(problem, sclass, roots)


def _classes(j_max: int) -> list[SolutionClass]:
    """S_1^+, S_1^-, ..., S_jmax^-."""
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    return [SolutionClass(j, sign) for j in range(1, j_max + 1) for sign in (SIGN_POS, SIGN_NEG)]


@ignores_underflow
def enumerate_solutions(problem: Problem, j_max: int) -> list[SolutionDescriptor]:
    """Trivial marker, then the descriptors of S_1^+, S_1^-, ..., S_jmax^-,
    from one root search of all the classes' equations together
    (``_roots``), whose rounds integrate every class's pending residuals at
    once.  Each equation is searched once, and each class's descriptors are
    those ``solve_class`` gives, float for float."""
    classes = _classes(j_max)
    keys = [_search(problem, sclass) for sclass in classes]
    searches = tuple(dict.fromkeys(keys))
    found = dict(zip(searches, _roots(problem, searches)))
    return [TRIVIAL] + [d for sclass, key in zip(classes, keys) for d in _descriptors(problem, sclass, found[key])]


def sweep(
    nl: Nonlinearity, p: float, lams: Iterable[float], j_max: int
) -> list[list[SolutionDescriptor]]:
    """``enumerate_solutions`` at each lambda of ``lams``, in order.  The scans
    are built at the first lambda and read at every later one, and so are
    the opening round's terms at each scan point a search has used."""
    return [enumerate_solutions(Problem(p=p, nl=nl, lam=lam), j_max) for lam in lams]

