"""Bifurcation sequences and the structure report.

Two sequences organize the solution set as lambda grows.  The primary one
(``lambda_n`` here, "tilde" thresholds) marks where a class's solutions
broaden into flat-core continua; its entries follow from the arch totals at
the slope bound and are finite only for p > 2.  For q > p a second sequence
(``lambda_star_n``) marks where solution pairs are born at a fold of the
class's own time map: star_n^± is the minimum over rho in (0, A_class) of
``(p-1)/p * (2 W(rho))^p`` with ``W = n_pos I(z(rho)) + n_neg J(S(rho))``,
``A_class`` being A(z+) for S_1^+, A(z-) for S_1^- and the smaller area
otherwise.  f need not be odd.  Both sequences are lambda-free because the
levels entering them solve equations in which lambda cancels.

The structure report tags every class from these thresholds alone, in every
regime; it never enumerates roots.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NoZeroFound, ignores_underflow
from .nonlinearity import Nonlinearity, areas
from .solver import (
    SolutionClass,
    _classes,
    area_relation,
    continuum_dimension,
    flat_core_side,
)
from .timemap import Problem, TimeMapCurves, time_map_curves


def eigenvalue_base(p: float) -> float:
    """First Dirichlet eigenvalue of the one-dimensional p-Laplacian on (0, 1):
    ``lambda_1 = (p-1) * (2 * int_0^1 (1-t^p)^(-1/p) dt)^p``, where the
    integral is ``(pi/p) / sin(pi/p)`` (Otani; Guedda & Veron)."""
    if p <= 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    return (p - 1.0) * (2.0 * math.pi / (p * math.sin(math.pi / p))) ** p


def _threshold(p: float, weight: float) -> float:
    """lambda at which arches of total weight n_pos I + n_neg J fill [0, 1]."""
    return (p - 1.0) / p * (2.0 * weight) ** p


def _fold_weights(curves: TimeMapCurves, classes: tuple[SolutionClass, ...]) -> list[float]:
    """Per class, the minimum over rho in (0, A_class) of
    ``W(rho) = n_pos I(z(rho)) + n_neg J(S(rho))`` (q > p).

    ``A_class`` is the area bound matching the class's slope bound.  W depends
    on the class only through its area and reduced ratio n_pos : n_neg, so
    the store's scans at rho = A_class g^p bracket one fold per (area,
    reduced ratio) in the table, and one ``curves.folds`` searches them all
    in lockstep, with the dI/dtop of both sides in rows.  The bracket ends
    are scan points, whose dI/drho the store keeps, so a table on a warm
    store integrates only Brent's iterates and W at the folds; the folds
    themselves are searched again by each table.  A scanned minimum at the
    store's first fraction, the solver's own depth, raises ``NoZeroFound``:
    the fold may lie deeper.
    """
    nl, fractions = curves.nl, curves.fractions
    searches: dict[tuple[int, int, float], int] = {}  # (n_pos, n_neg, area) -> bracket index
    keys = []
    for sc in classes:
        area = sc.bound(*areas(nl))
        d, n_pos, n_neg = curves.reduce(sc.n_pos, sc.n_neg)
        if (n_pos, n_neg, area) not in searches:
            i = int(np.argmin(curves.weights(n_pos, n_neg, area)))
            if i == 0:
                raise NoZeroFound(
                    f"fold of class S_{sc.j}^{sc.sign} lies below "
                    f"rho/A = {fractions[0] ** curves.p:.3g}, the deepest scanned level"
                )
            searches[n_pos, n_neg, area] = min(i, fractions.size - 2)
        keys.append((d, (n_pos, n_neg, area)))
    folds = curves.folds([(*key, i) for key, i in searches.items()])
    minima = {key: w for key, (_, w) in zip(searches, folds)}
    return [d * minima[key] for d, key in keys]


@dataclass
class BifurcationTable:
    """Both threshold sequences up to index N."""

    n: list[int]
    tilde_plus: list[float]
    tilde_minus: list[float]
    star_plus: list[float] | None
    star_minus: list[float] | None
    classical: list[float] | None  # n^p * lambda_1, only for q = p

    def tilde(self, sign: str) -> list[float]:
        return self.tilde_plus if sign == "+" else self.tilde_minus

    def star(self, sign: str) -> list[float] | None:
        return self.star_plus if sign == "+" else self.star_minus


@ignores_underflow
def bifurcation_table(nl: Nonlinearity, p: float, N: int) -> BifurcationTable:
    """Thresholds for n = 1..N.

    Flat-core ("tilde") entries are +inf for p <= 2, matching the divergence
    of I(z+)/J(z-) there; star entries exist only for q > p.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    idx = list(range(1, N + 1))
    classes = _classes(N)
    plus, minus = classes[::2], classes[1::2]

    curves = time_map_curves(nl, p)
    if p > 2.0:
        at_bound = [curves.bound_weight(sc.n_pos, sc.n_neg, sc.bound(*areas(nl))) for sc in plus + minus]
        tilde_plus = [_threshold(p, w) for w in at_bound[:N]]
        tilde_minus = [_threshold(p, w) for w in at_bound[N:]]
    else:
        tilde_plus = [np.inf] * N
        tilde_minus = [np.inf] * N

    star_plus = star_minus = None
    if nl.q > p:
        folds = _fold_weights(curves, plus + minus)
        star_plus = [_threshold(p, w) for w in folds[:N]]
        star_minus = [_threshold(p, w) for w in folds[N:]]

    classical = None
    if nl.q == p:
        lam1 = eigenvalue_base(p)
        classical = [n**p * lam1 for n in idx]

    return BifurcationTable(
        n=idx,
        tilde_plus=tilde_plus,
        tilde_minus=tilde_minus,
        star_plus=star_plus,
        star_minus=star_minus,
        classical=classical,
    )


@dataclass
class ClassEntry:
    """Cardinality tag of one class at the report's lambda."""

    j: int
    sign: str
    tag: str  # "empty" | "single" | "pair" | "continuum"
    continuum_dim: int
    flat_core: bool
    advisory: bool
    core_side: str


@dataclass
class StructureReport:
    lam: float
    regime: str  # "q<p" | "q=p" | "q>p"
    area_relation: str
    entries: list[ClassEntry] = field(default_factory=list)

    def entry(self, j: int, sign: str) -> ClassEntry:
        for e in self.entries:
            if e.j == j and e.sign == sign:
                return e
        raise KeyError((j, sign))

    def nontrivial_count(self) -> int:
        count = {"empty": 0, "single": 1, "pair": 2}
        return sum(count.get(e.tag, 1) for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "regime": self.regime,
            "area_relation": self.area_relation,
            "entries": [asdict(e) for e in self.entries],
        }


@ignores_underflow
def structure(problem: Problem, N: int) -> StructureReport:
    """Per-class cardinality tags for classes 1..N at the problem's lambda,
    from each class's lambda-free thresholds alone.

    Above its flat-core entry lambda~_n a class is flat: "single" or
    "continuum" by its continuum dimension.  Otherwise it is "empty" below its
    birth threshold: lambda*_n for q > p, n^p lambda_1 for q = p, 0 for q < p.
    Above birth a q <= p class is "single" (a monotone time map; birth itself
    stays "empty") and a q > p class is a "pair" ("single" at lambda*_n
    exactly: the tangent root).

    For q > p the time map diverges as r -> 0, and at the class's bound it is
    infinite (p <= 2) or at least the matching constant (p > 2, lambda at most
    lambda~_n).  So a fold below the constant gives at least two roots, by the
    intermediate value theorem.  ``advisory`` marks every q > p tag as such a
    lower bound: "pair" means at least two.
    """
    nl = problem.nl
    p, q, lam = problem.p, problem.q, problem.lam
    regime = "q=p" if q == p else ("q<p" if q < p else "q>p")
    fold = regime == "q>p"
    relation = area_relation(nl)
    report = StructureReport(lam=lam, regime=regime, area_relation=relation)
    table = bifurcation_table(nl, p, N)
    zero = [0.0] * N

    for sclass in _classes(N):
        j, sign = sclass.j, sclass.sign
        dim = continuum_dimension(sclass, relation)
        birth = (table.star(sign) if fold else table.classical or zero)[j - 1]
        flat = lam > table.tilde(sign)[j - 1]
        if flat:
            tag = "single" if dim == 0 else "continuum"
        elif lam < birth or (lam == birth and not fold):
            tag = "empty"
        else:
            tag = "pair" if fold and lam > birth else "single"
        side = flat_core_side(sclass, relation) if flat else ""
        report.entries.append(ClassEntry(j, sign, tag, dim, flat, fold, side))
    return report
