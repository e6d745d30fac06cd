"""Bifurcation sequences, time-map minimizers, and the structure report.

Two sequences organize the solution set as lambda grows.  The primary one
(``lambda_n`` here, "tilde" thresholds) marks where a class's solutions
broaden into flat-core continua; its entries follow from the arch totals at
the slope bound and are finite only for p > 2.  For q > p a second sequence
(``lambda_star_n``) marks where solution pairs are born at a tangency of the
matching condition; its entries come from minimizers of the integrals I and
J.  Both sequences are lambda-free because the levels entering them solve
equations in which lambda cancels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .nonlinearity import Nonlinearity, areas, reflected
from .quadrature import tanh_sinh
from .solver import (
    SolutionClass,
    _ProblemCache,
    area_relation,
    continuum_dimension,
    flat_core_side,
    solve_class,
)
from .timemap import (
    Problem,
    _integral_many,
    _level_many,
    endpoint_integrals,
    endpoint_levels,
    integral_I,
    integral_J,
    level_neg,
    level_pos,
)


def eigenvalue_base(p: float, tol: float = 1e-12) -> float:
    """First Dirichlet eigenvalue of the one-dimensional p-Laplacian:
    ``lambda_1 = (p-1) * (2 * int_0^1 (1-t^p)^(-1/p) dt)^p``."""
    if p <= 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    beta = p / (p - 1.0)

    def psi(w):
        w = np.asarray(w, float)
        with np.errstate(under="ignore"):
            h = w**beta
        out = np.empty_like(w)
        tiny = h == 0.0
        # 1-(1-h)^p without cancellation; h rounding to 1 is benign (body -> 1)
        with np.errstate(divide="ignore"):
            body = -np.expm1(p * np.log1p(-h[~tiny]))
        out[~tiny] = body ** (-1.0 / p) * beta * w[~tiny] ** (beta - 1.0)
        out[tiny] = beta * p ** (-1.0 / p)
        return out

    integral = tanh_sinh(psi, 1.0, tol)
    return (p - 1.0) * (2.0 * integral) ** p


@dataclass(frozen=True)
class Minimizers:
    """Minimizers of I, J, and the combined time-map objectives (q > p).

    ``I_e`` is the minimum of ``I(z) + J(S)`` along the one-parameter level
    curve; the odd-class pairs ``(I_o, J_o)`` evaluate I and J at the
    minimizer of the corresponding ratio objective at reference lambda = 1.
    """

    applicable: bool
    a_star: float | None = None
    I_a_star: float | None = None
    b_star: float | None = None
    J_b_star: float | None = None
    r_e: float | None = None
    I_e: float | None = None
    r_o_plus: float | None = None
    I_o_plus: float | None = None
    J_o_plus: float | None = None
    r_o_minus: float | None = None
    I_o_minus: float | None = None
    J_o_minus: float | None = None


def _interior_grid(lo: float, hi: float, n: int) -> np.ndarray:
    width = hi - lo
    half = np.geomspace(1e-7, 0.5, n // 2)
    return np.unique(np.concatenate([lo + width * half, hi - width * half[::-1]]))


def _golden_refine(fun, grid: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    i = int(np.argmin(values))
    i = min(max(i, 1), values.size - 2)
    opt = minimize_scalar(
        fun,
        bracket=(float(grid[i - 1]), float(grid[i]), float(grid[i + 1])),
        method="golden",
        options={"xtol": 1e-12},
    )
    return float(opt.x), float(opt.fun)


def find_minimizers(nl: Nonlinearity, p: float, tol: float = 1e-11, scan: int = 512) -> Minimizers:
    """Golden-section minimizers seeded from a 512-point scan; q > p only."""
    if nl.q <= p:
        return Minimizers(applicable=False)

    a_plus, a_minus = areas(nl)
    rho_star = min(a_plus, a_minus)

    # the negative side is the positive side of the reflection; an odd f is
    # its own reflection, so there the negative side repeats the positive one
    mirror = reflected(nl)
    tol_scan = max(1e-9, tol)

    def argmin_I(side: Nonlinearity) -> tuple[float, float]:
        grid = _interior_grid(0.0, side.z_plus, scan)
        vals = _integral_many(side, p, grid, tol_scan)
        return _golden_refine(lambda a: integral_I(side, p, a, tol), grid, vals)

    a_star, i_a = argmin_I(nl)
    b_mirror, j_b = (a_star, i_a) if nl.odd else argmin_I(mirror)
    b_star = -b_mirror

    # level-curve parametrization: rho -> (z(rho), S(rho)) is lambda-free
    rho_grid = _interior_grid(0.0, rho_star, scan)
    i_vals = _integral_many(nl, p, _level_many(nl, rho_grid), tol_scan)
    if nl.odd:
        j_vals = i_vals
    else:
        j_vals = _integral_many(mirror, p, _level_many(mirror, rho_grid), tol_scan)

    def I_and_J(rho: float) -> tuple[float, float]:
        i = integral_I(nl, p, level_pos(nl, rho), tol)
        return i, (i if nl.odd else integral_J(nl, p, level_neg(nl, rho), tol))

    def even_objective(rho: float) -> float:
        i, j = I_and_J(rho)
        return i + j

    rho_e, i_e = _golden_refine(even_objective, rho_grid, i_vals + j_vals)
    r_e = (rho_e * p / (p - 1.0)) ** (1.0 / p)  # slope at reference lambda = 1

    kappa1 = ((p - 1.0) / p) ** (1.0 / p)  # kappa at lambda = 1

    def odd_objective(rho: float, plus: bool) -> float:
        i, j = I_and_J(rho)
        th, al = kappa1 * i, kappa1 * j
        return (2.0 * th + 2.0 * al) / (1.0 + 2.0 * (al if plus else th))

    ratio_plus = (2.0 * kappa1 * (i_vals + j_vals)) / (1.0 + 2.0 * kappa1 * j_vals)
    rho_op, _ = _golden_refine(lambda r: odd_objective(r, True), rho_grid, ratio_plus)
    if nl.odd:  # the two odd-class objectives coincide
        rho_om = rho_op
    else:
        ratio_minus = (2.0 * kappa1 * (i_vals + j_vals)) / (1.0 + 2.0 * kappa1 * i_vals)
        rho_om, _ = _golden_refine(lambda r: odd_objective(r, False), rho_grid, ratio_minus)
    i_op, j_op = I_and_J(rho_op)
    i_om, j_om = I_and_J(rho_om)

    def slope(rho: float) -> float:
        return (rho * p / (p - 1.0)) ** (1.0 / p)

    return Minimizers(
        applicable=True,
        a_star=a_star,
        I_a_star=i_a,
        b_star=b_star,
        J_b_star=j_b,
        r_e=r_e,
        I_e=i_e,
        r_o_plus=slope(rho_op),
        I_o_plus=i_op,
        J_o_plus=j_op,
        r_o_minus=slope(rho_om),
        I_o_minus=i_om,
        J_o_minus=j_om,
    )


@dataclass
class BifurcationTable:
    """Both threshold sequences up to index N, plus the levels behind them."""

    n: list[int]
    tilde_plus: list[float]
    tilde_minus: list[float]
    star_plus: list[float] | None
    star_minus: list[float] | None
    classical: list[float] | None  # n^p * lambda_1, only for q = p
    z_hat: float
    s_hat: float
    I_z_hat: float
    J_s_hat: float
    I_z_plus: float
    J_z_minus: float

    def tilde(self, sign: str) -> list[float]:
        return self.tilde_plus if sign == "+" else self.tilde_minus

    def star(self, sign: str) -> list[float] | None:
        return self.star_plus if sign == "+" else self.star_minus


def _sequence_entry(p: float, weight_I: float, I_val: float, weight_J: float, J_val: float) -> float:
    return (p - 1.0) / p * (weight_I * I_val + weight_J * J_val) ** p


def _arch_weights(n: int, sign: str) -> tuple[int, int]:
    """(positive arches, negative arches) of class S_n^sign, doubled later."""
    sc = SolutionClass(n, sign)
    return sc.n_pos, sc.n_neg


def bifurcation_table(
    nl: Nonlinearity,
    p: float,
    N: int,
    tol: float = 1e-11,
    minimizers: Minimizers | None = None,
) -> BifurcationTable:
    """Closed-formula thresholds for n = 1..N.

    Flat-core ("tilde") entries are +inf for p <= 2, matching the divergence
    of I(z+)/J(z-) there; star entries exist only for q > p.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    lv = endpoint_levels(nl, p)
    idx = list(range(1, N + 1))

    if p > 2.0:
        i_hat, j_hat, i_zp, j_zm = endpoint_integrals(nl, p, lv, tol)
        tilde_plus, tilde_minus = [], []
        for n in idx:
            if n == 1:
                tilde_plus.append(_sequence_entry(p, 2.0, i_zp, 0.0, 0.0))
                tilde_minus.append(_sequence_entry(p, 0.0, 0.0, 2.0, j_zm))
            else:
                np_pos, nn_pos = _arch_weights(n, "+")
                np_neg, nn_neg = _arch_weights(n, "-")
                tilde_plus.append(_sequence_entry(p, 2.0 * np_pos, i_hat, 2.0 * nn_pos, j_hat))
                tilde_minus.append(_sequence_entry(p, 2.0 * np_neg, i_hat, 2.0 * nn_neg, j_hat))
    else:
        i_zp = j_zm = i_hat = j_hat = np.inf
        tilde_plus = [np.inf] * N
        tilde_minus = [np.inf] * N

    star_plus = star_minus = None
    if nl.q > p:
        mins = minimizers if minimizers is not None else find_minimizers(nl, p, tol)
        star_plus, star_minus = [], []
        for n in idx:
            if n == 1:
                star_plus.append(_sequence_entry(p, 2.0, mins.I_a_star, 0.0, 0.0))
                star_minus.append(_sequence_entry(p, 0.0, 0.0, 2.0, mins.J_b_star))
            elif n % 2 == 0:
                entry = _sequence_entry(p, float(n), mins.I_e, 0.0, 0.0)
                star_plus.append(entry)
                star_minus.append(entry)
            else:
                k = (n + 1) // 2
                star_plus.append(
                    _sequence_entry(p, 2.0 * k, mins.I_o_plus, 2.0 * (k - 1), mins.J_o_plus)
                )
                star_minus.append(
                    _sequence_entry(p, 2.0 * (k - 1), mins.I_o_minus, 2.0 * k, mins.J_o_minus)
                )

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
        z_hat=lv.z_hat,
        s_hat=lv.s_hat,
        I_z_hat=float(i_hat),
        J_s_hat=float(j_hat),
        I_z_plus=float(i_zp),
        J_z_minus=float(j_zm),
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

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "sign": self.sign,
            "tag": self.tag,
            "continuum_dim": self.continuum_dim,
            "flat_core": self.flat_core,
            "advisory": self.advisory,
            "core_side": self.core_side,
        }


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
            "entries": [e.to_json_dict() for e in self.entries],
        }


def structure(
    problem: Problem,
    N: int,
    *,
    scan_points: int = 1024,
    quad_tol: float = 1e-10,
) -> StructureReport:
    """Per-class cardinality tags for classes 1..N at the problem's lambda.

    For q <= p the tags follow the threshold sequences exactly (monotone time
    maps).  For q > p the single/pair tags come from the solver's root scan
    and are advisory: the scan certifies "at least", not "exactly".
    """
    nl = problem.nl
    p, q, lam = problem.p, problem.q, problem.lam
    regime = "q=p" if q == p else ("q<p" if q < p else "q>p")
    relation = area_relation(nl)
    table = bifurcation_table(nl, p, N, max(quad_tol, 1e-11))
    report = StructureReport(lam=lam, regime=regime, area_relation=relation)

    cache = None
    if regime == "q>p":
        cache = _ProblemCache(problem, quad_tol, scan_points)

    for j in range(1, N + 1):
        for sign in ("+", "-"):
            sclass = SolutionClass(j, sign)
            tilde = table.tilde(sign)[j - 1]
            dim = continuum_dimension(sclass, relation)
            side = flat_core_side(sclass, relation)
            if regime == "q>p":
                descs = solve_class(
                    problem, sclass, scan_points=scan_points, quad_tol=quad_tol, _shared=cache
                )
                regular = [d for d in descs if d.kind == "regular"]
                if lam > tilde:
                    tag = "single" if dim == 0 else "continuum"
                    flat = True
                elif not regular:
                    tag, flat = "empty", False
                elif len(regular) == 1:
                    tag, flat = "single", False
                else:
                    tag, flat = "pair", False
                entry = ClassEntry(j, sign, tag, dim, flat, True, side if flat else "")
            else:
                birth = table.classical[j - 1] if regime == "q=p" else 0.0
                if lam <= birth:
                    entry = ClassEntry(j, sign, "empty", dim, False, False, "")
                elif lam <= tilde:
                    entry = ClassEntry(j, sign, "single", dim, False, False, "")
                else:
                    tag = "single" if dim == 0 else "continuum"
                    entry = ClassEntry(j, sign, tag, dim, True, False, side)
            report.entries.append(entry)
    return report
