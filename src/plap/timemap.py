"""Level functions, singular time-map integrals, and flat-core widths.

Everything here reduces to two ingredients:

* the level map ``rho -> z`` (resp. ``S``) inverting ``z^q/q - F(z) = rho`` on
  ``(0, z_plus)`` (resp. ``|S|^q/q - F(S) = rho`` on ``(z_minus, 0)``), and
* the singular integrals

  ``I(a) = int_0^a (F(t) - F(a) + (a^q - t^q)/q)^(-1/p) dt``
  ``J(a) = int_a^0 (F(t) - F(a) + (|a|^q - |t|^q)/q)^(-1/p) dt``

whose integrand has a simple zero at the moving endpoint for interior levels
and a double zero when the level sits exactly at ``z_plus``/``z_minus``.  The
substitution ``t = a - w^beta`` with ``beta = p/(p-1)`` (simple zero) or
``beta = p/(p-2)`` (double zero, requires ``p > 2``) turns the integrand into
a bounded function of ``w``, which the tanh-sinh rule then resolves.

Only the positive side is implemented, and ``Arch`` carries one arch of it.
A negative arch is a positive one of ``f~(s) = -f(-s)``: ``F~(s) = F(-s)``,
so ``J_f(a) = I_f~(-a)`` and ``S_f(rho) = -z_f~(rho)``.

The half-period of one monotone arch launched with slope ``r`` is
``theta(r) = kappa * I(z(r))`` with ``kappa = ((p-1)/(lambda p))^(1/p)``; the
mirrored arch gives ``alpha(r) = kappa * J(S(r))``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import Divergent, DomainError, OutOfRange
from .nonlinearity import Nonlinearity, areas, eval_F, eval_df, eval_m, reflected
from .quadrature import cumulative_gl, tanh_sinh, tanh_sinh_batch
from .roots import brentq

_TAIL_FRAC = 1e-2  # switch from the direct formula to the tail integral
_MODEL_FRAC = 1e-8  # switch from the tail integral to the local quadratic model
_ENDPOINT_SNAP = 1e-14  # levels this close to z+/z- are treated as the endpoint
_SCAN_EPS = 1e-12  # relative clamp of the open slope interval in scans
_SCAN_POINTS = 1024  # fractions of every scan grid
_SCAN_TOL = 1e-8  # tanh-sinh tolerance of the store's scans
_CURVES_CAP = 64  # (f, p) stores kept by time_map_curves

# Tolerance of every lambda-free scalar integral: bound weights, fold
# searches and the arch distances of regularity's check points.  Tanh-sinh
# converges double-exponentially, so from 1e-6 to 1e-11 no CLI output moves
# but `plap regularity`'s plateau-edge distances (< 4e-10 relative at 1e-6).
QUAD_TOL = 1e-11
# Tolerance of theta and alpha, the matching residual's integrals: ten times
# tighter than QUAD_TOL, so quadrature noise does not mask a root's residual.
RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class Problem:
    """Exponents and eigenvalue parameter for one boundary value problem."""

    p: float
    nl: Nonlinearity
    lam: float

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"p must be finite and exceed 1, got {self.p}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")

    @property
    def q(self) -> float:
        return self.nl.q

    @property
    def kappa(self) -> float:
        """Prefactor ((p-1)/(lambda p))^(1/p) linking I/J to theta/alpha."""
        return ((self.p - 1.0) / (self.lam * self.p)) ** (1.0 / self.p)


@dataclass(frozen=True)
class SlopeBounds:
    """Maximal shooting slopes: positive arch, negative arch, and their min."""

    r_pos: float
    r_neg: float
    r_star: float


def slope_bounds(problem: Problem) -> SlopeBounds:
    """Slopes above which an arch can no longer turn around."""
    a_plus, a_minus = areas(problem.nl)
    scale = problem.lam * problem.p / (problem.p - 1.0)
    r_pos = (scale * a_plus) ** (1.0 / problem.p)
    r_neg = (scale * a_minus) ** (1.0 / problem.p)
    return SlopeBounds(r_pos=r_pos, r_neg=r_neg, r_star=min(r_pos, r_neg))


# ---------------------------------------------------------------------------
# level maps
# ---------------------------------------------------------------------------


def _area(nl: Nonlinearity, z):
    return z**nl.q / nl.q - eval_F(nl, z)


def level_pos(nl: Nonlinearity, rho):
    """The level z in (0, z_plus] with z^q/q - F(z) = rho, elementwise for an array.

    As F > 0 on (0, z_plus), z >= (q rho)^(1/q), exact to leading order at
    small rho.  From that bracket a float runs Brent's method to a relative
    tolerance, and an array bisects the bit patterns of its floats
    (piecewise linear in log z) to the least float whose area reaches rho:
    one vectorized step per bit, not a Python loop of calls per point.
    """
    a_plus, _ = areas(nl)
    top = a_plus * (1.0 + 1e-12)
    if isinstance(rho, float):
        if not 0.0 < rho <= top:
            raise OutOfRange(f"rho = {rho} outside (0, {a_plus}]")
        if rho >= a_plus:
            return nl.z_plus
        lo = min((nl.q * rho) ** (1.0 / nl.q), nl.z_plus)
        if _area(nl, lo) >= rho:
            return lo
        return brentq(lambda z: _area(nl, z) - rho, lo, nl.z_plus, xtol=1e-16 * lo)
    rho = np.asarray(rho, dtype=float)
    ok = (rho > 0.0) & (rho <= top)
    if not ok.all():
        raise OutOfRange(f"rho = {rho[~ok]} outside (0, {a_plus}]")
    lo = np.minimum((nl.q * rho) ** (1.0 / nl.q), nl.z_plus).view(np.int64) - 1
    hi = np.full_like(rho, nl.z_plus).view(np.int64)
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        high = _area(nl, mid.view(np.float64)) >= rho
        hi, lo = np.where(high, mid, hi), np.where(high, lo, mid)
    return np.where(rho >= a_plus, nl.z_plus, hi.view(np.float64))


def level_neg(nl: Nonlinearity, rho):
    """The level S in [z_minus, 0) with |S|^q/q - F(S) = rho (see ``level_pos``)."""
    return -level_pos(reflected(nl), rho)


def _rho_of_r(problem: Problem, r) -> np.ndarray:
    return (problem.p - 1.0) * np.asarray(r) ** problem.p / (problem.lam * problem.p)


def z_of_r(problem: Problem, r: float) -> float:
    """Arch maximum for shooting slope r in (0, r_pos)."""
    b = slope_bounds(problem)
    if not 0.0 < r < b.r_pos:
        raise OutOfRange(f"r = {r} outside (0, r(lambda) = {b.r_pos})")
    return level_pos(problem.nl, float(_rho_of_r(problem, r)))


def s_of_r(problem: Problem, r: float) -> float:
    """Arch minimum for shooting slope r in (0, r_neg)."""
    b = slope_bounds(problem)
    if not 0.0 < r < b.r_neg:
        raise OutOfRange(f"r = {r} outside (0, r-(lambda) = {b.r_neg})")
    return level_neg(problem.nl, float(_rho_of_r(problem, r)))


# ---------------------------------------------------------------------------
# the radicand G and the substituted integrand
# ---------------------------------------------------------------------------

_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
_GL4_SIGMA = 0.5 * (_GL4_X + 1.0)
_GL4_WBAR = 0.5 * _GL4_W


def _dm(nl: Nonlinearity, s: float) -> float:
    """Derivative of the map m(s) = |s|^{q-2}s - f(s)."""
    return (nl.q - 1.0) * abs(s) ** (nl.q - 2.0) - float(eval_df(nl, s))


def _tail_mean(nl: Nonlinearity, a, h):
    """Mean of m over [a-h, a]; G = h * mean, free of cancellation."""
    pts = np.asarray(a)[..., None] - h[..., None] * _GL4_SIGMA
    return eval_m(nl, pts) @ _GL4_WBAR


def _direct(nl: Nonlinearity, t, F_a, a_q):
    """The direct formula for G at t, given F(a) and a^q.

    It cancels catastrophically as t -> a.  ``|t|`` keeps it real where
    t = a - h rounds just below 0.
    """
    return eval_F(nl, t) - F_a + (a_q - np.abs(t) ** nl.q) / nl.q


def _psi(nl: Nonlinearity, p: float, a, w: np.ndarray, double: bool) -> np.ndarray:
    """Integrand of I after the substitution t = a - w^beta, at abscissae w.

    ``a`` is one level (a float, for the scalar driver) or a column of
    levels broadcasting against ``w`` (the batched driver); F(a) and a^q
    are evaluated once per level.  The simple-zero exponent makes the
    w-prefactor cancel exactly in the tail region, so the integrand is
    bounded all the way to w = 0.
    """
    beta = p / (p - 2.0) if double else p / (p - 1.0)
    with np.errstate(under="ignore"):
        h = w**beta
    out = np.empty_like(h)
    tail = h < _TAIL_FRAC * a
    d = ~tail

    def at(level_values, mask):
        """Per-level values at the masked nodes (a scalar stays a scalar)."""
        if not isinstance(level_values, np.ndarray):
            return level_values
        return np.broadcast_to(level_values, h.shape)[mask]

    if np.any(d):
        G = _direct(nl, at(a, d) - h[d], at(eval_F(nl, a), d), at(a**nl.q, d))
        out[d] = G ** (-1.0 / p) * beta * w[d] ** (beta - 1.0)
    if np.any(tail):
        ht = h[tail]
        if double:
            res = np.empty_like(ht)
            model = ht < _MODEL_FRAC * a
            res[model] = beta * (0.5 * abs(_dm(nl, a))) ** (-1.0 / p)
            rest = ~model
            if np.any(rest):
                S = _tail_mean(nl, a, ht[rest])
                res[rest] = beta * S ** (-1.0 / p) * w[tail][rest] ** (1.0 / (p - 2.0))
        else:
            res = beta * _tail_mean(nl, at(a, tail), ht) ** (-1.0 / p)
        out[tail] = res
    return out


# ---------------------------------------------------------------------------
# one monotone arch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arch:
    """A monotone arch from 0 to its extremum ``top`` > 0 on the positive
    side ``nl``; a negative extremum is the positive one of ``reflected(nl)``.
    ``double`` marks a double zero of G at ``top`` = z_plus (a plateau edge,
    p > 2); otherwise the zero is simple (an arch top)."""

    nl: Nonlinearity
    p: float
    top: float
    double: bool

    @classmethod
    def at(cls, nl: Nonlinearity, p: float, level: float, double: bool = False) -> Arch:
        """The arch whose extremum is the signed ``level``."""
        return cls(nl, p, level, double) if level > 0 else cls(reflected(nl), p, -level, double)

    @property
    def beta(self) -> float:
        """The exponent of the substitution t = top - w^beta."""
        return self.p / (self.p - 2.0) if self.double else self.p / (self.p - 1.0)

    def psi(self, w: np.ndarray) -> np.ndarray:
        """The substituted integrand, bounded on [0, top^(1/beta)]."""
        return _psi(self.nl, self.p, self.top, w, self.double)

    def integral(self, tol: float = QUAD_TOL) -> float:
        """I(top), the arch's half-width in G-space (before kappa)."""
        return tanh_sinh(self.psi, self.top ** (1.0 / self.beta), tol)

    def cumulative(self, w_grid: np.ndarray) -> np.ndarray:
        """G-space distances from the extremum to the offsets ``w_grid``, ascending from 0."""
        return cumulative_gl(self.psi, w_grid)

    def distance(self, w: float) -> float:
        """G-space distance from the extremum to the offset w."""
        return tanh_sinh(self.psi, w, QUAD_TOL)

    def radicand(self, t, h):
        """G(t) = F(t) - F(top) + (top^q - t^q)/q and m(t) at t = top - h,
        given as the pair (t, h) since neither is exact rebuilt from the other.

        The bands are ``_psi``'s: at a double zero below ``_MODEL_FRAC * top``,
        G and m are the Taylor terms |m'(top)| h^2/2 and |m'(top)| h; below
        ``_TAIL_FRAC * top``, G is h times the tail mean of m; above, the
        direct formula at t.  Floats (a check point) give (G, m); arrays (a
        profile's grid) give (G, None), as m(0) is 0 * inf for q < 2.
        """
        nl, top = self.nl, self.top
        t, h_b = np.asarray(t, dtype=float), np.asarray(h, dtype=float)
        G = np.empty_like(h_b)
        dm = abs(_dm(nl, top)) if self.double else 0.0
        model = self.double & (h_b < _MODEL_FRAC * top)
        tail = ~model & (h_b < _TAIL_FRAC * top)
        direct = ~(model | tail)
        G[model] = 0.5 * dm * h_b[model] * h_b[model]
        G[tail] = h_b[tail] * _tail_mean(nl, top, h_b[tail])
        top_1 = np.array([top])  # F(top) and top^q by numpy's pow, like F(t) and t^q
        G[direct] = _direct(nl, t[direct], eval_F(nl, top_1), top_1**nl.q)
        if np.ndim(h):
            return G, None
        return float(G), dm * h if model else float(eval_m(nl, t))


# ---------------------------------------------------------------------------
# the singular integrals I and J
# ---------------------------------------------------------------------------


def integral_I(nl: Nonlinearity, p: float, a: float, tol: float = QUAD_TOL) -> float:
    """I(a) for a in (0, z_plus]; the endpoint needs p > 2."""
    zp = nl.z_plus
    if not 0.0 < a <= zp * (1.0 + 1e-12):
        raise DomainError(f"level {a} outside (0, {zp}]")
    double = a >= zp * (1.0 - _ENDPOINT_SNAP)
    if double:
        a = zp
        if p <= 2.0:
            raise Divergent("the endpoint integral diverges for p <= 2")
    return Arch(nl, p, a, double).integral(tol)


def integral_J(nl: Nonlinearity, p: float, a: float, tol: float = QUAD_TOL) -> float:
    """J(a) for a in [z_minus, 0): I of the reflected nonlinearity at -a."""
    return integral_I(reflected(nl), p, -a, tol)


def theta(problem: Problem, r: float) -> float:
    """Half-width of the positive arch launched with slope r."""
    return problem.kappa * integral_I(problem.nl, problem.p, z_of_r(problem, r), RESIDUAL_TOL)


def alpha(problem: Problem, r: float) -> float:
    """Half-width of the negative arch launched with slope r."""
    return problem.kappa * integral_J(problem.nl, problem.p, s_of_r(problem, r), RESIDUAL_TOL)


def flat_core_half_widths(problem: Problem) -> tuple[float, float]:
    """x(lambda) and y(lambda): half-widths of the saturated arches (p > 2)."""
    if problem.p <= 2.0:
        raise Divergent("flat cores require p > 2")
    weight = time_map_curves(problem.nl, problem.p).bound_weight
    a_plus, a_minus = areas(problem.nl)
    return problem.kappa * weight(1, 0, a_plus), problem.kappa * weight(0, 1, a_minus)


# ---------------------------------------------------------------------------
# the lambda-free store of one (f, p)
# ---------------------------------------------------------------------------


class TimeMapCurves:
    """The lambda-free part of every scan of one (f, p).

    A class with area bound ``A`` (``A(z+)``, ``A(z-)`` or their minimum) has
    slope bound ``r_A = (lambda p A/(p-1))^(1/p)``, and the slope ``r_A * g``
    reaches the area ``rho = A g^p`` at every lambda.  So on the scan grid
    ``r_A * fractions`` the half-periods are ``kappa * I(z(A g^p))`` (and the
    same with J), where only ``kappa`` depends on lambda.  This store holds
    the fractions ``g`` and fills in, on first use, I or J at those levels per
    area bound (at ``_SCAN_TOL``), and I or J at the level of the area bound
    itself, ``g = 1`` (at ``QUAD_TOL``), for ``bound_weight``.

    Every value is a pure function of the store's key and its own arguments,
    so the order in which lambdas fill it never shows in a result, and two
    threads racing to fill one entry write equal arrays.  The arrays are
    shared by every caller, so they are read-only.
    """

    def __init__(self, nl: Nonlinearity, p: float):
        self.nl, self.p = nl, p
        half = np.geomspace(_SCAN_EPS, 0.5, _SCAN_POINTS // 2)
        self.fractions = np.unique(np.concatenate([half, 1.0 - half[::-1]]))
        self.fractions.flags.writeable = False
        self._scans: dict[tuple[float, bool], np.ndarray] = {}
        self._bounds: dict[tuple[float, bool], float] = {}

    def integrals(self, area: float, negative: bool) -> np.ndarray:
        """I (J when ``negative``) at the levels of area ``area * fractions^p``."""
        (key, nl), p = self._side(area, negative), self.p
        if key not in self._scans:
            levels = level_pos(nl, area * self.fractions**p)
            psi_rows = lambda w, idx: _psi(nl, p, levels[idx][:, None], w, False)
            scan = tanh_sinh_batch(psi_rows, levels ** (1.0 / (p / (p - 1.0))), _SCAN_TOL)
            scan.flags.writeable = False
            self._scans[key] = scan
        return self._scans[key]

    def weights(self, n_pos: int, n_neg: int, area: float) -> np.ndarray:
        """W = n_pos I + n_neg J on the scan grid of area bound ``area``; the
        matching residual is 2 kappa W - 1 and a fold is a minimum of W."""
        return self._weigh(self.integrals, n_pos, n_neg, area)

    def bound_weight(self, n_pos: int, n_neg: int, area: float) -> float:
        """W with every arch at the level of area ``area`` itself, where a
        class's arches launched at its slope bound turn.  ``level_pos`` gives
        z_plus once ``area >= A(z_plus)`` (and ``level_neg`` z_minus), so a
        single arch reaches its own zero and any other class the levels of
        the smaller area; such a term needs p > 2."""
        return self._weigh(self._at_bound, n_pos, n_neg, area)

    def _at_bound(self, area: float, negative: bool) -> float:
        key, nl = self._side(area, negative)
        if key not in self._bounds:
            self._bounds[key] = integral_I(nl, self.p, level_pos(nl, area))
        return self._bounds[key]

    def _side(self, area: float, negative: bool) -> tuple[tuple[float, bool], Nonlinearity]:
        """A side's entry key and nonlinearity; an odd f is its own reflection, so J is I."""
        negative = negative and not self.nl.odd
        return (area, negative), reflected(self.nl) if negative else self.nl

    @staticmethod
    def _weigh(term, n_pos: int, n_neg: int, area: float):
        """n_pos term(area, False) + n_neg term(area, True); a side without
        arches is not evaluated."""
        return sum(n * term(area, negative) for n, negative in ((n_pos, False), (n_neg, True)) if n)


@functools.lru_cache(maxsize=_CURVES_CAP)
def time_map_curves(nl: Nonlinearity, p: float) -> TimeMapCurves:
    """The store of (nl, p), built once and kept among the last
    ``_CURVES_CAP`` used; lambda is not part of the key."""
    return TimeMapCurves(nl, p)


