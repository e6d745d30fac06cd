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
a bounded function of ``w``, which the tanh-sinh rule then resolves.  The
same substitution bounds dI/da at a simple zero (``Arch.derivative``), so a
fold of a class's time map, where pairs of solutions are born, is an
ordinary zero of W' for the one bracketed root-finder.

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
from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from .errors import Divergent, DomainError, OutOfRange
from .nonlinearity import Nonlinearity, areas, eval_F, eval_df, eval_f, eval_m, reflected
from .quadrature import cumulative_gl, tanh_sinh, tanh_sinh_batch, tanh_sinh_rows
from .roots import brentq

_TAIL_FRAC = 1e-2  # switch from the direct formula to the tail integral
_MODEL_FRAC = 1e-8  # switch from the tail integral to the local quadratic model
_ENDPOINT_SNAP = 1e-14  # levels this close to z+/z- are treated as the endpoint
_SCAN_EPS = 1e-12  # relative clamp of the open slope interval in scans
_SCAN_POINTS = 1024  # fractions of every scan grid
_SCAN_TOL = 1e-8  # tanh-sinh tolerance of the store's scans
_CURVES_CAP = 64  # (f, p) stores kept by time_map_curves
_FOLD_XTOL = 1e-10  # relative xtol of the fold searches, the zeros of W'

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
# the pieces of the radicand G
# ---------------------------------------------------------------------------

_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
_GL4_SIGMA = 0.5 * (_GL4_X + 1.0)
_GL4_WBAR = 0.5 * _GL4_W


def _dm(nl: Nonlinearity, s):
    """Derivative of the map m(s) = |s|^{q-2}s - f(s), elementwise for an array."""
    return (nl.q - 1.0) * abs(s) ** (nl.q - 2.0) - eval_df(nl, s)


def _tail_nodes(a, h):
    """The GL4 nodes of [a-h, a] along a new last axis: a map's values there
    ``@ _GL4_WBAR`` are its mean over the interval."""
    return np.asarray(a)[..., None] - h[..., None] * _GL4_SIGMA


def _direct(nl: Nonlinearity, t, F_a, a_q):
    """The direct formula for G at t, given F(a) and a^q.

    It cancels catastrophically as t -> a.  ``|t|`` keeps it real where
    t = a - h rounds just below 0.
    """
    return eval_F(nl, t) - F_a + (a_q - np.abs(t) ** nl.q) / nl.q


# ---------------------------------------------------------------------------
# one monotone arch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arch:
    """A monotone arch from 0 to its extremum ``top`` > 0 on the positive
    side ``nl``; a negative extremum is the positive one of ``reflected(nl)``.
    ``double`` marks a double zero of G at ``top`` = z_plus (a plateau edge,
    p > 2); otherwise the zero is simple (an arch top).  ``top`` may also be
    an array of simple-zero tops (``integral`` gives I at each by the
    batched rule), a list of them (``integral`` gives the list of I at each,
    every one the float of its top alone) or a column of them (``psi`` at a
    matrix of abscissae, one row per top).  dI/dtop (``derivative``, and
    ``psi``'s derivative integrand) is served for a simple zero at a float
    top only."""

    nl: Nonlinearity
    p: float
    top: float | np.ndarray
    double: bool

    @classmethod
    def at(cls, nl: Nonlinearity, p: float, level: float, double: bool = False) -> Arch:
        """The arch whose extremum is the signed ``level``."""
        return cls(nl, p, level, double) if level > 0 else cls(reflected(nl), p, -level, double)

    @property
    def beta(self) -> float:
        """The exponent of the substitution t = top - w^beta."""
        return self.p / (self.p - 2.0) if self.double else self.p / (self.p - 1.0)

    def _bands(self, h):
        """G's bands at the offsets h = top - t, as masks (model, tail, direct):
        at a double zero below ``_MODEL_FRAC * top``, G and m are the Taylor
        terms |m'(top)| h^2/2 and |m'(top)| h (a simple zero has no model
        band: None); below ``_TAIL_FRAC * top``, G is h times the tail mean of
        m; above, the direct formula at t."""
        near = h < _TAIL_FRAC * self.top
        if not self.double:
            return None, near, ~near
        model = h < _MODEL_FRAC * self.top
        return model, near ^ model, ~near

    def psi(self, w: np.ndarray, derivative: bool = False, ends=None) -> np.ndarray:
        """The substituted integrand at the abscissae w, bounded on [0, top^(1/beta)]:
        in the tail band the w-prefactor cancels exactly.  A column of tops
        broadcasts against w, with F(top) and top^q evaluated once per top,
        or read from ``ends``, the pair of their columns.
        With ``derivative``, at a simple zero and a float top, it is that of
        dI/dtop less its end term, -(beta/p) w^(beta-1) G^(-1-1/p) (m(top) - m(t)),
        where m(top) - m(t) is h times the mean of m' in the tail band."""
        nl, p, top, beta = self.nl, self.p, self.top, self.beta
        F_top, top_q = (eval_F(nl, top), top**nl.q) if ends is None else ends
        with np.errstate(under="ignore"):
            h = w**beta
        out = np.empty_like(h)
        model, tail, direct = self._bands(h)
        power = -1.0 / p - derivative  # -1/p, or -1 - 1/p to the same double

        def at(v, mask):  # per-top values at the masked nodes; a float stays a float
            return np.broadcast_to(v, h.shape)[mask] if isinstance(v, np.ndarray) else v

        # A call covers 125-251 nodes and takes 30-40 us at a float top, 45-60 us
        # with ``derivative`` (best of seven timeit runs, four families, on a
        # 2-vCPU x86 machine), set by its count of numpy calls (0.5-4 us each,
        # whatever the node count), so a simple zero, the scans' kind, takes
        # no model step.
        if direct.any():
            t = at(top, direct) - h[direct]
            G = _direct(nl, t, at(F_top, direct), at(top_q, direct))
            factor = beta
            if derivative:  # m(top) - m(t) in two differences, as m(0) is 0 * inf for q < 2
                factor = top ** (nl.q - 1.0) - np.abs(t) ** (nl.q - 1.0) - (eval_f(nl, top) - eval_f(nl, t))
            out[direct] = G**power * factor * w[direct] ** (beta - 1.0)
        if tail.any():
            pts = _tail_nodes(at(top, tail), h[tail])  # G = h * mean of m, m(top) - m(t) = h * mean of m'
            factor = _dm(nl, pts) @ _GL4_WBAR if derivative else beta
            res = (eval_m(nl, pts) @ _GL4_WBAR) ** power * factor
            out[tail] = res * w[tail] ** (1.0 / (p - 2.0)) if self.double else res
        if model is not None:
            out[model] = beta * (0.5 * abs(_dm(nl, top))) ** (-1.0 / p)
        return -beta / p * out if derivative else out

    def integral(self, tol: float = QUAD_TOL) -> float | np.ndarray | list[float]:
        """I(top), the arch's half-width in G-space (before kappa); for an
        array of tops, I at each by the batched rule; for a list of tops, I
        at each by the rows form of the scalar rule.  A row's upper limit,
        F(top) and top^q are its float top's (Python's pow and the scalar
        kernels, not numpy's array pow, which differs in the last bit), so
        each row is the float of ``integral`` at its top alone."""
        if isinstance(self.top, list):
            nl, tops = self.nl, self.top
            column = np.array(tops)[:, None]
            ends = np.array([[eval_F(nl, top) for top in tops], [top**nl.q for top in tops]])[..., None]
            return tanh_sinh_rows(
                lambda w, rows: replace(self, top=column[rows]).psi(w, ends=ends[:, rows]),
                [top ** (1.0 / self.beta) for top in tops],
                tol,
            )
        upper = self.top ** (1.0 / self.beta)
        if isinstance(self.top, np.ndarray):
            return tanh_sinh_batch(lambda w, idx: replace(self, top=self.top[idx, None]).psi(w), upper, tol)
        return tanh_sinh(self.psi, upper, tol)

    def derivative(self) -> float:
        """dI/dtop for a simple zero at a float top: the integral of ``psi``'s
        derivative integrand plus the moving limit's end term A(top)^(-1/p),
        at ``QUAD_TOL``.  At a double zero I' diverges like eps^(-2/p) as the
        level nears it, so there it raises ``Divergent``."""
        if self.double:
            raise Divergent("dI/dtop diverges at a double zero")
        upper = self.top ** (1.0 / self.beta)
        return tanh_sinh(lambda w: self.psi(w, True), upper, QUAD_TOL) + _area(self.nl, self.top) ** (-1.0 / self.p)

    def cumulative(self, w_grid: np.ndarray) -> np.ndarray:
        """G-space distances from the extremum to the offsets ``w_grid``, ascending from 0."""
        return cumulative_gl(self.psi, w_grid)

    def distance(self, w: float) -> float:
        """G-space distance from the extremum to the offset w."""
        return tanh_sinh(self.psi, w, QUAD_TOL)

    def radicand(self, t, h):
        """G(t) = F(t) - F(top) + (top^q - t^q)/q and m(t) at t = top - h, in
        the bands of ``_bands``, given as the pair (t, h) since neither is exact
        rebuilt from the other.  Floats (a check point) give (G, m); arrays (a
        profile's grid) give (G, None), as m(0) is 0 * inf for q < 2.
        """
        nl, top = self.nl, self.top
        t, h_b = np.asarray(t, dtype=float), np.asarray(h, dtype=float)
        G = np.empty_like(h_b)
        model, tail, direct = self._bands(h_b)
        if model is not None:
            dm = abs(_dm(nl, top))
            G[model] = 0.5 * dm * h_b[model] * h_b[model]
        G[tail] = h_b[tail] * (eval_m(nl, _tail_nodes(top, h_b[tail])) @ _GL4_WBAR)
        top_1 = np.array([top])  # F(top) and top^q by numpy's pow, like F(t) and t^q
        G[direct] = _direct(nl, t[direct], eval_F(nl, top_1), top_1**nl.q)
        if np.ndim(h):
            return G, None
        return float(G), dm * h if model else float(eval_m(nl, t))


# ---------------------------------------------------------------------------
# the singular integrals I and J
# ---------------------------------------------------------------------------


def integral_I(nl: Nonlinearity, p: float, a: float | list[float], tol: float = QUAD_TOL):
    """I(a) for a in (0, z_plus]; the endpoint needs p > 2.  A list of levels
    gives the list of I at each, every one the float of its level alone: the
    simple levels by the rows form of the rule when there are three or more
    (three rows cost 0.8 times three calls, two 1.08 times two calls, a lone
    one up to 1.8 times a call), and the rest, a level snapped to z_plus
    among them, one call each."""
    zp = nl.z_plus
    if isinstance(a, list):
        simple = [0.0 < level < zp * (1.0 - _ENDPOINT_SNAP) for level in a]
        if sum(simple) < 3:
            return [integral_I(nl, p, level, tol) for level in a]
        rows = iter(Arch(nl, p, list(compress(a, simple)), False).integral(tol))
        return [next(rows) if row else integral_I(nl, p, level, tol) for level, row in zip(a, simple)]
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


def weigh(nl: Nonlinearity, term, n_pos, n_neg):
    """A class's time map W = n_pos term(nl) + n_neg term(reflected(nl)), the
    one place a class's two sides are summed: ``term(side)`` is I (or a
    multiple of it) of one side, J being I of the reflection.  A side without
    arches is not evaluated, and an odd f is its own reflection, so there
    ``term(nl)`` serves both sides and is evaluated once."""
    total = 0
    if n_pos:
        value = term(nl)
        total += n_pos * value
    if n_neg:
        if not (n_pos and nl.odd):
            value = term(nl if nl.odd else reflected(nl))
        total += n_neg * value
    return total


# ---------------------------------------------------------------------------
# the lambda-free store of one (f, p)
# ---------------------------------------------------------------------------


class Fold(tuple):
    """A class's fold as the pair (rho, W); ``level``, set by ``fold``, is the lead side's z there."""


class TimeMapCurves:
    """The lambda-free part of every scan of one (f, p).

    A class with area bound ``A`` (``A(z+)``, ``A(z-)`` or their minimum) has
    slope bound ``r_A = (lambda p A/(p-1))^(1/p)``, and the slope ``r_A * g``
    reaches the area ``rho = A g^p`` at every lambda.  So on the scan grid
    ``r_A * fractions`` the half-periods are ``kappa * I(z(A g^p))`` (and the
    same with J), where only ``kappa`` depends on lambda.  This store holds
    the fractions ``g`` and fills in, on first use, the levels and I or J at
    them per area bound (at ``_SCAN_TOL``), and I or J at the level of the
    area bound itself, ``g = 1`` (at ``QUAD_TOL``), for ``bound_weight``.
    ``fold`` searches between the scan levels and keeps nothing.

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
        self._levels: dict[tuple[float, bool], np.ndarray] = {}
        self._scans: dict[tuple[float, bool], np.ndarray] = {}
        self._bounds: dict[tuple[float, bool], float] = {}

    def levels(self, area: float, negative: bool) -> np.ndarray:
        """The levels z (-S when ``negative``) of area ``area * fractions^p``."""
        if (area, negative) not in self._levels:
            levels = level_pos(reflected(self.nl) if negative else self.nl, area * self.fractions**self.p)
            levels.flags.writeable = False
            self._levels[area, negative] = levels
        return self._levels[area, negative]

    def integrals(self, area: float, negative: bool) -> np.ndarray:
        """I (J when ``negative``) at ``levels(area, negative)``."""
        if (area, negative) not in self._scans:
            nl = reflected(self.nl) if negative else self.nl
            scan = Arch(nl, self.p, self.levels(area, negative), False).integral(_SCAN_TOL)
            scan.flags.writeable = False
            self._scans[area, negative] = scan
        return self._scans[area, negative]

    def weights(self, n_pos: int, n_neg: int, area: float) -> np.ndarray:
        """W = n_pos I + n_neg J on the scan grid of area bound ``area``; the
        matching residual is 2 kappa W - 1 and a fold is a minimum of W."""
        return weigh(self.nl, lambda side: self.integrals(area, side is not self.nl), n_pos, n_neg)

    def bound_weight(self, n_pos: int, n_neg: int, area: float) -> float:
        """W with every arch at the level of area ``area`` itself, where a
        class's arches launched at its slope bound turn.  ``level_pos`` gives
        z_plus once ``area >= A(z_plus)`` (and ``level_neg`` z_minus), so a
        single arch reaches its own zero and any other class the levels of
        the smaller area; such a term needs p > 2."""

        def at_bound(side: Nonlinearity) -> float:
            key = (area, side is not self.nl)
            if key not in self._bounds:
                self._bounds[key] = integral_I(side, self.p, level_pos(side, area))
            return self._bounds[key]

        return weigh(self.nl, at_bound, n_pos, n_neg)

    def reduce(self, n_pos: int, n_neg: int) -> tuple[int, int, int]:
        """(d, n_pos/d, n_neg/d): W of n_pos : n_neg arches is d times W of the
        reduced ratio.  An odd f counts every arch on the positive side, so
        S_j^+ and S_j^- reduce alike."""
        if self.nl.odd:
            n_pos, n_neg = n_pos + n_neg, 0
        d = math.gcd(n_pos, n_neg)
        return d, n_pos // d, n_neg // d

    def lead(self, n_pos) -> Nonlinearity:
        """A class's lead side, the first one ``weigh`` reads, whose level is its coordinate."""
        return self.nl if n_pos or self.nl.odd else reflected(self.nl)

    def weigh_at(self, z: float, n_pos, n_neg, term) -> float:
        """``weigh`` of ``term(side, top)``, I or a multiple of it at a level: the
        lead side's at z, the other side's at the level of the area A(z)."""
        lead = self.lead(n_pos)
        return weigh(self.nl, lambda s: term(s, z if s is lead else level_pos(s, _area(lead, z))), n_pos, n_neg)

    def tops_at(self, z: float, n_pos, n_neg) -> dict[Nonlinearity, float]:
        """The top of every side ``weigh_at`` reads for the class at the lead
        level z, by side, for callers that integrate many tops at once."""
        tops = {}
        self.weigh_at(z, n_pos, n_neg, tops.setdefault)
        return tops

    def fold(self, n_pos: int, n_neg: int, area: float, i: int) -> Fold:
        """(rho, W) at the fold of the class with ``n_pos`` positive and
        ``n_neg`` negative arches (q > p): the zero of W' = dW/drho between
        the points i-1 and i+1 of the scan grid of area bound ``area``.

        The search runs for the reduced ratio (``reduce``) in the level z of
        the lead side (``weigh_at``), between the scan levels.  Each side's
        dI/drho is ``Arch.derivative`` over m = dA/dz at its level; Brent's
        method places the zero to the relative xtol ``_FOLD_XTOL``, and W is
        evaluated once, there.  The result is not kept.
        """
        d, n_pos, n_neg = self.reduce(n_pos, n_neg)

        def slope(side: Nonlinearity, top: float) -> float:
            return Arch(side, self.p, top, False).derivative() / eval_m(side, top)

        lead = self.lead(n_pos)
        lo, hi = map(float, self.levels(area, lead is not self.nl)[[i - 1, i + 1]])
        z = brentq(lambda z: self.weigh_at(z, n_pos, n_neg, slope), lo, hi, xtol=_FOLD_XTOL * lo)
        w = self.weigh_at(z, n_pos, n_neg, lambda side, top: integral_I(side, self.p, top))
        fold = Fold((_area(lead, z), d * w))
        fold.level = z
        return fold


@functools.lru_cache(maxsize=_CURVES_CAP)
def time_map_curves(nl: Nonlinearity, p: float) -> TimeMapCurves:
    """The store of (nl, p), built once and kept among the last
    ``_CURVES_CAP`` used; lambda is not part of the key."""
    return TimeMapCurves(nl, p)


