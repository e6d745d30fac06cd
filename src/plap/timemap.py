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
ordinary zero of W' for the one bracketed root-finder.  The folds a caller
needs are searched together (``TimeMapCurves.folds``), in rounds that
integrate every pending dI/da of a side in one rows pass.

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

from .errors import Divergent, DomainError, OutOfRange, ignores_underflow
from .nonlinearity import Nonlinearity, areas, eval_F, eval_df, eval_f, eval_m, reflected
from .quadrature import cumulative_gl, tanh_sinh, tanh_sinh_rows
from .roots import brentq, brentq_lockstep

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


def _m_dm(nl: Nonlinearity, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eval_m`` and ``_dm`` at the array s, float for float, with |s|^(q-2)
    taken once: the derivative integrand's tail band reads both."""
    power = np.abs(s) ** (nl.q - 2.0)
    return power * s - eval_f(nl, s), (nl.q - 1.0) * power - eval_df(nl, s)


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
    rows form of the rule), a list of them (``integral`` gives the list of
    I at each, every one the float of its top alone) or a column of them (``psi`` at a
    matrix of abscissae, one row per top).  dI/dtop (``derivative``, and
    ``psi``'s derivative integrand) is served for a simple zero, at a float
    top or at a list of them, every one the float of its top alone."""

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
        broadcasts against w.  F(top) and top^q are evaluated once per call,
        or read from ``ends``: their floats for a float top, their columns
        for a column (``_ends``).
        With ``derivative``, at a simple zero, it is that of dI/dtop less its
        end term, -(beta/p) w^(beta-1) G^(-1-1/p) (m(top) - m(t)), where
        m(top) - m(t) is h times the mean of m' in the tail band; ``ends``
        then also holds top^(q-1) and f(top)."""
        nl, p, top, beta = self.nl, self.p, self.top, self.beta
        if ends is None:
            ends = (eval_F(nl, top), top**nl.q) + ((top ** (nl.q - 1.0), eval_f(nl, top)) if derivative else ())
        h = w**beta  # underflows to 0 near w = 0 at large beta, which numpy's default ignores
        out = np.empty_like(h)
        model, tail, direct = self._bands(h)
        power = -1.0 / p - derivative  # -1/p, or -1 - 1/p to the same double
        column = isinstance(top, np.ndarray)

        def gather(mask, values):  # each top's values repeated at its row's masked nodes, row-major as h[mask]
            counts = mask.sum(axis=1)
            return [v.ravel().repeat(counts) for v in values]

        # A call covers 125-251 nodes and takes 30-40 us at a float top, 45-60 us
        # with ``derivative`` (best of seven timeit runs, four families, on a
        # 2-vCPU x86 machine), set by its count of numpy calls (0.5-4 us each,
        # whatever the node count), so a simple zero, the scans' kind, takes
        # no model step.
        if np.count_nonzero(direct):  # a third of the cost of direct.any() on a pass of 125 nodes
            a, *e = gather(direct, (top, *ends)) if column else (top, *ends)
            t = a - h[direct]
            G = _direct(nl, t, e[0], e[1])
            factor = beta
            if derivative:  # m(top) - m(t) in two differences, as m(0) is 0 * inf for q < 2
                factor = e[2] - np.abs(t) ** (nl.q - 1.0) - (e[3] - eval_f(nl, t))
            out[direct] = G**power * factor * w[direct] ** (beta - 1.0)
        if np.count_nonzero(tail):  # G = h * mean of m, m(top) - m(t) = h * mean of m'
            pts = _tail_nodes(gather(tail, (top,))[0] if column else top, h[tail])
            if derivative:
                m, dm = _m_dm(nl, pts)
                factor = dm @ _GL4_WBAR
            else:
                m, factor = eval_m(nl, pts), beta
            res = (m @ _GL4_WBAR) ** power * factor
            out[tail] = res * w[tail] ** (1.0 / (p - 2.0)) if self.double else res
        if model is not None:
            out[model] = beta * (0.5 * abs(_dm(nl, top))) ** (-1.0 / p)
        return -beta / p * out if derivative else out

    def _ends(self, derivative: bool) -> np.ndarray:
        """The columns ``psi`` reads per top of a list: F(top) and top^q, and
        with ``derivative`` top^(q-1) and f(top).  Each is its float top's
        (Python's pow and the scalar kernels, not numpy's array pow, which
        differs in the last bit), so a row's integrand is its top's alone."""
        nl, tops = self.nl, self.top
        ends = [[eval_F(nl, top) for top in tops], [top**nl.q for top in tops]]
        if derivative:
            ends += [[top ** (nl.q - 1.0) for top in tops], [eval_f(nl, top) for top in tops]]
        return np.array(ends)[..., None]

    def _rows(self, derivative: bool, tol: float) -> list[float]:
        """The integral of ``psi`` (of its derivative integrand) at each top of
        a list, by the rows form of the scalar rule: each row is the float of
        the scalar integral at its top, whose upper limit is its float top's."""
        column, ends = np.array(self.top)[:, None], self._ends(derivative)
        return tanh_sinh_rows(
            lambda w, rows: replace(self, top=column[rows]).psi(w, derivative, ends[:, rows]),
            [top ** (1.0 / self.beta) for top in self.top],
            tol,
        )

    def integral(self, tol: float = QUAD_TOL) -> float | np.ndarray | list[float]:
        """I(top), the arch's half-width in G-space (before kappa); for an
        array or a list of tops, I at each by the rows form of the rule: an
        array (a scan) with its upper limits and ends by numpy's array ops, a
        list (``_rows``) with each row the float of the scalar integral at
        its top."""
        if isinstance(self.top, list):
            return self._rows(False, tol)
        upper = self.top ** (1.0 / self.beta)
        if isinstance(self.top, np.ndarray):
            return tanh_sinh_rows(lambda w, idx: replace(self, top=self.top[idx, None]).psi(w), upper, tol)
        return tanh_sinh(self.psi, upper, tol)

    def derivative(self) -> float | list[float]:
        """dI/dtop for a simple zero: the integral of ``psi``'s derivative
        integrand plus the moving limit's end term A(top)^(-1/p), at
        ``QUAD_TOL``.  A list of tops gives the list of dI/dtop at each, every
        one the float of its top alone: by the rows form of the rule from
        three tops on (six rows cost 0.42 times six calls, three 0.68 times
        three calls, two 0.93 times two calls and a lone one 1.59 times a
        call, on the two f of ``integral_I``), one call each below that:
        rows from two tops on moved a warm structure(N=6) of the latter f by
        1%, within the noise of a paired run.  At a double zero I' diverges
        like eps^(-2/p) as the level nears it, so there it raises
        ``Divergent``."""
        if self.double:
            raise Divergent("dI/dtop diverges at a double zero")
        nl, p, top = self.nl, self.p, self.top
        if not isinstance(top, list):  # A(top) = top^q/q - F(top) from psi's ends
            ends = (eval_F(nl, top), top**nl.q, top ** (nl.q - 1.0), eval_f(nl, top))
            rule = tanh_sinh(lambda w: self.psi(w, True, ends), top ** (1.0 / self.beta), QUAD_TOL)
            return rule + (ends[1] / nl.q - ends[0]) ** (-1.0 / p)
        if len(top) < 3:
            return [Arch(nl, p, one, False).derivative() for one in top]
        return [row + _area(nl, one) ** (-1.0 / p) for row, one in zip(self._rows(True, QUAD_TOL), top)]

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


@ignores_underflow
def integral_I(nl: Nonlinearity, p: float, a: float | list[float], tol: float = QUAD_TOL):
    """I(a) for a in (0, z_plus]; the endpoint needs p > 2.  A list of levels
    gives the list of I at each, every one the float of its level alone: the
    simple levels by the rows form of the rule when there are three or more
    (six rows cost 0.44 times six calls, three 0.75 times three calls, two
    1.01 times two calls and a lone one 1.78 times a call, at RESIDUAL_TOL on
    f = 2s^3 / -|s|^3 at p = 3 and f = 1.5 s^4 / -s^4 at p = 2, on a 2-vCPU
    x86 machine), and the rest, a level snapped to z_plus among them, one
    call each."""
    if not isinstance(a, list):
        return _integral_at(nl, p, a, tol)
    zp = nl.z_plus
    simple = [0.0 < level < zp * (1.0 - _ENDPOINT_SNAP) for level in a]
    if sum(simple) < 3:
        return [_integral_at(nl, p, level, tol) for level in a]
    rows = iter(Arch(nl, p, list(compress(a, simple)), False).integral(tol))
    return [next(rows) if row else _integral_at(nl, p, level, tol) for level, row in zip(a, simple)]


def _integral_at(nl: Nonlinearity, p: float, a: float, tol: float) -> float:
    """``integral_I`` at one level."""
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
    """A class's fold as the pair (rho, W); ``level``, set by ``folds``, is the lead side's z there."""


class TimeMapCurves:
    """The lambda-free part of every scan of one (f, p).

    A class with area bound ``A`` (``A(z+)``, ``A(z-)`` or their minimum) has
    slope bound ``r_A = (lambda p A/(p-1))^(1/p)``, and the slope ``r_A * g``
    reaches the area ``rho = A g^p`` at every lambda.  So on the scan grid
    ``r_A * fractions`` the half-periods are ``kappa * I(z(A g^p))`` (and the
    same with J), where only ``kappa`` depends on lambda.  This store holds
    the fractions ``g`` and fills in, on first use, the levels and I or J at
    them per area bound (at ``_SCAN_TOL``), I or J at the level of the
    area bound itself, ``g = 1`` (at ``QUAD_TOL``), for ``bound_weight``,
    and per scan index the terms of the root search's opening round at
    ``RESIDUAL_TOL`` (``scan_terms``).  ``folds`` searches between the scan
    levels and keeps nothing.

    Every value is a pure function of the store's key and its own arguments,
    so the order in which lambdas fill it never shows in a result, and two
    threads racing to fill one entry write equal arrays.  The arrays are
    shared by every caller, so they are read-only.
    """

    def __init__(self, nl: Nonlinearity, p: float):
        self.nl, self.p = nl, p
        half = np.geomspace(_SCAN_EPS, 0.5, _SCAN_POINTS // 2)
        # ascending, with 0.5 once; np.unique would import numpy.ma on a cold CLI
        self.fractions = np.concatenate([half, 1.0 - half[-2::-1]])
        self.fractions.flags.writeable = False
        self._levels: dict[tuple[float, bool], np.ndarray] = {}
        self._scans: dict[tuple[float, bool], np.ndarray] = {}
        self._bounds: dict[tuple[float, bool], float] = {}
        self._terms: dict[tuple[float, bool], np.ndarray] = {}

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

    def tops_at(self, z: float, n_pos, n_neg) -> dict[bool, float]:
        """The top of every side ``weigh`` reads for the class at the lead
        level z, keyed by whether the side is the reflected one: the lead
        side's z, and for arches of both signs of a non-odd f the other
        side's level of the area A(z)."""
        if n_pos and n_neg and not self.nl.odd:  # the lead side is nl
            return {False: z, True: level_pos(reflected(self.nl), _area(self.nl, z))}
        return {not (n_pos or self.nl.odd): z}  # the lead side (``lead``) alone

    def scan_terms(self, points: list[tuple[float, int, int, int]]) -> list[dict[bool, float]]:
        """I at ``RESIDUAL_TOL`` at each top ``tops_at`` gives, keyed as it
        keys them, for each (area, i, n_pos, n_neg) of ``points``: the class
        at point i of the scan grid of its lead side and area bound ``area``.

        These terms are lambda-free, so they are kept, NaN until first used,
        in one array per grid aligned with its levels: the lead side's I, and
        for arches of both signs of a non-odd f the other side's top and its
        I.  Each side's missing tops are integrated by one ``integral_I`` of a
        list, whose rows are the floats of calls of their own, so a kept term
        is the float a search at any lambda would compute there.
        """
        nl, reads, missing = self.nl, [], {}
        for area, i, n_pos, n_neg in points:
            negative = self.lead(n_pos) is not nl
            terms = self._terms.get((area, negative))
            if terms is None:  # rows: the lead side's I, the other side's top, its I
                terms = self._terms.setdefault((area, negative), np.full((3, self.fractions.size), np.nan))
            rows = {negative: 0}
            if n_pos and n_neg and not nl.odd:
                if math.isnan(terms[1, i]):
                    terms[1, i] = self.tops_at(float(self.levels(area, negative)[i]), n_pos, n_neg)[True]
                rows[True] = 2
            for side, row in rows.items():
                if math.isnan(terms[row, i]):
                    top = float(terms[1, i] if row else self.levels(area, negative)[i])
                    missing.setdefault(side, {}).setdefault(top, []).append((terms, row, i))
            reads.append((terms, rows, i))
        for side, at in missing.items():
            levels = list(at)
            for top, value in zip(levels, integral_I(reflected(nl) if side else nl, self.p, levels, RESIDUAL_TOL)):
                for terms, row, i in at[top]:
                    terms[row, i] = value
        return [{side: float(terms[row, i]) for side, row in rows.items()} for terms, rows, i in reads]

    def weigh_at(self, points: list[tuple[float, int, int]], term) -> list[float]:
        """``weigh`` at each (z, n_pos, n_neg) of ``points`` of ``term(side,
        levels)``, a side's values (I or a multiple of it) at a list of its
        tops (``tops_at``): one call per side for every point together."""
        nl, tops, values = self.nl, [], {}
        for z, n_pos, n_neg in points:
            by_side = self.tops_at(z, n_pos, n_neg)
            tops.append(by_side)
            for negative, top in by_side.items():
                values.setdefault(negative, {})[top] = 0.0
        for negative, at in values.items():
            levels = list(at)
            at.update(zip(levels, term(reflected(nl) if negative else nl, levels)))
        out = []  # loops, not comprehensions: a lone search pays this per round
        for (_, n_pos, n_neg), by_side in zip(points, tops):
            out.append(weigh(nl, lambda s: values[s is not nl][by_side[s is not nl]], n_pos, n_neg))
        return out

    def folds(self, searches: list[tuple[int, int, float, int]]) -> list[Fold]:
        """(rho, W) at the fold of each (n_pos, n_neg, area, i) of ``searches``
        (q > p): the zero of W' = dW/drho of the class with ``n_pos``
        positive and ``n_neg`` negative arches between the points i-1 and i+1
        of the scan grid of area bound ``area``.

        Each search runs for the reduced ratio (``reduce``) in the level z of
        the lead side (``tops_at``), between the scan levels.  Each side's
        dI/drho is ``Arch.derivative`` over m = dA/dz at its level.  Brent's
        method places each zero to the relative xtol ``_FOLD_XTOL``, every
        search in lockstep (``brentq_lockstep``): a round integrates the
        pending dI/dtop of a side by one ``Arch.derivative`` of a list, and W
        at the zeros is one ``integral_I`` of a list per side.  Each row is
        the float of its top alone, so each fold is the float of its search
        alone.  Nothing is kept.
        """
        p = self.p
        reduced = [self.reduce(n_pos, n_neg) for n_pos, n_neg, _, _ in searches]
        counts = [(n_pos, n_neg) for _, n_pos, n_neg in reduced]
        leads = [self.lead(n_pos) for n_pos, _ in counts]
        brackets = []
        for lead, (_, _, area, i) in zip(leads, searches):
            lo, hi = map(float, self.levels(area, lead is not self.nl)[[i - 1, i + 1]])
            brackets.append((lo, hi, _FOLD_XTOL * lo))

        def slopes(side: Nonlinearity, tops: list[float]) -> list[float]:
            return [d / eval_m(side, top) for d, top in zip(Arch(side, p, tops, False).derivative(), tops)]

        def slope_rows(zs: list[float], idx: list[int]) -> list[float]:
            return self.weigh_at([(z, *counts[k]) for z, k in zip(zs, idx)], slopes)

        zeros = brentq_lockstep(slope_rows, brackets)
        points = [(z, *count) for z, count in zip(zeros, counts)]
        weights = self.weigh_at(points, lambda side, levels: integral_I(side, p, levels))
        out = []
        for (d, _, _), lead, z, w in zip(reduced, leads, zeros, weights):
            fold = Fold((_area(lead, z), d * w))
            fold.level = z
            out.append(fold)
        return out


@functools.lru_cache(maxsize=_CURVES_CAP)
def time_map_curves(nl: Nonlinearity, p: float) -> TimeMapCurves:
    """The store of (nl, p), built once and kept among the last
    ``_CURVES_CAP`` used; lambda is not part of the key."""
    return TimeMapCurves(nl, p)


