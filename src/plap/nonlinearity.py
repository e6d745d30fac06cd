"""The nonlinearity ``f`` as one signed series, and its structural validation.

A nonlinearity ``f`` enters the equation through the map
``m(s) = |s|^{q-2} s - f(s)``.  Admissible nonlinearities have ``m`` vanishing
at 0, a first positive zero ``z_plus``, a first negative zero ``z_minus``, and
a quotient ``g(s) = f(s) / (|s|^{q-2} s)`` that tends to 0 at the origin, is
strictly increasing on ``(0, z_plus)`` and strictly decreasing on
``(z_minus, 0)``.  ``validate_hypotheses`` checks these exactly from the
series, with no sampling: ``g'`` has the sign of a polynomial on each side.

Every ``f`` is one signed series ``f(s) = sgn(s) |s|^e sum_k c_k s^k``, with
coefficients ``c_plus`` for ``s >= 0`` and ``c_minus`` for ``s < 0``.  ``F``
and ``f'`` are series of the same form, so one Horner loop in the signed ``s``
evaluates all three.  ``build_nonlinearity`` translates the two JSON kinds:

* ``power_asym``: ``f(s) = b_plus * s^(r-1)`` for ``s >= 0`` and
  ``f(s) = -b_minus * |s|^(r-1)`` for ``s < 0``: ``e = r - 1``,
  ``c_plus, c_minus = (b_plus,), (b_minus,)``.
* ``polynomial``: ``f(s) = sum_k a_k s^k`` with coefficients given from
  ``k = 1`` upward, even powers taken literally: ``e = 1``,
  ``c_plus = c_minus = (a_1, a_2, ...)``.

Two implementations of ``**`` meet here, and they differ in the last bit at
about 5% of (x, y) on x86 with AVX-512.  Python's ``**`` on floats and
numpy's on ``np.float64`` scalars call the C library's pow; numpy's on an
ndarray, a 0-d one included, runs numpy's own loop, with fast paths for the
exponents 0, +-1, 0.5 and 2.  A float, an ``np.float64`` or a 0-d array
takes the scalar branch of ``_horner`` as a Python float, so scalar f, F and
f' use the library's pow, and so does the scalar ``eval_m``, whose |s| is an
``np.float64``; an array uses numpy's pow throughout.  A faster path for
either kind must keep every expression on the pow it uses, or the last bits
of levels, integrals and roots move.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DomainError, HypothesisViolated, NoZeroFound, ignores_underflow
from .roots import brentq

_ZERO_TOL = 1e-12
_BRACKET_START = 1e-3
_BRACKET_DOUBLINGS = 40
# the JSON families and the keys each one requires
_FAMILY_KEYS = {"power_asym": ("b_plus", "b_minus", "r_exp"), "polynomial": ("coeffs",)}


def _alt(c: tuple) -> tuple:
    """Coefficients of ``s -> sum_k c_k (-s)^k``."""
    return tuple(-v if k % 2 else v for k, v in enumerate(c))


@dataclass(frozen=True)
class Nonlinearity:
    """Validated ``f(s) = sgn(s) |s|^e sum_k c_k s^k`` with located zeros of
    ``|s|^{q-2}s - f(s)``; ``c_plus`` applies for ``s >= 0``, ``c_minus``
    for ``s < 0``, both from ``k = 0`` upward."""

    q: float
    e: float
    c_plus: tuple
    c_minus: tuple
    z_plus: float
    z_minus: float

    @cached_property
    def odd(self) -> bool:
        """True when ``f`` is exactly odd (``f(-s) = -f(s)``)."""
        return self.c_plus == _alt(self.c_minus)

    @cached_property
    def _tables(self) -> dict:
        """Per quantity, the series coefficients for ``s >= 0`` and for
        ``s < 0``, highest power first (see ``eval_f``, ``eval_F``, ``eval_df``)."""
        e, sides = self.e, (self.c_plus, self.c_minus)
        F = [c[:1] + tuple(v * (e + 1.0) / (e + 1.0 + k) for k, v in enumerate(c) if k) for c in sides]
        df = [tuple((e + k) * v for k, v in enumerate(c)) for c in sides]
        return {name: (pm[0][::-1], pm[1][::-1]) for name, pm in (("f", sides), ("F", F), ("df", df))}

    @cached_property
    def _reflected(self) -> Nonlinearity:
        c_plus, c_minus = _alt(self.c_minus), _alt(self.c_plus)
        return replace(self, c_plus=c_plus, c_minus=c_minus, z_plus=-self.z_minus, z_minus=-self.z_plus)

    @cached_property
    def _areas(self) -> tuple[float, float]:
        a_plus = self.z_plus**self.q / self.q - eval_F(self, self.z_plus)
        a_minus = abs(self.z_minus) ** self.q / self.q - eval_F(self, self.z_minus)
        return float(a_plus), float(a_minus)


@dataclass
class HypothesisReport:
    """Outcome of the hypothesis checks of ``validate_hypotheses``.

    ``passed`` is True only when every individual check holds and both
    one-sided endpoint limits ``L_plus``/``L_minus`` are strictly negative.
    ``first_violation_pos``/``_neg`` is the end nearest 0 of the window nearest
    0 where ``g`` is not strictly monotone on ``(0, z_plus)``/``(z_minus, 0)``.
    """

    zeros_ok: bool = False
    g_increasing_pos: bool = False
    g_decreasing_neg: bool = False
    g_limit_zero: bool = False
    L_plus: float = np.nan
    L_minus: float = np.nan
    first_violation_pos: float | None = None
    first_violation_neg: float | None = None
    messages: list = field(default_factory=list)

    @property
    def limits_negative(self) -> bool:
        return bool(-math.inf < self.L_plus < 0.0 and -math.inf < self.L_minus < 0.0)

    @property
    def passed(self) -> bool:
        return (
            self.zeros_ok
            and self.g_increasing_pos
            and self.g_decreasing_neg
            and self.g_limit_zero
            and self.limits_negative
        )

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, **asdict(self)}


def _horner(nl: Nonlinearity, quantity: str, s):
    """``s`` as a Python float or a float ndarray, and ``sum_k c_k s^k`` by
    Horner's rule with the coefficient table of the sign of ``s``.  A float
    (``np.float64`` too) is tested first, as the level maps' Brent iterates
    come one float at a time."""
    plus, minus = nl._tables[quantity]
    if isinstance(s, float) or not (s.ndim if isinstance(s, np.ndarray) else np.ndim(s)):
        s = float(s)
        coeffs = plus if s >= 0.0 else minus
    else:
        s = np.asarray(s, dtype=float)
        coeffs = plus if plus == minus else [np.where(s >= 0.0, a, b) for a, b in zip(plus, minus)]
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * s + c
    return s, acc


def eval_f(nl: Nonlinearity, s):
    """Evaluate ``f = sgn(s) |s|^e sum_k c_k s^k`` (scalar or ndarray)."""
    s, h = _horner(nl, "f", s)
    if isinstance(s, float):
        return math.copysign(abs(s) ** nl.e, s) * h
    return np.copysign(abs(s) ** nl.e, s) * h


def eval_F(nl: Nonlinearity, s):
    """Evaluate the exact antiderivative ``F(s) = int_0^s f``, which is
    ``|s|^{e+1}/(e+1) sum_k d_k s^k`` with ``d_0 = c_0``, ``d_k = c_k (e+1)/(e+1+k)``."""
    s, h = _horner(nl, "F", s)
    return abs(s) ** (nl.e + 1.0) / (nl.e + 1.0) * h


def eval_df(nl: Nonlinearity, s):
    """Evaluate ``f' = |s|^{e-1} sum_k (e+k) c_k s^k`` away from 0 (used by
    quadrature local models)."""
    s, h = _horner(nl, "df", s)
    return abs(s) ** (nl.e - 1.0) * h


def eval_g(nl: Nonlinearity, s):
    """Evaluate ``g(s) = f(s) / (|s|^{q-2} s)``; undefined at 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s == 0.0):
        raise DomainError("g(s) is undefined at s = 0")
    denom = np.abs(s) ** (nl.q - 2.0) * s
    out = eval_f(nl, s) / denom
    return out if np.ndim(out) else float(out)


def eval_m(nl: Nonlinearity, s):
    """Evaluate ``m(s) = |s|^{q-2} s - f(s)``.

    A float (``np.float64`` too) of normal size takes Python's ``**``, the
    C library's pow, as f does.  Any other scalar goes through a 0-d array,
    whose ``np.abs`` is an ``np.float64``: |s|^{q-2} then takes the same
    pow, and q < 2 gives m(0) = 0 * inf = nan with numpy's warnings rather
    than a Python ZeroDivisionError.  An array takes numpy's pow (module
    docstring)."""
    if isinstance(s, float) and abs(s) >= sys.float_info.min:  # no 1/0 or overflow in the pow
        s = float(s)
        return abs(s) ** (nl.q - 2.0) * s - eval_f(nl, s)
    s = np.asarray(s, dtype=float)
    out = np.abs(s) ** (nl.q - 2.0) * s - eval_f(nl, s)
    return out if out.ndim else float(out)


def real_number(value, what: str) -> float:
    """``value`` as a float; strings, booleans and other non-numbers raise
    TypeError rather than being read by ``float()``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def _first_positive_zero(m, start: float) -> float:
    """First zero of ``m`` on (0, inf) by geometric bracket expansion.

    Starts well below ``start`` so the sign next to the origin anchors the
    search; families violating the hypotheses still get their zero located
    (validation rejects them afterwards with a diagnosis).  Where ``m < 0``
    at the start, a zero may lie below it: halving looks for ``m > 0`` first
    and, finding none, leaves the search to the doubling.  A doubling step
    can pass over two zeros; as ``m = s^(q-1) (1 - g)``, ``g`` is then not
    monotone below the zero returned, which validation rejects as well.
    """
    s_prev, steps = start * 2.0**-20, 2 * _BRACKET_DOUBLINGS + 21
    v_prev = m(s_prev)
    if v_prev == 0.0:
        return s_prev
    if v_prev < 0.0:
        s = s_prev
        for _ in range(steps):
            s *= 0.5
            if m(s) > 0.0:
                return brentq(m, s, 2.0 * s, xtol=5e-324)
    s = s_prev
    for _ in range(steps):
        s *= 2.0
        v = m(s)
        if v == 0.0:
            return s
        if v * v_prev < 0.0:
            return brentq(m, s_prev, s, xtol=5e-324)
        s_prev, v_prev = s, v
    raise NoZeroFound(
        f"no sign change of the map within the bracket expansion from {start}"
    )


def locate_nonlinearity(kind: str, q: float, params: dict) -> Nonlinearity:
    """Translate a JSON family into the signed series and locate its zeros,
    without validating the hypotheses.

    Raises
    ------
    ValueError
        Unknown family, a missing or unknown family key, or parameters that
        are not numbers, lie outside their declared ranges or are not finite.
    NoZeroFound
        The map ``|s|^{q-2}s - f(s)`` never changes sign.
    """
    if not 1.0 < q < math.inf:
        raise ValueError(f"q must be finite and exceed 1, got {q}")
    if kind not in _FAMILY_KEYS:
        raise ValueError(f"unknown nonlinearity kind {kind!r}")
    missing = [k for k in _FAMILY_KEYS[kind] if k not in params]
    if missing:
        raise ValueError(f"{kind} nonlinearity needs {', '.join(missing)}")
    unknown = sorted(set(params) - {"kind", "q", *_FAMILY_KEYS[kind]})
    if unknown:
        raise ValueError(f"unknown {kind} key(s): {', '.join(unknown)}")
    try:
        if kind == "power_asym":
            values = tuple(real_number(params[k], k) for k in _FAMILY_KEYS[kind])
        else:
            coeffs = params["coeffs"]
            if not isinstance(coeffs, (list, tuple, np.ndarray)):
                raise TypeError(f"coeffs must be a list, got {coeffs!r}")
            values = tuple(real_number(c, "each coefficient") for c in coeffs)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{kind} parameters must be numbers: {exc}") from exc
    # a subnormal value loses digits in every product and can flip a check's sign
    names = _FAMILY_KEYS[kind] if kind == "power_asym" else [f"coeffs[{i}]" for i in range(len(values))]
    tiny = [f"{name} = {v!r}" for name, v in zip(names, values) if 0.0 < abs(v) < sys.float_info.min]
    if tiny:
        raise ValueError(f"{kind} parameters below the normal float range: {', '.join(tiny)}")
    if kind == "power_asym":
        b_plus, b_minus, r_exp = values
        if not (0.0 < b_plus < math.inf and 0.0 < b_minus < math.inf):
            raise ValueError("b_plus and b_minus must be positive and finite")
        if not 1.0 < r_exp < math.inf:
            raise ValueError(f"r_exp must be finite and exceed 1, got {r_exp}")
        e, c_plus, c_minus = r_exp - 1.0, (b_plus,), (b_minus,)
    else:
        if not all(math.isfinite(c) for c in values):
            raise ValueError(f"polynomial coefficients must be finite, got {list(values)}")
        if not values or all(c == 0.0 for c in values):
            raise ValueError("polynomial family needs at least one nonzero coefficient")
        e, c_plus, c_minus = 1.0, values, values

    probe = Nonlinearity(q=float(q), e=e, c_plus=c_plus, c_minus=c_minus, z_plus=1.0, z_minus=-1.0)
    z_plus = _first_positive_zero(lambda s: eval_m(probe, s), _BRACKET_START)
    z_minus = -_first_positive_zero(lambda u: -eval_m(probe, -u), _BRACKET_START)
    return replace(probe, z_plus=z_plus, z_minus=z_minus)


@ignores_underflow
def build_nonlinearity(kind: str, q: float, params: dict) -> Nonlinearity:
    """Translate a JSON family into the signed series, then locate and validate.

    Raises
    ------
    ValueError, NoZeroFound
        As ``locate_nonlinearity``.
    HypothesisViolated
        Structural validation failed (the report rides on the exception).
    """
    nl = locate_nonlinearity(kind, q, params)
    report = validate_hypotheses(nl)
    if not report.passed:
        raise HypothesisViolated("; ".join(report.messages) or "validation failed", report)
    return nl


def reflected(nl: Nonlinearity) -> Nonlinearity:
    """The nonlinearity ``f~(s) = -f(-s)``, which maps the negative side onto
    the positive one: ``c~_plus = alt(c_minus)``, ``c~_minus = alt(c_plus)``
    with ``alt(c)_k = (-1)^k c_k``.

    ``F~(s) = F(-s)`` and ``m~(s) = -m(-s)`` exactly in floating point, so the
    zeros map to ``(-z_minus, -z_plus)`` and the areas swap.  The hypotheses
    are symmetric under the reflection, so the result is not validated again.
    """
    return nl._reflected


def areas(nl: Nonlinearity) -> tuple[float, float]:
    """Areas ``A(z^+) = (z^+)^q/q - F(z^+)`` and ``A(z^-) = |z^-|^q/q - F(z^-)``,
    computed once per nonlinearity."""
    return nl._areas


def _real_roots(Q: np.polynomial.Polynomial) -> list:
    """The real roots of ``Q`` in ``(0, 1)``, increasing, each to within ``1e-15``.
    ``Q`` is monotone between consecutive roots of ``Q'``, so each such piece
    brackets at most one (not eigenvalues: their error scales with the largest root).
    ``Q`` is scaled by a power of two to a largest coefficient near 1, which changes
    no root and no Brent iterate, but keeps Brent's steps out of underflow when all
    coefficients are near the smallest normal float."""
    if Q.degree() < 1:
        return []
    Q = np.polynomial.Polynomial(np.ldexp(Q.coef, -np.frexp(np.max(np.abs(Q.coef)))[1]))
    cuts = np.array([0.0, *_real_roots(Q.deriv()), 1.0])
    sign = np.sign(Q(cuts))
    return [brentq(Q, cuts[i], cuts[i + 1], xtol=1e-16) for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0)]


def _side_checks(nl: Nonlinearity) -> tuple[bool, float | None, float]:
    """The hypotheses on ``(0, z_plus)``, exactly from the series.

    There ``g(s) = s^k P(s)`` with ``k = e + 1 - q`` and ``P(s) = sum_j c_j s^j``,
    so ``g -> 0`` at ``0+`` iff ``k + j0 > 0`` (``c_j0`` the first nonzero ``c_j``),
    and ``s^(1-k) g'(s) = Q(s) = sum_j (k + j) c_j s^j``: ``g`` increases strictly
    iff ``Q(z_plus t) > 0`` between its consecutive real roots in ``(0, 1)``.
    Returns whether ``g -> 0``, the left end of the first window where ``Q <= 0``
    (None if there is none), and ``L^+ = m'(z_plus) / ((q-1) z_plus^(q-2))``.
    """
    k, z = nl.e + 1.0 - nl.q, nl.z_plus
    j0 = next(j for j, c in enumerate(nl.c_plus) if c != 0.0)
    coef = np.array([(k + j) * c * z**j for j, c in enumerate(nl.c_plus)])
    Q = np.polynomial.Polynomial(coef[np.argmax(coef != 0.0):])  # / t^i for i zero low terms: same sign
    cuts = np.array([0.0, *_real_roots(Q), 1.0])
    bad = np.flatnonzero(Q(0.5 * (cuts[:-1] + cuts[1:])) <= 0.0)
    window = float(z * cuts[bad[0]]) if bad.size else None
    limit = 1.0 - eval_df(nl, z) / ((nl.q - 1.0) * z ** (nl.q - 2.0))
    return k + j0 > 0.0, window, float(limit)


@ignores_underflow
def validate_hypotheses(nl: Nonlinearity) -> HypothesisReport:
    """The structural hypotheses, checked exactly from the series.

    Each side is checked by ``_side_checks``, the negative one on
    ``reflected(nl)``, whose ``g~(u) = g(-u)``.  A window where ``g`` fails
    to be strictly monotone is reported by its end nearest 0:
    ``first_violation_pos`` on ``(0, z_plus)`` and, negated,
    ``first_violation_neg`` on ``(z_minus, 0)``.
    """
    report = HypothesisReport()
    mzp, mzm = (abs(eval_m(nl, z)) / (abs(eval_m(nl, 0.5 * z)) + abs(z) ** (nl.q - 1.0))
                for z in (nl.z_plus, nl.z_minus))
    report.zeros_ok = bool(mzp < _ZERO_TOL and mzm < _ZERO_TOL)
    if not report.zeros_ok:
        report.messages.append(f"map does not vanish at z+/z-: residuals {mzp:.2e}, {mzm:.2e}")

    zero_p, window_p, report.L_plus = _side_checks(nl)
    zero_m, window_m, report.L_minus = _side_checks(reflected(nl))
    report.g_limit_zero = zero_p and zero_m
    report.g_increasing_pos = window_p is None
    report.g_decreasing_neg = window_m is None
    if window_p is not None:
        report.first_violation_pos = window_p
        report.messages.append(f"g not strictly increasing on (0, z+) from s = {window_p:.6g}")
    if window_m is not None:
        report.first_violation_neg = start = 0.0 - window_m  # +0.0 for a window from the origin
        report.messages.append(f"g not strictly decreasing on (z-, 0) from s = {start:.6g}")
    if not report.g_limit_zero:
        report.messages.append("g does not tend to 0 at the origin")
    if not report.limits_negative:
        report.messages.append(
            f"endpoint limits not strictly negative: L+ = {report.L_plus:.4g}, "
            f"L- = {report.L_minus:.4g}"
        )
    return report
