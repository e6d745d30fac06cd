"""Built-in nonlinearity families and their structural validation.

A nonlinearity ``f`` enters the equation through the map
``m(s) = |s|^{q-2} s - f(s)``.  Admissible families have ``m`` vanishing at 0,
a first positive zero ``z_plus``, a first negative zero ``z_minus``, and a
quotient ``g(s) = f(s) / (|s|^{q-2} s)`` that tends to 0 at the origin, is
strictly increasing on ``(0, z_plus)`` and strictly decreasing on
``(z_minus, 0)``.  Two families are supported, both with exact analytic
antiderivatives:

* ``power_asym``: ``f(s) = b_plus * s^(r-1)`` for ``s >= 0`` and
  ``f(s) = -b_minus * |s|^(r-1)`` for ``s < 0`` (asymmetric unless
  ``b_plus == b_minus``).
* ``polynomial``: ``f(s) = sum_k c_k s^k`` with coefficients given from
  ``k = 1`` upward, even powers taken literally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, HypothesisViolated, NoZeroFound

KIND_POWER_ASYM = "power_asym"
KIND_POLYNOMIAL = "polynomial"

_ZERO_TOL = 1e-12
_BRACKET_START = 1e-3
_BRACKET_DOUBLINGS = 40


@dataclass(frozen=True)
class Nonlinearity:
    """Validated nonlinearity with located zeros of ``|s|^{q-2}s - f(s)``."""

    kind: str
    q: float
    params: dict
    z_plus: float
    z_minus: float

    @property
    def odd(self) -> bool:
        """True when the family is exactly odd (``f(-s) = -f(s)``)."""
        if self.kind == KIND_POWER_ASYM:
            return self.params["b_plus"] == self.params["b_minus"]
        coeffs = self.params["coeffs"]
        return all(c == 0.0 for k, c in enumerate(coeffs, start=1) if k % 2 == 0)


@dataclass
class HypothesisReport:
    """Outcome of the grid-based hypothesis checks.

    ``passed`` is True only when every individual check holds and both
    one-sided endpoint limits are strictly negative.
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
        return (
            np.isfinite(self.L_plus)
            and np.isfinite(self.L_minus)
            and self.L_plus < 0.0
            and self.L_minus < 0.0
        )

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
        return {
            "passed": bool(self.passed),
            "zeros_ok": bool(self.zeros_ok),
            "g_increasing_pos": bool(self.g_increasing_pos),
            "g_decreasing_neg": bool(self.g_decreasing_neg),
            "g_limit_zero": bool(self.g_limit_zero),
            "L_plus": float(self.L_plus),
            "L_minus": float(self.L_minus),
            "first_violation_pos": self.first_violation_pos,
            "first_violation_neg": self.first_violation_neg,
            "messages": list(self.messages),
        }


def eval_f(nl: Nonlinearity, s):
    """Evaluate ``f`` (scalar or ndarray)."""
    s = np.asarray(s, dtype=float)
    if nl.kind == KIND_POWER_ASYM:
        r = nl.params["r_exp"]
        mag = np.abs(s) ** (r - 1.0)
        out = np.where(s >= 0.0, nl.params["b_plus"] * mag, -nl.params["b_minus"] * mag)
    else:
        coeffs = nl.params["coeffs"]
        out = np.zeros_like(s)
        for k in range(len(coeffs), 0, -1):
            out = out * s + coeffs[k - 1]
        out = out * s
    return out if out.ndim else float(out)


def eval_F(nl: Nonlinearity, s):
    """Evaluate the exact antiderivative ``F(s) = int_0^s f``."""
    s = np.asarray(s, dtype=float)
    if nl.kind == KIND_POWER_ASYM:
        r = nl.params["r_exp"]
        mag = np.abs(s) ** r / r
        out = np.where(s >= 0.0, nl.params["b_plus"] * mag, nl.params["b_minus"] * mag)
    else:
        coeffs = nl.params["coeffs"]
        out = np.zeros_like(s)
        for k in range(len(coeffs), 0, -1):
            out = out * s + coeffs[k - 1] / (k + 1.0)
        out = out * s * s
    return out if out.ndim else float(out)


def eval_df(nl: Nonlinearity, s):
    """Evaluate ``f'`` away from 0 (used by quadrature local models)."""
    s = np.asarray(s, dtype=float)
    if nl.kind == KIND_POWER_ASYM:
        r = nl.params["r_exp"]
        out = np.where(
            s >= 0.0,
            nl.params["b_plus"] * (r - 1.0) * np.abs(s) ** (r - 2.0),
            nl.params["b_minus"] * (r - 1.0) * np.abs(s) ** (r - 2.0),
        )
    else:
        coeffs = nl.params["coeffs"]
        out = np.zeros_like(s)
        for k in range(len(coeffs), 1, -1):
            out = out * s + coeffs[k - 1] * k
        out = out * s + (coeffs[0] if coeffs else 0.0)
    return out if out.ndim else float(out)


def eval_g(nl: Nonlinearity, s):
    """Evaluate ``g(s) = f(s) / (|s|^{q-2} s)``; undefined at 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s == 0.0):
        raise DomainError("g(s) is undefined at s = 0")
    denom = np.abs(s) ** (nl.q - 2.0) * s
    out = eval_f(nl, s) / denom
    return out if np.ndim(out) else float(out)


def eval_m(nl: Nonlinearity, s):
    """Evaluate ``m(s) = |s|^{q-2} s - f(s)``."""
    s = np.asarray(s, dtype=float)
    out = np.abs(s) ** (nl.q - 2.0) * s - eval_f(nl, s)
    return out if out.ndim else float(out)


def _first_positive_zero(m, start: float) -> float:
    """First zero of ``m`` on (0, inf) by geometric bracket expansion.

    Starts well below ``start`` so the sign next to the origin anchors the
    search; families violating the hypotheses still get their zero located
    (validation rejects them afterwards with a diagnosis).
    """
    s_prev = start * 2.0**-20
    v_prev = m(s_prev)
    if v_prev == 0.0:
        return s_prev
    s = s_prev
    for _ in range(2 * _BRACKET_DOUBLINGS + 21):
        s *= 2.0
        v = m(s)
        if v == 0.0:
            return s
        if v * v_prev < 0.0:
            return brentq(m, s_prev, s, xtol=5e-324, rtol=8.9e-16)
        s_prev, v_prev = s, v
    raise NoZeroFound(
        f"no sign change of the map within the bracket expansion from {start}"
    )


def build_nonlinearity(kind: str, q: float, params: dict) -> Nonlinearity:
    """Construct and validate a nonlinearity.

    Raises
    ------
    ValueError
        Family parameters outside their declared ranges.
    NoZeroFound
        The map ``|s|^{q-2}s - f(s)`` never changes sign.
    HypothesisViolated
        Structural validation failed (the report rides on the exception).
    """
    if q <= 1.0:
        raise ValueError(f"q must exceed 1, got {q}")
    if kind == KIND_POWER_ASYM:
        b_plus = float(params["b_plus"])
        b_minus = float(params["b_minus"])
        r_exp = float(params["r_exp"])
        if b_plus <= 0.0 or b_minus <= 0.0:
            raise ValueError("b_plus and b_minus must be positive")
        if r_exp <= 1.0:
            raise ValueError(f"r_exp must exceed 1, got {r_exp}")
        norm = {"b_plus": b_plus, "b_minus": b_minus, "r_exp": r_exp}
    elif kind == KIND_POLYNOMIAL:
        coeffs = [float(c) for c in params["coeffs"]]
        if not coeffs or all(c == 0.0 for c in coeffs):
            raise ValueError("polynomial family needs at least one nonzero coefficient")
        norm = {"coeffs": coeffs}
    else:
        raise ValueError(f"unknown nonlinearity kind {kind!r}")

    probe = Nonlinearity(kind=kind, q=float(q), params=norm, z_plus=1.0, z_minus=-1.0)
    z_plus = _first_positive_zero(lambda s: eval_m(probe, s), _BRACKET_START)
    z_minus = -_first_positive_zero(lambda u: -eval_m(probe, -u), _BRACKET_START)
    nl = Nonlinearity(kind=kind, q=float(q), params=norm, z_plus=z_plus, z_minus=z_minus)

    report = validate_hypotheses(nl)
    if not report.passed:
        raise HypothesisViolated("; ".join(report.messages) or "validation failed", report)
    return nl


def reflected(nl: Nonlinearity) -> Nonlinearity:
    """The nonlinearity ``f~(s) = -f(-s)``, which maps the negative side onto
    the positive one.

    ``F~(s) = F(-s)`` and ``m~(s) = -m(-s)``, so the zeros map to
    ``(-z_minus, -z_plus)`` and the areas swap.  The hypotheses are
    symmetric under the reflection, so the result is not validated again.
    """
    if nl.kind == KIND_POWER_ASYM:
        params = dict(nl.params, b_plus=nl.params["b_minus"], b_minus=nl.params["b_plus"])
    else:
        coeffs = nl.params["coeffs"]
        params = {"coeffs": [-c if k % 2 == 0 else c for k, c in enumerate(coeffs, start=1)]}
    return Nonlinearity(kind=nl.kind, q=nl.q, params=params, z_plus=-nl.z_minus, z_minus=-nl.z_plus)


def areas(nl: Nonlinearity) -> tuple[float, float]:
    """Areas ``A(z^+) = (z^+)^q/q - F(z^+)`` and ``A(z^-) = |z^-|^q/q - F(z^-)``."""
    a_plus = nl.z_plus**nl.q / nl.q - eval_F(nl, nl.z_plus)
    a_minus = abs(nl.z_minus) ** nl.q / nl.q - eval_F(nl, nl.z_minus)
    return float(a_plus), float(a_minus)


def _two_sided_geometric_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n points in (lo, hi), geometrically clustered toward both endpoints."""
    width = hi - lo
    half = np.geomspace(1e-9, 0.5, n // 2)
    pts = np.concatenate([lo + width * half, hi - width * half[::-1]])
    return np.unique(pts)


def _richardson_limit(values: np.ndarray) -> float:
    """Two-level Richardson extrapolation for samples at deltas 1e-3/1e-4/1e-5."""
    q1, q2, q3 = values
    l1 = (10.0 * q2 - q1) / 9.0
    l2 = (10.0 * q3 - q2) / 9.0
    return (100.0 * l2 - l1) / 99.0


def validate_hypotheses(nl: Nonlinearity) -> HypothesisReport:
    """Grid-based surrogate for the analytic structural hypotheses.

    Monotonicity of ``g`` is sampled on 256-point geometric grids, the
    vanishing of ``g`` at 0 is checked on a decreasing delta sequence, and the
    one-sided endpoint limits ``L^+``/``L^-`` are estimated by Richardson
    extrapolation of the defining quotient (it is 0/0 at the endpoints, so
    fixed-delta evaluation would be biased).
    """
    report = HypothesisReport()
    zp, zm = nl.z_plus, nl.z_minus

    scale_p = abs(eval_m(nl, 0.5 * zp)) + abs(zp) ** (nl.q - 1.0)
    scale_m = abs(eval_m(nl, 0.5 * zm)) + abs(zm) ** (nl.q - 1.0)
    mzp = abs(eval_m(nl, zp)) / scale_p
    mzm = abs(eval_m(nl, zm)) / scale_m
    report.zeros_ok = mzp < _ZERO_TOL and mzm < _ZERO_TOL
    if not report.zeros_ok:
        report.messages.append(f"map does not vanish at z+/z-: residuals {mzp:.2e}, {mzm:.2e}")

    grid_p = _two_sided_geometric_grid(0.0, zp, 256)
    g_p = eval_g(nl, grid_p)
    diffs = np.diff(g_p)
    report.g_increasing_pos = bool(np.all(diffs > 0.0))
    if not report.g_increasing_pos:
        idx = int(np.argmax(diffs <= 0.0))
        report.first_violation_pos = float(grid_p[idx])
        report.messages.append(f"g not strictly increasing on (0, z+) near s = {grid_p[idx]:.6g}")

    grid_m = _two_sided_geometric_grid(zm, 0.0, 256)
    g_m = eval_g(nl, grid_m)
    diffs_m = np.diff(g_m)
    report.g_decreasing_neg = bool(np.all(diffs_m < 0.0))
    if not report.g_decreasing_neg:
        idx = int(np.argmax(diffs_m >= 0.0))
        report.first_violation_neg = float(grid_m[idx])
        report.messages.append(f"g not strictly decreasing on (z-, 0) near s = {grid_m[idx]:.6g}")

    scale = min(zp, abs(zm))
    deltas = scale * np.array([1e-4, 1e-5, 1e-6])
    gp = np.abs(eval_g(nl, deltas))
    gm = np.abs(eval_g(nl, -deltas))
    report.g_limit_zero = bool(np.all(np.diff(gp) < 0.0) and np.all(np.diff(gm) < 0.0))
    if not report.g_limit_zero:
        report.messages.append("|g| does not decrease toward 0 along s -> 0")

    def quotient(s, z):
        num = eval_m(nl, s) - eval_m(nl, z)
        den = np.abs(s) ** (nl.q - 2.0) * s - abs(z) ** (nl.q - 2.0) * z
        return num / den

    ds = np.array([1e-3, 1e-4, 1e-5])
    report.L_plus = _richardson_limit(quotient(zp - ds * abs(zp), zp))
    report.L_minus = _richardson_limit(quotient(zm + ds * abs(zm), zm))
    if not report.limits_negative:
        report.messages.append(
            f"endpoint limits not strictly negative: L+ = {report.L_plus:.4g}, "
            f"L- = {report.L_minus:.4g}"
        )
    return report
