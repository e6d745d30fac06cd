"""Independent brute-force oracles for the test suite.

Deliberately disjoint from the library's numerics: sine-based
substitutions that carry the distance to the singular end exactly, instead
of the power substitution; fixed-panel composite trapezoid instead of
tanh-sinh; and extended-precision expm1-based evaluation of the radicand
instead of the tail-integral trick.  ``ode_residual`` reads the matching
condition off the shooting oracle's half arches instead of the time map.

The one exception is ``tanh_sinh_by_level`` (and its rows form): the
library's own tanh-sinh rule, run as one integrand pass per level.  It is an
exact reference, not an independent one: the library gets its first two
levels from one pass, and must give the same floats bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from plap import profile, quadrature
from plap.errors import QuadratureFailure

LD = np.longdouble


@functools.lru_cache(maxsize=2)
def _endpoint_map(p: float, panels: int):
    """u in [0, 1] -> (log v, dv/du) for the abscissa v = 1 - d of t = a v.

    With s = sin(pi/2 u), ``d = (1 - s^3)^m``; ``1 - s = 2 sin^2(pi/4 (1 - u))``
    is formed without cancellation, so d keeps its full relative precision
    however close v is to 1.  At u = 0, v ~ u^3, so the trapezoid's end
    correction there is O(h^4).  Near u = 1, d ~ (1 - u)^(2m), and the simple
    zero of the radicand at t = a leaves the integrand
    ~ (1 - u)^(2m(p-1)/p - 1); the order m = ceil(2p/(p-1)) grows as p -> 1
    and keeps that exponent at least 3, so the end correction there is
    O(h^4) as well, for every p > 1.

    Both arrays depend only on (p, panels), so the last two pairs are kept
    (32 MB each at a million panels), read-only.
    """
    m = int(np.ceil(2.0 * p / (p - 1.0)))
    u = np.linspace(LD(0), LD(1), panels + 1)
    half_pi = LD(np.pi) / 2
    s = np.sin(half_pi * u)
    base = 2 * np.sin(half_pi * (1 - u) / 2) ** 2 * (1 + s + s * s)  # 1 - s^3
    d = base**m
    dv = m * base ** (m - 1) * 3 * s * s * half_pi * np.cos(half_pi * u)
    with np.errstate(divide="ignore"):  # d = 1 at u = 0: log v = -inf
        log_v = np.log1p(-d)
    log_v.flags.writeable = dv.flags.writeable = False
    return log_v, dv


def _radicand(nl, a: float, log_v: np.ndarray) -> np.ndarray:
    """G(a v) = F(a v) - F(a) + (|a|^q - |a v|^q)/q at log v = ``log_v``.

    F is summed term by term from f(s) = sgn(s) |s|^e sum_k c_k s^k, i.e.
    F(s) = sum_k c_k sgn^k |s|^x_k / x_k with x_k = e + k + 1, and every power
    difference is taken as |a|^x - |a v|^x = -|a|^x expm1(x log v), so each
    keeps full relative precision near v = 1."""
    q, e, abs_a = LD(nl.q), LD(nl.e), np.abs(LD(a))
    sgn, coeffs = (LD(1), nl.c_plus) if a > 0 else (LD(-1), nl.c_minus)
    G = -(abs_a**q) / q * np.expm1(q * log_v)
    for k, c in enumerate(coeffs):
        x = e + k + 1
        G += LD(c) * sgn**k * abs_a**x / x * np.expm1(x * log_v)
    return G


def brute_force_I(nl, p: float, a: float, panels: int = 1_000_000) -> float:
    """I(a) for a > 0 by the transformed trapezoid t = a (1 - d(u))."""
    log_v, dv = _endpoint_map(p, panels)
    G = _radicand(nl, a, log_v)
    vals = np.zeros_like(G)
    pos = G > 0
    vals[pos] = G[pos] ** (-1 / LD(p)) * np.abs(LD(a)) * dv[pos]
    return float(np.trapezoid(vals) / LD(panels))


def brute_force_J(nl, p: float, a: float, panels: int = 1_000_000) -> float:
    """J(a) for a < 0: the same substitution, t = a (1 - d(u))."""
    return brute_force_I(nl, p, a, panels)


def sine_integral_closed_form(p: float) -> float:
    """int_0^1 (1-t^p)^(-1/p) dt = (pi/p) / sin(pi/p) (Beta identity)."""
    return (np.pi / p) / np.sin(np.pi / p)


def takeuchi_yamada_tilde1(p: float, q: float, qr: float, panels: int = 1_000_000) -> float:
    """Flat-core threshold for f = |s|^{qr-2} s with unit coefficient:
    (p-1)/p * (2*int_0^1 ((t^qr - 1)/qr + (1 - t^q)/q)^(-1/p) dt)^p.

    The radicand has a double zero at t = 1.  Under t = sin(pi/2 u) the
    distance 1 - t = 2 sin^2(pi(1-u)/4) is exact, so the integrand is split
    as P(t)^(-1/p) * (1-t)^(-2/p) * dt with P = G/(1-t)^2 bounded; P is
    clamped to its endpoint limit (qr - q)/2 once 1 - t is below the
    extended-precision resolution of the expm1 power differences.
    """
    u = np.linspace(LD(0), LD(1), panels + 1)
    half_pi = LD(np.pi) / 2
    theta = half_pi * (1 - u) / 2
    t = np.sin(half_pi * u)
    one_minus_t = 2 * np.sin(theta) ** 2
    pL, qL, rL = LD(p), LD(q), LD(qr)
    c2 = (rL - qL) / 2
    P = np.full_like(t, c2)
    solid = one_minus_t > 1e-8
    with np.errstate(divide="ignore"):  # log(0) at u = 0 feeds expm1(-inf) = -1
        logt = np.log(t[solid])
    G = -np.expm1(qL * logt) / qL + np.expm1(rL * logt) / rL
    P[solid] = G / one_minus_t[solid] ** 2
    # (1-t)^(-2/p) dt = 2^(-2/p) pi sin(theta)^(1-4/p) cos(theta)
    vals = (
        P ** (-1 / pL)
        * LD(2) ** (-2 / pL)
        * LD(np.pi)
        * np.sin(theta) ** (1 - 4 / pL)
        * np.cos(theta)
    )
    integral = np.trapezoid(vals) / LD(panels)
    return float((pL - 1) / pL * (2 * integral) ** pL)


def ode_residual(problem, sclass, r: float, n_steps: int = 100_000) -> float:
    """X_j(r) - 1 for the j-th zero X_j(r) = 2 n+ H+ + 2 n- H- of the
    trajectory launched with slope r, where H+/- are the half widths of the
    oracle's rising half of each sign the class uses: the matching residual
    obtained by integrating the ODE, with no level map or quadrature."""
    total = 0.0
    for n, positive in ((sclass.n_pos, True), (sclass.n_neg, False)):
        if n:
            total += 2.0 * n * profile._half(problem, r, positive, math.inf, n_steps).width
    return total - 1.0


def tanh_sinh_by_level(psi, upper: float, tol: float) -> float:
    """``quadrature.tanh_sinh`` with one call of ``psi`` per level, from
    level ``_MIN_LEVEL`` on."""
    if upper == 0.0:
        return 0.0
    prev = np.nan  # no level agrees with it
    for level in range(quadrature._MIN_LEVEL, quadrature._MAX_LEVEL + 1):
        fr, wt = quadrature._nodes(level)
        val = upper * float(np.dot(psi(upper * fr), wt))
        if abs(val - prev) <= tol * max(abs(val), 1e-300):
            return val
        prev = val
    raise QuadratureFailure(f"tanh-sinh stalled at level {quadrature._MAX_LEVEL} (value {prev!r})")


def tanh_sinh_rows_by_level(psi_rows, uppers, tol: float):
    """``quadrature.tanh_sinh_rows`` with one call of ``psi_rows`` per level
    and tile, from level ``_MIN_LEVEL`` on, each row summed by its own
    ``np.dot``."""
    ups = np.asarray(uppers, dtype=float)
    out = np.zeros(ups.size)
    prev = np.full(ups.size, np.nan)
    active = np.flatnonzero(ups != 0.0)
    for level in range(quadrature._MIN_LEVEL, quadrature._MAX_LEVEL + 1):
        if active.size == 0:
            break
        fr, wt = quadrature._nodes(level)
        tile = max(1, quadrature._BATCH_NODES // fr.size)
        for k in range(0, active.size, tile):
            idx = active[k : k + tile]
            vals = psi_rows(ups[idx, None] * fr, idx)
            out[idx] = [upper * float(np.dot(row, wt)) for upper, row in zip(ups[idx], vals)]
        est = out[active]
        done = np.abs(est - prev[active]) <= tol * np.maximum(np.abs(est), 1e-300)
        prev[active] = est
        active = active[~done]
    if active.size:
        raise QuadratureFailure(
            f"tanh-sinh stalled at level {quadrature._MAX_LEVEL} (value {float(prev[active[0]])!r})"
        )
    return out.tolist() if isinstance(uppers, list) else out
