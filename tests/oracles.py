"""Independent brute-force oracles for the test suite.

Deliberately disjoint from the library's numerics: sine-composition
substitutions instead of the power substitution, fixed-panel composite
trapezoid instead of tanh-sinh, and extended-precision expm1-based
evaluation of the radicand instead of the tail-integral trick.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble


def family_f_F(nl):
    """(f, F) evaluators in extended precision, term by term from
    f(s) = sgn(s) |s|^e sum_k c_k s^k, each term its own power of |s|:
    f = sum_k c_k sgn^(k+1) |s|^(e+k) and F = sum_k c_k sgn^k |s|^(e+k+1)/(e+k+1)."""
    e = LD(nl.e)

    def terms(s):
        s = np.asarray(s, dtype=LD)
        neg = s < 0
        sgn = np.where(neg, LD(-1), LD(1))
        coeffs = [np.where(neg, LD(cm), LD(cp)) for cp, cm in zip(nl.c_plus, nl.c_minus)]
        return sgn, np.abs(s), enumerate(coeffs)

    def f(s):
        sgn, a, coeffs = terms(s)
        return sum(c * sgn ** (k + 1) * a ** (e + k) for k, c in coeffs)

    def F(s):
        sgn, a, coeffs = terms(s)
        return sum(c * sgn**k * a ** (e + k + 1) / (e + k + 1) for k, c in coeffs)

    return f, F


def _double_sine_map(panels: int):
    """u in [0,1] -> v in [0,1] with quartically vanishing derivative at 1."""
    u = np.linspace(LD(0), LD(1), panels + 1)
    half_pi = LD(np.pi) / 2
    inner = np.sin(half_pi * u)
    v = np.sin(half_pi * inner)
    dv = (half_pi**2) * np.cos(half_pi * inner) * np.cos(half_pi * u)
    return v, dv


def _radicand_power(nl, a: float, v: np.ndarray) -> np.ndarray:
    """G(a*v) = F(a v) - F(a) + (|a|^q - |a v|^q)/q for a one-coefficient f
    (F = c_0 |s|^r / r with r = e + 1), v in [0, 1], through expm1(x*log v)
    so each power difference keeps full relative precision near v = 1."""
    q = LD(nl.q)
    r = LD(nl.e) + 1
    b = LD(nl.c_plus[0] if a > 0 else nl.c_minus[0])
    aq = np.abs(LD(a)) ** q / q
    ar = b * np.abs(LD(a)) ** r / r
    out = np.empty_like(v)
    pos = v > 0
    logv = np.log(v[pos])
    # |a|^x - |a v|^x = -|a|^x * expm1(x log v)
    out[pos] = -aq * np.expm1(q * logv) + ar * np.expm1(r * logv)
    out[~pos] = aq - ar
    return out


def brute_force_I(nl, p: float, a: float, panels: int = 1_000_000) -> float:
    """I(a) by transformed trapezoid: t = a*sin(pi/2*sin(pi/2*u))."""
    v, dv = _double_sine_map(panels)
    if len(nl.c_plus) == 1:
        G = _radicand_power(nl, a, v)
    else:
        _, F = family_f_F(nl)
        t = LD(a) * v
        G = F(t) - F(LD(a)) + (LD(a) ** LD(nl.q) - t ** LD(nl.q)) / LD(nl.q)
    vals = np.zeros_like(G)
    pos = G > 0
    vals[pos] = G[pos] ** (-1 / LD(p)) * LD(a) * dv[pos]
    return float(np.trapezoid(vals) / LD(panels))


def brute_force_J(nl, p: float, a: float, panels: int = 1_000_000) -> float:
    """J(a) for a < 0 by the mirrored substitution t = a*sin(...)."""
    v, dv = _double_sine_map(panels)
    if len(nl.c_plus) == 1:
        G = _radicand_power(nl, a, v)
    else:
        _, F = family_f_F(nl)
        t = LD(a) * v
        G = F(t) - F(LD(a)) + (np.abs(LD(a)) ** LD(nl.q) - np.abs(t) ** LD(nl.q)) / LD(nl.q)
    vals = np.zeros_like(G)
    pos = G > 0
    vals[pos] = G[pos] ** (-1 / LD(p)) * np.abs(LD(a)) * dv[pos]
    return float(np.trapezoid(vals) / LD(panels))


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
