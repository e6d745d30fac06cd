"""Scalar root-finding and minimisation on a bracket, in pure Python.

``brentq`` is Brent's (1973) zeroin in the form of SciPy's ``brentq.c``,
``brent_min`` is Brent's (1973) parabolic minimizer in the form of SciPy's
``optimize.Brent``, and ``golden_min`` is SciPy's golden-section search from a
three-point bracket.  Each follows its SciPy original operation for
operation, so they visit the same iterates and return the same floats;
``brent_min`` alone departs from it, in a purely relative stop test.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoZeroFound

_RTOL = 8.9e-16  # relative bracket width at which brentq stops
_MAXITER = 100  # brentq iterations before NoZeroFound
_GOLDEN_XTOL = 1e-12  # relative bracket width at which golden_min stops
_GR = 0.61803399  # golden ratio conjugate, to SciPy's eight digits
_GC = 1.0 - _GR
_CG = 0.3819660  # brent_min's golden-section fraction, to SciPy's seven digits
_BRENT_MAXITER = 500  # brent_min iterations, as SciPy's default


def _value(f, x: float) -> float:
    fx = f(x)
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A zero of ``f`` in ``[a, b]``, where ``f(a)`` and ``f(b)`` differ in sign.

    Stops when the bracket is narrower than ``xtol + _RTOL * |x|``.

    Raises
    ------
    ValueError
        ``f(a)`` and ``f(b)`` have the same sign, or ``f`` returned NaN.
    NoZeroFound
        ``_MAXITER`` iterations did not converge.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or nan here, which the test below rejects
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _value(f, xcur)
    raise NoZeroFound(f"Brent's method did not converge in {_MAXITER} iterations, last x = {xcur}")


def _check_bracket(fun, xa: float, xb: float, xc: float):
    """SciPy's three-point bracket checks; returns the ordered bracket and f(xb)."""
    if xa > xc:
        xa, xc = xc, xa
    if not (xa < xb and xb < xc):
        raise ValueError(
            "Bracketing values (xa, xb, xc) do not fulfill this requirement:"
            " (xa < xb) and (xb < xc)"
        )
    fa, fb, fc = fun(xa), fun(xb), fun(xc)
    if not (fb < fa and fb < fc):
        raise ValueError(
            "Bracketing values (xa, xb, xc) do not fulfill this requirement:"
            " (f(xb) < f(xa)) and (f(xb) < f(xc))"
        )
    return xa, xb, xc, fb


def brent_min(fun, xa: float, xb: float, xc: float, xtol: float) -> tuple[float, float]:
    """(argmin, min) of ``fun`` by Brent's parabolic search from the bracket
    (xa, xb, xc).

    Stops when x lies within ``2 xtol |x|`` of the bracket's midpoint, less
    half its width, or after SciPy's 500 iterations.  SciPy adds 1e-11 to that
    tolerance, which would end a search at a small x early; here it is
    relative only.

    Raises
    ------
    ValueError
        The bracket is not ordered, or its middle value is not below both
        ends (a NaN value included).
    """
    xa, xb, xc, fb = _check_bracket(fun, float(xa), float(xb), float(xc))
    x = w = v = xb
    fw = fv = fx = fb
    a, b = xa, xc
    deltax = rat = 0.0
    for _ in range(_BRENT_MAXITER):
        tol1 = xtol * abs(x)
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if abs(deltax) <= tol1:  # golden-section step
            deltax = a - x if x >= xmid else b - x
            rat = _CG * deltax
        else:  # parabolic step through x, w and v
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if p > tmp2 * (a - x) and p < tmp2 * (b - x) and abs(p) < abs(0.5 * tmp2 * dx_temp):
                rat = p / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:  # the parabola is not useful: golden-section step
                deltax = a - x if x >= xmid else b - x
                rat = _CG * deltax

        if abs(rat) < tol1:  # move by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = fun(u)

        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
    return float(x), float(fx)


def golden_min(fun, grid: np.ndarray, i: int) -> tuple[float, float]:
    """(argmin, min) of ``fun`` by golden section from the bracket grid[i-1:i+2].

    Stops when the bracket is narrower than ``_GOLDEN_XTOL`` relative to its
    inner points, or after SciPy's 5000 iterations.

    Raises
    ------
    ValueError
        The bracket is not ordered, or its middle value is not below both
        ends (a NaN value included).
    """
    xa, xb, xc, _ = _check_bracket(fun, *(float(x) for x in grid[i - 1 : i + 2]))
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1 = xb
        x2 = xb + _GC * (xc - xb)
    else:
        x2 = xb
        x1 = xb - _GC * (xb - xa)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= _GOLDEN_XTOL * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1 = x1, x2
            x2 = _GR * x1 + _GC * x3
            f1, f2 = f2, fun(x2)
        else:
            x3, x2 = x2, x1
            x1 = _GR * x2 + _GC * x0
            f2, f1 = f1, fun(x1)
    return (float(x1), float(f1)) if f1 < f2 else (float(x2), float(f2))
