"""Scalar root-finding and minimisation on a bracket, in pure Python.

``brentq`` is Brent's (1973) zeroin in the form of SciPy's ``brentq.c``, and
``brent_min`` is Brent's (1973) parabolic minimizer in the form of SciPy's
``optimize.Brent`` from a three-point bracket.  Both follow their SciPy
originals operation for operation, so they visit the same iterates and
return the same floats; ``brent_min`` alone departs from its original, in a
purely relative stop test.
"""

from __future__ import annotations

import math

from .errors import NoZeroFound

_RTOL = 8.9e-16  # relative bracket width at which brentq stops
_MAXITER = 100  # brentq iterations before NoZeroFound
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
    xa, xb, xc = float(xa), float(xb), float(xc)
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
