"""Scalar root-finding on a bracket, in pure Python.

``brentq`` is Brent's (1973) zeroin in the form of SciPy's ``brentq.c``.  It
follows its SciPy original operation for operation, so it visits the same
iterates and returns the same floats.  It is the package's one root-finder:
level maps, arch inversions, matching roots and the folds, as zeros of W'.
"""

from __future__ import annotations

import math

from .errors import NoZeroFound

_RTOL = 8.9e-16  # relative bracket width at which brentq stops
_MAXITER = 100  # brentq iterations before NoZeroFound


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
    xpre, xcur, xtol = float(a), float(b), float(xtol)  # so every iterate is a float
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
