"""Scalar root-finding on a bracket, in pure Python.

``_zeroin`` is Brent's (1973) zeroin in the form of SciPy's ``brentq.c``, as
a generator: it yields each abscissa it needs, the bracket's ends first, and
is sent the function's value there.  It follows its SciPy original operation
for operation, so it visits the same iterates and returns the same floats.
It is the package's one root-finder, with two drivers: ``brentq`` runs one
search on a scalar function (level maps and arch inversions), and
``brentq_lockstep`` runs many searches in rounds, one call of a batched
function per round (the matching roots of every class at one lambda, and
the folds of a table as zeros of W', whose dI/dtop a round integrates in
rows), each search visiting the iterates it would visit alone.
"""

from __future__ import annotations

import math

from .errors import NoZeroFound

_RTOL = 8.9e-16  # relative bracket width at which a search stops
_MAXITER = 100  # iterations of a search before NoZeroFound


def _nan(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


def _zeroin(a: float, b: float, xtol: float):
    """Brent's iterates on ``[a, b]``: yields each abscissa, ``a`` and ``b``
    first, is sent the function's value there, and returns the zero.  It
    stops and raises as ``brentq`` does, but for NaN, which its drivers check."""
    xpre, xcur, xtol = float(a), float(b), float(xtol)  # so every iterate is a float
    xblk = fblk = spre = scur = 0.0
    fpre = yield xpre
    fcur = yield xcur
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
        fcur = yield xcur
    raise NoZeroFound(f"Brent's method did not converge in {_MAXITER} iterations, last x = {xcur}")


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
    search = _zeroin(a, b, xtol)
    x, send, isnan = next(search), search.send, math.isnan
    try:
        while True:
            fx = f(x)
            if isnan(fx):
                raise _nan(x)
            x = send(fx)
    except StopIteration as stop:
        return stop.value


def brentq_lockstep(f, brackets) -> list[float]:
    """For every bracket ``(a_i, b_i, xtol_i)`` of ``brackets``, the zero that
    ``brentq`` finds there, all searched in rounds.

    ``f(xs, idx)`` returns the values at the abscissae ``xs`` of the searches
    ``idx`` (bracket indices, ascending), each of search i's own function,
    one value per abscissa.  A round calls it once, with one abscissa of
    every unfinished search: the left ends, then the right ends, then one
    Brent iterate each.  Each search sees only its own values, so its zero
    is the float of its search alone.  Raises as ``brentq`` does, for the
    first search in a round that fails.
    """
    sends = [_zeroin(a, b, xtol).send for a, b, xtol in brackets]
    zeros: list[float] = [0.0] * len(sends)
    pending = {i: send(None) for i, send in enumerate(sends)}
    isnan = math.isnan
    while pending:
        idx = list(pending)
        for i, fx in zip(idx, f(list(pending.values()), idx)):
            if isnan(fx):
                raise _nan(pending[i])
            try:
                pending[i] = sends[i](fx)
            except StopIteration as stop:
                zeros[i] = stop.value
                del pending[i]
    return zeros
