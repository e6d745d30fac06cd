"""plap.roots against SciPy, which stays a test-only oracle: the ports must
return the very floats that ``scipy.optimize`` returns."""

import math

import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize._optimize import Brent

from plap import roots
from plap.errors import NoZeroFound
from plap.roots import _RTOL, brent_min, brentq

ROOT_CASES = {
    "cubic": (lambda x: x**3 - 2.0 * x - 5.0, [(2.0, 3.0), (-1.0, 5.0), (2.09, 2.1)]),
    "fixed_point": (lambda x: math.cos(x) - x, [(0.0, 1.0), (-3.0, 4.0)]),
    "exp": (lambda x: math.exp(x) - 3.0, [(0.0, 2.0), (-5.0, 1.1)]),
    "steep": (lambda x: math.tanh(50.0 * (x - 0.3)), [(0.0, 1.0), (-2.0, 0.31)]),
    "flat_cubic": (lambda x: (x - 0.7) ** 3 + 1e-3 * (x - 0.7), [(0.0, 1.0), (0.69, 3.0)]),
    "tiny_root": (lambda x: x * x - 1e-10, [(0.0, 1.0), (1e-6, 2e-5)]),
    # the map |s|^{q-2} s - f(s) of q = 2.5, f = s^3, with its zero at 1
    "level_map": (lambda s: s**1.5 - s**3, [(0.5, 2.0), (1e-3 * 2.0**-20, 1.2)]),
}


def _xtols(scale):
    """The absolute tolerances of plap's call sites (zero location, level
    map, arch inversion and class refinement), and SciPy's default."""
    return [5e-324, 1e-17 + 1e-16 * scale, 1e-15 * scale, 2e-12]


@pytest.mark.parametrize("name", sorted(ROOT_CASES))
def test_brentq_bit_identical_to_scipy(name):
    f, brackets = ROOT_CASES[name]
    for a, b in brackets:
        for xtol in _xtols(max(abs(a), abs(b))):
            ours = brentq(f, a, b, xtol=xtol)
            assert ours == scipy_brentq(f, a, b, xtol=xtol, rtol=_RTOL), (a, b, xtol)


def test_brentq_endpoint_zero_returned_as_is():
    assert brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-12) == 1.0
    assert brentq(lambda x: x - 3.0, 1.0, 3.0, 1e-12) == 3.0


def test_brentq_same_sign_raises():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


@pytest.mark.parametrize(
    "f",
    [lambda x: math.nan, lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5],
    ids=["at_end", "inside"],
)
def test_brentq_nan_raises(f):
    with pytest.raises(ValueError, match="NaN"):
        brentq(f, 0.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="NaN"):
        scipy_brentq(f, 0.0, 1.0, xtol=1e-12, rtol=_RTOL)


def test_brentq_maxiter_exhausted(monkeypatch):
    f = lambda x: math.cos(x) - x
    monkeypatch.setattr(roots, "_MAXITER", 3)
    with pytest.raises(NoZeroFound):
        brentq(f, -3.0, 4.0, 1e-12)
    with pytest.raises(RuntimeError):
        scipy_brentq(f, -3.0, 4.0, xtol=1e-12, rtol=_RTOL, maxiter=3)


# three-point brackets of smooth and cusped minima, one at the 1e-9 scale
# and one of I(z)'s shape (z^(-1/2) + z^2) near a fold
BRENT_CASES = {
    "parabola": (lambda x: (x - 1.3) ** 2, [(0.0, 1.0, 2.0), (1.2, 1.31, 5.0), (-4.0, 1.0, 1.7)]),
    "cosh": (lambda x: math.cosh(x - 0.2) + 0.1 * x, [(-1.0, 0.0, 1.0), (-3.0, 0.5, 0.6)]),
    "cusp": (lambda x: abs(x - 0.5) ** 1.5 - 1.0, [(0.0, 0.5001, 1.0), (0.45, 0.505, 0.52)]),
    "deep": (lambda x: (x / 3e-9 - 1.0) ** 2 + math.sin(x * 1e8), [(1e-9, 2.5e-9, 6e-9)]),
    "fold_like": (lambda z: z**-0.5 + z * z, [(0.1, 0.6, 2.0), (0.5, 0.58, 0.7)]),
}
BRENT_XTOLS = (1.5e-8, 1e-12, 1e-4)


def _scipy_brent(f, bracket, xtol):
    # SciPy's stop test adds _mintol = 1e-11 to xtol |x|; brent_min's is relative only
    opt = Brent(f, tol=xtol)
    opt._mintol = 0.0
    opt.set_bracket(bracket)
    opt.optimize()
    return float(opt.xmin), float(opt.fval)


@pytest.mark.parametrize("name", sorted(BRENT_CASES))
def test_brent_min_bit_identical_to_scipy(name):
    f, brackets = BRENT_CASES[name]
    for bracket in brackets:
        for xtol in BRENT_XTOLS:
            assert brent_min(f, *bracket, xtol) == _scipy_brent(f, bracket, xtol), (bracket, xtol)


def test_brent_min_descending_bracket_as_scipy():
    f = lambda x: (x - 1.3) ** 2 + 0.1 * x**3
    assert brent_min(f, 2.0, 1.0, 0.0, 1.5e-8) == _scipy_brent(f, (2.0, 1.0, 0.0), 1.5e-8)


@pytest.mark.parametrize(
    "f",
    [lambda x: (x - 5.0) ** 2, lambda x: 1.0, lambda x: math.nan],
    ids=["min_at_end", "flat", "nan"],
)
def test_brent_min_invalid_bracket_raises(f):
    with pytest.raises(ValueError, match=r"f\(xb\) < f\(xa\)"):
        brent_min(f, 0.0, 1.0, 2.0, 1.5e-8)
    with pytest.raises(ValueError, match=r"f\(xb\) < f\(xa\)"):
        _scipy_brent(f, (0.0, 1.0, 2.0), 1.5e-8)


def test_brent_min_unordered_bracket_raises():
    with pytest.raises(ValueError, match=r"\(xa < xb\)"):
        brent_min(lambda x: x * x, 0.0, 3.0, 2.0, 1.5e-8)


def test_brent_min_resolves_a_deep_minimum():
    # a minimum at the 1e-9 scale: SciPy's absolute 1e-11 in the stop test
    # leaves its argmin 2e-3 off; the relative test places it to xtol
    scale, x_min = 1e-9, 2.3e-9
    f = lambda x: math.expm1((x - x_min) / scale) - (x - x_min) / scale
    bracket = (1e-9, 2e-9, 4e-9)
    x, fx = brent_min(f, *bracket, 1.5e-8)
    assert x == pytest.approx(x_min, rel=1e-8)
    assert fx <= 1e-16
    scipy_default = Brent(f, tol=1.5e-8)
    scipy_default.set_bracket(bracket)
    scipy_default.optimize()
    assert scipy_default.xmin != pytest.approx(x_min, rel=1e-4)
