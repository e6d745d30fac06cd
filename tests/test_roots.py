"""plap.roots against SciPy, which stays a test-only oracle: the port must
return the very floats that ``scipy.optimize.brentq`` returns."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from plap import roots
from plap.errors import NoZeroFound
from plap.roots import _RTOL, brentq

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


def test_brentq_returns_a_float_for_a_numpy_xtol():
    # a numpy xtol would make every step, and so the root, a numpy scalar
    root = brentq(lambda x: x * x - 2.0, 0.0, 2.0, np.float64(1e-15))
    assert type(root) is float
    assert root == brentq(lambda x: x * x - 2.0, 0.0, 2.0, 1e-15)


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
