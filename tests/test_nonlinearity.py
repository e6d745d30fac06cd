import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from plap.errors import DomainError, HypothesisViolated, NoZeroFound
from plap.nonlinearity import (
    areas,
    build_nonlinearity,
    eval_df,
    eval_F,
    eval_f,
    eval_g,
    eval_m,
    locate_nonlinearity,
    reflected,
    validate_hypotheses,
)
from plap.timemap import _area

LD = np.longdouble


@st.composite
def family_specs(draw):
    """(kind, q, params) of either JSON kind; odd ones come up about half the time."""
    if draw(st.booleans()):
        q = draw(st.floats(1.5, 3.5))
        b_plus = draw(st.floats(0.5, 2.0))
        b_minus = b_plus if draw(st.booleans()) else draw(st.floats(0.5, 2.0))
        return "power_asym", q, {"b_plus": b_plus, "b_minus": b_minus, "r_exp": q + draw(st.floats(0.5, 3.0))}
    return "polynomial", draw(st.floats(1.2, 2.8)), {"coeffs": polynomial_coeffs(draw)}


def polynomial_coeffs(draw) -> list:
    """f = a3 s^3 + a4 s^4 + a5 s^5; a4 = 0 (odd f) about half the time."""
    a4 = 0.0 if draw(st.booleans()) else draw(st.floats(-0.5, 0.5))
    return [0.0, 0.0, draw(st.floats(0.5, 2.0)), a4, draw(st.floats(0.0, 0.3))]


def drops_above(nl, w) -> bool:
    """Whether ``g(w + d) > g(w + 2d)`` for some ``d = z_plus 2^-i`` with
    ``w + 2d < z_plus``, or ``g`` is constant there.  With ``g(s) = sum_j c_j
    s^(j+k)``, ``k = e + 1 - q``, the drop is summed term by term at 50
    digits, so that a window far below the float range of ``g`` is resolved."""
    with mpmath.workdps(50):
        w, z, k = mpmath.mpf(w), mpmath.mpf(nl.z_plus), nl.e + 1.0 - nl.q
        terms = [(c, j + k) for j, c in enumerate(nl.c_plus) if j + k != 0.0]
        drops = []
        for d in (mpmath.ldexp(z, -i) for i in range(1, 1100)):
            if w + 2 * d < z:
                drops.append(sum(c * ((w + d) ** a - (w + 2 * d) ** a) for c, a in terms))
                if drops[-1] > 0:
                    return True
        return not any(drops)


def admissible(kind, q, params):
    """Build the spec, discarding the hypothesis example if it is not admissible
    or has a subnormal coefficient, which ``locate_nonlinearity`` refuses."""
    try:
        return build_nonlinearity(kind, q, params)
    except (HypothesisViolated, NoZeroFound):
        assume(False)
    except ValueError as exc:
        assume("below the normal float range" not in str(exc))
        raise


class TestBuild:
    def test_symmetric_cubic_zeros(self, cubic_odd):
        assert cubic_odd.z_plus == pytest.approx(1.0, abs=1e-12)
        assert cubic_odd.z_minus == pytest.approx(-1.0, abs=1e-12)

    def test_asymmetric_zeros(self, asym):
        # s = 2 s^3 gives z+ = 2^(-1/2); the negative side is untouched
        assert asym.z_plus == pytest.approx(2.0**-0.5, abs=1e-12)
        assert asym.z_minus == pytest.approx(-1.0, abs=1e-12)

    def test_decreasing_g_rejected(self):
        # r_exp < q makes g = |s|^(r_exp - q) decreasing on (0, z+)
        with pytest.raises(HypothesisViolated):
            build_nonlinearity("power_asym", 3.0, {"b_plus": 1, "b_minus": 1, "r_exp": 2})

    def test_no_zero(self):
        # f = -s^3 pushes the map s + s^3 strictly positive: no zero to find
        with pytest.raises(NoZeroFound):
            build_nonlinearity("polynomial", 2.0, {"coeffs": [0.0, 0.0, -1.0]})

    def test_zero_below_the_bracket_start(self):
        # f = 1e20 s^3: z+- = +-1e-10 lie below the first point the doubling
        # search evaluates, so it halves down to m > 0 first
        nl = build_nonlinearity("power_asym", 2.0, {"b_plus": 1e20, "b_minus": 1e20, "r_exp": 4.0})
        assert nl.z_plus == pytest.approx(1e-10, rel=1e-12)
        assert nl.z_minus == pytest.approx(-1e-10, rel=1e-12)

    @pytest.mark.parametrize(
        "kind, params, name",
        [
            ("polynomial", {"coeffs": [0.0, -5e-324, 0.0, 5e-324, 1.0]}, "coeffs[1] = -5e-324"),
            ("power_asym", {"b_plus": 1.0, "b_minus": 1e-310, "r_exp": 4.0}, "b_minus = 1e-310"),
        ],
    )
    def test_subnormal_parameters_rejected(self, kind, params, name):
        # a product (k + j) c_j of a subnormal c_j can round to 0 and flip
        # the side checks' verdict, so such values are refused by name
        with pytest.raises(ValueError, match=re.escape(name)):
            locate_nonlinearity(kind, 2.5, params)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            build_nonlinearity("power_asym", 0.9, {"b_plus": 1, "b_minus": 1, "r_exp": 4})
        with pytest.raises(ValueError):
            build_nonlinearity("power_asym", 2.0, {"b_plus": -1, "b_minus": 1, "r_exp": 4})
        with pytest.raises(ValueError):
            build_nonlinearity("power_asym", 2.0, {"b_plus": 1, "b_minus": 1, "r_exp": 0.5})
        with pytest.raises(ValueError):
            build_nonlinearity("gaussian", 2.0, {})

    def test_polynomial_cubic_matches_power(self, cubic_odd):
        poly = build_nonlinearity("polynomial", 2.0, {"coeffs": [0.0, 0.0, 1.0]})
        assert poly.z_plus == pytest.approx(cubic_odd.z_plus, rel=1e-13)
        s = np.linspace(-0.9, 0.9, 41)
        assert eval_f(poly, s) == pytest.approx(eval_f(cubic_odd, s), rel=1e-13)
        assert eval_F(poly, s) == pytest.approx(eval_F(cubic_odd, s), rel=1e-13)

    def test_non_odd_polynomial(self):
        nl = build_nonlinearity("polynomial", 2.0, {"coeffs": [0.0, 0.0, 1.0, 0.25]})
        # z+ solves s^2 + 0.25 s^3 = 1, z- solves u^2 - 0.25 u^3 = 1 (u = -s)
        assert nl.z_plus**2 + 0.25 * nl.z_plus**3 == pytest.approx(1.0, abs=1e-12)
        u = -nl.z_minus
        assert u**2 - 0.25 * u**3 == pytest.approx(1.0, abs=1e-12)
        assert not nl.odd

    def test_one_sided_map_has_no_negative_zero(self):
        # with 0.5 s^4 the negative branch of the map never returns to zero
        with pytest.raises(NoZeroFound):
            build_nonlinearity("polynomial", 2.0, {"coeffs": [0.0, 0.0, 1.0, 0.5]})


class TestEval:
    def test_antiderivative_values(self, cubic_odd):
        assert eval_F(cubic_odd, 0.5) == pytest.approx(0.5**4 / 4, abs=1e-16)
        assert eval_F(cubic_odd, 0.0) == 0.0

    def test_g_values(self, cubic_odd):
        assert eval_g(cubic_odd, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_g_undefined_at_zero(self, cubic_odd):
        with pytest.raises(DomainError):
            eval_g(cubic_odd, 0.0)

    def test_asym_F_branches(self, asym):
        assert eval_F(asym, 0.5) == pytest.approx(2 * 0.5**4 / 4)
        assert eval_F(asym, -0.5) == pytest.approx(0.5**4 / 4)


# families whose q, and for the power ones r_exp, is neither an integer nor a
# half, beside the fixtures: there Python's pow and numpy's array pow
# disagree in the last bit at some points
_REAL_Q = {
    "q2.5": ("power_asym", 2.5, {"b_plus": 1.0, "b_minus": 2.0, "r_exp": 4.5}),
    "q2.7": ("power_asym", 2.7, {"b_plus": 1.5, "b_minus": 1.0, "r_exp": 3.9}),
    "poly_q2.7": ("polynomial", 2.7, {"coeffs": [0.0, 0.0, 1.0, 0.2, 0.1]}),
}
_FAMILIES = ["cubic_odd", "asym", "quintic_q3", "qgtp", "quartic_q4", *_REAL_Q]


def _family(request, name):
    return build_nonlinearity(*_REAL_Q[name]) if name in _REAL_Q else request.getfixturevalue(name)


def _scalar_points(nl) -> list:
    """Signed zeros, tiny and negative values, the zeros z+- and their float
    neighbours, and a grid across (1.2 z-, 1.2 z+)."""
    ends = [z for zero in (nl.z_plus, nl.z_minus) for z in (zero, math.nextafter(zero, 0.0), 0.5 * zero)]
    tiny = [s * v for s in (1.0, -1.0) for v in (5e-324, 1e-310, 1e-300, 1e-8)]
    grid = np.linspace(1.2 * nl.z_minus, 1.2 * nl.z_plus, 61).tolist()
    return [0.0, -0.0, *ends, *tiny, *grid]


class TestScalarKernels:
    """A float or ``np.float64`` argument takes the scalar branch that a 0-d
    array takes, and scalar f, F, f' and m's |s|^(q-2) keep the C library's
    pow, not numpy's array pow (see the module docstring)."""

    @pytest.mark.parametrize("name", _FAMILIES)
    @pytest.mark.parametrize("kernel", [eval_f, eval_F, eval_df, eval_m])
    def test_float_is_the_zero_d_branch(self, request, name, kernel):
        nl = _family(request, name)
        for x in _scalar_points(nl):
            want = kernel(nl, np.asarray(x))
            assert type(want) is float
            for arg in (x, np.float64(x)):
                got = kernel(nl, arg)
                assert type(got) is float and got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (
                    kernel.__name__, x
                )

    @pytest.mark.parametrize("name", _FAMILIES)
    def test_area_of_a_float(self, request, name):
        nl = _family(request, name)
        for x in (x for x in _scalar_points(nl) if math.copysign(1.0, x) > 0.0):  # the area of a level z >= 0
            want = x**nl.q / nl.q - eval_F(nl, np.asarray(x))
            assert _area(nl, x) == _area(nl, np.float64(x)) == want, x

    @pytest.mark.parametrize("name", [name for name in _FAMILIES if name != "poly_q2.7"])
    def test_which_pow(self, request, name):
        # the power families' one-term series, with each pow named
        nl = _family(request, name)
        for x in _scalar_points(nl):
            c = nl.c_plus[0] if x >= 0.0 else nl.c_minus[0]
            assert eval_f(nl, x) == math.copysign(abs(x) ** nl.e, x) * c, x
            assert eval_F(nl, x) == abs(x) ** (nl.e + 1.0) / (nl.e + 1.0) * c, x
            assert eval_df(nl, x) == abs(x) ** (nl.e - 1.0) * (nl.e * c), x
            assert eval_m(nl, x) == abs(x) ** (nl.q - 2.0) * x - eval_f(nl, x), x

    @pytest.mark.parametrize("name", ["q2.5", "q2.7"])
    def test_points_tell_the_pows_apart(self, request, name):
        # else the tests above could not see a pow swapped for the other
        nl = _family(request, name)
        for exponent in (nl.e, nl.e + 1.0, nl.e - 1.0, nl.q - 2.0, nl.q):
            assert any(abs(x) ** exponent != np.asarray(abs(x)) ** exponent for x in _scalar_points(nl)), exponent


class TestTranslation:
    """The series (e, c_plus, c_minus) against f, F and f' written from the
    JSON parameters in extended precision."""

    @staticmethod
    def spec_f_F_df(kind, params):
        if kind == "power_asym":
            r = LD(params["r_exp"])

            def b(s):
                return np.where(s >= 0, LD(params["b_plus"]), LD(params["b_minus"]))

            return (
                lambda s: np.sign(s) * b(s) * np.abs(s) ** (r - 1),
                lambda s: b(s) * np.abs(s) ** r / r,
                lambda s: b(s) * (r - 1) * np.abs(s) ** (r - 2),
            )
        a = list(enumerate((LD(c) for c in params["coeffs"]), start=1))
        return (
            lambda s: sum(c * s**k for k, c in a),
            lambda s: sum(c * s ** (k + 1) / (k + 1) for k, c in a),
            lambda s: sum(k * c * s ** (k - 1) for k, c in a),
        )

    @pytest.mark.parametrize(
        "kind, q, params",
        [
            ("power_asym", 2.0, {"b_plus": 2.0, "b_minus": 1.0, "r_exp": 4.0}),
            ("power_asym", 2.5, {"b_plus": 1.5, "b_minus": 0.7, "r_exp": 4.3}),
            ("power_asym", 3.0, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 5.5}),
            ("polynomial", 2.0, {"coeffs": [0.0, 0.0, 1.0, -0.3]}),
            ("polynomial", 2.0, {"coeffs": [0.0, 0.0, 1.0, 0.25]}),
            ("polynomial", 1.6, {"coeffs": [0.0, 0.0, 1.2, 0.1, 0.05]}),
        ],
    )
    def test_series_matches_spec(self, kind, q, params):
        nl = build_nonlinearity(kind, q, params)
        s = np.linspace(1.2 * nl.z_minus, 1.2 * nl.z_plus, 241)
        for ev, ref in zip((eval_f, eval_F, eval_df), self.spec_f_F_df(kind, params)):
            want = ref(s.astype(LD))
            assert np.all(np.abs(ev(nl, s) - want) <= 1e-14 * np.abs(want)), ev.__name__
            for v, w in zip(s[::40], want[::40]):
                assert abs(ev(nl, float(v)) - w) <= 1e-14 * abs(w), ev.__name__


class TestAreas:
    def test_symmetric(self, cubic_odd):
        a_plus, a_minus = areas(cubic_odd)
        assert a_plus == pytest.approx(0.25, abs=1e-14)
        assert a_minus == pytest.approx(0.25, abs=1e-14)

    def test_asymmetric(self, asym):
        a_plus, a_minus = areas(asym)
        assert a_plus == pytest.approx(0.125, abs=1e-14)
        assert a_minus == pytest.approx(0.25, abs=1e-14)
        assert a_plus < a_minus

    def test_area_equals_quadrature_of_map(self, asym):
        # consistency of the analytic antiderivative with direct quadrature
        a_plus, a_minus = areas(asym)
        val, _ = quad(lambda t: float(eval_m(asym, t)), 0.0, asym.z_plus, epsabs=1e-14)
        assert a_plus == pytest.approx(val, rel=1e-10)
        val, _ = quad(lambda t: float(-eval_m(asym, t)), asym.z_minus, 0.0, epsabs=1e-14)
        assert a_minus == pytest.approx(val, rel=1e-10)


class TestValidate:
    def test_pass_with_analytic_limit(self, cubic_odd):
        rep = validate_hypotheses(cubic_odd)
        assert rep.passed
        # for the power family the endpoint limit is (q - r_exp)/(q - 1)
        assert rep.L_plus == pytest.approx(-2.0, rel=1e-8)
        assert rep.L_minus == pytest.approx(-2.0, rel=1e-8)

    def test_pass_mild_exponent(self):
        nl = build_nonlinearity("power_asym", 2.0, {"b_plus": 1, "b_minus": 1, "r_exp": 3})
        rep = validate_hypotheses(nl)
        assert rep.passed
        assert rep.L_plus == pytest.approx(-1.0, rel=1e-8)

    def test_non_monotone_polynomial_fails_with_location(self):
        with pytest.raises(HypothesisViolated) as err:
            build_nonlinearity(
                "polynomial", 2.0, {"coeffs": [0.0, 0.0, 2.5, -11.0 / 3.0, 1.2]}
            )
        rep = err.value.report
        assert rep is not None and not rep.passed
        assert not rep.g_increasing_pos
        # g' = s (5 - 11 s + 4.8 s^2) is negative on (5/8, 5/3)
        assert rep.first_violation_pos == pytest.approx(0.625, abs=1e-12)

    def test_asym_limits_differ_but_negative(self, asym):
        rep = validate_hypotheses(asym)
        assert rep.passed
        assert rep.L_plus < 0.0 and rep.L_minus < 0.0

    @staticmethod
    def eta_family(eta):
        """g(s) = G(s^2) with G'(u) = (u - 1/2)^2 + eta: for eta < 0, g
        decreases on s^2 in (1/2 - sqrt(-eta), 1/2 + sqrt(-eta))."""
        return {"coeffs": [0.0, 0.0, 0.25 + eta, 0.0, -0.5, 0.0, 1.0 / 3.0]}

    @pytest.mark.parametrize("eta", [-1e-2, -3e-3, -1e-3, -1e-4])
    def test_narrow_decreasing_window_fails(self, eta):
        with pytest.raises(HypothesisViolated) as err:
            build_nonlinearity("polynomial", 2.0, self.eta_family(eta))
        rep = err.value.report
        assert not rep.g_increasing_pos and not rep.g_decreasing_neg
        start = (0.5 - (-eta) ** 0.5) ** 0.5  # 0.66725, 0.68438, 0.70000 for the last three
        assert rep.first_violation_pos == pytest.approx(start, abs=1e-9)
        assert rep.first_violation_neg == pytest.approx(-start, abs=1e-9)

    def test_positive_eta_passes(self):
        nl = build_nonlinearity("polynomial", 2.0, self.eta_family(1e-3))
        rep = validate_hypotheses(nl)
        assert rep.passed
        assert rep.first_violation_pos is None and rep.first_violation_neg is None

    def test_zero_pair_passed_over_by_doubling_fails(self):
        # g(s) = 10.5 G(s^2) with G'(u) = (u - 3/4)^2 - 1/16: g - 1 vanishes
        # twice in (0.512, 1.024), one doubling step of the bracket search,
        # so the zero located is a third one above 1.024
        params = {"coeffs": [0.0, 0.0, 5.25, 0.0, -7.875, 0.0, 3.5]}
        nl = locate_nonlinearity("polynomial", 2.0, params)
        assert nl.z_plus > 1.024
        assert eval_m(nl, 0.75) < 0.0 < eval_m(nl, 0.5)  # a zero of m below z_plus
        with pytest.raises(HypothesisViolated) as err:
            build_nonlinearity("polynomial", 2.0, params)
        # g decreases on s^2 in (1/2, 1)
        assert err.value.report.first_violation_pos == pytest.approx(0.5**0.5, abs=1e-12)

    # subnormal coefficients raise ValueError in locate_nonlinearity; the
    # drawn lists locate a zero about 32% of the time, the lists of odd
    # length with a normal, positive last coefficient about 70%, so the
    # mixture keeps Hypothesis' share of filtered inputs low
    @given(
        coeffs=st.one_of(
            st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6),
            st.tuples(
                st.sampled_from([2, 4]).flatmap(
                    lambda n: st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=n, max_size=n)
                ),
                st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False),
            ).map(lambda t: [*t[0], t[1]]),
        ),
        q=st.floats(1.2, 2.8),
    )
    @settings(max_examples=60, deadline=None)
    # g' has coefficients near the smallest normal float: Brent's method
    # on them underflowed and did not converge
    @example(coeffs=[1.0, -2.2250738585072014e-308, 0.0, 3.389276873861438e-291], q=1.25)
    def test_exact_checks_against_dense_sampling(self, coeffs, q):
        try:
            nl = locate_nonlinearity("polynomial", q, {"coeffs": coeffs})
        except (NoZeroFound, ValueError):
            assume(False)
        rep = validate_hypotheses(nl)
        # each side as the positive side of nl or of its reflection: g
        # increases on (0, w), w = z_plus or the reported window's end (to
        # its accuracy, 1e-15 z_plus), and when there is a window it
        # decreases right above w
        for side, monotone, start in (
            (nl, rep.g_increasing_pos, rep.first_violation_pos),
            (reflected(nl), rep.g_decreasing_neg, rep.first_violation_neg),
        ):
            assert monotone == (start is None)
            z = side.z_plus
            w = z if monotone else abs(start)
            if w > 1e-15 * z:
                g = eval_g(side, np.linspace(0.0, w - 1e-15 * z, 20003)[1:-1])
                assert np.all(np.diff(g) >= -1e-14 * np.max(np.abs(g)))
            if not monotone:
                assert drops_above(side, w)


class TestOddSymmetry:
    @given(
        q=st.floats(1.5, 3.5),
        dr=st.floats(0.6, 3.0),
        b=st.floats(0.5, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_odd_family_properties(self, q, dr, b):
        nl = build_nonlinearity("power_asym", q, {"b_plus": b, "b_minus": b, "r_exp": q + dr})
        assert nl.z_minus == pytest.approx(-nl.z_plus, rel=1e-14)
        assert nl.z_plus == pytest.approx(b ** (-1.0 / dr), rel=1e-12)
        s = np.linspace(0.1, 0.9, 9) * nl.z_plus
        assert eval_f(nl, -s) == pytest.approx(-eval_f(nl, s), rel=1e-14)
        assert eval_F(nl, -s) == pytest.approx(eval_F(nl, s), rel=1e-14)
        a_plus, a_minus = areas(nl)
        assert a_plus == pytest.approx(a_minus, rel=1e-14)
        assert a_plus > 0.0

    def test_g_monotone_on_grid_when_passed(self, asym):
        s = np.linspace(1e-6, asym.z_plus * (1 - 1e-9), 256)
        g = eval_g(asym, s)
        assert np.all(np.diff(g) > 0)


class TestReflected:
    @pytest.mark.parametrize(
        "kind, q, params",
        [
            ("power_asym", 2.5, {"b_plus": 1.5, "b_minus": 0.7, "r_exp": 4.0}),
            ("polynomial", 2.0, {"coeffs": [0.0, 0.0, 1.0, -0.3]}),
        ],
    )
    def test_reflection_identities(self, kind, q, params):
        # f~(s) = -f(-s): F~(u) = F(-u), m~(u) = -m(-u), exactly in floating point
        nl = build_nonlinearity(kind, q, params)
        nr = reflected(nl)
        u = np.linspace(-1.2, 1.2, 97) * max(nl.z_plus, -nl.z_minus)
        assert np.array_equal(eval_F(nr, u), eval_F(nl, -u))
        assert np.array_equal(eval_m(nr, u), -eval_m(nl, -u))
        assert areas(nr) == areas(nl)[::-1]
        assert (nr.z_plus, nr.z_minus) == (-nl.z_minus, -nl.z_plus)
        assert validate_hypotheses(nr).passed
        assert reflected(nr) == nl

    @given(spec=family_specs())
    @settings(max_examples=40, deadline=None)
    def test_random_specs(self, spec):
        nl = admissible(*spec)
        nr = reflected(nl)
        u = np.linspace(-1.2, 1.2, 97) * max(nl.z_plus, -nl.z_minus)
        assert np.array_equal(eval_f(nr, u), -eval_f(nl, -u))
        assert np.array_equal(eval_F(nr, u), eval_F(nl, -u))
        with np.errstate(divide="ignore", invalid="ignore"):  # m(0) = 0 * inf = nan for q < 2
            assert np.array_equal(eval_m(nr, u), -eval_m(nl, -u), equal_nan=True)
        assert areas(nr) == areas(nl)[::-1]
        assert (nr.z_plus, nr.z_minus) == (-nl.z_minus, -nl.z_plus)
        assert reflected(nr) == nl
        assert nl.odd == (nr == nl)
