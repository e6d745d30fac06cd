import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from plap.errors import DomainError, HypothesisViolated, NoZeroFound
from plap.nonlinearity import (
    areas,
    build_nonlinearity,
    eval_F,
    eval_f,
    eval_g,
    eval_m,
    reflected,
    validate_hypotheses,
)


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
        assert rep.first_violation_pos is not None
        assert 0.0 < rep.first_violation_pos < 1.0

    def test_asym_limits_differ_but_negative(self, asym):
        rep = validate_hypotheses(asym)
        assert rep.passed
        assert rep.L_plus < 0.0 and rep.L_minus < 0.0


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
