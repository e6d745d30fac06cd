import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plap.errors import Divergent, DomainError, HypothesisViolated, NoZeroFound, OutOfRange
from plap.nonlinearity import areas, build_nonlinearity, eval_F, eval_m, reflected
from plap.solver import SolutionClass
from plap.timemap import (
    Arch,
    Problem,
    TimeMapCurves,
    _MODEL_FRAC,
    _area,
    _dm,
    alpha,
    flat_core_half_widths,
    integral_I,
    integral_J,
    level_neg,
    level_pos,
    s_of_r,
    slope_bounds,
    theta,
    time_map_curves,
    z_of_r,
)

from oracles import brute_force_I, brute_force_J, sine_integral_closed_form


@pytest.fixture(scope="module")
def ci_problem(cubic_odd):
    return Problem(p=2.0, nl=cubic_odd, lam=1.0)


class TestSlopeBounds:
    def test_closed_form(self, ci_problem):
        b = slope_bounds(ci_problem)
        assert b.r_pos == pytest.approx((2 * 0.25) ** 0.5, rel=1e-13)
        assert b.r_neg == pytest.approx(b.r_pos, rel=1e-13)
        assert b.r_star == b.r_pos

    def test_lambda_scaling(self, cubic_odd):
        b1 = slope_bounds(Problem(p=2.0, nl=cubic_odd, lam=1.0))
        b2 = slope_bounds(Problem(p=2.0, nl=cubic_odd, lam=2.0))
        assert b2.r_pos == pytest.approx(2 ** (1 / 2.0) * b1.r_pos, rel=1e-13)

    def test_asym_min(self, asym):
        b = slope_bounds(Problem(p=3.0, nl=asym, lam=1.0))
        assert b.r_pos < b.r_neg
        assert b.r_star == b.r_pos


class TestLevelFunctions:
    def test_closed_form_quadratic(self, ci_problem):
        # 0.25 = z^2 - z^4/2 has the admissible root z^2 = 1 - sqrt(1/2)
        z = z_of_r(ci_problem, 0.5)
        assert z == pytest.approx(np.sqrt(1 - np.sqrt(0.5)), rel=1e-12)
        s = s_of_r(ci_problem, 0.5)
        assert s == pytest.approx(-z, rel=1e-12)

    def test_limits(self, ci_problem):
        b = slope_bounds(ci_problem)
        assert z_of_r(ci_problem, 1e-8) < 1e-3
        assert z_of_r(ci_problem, b.r_pos * (1 - 1e-12)) == pytest.approx(1.0, abs=1e-5)

    def test_out_of_range(self, ci_problem):
        b = slope_bounds(ci_problem)
        for bad in (0.0, -1.0, b.r_pos, 2 * b.r_pos):
            with pytest.raises(OutOfRange):
                z_of_r(ci_problem, bad)
        with pytest.raises(OutOfRange):
            s_of_r(ci_problem, b.r_neg)

    def test_monotone_in_r(self, ci_problem):
        b = slope_bounds(ci_problem)
        r = np.linspace(0.01, 0.99, 64) * b.r_pos
        z = np.array([z_of_r(ci_problem, float(v)) for v in r])
        assert np.all(np.diff(z) > 0)

    @given(
        lam=st.floats(0.5, 50.0),
        frac=st.floats(0.05, 0.95),
        p=st.floats(1.6, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, cubic_odd, lam, frac, p):
        # z depends on (r, lambda) only through r^p / lambda
        prob1 = Problem(p=p, nl=cubic_odd, lam=lam)
        prob2 = Problem(p=p, nl=cubic_odd, lam=2 * lam)
        r = frac * slope_bounds(prob1).r_pos
        z1 = z_of_r(prob1, r)
        z2 = z_of_r(prob2, 2 ** (1.0 / p) * r)
        assert z1 == pytest.approx(z2, rel=1e-12)

    def test_deep_level_below_a_huge_z_plus(self):
        # z+ ~ 2.87e10 and z ~ 3.79e-5: bisecting [0, z+] down to the relative
        # xtol 1e-16 z would take about 102 halvings, past brentq's 100
        # iterations; the bracket from (q rho)^(1/q) converges in a few
        nl = build_nonlinearity("power_asym", 2.25, {"b_plus": 0.3, "b_minus": 1.0, "r_exp": 2.3})
        rho = 4.1360299272990525e-11  # a fold-search bracket point at p = 2.2
        z = level_pos(nl, rho)
        assert float(_area(nl, z)) == pytest.approx(rho, rel=1e-12)

    @pytest.mark.parametrize("negative", [False, True])
    def test_array_and_float_forms_agree_on_the_store_grid(self, asym, negative):
        # every level of the store's scan of asym at p = 3, on one side
        nl = reflected(asym) if negative else asym
        rho = areas(nl)[0] * time_map_curves(asym, 3.0).fractions ** 3.0
        z = level_pos(nl, rho)
        assert np.max(np.abs(_area(nl, z) / rho - 1.0)) <= 1e-14
        # near z+ the area is flat, so the rounding of A spreads the level by
        # about ulp(rho) / A'(z) = ulp(rho) / m(z); elsewhere that is below ulp(z)
        spread = 4.0 * np.spacing(z) + 4.0 * np.spacing(rho) / eval_m(nl, z)
        for r, zi, tol in zip(rho, z, spread):
            assert abs(level_pos(nl, float(r)) - zi) <= tol
        assert np.all(np.diff(z) > 0.0)

    def test_array_out_of_range(self, asym):
        a_plus, _ = areas(asym)
        for bad in (1.5 * a_plus, 0.0, np.nan):
            with pytest.raises(OutOfRange):
                level_pos(asym, np.array([0.5 * a_plus, bad]))
        assert level_pos(asym, np.array([a_plus]))[0] == asym.z_plus


class TestIntegralI:
    def test_small_level_limit_q_equals_p(self, cubic_odd):
        expected = 2.0**0.5 * sine_integral_closed_form(2.0)
        assert integral_I(cubic_odd, 2.0, 1e-4) == pytest.approx(expected, rel=1e-6)

    def test_small_level_vanishes_q_below_p(self, cubic_odd):
        # q < p: I(a) ~ a^{(p-q)/p} -> 0
        v1 = integral_I(cubic_odd, 3.0, 1e-3)
        v2 = integral_I(cubic_odd, 3.0, 1e-6)
        assert v2 < v1 / 5
        slope = np.log(v1 / v2) / np.log(1e3)
        assert slope == pytest.approx((3.0 - 2.0) / 3.0, rel=2e-2)

    def test_against_oracle(self, cubic_odd):
        val = integral_I(cubic_odd, 2.0, 0.5, tol=1e-12)
        assert val == pytest.approx(brute_force_I(cubic_odd, 2.0, 0.5), rel=1e-8)

    def test_divergent_endpoint(self, cubic_odd):
        with pytest.raises(Divergent):
            integral_I(cubic_odd, 2.0, cubic_odd.z_plus)
        with pytest.raises(Divergent):
            integral_J(cubic_odd, 1.5, cubic_odd.z_minus)

    def test_domain(self, cubic_odd):
        with pytest.raises(DomainError):
            integral_I(cubic_odd, 2.0, 1.5)
        with pytest.raises(DomainError):
            integral_I(cubic_odd, 2.0, 0.0)
        with pytest.raises(DomainError):
            integral_J(cubic_odd, 2.0, 0.5)

    def test_endpoint_finite_above_two(self, quintic_q3):
        val = integral_I(quintic_q3, 3.0, quintic_q3.z_plus)
        assert np.isfinite(val) and val > 0

    def test_non_integer_q(self):
        # q = 2.5: t = a - w^beta rounds below 0 at the top of the w-range
        nl = build_nonlinearity("power_asym", 2.5, {"b_plus": 1, "b_minus": 1, "r_exp": 4.5})
        a = 0.5 * nl.z_plus
        assert integral_I(nl, 2.0, a) == pytest.approx(brute_force_I(nl, 2.0, a), abs=1e-8)

    def test_oracle_random_levels(self, asym):
        rng = np.random.default_rng(42)
        for a in rng.uniform(0.05, 0.95, 6) * asym.z_plus:
            mine = integral_I(asym, 3.0, float(a), tol=1e-12)
            ref = brute_force_I(asym, 3.0, float(a))
            assert mine == pytest.approx(ref, rel=1e-8)


class TestIntegralJ:
    def test_mirror_of_I_odd(self, cubic_odd):
        for a in (0.2, 0.5, 0.8, 0.99):
            assert integral_J(cubic_odd, 2.0, -a, tol=1e-12) == pytest.approx(
                integral_I(cubic_odd, 2.0, a, tol=1e-12), rel=1e-11
            )

    def test_small_level_limit(self, cubic_odd):
        expected = 2.0**0.5 * sine_integral_closed_form(2.0)
        assert integral_J(cubic_odd, 2.0, -1e-4) == pytest.approx(expected, rel=1e-6)

    def test_odd_f_is_exact_mirror(self, quintic_q3):
        # an odd f is its own reflection, so the negative side repeats the
        # positive one bit for bit (the solver reuses theta as alpha there)
        nl = quintic_q3
        assert reflected(nl) == nl
        a_plus, _ = areas(nl)
        grid = np.linspace(0.02, 0.98, 49) * a_plus
        assert np.array_equal(level_neg(nl, grid), -level_pos(nl, grid))
        for rho in grid:
            z = level_pos(nl, float(rho))
            assert level_neg(nl, float(rho)) == -z
            assert integral_J(nl, 3.0, -z) == integral_I(nl, 3.0, z)

    def test_against_oracle(self, asym):
        val = integral_J(asym, 3.0, -0.5, tol=1e-12)
        assert val == pytest.approx(brute_force_J(asym, 3.0, -0.5), rel=1e-8)


class TestOracleProperty:
    @given(
        q=st.floats(1.2, 6.0),
        dr=st.floats(0.3, 3.0),
        b_plus=st.floats(0.5, 2.0),
        b_minus=st.floats(0.5, 2.0),
        p=st.floats(1.5, 4.0),
        frac=st.floats(0.05, 0.95),
    )
    @settings(max_examples=20, deadline=None)
    def test_I_and_J_match_oracle(self, q, dr, b_plus, b_minus, p, frac):
        nl = build_nonlinearity(
            "power_asym", q, {"b_plus": b_plus, "b_minus": b_minus, "r_exp": q + dr}
        )
        # the oracle agrees with 50-digit quadrature to about 1e-15 for p in
        # [1.5, 4] (see test_oracle_matches_mpmath)
        rel = 1e-10
        a, b = frac * nl.z_plus, frac * nl.z_minus
        assert integral_I(nl, p, a, tol=1e-12) == pytest.approx(
            brute_force_I(nl, p, a, panels=100_000), rel=rel
        )
        assert integral_J(nl, p, b, tol=1e-12) == pytest.approx(
            brute_force_J(nl, p, b, panels=100_000), rel=rel
        )

    @given(
        q=st.floats(1.2, 2.8),
        a3=st.floats(0.5, 2.0),
        a4=st.floats(-0.5, 0.5),
        a5=st.floats(0.0, 0.3),
        p=st.floats(1.5, 4.0),
        frac=st.floats(0.05, 0.95),
    )
    @settings(max_examples=20, deadline=None)
    # p = 1.5 near z_plus: the integrand ~ (a - t)^(-2/3) needs the oracle's
    # endpoint map of order m = 6
    @example(q=2.0, a3=1.5, a4=0.125, a5=0.25, p=1.5, frac=0.9375)
    def test_I_and_J_match_oracle_polynomial(self, q, a3, a4, a5, p, frac):
        try:
            nl = build_nonlinearity("polynomial", q, {"coeffs": [0.0, 0.0, a3, a4, a5]})
        except (HypothesisViolated, NoZeroFound):
            assume(False)
        except ValueError as exc:  # a subnormal a4 or a5 is refused
            assume("below the normal float range" not in str(exc))
            raise
        rel = 1e-10
        a, b = frac * nl.z_plus, frac * nl.z_minus
        assert integral_I(nl, p, a, tol=1e-12) == pytest.approx(
            brute_force_I(nl, p, a, panels=100_000), rel=rel
        )
        assert integral_J(nl, p, b, tol=1e-12) == pytest.approx(
            brute_force_J(nl, p, b, panels=100_000), rel=rel
        )


def _mpmath_I(nl, p: float, a: float) -> float:
    """I(a) (J for a < 0) by mpmath's tanh-sinh at 50 digits, the radicand
    summed term by term from f's series."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    q, e, a = mp.mpf(nl.q), mp.mpf(nl.e), mp.mpf(a)
    coeffs = nl.c_plus if a > 0 else nl.c_minus

    def G(t):
        sgn = 1 if t >= 0 else -1
        F = sum(mp.mpf(c) * sgn**k * (abs(t) ** (e + k + 1) - abs(a) ** (e + k + 1)) / (e + k + 1)
                for k, c in enumerate(coeffs))
        # G rounds to <= 0 only within 1e-50 of the singular end
        return max(F + (abs(a) ** q - abs(t) ** q) / q, mp.mpf(10) ** -60)

    ends = [0, a] if a > 0 else [a, 0]
    return float(mp.quad(lambda t: G(t) ** (-1 / mp.mpf(p)), ends))


@pytest.mark.parametrize("p", [1.5, 1.6, 1.75, 1.9])
def test_oracle_matches_mpmath(p):
    # p < 2 leaves the integrand ~ (a - t)^(-1/p), the case the trapezoid
    # oracle's endpoint map must be strong enough for
    nl = build_nonlinearity("polynomial", 2.0, {"coeffs": [0.0, 0.0, 1.5, 0.125, 0.25]})
    for a, oracle in ((0.6 * nl.z_plus, brute_force_I), (0.6 * nl.z_minus, brute_force_J)):
        assert oracle(nl, p, a, panels=100_000) == pytest.approx(_mpmath_I(nl, p, a), rel=1e-9)


class TestTimeMaps:
    def test_theta_limit_q_equals_p(self, cubic_odd):
        lam1 = np.pi**2
        for lam in (1.0, 7.3):
            prob = Problem(p=2.0, nl=cubic_odd, lam=lam)
            assert 2 * theta(prob, 1e-7) == pytest.approx((lam1 / lam) ** 0.5, rel=1e-9)

    def test_theta_increasing(self, ci_problem):
        b = slope_bounds(ci_problem)
        r = np.linspace(0.05, 0.95, 32) * b.r_pos
        th = np.array([theta(ci_problem, float(v)) for v in r])
        assert np.all(np.diff(th) > 0)

    def test_alpha_equals_theta_odd(self, ci_problem):
        for frac in (0.1, 0.5, 0.9):
            r = frac * slope_bounds(ci_problem).r_pos
            assert alpha(ci_problem, r) == pytest.approx(theta(ci_problem, r), rel=1e-11)

    def test_lambda_scaled_theta_invariant(self, cubic_odd):
        # lambda^(1/p) * theta at matched slopes is lambda-free
        p = 2.0
        prob1 = Problem(p=p, nl=cubic_odd, lam=3.0)
        prob2 = Problem(p=p, nl=cubic_odd, lam=6.0)
        r = 0.4 * slope_bounds(prob1).r_pos
        t1 = theta(prob1, r)
        t2 = theta(prob2, 2 ** (1 / p) * r)
        assert t1 == pytest.approx(2 ** (1 / p) * t2, rel=1e-11)

    def test_grid_matches_scalars(self, ci_problem, asym):
        # kappa times the store's scans at A g^p are theta and alpha at the
        # slopes r_A g, for an odd f (where J's scan is I's) and an asymmetric one
        for prob in (ci_problem, Problem(p=3.0, nl=asym, lam=40.0)):
            curves = time_map_curves(prob.nl, prob.p)
            a_plus, a_minus = areas(prob.nl)
            b = slope_bounds(prob)
            th = prob.kappa * curves.integrals(a_plus, negative=False)
            al = prob.kappa * curves.integrals(a_minus, negative=True)
            inner = np.flatnonzero((curves.fractions >= 0.1) & (curves.fractions <= 0.9))
            assert inner.size >= 10
            for i in inner:
                g = float(curves.fractions[i])
                assert th[i] == pytest.approx(theta(prob, g * b.r_pos), rel=1e-9)
                assert al[i] == pytest.approx(alpha(prob, g * b.r_neg), rel=1e-9)


class TestFlatCoreWidths:
    def test_threshold_identity(self, quintic_q3):
        # 2 x(lambda) = 1 exactly at lambda = (p-1)/p (2 I(z+))^p
        p = 3.0
        i_zp = integral_I(quintic_q3, p, quintic_q3.z_plus, tol=1e-12)
        lam_crit = (p - 1) / p * (2 * i_zp) ** p
        x, y = flat_core_half_widths(Problem(p=p, nl=quintic_q3, lam=lam_crit))
        assert 2 * x == pytest.approx(1.0, rel=1e-11)
        assert y == pytest.approx(x, rel=1e-11)

    def test_lambda_scaling(self, quintic_q3):
        x1, _ = flat_core_half_widths(Problem(p=3.0, nl=quintic_q3, lam=10.0))
        x2, _ = flat_core_half_widths(Problem(p=3.0, nl=quintic_q3, lam=20.0))
        assert x2 == pytest.approx(x1 / 2 ** (1 / 3.0), rel=1e-11)

    def test_divergent_at_low_p(self, cubic_odd):
        with pytest.raises(Divergent):
            flat_core_half_widths(Problem(p=2.0, nl=cubic_odd, lam=1.0))


class TestBoundLevels:
    # at the smaller area rho = min(A+, A-) its own side sits exactly at its zero
    def test_odd(self, cubic_odd):
        rho = min(areas(cubic_odd))
        assert level_pos(cubic_odd, rho) == cubic_odd.z_plus
        assert level_neg(cubic_odd, rho) == cubic_odd.z_minus

    def test_asymmetric_closed_form(self, asym):
        # A+ = 1/8 < A- = 1/4: the negative level solves S^2/2 - S^4/4 = 1/8
        rho = min(areas(asym))
        assert level_pos(asym, rho) == asym.z_plus
        assert level_neg(asym, rho) == pytest.approx(-np.sqrt(1 - np.sqrt(0.5)), rel=1e-12)

    def test_mirror_case(self):
        nl = build_nonlinearity("power_asym", 2.0, {"b_plus": 1.0, "b_minus": 2.0, "r_exp": 4.0})
        rho = min(areas(nl))
        assert level_neg(nl, rho) == nl.z_minus
        assert level_pos(nl, rho) == pytest.approx(np.sqrt(1 - np.sqrt(0.5)), rel=1e-12)


class TestBoundWeight:
    P = 3.0

    @pytest.fixture(params=["asym", "mirror", "cubic_odd"])
    def nl(self, request):
        if request.param == "mirror":  # A+ > A-
            return build_nonlinearity("power_asym", 2.0, {"b_plus": 1.0, "b_minus": 2.0, "r_exp": 4.0})
        return request.getfixturevalue(request.param)

    def test_terms_at_the_class_area(self, nl):
        curves = TimeMapCurves(nl, self.P)
        for j in (1, 2, 3):
            for sign in "+-":
                sc = SolutionClass(j, sign)
                area = sc.bound(*areas(nl))
                want = 0.0
                if sc.n_pos:
                    want += sc.n_pos * integral_I(nl, self.P, level_pos(nl, area))
                if sc.n_neg:
                    want += sc.n_neg * integral_J(nl, self.P, level_neg(nl, area))
                assert curves.bound_weight(sc.n_pos, sc.n_neg, area) == want, (j, sign)

    def test_single_arch_reaches_its_zero(self, nl):
        curves = TimeMapCurves(nl, self.P)
        a_plus, a_minus = areas(nl)
        assert curves.bound_weight(1, 0, a_plus) == integral_I(nl, self.P, nl.z_plus)
        assert curves.bound_weight(0, 1, a_minus) == integral_J(nl, self.P, nl.z_minus)

    def test_fills_only_the_used_side(self, nl):
        curves = TimeMapCurves(nl, self.P)
        a_plus, _ = areas(nl)
        curves.bound_weight(1, 0, a_plus)
        assert list(curves._bounds) == [(a_plus, False)]

    def test_odd_f_shares_one_entry(self, cubic_odd):
        # an odd f is its own reflection, so S_1^- reads S_1^+'s integral
        curves = TimeMapCurves(cubic_odd, self.P)
        a_plus, a_minus = areas(cubic_odd)
        assert curves.bound_weight(1, 0, a_plus) == curves.bound_weight(0, 1, a_minus)
        assert len(curves._bounds) == 1


class TestIMonotonicity:
    def test_increasing_for_q_le_p(self, cubic_odd):
        a = np.linspace(0.05, 0.999, 64)
        vals = [integral_I(cubic_odd, 2.0, float(v)) for v in a]
        assert np.all(np.diff(vals) > 0)

    def test_J_decreasing_for_q_le_p(self, asym):
        a = np.linspace(-0.97, -0.05, 64) * abs(asym.z_minus)
        vals = [integral_J(asym, 3.0, float(v)) for v in a]
        assert np.all(np.diff(vals) < 0)

    def test_bounded_below_for_q_gt_p(self, qgtp):
        # q = 3 > p = 2: I dips to an interior minimum and stays positive
        a = np.linspace(0.02, 0.98, 64) * qgtp.z_plus
        vals = np.array([integral_I(qgtp, 2.0, float(v)) for v in a])
        interior_min = vals.min()
        assert interior_min > 0
        assert vals[0] > interior_min and vals[-1] > interior_min


class TestRadicandAtOffset:
    @pytest.mark.parametrize("negative", [False, True])
    @pytest.mark.parametrize("frac, double", [(0.5, False), (0.999, False), (1.0, True)])
    def test_agrees_with_the_direct_radicand(self, asym, frac, double, negative):
        nl = reflected(asym) if negative else asym
        a = frac * nl.z_plus
        arch = Arch(nl, 3.0, a, double)
        for h in (1e-3 * a, 0.05 * a, 0.5 * a):  # a - h holds h to 1e-13
            t = a - h
            G, m = arch.radicand(t, h)
            direct = eval_F(nl, t) - eval_F(nl, a) + (a**nl.q - t**nl.q) / nl.q
            assert G == pytest.approx(direct, rel=1e-10)
            assert m == float(eval_m(nl, t))

    @pytest.mark.parametrize("frac", [0.5, 0.999])
    def test_simple_zero_below_an_ulp(self, asym, frac):
        # a - h rounds to a, yet G = h m(a) to first order
        a = frac * asym.z_plus
        m_a = float(eval_m(asym, a))
        for h in (1e-20 * a, 1e-40 * a):
            G, m = Arch(asym, 3.0, a, False).radicand(a - h, h)
            assert G == pytest.approx(h * m_a, rel=1e-12)
            assert m == m_a

    @pytest.mark.parametrize("name", ["asym", "quintic_q3"])
    def test_double_zero_below_an_ulp(self, request, name):
        # m(z+) = 0, so G = |m'| h^2/2 and m = |m'| h, continuous across the
        # model band's edge
        nl = request.getfixturevalue(name)
        a = nl.z_plus
        arch = Arch(nl, 3.0, a, True)
        slope = abs(_dm(nl, a))
        for h in (1e-20 * a, 1e-100 * a):
            G, m = arch.radicand(a - h, h)
            assert G == pytest.approx(0.5 * slope * h * h, rel=1e-15)
            assert m == pytest.approx(slope * h, rel=1e-15)
        offsets = (f * _MODEL_FRAC * a for f in (1.0 - 1e-9, 1.0))
        below, above = (arch.radicand(a - h, h) for h in offsets)
        assert above[0] == pytest.approx(below[0], rel=1e-6)
        assert above[1] == pytest.approx(below[1], rel=1e-6)

    def test_an_array_gets_G_alone(self, asym):
        # a profile's grid: G elementwise as at each float, and no m
        arch = Arch(asym, 3.0, asym.z_plus, True)
        t = asym.z_plus * np.array([0.0, 0.5, 0.995, 1.0 - 1e-12, 1.0])
        G, m = arch.radicand(t, asym.z_plus - t)
        assert m is None
        assert G.tolist() == [arch.radicand(float(v), asym.z_plus - float(v))[0] for v in t]


class TestArch:
    def test_side_from_the_sign_of_the_level(self, asym):
        a = 0.5 * abs(asym.z_minus)
        arch = Arch.at(asym, 3.0, -a)
        assert arch == Arch(reflected(asym), 3.0, a, False)
        assert arch.integral() == integral_J(asym, 3.0, -a)
        assert Arch.at(asym, 3.0, a) == Arch(asym, 3.0, a, False)

    def test_beta_by_zero_order(self, asym):
        assert Arch.at(asym, 3.0, asym.z_minus, True).beta == 3.0
        assert Arch.at(asym, 3.0, 0.5 * asym.z_plus).beta == 1.5
