import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plap import quadrature, timemap
from plap.errors import Divergent, DomainError, HypothesisViolated, NoZeroFound, OutOfRange, QuadratureFailure
from plap.nonlinearity import areas, build_nonlinearity, eval_F, eval_m, reflected
from plap.roots import brentq
from plap.solver import SolutionClass
from plap.timemap import (
    QUAD_TOL,
    Arch,
    Problem,
    TimeMapCurves,
    _MODEL_FRAC,
    _TAIL_FRAC,
    _area,
    _dm,
    _m_dm,
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
    weigh,
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


_FIXTURE_P = [("cubic_odd", 2.0), ("asym", 3.0), ("quintic_q3", 3.0), ("qgtp", 2.0), ("quartic_q4", 4.0)]


class TestIntegralRows:
    """``integral_I`` of a list of levels: each row is the float of the
    scalar call at its level, whatever levels share its list."""

    @staticmethod
    def _levels(side):
        """Levels from 1e-9 z+ up: fractions of z+ to 1 - 1e-8, and the levels
        of area fractions to 1 - 1e-13, which for p = 2 stay clear of the
        levels within 1e-10 of z+, where the scalar rule itself stalls."""
        fractions = [1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8]
        area = _area(side, side.z_plus)
        return [f * side.z_plus for f in fractions] + [
            level_pos(side, g * area) for g in (1e-12, 1e-6, 0.5, 1 - 1e-6, 1 - 1e-10, 1 - 1e-13)
        ]

    @pytest.mark.parametrize("family, p", _FIXTURE_P)
    @pytest.mark.parametrize("negative", [False, True])
    @pytest.mark.parametrize("tol", [1e-12, QUAD_TOL])
    def test_rows_equal_the_scalar_integral(self, request, family, p, negative, tol):
        nl = request.getfixturevalue(family)
        side = reflected(nl) if negative else nl
        levels = self._levels(side)
        assert integral_I(side, p, levels, tol) == [integral_I(side, p, level, tol) for level in levels]

    @pytest.mark.parametrize("family, p", [("cubic_odd", 2.0), ("asym", 3.0), ("qgtp", 2.0)])
    def test_rows_refined_past_level_6_equal_the_scalar_integral(self, request, monkeypatch, family, p):
        nl = request.getfixturevalue(family)
        levels = self._levels(nl)
        rows = []
        psi = Arch.psi

        def logged(arch, w, *args, **kwargs):
            rows.append(w.shape)
            return psi(arch, w, *args, **kwargs)

        monkeypatch.setattr(Arch, "psi", logged)
        got = integral_I(nl, p, levels, 1e-12)
        monkeypatch.setattr(Arch, "psi", psi)
        assert got == [integral_I(nl, p, level, 1e-12) for level in levels]
        level_6 = quadrature._nodes(6)[0].size
        assert any(len(shape) == 2 and shape[1] >= level_6 for shape in rows)  # a rows pass, not a scalar call

    def test_a_row_does_not_depend_on_its_companions(self, asym):
        levels = self._levels(asym)
        whole = integral_I(asym, 3.0, levels, 1e-12)
        assert integral_I(asym, 3.0, levels[::2], 1e-12) == whole[::2]
        assert integral_I(asym, 3.0, levels[1::2], 1e-12) == whole[1::2]
        assert integral_I(asym, 3.0, levels[::-1], 1e-12) == whole[::-1]

    def test_a_snapped_level_inside_a_list(self, asym, monkeypatch):
        # a level within _ENDPOINT_SNAP of z+ is the double zero's integral, by
        # a scalar call, among the rows of the simple levels
        snapped = asym.z_plus * (1.0 - 1e-15)
        levels = [0.3 * asym.z_plus, snapped, 0.6 * asym.z_plus, 0.9 * asym.z_plus]
        shapes = []
        psi = Arch.psi

        def logged(arch, w, *args, **kwargs):
            shapes.append(w.shape)
            return psi(arch, w, *args, **kwargs)

        monkeypatch.setattr(Arch, "psi", logged)
        rows = integral_I(asym, 3.0, levels, 1e-12)
        monkeypatch.setattr(Arch, "psi", psi)
        assert shapes[0][0] == 3  # the first rows pass holds the three simple levels
        assert rows == [integral_I(asym, 3.0, level, 1e-12) for level in levels]
        assert rows[1] == integral_I(asym, 3.0, asym.z_plus, 1e-12)

    def test_errors_are_the_scalar_calls(self, cubic_odd):
        with pytest.raises(Divergent):
            integral_I(cubic_odd, 2.0, [0.5, cubic_odd.z_plus, 0.7])
        with pytest.raises(DomainError):
            integral_I(cubic_odd, 2.0, [0.5, 1.5, 0.7])
        stalled = (1.0 - 1e-11) * cubic_odd.z_plus  # p = 2: the rule stalls this close to z+
        with pytest.raises(QuadratureFailure) as scalar:
            integral_I(cubic_odd, 2.0, stalled, 1e-12)
        with pytest.raises(QuadratureFailure) as rows:
            integral_I(cubic_odd, 2.0, [0.5, stalled, 0.7], 1e-12)
        assert str(rows.value) == str(scalar.value)

    def test_no_levels(self, asym):
        assert integral_I(asym, 3.0, []) == []


class TestDerivativeRows:
    """``Arch.derivative`` of a list of tops: each row is the float of the
    scalar call at its top, as ``integral_I`` of a list is."""

    _FRACTIONS = (1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99, 1 - 1e-4, 1 - 1e-7)  # of z+, the levels of every band

    @pytest.mark.parametrize("family", [family for family, _ in _FIXTURE_P])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("negative", [False, True])
    def test_rows_equal_the_scalar_derivative(self, request, monkeypatch, family, p, negative):
        nl = request.getfixturevalue(family)
        side = reflected(nl) if negative else nl
        tops = [f * side.z_plus for f in self._FRACTIONS]
        shapes = []
        psi = Arch.psi

        def logged(arch, w, *args, **kwargs):
            shapes.append(w.shape)
            return psi(arch, w, *args, **kwargs)

        monkeypatch.setattr(Arch, "psi", logged)
        rows = Arch(side, p, tops, False).derivative()
        monkeypatch.setattr(Arch, "psi", psi)
        assert rows == [Arch(side, p, top, False).derivative() for top in tops]
        assert shapes[0] == (len(tops), quadrature._nodes(4)[0].size)  # one rows pass holds every top
        if p == 1.5:  # the top rows refine past tanh-sinh level 6, as rows
            assert any(len(shape) == 2 and shape[1] >= quadrature._nodes(6)[0].size for shape in shapes)

    def test_a_row_does_not_depend_on_its_companions(self, asym):
        tops = [f * asym.z_plus for f in self._FRACTIONS]
        whole = Arch(asym, 3.0, tops, False).derivative()
        assert Arch(asym, 3.0, tops[::2], False).derivative() == whole[::2]
        assert Arch(asym, 3.0, tops[::-1], False).derivative() == whole[::-1]

    @pytest.mark.parametrize("count", [1, 2])
    def test_fewer_than_three_tops_take_scalar_calls(self, asym, monkeypatch, count):
        tops = [f * asym.z_plus for f in self._FRACTIONS[2 : 2 + count]]
        shapes = []
        psi = Arch.psi

        def logged(arch, w, *args, **kwargs):
            shapes.append(w.shape)
            return psi(arch, w, *args, **kwargs)

        monkeypatch.setattr(Arch, "psi", logged)
        rows = Arch(asym, 3.0, tops, False).derivative()
        monkeypatch.setattr(Arch, "psi", psi)
        assert all(len(shape) == 1 for shape in shapes)
        assert rows == [Arch(asym, 3.0, top, False).derivative() for top in tops]

    @pytest.mark.parametrize("negative", [False, True])
    def test_a_double_zero_raises_as_the_scalar_call(self, asym, monkeypatch, negative):
        # the list's arch at a double zero diverges as a lone top does, and
        # no integrand is read for the simple tops beside it
        def unread(self, w, derivative=False, ends=None):
            raise AssertionError("psi evaluated")

        monkeypatch.setattr(Arch, "psi", unread)
        side = reflected(asym) if negative else asym
        tops = [0.3 * side.z_plus, side.z_plus, 0.6 * side.z_plus, 0.9 * side.z_plus]
        with pytest.raises(Divergent) as scalar:
            Arch(side, 3.0, side.z_plus, True).derivative()
        with pytest.raises(Divergent) as rows:
            Arch(side, 3.0, tops, True).derivative()
        assert str(rows.value) == str(scalar.value)

    def test_no_tops(self, asym):
        assert Arch(asym, 3.0, [], False).derivative() == []


class TestRaggedRows:
    """``Arch.psi`` at a column of tops gathers each top's values at the
    nodes its own row puts in a band, in row-major order, so a row is its
    top's alone also when the rows hold different counts of a band."""

    @staticmethod
    def _side(request, family):
        if family == "polynomial":
            return build_nonlinearity("polynomial", 2.0, {"coeffs": [0.0, 0.0, 1.0, -0.3]})
        return request.getfixturevalue(family)

    @staticmethod
    def _tops(side):
        return [f * side.z_plus for f in (1e-8, 1e-5, 1e-2, 0.3, 0.7, 0.99, 1 - 1e-6)]

    @pytest.mark.parametrize("derivative", [False, True])
    @pytest.mark.parametrize("family", ["asym", "polynomial"])
    def test_rows_of_unequal_band_counts_are_their_tops_alone(self, request, family, derivative):
        side = self._side(request, family)
        tops = self._tops(side)
        listed, column = Arch(side, 3.0, tops, False), Arch(side, 3.0, np.array(tops)[:, None], False)
        # row k's abscissae crowd towards 0 by the power 1 + k, so each row
        # puts its own count of nodes in the tail band
        nodes = np.linspace(1e-3, 1.0, 97)
        w = np.array([top ** (1.0 / column.beta) * nodes ** (1 + k) for k, top in enumerate(tops)])
        _, tail, _ = column._bands(w**column.beta)
        assert len(set(tail.sum(axis=1).tolist())) == len(tops)
        rows = column.psi(w, derivative, listed._ends(derivative))
        for row, top, at in zip(rows, tops, w):
            assert row.tolist() == Arch(side, 3.0, top, False).psi(at, derivative).tolist()

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_rows_of_a_polynomial_f_equal_the_scalar_calls(self, request, p):
        side = self._side(request, "polynomial")
        tops = self._tops(side)
        assert Arch(side, p, tops, False).integral(1e-12) == [Arch(side, p, top, False).integral(1e-12) for top in tops]
        assert Arch(side, p, tops, False).derivative() == [Arch(side, p, top, False).derivative() for top in tops]


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

    def test_scan_fractions_are_the_sorted_union_of_two_halves(self, asym):
        # 512 fractions from 1e-12 to 0.5 and their mirror images, 0.5 once
        half = np.geomspace(timemap._SCAN_EPS, 0.5, timemap._SCAN_POINTS // 2)
        union = np.unique(np.concatenate([half, 1.0 - half[::-1]]))
        fractions = TimeMapCurves(asym, 3.0).fractions
        assert fractions.size == 1023
        assert fractions.view(np.uint64).tolist() == union.view(np.uint64).tolist()

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


_FOLD_CASES = pytest.mark.parametrize(
    "q, r_exp, b_plus, p, j",
    [
        (3.0, 5.0, 1.5, 2.0, 3),  # qgtp_asym, the 2:1 class S_3^+
        (4.0, 6.0, 1.0, 3.0, 1),
        (3.02, 3.5, 1.0, 3.0, 1),  # a deep fold: rho*/A = 1.9e-8
        (2.05, 2.3, 1.0, 2.0, 1),
    ],
    ids=["qgtp_asym-2:1", "p3q4", "deep", "p2q2.05"],
)


class TestFold:
    @staticmethod
    def _curves(q, r_exp, b_plus, p, b_minus=1.0):
        coefficients = {"b_plus": b_plus, "b_minus": b_minus, "r_exp": r_exp}
        return TimeMapCurves(build_nonlinearity("power_asym", q, coefficients), p)

    @staticmethod
    def _search(curves, sc):
        """The (n_pos, n_neg, area, i) of the class's fold: its reduced ratio
        and area bound, bracketed around its scanned minimum, or None when
        that minimum is the store's first fraction (a fold below the scan)."""
        _, n_pos, n_neg = curves.reduce(sc.n_pos, sc.n_neg)
        area = sc.bound(*areas(curves.nl))
        i = int(np.argmin(curves.weights(n_pos, n_neg, area)))
        return (n_pos, n_neg, area, min(i, curves.fractions.size - 2)) if i else None

    @_FOLD_CASES
    def test_fold_is_a_zero_of_W_prime(self, q, r_exp, b_plus, p, j):
        # rho* is where the central difference of W vanishes: its ratio to W''
        # places the zero relative to the fold's own scale, however deep
        curves = self._curves(q, r_exp, b_plus, p)
        nl, sc = curves.nl, SolutionClass(j, "+")
        (fold,) = curves.folds([self._search(curves, sc)])
        rho, w = fold

        def W(r, tol=1e-14):
            return weigh(nl, lambda side: integral_I(side, p, level_pos(side, r), tol), sc.n_pos, sc.n_neg)

        h = 1e-4 * rho
        below, at, above = W(rho - h), W(rho), W(rho + h)
        slope, curvature = (above - below) / (2.0 * h), (above - 2.0 * at + below) / h**2
        assert abs(slope / curvature) <= 1e-8 * rho
        # W at the fold's own level, the positive side's: the other side sits
        # at its area, which a round trip through level_pos holds to an ulp only
        assert rho == _area(nl, fold.level)

        def at_fold(side):
            return integral_I(side, p, fold.level if side is nl else level_pos(side, rho))

        assert w == weigh(nl, at_fold, sc.n_pos, sc.n_neg)

    @_FOLD_CASES
    def test_lockstep_folds_are_each_search_alone(self, q, r_exp, b_plus, p, j):
        # every fold of S_1..S_6 in one call, for the case's f with b_minus =
        # 0.7, whose seven ratios and areas give seven searches; the rounds'
        # rows hold the other searches' tops, yet each fold is the float of
        # its search alone, level included, in any order of the list
        curves = self._curves(q, r_exp, b_plus, p, b_minus=0.7)
        classes = [SolutionClass(n, sign) for n in range(1, 7) for sign in "+-"]
        searches = list(dict.fromkeys(self._search(curves, sc) for sc in classes))
        assert len(searches) == 7 and None not in searches
        alone = [curves.folds([search])[0] for search in searches]
        for order in (searches, searches[::-1], searches[1::2] + searches[::2]):
            together = curves.folds(order)
            expected = [alone[searches.index(search)] for search in order]
            assert together == expected
            assert [fold.level for fold in together] == [fold.level for fold in expected]
        if j == 1:  # S_1^+ reads the positive side only, which b_minus leaves alone: the case's own fold
            case = self._curves(q, r_exp, b_plus, p)
            (own,) = case.folds([self._search(case, SolutionClass(1, "+"))])
            assert alone[searches.index(self._search(curves, SolutionClass(1, "+")))] == own

    def test_lockstep_rounds_share_one_derivative_call_per_side(self, monkeypatch):
        # qgtp_asym at p = 2: seven searches, and every round integrates the
        # pending tops of a side by one call of Arch.derivative on a list
        curves = self._curves(3.0, 5.0, 1.5, 2.0)
        classes = [SolutionClass(n, sign) for n in range(1, 7) for sign in "+-"]
        searches = list(dict.fromkeys(self._search(curves, sc) for sc in classes))
        assert len(searches) == 7
        lists, rounds = [], []
        derivative, lockstep = Arch.derivative, timemap.brentq_lockstep

        def logged(arch):
            if isinstance(arch.top, list):
                lists.append(arch.top)
            return derivative(arch)

        def counted(f, brackets):
            return lockstep(lambda xs, idx: rounds.append(idx) or f(xs, idx), brackets)

        monkeypatch.setattr(Arch, "derivative", logged)
        monkeypatch.setattr(timemap, "brentq_lockstep", counted)
        curves.folds(searches)
        assert rounds[0] == list(range(7))  # the first round holds every search's left end
        assert len(lists) == 2 * len(rounds)  # each round, one call per side
        assert all(len(tops) == len(set(tops)) for tops in lists)
        assert max(map(len, lists)) >= 3  # a rows pass, not one scalar call per top

    def test_same_sign_ends_raise_as_the_scalar_search(self, qgtp):
        # a bracket on the falling side of the minimum: W' < 0 at both ends,
        # alone or beside a search that converges
        curves = TimeMapCurves(qgtp, 2.0)
        area = areas(qgtp)[0]
        good = self._search(curves, SolutionClass(1, "+"))
        falling = (1, 0, area, good[3] // 2)
        with pytest.raises(ValueError) as scalar:
            brentq(lambda z: -1.0, 0.1, 0.2, 1e-12)
        for searches in ([falling], [good, falling], [falling, good]):
            with pytest.raises(ValueError) as raised:
                curves.folds(searches)
            assert str(raised.value) == str(scalar.value)

    def test_no_searches(self, qgtp):
        assert TimeMapCurves(qgtp, 2.0).folds([]) == []


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

    @pytest.mark.parametrize(
        "double, derivative", [(False, False), (True, False), (False, True)], ids=["False", "True", "derivative"]
    )
    @pytest.mark.parametrize("negative", [False, True])
    def test_integrand_and_radicand_read_one_set_of_bands(self, asym, double, derivative, negative):
        # psi(w) = beta w^(beta-1) G(top - h)^(-1/p) with h = w^beta, and its
        # derivative integrand -(beta/p) w^(beta-1) G^(-1-1/p) (m(top) - m) at
        # a simple zero, in every band and on both sides of each band edge
        level = asym.z_minus if negative else asym.z_plus
        arch = Arch.at(asym, 3.0, level if double else 0.5 * level, double)
        beta, top = arch.beta, arch.top
        bands = (_TAIL_FRAC,) if derivative else (_TAIL_FRAC, _MODEL_FRAC)
        edges = [f * e for e in bands for f in (1.0 - 1e-9, 1.0 + 1e-9)]
        m_top = float(eval_m(arch.nl, top))
        for frac in ([0.5, 0.05, 1e-3] if derivative else [0.5, 1e-4, 1e-10]) + edges:
            w = (frac * top) ** (1.0 / beta)
            h = w**beta
            G, m = arch.radicand(top - h, h)
            got = float(arch.psi(np.array([w]), derivative)[0])
            if derivative:
                expected = -beta / 3.0 * w ** (beta - 1.0) * G ** (-1.0 - 1.0 / 3.0) * (m_top - m)
                assert got == pytest.approx(expected, rel=1e-10), frac
            else:
                assert got == pytest.approx(beta * w ** (beta - 1.0) * G ** (-1.0 / 3.0), rel=1e-12), frac

    @pytest.mark.parametrize("family", [family for family, _ in _FIXTURE_P])
    def test_m_and_its_derivative_in_one_pass(self, request, family):
        # the tail band of psi's derivative integrand reads both from one |s|^(q-2)
        nl = request.getfixturevalue(family)
        for side in (nl, reflected(nl)):
            s = side.z_plus * np.geomspace(1e-9, 1.0, 200).reshape(50, 4)
            m, dm = _m_dm(side, s)
            assert np.array_equal(m, eval_m(side, s)) and np.array_equal(dm, _dm(side, s))

    @pytest.mark.parametrize("negative", [False, True])
    def test_derivative_diverges_at_a_double_zero(self, asym, monkeypatch, negative):
        # I' grows like eps^(-2/p) as the level nears z+: no integrand is read
        def unread(self, w, derivative=False):
            raise AssertionError("psi evaluated")

        monkeypatch.setattr(Arch, "psi", unread)
        level = asym.z_minus if negative else asym.z_plus
        with pytest.raises(Divergent):
            Arch.at(asym, 3.0, level, True).derivative()

    @pytest.mark.parametrize("negative", [False, True])
    def test_an_array_of_tops_integrates_as_each_top(self, asym, negative):
        side = reflected(asym) if negative else asym
        tops = side.z_plus * np.array([1e-6, 0.05, 0.5, 0.9, 1.0 - 1e-9])
        batched = Arch(side, 3.0, tops, False).integral()
        assert batched.shape == tops.shape
        for top, got in zip(tops, batched):
            assert got == pytest.approx(Arch(side, 3.0, float(top), False).integral(), rel=1e-12)

    @pytest.mark.parametrize(
        "q, b_plus, b_minus, r_exp, p",
        [(2.0, 2.0, 1.0, 4.0, 3.0), (3.0, 1.5, 1.0, 5.0, 2.0), (1.5, 1.0, 2.0, 3.0, 1.6), (2.5, 1.0, 2.0, 4.5, 1.5)],
        ids=["asym-p3", "qgtp_asym-p2", "q1.5-p1.6", "q2.5-p1.5"],
    )
    @pytest.mark.parametrize("negative", [False, True])
    def test_derivative_matches_the_oracle(self, q, b_plus, b_minus, r_exp, p, negative):
        # fourth-order central differences of the brute-force I, with a step
        # that shrinks near z_plus, where I' grows
        nl = build_nonlinearity("power_asym", q, {"b_plus": b_plus, "b_minus": b_minus, "r_exp": r_exp})
        side = reflected(nl) if negative else nl
        for frac in (1e-3, 0.5, 0.99):
            a = frac * side.z_plus
            h = 1e-4 * a * min(1.0, 10.0 * (1.0 - frac))
            I = lambda x: brute_force_I(side, p, x, panels=50_000)
            expected = (8.0 * (I(a + h) - I(a - h)) - (I(a + 2.0 * h) - I(a - 2.0 * h))) / (12.0 * h)
            assert Arch(side, p, a, False).derivative() == pytest.approx(expected, rel=1e-9), frac
