import numpy as np
import pytest

from scipy.optimize import minimize_scalar

from plap import bifurcation, timemap
from plap.bifurcation import bifurcation_table, eigenvalue_base, structure
from plap.errors import NoZeroFound
from plap.nonlinearity import build_nonlinearity
from plap.solver import SolutionClass, enumerate_solutions, solve_class
from plap.timemap import Problem, flat_core_half_widths, integral_I, integral_J, time_map_curves

from oracles import brute_force_I, sine_integral_closed_form


class TestEigenvalueBase:
    def test_p2_is_pi_squared(self):
        assert eigenvalue_base(2.0) == pytest.approx(np.pi**2, abs=1e-10)

    def test_closed_form_general_p(self):
        for p in (1.5, 2.5, 3.0, 4.0):
            expected = (p - 1.0) * (2.0 * sine_integral_closed_form(p)) ** p
            assert eigenvalue_base(p) == pytest.approx(expected, rel=1e-10)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            eigenvalue_base(1.0)

    @pytest.mark.parametrize("p", [1.3, 1.7, 2.5, 3.7])
    def test_matches_mpmath_quadrature(self, p):
        # the defining integral int_0^1 (1-t^p)^(-1/p) dt by mpmath's
        # quadrature, apart from the closed form (pi/p)/sin(pi/p) that
        # eigenvalue_base uses; 1 - t = w^(p/(p-1)) makes the integrand bounded
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            pm = mpmath.mpf(p)
            beta = pm / (pm - 1)

            def psi(w):
                body = -mpmath.expm1(pm * mpmath.log1p(-(w**beta)))  # 1 - t^p
                return beta * w ** (beta - 1) * body ** (-1 / pm)

            expected = float((pm - 1) * (2 * mpmath.quad(psi, [0, 1])) ** pm)
        assert eigenvalue_base(p) == pytest.approx(expected, rel=1e-13)


@pytest.fixture
def scans(monkeypatch):
    """The sizes of the store's scans (rows integrals of an array of tops)
    run while the test runs."""
    calls = []
    real = timemap.tanh_sinh_rows

    def counted(*args):
        if isinstance(args[1], np.ndarray):
            calls.append(args[1].size)
        return real(*args)

    monkeypatch.setattr(timemap, "tanh_sinh_rows", counted)
    return calls


def _lam(p, weight):
    return (p - 1) / p * (2 * weight) ** p


class TestMinimizers:
    """Star entries: per-class minima of the time map (q > p)."""

    def test_marker_when_not_applicable(self, cubic_odd):
        tab = bifurcation_table(cubic_odd, 2.0, 2)
        assert tab.star_plus is None
        assert tab.star_minus is None

    def test_odd_symmetry(self, qgtp):
        p = 2.0
        tab = bifurcation_table(qgtp, p, 6)
        # odd f: W = n I, so every class folds where I does
        for n, (plus, minus) in enumerate(zip(tab.star_plus, tab.star_minus), start=1):
            assert minus == pytest.approx(plus, rel=1e-9)
            assert plus == pytest.approx(n**p * tab.star_plus[0], rel=1e-9)

    def test_a_star_is_grid_minimum(self, qgtp):
        p = 2.0
        lam1 = bifurcation_table(qgtp, p, 1).star_plus[0]
        grid = np.linspace(0.02, 0.98, 97) * qgtp.z_plus
        vals = [integral_I(qgtp, p, float(a)) for a in grid]
        assert lam1 <= _lam(p, min(vals) + 1e-12)

    def test_a_star_matches_independent_scan(self, qgtp):
        # the brute oracle's minimum within 0.02 of its own coarse argmin
        # is the global minimum
        p = 2.0
        lam1 = bifurcation_table(qgtp, p, 1).star_plus[0]
        grid = np.linspace(0.4, 0.95, 56) * qgtp.z_plus
        vals = [brute_force_I(qgtp, p, float(a), panels=20_000) for a in grid]
        a_brute = grid[int(np.argmin(vals))]
        window = minimize_scalar(
            lambda a: brute_force_I(qgtp, p, a, panels=20_000),
            bounds=(a_brute - 0.02, a_brute + 0.02),
            method="bounded",
        )
        assert lam1 <= _lam(p, min(vals)) * (1 + 1e-8)
        assert _lam(p, window.fun) == pytest.approx(lam1, rel=1e-8)

    def test_asymmetric_entries_bracket_solver(self):
        # each class's pairs are born at its own fold: no regular root just
        # below the entry, two just above
        p = 2.0
        nl = build_nonlinearity("power_asym", 3.0, {"b_plus": 1.5, "b_minus": 1.0, "r_exp": 5.0})
        tab = bifurcation_table(nl, p, 6)
        assert tab.star_plus[0] != pytest.approx(tab.star_minus[0], rel=1e-3)
        for sign, stars in (("+", tab.star_plus), ("-", tab.star_minus)):
            for n, lam in enumerate(stars, start=1):
                counts = [
                    sum(
                        d.kind == "regular"
                        for d in solve_class(Problem(p=p, nl=nl, lam=lam * f), SolutionClass(n, sign))
                    )
                    for f in (1 - 1e-5, 1 + 1e-5)
                ]
                assert counts == [0, 2], (n, sign)

    def test_unresolved_fold_is_typed(self):
        # the S_1^+ fold lies below rho/A = (1e-12)^p, the solver's own depth
        nl = build_nonlinearity("power_asym", 2.01, {"b_plus": 1.5, "b_minus": 1.0, "r_exp": 2.06})
        with pytest.raises(NoZeroFound, match=r"S_1\^\+.*1e-24"):
            bifurcation_table(nl, 2.0, 4)

    def test_fold_search_cost(self, qgtp, monkeypatch):
        # on a warm store, one search serves every class of an odd f: its
        # bracket ends are the store's levels, Brent's steps on W' in the lead
        # level need no inversion, and W is one integral, at the zero
        p = 2.0
        bifurcation_table(qgtp, p, 6)
        calls = {"integral_I": 0, "level_pos": 0, "derivative": 0}
        for owner, name in ((timemap, "integral_I"), (timemap, "level_pos"), (timemap.Arch, "derivative")):
            real = getattr(owner, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(owner, name, counted)
        bifurcation_table(qgtp, p, 6)
        assert calls["level_pos"] == 0
        assert calls["integral_I"] == 1
        assert calls["integral_I"] + calls["derivative"] <= 20

    def test_lockstep_fold_passes(self, monkeypatch):
        # on a warm store, the seven folds of f = 1.5 s^4 / -s^4 (q = 3) at
        # p = 2 are searched together: the two end rounds read the store's
        # kept dI/drho, every later Brent round takes one psi' pass for all
        # of them, both sides in one signed list, and W at the zeros one psi
        # pass at the tops the rounds found, so only Brent's iterates invert
        # a level (one search at a time took 72 psi' passes and 12 psi
        # passes, one pass per side 12 and 2, integrated end rounds 6 psi'
        # passes and 35 level maps)
        nl = build_nonlinearity("power_asym", 3.0, {"b_plus": 1.5, "b_minus": 1.0, "r_exp": 5.0})
        bifurcation_table(nl, 2.0, 6)
        passes, levels = [], []
        psi, level_pos = timemap.Arch.psi, timemap.level_pos

        def counted(arch, w, derivative=False, ends=None):
            passes.append(derivative)
            return psi(arch, w, derivative, ends)

        def counted_level(side, rho):
            levels.append(isinstance(rho, float))
            return level_pos(side, rho)

        monkeypatch.setattr(timemap.Arch, "psi", counted)
        monkeypatch.setattr(timemap, "level_pos", counted_level)
        bifurcation_table(nl, 2.0, 6)
        assert passes.count(True) <= 4
        assert passes.count(False) <= 1
        assert levels.count(True) <= 20

    def test_store_is_filled_once(self, scans):
        # a second table on the same (f, p) reads the store's scans and runs none
        nl = build_nonlinearity("power_asym", 3.0, {"b_plus": 1.5, "b_minus": 1.0, "r_exp": 5.0})
        time_map_curves.cache_clear()
        first = bifurcation_table(nl, 2.0, 6)
        assert len(scans) >= 3  # I and J at the class areas
        scans.clear()
        assert bifurcation_table(nl, 2.0, 6) == first
        assert scans == []

    def test_solver_reads_the_store_structure_filled(self, scans):
        # structure and enumerate_solutions on one (f, p) share one scan per (area, side)
        nl = build_nonlinearity("power_asym", 3.0, {"b_plus": 1.5, "b_minus": 1.0, "r_exp": 5.0})
        prob = Problem(p=2.0, nl=nl, lam=150.0)
        time_map_curves.cache_clear()
        structure(prob, 6)
        assert len(scans) == 3  # I and J at the smaller area A(z+), J at S_1^-'s A(z-)
        scans.clear()
        enumerate_solutions(prob, j_max=6)
        assert scans == []

    def test_star_values_do_not_depend_on_what_filled_the_store(self, monkeypatch):
        # the thresholds structure reads at one lambda, from a cold store, after
        # other lambdas filled it, and after the store was cleared
        p = 2.0
        nl = build_nonlinearity("power_asym", 3.0, {"b_plus": 1.5, "b_minus": 1.0, "r_exp": 5.0})
        tables = []
        real = bifurcation.bifurcation_table

        def recorded(*args, **kwargs):
            tables.append(real(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(bifurcation, "bifurcation_table", recorded)

        def at(lam):
            return structure(Problem(p=p, nl=nl, lam=lam), 6), tables[-1]

        time_map_curves.cache_clear()
        cold = at(150.0)
        assert cold[0].entry(1, "+").tag == "pair"
        at(40.0), at(900.0)
        assert at(150.0) == cold  # star values and tags, floats included
        time_map_curves.cache_clear()
        assert at(150.0) == cold


class TestBifurcationTable:
    def test_infinite_below_p2(self, cubic_odd):
        tab = bifurcation_table(cubic_odd, 2.0, 4)
        assert all(np.isinf(v) for v in tab.tilde_plus + tab.tilde_minus)
        assert tab.star_plus is None
        assert tab.classical == pytest.approx([n**2 * np.pi**2 for n in (1, 2, 3, 4)])

    def test_first_entry_closed_formula(self, quintic_q3):
        p = 3.0
        tab = bifurcation_table(quintic_q3, p, 2)
        i_zp = integral_I(quintic_q3, p, quintic_q3.z_plus, tol=1e-12)
        assert tab.tilde_plus[0] == pytest.approx((p - 1) / p * (2 * i_zp) ** p, rel=1e-10)
        j_zm = integral_J(quintic_q3, p, quintic_q3.z_minus, tol=1e-12)
        assert tab.tilde_minus[0] == pytest.approx((p - 1) / p * (2 * j_zm) ** p, rel=1e-10)

    def test_odd_f_plus_minus_coincide(self, quintic_q3):
        tab = bifurcation_table(quintic_q3, 3.0, 8)
        for a, b in zip(tab.tilde_plus, tab.tilde_minus):
            assert a == pytest.approx(b, rel=1e-11)

    def test_monotone_in_n(self, quintic_q3, asym):
        for nl, p in ((quintic_q3, 3.0), (asym, 3.0)):
            tab = bifurcation_table(nl, p, 8)
            assert np.all(np.diff(tab.tilde_plus) > 0)
            assert np.all(np.diff(tab.tilde_minus) > 0)

    def test_asym_splits_plus_minus(self, asym):
        tab = bifurcation_table(asym, 3.0, 4)
        assert tab.tilde_plus[0] != pytest.approx(tab.tilde_minus[0], rel=1e-3)
        # even entries agree across signs by construction
        assert tab.tilde_plus[1] == tab.tilde_minus[1]

    def test_star_below_tilde_for_q_gt_p(self):
        # q = 4 > p = 3 with f = s^5
        nl = build_nonlinearity("power_asym", 4.0, {"b_plus": 1, "b_minus": 1, "r_exp": 6})
        tab = bifurcation_table(nl, 3.0, 6)
        for s, t in zip(tab.star_plus, tab.tilde_plus):
            assert s < t
        assert np.all(np.diff(np.array(tab.star_plus)[1::2]) > 0)  # even star entries
        assert np.all(np.diff(np.array(tab.star_plus)[0::2]) > 0)  # odd star entries

    def test_huge_z_plus(self):
        # z+ ~ 2.87e10: the fold searches invert levels fifteen decades below
        # z+ (see test_deep_level_below_a_huge_z_plus)
        nl = build_nonlinearity("power_asym", 2.25, {"b_plus": 0.3, "b_minus": 1.0, "r_exp": 2.3})
        tab = bifurcation_table(nl, 2.2, 4)
        for star, tilde in ((tab.star_plus, tab.tilde_plus), (tab.star_minus, tab.tilde_minus)):
            assert np.all(np.diff(star) > 0) and all(s < t for s, t in zip(star, tilde))

    def test_consistency_with_half_width_crossing(self, quintic_q3):
        # the lambda where 2 x(lambda) = 1 is the first tilde entry
        p = 3.0
        tab = bifurcation_table(quintic_q3, p, 1)
        lo, hi = 0.5 * tab.tilde_plus[0], 2.0 * tab.tilde_plus[0]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            x, _ = flat_core_half_widths(Problem(p=p, nl=quintic_q3, lam=mid))
            if 2 * x > 1.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * hi:
                break
        assert 0.5 * (lo + hi) == pytest.approx(tab.tilde_plus[0], rel=1e-10)

    def test_rejects_bad_n(self, cubic_odd):
        with pytest.raises(ValueError):
            bifurcation_table(cubic_odd, 2.0, 0)


class TestStructure:
    def test_chafee_infante_window(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=2 * np.pi**2)
        rep = structure(prob, 4)
        assert rep.regime == "q=p"
        for sign in "+-":
            assert rep.entry(1, sign).tag == "single"
            for j in (2, 3, 4):
                assert rep.entry(j, sign).tag == "empty"
        assert rep.nontrivial_count() == 2

    def test_q_below_p_every_class_lives(self, cubic_odd):
        prob = Problem(p=3.0, nl=cubic_odd, lam=0.37)
        rep = structure(prob, 6)
        assert rep.regime == "q<p"
        assert all(e.tag != "empty" for e in rep.entries)

    def test_q_above_p_trivial_below_first_star(self, qgtp):
        tab = bifurcation_table(qgtp, 2.0, 1)
        lam = 0.9 * min(tab.star_plus[0], tab.star_minus[0])
        rep = structure(Problem(p=2.0, nl=qgtp, lam=lam), 3)
        assert all(e.tag == "empty" for e in rep.entries)

    def test_q_above_p_pair_window(self, qgtp):
        tab = bifurcation_table(qgtp, 2.0, 1)
        lam = 1.05 * tab.star_plus[0]
        rep = structure(Problem(p=2.0, nl=qgtp, lam=lam), 1)
        assert rep.entry(1, "+").tag == "pair"
        assert rep.entry(1, "+").advisory

    def test_q_above_p_tangent_at_star(self, qgtp):
        star = bifurcation_table(qgtp, 2.0, 1).star_plus[0]
        tags = [
            structure(Problem(p=2.0, nl=qgtp, lam=lam), 1).entry(1, "+").tag
            for lam in (star * (1 - 1e-9), star, star * (1 + 1e-9))
        ]
        assert tags == ["empty", "single", "pair"]

    def test_q_above_p_pair_near_slope_bound(self, qgtp):
        # at lambda = 600 the S_1 root pair's outer root lies within the
        # scan's clamp of the slope bound; the tag comes from lambda*_1 alone
        rep = structure(Problem(p=2.0, nl=qgtp, lam=600.0), 2)
        for sign in "+-":
            assert rep.entry(1, sign).tag == "pair"
            assert rep.entry(1, sign).advisory

    def test_q_above_p_deep_fold_pair(self):
        p = 3.0
        nl = build_nonlinearity("power_asym", 3.1, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 3.15})
        prob = Problem(p=p, nl=nl, lam=2 * bifurcation_table(nl, p, 1).star_plus[0])
        rep = structure(prob, 1)
        descs = enumerate_solutions(prob, 1)
        for sign in "+-":
            assert rep.entry(1, sign).tag == "pair"
            regular = [d for d in descs if (d.sign, d.kind) == (sign, "regular")]
            assert len(regular) == 2

    def test_q_above_p_deep_fold_inner_roots_resolve(self):
        # the config of test_q_above_p_deep_fold_pair: the inner S_1 roots sit at
        # r ~ 8e-10, which only Brent tolerances relative to r and the level resolve
        p = 3.0
        nl = build_nonlinearity("power_asym", 3.1, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 3.15})
        prob = Problem(p=p, nl=nl, lam=2 * bifurcation_table(nl, p, 1).star_plus[0])
        descs = enumerate_solutions(prob, 1)
        for sign in "+-":
            regular = [d for d in descs if (d.sign, d.kind) == (sign, "regular")]
            inner = min(regular, key=lambda d: d.r)
            assert abs(inner.residual) <= 1e-9

    @pytest.mark.parametrize("lam", [100.0, 1000.0])
    def test_q_above_p_non_integer_q(self, lam):
        nl = build_nonlinearity("power_asym", 2.5, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 4.5})
        rep = structure(Problem(p=1.5, nl=nl, lam=lam), 6)
        assert rep.regime == "q>p" and len(rep.entries) == 12
        assert rep.entry(1, "+").tag == "pair"
        for j in range(1, 7):  # f is odd
            assert rep.entry(j, "+").tag == rep.entry(j, "-").tag

    def test_boundary_inclusive_upper(self, cubic_odd):
        # lambda exactly at a classical eigenvalue leaves the class empty
        prob = Problem(p=2.0, nl=cubic_odd, lam=4 * np.pi**2)
        rep = structure(prob, 2)
        assert rep.entry(2, "+").tag == "empty"
        assert rep.entry(1, "+").tag == "single"

    @pytest.mark.parametrize(
        "b_plus,b_minus,column",
        [
            (1.0, 1.0, "equal"),
            (2.0, 1.0, "plus_less"),
            (1.0, 2.0, "plus_greater"),
        ],
    )
    def test_dimension_table(self, b_plus, b_minus, column):
        nl = build_nonlinearity(
            "power_asym", 2.0, {"b_plus": b_plus, "b_minus": b_minus, "r_exp": 4.0}
        )
        rep = structure(Problem(p=3.0, nl=nl, lam=5.0), 12)
        assert rep.area_relation == column
        for k in range(1, 7):
            even = rep.entry(2 * k, "+")
            expected_even = {"equal": 2 * k - 1, "plus_less": k - 1, "plus_greater": k - 1}
            assert even.continuum_dim == expected_even[column]
            assert rep.entry(2 * k, "-").continuum_dim == expected_even[column]
            if k >= 2:
                odd_plus = rep.entry(2 * k - 1, "+").continuum_dim
                odd_minus = rep.entry(2 * k - 1, "-").continuum_dim
                expected_plus = {"equal": 2 * k - 2, "plus_less": k - 1, "plus_greater": k - 2}
                expected_minus = {"equal": 2 * k - 2, "plus_less": k - 2, "plus_greater": k - 1}
                assert odd_plus == expected_plus[column]
                assert odd_minus == expected_minus[column]
        assert rep.entry(1, "+").continuum_dim == 0
        assert rep.entry(1, "-").continuum_dim == 0
