import math
from dataclasses import replace

import numpy as np
import pytest

from plap.bifurcation import bifurcation_table, structure
from plap import solver, timemap
from plap.errors import OutOfRange
from plap.nonlinearity import areas, build_nonlinearity, reflected
from plap.solver import (
    SolutionClass,
    enumerate_solutions,
    matching_residual,
    solve_class,
    sweep,
)
from plap.timemap import (
    Arch,
    Problem,
    TimeMapCurves,
    _CURVES_CAP,
    _SCAN_TOL,
    alpha,
    flat_core_half_widths,
    level_pos,
    slope_bounds,
    theta,
    time_map_curves,
)


class TestMatchingResidual:
    def test_even_class_formula(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=30.0)
        r = 0.4 * slope_bounds(prob).r_star
        res = matching_residual(prob, SolutionClass(2, "+"), r)
        assert res == pytest.approx(2 * (theta(prob, r) + alpha(prob, r)) - 1, abs=1e-12)

    def test_odd_class_formula(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=90.0)
        r = 0.5 * slope_bounds(prob).r_star
        res = matching_residual(prob, SolutionClass(3, "+"), r)
        assert res == pytest.approx(4 * theta(prob, r) + 2 * alpha(prob, r) - 1, abs=1e-12)
        res_minus = matching_residual(prob, SolutionClass(3, "-"), r)
        assert res_minus == pytest.approx(4 * alpha(prob, r) + 2 * theta(prob, r) - 1, abs=1e-12)

    def test_odd_f_sign_symmetry(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=50.0)
        r = 0.3 * slope_bounds(prob).r_star
        for j in (1, 2, 3):
            assert matching_residual(prob, SolutionClass(j, "+"), r) == pytest.approx(
                matching_residual(prob, SolutionClass(j, "-"), r), rel=1e-11
            )

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("family", ["asym", "cubic_odd"])
    def test_residual_is_exactly_the_theta_alpha_sum(self, request, family, p):
        # theta and alpha in the order the condition states them: the one
        # weighted sum reproduces that float exactly, for an odd f too
        prob = Problem(p=p, nl=request.getfixturevalue(family), lam=50.0)
        b = slope_bounds(prob)
        for j in (1, 2, 3, 4):
            for sign in "+-":
                sc = SolutionClass(j, sign)
                for frac in (1e-6, 1e-3, 0.1, 0.37, 0.5, 0.9, 1 - 1e-6, 1 - 1e-9):
                    r = frac * sc.bound(b.r_pos, b.r_neg)
                    want = 0.0
                    if sc.n_pos:
                        want += 2.0 * sc.n_pos * theta(prob, r)
                    if sc.n_neg:
                        want += 2.0 * sc.n_neg * alpha(prob, r)
                    assert matching_residual(prob, sc, r) == want - 1.0, (j, sign, frac)

    @pytest.mark.parametrize("family, calls", [("cubic_odd", 1), ("asym", 2)])
    def test_quadratures_per_mixed_class_residual(self, request, monkeypatch, family, calls):
        # an odd f is its own reflection, so its mixed classes integrate once
        prob = Problem(p=3.0, nl=request.getfixturevalue(family), lam=50.0)
        r = 0.5 * slope_bounds(prob).r_star
        seen = []
        real = Arch.integral

        def counting(arch, tol):  # one quadrature per integral_I
            seen.append(arch.nl)
            return real(arch, tol)

        monkeypatch.setattr(Arch, "integral", counting)
        for sc in (SolutionClass(2, "+"), SolutionClass(3, "-")):
            seen.clear()
            matching_residual(prob, sc, r)
            assert len(seen) == calls, sc

    @pytest.mark.parametrize(
        "family, p, lams",
        [
            ("cubic_odd", 2.0, (30.0, 300.0, 3000.0)),
            ("asym", 3.0, (30.0, 300.0, 3000.0)),
            ("quintic_q3", 3.0, (30.0, 300.0, 3000.0)),
            ("qgtp", 2.0, (30.0, 300.0, 3000.0)),
            ("quartic_q4", 4.0, (300.0, 3000.0, 30000.0)),
            ("asym", 2.5, (20.0, 50.0, 150.0)),
            ("qgtp", 1.8, (30.0, 300.0, 3000.0)),
        ],
    )
    def test_root_search_reports_the_checked_residual(self, request, family, p, lams):
        # the root search reports the residual at the root's level, where it
        # refined; matching_residual re-derives each level from r, whose map
        # loses digits next to the slope bound (6.8e-7 at qgtp's S_2 root at
        # p = 1.8, lambda = 3000, whose level residual is 5.6e-13)
        nl = request.getfixturevalue(family)
        classes = [SolutionClass(j, sign) for j in range(1, 5) for sign in "+-"]
        for lam in lams:
            prob = Problem(p=p, nl=nl, lam=lam)
            b = slope_bounds(prob)
            found = 0
            searches = tuple((sc, sc.bound(*areas(nl))) for sc in classes)
            for sc, roots in zip(classes, solver._roots(prob, searches)):
                for r, res, _ in roots:
                    assert abs(res) <= 1e-9, (lam, sc, r)
                    assert 0.0 < r < sc.bound(b.r_pos, b.r_neg), (lam, sc, r)
                    found += 1
            assert found, lam

    def test_out_of_range(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=30.0)
        b = slope_bounds(prob)
        with pytest.raises(OutOfRange):
            matching_residual(prob, SolutionClass(2, "+"), b.r_star)
        with pytest.raises(OutOfRange):
            matching_residual(prob, SolutionClass(1, "+"), 0.0)

    def test_single_sign_change_above_threshold(self, cubic_odd):
        # S2+ condition is monotone for q = p: one crossing once lambda > lambda_2
        prob = Problem(p=2.0, nl=cubic_odd, lam=1.2 * 4 * np.pi**2)
        b = slope_bounds(prob)
        r = np.linspace(1e-6, 1 - 1e-9, 400) * b.r_star
        vals = [matching_residual(prob, SolutionClass(2, "+"), float(v)) for v in r]
        assert np.sum(np.diff(np.sign(vals)) != 0) == 1

    def test_no_root_exactly_at_threshold(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=4 * np.pi**2)
        assert solve_class(prob, SolutionClass(2, "+")) == []


class TestSolveClass:
    def test_chafee_infante_first_window(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=2 * np.pi**2)
        one = solve_class(prob, SolutionClass(1, "+"))
        assert len(one) == 1 and one[0].kind == "regular"
        assert abs(one[0].residual) < 1e-11
        assert solve_class(prob, SolutionClass(2, "+")) == []

    def test_flat_core_descriptor(self, quintic_q3):
        tab = bifurcation_table(quintic_q3, 3.0, 1)
        prob = Problem(p=3.0, nl=quintic_q3, lam=1.5 * tab.tilde_plus[0])
        descs = solve_class(prob, SolutionClass(1, "+"))
        assert len(descs) == 1
        d = descs[0]
        x_lam, _ = flat_core_half_widths(prob)
        assert d.kind == "flat_core"
        assert d.core_budget == pytest.approx(1 - 2 * x_lam, abs=1e-11)
        assert d.core_count == 1
        assert d.core_side == "positive"
        assert d.continuum_dim == 0

    def test_budget_positive_iff_above_threshold(self, quintic_q3):
        tab = bifurcation_table(quintic_q3, 3.0, 2)
        for n, sclass in ((1, SolutionClass(1, "+")), (2, SolutionClass(2, "+"))):
            lam_n = tab.tilde_plus[n - 1]
            above = solve_class(Problem(p=3.0, nl=quintic_q3, lam=lam_n * (1 + 1e-9)), sclass)
            assert any(d.kind == "flat_core" and d.core_budget > 0 for d in above)
            below = solve_class(Problem(p=3.0, nl=quintic_q3, lam=lam_n * (1 - 1e-9)), sclass)
            assert not any(d.kind == "flat_core" for d in below)

    def test_tangency_three_ways(self, qgtp):
        tab = bifurcation_table(qgtp, 2.0, 1)
        lam_star = tab.star_plus[0]
        above = solve_class(Problem(p=2.0, nl=qgtp, lam=1.05 * lam_star), SolutionClass(1, "+"))
        assert len([d for d in above if d.kind == "regular"]) >= 2
        at = solve_class(Problem(p=2.0, nl=qgtp, lam=lam_star), SolutionClass(1, "+"))
        assert len(at) == 1 and at[0].degenerate
        below = solve_class(Problem(p=2.0, nl=qgtp, lam=0.95 * lam_star), SolutionClass(1, "+"))
        assert below == []

    @pytest.mark.parametrize("factor, searches", [(1 + 1e-6, 1), (1.05, 0), (2.0, 0)])
    def test_fold_search_only_on_unresolved_dips(self, qgtp, monkeypatch, factor, searches):
        # a dip the scan already shows below zero has both roots bracketed by
        # sign changes; only one at the scan's resolution needs the fold search
        lam_star = bifurcation_table(qgtp, 2.0, 1).star_plus[0]
        calls = []
        fold = TimeMapCurves.fold

        def counted(self, *args):
            calls.append(args)
            return fold(self, *args)

        monkeypatch.setattr(TimeMapCurves, "fold", counted)
        descs = solve_class(Problem(p=2.0, nl=qgtp, lam=factor * lam_star), SolutionClass(1, "+"))
        assert len(calls) == searches
        assert [(d.kind, d.degenerate) for d in descs] == [("regular", False)] * 2

    @pytest.mark.parametrize(
        "b_plus, q, r_exp, p, j, sign",
        [
            (1.0, 3.0, 5.0, 2.0, 1, "+"),
            (1.0, 3.0, 5.0, 2.0, 2, "-"),
            (1.5, 3.0, 5.0, 2.0, 1, "-"),
            (1.0, 4.0, 6.0, 3.0, 1, "+"),
        ],
        ids=["qgtp-S1+", "qgtp-S2-", "qgtp_asym-S1-", "p3q4-S1+"],
    )
    def test_tangent_root_keeps_its_id_near_the_fold(self, monkeypatch, b_plus, q, r_exp, p, j, sign):
        # within 3 ulps of lambda*_j the tangent root sits at the fold of the
        # lambda-free W, so its r, and so its id, does not move with the dip
        nl = build_nonlinearity("power_asym", q, {"b_plus": b_plus, "b_minus": 1.0, "r_exp": r_exp})
        lam_star = bifurcation_table(nl, p, j).star(sign)[j - 1]
        folds = []
        fold = TimeMapCurves.fold

        def recorded(self, *args):
            folds.append(fold(self, *args))
            return folds[-1]

        monkeypatch.setattr(TimeMapCurves, "fold", recorded)
        ids = set()
        for k in range(-3, 4):
            lam = lam_star
            for _ in range(abs(k)):
                lam = float(np.nextafter(lam, math.inf if k > 0 else 0.0))
            folds.clear()
            descs = solve_class(Problem(p=p, nl=nl, lam=lam), SolutionClass(j, sign))
            assert [(d.kind, d.degenerate) for d in descs] == [("regular", True)], k
            (rho, _), = folds
            assert descs[0].r == (lam * p * rho / (p - 1.0)) ** (1.0 / p)
            ids.add(descs[0].descriptor_id)
            if nl.odd:  # S_j^+ and S_j^- reduce to one ratio: one fold, one r
                twin = SolutionClass(j, "-" if sign == "+" else "+")
                assert [d.r for d in solve_class(Problem(p=p, nl=nl, lam=lam), twin)] == [descs[0].r]
        assert len(ids) == 1

    def test_fold_and_continuum_coexist(self):
        # q = 4 > p = 3: pairs born at the fold, continuum past the flat-core
        # threshold with the surviving extra root alongside it
        nl = build_nonlinearity("power_asym", 4.0, {"b_plus": 1, "b_minus": 1, "r_exp": 6})
        tab = bifurcation_table(nl, 3.0, 1)
        lam_mid = 0.5 * (tab.star_plus[0] + tab.tilde_plus[0])
        mid = solve_class(Problem(p=3.0, nl=nl, lam=lam_mid), SolutionClass(1, "+"))
        assert [d.kind for d in mid] == ["regular", "regular"]
        hi = solve_class(
            Problem(p=3.0, nl=nl, lam=1.3 * tab.tilde_plus[0]), SolutionClass(1, "+")
        )
        assert sorted(d.kind for d in hi) == ["flat_core", "regular"]

    def test_parity_for_monotone_maps(self, cubic_odd):
        # q <= p: each class has 0 or 1 regular root
        for lam in (0.5 * np.pi**2, 2 * np.pi**2, 11 * np.pi**2):
            prob = Problem(p=2.0, nl=cubic_odd, lam=lam)
            for j in (1, 2, 3):
                for sign in "+-":
                    regs = [
                        d
                        for d in solve_class(prob, SolutionClass(j, sign))
                        if d.kind == "regular"
                    ]
                    assert len(regs) in (0, 1)


class TestTwinClasses:
    """S_j^- reads the root search of S_j^+ where the two have one matching
    equation: j even (n_pos = n_neg), or f odd (J = I)."""

    @staticmethod
    def _work(monkeypatch) -> list:
        """Records "integral" per quadrature and "fold" per fold search."""
        work = []
        integral, fold = Arch.integral, TimeMapCurves.fold

        def counted_integral(arch, *args):
            work.append("integral")
            return integral(arch, *args)

        def counted_fold(curves, *args):
            work.append("fold")
            return fold(curves, *args)

        monkeypatch.setattr(Arch, "integral", counted_integral)
        monkeypatch.setattr(TimeMapCurves, "fold", counted_fold)
        return work

    @pytest.mark.parametrize(
        "family, p, lam",
        [
            ("cubic_odd", 2.0, 30.0),
            ("cubic_odd", 2.0, 400.0),
            ("asym", 3.0, 50.0),
            ("asym", 3.0, 2000.0),
            ("quintic_q3", 3.0, 3000.0),
            ("qgtp", 2.0, 300.0),
        ],
    )
    def test_twin_is_its_partner_with_the_sign_replaced(self, request, family, p, lam):
        nl = request.getfixturevalue(family)
        prob = Problem(p=p, nl=nl, lam=lam)
        found = 0
        for j in range(1, 5):
            if j % 2 and not nl.odd:
                continue
            plus, minus = (solve_class(prob, SolutionClass(j, sign)) for sign in "+-")
            regular = [d for d in minus if d.kind == "regular"]
            assert regular == [replace(d, sign="-") for d in plus if d.kind == "regular"], j
            # the same floats as a root search of the class's own equation
            sc = SolutionClass(j, "-")
            (own,) = solver._roots.__wrapped__(prob, ((sc, sc.bound(*areas(nl))),))
            assert [(d.r, d.residual, d.degenerate) for d in regular] == list(own), j
            found += len(regular)
        assert found

    @pytest.mark.parametrize(
        "family, p, lam, j",
        [
            ("cubic_odd", 2.0, 400.0, 1),
            ("cubic_odd", 2.0, 400.0, 3),
            ("asym", 3.0, 50.0, 2),
            ("quintic_q3", 3.0, 3000.0, 3),
        ],
    )
    def test_twin_after_its_partner_does_no_quadrature(self, request, monkeypatch, family, p, lam, j):
        prob = Problem(p=p, nl=request.getfixturevalue(family), lam=lam)
        work = self._work(monkeypatch)
        assert solve_class(prob, SolutionClass(j, "+"))
        assert "integral" in work
        work.clear()
        assert solve_class(prob, SolutionClass(j, "-"))
        assert work == []

    def test_twin_skips_the_fold_search(self, qgtp, monkeypatch):
        # q > p on an odd f, just above lambda*_1: S_1^+ finds its pair by
        # the fold search, and S_1^- reads that search's roots
        prob = Problem(p=2.0, nl=qgtp, lam=(1 + 1e-6) * bifurcation_table(qgtp, 2.0, 1).star_plus[0])
        work = self._work(monkeypatch)
        assert len(solve_class(prob, SolutionClass(1, "+"))) == 2
        assert work.count("fold") == 1
        work.clear()
        assert len(solve_class(prob, SolutionClass(1, "-"))) == 2
        assert work == []

    @pytest.mark.parametrize("j", [1, 3])
    def test_asymmetric_odd_classes_each_integrate(self, asym, monkeypatch, j):
        # n_pos != n_neg and J != I: S_j^+ and S_j^- are two equations
        prob = Problem(p=3.0, nl=asym, lam=50.0)
        work = self._work(monkeypatch)
        roots = []
        for sign in "+-":
            work.clear()
            roots.append([d.r for d in solve_class(prob, SolutionClass(j, sign)) if d.kind == "regular"])
            assert "integral" in work, sign
        assert roots[0] and roots[1] and roots[0] != roots[1]

    def test_new_lambda_is_searched_again(self, cubic_odd, monkeypatch):
        lam = 400.0
        solve_class(Problem(p=2.0, nl=cubic_odd, lam=lam), SolutionClass(1, "+"))
        work = self._work(monkeypatch)
        for sign in "+-":  # one ulp away S_1^+ searches again, and S_1^- reads that search
            work.clear()
            nearby = Problem(p=2.0, nl=cubic_odd, lam=float(np.nextafter(lam, math.inf)))
            solve_class(nearby, SolutionClass(1, sign))
            assert ("integral" in work) == (sign == "+"), sign

    def test_memo_is_bounded(self, cubic_odd):
        for lam in (30.0, 60.0, 90.0):
            solve_class(Problem(p=2.0, nl=cubic_odd, lam=lam), SolutionClass(2, "+"))
        info = solver._roots.cache_info()
        assert info.currsize == info.maxsize == 1


class TestLevelSearch:
    """The root search runs in the level of the class's lead side, where only
    the other side of a class with arches of both signs inverts a level map."""

    @staticmethod
    def _count(monkeypatch) -> dict:
        """Counts scalar level maps and residual evaluations (one ``tops_at``
        each, with the search's float weights) once the store is warm."""
        calls = {"level_pos": 0, "residual": 0}
        level_pos, tops_at = timemap.level_pos, TimeMapCurves.tops_at

        def counted_level(nl, rho):
            calls["level_pos"] += 1
            return level_pos(nl, rho)

        def counted_tops_at(curves, z, n_pos, n_neg):
            calls["residual"] += isinstance(n_pos, float)  # the search's weights 2 n_pos, 2 n_neg
            return tops_at(curves, z, n_pos, n_neg)

        monkeypatch.setattr(timemap, "level_pos", counted_level)
        monkeypatch.setattr(TimeMapCurves, "tops_at", counted_tops_at)
        return calls

    @pytest.mark.parametrize(
        "family, p, lam, j, sign",
        [
            ("asym", 3.0, 50.0, 1, "+"),
            ("asym", 3.0, 50.0, 1, "-"),
            ("cubic_odd", 2.0, 400.0, 2, "+"),
            ("cubic_odd", 2.0, 400.0, 3, "-"),
            ("qgtp", 2.0, 300.0, 1, "+"),
            ("qgtp", 2.0, 300.0, 2, "-"),
        ],
    )
    def test_one_sided_search_inverts_no_level(self, request, monkeypatch, family, p, lam, j, sign):
        # j = 1, or any class of an odd f: every arch reads the lead side
        prob, sc = Problem(p=p, nl=request.getfixturevalue(family), lam=lam), SolutionClass(j, sign)
        assert solve_class(prob, sc)
        solver._roots.cache_clear()
        calls = self._count(monkeypatch)
        assert solve_class(prob, sc)
        assert calls["residual"] > 0
        assert calls["level_pos"] == 0

    def test_fold_path_inverts_no_level(self, qgtp, monkeypatch):
        # just above lambda*_1 the tangent root's level is the fold's own
        lam = (1 + 1e-6) * bifurcation_table(qgtp, 2.0, 1).star_plus[0]
        prob, sc = Problem(p=2.0, nl=qgtp, lam=lam), SolutionClass(1, "+")
        solve_class(prob, sc)
        solver._roots.cache_clear()
        calls = self._count(monkeypatch)
        assert len(solve_class(prob, sc)) == 2
        assert calls["level_pos"] == 0

    @pytest.mark.parametrize("j, sign", [(2, "+"), (3, "+"), (3, "-"), (4, "-")])
    def test_mixed_search_inverts_one_level_per_residual(self, asym, monkeypatch, j, sign):
        prob, sc = Problem(p=3.0, nl=asym, lam=300.0), SolutionClass(j, sign)
        assert solve_class(prob, sc)
        solver._roots.cache_clear()
        calls = self._count(monkeypatch)
        assert solve_class(prob, sc)
        assert calls["residual"] > 0
        assert calls["level_pos"] == calls["residual"]

    def test_an_equal_nonlinearity_reads_the_same_store(self, asym):
        # the store is keyed on equality, so the problem's f need not be the
        # store's object: the lead side's levels are the store's own
        twin = build_nonlinearity("power_asym", 2.0, {"b_plus": 2.0, "b_minus": 1.0, "r_exp": 4.0})
        assert twin == asym and twin is not asym
        first = enumerate_solutions(Problem(p=3.0, nl=asym, lam=300.0), 4)
        solver._roots.cache_clear()
        assert enumerate_solutions(Problem(p=3.0, nl=twin, lam=300.0), 4) == first

    @pytest.mark.parametrize("family, p", [
        ("cubic_odd", 2.0), ("asym", 3.0), ("quintic_q3", 3.0), ("qgtp", 2.0), ("quartic_q4", 4.0),
    ])
    def test_descriptors_hold_python_floats(self, request, family, p):
        # numpy scalars would leak into the JSON outputs as numpy booleans
        nl = request.getfixturevalue(family)
        for lam in (30.0, 300.0, 3000.0):
            for d in enumerate_solutions(Problem(p=p, nl=nl, lam=lam), 4):
                assert type(d.r) is float and type(d.residual) is float, d


class TestEnumerate:
    def test_chafee_infante_counts(self, cubic_odd):
        for n in (1, 2):
            lam = (n * n + n + 0.5) * np.pi**2
            prob = Problem(p=2.0, nl=cubic_odd, lam=lam)
            descs = enumerate_solutions(prob, n + 2)
            nontrivial = [d for d in descs if d.kind != "trivial"]
            assert len(nontrivial) == 2 * n
            assert descs[0].kind == "trivial"

    def test_only_trivial_below_every_threshold(self, cubic_odd, qgtp):
        prob = Problem(p=2.0, nl=cubic_odd, lam=0.5 * np.pi**2)
        assert [d.kind for d in enumerate_solutions(prob, 3)] == ["trivial"]
        tab = bifurcation_table(qgtp, 2.0, 1)
        lam = 0.9 * min(tab.star_plus[0], tab.star_minus[0])
        assert [d.kind for d in enumerate_solutions(Problem(p=2.0, nl=qgtp, lam=lam), 3)] == [
            "trivial"
        ]

    def test_q_below_p_all_classes_alive(self, cubic_odd):
        # q = 2 < p = 3: every class is populated at any lambda
        prob = Problem(p=3.0, nl=cubic_odd, lam=2.0)
        descs = enumerate_solutions(prob, 5)
        nontrivial = [d for d in descs if d.kind != "trivial"]
        assert len(nontrivial) >= 10
        populated = {(d.j, d.sign) for d in nontrivial}
        assert len(populated) == 10

    def test_residual_contract(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=11 * np.pi**2)
        for d in enumerate_solutions(prob, 4):
            if d.kind == "regular":
                assert abs(d.residual) < 1e-11

    def test_deterministic_ids(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=2 * np.pi**2)
        ids1 = [d.descriptor_id for d in enumerate_solutions(prob, 3)]
        solver._roots.cache_clear()  # search again rather than read the memo
        ids2 = [d.descriptor_id for d in enumerate_solutions(prob, 3)]
        assert ids1 == ids2

    def test_rejects_bad_jmax(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=1.0)
        with pytest.raises(ValueError):
            enumerate_solutions(prob, 0)


    @pytest.mark.parametrize("lam", [100.0, 1000.0])
    def test_non_integer_q(self, lam):
        nl = build_nonlinearity("power_asym", 2.5, {"b_plus": 1.0, "b_minus": 2.0, "r_exp": 4.0})
        descs = enumerate_solutions(Problem(p=4.0, nl=nl, lam=lam), j_max=6)
        regular = [d for d in descs if d.kind == "regular"]
        assert regular
        assert all(abs(d.residual) <= 1e-9 for d in regular)


class TestLockstep:
    """``enumerate_solutions`` searches every class's equation together, in
    rounds that integrate all pending residuals of a side in one pass."""

    @staticmethod
    def _floats(d):
        return (d.j, d.sign, d.kind, d.r, d.residual, d.degenerate, d.core_budget, d.core_count, d.core_side)

    @pytest.mark.parametrize("family, p, lams", [
        ("cubic_odd", 2.0, (30.0, 400.0, 3000.0)),
        ("asym", 3.0, (30.0, 300.0, 3000.0)),
        ("quintic_q3", 3.0, (30.0, 300.0, 3000.0)),
        ("qgtp", 2.0, (30.0, 300.0, 3000.0)),
        ("quartic_q4", 4.0, (300.0, 3000.0, 30000.0)),
    ])
    def test_enumerate_is_iter_solutions(self, request, family, p, lams):
        nl = request.getfixturevalue(family)
        for lam in lams:
            prob = Problem(p=p, nl=nl, lam=lam)
            together = enumerate_solutions(prob, 6)
            solver._roots.cache_clear()
            one_by_one = list(solver.iter_solutions(prob, 6))
            assert [self._floats(d) for d in together] == [self._floats(d) for d in one_by_one], lam
            assert together == one_by_one

    def test_enumerate_is_iter_solutions_on_the_fold_path(self, qgtp):
        # just above lambda*_1 the pairs of S_1 come from the fold search
        lam = (1 + 1e-6) * bifurcation_table(qgtp, 2.0, 1).star_plus[0]
        prob = Problem(p=2.0, nl=qgtp, lam=lam)
        together = enumerate_solutions(prob, 6)
        solver._roots.cache_clear()
        assert [self._floats(d) for d in together] == [self._floats(d) for d in solver.iter_solutions(prob, 6)]
        assert [(d.j, d.sign) for d in together if d.kind == "regular"][:4] == [(1, "+")] * 2 + [(1, "-")] * 2

    @pytest.mark.parametrize("family, p, lam, together, one_by_one", [
        ("asym", 3.0, 300.0, 14, 88),
        ("asym", 3.0, 3000.0, 17, 50),
        ("cubic_odd", 2.0, 400.0, 17, 56),
    ])
    def test_integrand_passes_per_enumeration(self, request, monkeypatch, family, p, lam, together, one_by_one):
        # a warm store, so the passes are the root searches' own; a search of
        # one class rarely has three residuals of a side pending at once, so
        # iter_solutions integrates one residual per pass
        prob = Problem(p=p, nl=request.getfixturevalue(family), lam=lam)
        enumerate_solutions(prob, 6)
        passes = []
        psi = Arch.psi

        def counted(arch, *args, **kwargs):
            passes.append(arch)
            return psi(arch, *args, **kwargs)

        monkeypatch.setattr(Arch, "psi", counted)
        solver._roots.cache_clear()
        enumerate_solutions(prob, 6)
        assert len(passes) == together
        passes.clear()
        solver._roots.cache_clear()
        list(solver.iter_solutions(prob, 6))
        assert len(passes) == one_by_one


class TestStructureConsistency:
    def test_counts_match_report(self, cubic_odd, qgtp):
        qgtp_asym = build_nonlinearity(
            "power_asym", 3.0, {"b_plus": 1.5, "b_minus": 1.0, "r_exp": 5.0}
        )
        quintic_q4 = build_nonlinearity(
            "power_asym", 4.0, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 6.0}
        )
        minimum = {"empty": 0, "single": 1, "pair": 2, "continuum": 1}
        for prob in (
            Problem(p=2.0, nl=cubic_odd, lam=6.5 * np.pi**2),
            Problem(p=2.0, nl=qgtp_asym, lam=300.0),
            Problem(p=3.0, nl=quintic_q4, lam=1000.0),  # above tilde_1 (about 296)
            *(Problem(p=2.0, nl=qgtp, lam=lam) for lam in (50.0, 200.0, 400.0)),
        ):
            rep = structure(prob, 4)
            descs = enumerate_solutions(prob, 4)
            for e in rep.entries:
                found = [d for d in descs if (d.j, d.sign) == (e.j, e.sign)]
                assert len(found) >= minimum[e.tag]

    def test_flat_core_classes_match_report(self, asym):
        tab = bifurcation_table(asym, 3.0, 4)
        lam = 1.2 * max(tab.tilde_plus[3], tab.tilde_minus[3])
        prob = Problem(p=3.0, nl=asym, lam=lam)
        rep = structure(prob, 4)
        descs = enumerate_solutions(prob, 4)
        for e in rep.entries:
            if e.flat_core:
                match = [
                    d for d in descs if (d.j, d.sign) == (e.j, e.sign) and d.kind == "flat_core"
                ]
                assert len(match) == 1
                assert match[0].continuum_dim == e.continuum_dim
                assert match[0].core_side == e.core_side


class TestTimeMapCurves:
    """The lambda-free (f, p) store behind every scan."""

    @pytest.mark.parametrize("family, p, lams", [
        ("asym", 3.0, (40.0, 300.0, 5000.0)),  # q < p, asymmetric, flat cores at the last two
        ("qgtp", 2.0, (60.0, 400.0, 1200.0)),  # q > p: dips and root pairs
    ])
    def test_results_do_not_depend_on_what_filled_the_store(self, request, family, p, lams):
        nl = request.getfixturevalue(family)
        other = build_nonlinearity("power_asym", nl.q, {"b_plus": 1.2, "b_minus": 0.9, "r_exp": nl.q + 2.0})
        lam1, lam2, lam3 = lams

        def at(lam, f=nl):
            return enumerate_solutions(Problem(p=p, nl=f, lam=lam), j_max=4)

        time_map_curves.cache_clear()
        fresh = at(lam2)
        assert any(d.kind == "regular" for d in fresh)
        time_map_curves.cache_clear()
        at(lam1), at(lam3)
        assert at(lam2) == fresh  # residual floats included
        time_map_curves.cache_clear()
        at(lam2, other)
        assert at(lam2) == fresh

    def test_theta_alpha_are_kappa_times_the_store(self, asym):
        prob = Problem(p=3.0, nl=asym, lam=700.0)
        curves, bounds = time_map_curves(asym, prob.p), slope_bounds(prob)

        def scan(nl, rho):  # batched I at the levels z(rho), as the store fills its scans
            return Arch(nl, prob.p, level_pos(nl, rho), False).integral(_SCAN_TOL)

        for sclass in (SolutionClass(1, "+"), SolutionClass(1, "-"), SolutionClass(2, "+")):
            grid = sclass.bound(bounds.r_pos, bounds.r_neg) * curves.fractions
            area = sclass.bound(*solver.areas(asym))
            th = prob.kappa * curves.integrals(area, negative=False) if sclass.n_pos else None
            al = prob.kappa * curves.integrals(area, negative=True) if sclass.n_neg else None
            # the same scan from the per-lambda areas (p-1) r^p / (lambda p);
            # they differ from the store's A g^p by rounding, which the level
            # map amplifies to ~sqrt(1e-16) next to the bound, where m(z) -> 0
            rho = (prob.p - 1.0) * grid**prob.p / (prob.lam * prob.p)
            lower = curves.fractions <= 0.5
            for got, nl in ((th, asym), (al, reflected(asym))):
                if got is not None:  # only the side the class uses: its areas stop at A of that side
                    ref = prob.kappa * scan(nl, rho)
                    np.testing.assert_allclose(got[lower], ref[lower], rtol=1e-12)
                    np.testing.assert_allclose(got, ref, rtol=1e-6)

    def test_entries_are_not_shared(self, asym):
        # p and either side of f are part of the key; lambda is not
        time_map_curves.cache_clear()
        mirror = build_nonlinearity("power_asym", 2.0, {"b_plus": 2.0, "b_minus": 1.5, "r_exp": 4.0})
        assert mirror.c_plus == asym.c_plus and mirror.c_minus != asym.c_minus
        stores = [time_map_curves(f, p) for f in (asym, mirror) for p in (2.5, 3.0)]
        assert len({id(s) for s in stores}) == 4
        assert time_map_curves.cache_info().currsize == 4
        for lam in (50.0, 900.0):
            enumerate_solutions(Problem(p=3.0, nl=asym, lam=lam), j_max=2)
        assert time_map_curves.cache_info().currsize == 4
        area = min(*solver.areas(asym))
        J_asym = stores[1].integrals(area, negative=True)
        J_mirror = stores[3].integrals(area, negative=True)
        assert not np.array_equal(J_asym, J_mirror)

    def test_threads_racing_to_fill_agree(self, asym):
        import sys
        import threading

        lams = [60.0, 300.0, 2500.0, 900.0]
        time_map_curves.cache_clear()
        serial = [enumerate_solutions(Problem(p=3.0, nl=asym, lam=lam), j_max=3) for lam in lams]
        time_map_curves.cache_clear()
        results = [None] * len(lams)

        def work(i):
            results[i] = enumerate_solutions(Problem(p=3.0, nl=asym, lam=lams[i]), j_max=3)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(lams))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial

    def test_store_is_bounded(self, cubic_odd):
        time_map_curves.cache_clear()
        for k in range(3 * _CURVES_CAP):
            time_map_curves(cubic_odd, 1.5 + 0.01 * k)
        info = time_map_curves.cache_info()
        assert info.currsize == info.maxsize == _CURVES_CAP

    def test_sweep_is_enumerate_per_lambda(self, asym):
        lams = [2000.0, 45.0, 310.0]
        got = sweep(asym, 3.0, lams, 3)
        assert got == [enumerate_solutions(Problem(p=3.0, nl=asym, lam=lam), 3) for lam in lams]
