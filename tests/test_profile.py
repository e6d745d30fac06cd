from itertools import groupby

import numpy as np
import pytest

from plap.bifurcation import bifurcation_table
from plap.cli import ENERGY_TOL, ORACLE_TOL
from plap.errors import Blowup, BudgetMismatch, OutOfRange, ShapeError
from plap.nonlinearity import build_nonlinearity, eval_F
from plap import profile
from plap.profile import (
    classify_regularity,
    energy_residual,
    reconstruct,
    shoot,
    shoot_compare,
)
from plap.solver import TRIVIAL, SolutionClass, enumerate_solutions, solve_class
from plap.timemap import Arch, Problem, flat_core_half_widths, s_of_r, slope_bounds, theta, z_of_r
from dataclasses import replace


@pytest.fixture(scope="module")
def ci_prob(cubic_odd):
    return Problem(p=2.0, nl=cubic_odd, lam=2 * np.pi**2)


@pytest.fixture(scope="module")
def ci_first(ci_prob):
    return solve_class(ci_prob, SolutionClass(1, "+"))[0]


@pytest.fixture(scope="module")
def flat_prob(quintic_q3):
    tab = bifurcation_table(quintic_q3, 3.0, 1)
    return Problem(p=3.0, nl=quintic_q3, lam=1.5 * tab.tilde_plus[0])


@pytest.fixture(scope="module")
def flat_desc(flat_prob):
    return solve_class(flat_prob, SolutionClass(1, "+"))[0]


class TestReconstructRegular:
    def test_boundary_and_symmetry(self, ci_prob, ci_first):
        prof = reconstruct(ci_prob, ci_first, M=2048)
        assert prof.phi[0] == 0.0 and abs(prof.phi[-1]) < 1e-10
        assert abs(prof.x[-1] - 1.0) < 1e-9
        assert abs(prof.dphi[0] - ci_first.r) < 1e-9
        assert abs(prof.dphi[-1] + ci_first.r) < 1e-9
        assert prof.phi.max() == pytest.approx(z_of_r(ci_prob, ci_first.r), rel=1e-12)
        assert prof.phi.max() < 1.0
        # reflection symmetry about the arch midpoint, on the mirrored grid
        m = (prof.x.size + 1) // 2
        assert np.max(np.abs(prof.phi[:m] - prof.phi[::-1][:m])) < 1e-10

    def test_second_class_node(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=6.5 * np.pi**2)
        d2 = solve_class(prob, SolutionClass(2, "+"))[0]
        prof = reconstruct(prob, d2, M=2048)
        th = theta(prob, d2.r)
        assert len(prof.nodes) == 1
        assert prof.nodes[0] == pytest.approx(2 * th, abs=1e-10)
        i_node = int(np.argmin(np.abs(prof.x - prof.nodes[0])))
        assert prof.dphi[i_node] == pytest.approx(-d2.r, abs=1e-9)

    def test_nodal_count_and_alternation(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=20.5 * np.pi**2)
        for j, sign in ((3, "+"), (4, "-")):
            d = solve_class(prob, SolutionClass(j, sign))[0]
            prof = reconstruct(prob, d, M=2048)
            assert len(prof.nodes) == j - 1
            slopes = [prof.dphi[int(np.argmin(np.abs(prof.x - xn)))] for xn in prof.nodes]
            signs = np.sign(slopes)
            assert np.all(signs[1:] * signs[:-1] < 0)
            first = 1.0 if sign == "+" else -1.0
            assert np.sign(prof.dphi[0]) == first
            assert np.sign(prof.dphi[-1]) == first * (-1.0) ** j

    def test_trivial(self, ci_prob):
        prof = reconstruct(ci_prob, TRIVIAL, M=64)
        assert np.all(prof.phi == 0.0) and np.all(prof.dphi == 0.0)

    def test_mismatched_slope_is_rejected(self, ci_prob, ci_first):
        fake = replace(ci_first, r=0.9 * ci_first.r)
        with pytest.raises(ShapeError):
            reconstruct(ci_prob, fake, M=256)


class TestReconstructFlatCore:
    def test_plateau_matches_half_width(self, flat_prob, flat_desc):
        prof = reconstruct(flat_prob, flat_desc, M=2048)
        x_lam, _ = flat_core_half_widths(flat_prob)
        assert len(prof.flat_intervals) == 1
        lo, hi = prof.flat_intervals[0]
        assert lo == pytest.approx(x_lam, abs=1e-9)
        assert hi == pytest.approx(1 - x_lam, abs=1e-9)
        on_plateau = (prof.x >= lo + 1e-12) & (prof.x <= hi - 1e-12)
        assert np.all(prof.phi[on_plateau] == flat_prob.nl.z_plus)
        assert np.all(prof.dphi[on_plateau] == 0.0)

    def test_custom_core_lengths(self, asym):
        tab = bifurcation_table(asym, 3.0, 2)
        prob = Problem(p=3.0, nl=asym, lam=1.3 * tab.tilde_plus[1])
        d = [x for x in solve_class(prob, SolutionClass(2, "+")) if x.kind == "flat_core"][0]
        assert d.core_count == 1  # A+ < A-: only the positive arch saturates
        prof = reconstruct(prob, d, M=1024, core_lengths=[d.core_budget])
        assert len(prof.flat_intervals) == 1
        assert prof.flat_intervals[0][1] - prof.flat_intervals[0][0] == pytest.approx(
            d.core_budget, abs=1e-11
        )

    def test_alternating_cores(self, quintic_q3):
        tab = bifurcation_table(quintic_q3, 3.0, 2)
        prob = Problem(p=3.0, nl=quintic_q3, lam=1.4 * tab.tilde_plus[1])
        d = [x for x in solve_class(prob, SolutionClass(2, "+")) if x.kind == "flat_core"][0]
        assert d.core_side == "alternating" and d.core_count == 2
        budget = d.core_budget
        prof = reconstruct(prob, d, M=1024, core_lengths=[0.25 * budget, 0.75 * budget])
        assert len(prof.flat_intervals) == 2
        widths = [hi - lo for lo, hi in prof.flat_intervals]
        assert widths[0] == pytest.approx(0.25 * budget, abs=1e-11)
        assert widths[1] == pytest.approx(0.75 * budget, abs=1e-11)
        # first plateau on the positive arch, second on the negative one
        i0 = int(np.argmin(np.abs(prof.x - 0.5 * sum(prof.flat_intervals[0]))))
        i1 = int(np.argmin(np.abs(prof.x - 0.5 * sum(prof.flat_intervals[1]))))
        assert prof.phi[i0] > 0 > prof.phi[i1]

    def test_negative_side_cores(self):
        # A+ > A-: plateaus at z- inside the negative arches, positive arches
        # turn at the interior level of the smaller area A-
        from plap.nonlinearity import areas, build_nonlinearity
        from plap.timemap import level_pos
        from plap.profile import shoot_compare

        nl = build_nonlinearity("power_asym", 2.0, {"b_plus": 1.0, "b_minus": 2.0, "r_exp": 4.0})
        tab = bifurcation_table(nl, 3.0, 2)
        prob = Problem(p=3.0, nl=nl, lam=1.25 * max(tab.tilde_plus[1], tab.tilde_minus[1]))
        d = [x for x in solve_class(prob, SolutionClass(2, "+")) if x.kind == "flat_core"][0]
        assert d.core_side == "negative" and d.core_count == 1
        prof = reconstruct(prob, d, M=1024)
        z_hat = level_pos(nl, min(areas(nl)))
        mid = 0.5 * sum(prof.flat_intervals[0])
        i_mid = int(np.argmin(np.abs(prof.x - mid)))
        assert prof.phi[i_mid] == nl.z_minus
        assert prof.phi.max() == pytest.approx(z_hat, rel=1e-12)
        assert energy_residual(prob, prof) < 1e-8
        assert shoot_compare(prob, prof) < 1e-6

    def test_budget_mismatch(self, flat_prob, flat_desc):
        with pytest.raises(BudgetMismatch):
            reconstruct(flat_prob, flat_desc, core_lengths=[flat_desc.core_budget * 0.5])
        with pytest.raises(BudgetMismatch):
            reconstruct(flat_prob, flat_desc, core_lengths=[1.0, 2.0])
        with pytest.raises(BudgetMismatch):
            reconstruct(flat_prob, flat_desc, core_lengths=[-flat_desc.core_budget])

    @pytest.mark.parametrize("length", [float("nan"), float("inf")])
    def test_non_finite_core_length(self, flat_prob, flat_desc, length):
        # every comparison with NaN is false, so a NaN length must not pass
        # the sign and budget checks by default
        with pytest.raises(BudgetMismatch):
            reconstruct(flat_prob, flat_desc, core_lengths=[length])


class TestEnergyResidual:
    def test_reconstructed_profiles_conserve(self, ci_prob, ci_first):
        prof = reconstruct(ci_prob, ci_first, M=2048)
        assert energy_residual(ci_prob, prof) < 1e-8

    def test_flat_core_conserves(self, flat_prob, flat_desc):
        prof = reconstruct(flat_prob, flat_desc, M=2048)
        assert energy_residual(flat_prob, prof) < 1e-8

    def test_trivial_zero(self, ci_prob):
        assert energy_residual(ci_prob, reconstruct(ci_prob, TRIVIAL, M=64)) == 0.0

    def test_detects_perturbation(self, ci_prob, ci_first):
        prof = reconstruct(ci_prob, ci_first, M=2048)
        rng = np.random.default_rng(7)
        prof.phi = prof.phi + 1e-3 * rng.standard_normal(prof.phi.size)
        assert energy_residual(ci_prob, prof) > 1e-4


class TestShoot:
    def test_returns_to_zero_at_root(self, ci_prob, ci_first):
        sh = shoot(ci_prob, ci_first.r, "+", 100_000)
        assert abs(sh.phi[-1]) < 1e-6

    def test_oracle_matches_reconstruction(self, ci_prob, ci_first):
        prof = reconstruct(ci_prob, ci_first, M=2048)
        assert shoot_compare(ci_prob, prof, n_steps=100_000) < 1e-6

    def test_oracle_matches_multi_arch(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=12.5 * np.pi**2)
        for sign in "+-":
            d = solve_class(prob, SolutionClass(3, sign))[0]
            prof = reconstruct(prob, d, M=2048)
            assert shoot_compare(prob, prof, n_steps=100_000) < 1e-6

    @pytest.mark.parametrize("factor", [1.2, 3.0, 5.0, 17.0])
    def test_oracle_stops_at_first_flat_point(self, quintic_q3, factor):
        # past the degenerate equilibrium the shot trajectory can escape and
        # blow up, so the oracle must stop where the comparison does
        tab = bifurcation_table(quintic_q3, 3.0, 1)
        prob = Problem(p=3.0, nl=quintic_q3, lam=factor * tab.tilde_plus[0])
        d = solve_class(prob, SolutionClass(1, "+"))[0]
        assert d.kind == "flat_core"
        assert shoot_compare(prob, reconstruct(prob, d)) < ORACLE_TOL

    def test_end_point_run_is_prefix(self, ci_prob, ci_first):
        full = shoot(ci_prob, ci_first.r, "+", 5_000)
        n = int(np.searchsorted(full.x, 0.3)) + 1
        part = shoot(ci_prob, ci_first.r, "+", 5_000, at=full.x[:n])
        assert part.x[-1] >= 0.3 > part.x[-2]
        assert np.array_equal(part.x, full.x[:n]) and np.array_equal(part.phi, full.phi[:n])

    def test_supercritical_slope_blows_up(self, ci_prob):
        b = slope_bounds(ci_prob)
        with pytest.raises(Blowup):
            shoot(ci_prob, 1.5 * b.r_pos, "+", 20_000)

    def test_negative_mirror_for_odd(self, ci_prob, ci_first):
        up = shoot(ci_prob, ci_first.r, "+", 5_000)
        down = shoot(ci_prob, ci_first.r, "-", 5_000)
        assert np.max(np.abs(up.phi + down.phi)) < 1e-12

    def test_rejects_bad_slope(self, ci_prob):
        with pytest.raises(ValueError):
            shoot(ci_prob, -1.0, "+", 100)

    def test_step_budget_exhausted_raises(self, ci_prob, ci_first):
        with pytest.raises(Blowup, match="step budget"):
            shoot(ci_prob, ci_first.r, "+", 20)

    def test_stepper_on_harmonic_oscillator(self):
        # phi' = w, w' = -phi from (0, 1) is (sin x, cos x).  An eighth-order
        # pair meets the local bound in a few steps and its dense output keeps
        # that accuracy between them; a mistyped coefficient of the tableau
        # costs either the accuracy or many more steps
        steps = profile._dopri(lambda w: w, lambda phi: -phi, 1.0, 1.0, 1000, 1.0, 10.0)
        x = np.linspace(0.0, 1.0, 1001)
        phi, w = profile._dense(steps, x)
        assert len(steps) <= 30
        assert np.max(np.abs(phi - np.sin(x))) <= 1e-13
        assert np.max(np.abs(w - np.cos(x))) <= 1e-13

    def test_step_count(self, ci_prob, ci_first, monkeypatch):
        dopri, accepted = profile._dopri, []

        def counted(*args):
            steps = dopri(*args)
            accepted.append(len(steps))
            return steps

        monkeypatch.setattr(profile, "_dopri", counted)
        assert shoot_compare(ci_prob, reconstruct(ci_prob, ci_first, M=2048)) < ORACLE_TOL
        assert len(accepted) == 1 and accepted[0] <= 150

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_first_integral_conserved_at_roots(self, cubic_odd, p):
        # the trajectories of the regular S1+ and S2+ roots, which return to
        # phi = 0 at x = 1, keep the first integral to 1e-10 relative
        prob = Problem(p=p, nl=cubic_odd, lam=60.0)
        descs = [d for j in (1, 2) for d in solve_class(prob, SolutionClass(j, "+"))]
        assert descs and all(d.kind == "regular" for d in descs)
        for d in descs:
            sh = shoot(prob, d.r, "+", 100_000)
            energy = (p - 1.0) / p * np.abs(sh.dphi) ** p + prob.lam * (
                sh.phi**2 / 2.0 - eval_F(cubic_odd, sh.phi)
            )
            assert np.max(np.abs(energy - energy[0])) <= 1e-10 * energy[0]

    @pytest.mark.parametrize(
        "p, q, params",
        [
            (1.5, 2.5, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 4.5}),
            (1.5, 2.0, {"b_plus": 2.0, "b_minus": 1.0, "r_exp": 4.0}),
            (2.0, 2.0, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 4.0}),
            (2.0, 2.0, {"b_plus": 2.0, "b_minus": 1.0, "r_exp": 4.0}),
            (3.0, 3.0, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 6.0}),
            (3.0, 2.0, {"b_plus": 2.0, "b_minus": 1.0, "r_exp": 4.0}),
        ],
        ids=["p1.5-odd", "p1.5-asym", "p2-odd", "p2-asym", "p3-odd", "p3-asym"],
    )
    @pytest.mark.parametrize("sign", "+-")
    def test_first_integral_conserved(self, p, q, params, sign):
        # (p-1)/p |w|^{p/(p-1)} + lam (|phi|^q/q - F(phi)) is constant along
        # every trajectory, and |w|^{p/(p-1)} = |phi'|^p; below the slope
        # bound the trajectory stays bounded and never reaches a flat point
        nl = build_nonlinearity("power_asym", q, params)
        prob = Problem(p=p, nl=nl, lam=50.0)
        sh = shoot(prob, 0.9 * slope_bounds(prob).r_star, sign, 100_000)
        energy = (p - 1.0) / p * np.abs(sh.dphi) ** p + prob.lam * (
            np.abs(sh.phi) ** q / q - eval_F(nl, sh.phi)
        )
        assert np.max(np.abs(energy - energy[0])) <= 1e-9 * energy[0]


class TestRegularity:
    def test_p2_is_c2(self, ci_prob, ci_first):
        prof = reconstruct(ci_prob, ci_first, M=512)
        rep = classify_regularity(ci_prob, prof)
        assert rep.smoothness_class == "C2"
        assert len(rep.c_points) == 1
        assert not rep.c_points[0]["in_Z"]

    def test_arch_top_limit_p3(self, cubic_odd):
        # q = 2 < p = 3: the measured ratio converges to |h(z(r))|^(1/(p-1)),
        # the constant produced by the first integral (|phi_x|^{p-1})' = -h
        tab = bifurcation_table(cubic_odd, 3.0, 1)
        prob = Problem(p=3.0, nl=cubic_odd, lam=0.5 * tab.tilde_plus[0])
        d = solve_class(prob, SolutionClass(1, "+"))[0]
        prof = reconstruct(prob, d, M=512)
        rep = classify_regularity(prob, prof)
        finest = [c for c in rep.limit_checks if c["delta"] == min(x["delta"] for x in rep.limit_checks)]
        assert finest
        for chk in finest:
            assert chk["ratio"] == pytest.approx(1.0, abs=0.02)

    def test_flat_core_plateau_is_c2(self, flat_prob, flat_desc):
        prof = reconstruct(flat_prob, flat_desc, M=1024)
        rep = classify_regularity(flat_prob, prof)
        edges = [c for c in rep.c_points if c["kind"] == "plateau_edge"]
        assert len(edges) == 2
        for c in edges:
            assert c["in_Z"] and c["zero_order"] == 1
        # 2 < p = 3 < 2(n+1) = 4: second derivative vanishes at the edges
        assert rep.smoothness_class == "C1,1/(p-1); C2 off C\\Z"
        finest_delta = min(s["delta"] for s in rep.second_derivative_checks)
        finest = [s for s in rep.second_derivative_checks if s["delta"] == finest_delta]
        assert finest
        for s in finest:
            assert s["tends_to_zero"]
            assert s["second_derivative"] < 1e-2 * flat_prob.lam

    def test_second_derivative_scales_linearly(self, flat_prob, flat_desc):
        # p = 3, n = 1: psi_xx ~ |x - chi| near the plateau edge
        prof = reconstruct(flat_prob, flat_desc, M=512)
        rep = classify_regularity(flat_prob, prof)
        by_delta = {}
        for s in rep.second_derivative_checks:
            by_delta.setdefault(s["delta"], []).append(s["second_derivative"])
        coarse, fine = max(by_delta), min(by_delta)
        ratio = max(by_delta[coarse]) / max(by_delta[fine])
        assert ratio == pytest.approx(coarse / fine, rel=0.05)

    def test_plateau_edge_below_float_resolution_is_typed(self):
        # at p = 2.02, beta = p/(p-2) = 101: the edge's offset w^beta underflows
        nl = build_nonlinearity("power_asym", 2.0, {"b_plus": 1.0, "b_minus": 1.3, "r_exp": 3.5})
        prob = Problem(p=2.02, nl=nl, lam=1e5)
        d = [x for x in solve_class(prob, SolutionClass(1, "+")) if x.kind == "flat_core"][0]
        prof = reconstruct(prob, d, M=512)
        with pytest.raises(OutOfRange, match="below the float resolution"):
            classify_regularity(prob, prof)

    @pytest.mark.parametrize("kind", ["regular", "flat_core"])
    def test_repeated_turning_points(self, cubic_odd, asym, monkeypatch, kind):
        # regular S3+ turns at +z, -z, +z; asym's flat-core S3+ has two
        # plateaus at z+ (four edges) around one arch top at s_hat
        nl = cubic_odd if kind == "regular" else asym
        tab = bifurcation_table(nl, 3.0, 3)
        prob = Problem(p=3.0, nl=nl, lam=(0.5 if kind == "regular" else 1.3) * tab.tilde_plus[2])
        d = [x for x in solve_class(prob, SolutionClass(3, "+")) if x.kind == kind][0]
        prof = reconstruct(prob, d, M=1024)
        calls = []
        distance = Arch.distance

        def counted(arch, w):
            calls.append((id(arch.nl), arch.top, arch.double, w))
            return distance(arch, w)

        monkeypatch.setattr(Arch, "distance", counted)
        rep = classify_regularity(prob, prof)
        per_point = {"arch_top": (rep.limit_checks, 3), "plateau_edge": (rep.second_derivative_checks, 2)}
        blocks: dict = {}
        for kind_, (checks, n) in per_point.items():
            tps = [tp for tp in prof.turning_points if tp["kind"] == kind_]
            # n entries per turning point, in turning-point order
            assert [c["x"] for c in checks] == [tp["x"] for tp in tps for _ in range(n)]
            for i, tp in enumerate(tps):
                block = [{k: v for k, v in c.items() if k != "x"} for c in checks[n * i : n * (i + 1)]]
                # turning points of one (level, double) differ only in x
                assert blocks.setdefault((tp["phi"], tp["double"]), block) == block
        assert len(blocks) < len(prof.turning_points)
        # one forward distance per distinct (side, level, double, w)
        assert len(calls) == len(set(calls)) == sum(len(b) for b in blocks.values())


# seed-1 census inputs 10, 15, 26 and 83 of scripts/census.py, as
# (p, q, r_exp, b_plus, b_minus, lam): flat cores at p = 2.36, where a
# plateau edge's check point lies within an ulp of z+, and arch tops at
# levels 2e-13 to 1e-5, where |h| is tiny but not 0
_CENSUS_INPUTS = [
    (2.361788756403411, 2.361788756403411, 3.8758851514918775, 0.9627941403915965, 1.772452361693841, 698.9275363798316),
    (2.838998201466227, 2.7423194525850594, 4.09983957211644, 1.7200272607444596, 1.121636778258658, 10.110072032316385),
    (3.8360787667652625, 4.194583176939274, 5.976417200434312, 0.6955866926366119, 1.3410759815430404, 3561.0656722127164),
    (3.372249433384945, 3.4419991670522263, 6.197446804646219, 1.6974460487218948, 1.1167099014737687, 1135.265118290459),
]


@pytest.mark.parametrize("case", _CENSUS_INPUTS, ids=["input10", "input15", "input26", "input83"])
def test_regularity_on_census_inputs(case):
    p, q, r_exp, b_plus, b_minus, lam = case
    nl = build_nonlinearity("power_asym", q, {"r_exp": r_exp, "b_plus": b_plus, "b_minus": b_minus})
    prob = Problem(p=p, nl=nl, lam=lam)
    descs = [d for d in enumerate_solutions(prob, j_max=3) if d.kind != "trivial"]
    assert descs
    for d in descs:
        prof = reconstruct(prob, d, M=512)
        rep = classify_regularity(prob, prof)
        # Z is the plateau edges, zeros of order 1; arch tops are never in it
        for c in rep.c_points:
            edge = c["kind"] == "plateau_edge"
            assert c["in_Z"] == edge and c["zero_order"] == (1 if edge else None), (d.descriptor_id, c)
        for tp in prof.turning_points:
            if tp["kind"] == "arch_top":
                checks = [c for c in rep.limit_checks if c["x"] == tp["x"]]
                assert checks, d.descriptor_id
                finest = min(checks, key=lambda c: c["delta"])
                assert finest["ratio"] == pytest.approx(1.0, abs=0.02), d.descriptor_id
        if rep.second_derivative_checks and 2.0 < p < 4.0:
            finest_delta = min(s["delta"] for s in rep.second_derivative_checks)
            for s in rep.second_derivative_checks:
                if s["delta"] == finest_delta:
                    assert s["second_derivative"] < 1e-2 * lam, d.descriptor_id


def test_q_below_two_profiles_cleanly():
    # q < 2: m(s) = |s|^(q-2) s - f(s) is 0 * inf at s = 0, so no profile
    # step may evaluate m on its grid (the suite turns RuntimeWarnings into
    # errors)
    nl = build_nonlinearity("power_asym", 1.5, {"b_plus": 1.0, "b_minus": 1.3, "r_exp": 2.5})
    prob = Problem(p=1.6, nl=nl, lam=200.0)
    descs = [d for d in enumerate_solutions(prob, j_max=3) if d.kind == "regular"]
    assert descs
    for d in descs:
        prof = reconstruct(prob, d, M=512)
        assert energy_residual(prob, prof) < ENERGY_TOL, d.descriptor_id
        assert shoot_compare(prob, prof) < ORACLE_TOL, d.descriptor_id
        assert classify_regularity(prob, prof).smoothness_class == "C2"


class TestOracleSweep:
    def test_all_chafee_infante_descriptors(self, cubic_odd):
        prob = Problem(p=2.0, nl=cubic_odd, lam=6.5 * np.pi**2)
        descs = [d for d in enumerate_solutions(prob, 3) if d.kind == "regular"]
        assert len(descs) == 4
        for d in descs:
            prof = reconstruct(prob, d, M=2048)
            assert energy_residual(prob, prof) < 1e-8
            assert shoot_compare(prob, prof, n_steps=100_000) < 1e-6

    @pytest.mark.parametrize(
        "lam, j, sign, kind",
        [
            (60.0, 1, "+", "regular"),
            (60.0, 1, "-", "regular"),
            (60.0, 2, "+", "regular"),
            (60.0, 2, "-", "regular"),
            (400.0, 1, "+", "flat_core"),
            (400.0, 1, "-", "flat_core"),
        ],
    )
    def test_polynomial_f(self, lam, j, sign, kind):
        # f = s^2 - 0.3 s^3 with q = 2 and p = 3: asymmetric (z+ = 1.27,
        # z- = -0.89), and the oracle's Horner loop runs over every coefficient
        poly = build_nonlinearity("polynomial", 2.0, {"coeffs": [0.0, 0.0, 1.0, -0.3]})
        prob = Problem(p=3.0, nl=poly, lam=lam)
        sclass = SolutionClass(j, sign)
        (d,) = [d for d in solve_class(prob, sclass) if d.kind == kind]
        prof = reconstruct(prob, d)
        assert energy_residual(prob, prof) < ENERGY_TOL
        assert shoot_compare(prob, prof) < ORACLE_TOL
        # the arches alternate from the class's sign, at z(r)/S(r) or, on a
        # plateau (both edges at one level), at z+/z-
        arch_levels = [level for level, _ in groupby(tp["phi"] for tp in prof.turning_points)]
        assert [level > 0.0 for level in arch_levels] == list(sclass.arches)
        if kind == "regular":
            tops = {pos: (z_of_r if pos else s_of_r)(prob, d.r) for pos in sclass.arches}
        else:
            tops = {True: poly.z_plus, False: poly.z_minus}
            assert len(prof.flat_intervals) == d.core_count == 1
        assert arch_levels == [tops[positive] for positive in sclass.arches]
