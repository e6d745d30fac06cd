"""Acceptance gate: nine verification criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  All nine criteria are expected to pass.  Criterion 8a checks
the arch-top derivative limit against the constant |h(psi(chi))|^(1/(p-1)):
near an arch top chi the first integral (|psi_x|^{p-2} psi_x)_x = -h(psi)
gives |psi_x|^{p-1} ~ |h| |x-chi|.  The shooting oracle confirms that limit
independently of the arch inversion, and the check also shows that the
constant ((1/(p-1))|h|)^(1/(p-1)) is off by the factor (p-1)^(1/(p-1)).
"""

import json
import time

import numpy as np
import pytest

from plap.bifurcation import bifurcation_table, eigenvalue_base, structure
from plap.cli import main
from plap.nonlinearity import areas, eval_m
from plap.profile import classify_regularity, energy_residual, reconstruct, shoot
from plap.solver import SolutionClass, enumerate_solutions, solve_class
from plap.timemap import (
    Problem,
    flat_core_half_widths,
    integral_I,
    integral_J,
    slope_bounds,
    theta,
    alpha,
    time_map_curves,
)

from oracles import brute_force_I, brute_force_J, takeuchi_yamada_tilde1


def report(num, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def write_config(tmp_path, lam, p=2.0, q=2.0, nl=None, name="cfg.json"):
    cfg = {
        "p": p,
        "q": q,
        "lambda": lam,
        "nonlinearity": nl
        or {"kind": "power_asym", "b_plus": 1.0, "b_minus": 1.0, "r_exp": 4.0},
    }
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_criterion_1_eigenvalue_base():
    t0 = time.monotonic()
    v2 = eigenvalue_base(2.0)
    v3 = eigenvalue_base(3.0)
    elapsed = time.monotonic() - t0
    ref3 = 2.0 * (2.0 * (np.pi / 3.0) / np.sin(np.pi / 3.0)) ** 3
    ok = (
        abs(v2 - np.pi**2) < 1e-8
        and abs(v3 - ref3) / ref3 < 1e-6
        and elapsed < 1.0
    )
    report(1, ok, f"lam1(2)={v2:.12f} (pi^2), lam1(3)={v3:.9f} vs {ref3:.9f}, {elapsed:.2f}s")
    assert abs(v2 - np.pi**2) < 1e-8
    assert abs(v3 - ref3) / ref3 < 1e-6
    assert elapsed < 1.0


def test_criterion_2_chafee_infante_structure(cubic_odd, tmp_path):
    t0 = time.monotonic()
    counts_ok = True
    verify_ok = True
    for n in (1, 2, 3, 4):
        lam = (n * n + n + 0.5) * np.pi**2
        prob = Problem(p=2.0, nl=cubic_odd, lam=lam)
        descs = enumerate_solutions(prob, 6)
        nontrivial = [d for d in descs if d.kind != "trivial"]
        per_sign = {s: len([d for d in nontrivial if d.sign == s]) for s in "+-"}
        counts_ok &= len(nontrivial) == 2 * n and per_sign["+"] == n and per_sign["-"] == n
        cfg = write_config(tmp_path, lam, name=f"ci{n}.json")
        for d in nontrivial:
            code = main(["verify", "--config", cfg, "--id", d.descriptor_id, "--jmax", "6"])
            verify_ok &= code == 0
    elapsed = time.monotonic() - t0
    ok = counts_ok and verify_ok and elapsed < 30.0
    report(2, ok, f"counts {'ok' if counts_ok else 'BAD'}, verify {'ok' if verify_ok else 'BAD'}, {elapsed:.1f}s")
    assert counts_ok
    assert verify_ok
    assert elapsed < 30.0


def test_criterion_3_takeuchi_yamada(quartic_q4):
    t0 = time.monotonic()
    tab = bifurcation_table(quartic_q4, 4.0, 1)
    mine = tab.tilde_plus[0]
    ref = takeuchi_yamada_tilde1(4.0, 4.0, 6.0)
    elapsed = time.monotonic() - t0
    rel = abs(mine - ref) / ref
    ok = rel < 1e-6 and elapsed < 5.0
    report(3, ok, f"lam~1 = {mine:.10f} vs quadratured {ref:.10f} (rel {rel:.2e}), {elapsed:.1f}s")
    assert rel < 1e-6
    assert elapsed < 5.0


def test_criterion_4_flat_core_threshold(quintic_q3):
    p = 3.0
    tab = bifurcation_table(quintic_q3, p, 1)
    lam_formula = tab.tilde_plus[0]
    lo, hi = 0.5 * lam_formula, 2.0 * lam_formula
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        x, _ = flat_core_half_widths(Problem(p=p, nl=quintic_q3, lam=mid))
        lo, hi = (mid, hi) if 2.0 * x > 1.0 else (lo, mid)
    lam_bisect = 0.5 * (lo + hi)
    rel = abs(lam_bisect - lam_formula) / lam_formula

    prob = Problem(p=p, nl=quintic_q3, lam=1.5 * lam_formula)
    descs = solve_class(prob, SolutionClass(1, "+"))
    flat = [d for d in descs if d.kind == "flat_core"]
    x_lam, _ = flat_core_half_widths(prob)
    prof = reconstruct(prob, flat[0], M=2048) if flat else None
    width_err = (
        abs((prof.flat_intervals[0][1] - prof.flat_intervals[0][0]) - (1.0 - 2.0 * x_lam))
        if flat
        else np.inf
    )
    energy = energy_residual(prob, prof) if flat else np.inf
    ok = rel < 1e-9 and bool(flat) and width_err < 1e-9 and energy < 1e-8
    report(
        4,
        ok,
        f"2x(lam)=1 at {lam_bisect:.12g} vs formula {lam_formula:.12g} (rel {rel:.1e}); "
        f"plateau width err {width_err:.1e}, energy {energy:.1e}",
    )
    assert rel < 1e-9
    assert flat
    assert width_err < 1e-9
    assert energy < 1e-8


def test_criterion_5_asymmetry(asym):
    p = 3.0
    a_plus, a_minus = areas(asym)
    tab = bifurcation_table(asym, p, 4)
    split = abs(tab.tilde_plus[0] - tab.tilde_minus[0]) / tab.tilde_plus[0]

    lam = 1.2 * max(tab.tilde_plus[3], tab.tilde_minus[3])
    prob = Problem(p=p, nl=asym, lam=lam)
    sides_ok = True
    for j in (2, 4):
        for sign in "+-":
            flat = [
                d
                for d in solve_class(prob, SolutionClass(j, sign))
                if d.kind == "flat_core"
            ]
            sides_ok &= len(flat) == 1 and flat[0].core_side == "positive"

    rep = structure(prob, 4)
    expected = {
        (1, "+"): 0,
        (1, "-"): 0,
        (2, "+"): 0,
        (2, "-"): 0,
        (3, "+"): 1,
        (3, "-"): 0,
        (4, "+"): 1,
        (4, "-"): 1,
    }
    dims_ok = all(rep.entry(j, s).continuum_dim == d for (j, s), d in expected.items())
    ok = a_plus < a_minus and split > 1e-6 and sides_ok and dims_ok
    report(
        5,
        ok,
        f"A+={a_plus:.6f} < A-={a_minus:.6f}; lam1+/lam1- split {split:.3f}; "
        f"core sides {'ok' if sides_ok else 'BAD'}; dims {'ok' if dims_ok else 'BAD'}",
    )
    assert a_plus < a_minus
    assert split > 1e-6
    assert sides_ok
    assert dims_ok


def _min_matching_residual(nl, lam):
    """Golden-refined minimum of the S1+ matching residual over (0, r(lam))."""
    from scipy.optimize import minimize_scalar

    prob = Problem(p=2.0, nl=nl, lam=lam)
    # the lambda-free store brackets the minimum at every lambda of the bisection
    curves = time_map_curves(nl, prob.p)
    grid = slope_bounds(prob).r_pos * curves.fractions
    res = 2.0 * prob.kappa * curves.integrals(areas(nl)[0], negative=False) - 1.0
    i = int(np.argmin(res))
    i = min(max(i, 1), res.size - 2)
    opt = minimize_scalar(
        lambda r: 2.0 * theta(prob, r) - 1.0,
        bracket=(float(grid[i - 1]), float(grid[i]), float(grid[i + 1])),
        method="golden",
        options={"xtol": 1e-12},
    )
    return float(opt.fun)


def test_criterion_6_pair_birth(qgtp):
    p = 2.0
    lam_formula = bifurcation_table(qgtp, p, 1).star_plus[0]

    lo, hi = 0.98 * lam_formula, 1.02 * lam_formula
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        # the minimum of the matching residual decreases in lambda
        lo, hi = (mid, hi) if _min_matching_residual(qgtp, mid) > 0.0 else (lo, mid)
    lam_bisect = 0.5 * (lo + hi)
    bracket_rel = (hi - lo) / hi
    rel = abs(lam_bisect - lam_formula) / lam_formula

    at = solve_class(Problem(p=p, nl=qgtp, lam=lam_bisect), SolutionClass(1, "+"))
    above = solve_class(Problem(p=p, nl=qgtp, lam=1.05 * lam_formula), SolutionClass(1, "+"))
    ok = (
        bracket_rel <= 1e-9
        and rel < 5e-9
        and len(at) == 1
        and at[0].degenerate
        and len([d for d in above if d.kind == "regular"]) >= 2
    )
    report(
        6,
        ok,
        f"tangency at lam={lam_bisect:.12g} (formula {lam_formula:.12g}, rel {rel:.1e}); "
        f"at: {len(at)} tangent, above: {len(above)} roots",
    )
    assert bracket_rel <= 1e-9
    assert rel < 5e-9
    assert len(at) == 1 and at[0].degenerate
    assert len([d for d in above if d.kind == "regular"]) >= 2


def test_criterion_7_symmetry_suite(cubic_odd, quintic_q3):
    # J(-a) = I(a)
    rng = np.random.default_rng(3)
    ij_err = 0.0
    for nl, p in ((cubic_odd, 2.0), (quintic_q3, 3.0)):
        for a in rng.uniform(0.05, 0.98, 4) * nl.z_plus:
            i_val = integral_I(nl, p, float(a), tol=1e-12)
            j_val = integral_J(nl, p, float(-a), tol=1e-12)
            ij_err = max(ij_err, abs(i_val - j_val) / i_val)

    tab = bifurcation_table(quintic_q3, 3.0, 8)
    seq_err = max(
        abs(a - b) / a for a, b in zip(tab.tilde_plus, tab.tilde_minus)
    )

    prob2 = Problem(p=2.0, nl=cubic_odd, lam=6.5 * np.pi**2)
    bound = slope_bounds(prob2).r_star
    ta_err = 0.0
    for frac in (0.15, 0.5, 0.85):
        r = frac * bound
        t_v = theta(prob2, r)
        a_v = alpha(prob2, r)
        ta_err = max(ta_err, abs(t_v - a_v) / t_v)

    d2 = solve_class(prob2, SolutionClass(2, "+"))[0]
    prof = reconstruct(prob2, d2, M=2048)
    half = prof.x.size // 2  # arch 2 samples mirror arch 1 shifted by 1/2
    n2 = prof.x.size - half - 1
    x_err = float(np.max(np.abs(prof.x[half + 1 :] - prof.x[1 : n2 + 1] - 0.5)))
    phi_err = float(np.max(np.abs(prof.phi[half + 1 :] + prof.phi[1 : n2 + 1])))
    shift_ok = x_err < 1e-8 and phi_err < 1e-8

    ok = ij_err < 1e-11 and seq_err < 1e-11 and ta_err < 1e-11 and shift_ok
    report(
        7,
        ok,
        f"J(-a)=I(a) err {ij_err:.1e}; lam+=lam- err {seq_err:.1e}; "
        f"alpha=theta err {ta_err:.1e}; half-shift err ({x_err:.1e}, {phi_err:.1e})",
    )
    assert ij_err < 1e-11
    assert seq_err < 1e-11
    assert ta_err < 1e-11
    assert shift_ok


def test_criterion_8a_arch_top_limit_as_stated(cubic_odd):
    # At an arch top chi with h(psi(chi)) != 0 the first integral
    # (|psi_x|^{p-2} psi_x)_x = -h(psi) gives |psi_x|^{p-1} ~ |h| |x-chi|, so
    # |psi_x| / |x-chi|^(1/(p-1)) tends to |h(psi(chi))|^(1/(p-1)).  The
    # constant ((1/(p-1)) |h|)^(1/(p-1)) is rejected: it is smaller by the
    # factor (p-1)^(1/(p-1)), which the measured ratio resolves.  The
    # shooter carries w = |psi_x|^{p-2} psi_x directly and so checks the limit
    # without the arch inversion or the energy relation.
    p = 3.0
    e = 1.0 / (p - 1.0)
    tab = bifurcation_table(cubic_odd, p, 1)
    prob = Problem(p=p, nl=cubic_odd, lam=0.5 * tab.tilde_plus[0])
    d = solve_class(prob, SolutionClass(1, "+"))[0]
    prof = reconstruct(prob, d, M=1024)
    rep = classify_regularity(prob, prof)
    finest = min(c["delta"] for c in rep.limit_checks)
    check = [c for c in rep.limit_checks if c["delta"] == finest][0]
    measured, level = check["measured"], check["phi"]
    h_val = prob.lam * float(eval_m(prob.nl, level))
    first_integral = abs(h_val) ** e
    rejected = ((1.0 / (p - 1.0)) * abs(h_val)) ** e
    dev = abs(measured / first_integral - 1.0)
    predicted_err = abs(check["predicted"] / first_integral - 1.0)
    gap = (measured / rejected) / (p - 1.0) ** e - 1.0

    sh = shoot(prob, d.r, d.sign, 100_000)
    w = np.sign(sh.dphi) * np.abs(sh.dphi) ** (p - 1.0)
    tops = np.flatnonzero(np.diff(np.sign(sh.dphi)) != 0)
    i = int(tops[0])
    chi = sh.x[i] - w[i] * (sh.x[i + 1] - sh.x[i]) / (w[i + 1] - w[i])
    h_shot = prob.lam * float(eval_m(prob.nl, float(np.interp(chi, sh.x, sh.phi))))
    shot_const = abs(h_shot) ** e
    shot_ratios = [
        abs(float(np.interp(chi + side * 1e-4, sh.x, w))) ** e / 1e-4**e
        for side in (-1.0, 1.0)
    ]
    shot_dev = max(abs(r / shot_const - 1.0) for r in shot_ratios)

    ok = (
        dev <= 0.02
        and predicted_err < 1e-9
        and abs(gap) <= 0.02
        and len(tops) == 1
        and shot_dev <= 1e-3
    )
    report(
        "8a",
        ok,
        f"measured {measured:.6f} vs first-integral |h|^(1/2) = {first_integral:.6f} "
        f"(dev {dev:.4%}); shooter at |x-chi| = 1e-4: {shot_ratios[0]:.6f} / "
        f"{shot_ratios[1]:.6f} vs {shot_const:.6f} (dev {shot_dev:.4%}); rejected "
        f"((1/2)|h|)^(1/2) = {rejected:.6f}, measured/rejected off sqrt(2) by {gap:+.2%}",
    )
    assert dev <= 0.02, (
        f"measured arch-top ratio {measured:.6f} is {dev:.2%} off the first-integral "
        f"constant |h|^(1/(p-1)) = {first_integral:.6f}"
    )
    assert predicted_err < 1e-9, (
        f"classify_regularity predicts {check['predicted']:.6f}, "
        f"not |h|^(1/(p-1)) = {first_integral:.6f}"
    )
    assert abs(gap) <= 0.02, (
        f"measured/rejected = {measured / rejected:.6f} is {gap:+.2%} off "
        f"(p-1)^(1/(p-1)) = {(p - 1.0) ** e:.6f}"
    )
    assert len(tops) == 1, f"shot profile has {len(tops)} sign changes of psi_x, not one"
    assert shot_dev <= 1e-3, (
        f"shooter ratios {shot_ratios} are {shot_dev:.3%} off |h|^(1/(p-1)) = {shot_const:.6f}"
    )


def test_criterion_8b_plateau_c2(quintic_q3):
    p = 3.0
    tab = bifurcation_table(quintic_q3, p, 1)
    prob = Problem(p=p, nl=quintic_q3, lam=1.5 * tab.tilde_plus[0])
    d = solve_class(prob, SolutionClass(1, "+"))[0]
    prof = reconstruct(prob, d, M=1024)
    rep = classify_regularity(prob, prof)
    edges = [c for c in rep.c_points if c["kind"] == "plateau_edge"]
    orders_ok = all(c["in_Z"] and c["zero_order"] == 1 for c in edges)
    finest_delta = min(s["delta"] for s in rep.second_derivative_checks)
    finest = [s for s in rep.second_derivative_checks if s["delta"] == finest_delta]
    psi_xx = max(s["second_derivative"] for s in finest)
    class_ok = rep.smoothness_class == "C1,1/(p-1); C2 off C\\Z"
    ok = bool(edges) and orders_ok and class_ok and psi_xx < 1e-2 * prob.lam
    report(
        "8b",
        ok,
        f"plateau edges in C∩Z (order 1): {orders_ok}; class '{rep.smoothness_class}'; "
        f"|psi_xx|({finest_delta:.1e}) = {psi_xx:.2e} < {1e-2 * prob.lam:.2e}",
    )
    assert edges and orders_ok
    assert class_ok
    assert psi_xx < 1e-2 * prob.lam


def test_criterion_9_quadrature_oracle(cubic_odd, asym, quintic_q3, qgtp):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    cases = []
    for nl, p in ((cubic_odd, 2.0), (asym, 3.0), (quintic_q3, 3.0), (qgtp, 2.0)):
        for a in rng.uniform(0.05, 0.95, 4):
            cases.append((nl, p, float(a)))
    assert len(cases) == 16
    worst = 0.0
    for nl, p, frac in cases:
        a = frac * nl.z_plus
        mine = integral_I(nl, p, a, tol=1e-12)
        ref = brute_force_I(nl, p, a)
        worst = max(worst, abs(mine - ref) / ref)
        b = -frac * abs(nl.z_minus)
        mine_j = integral_J(nl, p, b, tol=1e-12)
        ref_j = brute_force_J(nl, p, b)
        worst = max(worst, abs(mine_j - ref_j) / ref_j)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 60.0
    report(9, ok, f"worst relative deviation {worst:.2e} over 16 (family, a) pairs x (I, J), {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 60.0
