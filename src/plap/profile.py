"""Profile reconstruction, verification oracles, and regularity classification.

Profiles are built arch by arch: the rise of an arch with extremum ``a`` is
the inverse of ``s -> x(s) = kappa * int_s^a G_a(t)^(-1/p) dt`` sampled on an
extremum-clustered grid, then reflected about the arch midpoint.  The
derivative comes from the conservation law ``|phi_x|^p = (lam p/(p-1)) G``
rather than from differencing, so the energy residual measures pure grid
consistency.  An independent adaptive Dormand-Prince 5(4) shooter, compared
through its dense output at the profile's own abscissae, provides
positional verification; for p > 2 it is trustworthy only up to the first
flat point, where the ODE loses uniqueness (which is exactly why flat cores
exist).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import Blowup, BudgetMismatch, ShapeError
from .nonlinearity import Nonlinearity, eval_F, eval_m, reflected
from .solver import SIGN_POS, SolutionClass, SolutionDescriptor
from .timemap import (
    Problem,
    _beta,
    arch_tail_cumulative,
    endpoint_levels,
    invert_arch_distance,
    radicand,
    s_of_r,
    z_of_r,
)

_WIDTH_TOL = 1e-9  # assembled profiles must cover [0,1] this well
_BUDGET_TOL = 1e-10
_Z_MEMBER_TOL = 1e-10  # |h(phi)| below this puts the critical value in Z


@dataclass
class Profile:
    """Sampled solution with marked flat intervals and interior zeros."""

    x: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    flat_intervals: list[tuple[float, float]]
    nodes: list[float]
    segments: list[tuple[int, int]]  # inclusive index ranges of monotone/flat pieces
    turning_points: list[dict] = field(default_factory=list)
    r_ref: float = 0.0
    descriptor: SolutionDescriptor | None = None


def _upright(nl: Nonlinearity, level: float) -> tuple[Nonlinearity, float]:
    """A negative extremum as the positive one of the reflected nonlinearity."""
    return (nl, level) if level > 0 else (reflected(nl), -level)


def _slope(problem: Problem, G):
    """``|phi_x|`` from the first integral ``|phi_x|^p = (lam p/(p-1)) G``."""
    return (problem.lam * problem.p / (problem.p - 1.0) * G) ** (1.0 / problem.p)


def _arch_half(problem: Problem, level: float, double: bool, m_half: int):
    """Rise of one arch: x offsets (from the arch start), phi, |dphi|, half width."""
    p = problem.p
    nl, top = _upright(problem.nl, level)
    beta = _beta(p, double)
    u = np.linspace(0.0, 1.0, m_half)
    s = top * np.sin(0.5 * np.pi * u)
    w_grid = (top - s)[::-1] ** (1.0 / beta)
    cum = arch_tail_cumulative(nl, p, top, double, w_grid)
    half_width = problem.kappa * cum[-1]
    x = problem.kappa * (cum[-1] - cum[::-1])
    G = radicand(nl, top, s)
    mag = _slope(problem, np.clip(G, 0.0, None))
    mag[-1] = 0.0
    return x, np.copysign(s, level), mag, half_width


def reconstruct(
    problem: Problem,
    descriptor: SolutionDescriptor,
    M: int = 2048,
    core_lengths=None,
) -> Profile:
    """Pointwise profile for a descriptor; flat cores take a plateau-length
    vector (must sum to the budget; default equal split)."""
    if descriptor.kind == "trivial":
        x = np.linspace(0.0, 1.0, M)
        z = np.zeros(M)
        return Profile(x, z, z.copy(), [], [], [(0, M - 1)], [], 0.0, descriptor)

    sclass = SolutionClass(descriptor.j, descriptor.sign)
    j = sclass.j
    m_half = max(16, M // (2 * j))
    nl = problem.nl

    plateau_flags = (False,) * j
    if descriptor.kind == "flat_core":
        plateau_flags = sclass.plateaus(descriptor.core_side)
        if core_lengths is None:
            lengths = [descriptor.core_budget / descriptor.core_count] * descriptor.core_count
        else:
            lengths = [float(v) for v in core_lengths]
            if len(lengths) != descriptor.core_count:
                raise BudgetMismatch(
                    f"expected {descriptor.core_count} core lengths, got {len(lengths)}"
                )
            if not all(0.0 < v < math.inf for v in lengths):
                raise BudgetMismatch("core lengths must be positive and finite")
            if not abs(sum(lengths) - descriptor.core_budget) <= _BUDGET_TOL:
                raise BudgetMismatch(
                    f"core lengths sum to {sum(lengths)}, budget is {descriptor.core_budget}"
                )
        plats = iter(lengths)
        levels = endpoint_levels(nl)
        tops = (levels.z_hat, levels.s_hat)  # of the arches without a plateau
    else:  # each side the class uses checks r against its own slope bound
        r = descriptor.r
        tops = (z_of_r(problem, r) if sclass.n_pos else None, s_of_r(problem, r) if sclass.n_neg else None)

    xs: list[np.ndarray] = []
    phis: list[np.ndarray] = []
    dphis: list[np.ndarray] = []
    segments: list[tuple[int, int]] = []
    turning: list[dict] = []
    flats: list[tuple[float, float]] = []
    nodes: list[float] = []
    cursor = 0.0
    count = 0
    halves: dict[tuple[float, bool], tuple] = {}  # an S_j profile repeats a few arches

    def _append(x, phi, dphi, skip_first):
        nonlocal count
        sl = slice(1, None) if skip_first else slice(None)
        xs.append(x[sl])
        phis.append(phi[sl])
        dphis.append(dphi[sl])
        start = count
        count += x[sl].size
        return start, count - 1

    for i, (positive_arch, plateau) in enumerate(zip(sclass.arches, plateau_flags)):
        s_arch = 1.0 if positive_arch else -1.0
        if plateau:
            level, double, plat = (nl.z_plus if positive_arch else nl.z_minus), True, next(plats)
        else:
            level, double, plat = (tops[0] if positive_arch else tops[1]), False, 0.0

        if (level, double) not in halves:
            halves[level, double] = _arch_half(problem, level, double, m_half)
        x_half, s_half, mag, hw = halves[level, double]

        seg = _append(cursor + x_half, s_half, s_arch * mag, skip_first=i > 0)
        segments.append(seg)
        top_x = cursor + hw

        if plat > 0.0:
            px = top_x + np.linspace(0.0, plat, 7)[1:]
            seg = _append(px, np.full(px.size, level), np.zeros(px.size), skip_first=False)
            segments.append(seg)
            flats.append((top_x, top_x + plat))
            turning.append(
                {"x": top_x, "phi": level, "kind": "plateau_edge", "double": True, "half_width": hw}
            )
            turning.append(
                {
                    "x": top_x + plat,
                    "phi": level,
                    "kind": "plateau_edge",
                    "double": True,
                    "half_width": hw,
                }
            )
        else:
            turning.append(
                {"x": top_x, "phi": level, "kind": "arch_top", "double": double, "half_width": hw}
            )

        fall_x = (top_x + plat) + (hw - x_half[::-1])
        seg = _append(fall_x, s_half[::-1], -s_arch * mag[::-1], skip_first=True)
        segments.append(seg)
        cursor = top_x + plat + hw
        if i < j - 1:
            nodes.append(cursor)

    if not abs(cursor - 1.0) <= _WIDTH_TOL:  # also rejects a NaN length
        raise ShapeError(f"assembled length {cursor} differs from 1 by {abs(cursor - 1.0):.3e}")

    prof = Profile(
        x=np.concatenate(xs),
        phi=np.concatenate(phis),
        dphi=np.concatenate(dphis),
        flat_intervals=flats,
        nodes=nodes,
        segments=segments,
        turning_points=turning,
        r_ref=descriptor.r,
        descriptor=descriptor,
    )
    return prof


def energy_residual(problem: Problem, prof: Profile) -> float:
    """Max deviation of the first integral along each monotone piece,
    normalized by r^p."""
    p, q, lam = problem.p, problem.q, problem.lam
    c = lam * p / ((p - 1.0) * q)
    worst = 0.0
    for i0, i1 in prof.segments:
        sl = slice(i0, i1 + 1)
        energy = np.abs(prof.dphi[sl]) ** p - c * (
            q * eval_F(problem.nl, prof.phi[sl]) - np.abs(prof.phi[sl]) ** q
        )
        if energy.size:
            worst = max(worst, float(np.max(np.abs(energy - energy[0]))))
    r_ref = prof.r_ref if prof.r_ref > 0.0 else float(np.max(np.abs(prof.dphi), initial=0.0))
    if r_ref == 0.0:
        return worst
    return worst / r_ref**p


def _scalar_dw(nl: Nonlinearity, lam: float):
    """w' = -lam (|s|^{q-2}s - f(s)) with f = sgn(s) |s|^e sum_k c_k s^k, in
    pure-Python scalar code, so the oracle evaluates f apart from eval_f."""
    qm1, e = nl.q - 1.0, nl.e
    # per sign of s: -lam sgn(s), sgn(s), the leading coefficient, the rest
    plus, minus = ((-lam * sgn, sgn, c[-1], c[-2::-1]) for sgn, c in ((1.0, nl.c_plus), (-1.0, nl.c_minus)))

    def dw(s: float) -> float:
        scale, sgn, acc, rest = plus if s >= 0.0 else minus
        for c in rest:
            acc = acc * s + c
        a = sgn * s
        return scale * (a**qm1 - a**e * acc)

    return dw


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.4-5):
# stage weights, the error weights b5 - b4 and the dense-output weights.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
_D1, _D3, _D4 = -12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072
_D5, _D6, _D7 = 701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423
# Local error bound per step, relative to each component's scale.  A bound
# of 1e-12 leaves oracle errors up to 4e-7 on p = 2 roots next to the slope
# bound, where the arches are longest.
_ODE_TOL = 1e-14
_FIRST_STEP = 1e-4


def _dopri(fphi, fw, w0: float, x_stop: float, max_steps: int, scale_phi: float, cap: float):
    """Adaptive Dormand-Prince 5(4) for phi' = fphi(w), w' = fw(phi) from
    (0, w0) until a step ends past ``x_stop``; no step is shortened to end
    there, so a run to a smaller ``x_stop`` is a prefix of a longer one.

    Returns one row per accepted step: its start, its width and the
    coefficients of the fourth-order dense output of phi and of w."""
    tol_phi, tol_w = _ODE_TOL * scale_phi, _ODE_TOL * abs(w0)
    x, h, phi, w = 0.0, _FIRST_STEP, 0.0, w0
    k1p, k1w = fphi(w), fw(phi)
    rows: list[tuple] = []
    grow = 5.0
    while x <= x_stop:
        if len(rows) == max_steps:
            raise Blowup(f"step budget of {max_steps} exhausted at x = {x}")
        if x + h == x:
            raise Blowup(f"step size underflow at x = {x}")
        k2p = fphi(w + h * _A21 * k1w)
        k2w = fw(phi + h * _A21 * k1p)
        k3p = fphi(w + h * (_A31 * k1w + _A32 * k2w))
        k3w = fw(phi + h * (_A31 * k1p + _A32 * k2p))
        k4p = fphi(w + h * (_A41 * k1w + _A42 * k2w + _A43 * k3w))
        k4w = fw(phi + h * (_A41 * k1p + _A42 * k2p + _A43 * k3p))
        k5p = fphi(w + h * (_A51 * k1w + _A52 * k2w + _A53 * k3w + _A54 * k4w))
        k5w = fw(phi + h * (_A51 * k1p + _A52 * k2p + _A53 * k3p + _A54 * k4p))
        k6p = fphi(w + h * (_A61 * k1w + _A62 * k2w + _A63 * k3w + _A64 * k4w + _A65 * k5w))
        k6w = fw(phi + h * (_A61 * k1p + _A62 * k2p + _A63 * k3p + _A64 * k4p + _A65 * k5p))
        phi1 = phi + h * (_B1 * k1p + _B3 * k3p + _B4 * k4p + _B5 * k5p + _B6 * k6p)
        w1 = w + h * (_B1 * k1w + _B3 * k3w + _B4 * k4w + _B5 * k5w + _B6 * k6w)
        k7p, k7w = fphi(w1), fw(phi1)
        err = max(
            abs(h * (_E1 * k1p + _E3 * k3p + _E4 * k4p + _E5 * k5p + _E6 * k6p + _E7 * k7p)) / tol_phi,
            abs(h * (_E1 * k1w + _E3 * k3w + _E4 * k4w + _E5 * k5w + _E6 * k6w + _E7 * k7w)) / tol_w,
        )
        if not err <= 1.0:  # also rejects a NaN estimate
            h *= max(0.2, 0.9 * err**-0.2)
            grow = 1.0  # no growth right after a rejection
            continue
        dp, dw = phi1 - phi, w1 - w
        bp, bw = h * k1p - dp, h * k1w - dw
        rows.append((
            x, h,
            phi, dp, bp, dp - h * k7p - bp,
            h * (_D1 * k1p + _D3 * k3p + _D4 * k4p + _D5 * k5p + _D6 * k6p + _D7 * k7p),
            w, dw, bw, dw - h * k7w - bw,
            h * (_D1 * k1w + _D3 * k3w + _D4 * k4w + _D5 * k5w + _D6 * k6w + _D7 * k7w),
        ))
        x += h
        phi, w, k1p, k1w = phi1, w1, k7p, k7w
        if abs(phi) > cap:
            raise Blowup(f"|phi| exceeded {cap} at x = {x}")
        h *= min(grow, 0.9 * err**-0.2) if err > 0.0 else grow
        grow = 5.0
    return np.array(rows)


def _dense(steps: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi and w at abscissae x from the steps' dense-output rows."""
    i = np.clip(np.searchsorted(steps[:, 0], x, side="right") - 1, 0, len(steps) - 1)
    c = steps[i]
    t = (x - c[:, 0]) / c[:, 1]
    u = 1.0 - t
    phi = c[:, 2] + t * (c[:, 3] + u * (c[:, 4] + t * (c[:, 5] + u * c[:, 6])))
    w = c[:, 7] + t * (c[:, 8] + u * (c[:, 9] + t * (c[:, 10] + u * c[:, 11])))
    return phi, w


def shoot(problem: Problem, r0: float, sign: str, n_steps: int, at=None) -> Profile:
    """Independent oracle: adaptive Dormand-Prince 5(4) for
    phi' = sgn(w)|w|^(1/(p-1)), w' = -lam (|phi|^{q-2} phi - f(phi)),
    w(0) = +/- r0^(p-1), sampled through its dense output.

    Samples lie at the increasing abscissae ``at`` or, by default, on the
    grid k/n_steps of [0, 1]; a run to a leading part of that grid is a
    prefix of the full one.  ``n_steps`` also caps the accepted steps:
    exhausting it raises ``Blowup``, as does |phi| leaving 10 max(z+, |z-|)."""
    if r0 <= 0.0:
        raise ValueError(f"r0 must be positive, got {r0}")
    p, nl = problem.p, problem.nl
    x = np.linspace(0.0, 1.0, n_steps + 1) if at is None else np.asarray(at, dtype=float)
    e = 1.0 / (p - 1.0)

    def fphi(w: float) -> float:
        return abs(w) ** e if w >= 0.0 else -((-w) ** e)

    scale = max(nl.z_plus, -nl.z_minus)
    w0 = r0 ** (p - 1.0) if sign == SIGN_POS else -(r0 ** (p - 1.0))
    steps = _dopri(fphi, _scalar_dw(nl, problem.lam), w0, x[-1], n_steps, scale, 10.0 * scale)
    phi_arr, w_arr = _dense(steps, x)

    dphi = np.sign(w_arr) * np.abs(w_arr) ** e
    crossings = np.where(np.sign(phi_arr[1:]) * np.sign(phi_arr[:-1]) < 0)[0]
    nodes = [
        float(x[i] - phi_arr[i] * (x[i + 1] - x[i]) / (phi_arr[i + 1] - phi_arr[i]))
        for i in crossings
    ]
    sign_runs = np.sign(dphi)
    breaks = [0] + list(np.where(np.diff(sign_runs) != 0)[0] + 1) + [x.size - 1]
    segments = [(breaks[k], breaks[k + 1]) for k in range(len(breaks) - 1)]
    return Profile(x, phi_arr, dphi, [], nodes, segments, [], r0, None)


def shoot_compare(
    problem: Problem, prof: Profile, n_steps: int = 100_000
) -> float:
    """Sup difference between a reconstructed profile and the shooting
    oracle, taken at the profile's own abscissae (``n_steps`` is the
    oracle's step budget).

    Stops at the first flat point: there the right-hand side loses
    uniqueness (w = 0 and h(phi) = 0 together) and the oracle creeps into
    the degenerate equilibrium with algebraic lag, so the comparison also
    excludes the approach layer where the profile is within 1% of the
    plateau level.  The oracle is integrated only that far: past the
    equilibrium its trajectory can escape and blow up."""
    d = prof.descriptor
    mask = np.ones(prof.x.size, dtype=bool)
    if prof.flat_intervals:
        mask &= prof.x <= prof.flat_intervals[0][0]
        level = next(
            tp["phi"] for tp in prof.turning_points if tp["kind"] == "plateau_edge"
        )
        mask &= np.abs(prof.phi - level) > 0.01 * abs(level)
    sh = shoot(problem, d.r, d.sign, n_steps, at=prof.x[mask])
    return float(np.max(np.abs(sh.phi - prof.phi[mask])))


@dataclass
class RegularityReport:
    """Critical-set inventory and smoothness classification."""

    smoothness_class: str
    holder_exponent: float
    boundary_case: bool
    c_points: list[dict]
    limit_checks: list[dict]
    second_derivative_checks: list[dict]

    def to_json_dict(self) -> dict:
        return asdict(self)


def _zero_order(problem: Problem, v: float, scale: float) -> int | None:
    """Order of the zero of h at v by dyadic ratio tests, capped at 4."""
    lam = problem.lam
    direction = -1.0 if v > 0 else 1.0  # probe into the arch
    delta = 1e-3 * scale
    h1 = lam * float(eval_m(problem.nl, v + direction * delta))
    h2 = lam * float(eval_m(problem.nl, v + direction * delta / 2.0))
    if h1 == 0.0 or h2 == 0.0:
        return None
    n = round(math.log2(abs(h1 / h2)))
    if n < 1:
        return None
    return min(int(n), 5)  # 5 encodes "order > 4"


def classify_regularity(problem: Problem, prof: Profile) -> RegularityReport:
    """Classify every critical point of a reconstructed profile.

    Derivative limits near an isolated critical point chi follow from the
    first integral (|phi_x|^{p-1})' = -h(phi): the measured ratio
    |phi_x| / |x-chi|^(1/(p-1)) tends to |h(phi(chi))|^(1/(p-1)).
    """
    p, lam, nl = problem.p, problem.lam, problem.nl
    kappa = problem.kappa
    c_points: list[dict] = []
    limit_checks: list[dict] = []
    second_checks: list[dict] = []
    z_orders: list[int] = []

    @functools.cache
    def offset(v: float, double: bool, target: float) -> float:
        """w at G-space distance ``target`` from the extremum ``v``; arch tops of
        one sign, and the two edges of a plateau, share every inversion."""
        side, top = _upright(nl, v)
        return invert_arch_distance(side, p, top, double, target)

    for tp in prof.turning_points:
        v = tp["phi"]
        hval = lam * float(eval_m(nl, v))
        in_z = abs(hval) < _Z_MEMBER_TOL
        order = _zero_order(problem, v, min(nl.z_plus, -nl.z_minus)) if in_z else None
        if in_z and order is not None and order <= 4:
            z_orders.append(order)
        c_points.append(
            {
                "x": tp["x"],
                "phi": v,
                "kind": tp["kind"],
                "h_value": hval,
                "in_Z": in_z,
                "zero_order": order,
            }
        )

        double = tp["double"]
        hw = tp["half_width"]
        side, top = _upright(nl, v)
        if tp["kind"] == "arch_top" and not in_z:
            predicted = abs(hval) ** (1.0 / (p - 1.0))
            fac = min(1.0, 0.25 * hw / 1e-2)
            for delta in (1e-2, 1e-3, 1e-4):
                d_eff = delta * fac
                w = offset(v, double, d_eff / kappa)
                G = radicand(side, top, top - w ** _beta(p, double))
                mag = _slope(problem, float(G))
                measured = mag / d_eff ** (1.0 / (p - 1.0))
                limit_checks.append(
                    {
                        "x": tp["x"],
                        "phi": v,
                        "delta": d_eff,
                        "measured": measured,
                        "predicted": predicted,
                        "ratio": measured / predicted,
                    }
                )
        elif tp["kind"] == "plateau_edge" and p > 2.0:
            for delta in (1e-3, 1e-4):
                w = offset(v, True, delta / kappa)
                s = top - w ** _beta(p, True)
                G = radicand(side, top, s)
                mag = _slope(problem, float(G))
                h_near = lam * float(eval_m(side, s))
                psi_xx = abs(h_near) * mag ** (2.0 - p) / (p - 1.0)
                n_here = order if order is not None else 1
                second_checks.append(
                    {
                        "x": tp["x"],
                        "phi": v,
                        "delta": delta,
                        "second_derivative": psi_xx,
                        "tends_to_zero": 2.0 < p < 2.0 * (n_here + 1),
                    }
                )

    holder = 1.0 / (p - 1.0)
    # for p below 2(n+1), n the least order of a zero of h at a critical
    # value, the profile is C2 at the critical points in Z too
    edge = 2.0 * (min(z_orders) + 1) if z_orders else None
    boundary = p == edge
    if p <= 2.0:
        label = "C2"
    elif edge is not None and p < edge:
        label = "C1,1/(p-1); C2 off C\\Z"
    else:
        label = "C1,1/(p-1); C2 off C"
    return RegularityReport(
        smoothness_class=label,
        holder_exponent=holder,
        boundary_case=boundary,
        c_points=c_points,
        limit_checks=limit_checks,
        second_derivative_checks=second_checks,
    )
