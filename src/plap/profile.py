"""Profile reconstruction, verification oracles, and regularity classification.

Profiles are built arch by arch: the rise of an arch with extremum ``a`` is
the inverse of ``s -> x(s) = kappa * int_s^a G_a(t)^(-1/p) dt`` sampled on an
extremum-clustered grid, then reflected about the arch midpoint.  The
derivative comes from the conservation law ``|phi_x|^p = (lam p/(p-1)) G``
rather than from differencing, so the energy residual measures pure grid
consistency.  An independent shooter provides positional verification: the
adaptive eighth-order pair DOP853 integrates the rising half of each arch
sign the trajectory uses once, from its zero to its top, where w = 0 on the
seventh-order dense output, and the trajectory at the profile's own
abscissae is read off mirrored and translated copies of those halves.  For
p > 2 it is trustworthy only up to the first flat point, where the ODE
loses uniqueness (which is exactly why flat cores exist).

For an odd f the equation is symmetric under (phi, w) -> (-phi, -w), and
that holds float for float: f(-s) = -f(s) and |w|^(1/(p-1)) are exact under
negation, and Horner's rule on the coefficients of the negative side at -a
gives the partial sums at a up to sign.  So each object is built once per
|level| and reflected for the other sign: an oracle half (``shoot``), an
arch half (``reconstruct``) and a block of derivative checks
(``classify_regularity``), every output equal to the one built afresh.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import Blowup, BudgetMismatch, OutOfRange, ShapeError, ignores_underflow
from .nonlinearity import Nonlinearity, areas, eval_F, eval_m
from .roots import brentq
from .solver import SIGN_POS, SolutionClass, SolutionDescriptor
from .timemap import Arch, Problem, level_neg, level_pos, s_of_r, z_of_r

_WIDTH_TOL = 1e-9  # assembled profiles must cover [0,1] this well
_BUDGET_TOL = 1e-10


@dataclass
class Profile:
    """Sampled solution with marked flat intervals and interior zeros."""

    x: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    flat_intervals: list[tuple[float, float]]
    nodes: list[float]
    segments: list[tuple[int, int]]  # inclusive index ranges of monotone/flat pieces (shoot: one)
    turning_points: list[dict] = field(default_factory=list)
    r_ref: float = 0.0
    descriptor: SolutionDescriptor | None = None


def _slope(problem: Problem, G):
    """``|phi_x|`` from the first integral ``|phi_x|^p = (lam p/(p-1)) G``."""
    return (problem.lam * problem.p / (problem.p - 1.0) * G) ** (1.0 / problem.p)


def _arch_half(problem: Problem, level: float, double: bool, m_half: int):
    """Rise of one arch: x offsets (from the arch start), |phi|, |dphi|, half width."""
    arch = Arch.at(problem.nl, problem.p, level, double)
    top = arch.top
    u = np.linspace(0.0, 1.0, m_half)
    s = top * np.sin(0.5 * np.pi * u)
    h = top - s
    cum = arch.cumulative(h[::-1] ** (1.0 / arch.beta))
    half_width = problem.kappa * cum[-1]
    x = problem.kappa * (cum[-1] - cum[::-1])
    G, _ = arch.radicand(s, h)
    mag = _slope(problem, np.clip(G, 0.0, None))
    mag[-1] = 0.0
    return x, s, mag, half_width


@ignores_underflow
def reconstruct(
    problem: Problem,
    descriptor: SolutionDescriptor,
    M: int = 2048,
    core_lengths=None,
) -> Profile:
    """Pointwise profile for a descriptor; flat cores take a plateau-length
    vector (must sum to the budget; default equal split), and any other kind
    none.

    Each (level, double) of the layout is inverted once (``_arch_half``) and
    its rise is reused by every arch that turns there.  For an odd f the key
    is |level|: the arch at -level is that at level of the reflected f,
    which is f itself, so its floats are the same, and each arch takes its
    sign by ``np.copysign``."""
    lengths = None if core_lengths is None else [float(v) for v in core_lengths]
    if lengths is not None and len(lengths) != descriptor.core_count:
        raise BudgetMismatch(f"expected {descriptor.core_count} core lengths, got {len(lengths)}")
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
        if lengths is None:
            lengths = [descriptor.core_budget / descriptor.core_count] * descriptor.core_count
        elif not all(0.0 < v < math.inf for v in lengths):
            raise BudgetMismatch("core lengths must be positive and finite")
        elif not abs(sum(lengths) - descriptor.core_budget) <= _BUDGET_TOL:
            raise BudgetMismatch(f"core lengths sum to {sum(lengths)}, budget is {descriptor.core_budget}")
        plats = iter(lengths)
        # the arches without a plateau turn at the levels of the smaller area
        rho = min(areas(nl))
        tops = (level_pos(nl, rho), level_neg(nl, rho))
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

        key = (abs(level) if nl.odd else level), double
        if key not in halves:
            halves[key] = _arch_half(problem, level, double, m_half)
        x_half, s_half, mag, hw = halves[key]
        s_half = np.copysign(s_half, level)

        seg = _append(cursor + x_half, s_half, s_arch * mag, skip_first=i > 0)
        segments.append(seg)
        top_x = cursor + hw

        if plat > 0.0:
            px = top_x + np.linspace(0.0, plat, 7)[1:]
            seg = _append(px, np.full(px.size, level), np.zeros(px.size), skip_first=False)
            segments.append(seg)
            flats.append((top_x, top_x + plat))
            turning.extend(
                {"x": edge, "phi": level, "kind": "plateau_edge", "double": True, "half_width": hw}
                for edge in (top_x, top_x + plat)
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


@ignores_underflow
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


# DOP853, the 8(5,3) pair of Dormand and Prince with Hairer's 7th-order dense
# output (Hairer, Norsett & Wanner, Solving ODEs I, II.10, and their dop853.f).
# Stage i's weights _Ai_j on stage j; _B, the 8th-order weights; _E, the
# 5th-order error weights; _BHH, the 3rd-order error weights taken off _B;
# _D4.._D7, the dense-output weights of stages 1 and 6-16.  Stage 13 is the
# slope at the step's end, which the next step reuses as its stage 1, and
# stages 14-16 serve only the dense output.  The ODE is autonomous, so no
# stage needs its node.
_A2_1 = 0.05260015195876773
_A3_1, _A3_2 = 0.0197250569845379, 0.0591751709536137
_A4_1, _A4_3 = 0.02958758547680685, 0.08876275643042054
_A5_1, _A5_3, _A5_4 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A6_1, _A6_4, _A6_5 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A7_1, _A7_4, _A7_5, _A7_6 = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
_A8_1, _A8_4, _A8_5, _A8_6, _A8_7 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023,
)
_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996,
)
_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
)
_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
)
_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636,
)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
)
_A14_1, _A14_7, _A14_8, _A14_9, _A14_10, _A14_11, _A14_12, _A14_13 = (
    0.056167502283047954, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298,
)
_A15_1, _A15_6, _A15_7, _A15_8, _A15_11, _A15_12, _A15_13, _A15_14 = (
    0.03183464816350214, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
)
_A16_1, _A16_6, _A16_7, _A16_8, _A16_9, _A16_13, _A16_14, _A16_15 = (
    -0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
)
_E1, _E6, _E7, _E8, _E9, _E10, _E11, _E12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
)
_BHH1, _BHH2, _BHH3 = 0.2440944881889764, 0.7338466882816118, 0.022058823529411766
_D4_1, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14, _D4_15, _D4_16 = (
    -8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894,
)
_D5_1, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14, _D5_15, _D5_16 = (
    10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408,
)
_D6_1, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14, _D6_15, _D6_16 = (
    19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279,
)
_D7_1, _D7_6, _D7_7, _D7_8, _D7_9, _D7_10, _D7_11, _D7_12, _D7_13, _D7_14, _D7_15, _D7_16 = (
    -25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
    96.32455395918828, -39.17726167561544, -149.72683625798564,
)

# Local error bound per step, relative to each component's scale.  On the
# p = 2 roots within 1e-4 of their slope bound, where the arches are longest,
# the oracle errs by up to 1.9e-9 at this bound and by 7.3e-7 at 1e-12.
_ODE_TOL = 1e-14
_FIRST_STEP = 1e-4


def _dopri(fphi, fw, w0: float, x_stop: float, max_steps: int, scale_phi: float, cap: float):
    """Adaptive DOP853 for phi' = fphi(w), w' = fw(phi) from (0, w0) until a
    step ends past ``x_stop`` or ends with w no longer of w0's sign; no step
    is shortened to end at either, so a run to a smaller ``x_stop`` is a
    prefix of a longer one.

    Returns one row per accepted step: its start, its width, and for phi and
    for w the value at the start and the 7 coefficients of the dense output."""
    tol_phi, tol_w = _ODE_TOL * scale_phi, _ODE_TOL * abs(w0)
    x, h, phi, w = 0.0, _FIRST_STEP, 0.0, w0
    sgn = math.copysign(1.0, w0)
    k1p, k1w = fphi(w), fw(phi)
    rows: list[tuple] = []
    grow = 5.0
    while x <= x_stop:
        if len(rows) == max_steps:
            raise Blowup(f"step budget of {max_steps} exhausted at x = {x}")
        if x + h == x:
            raise Blowup(f"step size underflow at x = {x}")
        k2p = fphi(w + h * (_A2_1 * k1w))
        k2w = fw(phi + h * (_A2_1 * k1p))
        k3p = fphi(w + h * (_A3_1 * k1w + _A3_2 * k2w))
        k3w = fw(phi + h * (_A3_1 * k1p + _A3_2 * k2p))
        k4p = fphi(w + h * (_A4_1 * k1w + _A4_3 * k3w))
        k4w = fw(phi + h * (_A4_1 * k1p + _A4_3 * k3p))
        k5p = fphi(w + h * (_A5_1 * k1w + _A5_3 * k3w + _A5_4 * k4w))
        k5w = fw(phi + h * (_A5_1 * k1p + _A5_3 * k3p + _A5_4 * k4p))
        k6p = fphi(w + h * (_A6_1 * k1w + _A6_4 * k4w + _A6_5 * k5w))
        k6w = fw(phi + h * (_A6_1 * k1p + _A6_4 * k4p + _A6_5 * k5p))
        k7p = fphi(w + h * (_A7_1 * k1w + _A7_4 * k4w + _A7_5 * k5w + _A7_6 * k6w))
        k7w = fw(phi + h * (_A7_1 * k1p + _A7_4 * k4p + _A7_5 * k5p + _A7_6 * k6p))
        k8p = fphi(w + h * (_A8_1 * k1w + _A8_4 * k4w + _A8_5 * k5w + _A8_6 * k6w + _A8_7 * k7w))
        k8w = fw(phi + h * (_A8_1 * k1p + _A8_4 * k4p + _A8_5 * k5p + _A8_6 * k6p + _A8_7 * k7p))
        k9p = fphi(w + h * (_A9_1 * k1w + _A9_4 * k4w + _A9_5 * k5w + _A9_6 * k6w + _A9_7 * k7w
                            + _A9_8 * k8w))
        k9w = fw(phi + h * (_A9_1 * k1p + _A9_4 * k4p + _A9_5 * k5p + _A9_6 * k6p + _A9_7 * k7p
                            + _A9_8 * k8p))
        k10p = fphi(w + h * (_A10_1 * k1w + _A10_4 * k4w + _A10_5 * k5w + _A10_6 * k6w
                             + _A10_7 * k7w + _A10_8 * k8w + _A10_9 * k9w))
        k10w = fw(phi + h * (_A10_1 * k1p + _A10_4 * k4p + _A10_5 * k5p + _A10_6 * k6p
                             + _A10_7 * k7p + _A10_8 * k8p + _A10_9 * k9p))
        k11p = fphi(w + h * (_A11_1 * k1w + _A11_4 * k4w + _A11_5 * k5w + _A11_6 * k6w
                             + _A11_7 * k7w + _A11_8 * k8w + _A11_9 * k9w + _A11_10 * k10w))
        k11w = fw(phi + h * (_A11_1 * k1p + _A11_4 * k4p + _A11_5 * k5p + _A11_6 * k6p
                             + _A11_7 * k7p + _A11_8 * k8p + _A11_9 * k9p + _A11_10 * k10p))
        k12p = fphi(w + h * (_A12_1 * k1w + _A12_4 * k4w + _A12_5 * k5w + _A12_6 * k6w
                             + _A12_7 * k7w + _A12_8 * k8w + _A12_9 * k9w + _A12_10 * k10w
                             + _A12_11 * k11w))
        k12w = fw(phi + h * (_A12_1 * k1p + _A12_4 * k4p + _A12_5 * k5p + _A12_6 * k6p
                             + _A12_7 * k7p + _A12_8 * k8p + _A12_9 * k9p + _A12_10 * k10p
                             + _A12_11 * k11p))
        sp = (_B1 * k1p + _B6 * k6p + _B7 * k7p + _B8 * k8p + _B9 * k9p + _B10 * k10p
              + _B11 * k11p + _B12 * k12p)
        sw = (_B1 * k1w + _B6 * k6w + _B7 * k7w + _B8 * k8w + _B9 * k9w + _B10 * k10w
              + _B11 * k11w + _B12 * k12w)
        e5p = (_E1 * k1p + _E6 * k6p + _E7 * k7p + _E8 * k8p + _E9 * k9p + _E10 * k10p
               + _E11 * k11p + _E12 * k12p) / tol_phi
        e5w = (_E1 * k1w + _E6 * k6w + _E7 * k7w + _E8 * k8w + _E9 * k9w + _E10 * k10w
               + _E11 * k11w + _E12 * k12w) / tol_w
        e3p = (sp - _BHH1 * k1p - _BHH2 * k9p - _BHH3 * k12p) / tol_phi
        e3w = (sw - _BHH1 * k1w - _BHH2 * k9w - _BHH3 * k12w) / tol_w
        e5 = e5p * e5p + e5w * e5w
        e3 = e3p * e3p + e3w * e3w
        # the combined estimate of dop853.f, on the scaled components
        err = h * e5 / math.sqrt(e5 + 0.01 * e3) if e5 != 0.0 else 0.0
        if not err <= 1.0:  # also rejects a NaN estimate
            h *= max(0.2, 0.9 * err**-0.125)
            grow = 1.0  # no growth right after a rejection
            continue
        phi1, w1 = phi + h * sp, w + h * sw
        k13p, k13w = fphi(w1), fw(phi1)
        k14p = fphi(w + h * (_A14_1 * k1w + _A14_7 * k7w + _A14_8 * k8w + _A14_9 * k9w
                             + _A14_10 * k10w + _A14_11 * k11w + _A14_12 * k12w + _A14_13 * k13w))
        k14w = fw(phi + h * (_A14_1 * k1p + _A14_7 * k7p + _A14_8 * k8p + _A14_9 * k9p
                             + _A14_10 * k10p + _A14_11 * k11p + _A14_12 * k12p + _A14_13 * k13p))
        k15p = fphi(w + h * (_A15_1 * k1w + _A15_6 * k6w + _A15_7 * k7w + _A15_8 * k8w
                             + _A15_11 * k11w + _A15_12 * k12w + _A15_13 * k13w + _A15_14 * k14w))
        k15w = fw(phi + h * (_A15_1 * k1p + _A15_6 * k6p + _A15_7 * k7p + _A15_8 * k8p
                             + _A15_11 * k11p + _A15_12 * k12p + _A15_13 * k13p + _A15_14 * k14p))
        k16p = fphi(w + h * (_A16_1 * k1w + _A16_6 * k6w + _A16_7 * k7w + _A16_8 * k8w
                             + _A16_9 * k9w + _A16_13 * k13w + _A16_14 * k14w + _A16_15 * k15w))
        k16w = fw(phi + h * (_A16_1 * k1p + _A16_6 * k6p + _A16_7 * k7p + _A16_8 * k8p
                             + _A16_9 * k9p + _A16_13 * k13p + _A16_14 * k14p + _A16_15 * k15p))
        dp, dw = phi1 - phi, w1 - w
        bp, bw = h * k1p - dp, h * k1w - dw
        rows.append((
            x, h,
            phi, dp, bp, dp - h * k13p - bp,
            h * (_D4_1 * k1p + _D4_6 * k6p + _D4_7 * k7p + _D4_8 * k8p + _D4_9 * k9p + _D4_10 * k10p
                 + _D4_11 * k11p + _D4_12 * k12p + _D4_13 * k13p + _D4_14 * k14p + _D4_15 * k15p
                 + _D4_16 * k16p),
            h * (_D5_1 * k1p + _D5_6 * k6p + _D5_7 * k7p + _D5_8 * k8p + _D5_9 * k9p + _D5_10 * k10p
                 + _D5_11 * k11p + _D5_12 * k12p + _D5_13 * k13p + _D5_14 * k14p + _D5_15 * k15p
                 + _D5_16 * k16p),
            h * (_D6_1 * k1p + _D6_6 * k6p + _D6_7 * k7p + _D6_8 * k8p + _D6_9 * k9p + _D6_10 * k10p
                 + _D6_11 * k11p + _D6_12 * k12p + _D6_13 * k13p + _D6_14 * k14p + _D6_15 * k15p
                 + _D6_16 * k16p),
            h * (_D7_1 * k1p + _D7_6 * k6p + _D7_7 * k7p + _D7_8 * k8p + _D7_9 * k9p + _D7_10 * k10p
                 + _D7_11 * k11p + _D7_12 * k12p + _D7_13 * k13p + _D7_14 * k14p + _D7_15 * k15p
                 + _D7_16 * k16p),
            w, dw, bw, dw - h * k13w - bw,
            h * (_D4_1 * k1w + _D4_6 * k6w + _D4_7 * k7w + _D4_8 * k8w + _D4_9 * k9w + _D4_10 * k10w
                 + _D4_11 * k11w + _D4_12 * k12w + _D4_13 * k13w + _D4_14 * k14w + _D4_15 * k15w
                 + _D4_16 * k16w),
            h * (_D5_1 * k1w + _D5_6 * k6w + _D5_7 * k7w + _D5_8 * k8w + _D5_9 * k9w + _D5_10 * k10w
                 + _D5_11 * k11w + _D5_12 * k12w + _D5_13 * k13w + _D5_14 * k14w + _D5_15 * k15w
                 + _D5_16 * k16w),
            h * (_D6_1 * k1w + _D6_6 * k6w + _D6_7 * k7w + _D6_8 * k8w + _D6_9 * k9w + _D6_10 * k10w
                 + _D6_11 * k11w + _D6_12 * k12w + _D6_13 * k13w + _D6_14 * k14w + _D6_15 * k15w
                 + _D6_16 * k16w),
            h * (_D7_1 * k1w + _D7_6 * k6w + _D7_7 * k7w + _D7_8 * k8w + _D7_9 * k9w + _D7_10 * k10w
                 + _D7_11 * k11w + _D7_12 * k12w + _D7_13 * k13w + _D7_14 * k14w + _D7_15 * k15w
                 + _D7_16 * k16w),
        ))
        x += h
        phi, w, k1p, k1w = phi1, w1, k13p, k13w
        if abs(phi) > cap:
            raise Blowup(f"|phi| exceeded {cap} at x = {x}")
        if not sgn * w > 0.0:  # w turned: the top lies in this step
            break
        h *= min(grow, 0.9 * err**-0.125) if err > 0.0 else grow
        grow = 5.0
    return np.array(rows)


def _poly(c, k: int, t):
    """The dense output of the component whose start value is ``c[k]``, with
    coefficients c1..c7 = ``c[k + 1]``..``c[k + 7]``, at step fraction t:
    y0 + t (c1 + u (c2 + t (c3 + u (c4 + t (c5 + u (c6 + t c7)))))) with
    u = 1 - t.  ``c`` is one row for a float t, or the transposed rows for
    an array of t."""
    u = 1.0 - t
    y = c[k + 7]
    for i in range(6):
        y = c[k + 6 - i] + (t if i % 2 == 0 else u) * y
    return c[k] + t * y


def _dense(steps: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi and w at abscissae x from the steps' dense-output rows."""
    i = np.clip(np.searchsorted(steps[:, 0], x, side="right") - 1, 0, len(steps) - 1)
    c = steps[i].T
    t = (x - c[0]) / c[1]
    return _poly(c, 2, t), _poly(c, 10, t)


class _Half(NamedTuple):
    """The rising half of an arch, from its zero to its top."""

    steps: np.ndarray  # ``_dopri``'s rows
    width: float  # x at the top, where w = 0; inf if the run ended before it
    top: float  # phi at the top; nan if the run ended before it


def _half(problem: Problem, r0: float, positive: bool, x_stop: float, n_steps: int) -> _Half:
    """DOP853 from (0, +/-r0^(p-1)) until w changes sign, with the top
    located as the zero of w on that step's dense output, or until a step
    ends past ``x_stop``.  ``n_steps`` caps the accepted steps."""
    p, nl = problem.p, problem.nl
    e = 1.0 / (p - 1.0)

    def fphi(w: float) -> float:
        return abs(w) ** e if w >= 0.0 else -((-w) ** e)

    scale = max(nl.z_plus, -nl.z_minus)
    w0 = r0 ** (p - 1.0) if positive else -(r0 ** (p - 1.0))
    steps = _dopri(fphi, _scalar_dw(nl, problem.lam), w0, x_stop, n_steps, scale, 10.0 * scale)
    row = steps[-1].tolist()
    if math.copysign(1.0, w0) * (row[10] + row[11]) > 0.0:  # w keeps its sign at the step's end
        if row[0] + row[1] > x_stop:
            return _Half(steps, math.inf, math.nan)
        t = 1.0  # w turned within the rounding of the dense output's end value
    else:
        t = brentq(lambda t: _poly(row, 10, t), 0.0, 1.0, 1e-16)
    return _Half(steps, row[0] + t * row[1], _poly(row, 2, t))


def _reflect(half: _Half) -> _Half:
    """The other sign's half for an odd f, float for float the one ``_half``
    would run.  f(-s) = -f(s) and the pow of |w| hold exactly in floats, so
    (phi, w) -> (-phi, -w) maps every stage of one run onto the other's, and
    the step control reads only squares and |w0|: the steps and widths are
    the same, and phi, w and their coefficients change sign.  A value that
    cancels to zero is +0.0 in both runs, as 0.0 - v keeps it."""
    steps = 0.0 - half.steps
    steps[:, :2] = half.steps[:, :2]  # each step's start and width
    return _Half(steps, half.width, -half.top)


@ignores_underflow
def shoot(problem: Problem, r0: float, sign: str, n_steps: int, at=None) -> Profile:
    """Independent oracle: adaptive DOP853 for
    phi' = sgn(w)|w|^(1/(p-1)), w' = -lam (|phi|^{q-2} phi - f(phi)),
    w(0) = +/- r0^(p-1), sampled through its dense output.

    An arch is symmetric about its top, and |phi'| = r0 at every zero, so
    the trajectory is built from at most two rising halves, one per sign,
    each integrated once from its zero to its top (``_half``).  An arch of
    half width H starting at X is the rising half at x - X up to its top and
    its mirror image phi(2H - (x - X)), w -> -w, past it; the next arch
    starts at X + 2H with the other sign.  The tops and widths are the
    oracle's own: no time map is used.  For an odd f the second sign's half
    is the first one reflected (``_reflect``), not a second run: the first
    ran at least as far, and a shorter run is a prefix of a longer one, so
    the samples are those of a fresh run even where it would have stopped
    before its top.

    Samples lie at the increasing abscissae ``at`` or, by default, on the
    grid k/n_steps of [0, 1]; a run to a leading part of that grid is a
    prefix of the full one.  ``n_steps`` also caps the accepted steps of
    each half: exhausting it raises ``Blowup``, as does |phi| leaving
    10 max(z+, |z-|), which is how a slope above the half's bound shows.
    The first integral holds along the whole run, so the profile is one
    segment; ``turning_points`` lists the tops in the sampled range, with
    their ``half_width``, and ``nodes`` the zeros strictly inside it."""
    if r0 <= 0.0:
        raise ValueError(f"r0 must be positive, got {r0}")
    x = np.linspace(0.0, 1.0, n_steps + 1) if at is None else np.asarray(at, dtype=float)
    phi, w = np.empty(x.size), np.empty(x.size)
    halves: dict[bool, _Half] = {}
    turning: list[dict] = []
    nodes: list[float] = []
    start, positive, lo = 0.0, sign == SIGN_POS, 0
    while lo < x.size:
        if positive not in halves:  # each sign's half is run only as far as the samples need
            if problem.nl.odd and halves:  # the other sign's, reflected: it ran at least as far
                halves[positive] = _reflect(halves[not positive])
            else:
                halves[positive] = _half(problem, r0, positive, float(x[-1]) - start, n_steps)
        steps, width, top = halves[positive]
        top_x = start + width
        end = top_x + width
        hi = int(np.searchsorted(x, end, side="right"))
        v = x[lo:hi] - start
        fall = v > width
        phi[lo:hi], w_arch = _dense(steps, np.where(fall, 2.0 * width - v, v))
        w[lo:hi] = np.where(fall, -w_arch, w_arch)
        if x[0] <= top_x <= x[-1]:
            turning.append({"x": top_x, "phi": top, "kind": "arch_top", "double": False, "half_width": width})
        if x[0] < end < x[-1]:
            nodes.append(end)
        start, positive, lo = end, not positive, hi

    dphi = np.sign(w) * np.abs(w) ** (1.0 / (problem.p - 1.0))
    return Profile(x, phi, dphi, [], nodes, [(0, x.size - 1)], turning, r0, None)


@ignores_underflow
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


@ignores_underflow
def classify_regularity(problem: Problem, prof: Profile) -> RegularityReport:
    """Classify every critical point of a reconstructed profile.

    Under the validated hypotheses h vanishes on [z-, z+] only at z-, 0 and
    z+, and simply at z+/- (L+/- < 0).  So the critical set Z follows from
    the layout: a plateau edge sits at z+/- and is in Z with order 1, and an
    arch top never is.  A flat core with 2 < p < 4 is therefore C2 at its
    edges, where phi_xx ~ |x - chi|^((4-p)/(p-2)) tends to 0.

    Derivative limits near an isolated critical point chi follow from the
    first integral (|phi_x|^{p-1})' = -h(phi): the measured ratio
    |phi_x| / |x-chi|^(1/(p-1)) tends to |h(phi(chi))|^(1/(p-1)).  A check
    point sits at w = target/(kappa psi(0)), Newton's first iterate towards
    the x-distance ``target``, and reports its forward distance as ``delta``.

    Turning points of one (level, double) share one block of checks, listed
    at each with its own x; for an odd f the key is |level| (its arch and
    |h| are the same floats), and each entry keeps its own phi.
    """
    p, lam, nl = problem.p, problem.lam, problem.nl
    kappa = problem.kappa
    flat = prof.descriptor is not None and prof.descriptor.kind == "flat_core"
    c_points: list[dict] = []
    limit_checks: list[dict] = []
    second_checks: list[dict] = []
    blocks: dict[tuple[float, bool], list[dict]] = {}  # turning points of one level share checks

    def checks(tp: dict) -> list[dict]:
        v = tp["phi"]
        arch = Arch.at(nl, p, v, tp["double"])
        top, beta = arch.top, arch.beta
        w_per_x = 1.0 / (kappa * float(arch.psi(np.zeros(1))[0]))

        def at(target: float) -> tuple[float, float, float]:
            """delta, |phi_x| and h at the check point for the x-distance ``target``."""
            w = target * w_per_x
            if w >= top ** (1.0 / beta):
                raise OutOfRange(f"check distance {target} exceeds the arch half-width")
            h = w**beta
            G, m = arch.radicand(top - h, h)
            if G == 0.0:  # w^beta underflows as p -> 2 at a plateau edge
                raise OutOfRange(f"check distance {target} is below the float resolution of the arch")
            return kappa * arch.distance(w), _slope(problem, G), lam * m

        block = []
        if tp["kind"] == "arch_top":
            predicted = abs(lam * float(eval_m(nl, v))) ** (1.0 / (p - 1.0))
            fac = min(1.0, 0.25 * tp["half_width"] / 1e-2)
            for target in (1e-2 * fac, 1e-3 * fac, 1e-4 * fac):
                delta, mag, _ = at(target)
                measured = mag / delta ** (1.0 / (p - 1.0))
                block.append(
                    {
                        "phi": v,
                        "delta": delta,
                        "measured": measured,
                        "predicted": predicted,
                        "ratio": measured / predicted,
                    }
                )
        else:
            for target in (1e-3, 1e-4):
                delta, mag, h_near = at(target)
                block.append(
                    {
                        "phi": v,
                        "delta": delta,
                        "second_derivative": abs(h_near) * mag ** (2.0 - p) / (p - 1.0),
                        "tends_to_zero": 2.0 < p < 4.0,
                    }
                )
        return block

    for tp in prof.turning_points:
        edge = tp["kind"] == "plateau_edge"
        c_points.append(
            {
                "x": tp["x"],
                "phi": tp["phi"],
                "kind": tp["kind"],
                "h_value": lam * float(eval_m(nl, tp["phi"])),
                "in_Z": edge,
                "zero_order": 1 if edge else None,
            }
        )
        key = (abs(tp["phi"]) if nl.odd else tp["phi"]), tp["double"]
        if key not in blocks:
            blocks[key] = checks(tp)
        entries = ({"x": tp["x"], **c, "phi": tp["phi"]} for c in blocks[key])  # "phi" keeps its place
        (second_checks if edge else limit_checks).extend(entries)

    if p <= 2.0:
        label = "C2"
    elif flat and p < 4.0:
        label = "C1,1/(p-1); C2 off C\\Z"
    else:
        label = "C1,1/(p-1); C2 off C"
    return RegularityReport(
        smoothness_class=label,
        holder_exponent=1.0 / (p - 1.0),
        boundary_case=flat and p == 4.0,
        c_points=c_points,
        limit_checks=limit_checks,
        second_derivative_checks=second_checks,
    )
