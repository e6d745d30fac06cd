"""Per-layer A/B timing of two source trees in one process.

    python scripts/ab_layers.py --base <tree> [--rounds 15]

Imports ``<tree>/src/plap`` and this checkout's ``src/plap`` side by side,
as two packages of different names, and times twelve layers in each:

* the scalar level map ``level_pos`` on q = 2, f = 2s^3 / -|s|^3 at
  rho = 0.3 A(z+): the Brent inversion inside ``matching_residual`` and, for
  the other side of a class with arches of both signs, the root search;
* ``integral_I`` at a simple level: q = 3, f = |s|^3 s, p = 2, a = z+/2;
* ``integral_I`` at the double zero z+: q = 2, f = 2s^3 / -|s|^3, p = 3;
* ``Arch.derivative``, dI/dtop, on the latter (f, p) at top = z+/2: the
  integral of every fold search's W';
* a fresh store scan: the batched 1023-level I of a new ``TimeMapCurves``
  on the latter (f, p) at the area A(z+);
* ``reconstruct(M=2048)`` of S1+ for p = q = 2, f = s^3 at lambda = 60;
* ``matching_residual`` of the mixed class S2+ at r = r*/2, lambda = 50:
  on q = 2, f = 2s^3 / -|s|^3, p = 3 (two sides) and on q = 2, f = s^3,
  p = 2 (odd, one shared side);
* a warm ``structure(N=6)`` at lambda = 300 for p = 2, q = 3,
  f = 1.5 s^4 / -s^4 (r_exp = 5), whose mixed classes run seven fold searches;
* the same on the odd f = |s|^3 s, where one fold search serves every class;
* a warm ``enumerate_solutions(j_max=6)``, the op of the q <= p sweep, on the
  odd f = s^3 with p = q = 2 and on f = 2s^3 / -|s|^3 with p = 3, q = 2, each
  call at the next of five lambdas in turn, so no call reads the solver's
  memo: each runs one root search of all its classes' equations.

Each round times every layer over a fixed batch of calls per tree, one call
of each tree in turn, alternating which tree goes first, so both trees see
the same drifts of a shared machine's speed.  The script prints, per layer,
the median microseconds per call of each tree over the rounds and their
ratio (this checkout over the base), so a ratio near 1 means no change.
Only public ``plap`` names and ``plap.timemap``'s ``level_pos``, ``Arch`` and
``TimeMapCurves`` are used, so any two trees that keep them compare.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import itertools
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# layer name -> calls per timing
_BATCH = {
    "level_pos scalar": 200,
    "integral_I simple": 200,
    "integral_I at z+": 200,
    "derivative": 200,
    "store scan": 6,
    "reconstruct": 20,
    "residual asym": 100,
    "residual odd": 100,
    "structure N=6": 4,
    "structure N=6 odd": 10,
    "enumerate odd": 5,
    "enumerate asym": 5,
}

_ENUMERATE_LAMS = (50.0, 80.0, 130.0, 210.0, 340.0)


def _load(tree: Path, name: str):
    """The package ``tree/src/plap`` imported under the name ``name``."""
    pkg_dir = tree / "src" / "plap"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def _layers(plap) -> dict:
    """One zero-argument callable per layer, with its inputs built up front."""
    timemap = importlib.import_module(plap.__name__ + ".timemap")
    qgtp = plap.build_nonlinearity("power_asym", 3.0, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 5.0})
    asym = plap.build_nonlinearity("power_asym", 2.0, {"b_plus": 2.0, "b_minus": 1.0, "r_exp": 4.0})
    cubic = plap.build_nonlinearity("power_asym", 2.0, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 4.0})
    a_plus = plap.areas(asym)[0]
    problem = plap.Problem(p=2.0, nl=cubic, lam=60.0)
    descriptor = plap.solve_class(problem, plap.SolutionClass(1, "+"))[0]
    mixed = plap.SolutionClass(2, "+")
    on_asym, on_odd = plap.Problem(p=3.0, nl=asym, lam=50.0), plap.Problem(p=2.0, nl=cubic, lam=50.0)
    r_asym, r_odd = (0.5 * plap.slope_bounds(prob).r_star for prob in (on_asym, on_odd))
    qgtp_asym = plap.build_nonlinearity("power_asym", 3.0, {"b_plus": 1.5, "b_minus": 1.0, "r_exp": 5.0})
    fold, fold_odd = (plap.Problem(p=2.0, nl=nl, lam=300.0) for nl in (qgtp_asym, qgtp))
    sweep_odd, sweep_asym = (
        itertools.cycle([plap.Problem(p=p, nl=nl, lam=lam) for lam in _ENUMERATE_LAMS])
        for p, nl in ((2.0, cubic), (3.0, asym))
    )
    return {
        "level_pos scalar": lambda: timemap.level_pos(asym, 0.3 * a_plus),
        "integral_I simple": lambda: plap.integral_I(qgtp, 2.0, 0.5 * qgtp.z_plus),
        "integral_I at z+": lambda: plap.integral_I(asym, 3.0, asym.z_plus),
        "derivative": lambda: timemap.Arch(asym, 3.0, 0.5 * asym.z_plus, False).derivative(),
        "store scan": lambda: timemap.TimeMapCurves(asym, 3.0).integrals(a_plus, False),
        "reconstruct": lambda: plap.reconstruct(problem, descriptor, M=2048),
        "residual asym": lambda: plap.matching_residual(on_asym, mixed, r_asym),
        "residual odd": lambda: plap.matching_residual(on_odd, mixed, r_odd),
        "structure N=6": lambda: plap.structure(fold, 6),
        "structure N=6 odd": lambda: plap.structure(fold_odd, 6),
        "enumerate odd": lambda: plap.enumerate_solutions(next(sweep_odd), 6),
        "enumerate asym": lambda: plap.enumerate_solutions(next(sweep_asym), 6),
    }


def _time_pair(fns: dict, calls: int, first: str) -> dict:
    """Mean microseconds per call of each tree's ``fns[tree]`` over ``calls``
    calls each, interleaved call by call, tree ``first`` leading."""
    order = sorted(fns, key=lambda tree: tree != first)
    total = dict.fromkeys(fns, 0.0)
    gc.collect()
    for i in range(calls):
        for tree in order if i % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            fns[tree]()
            total[tree] += time.perf_counter() - start
    return {tree: t / calls * 1e6 for tree, t in total.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, type=Path, help="root of the baseline source tree")
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args(argv)
    trees = {"base": _layers(_load(args.base.resolve(), "plap_base")), "this": _layers(_load(ROOT, "plap_this"))}
    for layers in trees.values():  # warm node caches and imports
        for fn in layers.values():
            fn()
    times = {tree: {layer: [] for layer in _BATCH} for tree in trees}
    for k in range(args.rounds):
        for layer, calls in _BATCH.items():
            fns = {tree: layers[layer] for tree, layers in trees.items()}
            for tree, us in _time_pair(fns, calls, "base" if k % 2 == 0 else "this").items():
                times[tree][layer].append(us)
    print(f"{args.rounds} rounds; median us per call")
    print(f"{'layer':<20}{'base':>12}{'this':>12}{'ratio':>8}")
    for layer in _BATCH:
        base, this = (statistics.median(times[tree][layer]) for tree in ("base", "this"))
        print(f"{layer:<20}{base:>12.1f}{this:>12.1f}{this / base:>8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
