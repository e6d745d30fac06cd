"""Per-layer A/B timing of two source trees in one process.

    python scripts/ab_layers.py --base <tree> [--rounds 15]

Imports ``<tree>/src/plap`` and this checkout's ``src/plap`` side by side,
as two packages of different names, and times seventeen layers in each:

* the scalar level map ``level_pos`` on q = 2, f = 2s^3 / -|s|^3 at
  rho = 0.3 A(z+): the Brent inversion inside ``matching_residual`` and, for
  the other side of a class with arches of both signs, the root search;
* ``integral_I`` at a simple level: q = 3, f = |s|^3 s, p = 2, a = z+/2;
* ``integral_I`` at the double zero z+: q = 2, f = 2s^3 / -|s|^3, p = 3;
* ``Arch.derivative``, dI/dtop, on the latter (f, p) at top = z+/2: the
  integral of the fold searches' W' (a lone search's, and below three
  pending tops a round's);
* a fresh store scan: the 1023-level I of a new ``TimeMapCurves`` on the
  latter (f, p) at the area A(z+), by the rows form of the rule;
* ``reconstruct(M=2048)`` of S1+ for p = q = 2, f = s^3 at lambda = 60;
* the oracle ``shoot_compare`` on a ``reconstruct(M=2048)`` profile of S2+:
  for p = q = 2, f = s^3 at lambda = 60 (odd: one half, reflected for the
  negative arch) and for p = 3, q = 2, f = 2s^3 / -|s|^3 at lambda = 240
  (two halves);
* ``classify_regularity`` of S3+ for p = q = 2, f = s^3 at lambda = 120,
  whose tops at +z, -z, +z share one block of checks for an odd f;
* ``matching_residual`` of the mixed class S2+ at r = r*/2, lambda = 50:
  on q = 2, f = 2s^3 / -|s|^3, p = 3 (two sides) and on q = 2, f = s^3,
  p = 2 (odd, one shared side);
* a warm ``structure(N=6)`` at lambda = 300 for p = 2, q = 3,
  f = 1.5 s^4 / -s^4 (r_exp = 5), whose mixed classes run seven fold searches
  in lockstep;
* the same on the odd f = |s|^3 s, where one fold search serves every class;
* a warm ``enumerate_solutions(j_max=6)`` on the former f at
  lambda = (1 + 1e-6) lambda*_1, just above the first fold threshold, whose
  dip runs the fold search of the q > p root search (no perfbench workload
  times this path);
* a warm ``enumerate_solutions(j_max=6)``, the op of the q <= p sweep, on the
  odd f = s^3 with p = q = 2 and on f = 2s^3 / -|s|^3 with p = 3, q = 2, each
  call at the next of five lambdas in turn, each one root search of all its
  classes' equations, whose opening round reads the terms the store keeps
  from the first five calls on;
* the latter enumeration at a lambda never used before, the golden-ratio
  sequence 30 * 300^frac(k phi) in [30, 9000], so its opening round
  integrates the terms the store does not keep yet: 28% of those it reads
  in the first 76 calls (15 rounds and the warm-up call), 12% in 301, since
  the classes' crossings at one lambda fall on scan indices that others
  used at another.

Each round times every layer over a fixed batch of calls per tree, one call
of each tree in turn, alternating which tree goes first, so both trees see
the same drifts of a shared machine's speed.  The script prints, per layer,
the median microseconds per call of each tree over the rounds and their
ratio (this checkout over the base), so a ratio near 1 means no change.
Beside the store scan it prints each tree's peak RSS in MB for one cold
store scan in a fresh interpreter, and how far the scan raised that peak
above the one after import and set-up.
Only public ``plap`` names and ``plap.timemap``'s ``level_pos``, ``Arch`` and
``TimeMapCurves`` are used, so any two trees that keep them compare.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import itertools
import math
import os
import statistics
import subprocess
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
    "oracle S2+ odd": 10,
    "oracle S2+ asym": 4,
    "regularity S3+": 30,
    "residual asym": 100,
    "residual odd": 100,
    "structure N=6": 4,
    "structure N=6 odd": 10,
    "enumerate q>p dip": 20,
    "enumerate odd": 5,
    "enumerate asym": 5,
    "enumerate asym, fresh λ": 5,
}

_ENUMERATE_LAMS = (50.0, 80.0, 130.0, 210.0, 340.0)


# one cold store scan of the "store scan" layer in a fresh interpreter: the
# peak RSS in MB (Linux reports ru_maxrss in kB) before and after it
_COLD_SCAN = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import plap, plap.timemap as timemap
asym = plap.build_nonlinearity("power_asym", 2.0, {"b_plus": 2.0, "b_minus": 1.0, "r_exp": 4.0})
curves, a_plus = timemap.TimeMapCurves(asym, 3.0), plap.areas(asym)[0]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
curves.integrals(a_plus, False)
print(before / 1024, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def _cold_scan_rss(tree: Path) -> tuple[float, float]:
    """(peak RSS, its rise over the scan) in MB of one cold store scan of
    ``tree`` in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "-c", _COLD_SCAN, str(tree / "src")]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    before, after = map(float, out.split())
    return after, after - before


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
    profiles = {}  # layer -> (problem, profile) of the first descriptor of a class
    for layer, nl, p, lam, j in (
        ("oracle S2+ odd", cubic, 2.0, 60.0, 2),
        ("oracle S2+ asym", asym, 3.0, 240.0, 2),
        ("regularity S3+", cubic, 2.0, 120.0, 3),
    ):
        prob = plap.Problem(p=p, nl=nl, lam=lam)
        profiles[layer] = prob, plap.reconstruct(prob, plap.solve_class(prob, plap.SolutionClass(j, "+"))[0], M=2048)
    on_asym, on_odd = plap.Problem(p=3.0, nl=asym, lam=50.0), plap.Problem(p=2.0, nl=cubic, lam=50.0)
    r_asym, r_odd = (0.5 * plap.slope_bounds(prob).r_star for prob in (on_asym, on_odd))
    qgtp_asym = plap.build_nonlinearity("power_asym", 3.0, {"b_plus": 1.5, "b_minus": 1.0, "r_exp": 5.0})
    fold, fold_odd = (plap.Problem(p=2.0, nl=nl, lam=300.0) for nl in (qgtp_asym, qgtp))
    first = plap.bifurcation_table(qgtp_asym, 2.0, 1)
    dip = plap.Problem(p=2.0, nl=qgtp_asym, lam=(1 + 1e-6) * min(first.star_plus[0], first.star_minus[0]))
    sweep_odd, sweep_asym = (
        itertools.cycle([plap.Problem(p=p, nl=nl, lam=lam) for lam in _ENUMERATE_LAMS])
        for p, nl in ((2.0, cubic), (3.0, asym))
    )
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    fresh_asym = (plap.Problem(p=3.0, nl=asym, lam=30.0 * 300.0 ** (k * golden % 1.0)) for k in itertools.count())
    return {
        "level_pos scalar": lambda: timemap.level_pos(asym, 0.3 * a_plus),
        "integral_I simple": lambda: plap.integral_I(qgtp, 2.0, 0.5 * qgtp.z_plus),
        "integral_I at z+": lambda: plap.integral_I(asym, 3.0, asym.z_plus),
        "derivative": lambda: timemap.Arch(asym, 3.0, 0.5 * asym.z_plus, False).derivative(),
        "store scan": lambda: timemap.TimeMapCurves(asym, 3.0).integrals(a_plus, False),
        "reconstruct": lambda: plap.reconstruct(problem, descriptor, M=2048),
        "oracle S2+ odd": lambda: plap.shoot_compare(*profiles["oracle S2+ odd"]),
        "oracle S2+ asym": lambda: plap.shoot_compare(*profiles["oracle S2+ asym"]),
        "regularity S3+": lambda: plap.classify_regularity(*profiles["regularity S3+"]),
        "residual asym": lambda: plap.matching_residual(on_asym, mixed, r_asym),
        "residual odd": lambda: plap.matching_residual(on_odd, mixed, r_odd),
        "structure N=6": lambda: plap.structure(fold, 6),
        "structure N=6 odd": lambda: plap.structure(fold_odd, 6),
        "enumerate q>p dip": lambda: plap.enumerate_solutions(dip, 6),
        "enumerate odd": lambda: plap.enumerate_solutions(next(sweep_odd), 6),
        "enumerate asym": lambda: plap.enumerate_solutions(next(sweep_asym), 6),
        "enumerate asym, fresh λ": lambda: plap.enumerate_solutions(next(fresh_asym), 6),
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
    roots = {"base": args.base.resolve(), "this": ROOT}
    rss = {tree: _cold_scan_rss(root) for tree, root in roots.items()}
    trees = {tree: _layers(_load(root, f"plap_{tree}")) for tree, root in roots.items()}
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
    print(f"{'layer':<24}{'base':>12}{'this':>12}{'ratio':>8}")
    for layer in _BATCH:
        base, this = (statistics.median(times[tree][layer]) for tree in ("base", "this"))
        print(f"{layer:<24}{base:>12.1f}{this:>12.1f}{this / base:>8.3f}")
        if layer == "store scan":
            for k, label in enumerate(("  peak RSS, MB", "  its rise, MB")):
                base, this = rss["base"][k], rss["this"][k]
                print(f"{label:<24}{base:>12.1f}{this:>12.1f}{this / base if base else float('nan'):>8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
