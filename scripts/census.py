"""Failure census over a seeded sample of admissible inputs.

    PYTHONPATH=src python scripts/census.py [--count 150] [--seed 1]

Draws ``--count`` inputs from the census box:

* p uniform in [1.3, 4];
* q < p, q = p or q > p with equal chance: q in [1.2, p), q = p, or
  q in p + [0.05, 2];
* f of kind ``power_asym`` with r_exp = q + [0.2, 3] and b+/- in [0.5, 2];
* lambda log-uniform in [10, 1e4].

For each input it runs ``enumerate_solutions(j_max=3)`` and
``structure(N=3)``; on each descriptor it runs ``reconstruct(M=512)``,
``energy_residual`` and, where ``plap verify`` would, ``shoot_compare``, and
on each profile that reconstructs, ``classify_regularity``.  It prints the
failures by kind x regime x p bucket x gap bin, where
gap = 1 - r/r_bound is a regular root's distance from its class's slope
bound; flat-core descriptors have the bin ``flat``, and failures of a whole
class or input the bin ``-``.  The kinds:

* ``ShapeError``: ``reconstruct`` could not assemble the profile;
* ``residual``: a regular root's matching residual exceeds 1e-9;
* ``lost tag`` / ``extra tag``: a class has fewer / more descriptors than
  its ``structure`` tag says (for q > p a "pair" is a lower bound, so only
  lost ones count);
* ``energy`` / ``oracle``: ``plap verify``'s energy or oracle test fails;
* ``<Error> in <stage>``: any other plap error, with the stage raising it;
* ``untyped <Exc> in <stage>``: an exception that is not a plap error.

The sample is a pure function of ``--count`` and ``--seed``, so two source
trees give the same table exactly when they fail on the same inputs: run the
script against each (``PYTHONPATH=<tree>/src``) and diff the two.  Only
public ``plap`` names are used.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter

import plap
from plap.cli import ENERGY_TOL, ORACLE_TOL

RESIDUAL_BOUND = 1e-9
J_MAX = 3
P_EDGES = (1.3, 1.6, 1.9, 2.2, 2.5, 2.8, 3.1, 3.4, 3.7)  # left edges of the p buckets
TAG_COUNT = {"empty": 0, "single": 1, "pair": 2, "continuum": 1}


def draw(rng: random.Random) -> dict:
    """One input of the census box; every input consumes the same variates."""
    p = rng.uniform(1.3, 4.0)
    regime = rng.randrange(3)
    u = rng.random()
    q = (1.2 + u * (p - 1.2), p, p + 0.05 + u * 1.95)[regime]
    return {
        "p": p,
        "q": q,
        "r_exp": q + rng.uniform(0.2, 3.0),
        "b_plus": rng.uniform(0.5, 2.0),
        "b_minus": rng.uniform(0.5, 2.0),
        "lam": 10.0 ** rng.uniform(1.0, 4.0),
    }


def regime_of(case: dict) -> str:
    q, p = case["q"], case["p"]
    return "q=p" if q == p else ("q<p" if q < p else "q>p")


def p_bucket(p: float) -> str:
    left = max(e for e in P_EDGES if e <= p)
    return f"[{left:.1f},{min(left + 0.3, 4.0):.1f})"


def gap_bin(d, problem) -> str:
    if d.kind == "flat_core":
        return "flat"
    b = plap.slope_bounds(problem)
    bound = b.r_pos if d.sign == "+" else b.r_neg
    gap = 1.0 - d.r / (bound if d.j == 1 else b.r_star)
    return "<1e-6" if gap < 1e-6 else ("<1e-3" if gap < 1e-3 else ">=1e-3")


def failure(exc: Exception, stage: str) -> str:
    """The kind of a failure raised in ``stage``."""
    untyped = "" if isinstance(exc, plap.PlapError) else "untyped "
    return f"{untyped}{type(exc).__name__} in {stage}"


def census_one(case: dict) -> tuple[int, list[tuple[str, str]]]:
    """The number of nontrivial descriptors of one input, and a (kind, gap
    bin) pair per failure."""
    nl = plap.build_nonlinearity(
        "power_asym", case["q"], {k: case[k] for k in ("b_plus", "b_minus", "r_exp")}
    )
    problem = plap.Problem(p=case["p"], nl=nl, lam=case["lam"])
    fails = []
    stage = "enumerate"
    try:
        descs = [d for d in plap.enumerate_solutions(problem, j_max=J_MAX) if d.kind != "trivial"]
        stage = "structure"
        report = plap.structure(problem, N=J_MAX)
    except Exception as exc:
        return 0, [(failure(exc, stage), "-")]

    found = Counter((d.j, d.sign) for d in descs)
    for e in report.entries:
        want, got = TAG_COUNT[e.tag], found[e.j, e.sign]
        if got < want:
            fails.append(("lost tag", "-"))
        elif got > want and regime_of(case) != "q>p":
            fails.append(("extra tag", "-"))

    for d in descs:
        gap = gap_bin(d, problem)
        if d.kind == "regular" and not abs(d.residual) <= RESIDUAL_BOUND:
            fails.append(("residual", gap))
        stage = "reconstruct"
        try:
            prof = plap.reconstruct(problem, d, M=512)
        except plap.ShapeError:
            fails.append(("ShapeError", gap))
            continue
        except Exception as exc:
            fails.append((failure(exc, stage), gap))
            continue
        try:
            stage = "energy_residual"
            energy = plap.energy_residual(problem, prof)
            if not energy < ENERGY_TOL:
                fails.append(("energy", gap))
            if d.kind == "flat_core" or not d.degenerate:
                stage = "shoot_compare"
                sup = plap.shoot_compare(problem, prof)
                if not sup < ORACLE_TOL:
                    fails.append(("oracle", gap))
        except Exception as exc:
            fails.append((failure(exc, stage), gap))
        try:
            plap.classify_regularity(problem, prof)
        except Exception as exc:
            fails.append((failure(exc, "classify_regularity"), gap))
    return len(descs), fails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--count", type=int, default=150, help="inputs to draw")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    table: Counter = Counter()
    kinds: Counter = Counter()
    descriptors = 0
    for _ in range(args.count):
        case = draw(rng)
        row = (regime_of(case), p_bucket(case["p"]))
        count, fails = census_one(case)
        descriptors += count
        for kind, gap in fails:
            table[(kind, *row, gap)] += 1
            kinds[kind] += 1

    print(
        f"census: seed {args.seed}, {args.count} inputs, {descriptors} descriptors, "
        f"{sum(kinds.values())} failures"
    )
    header = ("kind", "regime", "p", "gap", "count")
    rows = [(*key, str(c)) for key, c in sorted(table.items())]
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    for r in [header, *rows]:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    for kind, c in sorted(kinds.items()):
        print(f"total {kind}: {c}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
