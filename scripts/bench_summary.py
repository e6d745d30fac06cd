"""Committed benchmark numbers: end-to-end runs of perfbench over seeds.

    python scripts/bench_summary.py --index N [--seeds 1 2 3 4 5]
        [--workloads sweep_qgtp ...] [--seconds 15] [--baseline DIR]

Runs ``perfbench/run.py --trace 0`` once per (workload, seed) in this
checkout and, with ``--baseline``, in a second checkout (for instance a
``git clone`` of the parent commit), alternating which of the two goes first
from seed to seed.  Writes ``BENCH_<N>.json`` at the root of this checkout:
each run's JSON line, the median of every end-to-end metric per tree and
workload, the change-over-baseline ratio of those medians, and each tree's
git sha (``dirty`` when it has uncommitted changes to tracked files).  The
file is rewritten after every run, so an interrupted summary keeps the runs
it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep_qgtp", "sweep_qlep", "verify_profiles", "cli_cold")


def git_state(tree: Path) -> dict:
    """HEAD's sha and whether tracked files differ from it."""

    def git(*args):
        out = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``; its last stdout line, parsed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the run imports its own src
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def medians(runs: list[dict], tree: str) -> dict:
    """Per workload, the median of each metric over the tree's runs."""
    out: dict[str, dict[str, float]] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if r["tree"] == tree):
        lines = [r["line"] for r in runs if r["tree"] == tree and r["workload"] == workload]
        names = lines[0]["metrics"]
        out[workload] = {m: statistics.median(x["metrics"][m]["value"] for x in lines) for m in names}
        out[workload]["failed"] = sum(x["failed"] for x in lines)
        out[workload]["runs"] = len(lines)
    return out


def ratios(change: dict, baseline: dict) -> dict:
    """change/baseline of each median metric, per workload both trees ran."""
    return {
        w: {m: v / baseline[w][m] for m, v in row.items() if m not in ("failed", "runs")}
        for w, row in change.items()
        if w in baseline
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--index", type=int, required=True, help="writes BENCH_<index>.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--baseline", type=Path, help="a second checkout to run alongside this one")
    args = ap.parse_args(argv)

    trees = {"change": ROOT}
    if args.baseline is not None:
        trees["baseline"] = args.baseline.resolve()
    out_path = ROOT / f"BENCH_{args.index}.json"
    summary = {
        "command": "perfbench/run.py --trace 0",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "trees": {name: git_state(tree) for name, tree in trees.items()},
        "runs": [],
    }
    for workload in args.workloads:
        for n, seed in enumerate(args.seeds):
            order = list(trees) if n % 2 else list(trees)[::-1]
            for name in order:
                line = run_once(trees[name], workload, seed, args.seconds)
                summary["runs"].append({"tree": name, "workload": workload, "seed": seed, "line": line})
                print(f"{workload} seed={seed} {name}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()),
                      flush=True)
                med = summary["medians"] = {t: medians(summary["runs"], t) for t in trees}
                if "baseline" in trees:
                    summary["ratio_change_over_baseline"] = ratios(med["change"], med["baseline"])
                out_path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out_path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
