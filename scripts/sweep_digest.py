"""Two sha256 per (sweep workload, seed) over the outputs of all its
candidates, and for ``sweep_qgtp`` a third over its configs' thresholds.

    PYTHONPATH=src python scripts/sweep_digest.py > sweeps.txt

Draws the candidates of the benchmark's ``sweep_qgtp`` (``structure(N=6)``)
and ``sweep_qlep`` (``enumerate_solutions(j_max=6)``) workloads of
``perfbench/workloads.py`` at seeds 1-3, runs each once through the
workload's own ``run``, and prints one line per (workload, seed): the sha256
of the reprs of every candidate's output (or of the exception it raised),
one per line in candidate order; the sha256 of the workload's own ``check``
records of the same outputs (descriptor ids for ``sweep_qlep``, class tags
for ``sweep_qgtp``; the exception, where one was raised), as
``checks=<sha256>``; for ``sweep_qgtp`` only, the sha256 of the reprs of
``bifurcation_table(nl, p, 6)`` for each of the workload's configs (or of the
exception it raised), one per line in config order, as ``folds=<sha256>``;
then the workload, the seed and the count of candidates.  That is 216 calls,
the screened-out candidates included, and 4 tables per ``sweep_qgtp`` line.

A repr prints every float to the last bit, so two source trees give equal
first hashes exactly when every sweep output is identical: run the script
against each (``PYTHONPATH=<tree>/src``) and diff the two.  Two trees whose
floats differ in the last bits can still agree on the second hash, on ids
and tags.  A ``StructureReport`` holds lambda and the class tags, not the
fold thresholds behind them, so a moved fold shows in the third hash alone:
a table's repr prints every threshold to the last bit.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import plap  # noqa: E402
from workloads import SweepQgtp, SweepQlep  # noqa: E402

SEEDS = (1, 2, 3)


def outcome(workload, args) -> tuple[str, str]:
    """The repr of one candidate's output and its check record, or twice its
    exception's type and message."""
    try:
        out = workload.run(args)
    except Exception as exc:  # a failing candidate is part of the digest
        return (f"{type(exc).__name__}: {exc}",) * 2
    return repr(out), workload.check(args, out)[0].decode()


def tables(workload) -> str:
    """``folds=`` and the sha256 of the reprs of the N = 6 bifurcation table
    of each of the workload's configs (or of the exception it raised)."""
    lines = []
    for cfg in workload.configs:
        try:
            lines.append(repr(plap.bifurcation_table(workload.nls[cfg.name], cfg.p, 6)))
        except Exception as exc:  # a failing config is part of the digest
            lines.append(f"{type(exc).__name__}: {exc}")
    return "folds=" + hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for cls in (SweepQgtp, SweepQlep):
            for seed in SEEDS:
                workload = cls()
                workload.setup(seed, Path(tmp))
                reprs, checks = zip(*(outcome(workload, args) for args in workload.candidates))
                digest, checked = (hashlib.sha256("\n".join(lines).encode()).hexdigest() for lines in (reprs, checks))
                folds = f"  {tables(workload)}" if cls is SweepQgtp else ""
                label = f"{workload.name} seed={seed} candidates={len(workload.candidates)}"
                print(f"{digest}  checks={checked}{folds}  {label}")


if __name__ == "__main__":
    main()
