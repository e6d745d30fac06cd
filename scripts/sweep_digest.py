"""Two sha256 per (workload, seed) over the outputs of all its candidates,
a third for ``sweep_qgtp`` over its configs' thresholds and for
``verify_profiles`` over its profiles' arrays.

    PYTHONPATH=src python scripts/sweep_digest.py > sweeps.txt

Draws the candidates of the benchmark's ``sweep_qgtp`` (``structure(N=6)``),
``sweep_qlep`` (``enumerate_solutions(j_max=6)``) and ``verify_profiles``
(``reconstruct``, energy residual, oracle and regularity of one descriptor)
workloads of ``perfbench/workloads.py`` at seeds 1-3, runs each once through
the workload's own ``run``, and prints one line per (workload, seed): the
sha256 of the reprs of every candidate's output (for ``verify_profiles`` the
triple (energy, oracle, report)) or of the exception it raised, one per line
in candidate order; the sha256 of the workload's own ``check`` records of the
same outputs (descriptor ids for ``sweep_qlep``, class tags for
``sweep_qgtp``, id and smoothness class for ``verify_profiles``; the
exception, where one was raised), as ``checks=<sha256>``; for ``sweep_qgtp``
only, the sha256 of the reprs of ``bifurcation_table(nl, p, 6)`` for each of
the workload's configs (or of the exception it raised), one per line in
config order, as ``folds=<sha256>``; for ``verify_profiles`` only, the sha256
of the bytes of every candidate's ``reconstruct(M=2048)`` (x, phi, dphi) and
of ``shoot`` at that profile's x (phi, dphi), or of the exception either
raised, in candidate order, as ``profiles=<sha256>``; then the workload, the
seed and the count of candidates.  That is 216 sweep calls, the screened-out
candidates included, 4 tables per ``sweep_qgtp`` line and about 15
descriptors per ``verify_profiles`` line.

A repr prints every float to the last bit, so two source trees give equal
first hashes exactly when every output is identical: run the script
against each (``PYTHONPATH=<tree>/src``) and diff the two.  Two trees whose
floats differ in the last bits can still agree on the second hash, on ids
and tags.  A ``StructureReport`` holds lambda and the class tags, not the
fold thresholds behind them, so a moved fold shows in the third hash alone:
a table's repr prints every threshold to the last bit.  A verify_profiles
output holds only the profile's residuals and its critical points, so a
moved sample of a profile or of its oracle shows in ``profiles=`` alone.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import plap  # noqa: E402
from workloads import SweepQgtp, SweepQlep, VerifyProfiles  # noqa: E402

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


def profiles(workload) -> str:
    """``profiles=`` and the sha256 of the bytes of every candidate's profile
    and of its oracle at the profile's x (or of the exception either raised)."""
    digest = hashlib.sha256()
    for _, problem, d in workload.candidates:
        try:  # a failing call is part of the digest; past a flat core the oracle may blow up
            prof = plap.reconstruct(problem, d, M=2048)
            digest.update(prof.x.tobytes() + prof.phi.tobytes() + prof.dphi.tobytes())
            sh = plap.shoot(problem, d.r, d.sign, 100_000, at=prof.x)
            digest.update(sh.phi.tobytes() + sh.dphi.tobytes())
        except Exception as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
    return "profiles=" + digest.hexdigest()


def main() -> None:
    extra = {SweepQgtp: tables, VerifyProfiles: profiles}
    with tempfile.TemporaryDirectory() as tmp:
        for cls in (SweepQgtp, SweepQlep, VerifyProfiles):
            for seed in SEEDS:
                workload = cls()
                workload.setup(seed, Path(tmp))
                reprs, checks = zip(*(outcome(workload, args) for args in workload.candidates))
                digest, checked = (hashlib.sha256("\n".join(lines).encode()).hexdigest() for lines in (reprs, checks))
                third = f"  {extra[cls](workload)}" if cls in extra else ""
                label = f"{workload.name} seed={seed} candidates={len(workload.candidates)}"
                print(f"{digest}  checks={checked}{third}  {label}")


if __name__ == "__main__":
    main()
