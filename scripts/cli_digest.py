"""One sha256 per plap CLI call, over a fixed set of configs and lambdas.

    PYTHONPATH=src python scripts/cli_digest.py > digest.txt

Runs every command (validate, diagram, solve, sweep, structure, profile,
verify, regularity) on the five fixture families of ``tests/conftest.py`` and
the configs of ``perfbench/workloads.py``, at three lambdas each, and prints
one line per call: the sha256 of its exit code, stdout and stderr, then the
call.  ``solve`` and ``sweep`` lines end in the descriptor ids they listed,
``ids=a,b,...`` (for ``sweep``, one list per lambda, separated by ``;``), so
two trees whose floats differ by rounding can still be shown to agree on ids.
``profile``, ``verify`` and ``regularity`` run on the first regular and
the first flat-core descriptor that ``solve`` lists at that lambda; one
``sweep`` per config runs over all three lambdas.  The first of those
descriptors in each config also gets one ``profile`` at
``numerics.grid = 256`` and one ``verify`` at ``numerics.ode_steps = 20``
(which exits 1), so both numerics keys are digested too.  Last, on the qgtp
fixture, ``structure --n 1`` and ``solve --jmax 1`` run at lambda*_1 read
from ``bifurcation_table``, where S_1^+ has its tangent root, so the
solver's fold search is digested down to a root.

The CLI promises byte-identical output for identical configs, so two source
trees produce the same CLI output exactly when their digests are equal:
run the script against each (``PYTHONPATH=<tree>/src``) and diff the two.
All calls run in one process, in a fixed order, through ``plap.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from plap.bifurcation import bifurcation_table  # noqa: E402
from plap.cli import main  # noqa: E402
from workloads import (  # noqa: E402
    ASYM_Q2,
    CUBIC_P2,
    FLAT_Q3,
    POLY_Q2,
    QGTP_ASYM,
    QGTP_REALP,
    QGTP_REALQ,
    QGTP_SYM,
    REALQ_Q25,
    Config,
    _power,
)

# the tests/conftest.py fixtures, each with the p the tests pair it with
FIXTURES = (
    Config("cubic_odd", 2.0, 2.0, _power(1.0, 1.0, 4.0), (12.0, 200.0)),
    Config("asym", 3.0, 2.0, _power(2.0, 1.0, 4.0), (20.0, 2000.0)),
    Config("quintic_q3", 3.0, 3.0, _power(1.0, 1.0, 6.0), (30.0, 3000.0)),
    Config("qgtp", 2.0, 3.0, _power(1.0, 1.0, 5.0), (40.0, 800.0)),
    Config("quartic_q4", 4.0, 4.0, _power(1.0, 1.0, 6.0), (50.0, 5000.0)),
)
BENCH = (QGTP_SYM, QGTP_REALP, QGTP_ASYM, QGTP_REALQ, FLAT_Q3, ASYM_Q2, POLY_Q2, CUBIC_P2, REALQ_Q25)
POSITIONS = (0.2, 0.5, 0.8)  # lambdas at these log-fractions of each range
KNOBS = (("profile", {"grid": 256}), ("verify", {"ode_steps": 20}))  # non-default numerics


def call(argv: list[str]) -> tuple[str, str]:
    """(sha256 of exit code, stdout and stderr; stdout) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest(), out.getvalue()


def ids(out: str) -> str:
    """`` ids=...`` for a ``solve`` or ``sweep`` stdout; empty if it is no JSON."""
    try:
        payload = json.loads(out)
    except ValueError:
        return ""
    runs = payload if isinstance(payload, list) else [payload]
    return " ids=" + ";".join(",".join(d["id"] for d in run["descriptors"]) for run in runs)


def digest_config(cfg: Config, work: Path) -> None:
    lo, hi = cfg.lam_range
    lams = [lo * (hi / lo) ** t for t in POSITIONS]
    knobs_done = False
    for k, lam in enumerate(lams):
        path = work / f"{cfg.name}_{k}.json"
        path.write_text(json.dumps(cfg.spec(lam)))
        spec = ["--config", str(path)]
        label = f"{cfg.name} lambda={lam!r}"
        commands = [["structure", "--n", "6"], ["solve"]]
        if k == 0:  # lambda-free
            commands = [["validate"], ["diagram", "--n", "6"]] + commands
        for cmd in commands:
            digest, out = call(cmd + spec)
            suffix = ids(out) if cmd == ["solve"] else ""
            print(f"{digest}  {' '.join(cmd)} {label}{suffix}")
        try:
            descriptors = json.loads(out)["descriptors"]
        except (ValueError, KeyError):
            continue
        picks = [next((d for d in descriptors if d["kind"] == kind), None) for kind in ("regular", "flat_core")]
        for d in filter(None, picks):
            for cmd in ("profile", "verify", "regularity"):
                digest, _ = call([cmd, "--id", d["id"]] + spec)
                print(f"{digest}  {cmd} --id {d['id']} {label}")
            if not knobs_done:
                knobs_done = True
                for cmd, numerics in KNOBS:
                    knob = work / f"{cfg.name}_{k}_knob.json"
                    knob.write_text(json.dumps({**cfg.spec(lam), "numerics": numerics}))
                    digest, _ = call([cmd, "--id", d["id"], "--config", str(knob)])
                    print(f"{digest}  {cmd} --id {d['id']} {label} numerics={json.dumps(numerics)}")
    sweep = ["sweep", "--lambdas", ",".join(map(repr, lams))]
    digest, out = call(sweep + ["--config", str(work / f"{cfg.name}_0.json")])
    print(f"{digest}  {' '.join(sweep)} {cfg.name}{ids(out)}")


def digest_tangency(cfg: Config, work: Path) -> None:
    """``structure --n 1`` and ``solve --jmax 1`` at the config's lambda*_1."""
    lam = bifurcation_table(cfg.build(), cfg.p, 1).star_plus[0]
    path = work / f"{cfg.name}_star.json"
    path.write_text(json.dumps(cfg.spec(lam)))
    for cmd in (["structure", "--n", "1"], ["solve", "--jmax", "1"]):
        digest, out = call(cmd + ["--config", str(path)])
        suffix = ids(out) if cmd[0] == "solve" else ""
        print(f"{digest}  {' '.join(cmd)} {cfg.name} lambda={lam!r}{suffix}")


def main_digest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in FIXTURES + BENCH:
            digest_config(cfg, Path(tmp))
        digest_tangency(FIXTURES[3], Path(tmp))


if __name__ == "__main__":
    main_digest()
