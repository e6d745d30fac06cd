"""plap benchmark: one closed-loop client issuing one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; plap is imported from its ``src``.  With
``--trace 0`` it times set-up in 3 to 7 fresh interpreters (probes, then the
measuring process), reports the median, and prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics of a traced run.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result (failure table, digests, latency percentile, versions) goes
to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.  See README.md for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, REF_NOMINAL_S, REPORTED_PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep_qgtp", "sweep_qlep", "verify_profiles", "cli_cold")
# set-up is timed in probes (fresh interpreters that stop at READY) and once
# more in the measuring process: at least 2 probes, and up to 6 while they
# have taken less than PROBE_BUDGET_S
MIN_PROBES, MAX_PROBES, PROBE_BUDGET_S = 2, 6, 3.0
DEADLINE_S = 170.0  # the whole run, set-up included, must end within this


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def start_worker(argv: list[str], env: dict, deadline: float):
    """Start worker.py; returns (process, seconds to READY or None).

    The worker leads its own process group, so that killing it at the
    deadline also stops any plap command it is waiting on."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), kill)
    timer.start()
    ready = ref = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.startswith("REF "):
                ref = float(line.split()[1])
                break
        proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
        proc.stdout.close()
    return proc, ready, ref


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    # turn SIGTERM into SystemExit so that start_worker's cleanup still runs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "plap" / "__init__.py").is_file():
        print(f"error: no plap sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    # byte-compile first so that no timed set-up pays for compilation
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]),
        PYTHONWARNINGS="ignore",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_samples = []
    t_probes = time.perf_counter()
    while not args.trace and len(setup_samples) < MAX_PROBES and (
        len(setup_samples) < MIN_PROBES or time.perf_counter() - t_probes < PROBE_BUDGET_S
    ):
        proc, ready, ref = start_worker([*common, "--probe"], env, deadline)
        if proc.returncode != 0 or ready is None or ref is None:
            print(f"error: set-up probe failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        setup_samples.append((ready, ref))

    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    worker_args = [
        *common,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", str(result_path),
    ]
    proc, ready, ref = start_worker(worker_args, env, deadline)
    if proc.returncode != 0 or ready is None or ref is None or not result_path.is_file():
        print(f"error: benchmark worker failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    setup_samples.append((ready, ref))
    if not args.trace:
        # each set-up sample is scaled by the reference timed right after it
        # in the same process
        setup_s = statistics.median(s * REF_NOMINAL_S / ref for s, ref in setup_samples)
        result["metrics"] = {"setup_s": setup_s, **result["metrics"]}
        result["raw_metrics"]["setup_s"] = statistics.median(s for s, _ in setup_samples)
    result["setup_samples_s"] = setup_samples
    result["run"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
    }
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True))

    units = {name: unit for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} -> {result_path.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"{name} = {result['metrics'][name]:.6g} {unit}")
    reported = [name for name, _, _ in (REPORTED_PER_LAYER if args.trace else END_TO_END)]
    metrics = {name: result["metrics"][name] for name in reported}
    if not args.trace:
        lat = result["latency"]
        print(f"# op_tail_s = {lat['tail'] * result['reference']['time_scale']:.6g} s, p{lat['tail_pct']:.1f}"
              f" of n={lat['n']}; ops_failed_frac = {result['ops_failed_frac']:.4f}")
    screened = result["screen"]
    print(f"# screening: {screened['failed']} of {screened['attempted']} candidate inputs failed"
          f" and are not timed; the pool holds {screened['pool']}")
    for stage, table in (("screening", screened["failures"]), ("timed", result["failures"])):
        for key, row in table.items():
            for label, count in row["errors"].items():
                print(f"# failed ({stage}) {key}: {count}/{row['attempted']} {label}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
