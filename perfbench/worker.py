"""One benchmark process: set up a workload, then issue its ops one at a time.

Started by run.py with the checkout's ``src`` on PYTHONPATH:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --result OUT.json
    python3 perfbench/worker.py --workload W --seed N --probe

It prints ``READY`` once set-up is done (run.py times fresh interpreter ->
READY as ``setup_s``), then ``REF <seconds>``, the reference computation's
time right after set-up, which run.py scales that sample by; ``--probe``
exits there.  Then the screening pass
tries every candidate input once, untimed; the inputs that pass form the
pool, and the failures go to the result's ``screen`` table.  Untraced
(``--trace 0``) it cycles over the pool until ``--seconds`` have passed and
the current cycle is complete.  Traced (``--trace 1``) it runs the pool's
first ``trace_ops`` ops untraced and then traced, as pairs of blocks until
``--seconds`` would be exceeded; per-layer metrics come from set-up plus the
first traced block, so their counts repeat exactly for one seed.
"""

import time

_T0 = time.perf_counter()
import plap  # noqa: E402  (timed: this is the import every user pays)
import plap.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.optimize import brentq  # noqa: E402

from metrics import REF_NOMINAL_S, latency_summary, per_layer  # noqa: E402
from tracer import Tracer, save_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_SRC = Path(plap.__file__).resolve().parent

# The speed of a shared VM drifts by up to a third over minutes, so timed
# runs also time a fixed reference computation between ops and scale their
# times to a machine on which it takes REF_NOMINAL_S.  The reference mixes
# plap's kinds of work: a pure-Python loop, numpy on arrays the size of a
# quadrature level, and brentq with a numpy objective.  No plap code runs in
# it.
REF_EVERY_S = 0.25  # at most one reference sample per this much loop time
_REF_X = np.linspace(-3.0, 3.0, 2000)


def reference_s() -> float:
    """Seconds one run of the reference computation takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(50_000):
        acc += math.sqrt(i) * 1e-3 - acc * 1e-7
    for i in range(150):
        w = np.cosh(_REF_X) / np.cosh(0.5 * np.pi * np.sinh(_REF_X)) ** 2
        acc += float(np.sum(w * np.power(np.abs(np.tanh(_REF_X)) + 0.5, 1.5 + 0.01 * i)))
    for c in range(40):
        acc += brentq(lambda t: float(np.sum(np.exp(-_REF_X * _REF_X * t))) - 100.0 - c, 1e-4, 50.0, xtol=1e-12)
    if not math.isfinite(acc):
        raise RuntimeError("reference computation went wrong")
    return time.perf_counter() - t0


def interquartile_mean(samples) -> float:
    """Mean of the middle half.  Reference times fall in two bands (about
    15 and 21 ms) that come and go within a run, with outliers beyond them:
    a median jumps between the bands and a plain mean follows the outliers."""
    xs = sorted(samples)
    cut = len(xs) // 4
    return statistics.mean(xs[cut : len(xs) - cut])


@dataclass
class Op:
    key: str
    latency: float
    record: bytes
    failures: list = field(default_factory=list)  # (type, layer, message)


def _innermost_plap_frame(exc: BaseException) -> str:
    """module.function of the deepest plap frame in the traceback."""
    layer = "benchmark"
    tb = exc.__traceback__
    while tb is not None:
        path = Path(tb.tb_frame.f_code.co_filename)
        if path.parent == _SRC:
            layer = f"{path.stem}.{tb.tb_frame.f_code.co_name}"
        tb = tb.tb_next
    return layer


def run_op(wl, args, i: int, tracer: Tracer | None) -> Op:
    if tracer is not None:
        tracer.op = i
    t0 = time.perf_counter()
    try:
        out = wl.run(args)
    except Exception as exc:  # every failure is counted, none stops the run
        latency = time.perf_counter() - t0
        layer = tracer.failing_span(exc) if tracer is not None else None
        layer = layer or _innermost_plap_frame(exc)
        failure = (type(exc).__name__, layer, str(exc)[:200])
        return Op(wl.key(args), latency, f"error|{type(exc).__name__}".encode(), [failure])
    latency = time.perf_counter() - t0
    record, failures = wl.check(args, out)
    return Op(wl.key(args), latency, record, failures)


def screen(wl, traced: bool) -> dict:
    """Try every candidate input once; only those that pass are timed.

    Traced runs screen under a tracer of their own, so that a failure is
    put down to the innermost traced span, and the per-layer counts stay
    those of set-up and the first traced block."""
    tracer = Tracer() if traced else None
    with tracing(wl, tracer) if traced else contextlib.nullcontext():
        ops = wl.screen(lambda args: run_op(wl, args, -1, tracer))
    if not wl.pool:
        raise RuntimeError("no candidate input passed the screening pass")
    return {
        "attempted": len(ops),
        "failed": sum(bool(op.failures) for op in ops),
        "pool": len(wl.pool),
        "digest": digest(ops),
        "failures": failure_table(ops),
    }


def pool_op(wl, i: int, tracer: Tracer | None) -> Op:
    return run_op(wl, wl.pool[i % len(wl.pool)], i, tracer)


def digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.record + b"\n")
    return h.hexdigest()


def failure_table(ops) -> dict:
    """Per config: attempted, failed and '<type> @ <layer>' counts."""
    table = {}
    for op in ops:
        row = table.setdefault(op.key, {"attempted": 0, "failed": 0, "errors": {}, "examples": {}})
        row["attempted"] += 1
        if op.failures:
            row["failed"] += 1
        for kind, layer, message in op.failures:
            label = f"{kind} @ {layer}"
            row["errors"][label] = row["errors"].get(label, 0) + 1
            row["examples"].setdefault(label, message)
    return table


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def measure(wl, seconds: float) -> dict:
    ops = []
    refs = [reference_s() for _ in range(5)]
    cycle = wl.cycle or len(wl.pool)
    start = last_ref = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) % cycle:
        ops.append(pool_op(wl, len(ops), None))
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(reference_s())
            last_ref = time.perf_counter()
    wall = time.perf_counter() - start - sum(refs[5:])
    ok = [op.latency for op in ops if not op.failures]
    if not ok:
        raise RuntimeError("no op completed; latency is undefined")
    lat = latency_summary(ok)
    raw = {"ops_per_s": len(ok) / wall, "op_p50_s": lat["p50"]}
    scale = REF_NOMINAL_S / interquartile_mean(refs)
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(ok),
        # plap's failures are counted above; an untraced run has nothing to
        # cross-check its digests against
        "correct": True,
        "metrics": {
            "ops_per_s": raw["ops_per_s"] / scale,
            "op_p50_s": raw["op_p50_s"] * scale,
            "peak_rss_mb": peak_rss_mb(wl.name == "cli_cold"),
        },
        "raw_metrics": raw,
        "reference": {"nominal_s": REF_NOMINAL_S, "samples_s": refs, "time_scale": scale},
        "ops_failed_frac": 1.0 - len(ok) / len(ops),
        "wall_s": wall,
        "latency": lat,
        "digest_block": digest(ops[: wl.trace_ops]) if len(ops) >= wl.trace_ops else None,
        "digest_all": digest(ops),
        "failures": failure_table(ops),
        "ops": [[op.key, op.latency, not op.failures] for op in ops],
    }


@contextlib.contextmanager
def tracing(wl, tracer: Tracer):
    """Trace every plap call, the workload's child commands included."""
    tracer.install(plap)
    wl.tracer = tracer
    try:
        yield
    finally:
        tracer.uninstall()
        wl.tracer = None


def measure_traced(wl, tracer: Tracer, seconds: float, spans_path: Path, screened: dict) -> dict:
    k = wl.trace_ops
    blocks = []  # (traced, ops)
    first = None
    start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        blocks.append((False, [pool_op(wl, i, None) for i in range(k)]))
        with tracing(wl, tracer):
            blocks.append((True, [pool_op(wl, i, tracer) for i in range(k)]))
        if first is None:
            first = tracer.snapshot()
        pair_s = time.perf_counter() - t_pair
        if time.perf_counter() - start + pair_s > seconds:
            break

    def rate(traced: bool) -> float:
        ops = [op for t, block in blocks if t == traced for op in block]
        return sum(not op.failures for op in ops) / sum(op.latency for op in ops)

    overhead = 1.0 - rate(True) / rate(False)
    digests = [digest(block) for _, block in blocks]
    all_ops = [op for _, block in blocks for op in block]
    save_spans(spans_path, tracer.spans())
    return {
        "attempted": len(all_ops),
        "failed": sum(bool(op.failures) for op in all_ops),
        # tracing must change no output: every block, traced or not, digests alike
        "correct": len(set(digests)) == 1,
        "metrics": per_layer(first, IMPORT_S, overhead, screened["failed"]),
        "pairs": len(blocks) // 2,
        "digest_block": digests[0],
        "counts": first["counts"],
        "calls": {name: agg[0] for name, agg in first["stats"].items()},
        # failing layer = innermost traced span, so only traced blocks count here
        "failures": failure_table([op for t, block in blocks if t for op in block]),
        "spans_file": spans_path.name,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit once set-up is done")
    ap.add_argument("--result", type=Path, help="where to write the result JSON")
    args = ap.parse_args(argv)

    out_dir = Path(__file__).resolve().parent / "out"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    try:
        with tracing(wl, tracer) if tracer is not None else contextlib.nullcontext():
            wl.setup(args.seed, work_dir)
        print("READY", flush=True)
        # the machine's speed right after set-up, for run.py to scale it by
        print("REF", interquartile_mean(reference_s() for _ in range(5)), flush=True)
        if args.probe:
            return 0
        t0 = time.perf_counter()
        screened = screen(wl, tracer is not None)
        screened["wall_s"] = time.perf_counter() - t0
        if tracer is None:
            result = measure(wl, args.seconds)
        else:
            spans = out_dir / f"{wl.name}-seed{args.seed}-spans.npz"
            result = measure_traced(wl, tracer, args.seconds, spans, screened)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["screen"] = screened
    result["setup_failures"] = getattr(wl, "setup_failures", [])
    result["environment"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "import_s": IMPORT_S,
    }
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
