"""Metric definitions shared by the runner and the benchmark's own test.

End-to-end metrics come from an untraced run; per-layer metrics come from a
traced run and are named ``<module>.<function>.<measure>``, where ``self_s``
is span time minus the time of its child spans.  ``BENCHMARK.json`` lists
``END_TO_END`` and ``REPORTED_PER_LAYER``.
"""

from __future__ import annotations

import statistics

# Times are scaled to a machine on which worker.reference_s() takes this long.
REF_NOMINAL_S = 0.025

END_TO_END = [  # name, unit, better
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

CLI_COMMANDS = ("validate", "diagram", "solve", "structure", "profile", "verify", "regularity")

PER_LAYER = [  # name, unit, better
    ("nonlinearity.build_nonlinearity.total_s", "s", "lower"),
    ("nonlinearity.eval_F.points", "count", "lower"),
    ("nonlinearity.eval_F.self_s", "s", "lower"),
    ("nonlinearity.eval_m.points", "count", "lower"),
    ("quadrature.tanh_sinh.calls", "count", "lower"),
    ("quadrature.tanh_sinh.self_s", "s", "lower"),
    ("quadrature.tanh_sinh.nodes", "count", "lower"),
    ("quadrature.tanh_sinh.levels_mean", "count", "lower"),
    ("quadrature.tanh_sinh_batch.calls", "count", "lower"),
    ("quadrature.tanh_sinh_batch.self_s", "s", "lower"),
    ("quadrature.tanh_sinh_batch.nodes", "count", "lower"),
    ("quadrature.tanh_sinh_batch.straggler_frac", "ratio", "lower"),
    ("quadrature.cumulative_gl.calls", "count", "lower"),
    ("quadrature.cumulative_gl.self_s", "s", "lower"),
    ("timemap.integral_I.calls", "count", "lower"),
    ("timemap.integral_I.total_s", "s", "lower"),
    ("timemap.integral_J.calls", "count", "lower"),
    ("timemap.integral_J.total_s", "s", "lower"),
    ("timemap.theta_alpha_grids.calls", "count", "lower"),
    ("timemap.theta_alpha_grids.points", "count", "lower"),
    ("timemap.theta_alpha_grids.total_s", "s", "lower"),
    ("timemap.level_pos.calls", "count", "lower"),
    ("timemap.level_neg.calls", "count", "lower"),
    ("timemap.brent.fevals", "count", "lower"),
    ("timemap.invert_arch_distance.calls", "count", "lower"),
    ("timemap.invert_arch_distance.total_s", "s", "lower"),
    ("solver.solve_class.calls", "count", "lower"),
    ("solver.solve_class.self_s", "s", "lower"),
    ("solver.matching_residual.calls", "count", "lower"),
    ("solver.brent.calls", "count", "lower"),
    ("solver.brent.fevals", "count", "lower"),
    ("solver.golden.calls", "count", "lower"),
    ("solver.golden.fevals", "count", "lower"),
    ("solver.root_yield", "ratio", "higher"),
    ("bifurcation.bifurcation_table.calls", "count", "lower"),
    ("bifurcation.bifurcation_table.total_s", "s", "lower"),
    ("bifurcation.find_minimizers.calls", "count", "lower"),
    ("bifurcation.find_minimizers.total_s", "s", "lower"),
    ("bifurcation.golden.fevals", "count", "lower"),
    ("bifurcation.eigenvalue_base.calls", "count", "lower"),
    ("profile.reconstruct.calls", "count", "lower"),
    ("profile.reconstruct.total_s", "s", "lower"),
    ("profile.shoot.calls", "count", "lower"),
    ("profile.shoot.total_s", "s", "lower"),
    ("profile.shoot.steps", "count", "lower"),
    ("profile.energy_residual.total_s", "s", "lower"),
    ("profile.classify_regularity.calls", "count", "lower"),
    ("profile.classify_regularity.total_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    *((f"cli.{c}.total_s", "s", "lower") for c in CLI_COMMANDS),
    ("cli.find_descriptor.classes_solved", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("screen.failed_inputs", "count", "lower"),
]

# Times of layers that some workloads never reach (fold search on q<=p,
# profiles on the sweeps, CLI commands outside cli_cold).  There they read
# 0.0 on every run, which a harness cannot tell from a value that was never
# measured, so they go to the result file and the printed summary but not
# into the JSON line; their call and step counts stay in it.
WORKLOAD_SPECIFIC_TIMES = {
    "quadrature.cumulative_gl.self_s",
    "timemap.invert_arch_distance.total_s",
    "bifurcation.bifurcation_table.total_s",
    "bifurcation.find_minimizers.total_s",
    "profile.reconstruct.total_s",
    "profile.shoot.total_s",
    "profile.energy_residual.total_s",
    "profile.classify_regularity.total_s",
    *(f"cli.{c}.total_s" for c in CLI_COMMANDS),
}
REPORTED_PER_LAYER = [m for m in PER_LAYER if m[0] not in WORKLOAD_SPECIFIC_TIMES]

_STAT_FIELDS = {"calls": 0, "total_s": 1, "self_s": 2}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(snapshot: dict, import_s: float, overhead_frac: float, screen_failed: int) -> dict[str, float]:
    """Per-layer metric values from a tracer snapshot."""
    stats, counts = snapshot["stats"], snapshot["counts"]

    def stat(span: str, field: str) -> float:
        return stats.get(span, (0, 0.0, 0.0))[_STAT_FIELDS[field]]

    special = {
        "quadrature.tanh_sinh.levels_mean": _ratio(
            counts.get("quadrature.tanh_sinh.levels", 0), stat("quadrature.tanh_sinh", "calls")
        ),
        "quadrature.tanh_sinh_batch.straggler_frac": _ratio(
            counts.get("quadrature.tanh_sinh_batch.stragglers", 0),
            counts.get("quadrature.tanh_sinh_batch.rows", 0),
        ),
        "solver.root_yield": _ratio(
            counts.get("solver.solve_class.regular", 0),
            stat("solver.brent", "calls") + stat("solver.golden", "calls"),
        ),
        "cli.import_s": import_s,
        "trace.overhead_frac": overhead_frac,
        "screen.failed_inputs": screen_failed,
    }
    special.update({f"cli.{c}.total_s": stat(f"cli.cmd_{c}", "total_s") for c in CLI_COMMANDS})
    out = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
            continue
        span, field = name.rsplit(".", 1)
        out[name] = stat(span, field) if field in _STAT_FIELDS else counts.get(name, 0)
    return out


def latency_summary(latencies: list[float]) -> dict:
    """Median, and the highest percentile with at least 10 samples beyond it.

    With n samples the tail is the (n-10)-th smallest, i.e. the
    100*(n-10)/n-th percentile; below 11 samples it falls back to the maximum.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n >= 11:
        tail, pct = lat[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = lat[-1], 100.0
    return {"n": n, "p50": statistics.median(lat), "tail": tail, "tail_pct": pct}
