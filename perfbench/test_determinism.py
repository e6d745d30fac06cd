"""Checks of the benchmark itself; slow, so not part of the tier-1 suite.

    python3 -m pytest perfbench/test_determinism.py -q

For every workload: two traced runs of one seed give identical work counts,
call counts, screening results and output digests, and every traced block
digests like the untraced block before it (the run reports ``correct`` only
then); an untraced run of the same seed screens alike, fails no timed op and
digests its first ops to the same value.  The
printed metrics match BENCHMARK.json, and the benchmark refuses to run
without the plap sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11
WORKLOADS = ("sweep_qgtp", "sweep_qlep", "verify_profiles", "cli_cold")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from metrics import END_TO_END, PER_LAYER, REPORTED_PER_LAYER  # noqa: E402


def run(workload: str, trace: int, seconds: float, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = run(workload, trace, 1 if trace else 6)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return last, full


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_digests_repeat(workload):
    last_a, a = result(workload, 1)
    last_b, b = result(workload, 1)
    assert last_a["correct"] and last_b["correct"]
    assert list(last_a["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert set(a["metrics"]) >= {name for name, _, _ in PER_LAYER}
    assert a["counts"] == b["counts"]
    assert a["calls"] == b["calls"]
    assert a["digest_block"] == b["digest_block"]
    assert a["screen"] == {**b["screen"], "wall_s": a["screen"]["wall_s"]}

    last_u, untraced = result(workload, 0)
    assert list(last_u["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in last_u["metrics"].values())
    assert last_u["failed"] == 0
    assert untraced["digest_block"] == a["digest_block"]
    assert untraced["screen"]["digest"] == a["screen"]["digest"]


def test_spec_matches_metric_tables():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == REPORTED_PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("sweep_qlep", 0, 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
