"""Smoke test of scripts/census.py: the sample, the table and its totals."""

import contextlib
import importlib.util
import io
import re
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "census.py"
_spec = importlib.util.spec_from_file_location("census", _SCRIPT)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def _run(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert census.main(list(argv)) == 0
    return out.getvalue()


def test_draws_stay_in_the_box():
    import random

    rng = random.Random(3)
    regimes = set()
    for _ in range(300):
        c = census.draw(rng)
        p, q = c["p"], c["q"]
        assert 1.3 <= p <= 4.0
        assert 1.2 <= q < p or q == p or p + 0.05 <= q <= p + 2.0
        assert q + 0.2 <= c["r_exp"] <= q + 3.0
        assert 0.5 <= min(c["b_plus"], c["b_minus"]) <= max(c["b_plus"], c["b_minus"]) <= 2.0
        assert 10.0 <= c["lam"] <= 1e4
        regimes.add(census.regime_of(c))
    assert regimes == {"q<p", "q=p", "q>p"}


def test_census_smoke():
    text = _run("--count", "2")
    lines = text.splitlines()
    head = re.fullmatch(r"census: seed 1, 2 inputs, (\d+) descriptors, (\d+) failures", lines[0])
    assert head is not None, lines[0]
    assert lines[1].split() == ["kind", "regime", "p", "gap", "count"]
    rows = [line for line in lines[2:] if not line.startswith("total ")]
    totals = [line for line in lines[2:] if line.startswith("total ")]
    assert sum(int(row.split()[-1]) for row in rows) == int(head.group(2))
    assert sum(int(t.rsplit(":", 1)[1]) for t in totals) == int(head.group(2))
    # the sample depends on the seed and count only
    assert _run("--count", "2") == text
