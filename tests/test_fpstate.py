"""The public entry points run under a caller's ``np.seterr(under="raise")``
and give the floats of numpy's default state, which ignores underflow."""

import json
import warnings

import numpy as np
import pytest

from plap import timemap
from plap.bifurcation import structure
from plap.cli import main
from plap.nonlinearity import build_nonlinearity
from plap.profile import classify_regularity, energy_residual, reconstruct, shoot_compare
from plap.solver import SolutionClass, enumerate_solutions, solve_class
from plap.timemap import Problem, integral_I

_ASYM_Q3 = {"b_plus": 2.0, "b_minus": 1.0, "r_exp": 4.0}


def _outcome(op) -> tuple[str, list[str]]:
    """The repr of ``op()``'s result, or its exception's type and message,
    with the RuntimeWarnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(op())
        except Exception as exc:
            out = f"{type(exc).__name__}: {exc}"
    return out, [str(w.message) for w in caught]


def _raising_then_default(op):
    """``op``'s outcome under underflow "raise", then in numpy's default
    state with the lambda-free stores emptied, so both runs integrate."""
    with np.errstate(under="raise"):
        first = _outcome(op)
    timemap.time_map_curves.cache_clear()
    return first, _outcome(op)


@pytest.mark.parametrize("p, fraction", [(1.1, 0.5), (3.0, None)], ids=["p1.1-half-z+", "p3-level-1e-200"])
def test_integral_I(p, fraction):
    # w^beta and the tail band underflow at p = 1.1 (beta = 11), and F and
    # a^q at a level of 1e-200, where G then reads 0 and the rule fails
    # with a typed error, as it does in the default state
    nl = build_nonlinearity("power_asym", 3.0, _ASYM_Q3)
    level = 1e-200 if fraction is None else fraction * nl.z_plus
    first, again = _raising_then_default(lambda: integral_I(nl, p, level))
    assert first == again
    assert first[0].startswith("QuadratureFailure") if fraction is None else float(first[0]) > 0.0


def test_enumerate_solutions_at_p_near_one():
    nl = build_nonlinearity("power_asym", 3.0, _ASYM_Q3)
    first, again = _raising_then_default(lambda: enumerate_solutions(Problem(p=1.1, nl=nl, lam=50.0), 3))
    assert first == again


def test_sweep_qgtp_op():
    nl = build_nonlinearity("power_asym", 3.0, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 5.0})
    first, again = _raising_then_default(lambda: structure(Problem(p=2.0, nl=nl, lam=300.0), 6))
    assert first == again


def test_sweep_qlep_op():
    nl = build_nonlinearity("power_asym", 2.0, _ASYM_Q3)
    first, again = _raising_then_default(lambda: enumerate_solutions(Problem(p=3.0, nl=nl, lam=400.0), 6))
    assert first == again


def test_verify_profiles_op():
    # flat_q3's S2-: reconstruct, energy residual, oracle and regularity
    nl = build_nonlinearity("power_asym", 3.0, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 6.0})

    def op():
        problem = Problem(p=3.0, nl=nl, lam=300.0)
        (d,) = solve_class(problem, SolutionClass(2, "-"))
        prof = reconstruct(problem, d, M=2048)
        return energy_residual(problem, prof), shoot_compare(problem, prof), classify_regularity(problem, prof)

    first, again = _raising_then_default(op)
    assert first == again


def test_cli_cold_op(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3.0, "q": 2.0, "lambda": 400.0, "nonlinearity": {"kind": "power_asym", **_ASYM_Q3}}))
    nl = build_nonlinearity("power_asym", 2.0, _ASYM_Q3)
    (d,) = solve_class(Problem(p=3.0, nl=nl, lam=400.0), SolutionClass(1, "+"))
    timemap.time_map_curves.cache_clear()

    def op():
        code = main(["verify", "--config", str(cfg), "--id", d.descriptor_id])
        return code, capsys.readouterr()

    first, again = _raising_then_default(op)
    assert first == again and first[0].startswith("(0, ")
