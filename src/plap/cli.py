"""Command-line interface.

    plap <command> --config spec.json [--out path] [--n N]
                   [--jmax J] [--id ID] [--cores a1,a2,...] [--lambdas l1,l2,...]

Commands: validate, diagram, solve, sweep, profile, verify, structure,
regularity.
Exit codes: 0 ok, 1 usage/config error, 2 hypothesis failure, 3 verification
failure.  Outputs are deterministic: identical configs yield byte-identical
files (floats are printed with 17 significant digits).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bifurcation, profile, solver, timemap
from .errors import ConfigError, HypothesisViolated, PlapError, ignores_underflow
from .nonlinearity import build_nonlinearity, locate_nonlinearity, real_number, validate_hypotheses

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_VERIFICATION = 3

ENERGY_TOL = 1e-8
ORACLE_TOL = 1e-6


@dataclass
class Numerics:
    """The counts a config may set; the quadrature tolerances are fixed
    (``timemap.QUAD_TOL``)."""

    grid: int = 2048
    ode_steps: int = 100_000

    def validate(self):
        if min(self.grid, self.ode_steps) <= 0:
            raise ConfigError("grid and ode_steps must be positive")


_TOP_KEYS = ("p", "q", "lambda", "nonlinearity", "numerics")


def _reject_unknown(given: dict, allowed, what: str) -> None:
    """Raise naming every key of ``given`` outside ``allowed``: a misspelled
    key must not fall back to a default."""
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")


def _count(value, what: str) -> int:
    """``value`` as an int; a number with a fractional part raises rather
    than being truncated."""
    number = real_number(value, what)
    if not number.is_integer():
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(number)


@dataclass
class RunConfig:
    p: float
    q: float
    lam: float
    nonlinearity: dict
    numerics: Numerics = field(default_factory=Numerics)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        try:
            nl_spec = dict(raw["nonlinearity"])
            num = raw.get("numerics", {})
            _reject_unknown(raw, _TOP_KEYS, "config")
            numerics = {k: _count(num.get(k, v), k) for k, v in vars(Numerics()).items()}
            _reject_unknown(num, numerics, "numerics")
            q = real_number(raw.get("q", nl_spec.get("q")), "q")
            if "q" in nl_spec and real_number(nl_spec["q"], "nonlinearity q") != q:
                raise ConfigError(f"q is {raw['q']!r} at the top level but {nl_spec['q']!r} in nonlinearity")
            cfg = cls(
                p=real_number(raw["p"], "p"),
                q=q,
                lam=real_number(raw.get("lambda", 1.0), "lambda"),
                nonlinearity=nl_spec,
                numerics=Numerics(**numerics),
            )
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        cfg.numerics.validate()
        if not (1.0 < cfg.p < math.inf and 1.0 < cfg.q < math.inf):
            raise ConfigError("p and q must be finite and exceed 1")
        if not 0.0 < cfg.lam < math.inf:
            raise ConfigError("lambda must be positive and finite")
        return cfg

    def family(self) -> tuple[str, float, dict]:
        """(kind, q, params) of the nonlinearity spec."""
        spec = dict(self.nonlinearity)
        kind = spec.pop("kind", None)
        if kind is None:
            raise ConfigError("nonlinearity.kind missing")
        spec.pop("q", None)
        return kind, self.q, spec

    def build_nl(self):
        return build_nonlinearity(*self.family())

    def build_problem(self) -> timemap.Problem:
        return timemap.Problem(p=self.p, nl=self.build_nl(), lam=self.lam)


def _fmt(v) -> str:
    if isinstance(v, float):
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.17g}"
    return str(v)


def _check_out(out: str | None) -> None:
    """Raise unless ``out`` names a file in an existing directory, so a bad
    path fails before any class is solved."""
    if not out:
        return
    path = Path(out)
    if path.is_dir():
        raise ConfigError(f"--out {out} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"--out {out}: no directory {path.parent}")


def _emit(text: str, out: str | Path | None):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_validate(cfg: RunConfig, args) -> int:
    nl = locate_nonlinearity(*cfg.family())
    report = validate_hypotheses(nl).to_json_dict()
    if report["passed"]:
        report["z_plus"] = nl.z_plus
        report["z_minus"] = nl.z_minus
    _emit(_json_text(report), args.out)
    return EXIT_OK if report["passed"] else EXIT_HYPOTHESIS


def cmd_diagram(cfg: RunConfig, args) -> int:
    n = args.n if args.n is not None else 8
    if n < 1 or n > 64:
        raise ConfigError(f"diagram index bound must be in 1..64, got {n}")
    nl = cfg.build_nl()
    table = bifurcation.bifurcation_table(nl, cfg.p, n)
    header = ["n", "lambda_tilde_plus", "lambda_tilde_minus", "lambda_star_plus", "lambda_star_minus"]
    if table.classical is not None:
        header.append("lambda_n")
    lines = [",".join(header)]
    for i, idx in enumerate(table.n):
        row = [str(idx), _fmt(table.tilde_plus[i]), _fmt(table.tilde_minus[i])]
        row.append(_fmt(table.star_plus[i]) if table.star_plus is not None else "")
        row.append(_fmt(table.star_minus[i]) if table.star_minus is not None else "")
        if table.classical is not None:
            row.append(_fmt(table.classical[i]))
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _solutions_payload(cfg: RunConfig, lam: float, descs) -> dict:
    return {"lambda": lam, "p": cfg.p, "q": cfg.q, "descriptors": [d.to_json_dict() for d in descs]}


def cmd_solve(cfg: RunConfig, args) -> int:
    j_max = args.jmax if args.jmax is not None else 4
    problem = cfg.build_problem()
    descs = solver.enumerate_solutions(problem, j_max)
    _emit(_json_text(_solutions_payload(cfg, problem.lam, descs)), args.out)
    return EXIT_OK


def _parse_lambdas(arg: str | None) -> list[float]:
    try:
        lams = [float(v) for v in (arg or "").split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --lambdas list: {exc}") from exc
    if not lams:
        raise ConfigError("--lambdas is required for sweep")
    return lams


def cmd_sweep(cfg: RunConfig, args) -> int:
    """``solve`` at every lambda of ``--lambdas`` in one process, as a JSON
    list of ``solve``'s payloads; the config's own lambda is not used."""
    lams = _parse_lambdas(args.lambdas)
    j_max = args.jmax if args.jmax is not None else 4
    results = solver.sweep(cfg.build_nl(), cfg.p, lams, j_max)
    _emit(_json_text([_solutions_payload(cfg, lam, descs) for lam, descs in zip(lams, results)]), args.out)
    return EXIT_OK


def _find_descriptor(cfg: RunConfig, args):
    """The descriptor named by ``--id`` among those ``solve`` lists up to
    ``--jmax`` (default 8), from one enumeration of the classes."""
    if not args.id:
        raise ConfigError("--id is required for this command")
    j_max = args.jmax if args.jmax is not None else 8
    problem = cfg.build_problem()
    for d in solver.enumerate_solutions(problem, j_max):
        if d.descriptor_id == args.id:
            return problem, d
    raise ConfigError(f"unknown descriptor id {args.id}")


def _parse_cores(arg: str | None):
    if not arg:
        return None
    try:
        return [float(v) for v in arg.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --cores list: {exc}") from exc


def cmd_profile(cfg: RunConfig, args) -> int:
    cores = _parse_cores(args.cores)  # a bad list or --out fails before any class is solved
    if args.out and Path(args.out).suffix == ".json":
        raise ConfigError(f"--out {args.out} is the path of the profile's JSON sidecar")
    problem, d = _find_descriptor(cfg, args)
    prof = profile.reconstruct(problem, d, M=cfg.numerics.grid, core_lengths=cores)
    lines = ["x,phi,dphi"]
    for x, ph, dp in zip(prof.x, prof.phi, prof.dphi):
        lines.append(f"{_fmt(float(x))},{_fmt(float(ph))},{_fmt(float(dp))}")
    _emit("\n".join(lines) + "\n", args.out)
    sidecar = {
        "descriptor": d.to_json_dict(),
        "flat_intervals": [[a, b] for a, b in prof.flat_intervals],
        "nodes": list(prof.nodes),
    }
    side_path = Path(args.out).with_suffix(".json") if args.out else None
    _emit(_json_text(sidecar), side_path)
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    problem, d = _find_descriptor(cfg, args)
    prof = profile.reconstruct(problem, d, M=cfg.numerics.grid)
    energy = profile.energy_residual(problem, prof)
    report = {
        "id": d.descriptor_id,
        "energy_residual": energy,
        "energy_tol": ENERGY_TOL,
        "energy_ok": energy < ENERGY_TOL,
    }
    oracle_ok = True
    if d.kind == "flat_core" or (d.kind == "regular" and not d.degenerate):
        sup = profile.shoot_compare(problem, prof, n_steps=cfg.numerics.ode_steps)
        oracle_ok = sup < ORACLE_TOL
        report.update({"oracle_sup_diff": sup, "oracle_tol": ORACLE_TOL, "oracle_ok": oracle_ok})
        if d.kind == "flat_core":
            report["oracle_note"] = "compared up to the first flat point only"
    else:
        report["oracle_note"] = "skipped (trivial or degenerate: shooting is uninformative)"
    _emit(_json_text(report), args.out)
    return EXIT_OK if (report["energy_ok"] and oracle_ok) else EXIT_VERIFICATION


def cmd_structure(cfg: RunConfig, args) -> int:
    n = args.n if args.n is not None else 4
    if n < 1:
        raise ConfigError("--n must be >= 1")
    problem = cfg.build_problem()
    rep = bifurcation.structure(problem, n)
    _emit(_json_text(rep.to_json_dict()), args.out)
    return EXIT_OK


def cmd_regularity(cfg: RunConfig, args) -> int:
    problem, d = _find_descriptor(cfg, args)
    prof = profile.reconstruct(problem, d, M=cfg.numerics.grid)
    rep = profile.classify_regularity(problem, prof)
    _emit(_json_text(rep.to_json_dict()), args.out)
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "diagram": cmd_diagram,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "profile": cmd_profile,
    "verify": cmd_verify,
    "structure": cmd_structure,
    "regularity": cmd_regularity,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="plap", description=__doc__)
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", required=True, help="problem spec JSON")
    ap.add_argument("--out", default=None, help="output path (default stdout)")
    ap.add_argument("--n", type=int, default=None, help="table/report depth")
    ap.add_argument("--jmax", type=int, default=None, help="largest class index")
    ap.add_argument("--id", default=None, help="descriptor id from a solve run")
    ap.add_argument("--cores", default=None, help="comma-separated plateau lengths")
    ap.add_argument("--lambdas", default=None, help="comma-separated lambdas for sweep")
    return ap


@ignores_underflow
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        _check_out(args.out)
        return _COMMANDS[args.command](cfg, args)
    except HypothesisViolated as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (PlapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
