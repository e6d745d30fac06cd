"""The benchmark's workloads: problem configs, seeded inputs, ops and checks.

Every op goes through plap's public functions (``plap.<name>``, looked up at
call time so the tracer's wrappers are seen) or through the ``plap`` command
line.  Set-up draws a workload's candidate inputs from the seed.  The
screening pass (``screen``) then tries each candidate once; the inputs that
pass form the pool the timed loop cycles over, and the ones that fail are
reported with their failures.  An op is ``run`` (timed: the call into plap)
and ``check`` (untimed: verify the output and return the bytes that go into
the output digest).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import plap
import plap.cli

RESIDUAL_TOL = 1e-9  # |matching residual| of a regular descriptor
ENERGY_TOL = plap.cli.ENERGY_TOL
ORACLE_TOL = plap.cli.ORACLE_TOL

@dataclass(frozen=True)
class Config:
    """One problem family; lambda is drawn log-uniformly from ``lam_range``."""

    name: str
    p: float
    q: float
    nonlinearity: dict
    lam_range: tuple[float, float]

    def build(self):
        params = dict(self.nonlinearity)
        kind = params.pop("kind")
        return plap.build_nonlinearity(kind, self.q, params)

    def spec(self, lam: float) -> dict:
        return {"p": self.p, "q": self.q, "lambda": lam, "nonlinearity": dict(self.nonlinearity)}


def _power(b_plus: float, b_minus: float, r_exp: float) -> dict:
    return {"kind": "power_asym", "b_plus": b_plus, "b_minus": b_minus, "r_exp": r_exp}


# q > p: the ranges straddle the pair-birth thresholds lambda*_1..lambda*_6
# (about 27..975 for qgtp_sym and 24..605 for qgtp_realp).
QGTP_SYM = Config("qgtp_sym", 2.0, 3.0, _power(1.0, 1.0, 5.0), (12.0, 1500.0))
QGTP_REALP = Config("qgtp_realp", 1.8, 3.0, _power(1.0, 1.0, 5.0), (12.0, 1500.0))
QGTP_ASYM = Config("qgtp_asym", 2.0, 3.0, _power(1.5, 1.0, 5.0), (12.0, 1500.0))
QGTP_REALQ = Config("qgtp_realq", 1.5, 2.5, _power(1.0, 1.0, 4.5), (12.0, 1500.0))
# q <= p: the ranges straddle the first thresholds where classes are born or
# broaden into flat-core continua (classical n^p lambda_1 for q = p, the
# "tilde" sequence for p > 2).
FLAT_Q3 = Config("flat_q3", 3.0, 3.0, _power(1.0, 1.0, 6.0), (14.0, 9000.0))
ASYM_Q2 = Config("asym_q2", 3.0, 2.0, _power(2.0, 1.0, 4.0), (10.0, 13000.0))
POLY_Q2 = Config(
    "poly_q2", 3.0, 2.0, {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0, -0.3]}, (10.0, 16000.0)
)
CUBIC_P2 = Config("cubic_p2", 2.0, 2.0, _power(1.0, 1.0, 4.0), (5.0, 530.0))
REALQ_Q25 = Config("realq_q2.5", 4.0, 2.5, _power(1.0, 2.0, 4.0), (10.0, 10000.0))


def lam_in_stratum(seed: int, stream: str, cfg: Config, k: int, strata: int, lam_range=None) -> float:
    """A log-uniform lambda in the middle fifth of the k-th of ``strata``
    equal log-width strata of ``lam_range`` (default ``cfg.lam_range``).

    Op cost rises steeply with lambda, and a pool holds only some 16
    lambdas per workload, so a freer draw moves the median latency from
    seed to seed.  This way seeds differ in their lambdas but not in their
    mix of easy and hard ones.
    """
    u = random.Random(f"{seed}/{stream}/{cfg.name}/{k}").random()
    lo, hi = lam_range or cfg.lam_range
    return lo * (hi / lo) ** ((k + 0.4 + 0.2 * u) / strata)


def _build_all(configs) -> dict:
    """Nonlinearity per config; a config that fails to build keeps its error,
    so each of its ops fails with it instead of the whole run."""
    out = {}
    for cfg in configs:
        try:
            out[cfg.name] = cfg.build()
        except Exception as exc:  # recorded per op by the runner
            out[cfg.name] = exc
    return out


def _problem(nls: dict, cfg: Config, lam: float):
    nl = nls[cfg.name]
    if isinstance(nl, Exception):
        raise nl
    return plap.Problem(p=cfg.p, nl=nl, lam=lam)


class Workload:
    name = ""
    trace_ops = 1  # ops in one traced block
    tracer = None  # set by the runner while a traced block runs
    candidates: list = []  # inputs drawn at set-up, in the order they are tried
    pool: list = []  # the candidates that passed the screening pass
    cycle = 0  # a timed run stops only after whole cycles; 0 means the pool

    def setup(self, seed: int, work_dir: Path) -> None:
        """Build the configs and draw ``candidates`` from the seed."""
        raise NotImplementedError

    def screen(self, attempt) -> list:
        """Try every candidate once with ``attempt(args) -> Op``; the pool is
        the candidates whose op passed.  Returns every op tried."""
        ops = [attempt(args) for args in self.candidates]
        self.pool = [args for args, op in zip(self.candidates, ops) if not op.failures]
        return ops

    def key(self, args) -> str:
        """Label of an op in the failure table."""
        raise NotImplementedError

    def run(self, args):
        raise NotImplementedError

    def check(self, args, out) -> tuple[bytes, list[tuple[str, str, str]]]:
        """Digest record, and (type, layer, message) for each failed check."""
        raise NotImplementedError


class _Sweep(Workload):
    configs: tuple = ()
    strata = 1  # lambdas per config

    def setup(self, seed, work_dir):
        self.nls = _build_all(self.configs)
        # interleaved, so that any stretch of the pool mixes every config
        self.candidates = [
            (cfg, lam_in_stratum(seed, self.name, cfg, k, self.strata))
            for k in range(self.strata)
            for cfg in self.configs
        ]

    def key(self, args):
        return args[0].name


class SweepQgtp(_Sweep):
    name = "sweep_qgtp"
    configs = (QGTP_SYM, QGTP_REALP, QGTP_ASYM, QGTP_REALQ)
    # an op costs 0.3-1.3 s depending on how many pairs lambda has, so the
    # latency quantiles need many lambdas to hold still from seed to seed
    strata = 8
    trace_ops = 4

    def run(self, args):
        cfg, lam = args
        return plap.structure(_problem(self.nls, cfg, lam), N=6)

    def check(self, args, out):
        failed = []
        if len(out.entries) != 12 or any(
            e.tag not in ("empty", "single", "pair", "continuum") for e in out.entries
        ):
            failed.append(("check:structure_entries", "output", str(len(out.entries))))
        tags = ",".join(f"{e.j}{e.sign}{e.tag}" for e in out.entries)
        return f"{args[0].name}|{args[1]!r}|{out.regime}|{tags}".encode(), failed


def descriptor_checks(descriptors) -> list[tuple[str, str, str]]:
    failed = []
    for d in descriptors:
        if d.kind == "regular" and not abs(d.residual) <= RESIDUAL_TOL:
            failed.append(("check:regular_residual", "output", f"{d.descriptor_id} {d.residual!r}"))
        elif d.kind == "flat_core" and not 0.0 < d.core_budget < 1.0:
            failed.append(("check:flat_core_budget", "output", f"{d.descriptor_id} {d.core_budget!r}"))
    return failed


class SweepQlep(_Sweep):
    name = "sweep_qlep"
    configs = (FLAT_Q3, ASYM_Q2, POLY_Q2, CUBIC_P2, REALQ_Q25)
    strata = 8
    trace_ops = 10

    def run(self, args):
        cfg, lam = args
        return plap.enumerate_solutions(_problem(self.nls, cfg, lam), j_max=6)

    def check(self, args, out):
        ids = ",".join(d.descriptor_id for d in out)
        return f"{args[0].name}|{args[1]!r}|{ids}".encode(), descriptor_checks(out)


class VerifyProfiles(Workload):
    name = "verify_profiles"
    configs = (FLAT_Q3, ASYM_Q2, QGTP_SYM)
    # Whether a profile verifies can flip when lambda moves by 1%, and it
    # flips for every descriptor at that lambda together.  So the candidates
    # come from many (lambda, class) slots, one class each: a stratified
    # log-uniform lambda per slot and the classes in turn.  Flips then thin
    # the pool evenly instead of taking whole blocks of it out.
    strata = 6
    classes = ((1, "+"), (2, "-"), (3, "+"), (1, "-"), (2, "+"), (3, "-"))
    trace_ops = 6

    def setup(self, seed, work_dir):
        nls = _build_all(self.configs)
        self.setup_failures = []
        slots = []
        for k in range(self.strata):
            for cfg in self.configs:
                lam = lam_in_stratum(seed, self.name, cfg, k, self.strata)
                sclass = plap.SolutionClass(*self.classes[k % len(self.classes)])
                try:
                    problem = _problem(nls, cfg, lam)
                    descs = plap.solve_class(problem, sclass)
                except Exception as exc:  # reported, never hidden
                    self.setup_failures.append(f"{cfg.name}|{lam!r}|{type(exc).__name__}: {exc}")
                    continue
                slots.append([(cfg, problem, d) for d in descs])
        # round-robin over the slots, so that any stretch of the pool mixes
        # every config and stratum
        self.candidates = [g[i] for i in range(max(map(len, slots), default=0)) for g in slots if i < len(g)]
        if not self.candidates:
            raise RuntimeError("no non-trivial descriptor to verify")

    def key(self, args):
        return args[0].name

    def run(self, args):
        _, problem, d = args
        prof = plap.reconstruct(problem, d, M=2048)
        energy = plap.energy_residual(problem, prof)
        # as in `plap verify`: shooting is uninformative at a tangency
        oracle = None if d.degenerate else plap.shoot_compare(problem, prof, n_steps=100_000)
        report = plap.classify_regularity(problem, prof)
        return energy, oracle, report

    def check(self, args, out):
        energy, oracle, report = out
        failed = []
        d = args[2]
        if not energy < ENERGY_TOL:
            failed.append(("check:energy", "output", f"{d.descriptor_id} {energy!r}"))
        if oracle is not None and not oracle < ORACLE_TOL:
            failed.append(("check:oracle", "output", f"{d.descriptor_id} {oracle!r}"))
        return f"{d.descriptor_id}|{report.smoothness_class}".encode(), failed


@dataclass(frozen=True)
class Command:
    """One ``plap`` command line; ``in_process`` runs it through
    ``plap.cli.main`` in this interpreter instead of a fresh one."""

    name: str
    config: str
    argv: tuple
    in_process: bool = False


class CliCold(Workload):
    name = "cli_cold"
    configs = (FLAT_Q3, QGTP_SYM)
    commands = ("validate", "diagram", "solve", "structure", "profile", "verify", "regularity")
    by_id = ("profile", "verify", "regularity")
    # every command once per cycle, so that every run times the same
    # command mix; a pass over all 14 (command, config) pairs is two cycles
    cycle = trace_ops = 7
    # One lambda per config is fixed at set-up, so a wide range would make
    # every run's cost depend on where its seed lands (2-6x for qgtp_sym).
    # This window lies between thresholds of both configs (lambda*_3 = 244
    # and lambda*_4 = 433 for qgtp_sym; lambda_2 = 226 and lambda_3 = 764,
    # tilde_1 = 176 and tilde_2 = 1412 for flat_q3), so every seed sees the
    # same class structure.
    lam_range = (260.0, 420.0)
    _JSON = {"validate", "solve", "structure", "verify", "regularity"}

    def setup(self, seed, work_dir):
        _build_all(self.configs)  # set-up builds every config, as in the other workloads
        rng = random.Random(f"{seed}/{self.name}/ids")
        self.work_dir = work_dir
        self.specs, self.ids = {}, {}
        for cfg in self.configs:
            path = work_dir / f"{cfg.name}.json"
            path.write_text(json.dumps(cfg.spec(lam_in_stratum(seed, self.name, cfg, 0, 1, self.lam_range))))
            self.specs[cfg.name] = path
            proc = self._plap(["solve", "--config", str(path)])
            if proc.returncode != 0:
                raise RuntimeError(f"set-up solve failed for {cfg.name}: {proc.stderr.strip()}")
            ids = [d["id"] for d in json.loads(proc.stdout)["descriptors"] if d["kind"] != "trivial"]
            self.ids[cfg.name] = rng.sample(ids, len(ids))  # the order they are tried in

    def _command(self, name, cfg, desc_id=None, in_process=False):
        argv = (name, "--config", str(self.specs[cfg.name]))
        if desc_id is not None:
            argv += ("--id", desc_id)
        return Command(name, cfg.name, argv, in_process)

    def screen(self, attempt):
        """Run each command once in this interpreter.  The commands that take
        an id try the seed's ids in turn; the first id for which all three
        pass is kept.  The pool is every passing (command, config) pair,
        configs alternating within a cycle and flipping between cycles."""
        ops, passed = [], {}
        for cfg in self.configs:
            for name in self.commands:
                if name in self.by_id:
                    continue
                op = attempt(self._command(name, cfg, in_process=True))
                ops.append(op)
                if not op.failures:
                    passed[name, cfg.name] = self._command(name, cfg)
            for desc_id in self.ids[cfg.name]:
                tried = [attempt(self._command(name, cfg, desc_id, True)) for name in self.by_id]
                ops += tried
                if not any(op.failures for op in tried):
                    passed.update({(n, cfg.name): self._command(n, cfg, desc_id) for n in self.by_id})
                    break
        pairs = [(self.commands[i % 7], self.configs[(i % 7 + i // 7) % 2].name) for i in range(14)]
        self.pool = [passed[pair] for pair in pairs if pair in passed]
        if len(self.pool) < 14:  # a left-out command breaks the cycles
            self.cycle = 1
        return ops

    def _plap(self, argv, stats_path: Path | None = None):
        if stats_path is None:
            cmd = [sys.executable, "-m", "plap.cli", *argv]
        else:
            shim = Path(__file__).with_name("cli_shim.py")
            cmd = [sys.executable, str(shim), "--stats", str(stats_path), "--", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=150)

    def key(self, args):
        return f"{args.name}:{args.config}"

    def run(self, args):
        if args.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = plap.cli.main(list(args.argv))
            return subprocess.CompletedProcess(args.argv, code, out.getvalue(), err.getvalue()), None
        if self.tracer is None:
            return self._plap(args.argv), None
        stats_path = self.work_dir / "cli_stats.npz"
        return self._plap(args.argv, stats_path), stats_path

    def check(self, args, out):
        proc, stats_path = out
        command = args.name
        layer = "cli"
        if stats_path is not None:
            layer = merge_cli_stats(self.tracer, stats_path) or layer
        failed = []
        if proc.returncode != 0:
            message = (proc.stderr.strip().splitlines() or [""])[-1]
            failed.append((f"exit_{proc.returncode}", layer, message))
        elif not _parses(command, proc.stdout, command in self._JSON):
            failed.append(("check:unparseable_output", "output", proc.stdout[:80]))
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        return f"{command}|{proc.returncode}|{digest}".encode(), failed


def merge_cli_stats(tracer, path: Path) -> str | None:
    """Fold a traced CLI run's counts and spans into ``tracer``; returns the
    span that was open when the command raised, if it did."""
    with np.load(path) as data:
        extra = json.loads(str(data["extra"]))
        spans = {k: data[k] for k in ("name", "parent", "start", "end")}
        spans["names"] = json.loads(str(data["names"]))
    path.unlink()
    tracer.merge(extra["snapshot"], spans, tracer.op)
    return extra["error_span"]


def _parses(command: str, text: str, is_json: bool) -> bool:
    try:
        if is_json:
            json.loads(text)
            return True
        lines = text.splitlines()
        if command == "diagram":
            return lines[0].startswith("n,") and len(lines) > 1
        # profile: CSV rows x,phi,dphi, then the JSON sidecar
        cut = next(i for i, line in enumerate(lines) if line.startswith("{"))
        rows = [list(map(float, line.split(","))) for line in lines[1:cut]]
        json.loads("\n".join(lines[cut:]))
        return lines[0] == "x,phi,dphi" and len(rows) > 1 and all(len(r) == 3 for r in rows)
    except (ValueError, IndexError, StopIteration):
        return False


WORKLOADS = {w.name: w for w in (SweepQgtp, SweepQlep, VerifyProfiles, CliCold)}
