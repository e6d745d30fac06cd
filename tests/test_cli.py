import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plap
from plap.cli import main


def solving_probe(monkeypatch) -> list:
    """Records every ``Arch.psi`` pass, which every numerical path reaches
    from an empty store (emptied here, as in a fresh process)."""
    plap.timemap.time_map_curves.cache_clear()
    passes = []
    psi = plap.timemap.Arch.psi

    def counted(arch, *args, **kwargs):
        passes.append(arch)
        return psi(arch, *args, **kwargs)

    monkeypatch.setattr(plap.timemap.Arch, "psi", counted)
    return passes


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "p": 2.0,
        "q": 2.0,
        "lambda": 2 * np.pi**2,
        "nonlinearity": {"kind": "power_asym", "b_plus": 1.0, "b_minus": 1.0, "r_exp": 4.0},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestValidate:
    def test_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["L_plus"] < 0

    def test_hypothesis_failure_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            q=3.0,
            nonlinearity={"kind": "power_asym", "b_plus": 1.0, "b_minus": 1.0, "r_exp": 2.0},
        )
        assert main(["validate", "--config", cfg]) == 2

    def test_malformed_json_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", "--config", str(bad)]) == 1

    def test_missing_field_exit_1(self, tmp_path):
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps({"q": 2.0}))
        assert main(["validate", "--config", str(bad)]) == 1

    def test_numerics_not_an_object_exit_1(self, tmp_path):
        assert main(["validate", "--config", write_config(tmp_path, numerics=5)]) == 1

    @pytest.mark.parametrize(
        "nonlinearity, key",
        [
            ({"kind": "power_asym", "b_plus": 1.0, "r_exp": 4.0}, "b_minus"),
            ({"kind": "polynomial"}, "coeffs"),
        ],
    )
    def test_missing_family_key_exit_1(self, tmp_path, capsys, nonlinearity, key):
        assert main(["validate", "--config", write_config(tmp_path, nonlinearity=nonlinearity)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize(
        "nonlinearity",
        [
            {"kind": "power_asym", "b_plus": None, "b_minus": 1.0, "r_exp": 4.0},
            {"kind": "polynomial", "coeffs": 5},
            {"kind": "power_asym", "b_plus": 10**400, "b_minus": 1.0, "r_exp": 4.0},
        ],
        ids=["b_plus_null", "coeffs_int", "b_plus_overflow"],
    )
    def test_family_value_of_wrong_type_exit_1(self, tmp_path, capsys, nonlinearity):
        assert main(["validate", "--config", write_config(tmp_path, nonlinearity=nonlinearity)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "must be numbers" in captured.err

    def test_subnormal_coefficient_exit_1(self, tmp_path, capsys):
        nonlinearity = {"kind": "polynomial", "coeffs": [0.0, -5e-324, 0.0, 5e-324, 1.0]}
        cfg = write_config(tmp_path, q=2.5, nonlinearity=nonlinearity)
        assert main(["validate", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "coeffs[1] = -5e-324" in captured.err

    def test_validates_once(self, tmp_path, monkeypatch):
        import plap.cli
        import plap.nonlinearity

        calls = []
        real = plap.nonlinearity.validate_hypotheses

        def counting(nl):
            calls.append(nl)
            return real(nl)

        monkeypatch.setattr(plap.nonlinearity, "validate_hypotheses", counting)
        monkeypatch.setattr(plap.cli, "validate_hypotheses", counting)
        assert main(["validate", "--config", write_config(tmp_path)]) == 0
        assert len(calls) == 1


class TestDiagram:
    def test_q_equals_p_has_classical_column(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "diagram.csv"
        assert main(["diagram", "--config", cfg, "--n", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[-1] == "lambda_n"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        # p = 2: flat-core thresholds are infinite
        assert all(r[1] == "inf" and r[2] == "inf" for r in rows)
        assert float(rows[0][-1]) == pytest.approx(np.pi**2, rel=1e-12)
        # star columns are empty for q = p
        assert all(r[3] == "" and r[4] == "" for r in rows)

    def test_star_columns_for_q_above_p(self, tmp_path):
        cfg = write_config(
            tmp_path,
            q=3.0,
            nonlinearity={"kind": "power_asym", "b_plus": 1.0, "b_minus": 1.0, "r_exp": 5.0},
        )
        out = tmp_path / "diagram.csv"
        assert main(["diagram", "--config", cfg, "--n", "2", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert float(rows[0][3]) > 0
        assert float(rows[0][3]) == pytest.approx(float(rows[0][4]), rel=1e-11)

    def test_star_columns_for_asymmetric_f(self, tmp_path):
        cfg = write_config(
            tmp_path,
            q=3.0,
            nonlinearity={"kind": "power_asym", "b_plus": 1.5, "b_minus": 1.0, "r_exp": 5.0},
        )
        out = tmp_path / "diagram.csv"
        assert main(["diagram", "--config", cfg, "--n", "6", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        stars = np.array([[float(r[3]), float(r[4])] for r in rows])
        assert stars.shape == (6, 2)
        assert np.all(np.isfinite(stars)) and np.all(stars > 0)

    def test_fold_below_first_scan_point(self, tmp_path):
        # the S_1 fold sits at rho/A ~ 4e-10, below the fold scan's 1e-7 start
        cfg = write_config(
            tmp_path,
            p=3.0,
            q=3.1,
            nonlinearity={"kind": "power_asym", "b_plus": 1.0, "b_minus": 1.0, "r_exp": 3.15},
        )
        out = tmp_path / "diagram.csv"
        assert main(["diagram", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 8
        assert all(0 < float(r[3]) < float(r[1]) for r in rows)

    def test_bound_integrals_computed_once(self, tmp_path, monkeypatch):
        # diagram, structure and solve on one p > 2 (f, p) compute I(z_plus)
        # and J(z_minus) once, in the store's bound_weight entries
        import plap.timemap

        plap.timemap.time_map_curves.cache_clear()
        real = plap.timemap.integral_I
        endpoint_calls = []

        def counting(nl, p, a, tol=plap.timemap.QUAD_TOL):
            if a == nl.z_plus:  # I(z_plus), or J(z_minus) through the reflection
                endpoint_calls.append((nl, tol))
            return real(nl, p, a, tol)

        monkeypatch.setattr(plap.timemap, "integral_I", counting)
        cfg = write_config(
            tmp_path,
            p=3.0,
            q=3.0,
            nonlinearity={"kind": "power_asym", "b_plus": 1.5, "b_minus": 1.0, "r_exp": 6.0},
            **{"lambda": 300.0},
        )
        for command in ("diagram", "structure", "solve"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        assert len(endpoint_calls) == 2

    def test_bad_n_exit_1(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["diagram", "--config", cfg, "--n", "65"]) == 1
        assert main(["diagram", "--config", cfg, "--n", "0"]) == 1

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        main(["diagram", "--config", cfg, "--n", "4", "--out", str(out1)])
        main(["diagram", "--config", cfg, "--n", "4", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSolveRoundTrip:
    def test_solve_profile_verify(self, tmp_path):
        cfg = write_config(tmp_path)
        solve_out = tmp_path / "solve.json"
        assert main(["solve", "--config", cfg, "--jmax", "2", "--out", str(solve_out)]) == 0
        payload = json.loads(solve_out.read_text())
        ids = [d["id"] for d in payload["descriptors"]]
        assert len(ids) == 3  # trivial + S1+ + S1-
        nontrivial = [d for d in payload["descriptors"] if d["kind"] != "trivial"]
        assert {d["sign"] for d in nontrivial} == {"+", "-"}

        prof_out = tmp_path / "profile.csv"
        d0 = nontrivial[0]
        assert (
            main(
                [
                    "profile",
                    "--config",
                    cfg,
                    "--id",
                    d0["id"],
                    "--jmax",
                    "2",
                    "--out",
                    str(prof_out),
                ]
            )
            == 0
        )
        rows = prof_out.read_text().strip().splitlines()
        assert rows[0] == "x,phi,dphi"
        first = rows[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        sidecar = json.loads((tmp_path / "profile.json").read_text())
        assert sidecar["descriptor"]["id"] == d0["id"]
        assert sidecar["nodes"] == []

        assert main(["verify", "--config", cfg, "--id", d0["id"], "--jmax", "2"]) == 0

    def test_unknown_id_exit_1(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["profile", "--config", cfg, "--id", "deadbeef0000"]) == 1
        assert main(["verify", "--config", cfg, "--id", "deadbeef0000"]) == 1

    def test_trivial_id_round_trips(self, tmp_path):
        cfg = write_config(tmp_path)
        solve_out = tmp_path / "solve.json"
        main(["solve", "--config", cfg, "--jmax", "1", "--out", str(solve_out)])
        payload = json.loads(solve_out.read_text())
        trivial = [d for d in payload["descriptors"] if d["kind"] == "trivial"][0]
        out = tmp_path / "trivial.csv"
        assert main(["profile", "--config", cfg, "--id", trivial["id"], "--out", str(out)]) == 0
        assert main(["verify", "--config", cfg, "--id", trivial["id"]]) == 0

    def test_lookup_makes_one_search(self, tmp_path, capsys, monkeypatch):
        # a known and an unknown id are each looked up in one root search
        # of every class's equation
        import plap.solver

        cfg = write_config(tmp_path)
        assert main(["solve", "--config", cfg, "--jmax", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        d0 = [d for d in payload["descriptors"] if d["kind"] == "regular"][0]
        searched = []
        roots = plap.solver._roots

        def counting(problem, searches):
            searched.append(searches)
            return roots(problem, searches)

        monkeypatch.setattr(plap.solver, "_roots", counting)
        assert main(["profile", "--config", cfg, "--id", d0["id"]]) == 0
        assert capsys.readouterr().out.startswith("x,phi,dphi")
        assert len(searched) == 1
        searched.clear()
        assert main(["profile", "--config", cfg, "--id", "deadbeef0000", "--jmax", "3"]) == 1
        assert "unknown descriptor id deadbeef0000" in capsys.readouterr().err
        assert len(searched) == 1

    def test_missing_id_exit_1(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["profile", "--config", cfg]) == 1

    @staticmethod
    def _profile_flat_core(tmp_path, quintic_q3, cores):
        """Exit code of ``profile --cores cores`` on quintic_q3's S1+ flat core."""
        from plap.bifurcation import bifurcation_table

        tab = bifurcation_table(quintic_q3, 3.0, 1)
        cfg = write_config(
            tmp_path,
            p=3.0,
            q=3.0,
            nonlinearity={"kind": "power_asym", "b_plus": 1.0, "b_minus": 1.0, "r_exp": 6.0},
            **{"lambda": 1.5 * tab.tilde_plus[0]},
        )
        solve_out = tmp_path / "solve.json"
        main(["solve", "--config", cfg, "--jmax", "1", "--out", str(solve_out)])
        payload = json.loads(solve_out.read_text())
        fc = [d for d in payload["descriptors"] if d["kind"] == "flat_core"][0]
        return main(
            [
                "profile",
                "--config",
                cfg,
                "--id",
                fc["id"],
                "--cores",
                cores,
                "--out",
                str(tmp_path / "p.csv"),
            ]
        )

    def test_bad_cores_exit_1(self, tmp_path, quintic_q3):
        assert self._profile_flat_core(tmp_path, quintic_q3, "0.001") == 1

    def test_nan_cores_exit_1(self, tmp_path, quintic_q3, capsys):
        # NaN fails no `>` test, so it must be rejected explicitly
        assert self._profile_flat_core(tmp_path, quintic_q3, "nan") == 1
        assert capsys.readouterr().err.startswith("error:")

    @staticmethod
    def _regular_id(tmp_path) -> tuple[str, str]:
        """A config and the id of its S1+ regular descriptor (p = q = 2, f = s^3, lambda = 60)."""
        cfg = write_config(tmp_path, **{"lambda": 60.0})
        solve_out = tmp_path / "solve.json"
        assert main(["solve", "--config", cfg, "--jmax", "1", "--out", str(solve_out)]) == 0
        descs = json.loads(solve_out.read_text())["descriptors"]
        return cfg, next(d["id"] for d in descs if d["kind"] == "regular" and d["sign"] == "+")

    def test_cores_on_a_regular_descriptor_exit_1(self, tmp_path, capsys):
        # S1+ of p = q = 2, f = s^3 at lambda = 60 has no flat core, so any
        # --cores list is a mismatch rather than ignored
        cfg, d_id = self._regular_id(tmp_path)
        capsys.readouterr()
        assert main(["profile", "--config", cfg, "--id", d_id, "--cores", "0.5,0.2"]) == 1
        assert capsys.readouterr().err.startswith("error: expected 0 core lengths, got 2")

    @pytest.mark.parametrize("out, sidecar", [("run.v2/prof", "run.v2/prof.json"), ("./prof", "prof.json")])
    def test_sidecar_replaces_the_suffix_of_the_file_name(self, tmp_path, monkeypatch, out, sidecar):
        # the sidecar sits next to the profile, whatever dots its directories
        # or a leading "./" hold
        cfg, d_id = self._regular_id(tmp_path)
        (tmp_path / "work" / "run.v2").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "work")
        assert main(["profile", "--config", cfg, "--id", d_id, "--out", out]) == 0
        assert Path(out).read_text().startswith("x,phi,dphi")
        assert json.loads(Path(sidecar).read_text())["descriptor"]["id"] == d_id
        written = sorted(str(f.relative_to(".")) for f in Path(".").rglob("*") if f.is_file())
        assert written == sorted({str(Path(out)), sidecar})

    def test_json_out_exits_1_before_solving(self, tmp_path, capsys, monkeypatch):
        # the sidecar would overwrite the profile itself
        cfg, d_id = self._regular_id(tmp_path)
        solved = solving_probe(monkeypatch)
        capsys.readouterr()
        out = tmp_path / "prof.json"
        assert main(["profile", "--config", cfg, "--id", d_id, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert solved == [] and not out.exists()

    def test_unwritable_sidecar_exits_1(self, tmp_path, capsys):
        # a write that fails after the checks of --out is an error line too
        cfg, d_id = self._regular_id(tmp_path)
        (tmp_path / "prof.json").mkdir()
        capsys.readouterr()
        assert main(["profile", "--config", cfg, "--id", d_id, "--out", str(tmp_path / "prof")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / 'prof.json'}")

    def test_verify_flat_core_past_equilibrium(self, tmp_path, capsys):
        # S1+ flat core of p = q = 3, f = s^5 at lambda = 300: the shooting oracle
        # escapes after the first flat point, so it must stop there
        cfg = write_config(
            tmp_path,
            p=3.0,
            q=3.0,
            nonlinearity={"kind": "power_asym", "b_plus": 1.0, "b_minus": 1.0, "r_exp": 6.0},
            **{"lambda": 300.0},
        )
        assert main(["verify", "--config", cfg, "--id", "b5f909b193f3", "--jmax", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle_ok"] is True
        assert report["oracle_note"] == "compared up to the first flat point only"

    def test_verify_arch_top_near_slope_bound(self, tmp_path, capsys):
        # S2- of p = 3, q = 2, f = 2s^3 / -|s|^3 at lambda = 300 has r 3.4e-4
        # below its slope bound; for p > 2 phi' is not Lipschitz at the arch
        # tops, where the oracle's local error estimate shrinks its steps
        cfg = write_config(
            tmp_path,
            p=3.0,
            q=2.0,
            nonlinearity={"kind": "power_asym", "b_plus": 2.0, "b_minus": 1.0, "r_exp": 4.0},
            **{"lambda": 300.0},
        )
        assert main(["verify", "--config", cfg, "--id", "985cb80e9c04"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle_sup_diff"] < 1e-7

    def test_verify_step_budget_too_small_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, numerics={"ode_steps": 20})
        assert main(["solve", "--config", cfg, "--jmax", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        d0 = [d for d in payload["descriptors"] if d["kind"] == "regular"][0]
        assert main(["verify", "--config", cfg, "--id", d0["id"], "--jmax", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "step budget" in captured.err

    def test_solve_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        main(["solve", "--config", cfg, "--jmax", "2", "--out", str(out1)])
        main(["solve", "--config", cfg, "--jmax", "2", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv, overrides, code, message",
    [
        (["solve"], {"q": 3.0, "nonlinearity": {"kind": "power_asym", "b_plus": 1.0, "b_minus": 1.0,
                                                "r_exp": 2.5}}, 2, "hypothesis failure:"),
        (["structure", "--n", "0"], {}, 1, "--n must be >= 1"),
        (["solve"], {"nonlinearity": {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 4.0}}, 1, "nonlinearity.kind missing"),
        (["solve"], {"numerics": {"grid": 0}}, 1, "grid and ode_steps must be positive"),
        (["profile", "--id", "deadbeef0000", "--cores", "a,b"], {}, 1, "bad --cores list"),
    ],
    ids=["r_exp-below-q", "structure-n-0", "kind-missing", "grid-0", "bad-cores-unknown-id"],
)
def test_error_exits_before_solving(tmp_path, capsys, monkeypatch, argv, overrides, code, message):
    solved = solving_probe(monkeypatch)
    assert main([argv[0], "--config", write_config(tmp_path, **overrides), *argv[1:]]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err.splitlines()[0]
    assert solved == []


_OUT_ARGS = {
    "validate": [],
    "diagram": ["--n", "2"],
    "solve": ["--jmax", "1"],
    "sweep": ["--lambdas", "20,40"],
    "profile": ["--id", "deadbeef0000"],
    "verify": ["--id", "deadbeef0000"],
    "structure": ["--n", "2"],
    "regularity": ["--id", "deadbeef0000"],
}


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("command", sorted(_OUT_ARGS))
def test_unwritable_out_exits_1_before_solving(tmp_path, capsys, monkeypatch, command, target):
    # a missing directory or a directory as --out used to end, after every
    # class was solved, in a traceback from the write; at p = 3 every
    # command but validate integrates, so the probe would see a solve
    solved = solving_probe(monkeypatch)
    out = tmp_path / "missing_dir" / "x.out" if target == "missing" else tmp_path
    argv = [command, "--config", write_config(tmp_path, p=3.0), *_OUT_ARGS[command], "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(out) in captured.err
    assert solved == []
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", sorted(set(_OUT_ARGS) - {"validate"}))
def test_solving_probe_sees_every_numerical_command(tmp_path, capsys, monkeypatch, command):
    # the control of the probes above: each command that solves reaches it
    # (at p = 3, where diagram's thresholds lambda-tilde are integrals)
    cfg = write_config(tmp_path, p=3.0)
    assert main(["solve", "--config", cfg, "--jmax", "1"]) == 0
    d_id = next(d["id"] for d in json.loads(capsys.readouterr().out)["descriptors"] if d["kind"] == "regular")
    args = ["--id", d_id] if command in ("profile", "verify", "regularity") else _OUT_ARGS[command]
    solved = solving_probe(monkeypatch)
    assert main([command, "--config", cfg, *args]) == 0
    assert solved


class TestStructureAndRegularity:
    def test_structure_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["structure", "--config", cfg, "--n", "2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["regime"] == "q=p"
        tags = {(e["j"], e["sign"]): e["tag"] for e in rep["entries"]}
        assert tags[(1, "+")] == "single" and tags[(2, "+")] == "empty"

    def test_regularity_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        solve_out = tmp_path / "solve.json"
        main(["solve", "--config", cfg, "--jmax", "1", "--out", str(solve_out)])
        payload = json.loads(solve_out.read_text())
        d0 = [d for d in payload["descriptors"] if d["kind"] == "regular"][0]
        assert main(["regularity", "--config", cfg, "--id", d0["id"], "--jmax", "1"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["smoothness_class"] == "C2"

    def test_regularity_of_a_flat_core_near_p_2(self, tmp_path, capsys):
        # seed-1 census input 10 of scripts/census.py: at p = 2.36 the plateau
        # edge's check point lies within an ulp of the level z+
        p = 2.361788756403411
        cfg = write_config(
            tmp_path,
            p=p,
            q=p,
            **{"lambda": 698.9275363798316},
            nonlinearity={
                "kind": "power_asym",
                "b_plus": 0.9627941403915965,
                "b_minus": 1.772452361693841,
                "r_exp": 3.8758851514918775,
            },
        )
        assert main(["regularity", "--config", cfg, "--id", "c718685f7d28"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["smoothness_class"] == "C1,1/(p-1); C2 off C\\Z"


class TestNonFinite:
    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("command", ["structure", "solve", "diagram"])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"p": NAN},
            {"q": INF},
            {"lambda": INF},
            {"lambda": NAN},
            {"numerics": {"grid": NAN}},
            {"nonlinearity": {"kind": "power_asym", "b_plus": NAN, "b_minus": 1.0, "r_exp": 4.0}},
            {"nonlinearity": {"kind": "power_asym", "b_plus": 1.0, "b_minus": INF, "r_exp": 4.0}},
            {"nonlinearity": {"kind": "power_asym", "b_plus": 1.0, "b_minus": 1.0, "r_exp": INF}},
            {"nonlinearity": {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0, -INF]}},
        ],
        ids=["p", "q", "lambda-inf", "lambda-nan", "grid", "b_plus", "b_minus", "r_exp", "coeffs"],
    )
    def test_rejected_with_error(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestStrictTypes:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"nonlinearity": {"kind": "polynomial", "coeffs": "0010"}},
            {"nonlinearity": {"kind": "polynomial", "coeffs": [0.0, 0.0, "1"]}},
            {"nonlinearity": {"kind": "power_asym", "b_plus": "2", "b_minus": 1.0, "r_exp": 4.0}},
            {"nonlinearity": {"kind": "power_asym", "b_plus": 1.0, "b_minus": True, "r_exp": 4.0}},
            {"p": "2"},
            {"q": True},
            {"lambda": "20"},
            {"numerics": {"scan_points": 1.7}},
            {"numerics": {"grid": "2048"}},
            {"numerics": {"ode_steps": True}},
        ],
        ids=["coeffs-string", "coeff-string", "b_plus-string", "b_minus-bool", "p-string", "q-bool",
             "lambda-string", "scan_points-fraction", "grid-string", "ode_steps-bool"],
    )
    def test_rejected_with_error(self, tmp_path, capsys, overrides):
        assert main(["validate", "--config", write_config(tmp_path, **overrides)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "numerics",
        [{"scan_points": 1024}, {"quad_tl": 1e-3}, {"quad_tol": 1e-10}],
        ids=["scan_points", "misspelled", "quad_tol"],
    )
    def test_unknown_numerics_key_is_named(self, tmp_path, capsys, numerics):
        (key,) = numerics
        assert main(["validate", "--config", write_config(tmp_path, numerics=numerics)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and key in captured.err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"lamda": 40.0}, "lamda"),
            (
                {"nonlinearity": {"kind": "power_asym", "b_plus": 1.0, "b_minus": 1.0, "r_exp": 4.0,
                                  "b_pluss": 3.0}},
                "b_pluss",
            ),
            ({"nonlinearity": {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0], "r_exp": 4.0}}, "r_exp"),
        ],
        ids=["top-level", "power_asym", "polynomial"],
    )
    def test_unknown_key_is_named(self, tmp_path, capsys, overrides, key):
        # a misspelled key must not run on the default it leaves in place
        assert main(["solve", "--config", write_config(tmp_path, **overrides), "--jmax", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and key in captured.err

    def test_conflicting_q_exits_1(self, tmp_path, capsys):
        # a q inside nonlinearity must not be overridden silently by the top-level one
        nonlinearity = {"kind": "power_asym", "q": 3, "b_plus": 1.0, "b_minus": 1.0, "r_exp": 4.0}
        assert main(["structure", "--config", write_config(tmp_path, q=2, nonlinearity=nonlinearity)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "q is 2 " in captured.err and "but 3 " in captured.err

    def test_agreeing_q_runs(self, tmp_path):
        nonlinearity = {"kind": "power_asym", "q": 2, "b_plus": 1.0, "b_minus": 1.0, "r_exp": 4.0}
        assert main(["validate", "--config", write_config(tmp_path, q=2.0, nonlinearity=nonlinearity)]) == 0

    def test_whole_float_count_is_a_count(self, tmp_path, capsys):
        assert main(["solve", "--config", write_config(tmp_path), "--jmax", "1"]) == 0
        regular = next(d for d in json.loads(capsys.readouterr().out)["descriptors"] if d["kind"] == "regular")
        outputs = []
        for grid in (256, 256.0):
            cfg = write_config(tmp_path, numerics={"grid": grid})
            assert main(["profile", "--config", cfg, "--id", regular["id"]]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestSweep:
    SPEC = {
        "p": 3.0,
        "q": 2.0,
        "nonlinearity": {"kind": "power_asym", "b_plus": 2.0, "b_minus": 1.0, "r_exp": 4.0},
    }

    def test_entries_are_solve_payloads_byte_for_byte(self, tmp_path, capsys):
        from plap.timemap import time_map_curves

        lams = [25.0, 4000.0, 137.5]
        cfg = write_config(tmp_path, **self.SPEC)
        assert main(["sweep", "--config", cfg, "--lambdas", ",".join(map(repr, lams)), "--jmax", "3"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["lambda"] for e in entries] == lams
        for lam, entry in zip(lams, entries):
            time_map_curves.cache_clear()  # as in a fresh process
            one = write_config(tmp_path, name="one.json", **self.SPEC, **{"lambda": lam})
            assert main(["solve", "--config", one, "--jmax", "3"]) == 0
            assert capsys.readouterr().out == json.dumps(entry, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("lambdas", [None, "", "20,x", "20,-1", "nan"])
    def test_bad_lambdas_exit_1(self, tmp_path, capsys, lambdas):
        argv = ["sweep", "--config", write_config(tmp_path, **self.SPEC)]
        assert main(argv + (["--lambdas", lambdas] if lambdas is not None else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: the package and its CLI run on numpy alone
    code = "import sys, plap, plap.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(plap.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_a_cold_solve_loads_no_numpy_ma(tmp_path):
    # numpy.ma costs a cold CLI command about 8 ms to import, and plap reads none of it
    code = (
        "import contextlib, io, sys\n"
        "from plap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['solve', '--config', {write_config(tmp_path)!r}, '--jmax', '2']) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    src = str(Path(plap.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True
    )
    assert proc.stdout.strip() == "False"
