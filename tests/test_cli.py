"""Command-line front end: CSV output, manifests, exit codes, determinism."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from causalprobe import cli, harness, oscillators, spins

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ALL_FIXTURES = sorted(SCENARIOS.glob("*.json"))
SUBCOMMAND = {"spin": "spin", "oscillator": "ho", "field": "field"}


def run(argv):
    return cli.main(argv)


def read_rows(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSpinCommand:
    def test_qndsv_quarter_value(self, tmp_path, capsys):
        code = run(["spin", "qndsv", "--target", "up,right",
                    "--alice", "rotate-y:1.5707963267948966",
                    "--obs", "sBz", "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "spin_qndsv.csv")
        assert len(rows) == 1
        assert rows[0]["observable"] == "sBz"
        assert float(rows[0]["value"]) == pytest.approx(0.25, abs=1e-12)
        assert "sBz" in capsys.readouterr().out

    def test_flags_override_scenario(self, tmp_path):
        code = run(["spin", "s2-bell", "--scenario",
                    str(SCENARIOS / "spin_qndsv.json"), "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "spin_qndsv_s2-bell.csv")
        assert all(abs(float(r["value"])) < 1e-10 for r in rows)

    @pytest.mark.parametrize("command, stem, given, written", [
        ("field", "field_naive", "none", "field_naive_none"),
        ("field", "field_naive", "naive", "field_naive"),       # the file's id, by alias
        ("ho", "ho_naive", "naive-nplus", "ho_naive"),
        ("spin", "spin_qndsv", "s2-bell", "spin_qndsv_s2-bell"),
    ])
    def test_positional_id_names_its_outputs(self, tmp_path, command, stem, given, written):
        """A positional id other than the file's adds _<id> to the output
        names, so runs of two schemes on one file into one directory keep
        both; the file's own id, or its alias, keeps the file's name."""
        path = str(SCENARIOS / f"{stem}.json")
        assert run([command, "--scenario", path, "--out", str(tmp_path)]) == 0
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()
                 if not p.name.endswith(".manifest.json")}
        assert run([command, given, "--scenario", path, "--out", str(tmp_path)]) == 0
        names = {f"{written}.csv", f"{written}_summary.csv", f"{written}.manifest.json"}
        assert names <= {p.name for p in tmp_path.iterdir()}
        assert {name: (tmp_path / name).read_bytes() for name in first} == first


class TestFieldCommand:
    def test_naive_expectations_table(self, tmp_path):
        code = run(["field", "naive", "--d", "1", "--N", "8", "--a", "1",
                    "--mass", "1", "--x", "0", "--y", "3", "--p-index", "1",
                    "--lambda", "0.3", "--out", str(tmp_path)])
        assert code == 0
        rows = {r["observable"]: float(r["value"])
                for r in read_rows(tmp_path / "field_naive-np.csv")}
        from causalprobe.fieldtheory import KickSpec, naive_np_expectations
        from causalprobe.lattice import LatticeSpec, build_modes

        modes = build_modes(LatticeSpec(dim=1, n_sites=8, spacing=1.0, mass=1.0))
        want = naive_np_expectations(
            modes, KickSpec(0, 0.3), 3, modes.mode_index(1)).as_dict()
        for name, val in want.items():
            assert rows[name] == pytest.approx(val, abs=1e-14)


    def test_qndsv_phi2_is_vacuum_value_at_zero_kick(self, tmp_path):
        """Verifying a one-particle state of the unkicked vacuum leaves it
        alone, so the reported <phi_y^2> at lam = 0 is (hbar/2) ginv_yy."""
        code = run(["field", "--scenario", str(SCENARIOS / "field_qndsv.json"),
                    "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "field_qndsv.csv")
        at_zero = [float(r["value"]) for r in rows
                   if r["observable"] == "phi2_y" and float(r["lambda"]) == 0.0]
        from causalprobe.lattice import LatticeSpec, build_modes, kernel_ginv

        modes = build_modes(LatticeSpec(dim=1, n_sites=8, spacing=1.0, mass=1.0))
        assert at_zero == [pytest.approx(0.5 * kernel_ginv(modes, 1, 1), abs=1e-12)]


    def test_qndsv_alias_defaults_to_its_own_observables(self, tmp_path):
        """Without --obs the observables come from the scheme's entry, and
        qndsv-1p reports only phi_y and phi2_y."""
        code = run(["field", "qndsv", "--N", "8", "--mass", "1", "--x", "0", "--y", "1",
                    "--p-index", "1", "--lambda", "0.3", "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "field_qndsv-1p.csv")
        assert [r["observable"] for r in rows] == ["phi_y", "phi2_y"]

    def test_vector_site_flags_match_scenario_file(self, tmp_path):
        """At d = 2 the site flags take comma-separated integers and write
        the same tables as the same scenario given as a file."""
        assert run(["field", "naive", "--d", "2", "--N", "4", "--mass", "1",
                    "--x", "0,0", "--y", "1,0", "--p-index", "1,0", "--lambda", "0.3",
                    "--out", str(tmp_path / "flags")]) == 0
        scenario = tmp_path / "field_naive-np.json"
        scenario.write_text(json.dumps({
            "version": 1, "system": "field",
            "system_params": {"dim": 2, "n_sites": 4, "mass": 1.0,
                              "x": [0, 0], "y": [1, 0], "p": [1, 0]},
            "alice": {"kind": "kick"}, "scheme": {"id": "naive-np"},
            "observables": ["phi_y", "pi_y", "phi2_y", "pi2_y"],
            "lambda_grid": [0.3], "lambda_ref": 0.3}))
        assert run(["field", "--scenario", str(scenario), "--out", str(tmp_path / "file")]) == 0
        tables = sorted(p.name for p in (tmp_path / "flags").glob("*.csv"))
        assert tables == ["field_naive-np.csv", "field_naive-np_summary.csv"]
        for name in tables:
            assert (tmp_path / "flags" / name).read_bytes() == \
                (tmp_path / "file" / name).read_bytes()

    @pytest.mark.parametrize("scheme", ["naive", "qndsv"])
    def test_first_moments_at_zero_kick_print_as_zero(self, tmp_path, scheme):
        """At lam = 0 the odd first moments are 0.0, never -0.0, whatever
        the sign of the factor that multiplies lam."""
        for y in range(8):
            for p in (1, -1):
                out = tmp_path / f"y{y}_p{p}"
                assert run(["field", scheme, "--N", "8", "--mass", "1", "--x", "0",
                            "--y", str(y), "--p-index", str(p), "--lambda", "0",
                            "--out", str(out)]) == 0
                for table in out.glob("*.csv"):
                    for row in read_rows(table):
                        assert "-0" not in row.values(), (table.name, y, p, row)


class TestHoCommand:
    def test_naive_momentum(self, tmp_path):
        code = run(["ho", "naive-nplus", "--p-a", "0.3", "--p-b", "-0.2",
                    "--trunc", "40", "--lambda", "0.5", "--obs", "PB",
                    "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "ho_naive-nplus.csv")
        assert float(rows[0]["value"]) == pytest.approx(-0.5, abs=1e-8)

    def test_high_levels_stay_finite(self, tmp_path):
        """Levels up to 699 of |alpha|^2 = 9 coherent factors: the ladder
        recurrence never forms alpha^n, so no inf * 0 turns a cell to NaN."""
        assert run(["ho", "naive-nplus", "--p-a", "6", "--trunc", "700", "--lambda", "0",
                    "--out", str(tmp_path)]) == 0
        for name in ("ho_naive-nplus.csv", "ho_naive-nplus_summary.csv"):
            for row in read_rows(tmp_path / name):
                assert all(math.isfinite(float(v)) for k, v in row.items()
                           if k != "observable"), (name, row)
        rows = {r["observable"]: float(r["value"])
                for r in read_rows(tmp_path / "ho_naive-nplus.csv")}
        assert rows["PB"] == pytest.approx(-3.0, abs=1e-8)

    def test_naive_path_builds_no_branch_states(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("naive_nplus_ensemble called on the CLI path")

        monkeypatch.setattr(oscillators, "naive_nplus_ensemble", refuse)
        assert run(["ho", "--scenario", str(SCENARIOS / "ho_naive.json"),
                    "--out", str(tmp_path)]) == 0
        assert run(["compare", "--scenario", str(SCENARIOS / "ho_naive.json"),
                    "--schemes", "naive-nplus,none", "--out", str(tmp_path)]) == 0

    def test_phase_first_moments_print_as_zero(self, tmp_path):
        assert run(["ho", "--scenario", str(SCENARIOS / "ho_phase.json"),
                    "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "ho_phase.csv")
        values = [r["value"] for r in rows if r["observable"] in ("QB", "PB")]
        assert values and set(values) == {"0"}


class TestDependencies:
    def test_cli_import_loads_no_scipy(self):
        """numpy is the only runtime dependency; scipy serves the tests alone."""
        probe = ("import sys, causalprobe.cli; print(sorted(m for m in sys.modules"
                 " if m == 'scipy' or m.startswith('scipy.')))")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run(["spin", "qndsv", "--frobnicate", "3"]) == 64

    def test_non_integer_site_flag_is_usage_error(self, capsys):
        assert run(["field", "naive", "--d", "2", "--x", "0,0.5", "--y", "1,0",
                    "--p-index", "1,0", "--lambda", "0.3"]) == 64
        assert "not an integer site: '0,0.5'" in capsys.readouterr().err

    def test_natural_units_flag_is_usage_error(self, tmp_path, capsys):
        """hbar = 1 is --hbar 1; there is no second name for it."""
        code = run(["spin", "qndsv", "--target", "up,right",
                    "--alice", "rotate-y:1.5707963267948966",
                    "--natural-units", "--out", str(tmp_path)])
        assert code == 64
        assert "--natural-units" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, other", [
        (["--grid", "0:1:5"], "--grid"),
        (["--lambda", "0.3"], "--lambda"),
    ])
    def test_alice_with_grid_or_lambda_is_usage_error(self, tmp_path, capsys, flags, other):
        """--alice carries its own angle, so a grid or lambda beside it is
        refused rather than ignored."""
        code = run(["spin", "qndsv", "--target", "up,right",
                    "--alice", "rotate-y:1.5707963", *flags, "--obs", "sBz",
                    "--out", str(tmp_path)])
        assert code == 64
        err = capsys.readouterr().err
        assert "--alice" in err and other in err and "not allowed with argument" in err
        assert not list(tmp_path.iterdir())

    def test_grid_with_lambda_is_usage_error(self, tmp_path, capsys):
        code = run(["field", "naive", "--d", "1", "--N", "8", "--mass", "1", "--x", "0",
                    "--y", "3", "--p-index", "1", "--grid", "0:1:3", "--lambda", "0.3",
                    "--obs", "pi_y", "--out", str(tmp_path)])
        assert code == 64
        assert "argument --lambda: not allowed with argument --grid" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_missing_subcommand_is_usage_error(self):
        assert run([]) == 64

    def test_bad_scenario_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "system": "spin", "oops": True}))
        assert run(["validate", str(bad)]) == 2

    def test_malformed_json_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["validate", str(bad)]) == 2

    def test_non_integral_sweep_value_is_validation_error(self, tmp_path, capsys):
        code = run(["sweep", "--scenario", str(SCENARIOS / "field_volume_sweep.json"),
                    "--axis", "volume", "--values", "4.5,8,16", "--out", str(tmp_path)])
        assert code == 2
        assert "needs integer values, got 4.5" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("system_params", 5, "system_params must be an object, got int"),
        ("alice", "rotate", "alice must be an object, got str"),
        ("scheme", ["qndsv"], "scheme must be an object, got list"),
        ("observables", "sBz", "observables must be a list, got str"),
        ("lambda_grid", 0.5, "lambda_grid must be a list, got float"),
    ])
    def test_malformed_shape_is_validation_error(self, tmp_path, capsys, key, value,
                                                 message):
        raw = json.loads((SCENARIOS / "spin_qndsv.json").read_text())
        raw[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert run(["validate", str(bad)]) == 2
        assert run(["spin", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_non_object_scenario_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert run(["validate", str(bad)]) == 2
        assert run(["spin", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
        assert "scenario must be an object, got list" in capsys.readouterr().err

    def test_nan_in_grid_is_validation_error(self, tmp_path, capsys):
        """json.load accepts NaN; the scenario must not run with it."""
        raw = (SCENARIOS / "spin_qndsv.json").read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(raw.replace('"lambda_grid": [0.0,', '"lambda_grid": [NaN,'))
        assert run(["validate", str(bad)]) == 2
        assert run(["spin", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
        assert "lambda_grid needs finite numbers, got nan" in capsys.readouterr().err
        assert not (tmp_path / "bad.csv").exists()

    def test_unparsable_sweep_values_name_the_flag(self, tmp_path, capsys):
        code = run(["sweep", "--scenario", str(SCENARIOS / "ho_phase.json"), "--axis", "s_cut",
                    "--values", "2,abc,4", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.strip() == \
            "causal-probe: cannot parse --values '2,abc,4'"
        assert not list(tmp_path.iterdir())

    def test_amplitude_sweep_on_oscillator_is_validation_error(self, tmp_path, capsys):
        code = run(["sweep", "--scenario", str(SCENARIOS / "ho_naive.json"),
                    "--axis", "trunc", "--values", "20,30,40", "--measure", "amplitude",
                    "--out", str(tmp_path)])
        assert code == 2
        assert "measure 'amplitude' is not meaningful for system 'oscillator'" \
            in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", [["--obs", "phi_y"], ["--lambda", "0.7"],
                                      ["--grid", "0:1:3"]], ids=lambda f: f[0])
    def test_amplitude_sweep_refuses_unread_flag(self, tmp_path, capsys, flag):
        """The amplitude measure reads no observables and no lambda grid."""
        code = run(["sweep", "--scenario", str(SCENARIOS / "field_volume_sweep.json"),
                    "--axis", "spacing", "--measure", "amplitude", "--values", "1,0.5,0.25",
                    *flag, "--out", str(tmp_path)])
        assert code == 2
        assert f"{flag[0]} would be ignored" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_amplitude_sweep_honours_hbar(self, tmp_path):
        csv = []
        for extra in ([], ["--hbar", "2"]):
            out = tmp_path / str(len(csv))
            assert run(["sweep", "--scenario", str(SCENARIOS / "field_volume_sweep.json"),
                        "--axis", "spacing", "--measure", "amplitude", "--values", "1,0.5,0.25",
                        *extra, "--out", str(out)]) == 0
            csv.append((out / "field_volume_sweep_sweep_spacing.csv").read_text())
        assert csv[0] != csv[1]

    def test_truncation_violation_is_numeric_error(self, tmp_path):
        # a kick far too large for the truncation trips the tail policy
        assert run(["ho", "naive-nplus", "--trunc", "6", "--lambda", "6.0",
                    "--out", str(tmp_path)]) == 3

    def test_truncation_violation_inside_a_batch_writes_nothing(self, tmp_path, capsys):
        """All eight grid points are evaluated in one batch; the kicks from
        lam = 2 on lose too much norm at trunc 10, so the run exits 3 with
        no table, naming the first such kick's tail."""
        assert run(["ho", "naive-nplus", "--trunc", "10", "--grid=-1:6:8",
                    "--out", str(tmp_path)]) == 3
        assert "truncation 10x10 leaves tail 2.229e-07" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, name", [
        (["naive-nplus", "--trunc", "0"], "trunc"),
        (["none", "--trunc", "0"], "trunc"),
        (["phase-nplus", "--s-cut", "2", "--trunc", "0"], "trunc"),
        (["phase-nplus", "--s-cut", "-2"], "s_cut"),
    ])
    def test_bad_cutoff_is_validation_error(self, tmp_path, capsys, argv, name):
        assert run(["ho", *argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, stem", [("spin", "spin_qndsv"), ("ho", "ho_naive"),
                                               ("field", "field_naive")])
    @pytest.mark.parametrize("hbar", ["-1", "0"])
    def test_non_positive_hbar_is_validation_error(self, tmp_path, capsys, command, stem, hbar):
        """Every system refuses hbar <= 0, which would flip or zero each spin value."""
        assert run([command, "--scenario", str(SCENARIOS / f"{stem}.json"), "--hbar", hbar,
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "hbar must be positive" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_zero_regulator_is_validation_error(self, tmp_path, capsys):
        """A massless lattice with a zero regulator has a zero-frequency mode,
        whose phi2_y is infinite: refused, not written as inf."""
        raw = json.loads((SCENARIOS / "field_naive.json").read_text())
        raw["system_params"].update(mass=0.0, zero_mode_mass=0.0)
        path = tmp_path / "massless.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run(["field", "--scenario", str(path), "--obs", "phi_y,phi2_y",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "zero_mode_mass must be positive" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, axis, values", [
        ("ho_phase.json", "s_cut", "0,2,4"),
        ("field_volume_sweep.json", "spacing", "1,0.5,-0.25"),
    ])
    def test_non_positive_sweep_cutoff_is_validation_error(self, tmp_path, capfd, scenario,
                                                          axis, values):
        """Refused by name: no log(0) reaches LAPACK, whose complaint goes to fd 2."""
        raw = json.loads((SCENARIOS / scenario).read_text())
        raw["lambda_grid"], raw["lambda_ref"] = [0.0, 1e-6], 1e-6
        path = tmp_path / scenario
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = run(["sweep", "--scenario", str(path), "--axis", axis, "--values", values,
                    "--out", str(out)])
        assert code == 2
        err = capfd.readouterr().err
        assert f"sweep axis {axis!r} needs positive cutoffs" in err
        assert "DLASCL" not in err and "SVD" not in err
        assert not out.exists()

    @pytest.mark.parametrize("alice", ["rotate-y:abc", "rotate-1,x,0:1", "rotate-:1"])
    def test_unparsable_alice_is_validation_error(self, tmp_path, capsys, alice):
        code = run(["spin", "none", "--alice", alice, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.strip() == \
            f"causal-probe: cannot parse alice operation {alice!r}"
        assert not list(tmp_path.iterdir())

    def test_unknown_spin_label_lists_the_named_ones(self, tmp_path, capsys):
        assert run(["spin", "none", "--initial", "plus,up", "--out", str(tmp_path)]) == 2
        assert "the named labels are up, down, right, left" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_validate_ok_on_shipped_corpus(self):
        assert ALL_FIXTURES, "fixture corpus missing"
        assert run(["validate"] + [str(p) for p in ALL_FIXTURES]) == 0


class TestManifest:
    def test_digest_stable_under_key_reordering(self):
        raw = json.loads((SCENARIOS / "spin_qndsv.json").read_text())
        reordered = dict(reversed(list(raw.items())))
        assert cli.scenario_digest(raw) == cli.scenario_digest(reordered)
        assert cli.scenario_digest(raw) != cli.scenario_digest(
            {**raw, "lambda_ref": 0.1})

    def test_manifest_written_with_policy(self, tmp_path):
        run(["spin", "qndsv", "--target", "up,right", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "spin_qndsv.manifest.json").read_text())
        assert manifest["tool"] == "causal-probe"
        assert manifest["numeric_policy"]["structural_tol"] == 1e-10
        assert "spin_qndsv.csv" in manifest["outputs"]
        assert len(manifest["scenario_digest"]) == 64


class TestCsvFormat:
    def test_lf_endings_and_17_digits(self, tmp_path):
        run(["spin", "qndsv", "--target", "up,right",
             "--alice", "rotate-y:0.7853981633974483", "--out", str(tmp_path)])
        blob = (tmp_path / "spin_qndsv.csv").read_bytes()
        assert b"\r" not in blob
        text = blob.decode()
        assert "0.78539816339744828" in text  # 17 significant digits
        assert "," in text and ";" not in text


def _run_fixture(path: Path, out: Path) -> list[Path]:
    raw = json.loads(path.read_text())
    sub = SUBCOMMAND[raw["system"]]
    assert run([sub, "--scenario", str(path), "--out", str(out)]) == 0
    return sorted(p for p in out.iterdir() if p.suffix == ".csv")


class TestDeterminism:
    @pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.stem)
    def test_reruns_are_byte_identical(self, fixture, tmp_path):
        first = _run_fixture(fixture, tmp_path / "run1")
        second = _run_fixture(fixture, tmp_path / "run2")
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_sweep_rerun_byte_identical(self, tmp_path):
        args = ["sweep", "--scenario", str(SCENARIOS / "field_volume_sweep.json"),
                "--axis", "volume", "--values", "4,8,16"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("field_volume_sweep_sweep_volume.csv",
                     "field_volume_sweep_sweep_volume_fits.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_amplitude_sweep_csv(self, tmp_path):
        code = run(["sweep", "--scenario", str(SCENARIOS / "field_volume_sweep.json"),
                    "--axis", "spacing", "--values", "1.0,0.5,0.25",
                    "--measure", "amplitude", "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "field_volume_sweep_sweep_spacing.csv")
        assert all(r["observable"] == "suppression_amplitude" for r in rows)
        vals = [float(r["measure"]) for r in rows]
        assert vals[0] > vals[1] > vals[2]

    def test_compare_rerun_byte_identical(self, tmp_path):
        args = ["compare", "--scenario", str(SCENARIOS / "spin_s2_ambiguity.json"),
                "--schemes", "s2-standard,s2-bell,sz-standard,sz-bell,none"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        name = "spin_s2_ambiguity_compare.csv"
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


class TestCompareCommand:
    def test_ambiguity_table_values(self, tmp_path):
        run(["compare", "--scenario", str(SCENARIOS / "spin_s2_ambiguity.json"),
             "--schemes", "s2-standard,s2-bell", "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "spin_s2_ambiguity_compare.csv")
        vals = {(r["scheme"], r["observable"]): float(r["after"]) for r in rows}
        assert vals[("s2-standard", "sBz")] == pytest.approx(0.25, abs=1e-12)
        assert vals[("s2-bell", "sBz")] == pytest.approx(0.0, abs=1e-12)
        assert vals[("s2-standard", "S2")] == pytest.approx(1.5, abs=1e-12)
        assert vals[("s2-bell", "S2")] == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("scenario, schemes", [
        ("field_naive.json", "naive,none"),
        ("field_qndsv.json", "none,naive,qndsv"),
    ])
    def test_one_lattice_for_every_compared_scheme(self, tmp_path, monkeypatch,
                                                   scenario, schemes):
        """The 'before' column, the 'none' row that reuses it and every
        measured row share one mode set, and so one kernel memo."""
        builds = []
        original = harness.build_modes
        monkeypatch.setattr(harness, "build_modes",
                            lambda spec: builds.append(original(spec)) or builds[-1])
        code = run(["compare", "--scenario", str(SCENARIOS / scenario),
                    "--schemes", schemes, "--out", str(tmp_path)])
        assert code == 0
        assert len(builds) == 1

    def test_spin_operators_are_built_once(self, tmp_path, monkeypatch):
        """A 7-scheme spin compare builds each observable's operator once:
        the 'before' column and every compared scheme share it."""
        built = []
        original = spins.spin_observable
        monkeypatch.setattr(spins, "spin_observable",
                            lambda name, hbar=1.0: built.append(name) or original(name, hbar))
        code = run(["compare", "--scenario", str(SCENARIOS / "spin_s2_ambiguity.json"),
                    "--schemes", "s2-standard,s2-bell,s2-luders,sz-standard,sz-bell,sz-luders,none",
                    "--out", str(tmp_path)])
        assert code == 0
        assert len(read_rows(tmp_path / "spin_s2_ambiguity_compare.csv")) == 7 * 2
        assert sorted(built) == ["S2", "sBz"]

    @pytest.mark.parametrize("argv, made", [
        (["compare", "--scenario", str(SCENARIOS / "field_qndsv.json"),
          "--schemes", "none,naive,qndsv"], 5),
        (["field", "naive", "--scenario", str(SCENARIOS / "field_naive.json")], 1),
    ])
    def test_each_scenario_is_validated_once(self, tmp_path, monkeypatch, argv, made):
        """One validate call per scenario a command makes: the file's, and
        for compare the 'before' scenario's and each compared scheme's."""
        validated = []
        validate = harness.Scenario.validate
        monkeypatch.setattr(harness.Scenario, "validate",
                            lambda self: validated.append(self) or validate(self))
        assert run([*argv, "--out", str(tmp_path)]) == 0
        assert len(validated) == len({id(sc) for sc in validated}) == made

    def test_field_aliases_resolve_to_canonical_ids(self, tmp_path):
        """compare accepts the aliases that the field command accepts, and
        its rows carry the canonical scheme ids."""
        code = run(["compare", "--scenario", str(SCENARIOS / "field_naive.json"),
                    "--schemes", "naive,none", "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "field_naive_compare.csv")
        assert {r["scheme"] for r in rows} == {"naive-np", "none"}
        naive = {r["observable"]: float(r["after"]) for r in rows if r["scheme"] == "naive-np"}
        # <pi_y> after the naive pair collapse moves with the kick
        assert naive["pi_y"] != 0.0

    @pytest.mark.parametrize("stem, command, scheme, flags", [
        ("ho_naive", "ho", "phase-nplus", ["--s-cut", "8"]),
        ("spin_qndsv", "spin", "qndsv", ["--target", "up,left"]),
    ])
    def test_scheme_extra_flag_reaches_the_compared_scheme(self, tmp_path, stem, command,
                                                            scheme, flags):
        """A compared scheme given an extra by flag reports at lambda_ref
        what its system command reports with the same flag."""
        path = str(SCENARIOS / f"{stem}.json")
        assert run(["compare", "--scenario", path, "--schemes", f"{scheme},none", *flags,
                    "--out", str(tmp_path / "cmp")]) == 0
        assert run([command, scheme, "--scenario", path, *flags,
                    "--out", str(tmp_path / "sys")]) == 0
        raw = json.loads(Path(path).read_text())
        ref = cli._fmt(raw["lambda_ref"])
        written = stem if raw["scheme"]["id"] == scheme else f"{stem}_{scheme}"
        want = {r["observable"]: r["value"] for r in read_rows(tmp_path / "sys" / f"{written}.csv")
                if r["lambda"] == ref}
        got = {r["observable"]: r["after"]
               for r in read_rows(tmp_path / "cmp" / f"{stem}_compare.csv")
               if r["scheme"] == scheme}
        assert got == want and len(got) > 0

    @pytest.mark.parametrize("stem, schemes, flag", [
        ("ho_naive", "naive-nplus,phase-nplus,none", ["--target", "up,up"]),
        ("field_naive", "naive,none", ["--s-cut", "8"]),
        ("ho_phase", "naive-nplus,none", ["--s-cut", "8"]),
    ])
    def test_scheme_extra_flag_no_scheme_reads_is_refused(self, tmp_path, capsys, stem,
                                                          schemes, flag):
        code = run(["compare", "--scenario", str(SCENARIOS / f"{stem}.json"),
                    "--schemes", schemes, *flag, "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert flag[0] in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_phase_nplus_without_s_cut_is_still_refused(self, tmp_path, capsys):
        code = run(["compare", "--scenario", str(SCENARIOS / "ho_naive.json"),
                    "--schemes", "naive-nplus,phase-nplus,none", "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert "s_cut" in capsys.readouterr().err


# Every shipped scenario as shipped and in 7 malformed variants: a missing
# section, or an empty grid or observable list.  The CLI fills none of them in.
_DROP = object()
VARIANTS = {
    "as_shipped": {}, "no_alice": {"alice": _DROP},
    "no_system_params": {"system_params": _DROP}, "no_scheme": {"scheme": _DROP},
    "no_lambda_grid": {"lambda_grid": _DROP}, "empty_lambda_grid": {"lambda_grid": []},
    "no_observables": {"observables": _DROP}, "empty_observables": {"observables": []},
}
# scheme aliases are command-line names, so a file that uses one is refused
ALIAS_FILES = {"field_naive": "naive", "field_qndsv": "qndsv", "field_volume_sweep": "naive"}
AGREEMENT_CASES = [(p.stem, variant) for p in ALL_FIXTURES for variant in VARIANTS] + \
    [(stem, "alias_id") for stem in ALIAS_FILES]


def _variant(stem: str, variant: str) -> dict:
    raw = json.loads((SCENARIOS / f"{stem}.json").read_text())
    if variant == "alias_id":
        return {**raw, "scheme": {**raw["scheme"], "id": ALIAS_FILES[stem]}}
    edits = VARIANTS[variant]
    return {**{k: v for k, v in raw.items() if edits.get(k) is not _DROP},
            **{k: v for k, v in edits.items() if v is not _DROP}}


@pytest.fixture(scope="module")
def agreement_files(tmp_path_factory):
    """case -> (file, its system, the exit code validate gives it)."""
    root = tmp_path_factory.mktemp("agreement")
    files = {}
    for stem, variant in AGREEMENT_CASES:
        raw = _variant(stem, variant)
        path = root / variant / f"{stem}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(raw))
        files[stem, variant] = path, raw["system"], run(["validate", str(path)])
    return files


class TestOneRoad:
    """Every subcommand reads its --scenario file as written, and each flag
    it has overrides only the field that the flag names."""

    @pytest.mark.parametrize("command", ["spin", "ho", "field"])
    @pytest.mark.parametrize("case", AGREEMENT_CASES, ids="-".join)
    def test_subcommand_exits_as_validate_does(self, agreement_files, case, command,
                                               tmp_path):
        """The file's own subcommand exits as validate does; another exits 2."""
        path, system, validated = agreement_files[case]
        want = validated if SUBCOMMAND[system] == command else 2
        assert run([command, "--scenario", str(path), "--out", str(tmp_path)]) == want

    @pytest.mark.parametrize("command, scenario, names", [
        ("spin", "ho_naive.json", ("'oscillator'", "'spin'")),
        ("ho", "field_naive.json", ("'field'", "'oscillator'")),
        ("field", "spin_qndsv.json", ("'spin'", "'field'")),
    ])
    def test_wrong_system_file_names_both_systems(self, tmp_path, capsys, command,
                                                  scenario, names):
        assert run([command, "--scenario", str(SCENARIOS / scenario),
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["spin", "qndsv", "--target", "up,right", "--scenario", ""],
        ["spin", "", "--scenario", str(SCENARIOS / "spin_qndsv.json")],
        ["spin", "--scenario", str(SCENARIOS / "spin_qndsv.json"), "--obs", ""],
        ["spin", "--scenario", str(SCENARIOS / "spin_qndsv.json"), "--alice", ""],
        ["spin", "--scenario", str(SCENARIOS / "spin_qndsv.json"), "--grid", ""],
    ], ids=["scenario", "scheme_id", "obs", "alice", "grid"])
    def test_empty_flag_value_is_refused_not_ignored(self, tmp_path, argv):
        assert run([*argv, "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())

    HO_NAIVE = json.loads((SCENARIOS / "ho_naive.json").read_text())

    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "trunc", "--values", "30,40,50"],
        ["compare", "--schemes", "naive-nplus,none"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flags, edit", [
        (["--obs", "PB"], {"observables": ["PB"]}),
        (["--lambda", "0.7"], {"lambda_grid": [0.7], "lambda_ref": 0.7}),
        (["--grid=-2:2:5"], {"lambda_grid": [-2.0, -1.0, 0.0, 1.0, 2.0], "lambda_ref": 2.0}),
        (["--hbar", "2"], {"system_params": {**HO_NAIVE["system_params"], "hbar": 2.0}}),
    ], ids=["obs", "lambda", "grid", "hbar"])
    def test_flag_writes_what_the_edited_file_writes(self, tmp_path, argv, flags, edit):
        edited = tmp_path / "edited" / "ho_naive.json"    # same stem, same CSV names
        edited.parent.mkdir()
        edited.write_text(json.dumps({**self.HO_NAIVE, **edit}))
        written = {}
        for name, path, extra in (("plain", SCENARIOS / "ho_naive.json", []),
                                  ("flag", SCENARIOS / "ho_naive.json", flags),
                                  ("file", edited, [])):
            out = tmp_path / name
            assert run([argv[0], "--scenario", str(path), *argv[1:], *extra,
                        "--out", str(out)]) == 0
            manifest = json.loads(next(out.glob("*.manifest.json")).read_text())
            written[name] = ({p.name: p.read_bytes() for p in out.glob("*.csv")},
                             manifest["scenario_digest"])
        assert written["flag"] == written["file"]
        assert written["flag"][0] != written["plain"][0]
