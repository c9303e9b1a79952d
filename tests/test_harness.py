"""Scenario runner: validation, determinism, signaling tables, sweeps."""

from __future__ import annotations

import copy
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from causalprobe import harness, spins
from causalprobe.harness import (
    Scenario,
    ScenarioError,
    central_derivative,
    compare_schemes,
    cutoff_sweep,
    power_fit,
    run_scenario,
)
from conftest import scenario_dict

HALF_PI = math.pi / 2


def spin_scenario(**overrides) -> Scenario:
    raw = {
        "version": 1,
        "system": "spin",
        "system_params": {"initial": ["up", "up"], "hbar": 1.0},
        "alice": {"kind": "rotate", "axis": [0.0, 1.0, 0.0]},
        "scheme": {"id": "qndsv", "target": ["up", "right"]},
        "observables": ["sBz"],
        "lambda_grid": [0.0, HALF_PI / 2, HALF_PI],
        "lambda_ref": HALF_PI,
    }
    raw.update(overrides)
    return Scenario.from_dict(raw)


def field_scenario(**overrides) -> Scenario:
    raw = {
        "version": 1,
        "system": "field",
        "system_params": {"dim": 1, "n_sites": 4, "spacing": 1.0, "mass": 1.0,
                          "x": 0, "y": 2, "p": 1},
        "alice": {"kind": "kick"},
        "scheme": {"id": "naive-np"},
        "observables": ["pi_y"],
        "lambda_grid": [-0.3, 0.0, 0.3],
        "lambda_ref": 0.3,
    }
    raw.update(overrides)
    return Scenario.from_dict(raw)


def oscillator_scenario(**overrides) -> Scenario:
    raw = {
        "version": 1,
        "system": "oscillator",
        "system_params": {"p_a": 0.0, "p_b": 0.0, "trunc": 24},
        "alice": {"kind": "kick"},
        "scheme": {"id": "phase-nplus", "s_cut": 4},
        "observables": ["PB", "QB2"],
        "lambda_grid": [0.0, 0.1, 0.2],
        "lambda_ref": 0.2,
    }
    raw.update(overrides)
    return Scenario.from_dict(raw)


class TestValidation:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown keys"):
            Scenario.from_dict({**scenario_dict(spin_scenario()), "extra": 1})

    def test_unknown_nested_key_rejected(self):
        raw = scenario_dict(spin_scenario())
        raw["system_params"]["spin"] = 3
        with pytest.raises(ScenarioError, match="unknown keys"):
            Scenario.from_dict(raw)

    def test_bad_version(self):
        with pytest.raises(ScenarioError, match="version"):
            Scenario.from_dict({**scenario_dict(spin_scenario()), "version": 2})

    @pytest.mark.parametrize("version", [True, "1", 1.5, None])
    def test_non_integer_version_refused(self, version):
        """true == 1 in Python, so a plain comparison would let it through."""
        with pytest.raises(ScenarioError, match="version needs integer values"):
            Scenario.from_dict({**scenario_dict(spin_scenario()), "version": version})

    def test_integral_float_version_accepted(self):
        """As for every other integer field, 1.0 is 1."""
        raw = {**scenario_dict(spin_scenario()), "version": 1.0}
        assert Scenario.from_dict(raw) == spin_scenario()

    def test_grid_must_increase(self):
        with pytest.raises(ScenarioError, match="strictly increasing"):
            spin_scenario(lambda_grid=[0.0, 0.0, 1.0])

    def test_unknown_scheme(self):
        with pytest.raises(ScenarioError, match="scheme"):
            spin_scenario(scheme={"id": "s4-standard"})

    def test_qndsv_needs_target(self):
        with pytest.raises(ScenarioError, match="target"):
            spin_scenario(scheme={"id": "qndsv"})

    def test_unknown_observable(self):
        with pytest.raises(ScenarioError, match="observables"):
            spin_scenario(observables=["sCz"])

    def test_repeated_observable_refused(self):
        with pytest.raises(ScenarioError, match=r"observables repeat \['phi_y'\]"):
            field_scenario(observables=["phi_y", "pi_y", "phi_y"])

    def test_field_verification_observables_restricted(self):
        with pytest.raises(ScenarioError, match="qndsv-1p"):
            field_scenario(scheme={"id": "qndsv-1p"}, observables=["pi_y"])

    def test_self_conjugate_mode_rejected_at_evaluation(self):
        sc = field_scenario(system_params={
            "dim": 1, "n_sites": 4, "spacing": 1.0, "mass": 1.0,
            "x": 0, "y": 2, "p": 2})
        with pytest.raises(ScenarioError, match="self-conjugate"):
            run_scenario(sc)


    @pytest.mark.parametrize("make, message", [
        (lambda: oscillator_scenario(system_params={"trunc": 40.9}),
         "system_params.trunc needs integer values, got 40.9"),
        (lambda: oscillator_scenario(system_params={"trunc": True}),
         "system_params.trunc needs integer values, got True"),
        (lambda: oscillator_scenario(system_params={"trunc": "24"}),
         "system_params.trunc needs integer values, got '24'"),
        (lambda: oscillator_scenario(scheme={"id": "phase-nplus", "s_cut": 4.5}),
         "scheme.s_cut needs integer values, got 4.5"),
        (lambda: oscillator_scenario(system_params={"p_a": float("nan")}),
         "system_params.p_a needs finite numbers, got nan"),
        (lambda: oscillator_scenario(system_params={"mass": "1.0"}),
         "system_params.mass needs finite numbers, got '1.0'"),
        (lambda: field_scenario(system_params={"n_sites": 8.7, "mass": 1.0,
                                               "x": 0, "y": 2, "p": 1}),
         "system_params.n_sites needs integer values, got 8.7"),
        (lambda: field_scenario(system_params={"n_sites": 4, "mass": 1.0,
                                               "x": 0.5, "y": 2, "p": 1}),
         "system_params.x needs integer values, got 0.5"),
        (lambda: field_scenario(system_params={"n_sites": 4, "mass": float("inf"),
                                               "x": 0, "y": 2, "p": 1}),
         "system_params.mass needs finite numbers, got inf"),
        (lambda: spin_scenario(lambda_grid=[0.0, float("nan")]),
         "lambda_grid needs finite numbers, got nan"),
        (lambda: spin_scenario(lambda_grid=[0.0, float("inf")]),
         "lambda_grid needs finite numbers, got inf"),
        (lambda: spin_scenario(lambda_ref=float("nan")),
         "lambda_ref needs finite numbers, got nan"),
        (lambda: spin_scenario(lambda_grid=[False, True]),
         "lambda_grid needs finite numbers, got False"),
        (lambda: spin_scenario(alice={"kind": "rotate", "axis": [0.0, float("nan"), 1.0]}),
         "alice.axis needs finite numbers, got nan"),
        (lambda: spin_scenario(system_params={"initial": ["up", "up", "up"]}),
         "system_params.initial needs exactly two labels"),
        # a scenario made from a valid one is checked when it is made
        (lambda: replace(field_scenario(), system_params={
            **field_scenario().system_params, "n_sites": 4.5}),
         "system_params.n_sites needs integer values, got 4.5"),
        (lambda: replace(spin_scenario(), scheme={"id": "s4-standard"}),
         "unknown spin scheme 's4-standard'"),
    ])
    def test_values_are_never_coerced(self, make, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            make()

    def test_integral_floats_are_accepted(self):
        sc = oscillator_scenario(system_params={"trunc": 24.0})
        assert sc.validate().params["trunc"] == 24

    @pytest.mark.parametrize("overrides, message", [
        ({"system_params": {"initial": ["upp", "up"], "hbar": 1.0}},
         "system_params.initial: unknown spin label 'upp'"),
        ({"scheme": {"id": "qndsv", "target": ["up", "sideways"]}},
         "scheme.target: unknown spin label 'sideways'"),
        ({"alice": {"kind": "rotate", "axis": [0, 2, 0]}},
         "alice.axis: axis must be unit length, |axis|=2.0"),
    ], ids=["initial", "target", "axis"])
    def test_spin_fields_are_refused_when_made(self, overrides, message):
        """A spin label that names no ket and a non-unit axis are refused
        as a ScenarioError when the scenario is made, not when evaluated."""
        with pytest.raises(ScenarioError, match=re.escape(message)):
            spin_scenario(**overrides)

    def test_sections_are_read_only(self):
        """A scenario's sections cannot drift from the typed values checked
        when it was made: neither by writing to them, nor through the dicts
        it was made from."""
        raw = json.loads((SCENARIOS / "field_naive.json").read_text())
        sc = Scenario.from_dict(raw)
        with pytest.raises(TypeError):
            sc.system_params["n_sites"] = 4.5
        with pytest.raises(TypeError):
            sc.alice["kind"] = "rotate"
        with pytest.raises(TypeError):
            sc.scheme["id"] = "none"
        raw["system_params"]["n_sites"] = 4.5
        assert sc.system_params["n_sites"] == sc.typed.params["n_sites"] == 8
        assert replace(sc, scheme={"id": "none"}).system_params == sc.system_params

    def test_system_params_lists_are_tuples(self):
        """A d = 2 field's sites are tuples in the section and in the typed values."""
        sc = field_scenario(system_params={"dim": 2, "n_sites": 4, "mass": 1.0,
                                           "x": [0, 0], "y": [1, 2], "p": [1, 0]})
        with pytest.raises(TypeError):
            sc.system_params["y"][0] = 3
        assert sc.system_params["y"] == sc.typed.params["y"] == (1, 2)
        assert all(isinstance(sc.typed.params[key], tuple) for key in ("x", "y", "p"))

    def test_alice_lists_are_tuples(self):
        sc = spin_scenario()
        with pytest.raises(TypeError):
            sc.alice["axis"][1] = 2.0
        assert sc.alice["axis"] == sc.typed.alice["axis"] == (0.0, 1.0, 0.0)

    def test_scheme_lists_are_tuples(self):
        sc = spin_scenario()
        with pytest.raises(TypeError):
            sc.scheme["target"][0] = "down"
        assert sc.scheme["target"] == sc.typed.extras["target"] == ("up", "right")

    def test_raw_lists_are_copied_not_frozen(self):
        """Making a scenario leaves the caller's dict as it was, lists
        included, and a later write to that dict does not reach the scenario."""
        raw = {"version": 1, "system": "field", "alice": {"kind": "kick"},
               "system_params": {"dim": 2, "n_sites": 4, "mass": 1.0,
                                 "x": [0, 0], "y": [1, 2], "p": [1, 0]},
               "scheme": {"id": "naive-np"}, "observables": ["pi_y"], "lambda_grid": [0.3]}
        before = copy.deepcopy(raw)
        sc = Scenario.from_dict(raw)
        assert raw == before and type(raw["system_params"]["y"]) is list
        raw["system_params"]["y"][0] = 3
        assert sc.system_params["y"] == sc.typed.params["y"] == (1, 2)


README = Path(__file__).resolve().parent.parent / "README.md"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestRegistry:
    def test_readme_table_matches_registry(self):
        """Each system's row of the README's scenario-file table lists the
        registry's params, scheme ids with their extras (optional ones marked
        so) and observables, in the registry's order."""
        rows = {}
        for line in README.read_text().splitlines():
            cells = [c.strip() for c in line.split("|")[1:-1]]
            if len(cells) == 4 and cells[0].strip("`") in harness.SYSTEMS:
                rows[cells[0].strip("`")] = [
                    [(opt.strip(), name) for opt, name in
                     re.findall(r"(optional )?`([^`]+)`", cell)] for cell in cells[1:]]
        assert set(rows) == set(harness.SYSTEMS)
        for name, spec in harness.SYSTEMS.items():
            params, schemes, observables = rows[name]
            assert params == [("", key) for key in spec.params], name
            want = []
            for sid, scheme in spec.schemes.items():
                want.append(("", sid))
                want += [("" if p.default is harness._REQUIRED else "optional", key)
                         for key, p in scheme.extras.items()]
            assert schemes == want, name
            want = [("", obs) for obs in spec.observables]
            for sid, scheme in spec.schemes.items():
                if scheme.observables:
                    want += [("", sid)] + [("", obs) for obs in scheme.observables]
            assert observables == want, name


def _keys(*lams) -> list:
    """The distinct (lam, sign) points of lams, sorted."""
    return sorted({(lam, math.copysign(1.0, lam)) for lam in lams})


def _count_system_calls(monkeypatch, system: str) -> list:
    """Record the (lam, sign) points of every values(lams) call of a system."""
    spec = harness.SYSTEMS[system]
    calls = []

    def evaluator(*args):
        values = spec.evaluator(*args)

        def counted(lams):
            calls.append(sorted((lam, math.copysign(1.0, lam)) for lam in lams.tolist()))
            return values(lams)

        return counted

    monkeypatch.setitem(harness.SYSTEMS, system, replace(spec, evaluator=evaluator))
    return calls


class TestRunScenario:
    def test_spin_qndsv_signaling_table(self):
        rep = run_scenario(spin_scenario())
        table = dict(rep.tables["sBz"])
        assert table[0.0] == pytest.approx(0.0, abs=1e-12)
        assert table[HALF_PI] == pytest.approx(0.25, abs=1e-12)
        assert rep.max_deviation["sBz"] == pytest.approx(0.25, abs=1e-12)

    def test_semicausal_scheme_flat_across_grid(self):
        import numpy as np

        grid = tuple(np.linspace(0.0, math.pi, 9))
        rep = run_scenario(spin_scenario(scheme={"id": "s2-bell"},
                                         lambda_grid=list(grid)))
        assert rep.max_deviation["sBz"] <= 1e-10
        assert abs(rep.derivative_at_zero["sBz"]) <= 1e-10

    def test_field_naive_momentum_derivative(self):
        rep = run_scenario(field_scenario())
        # d<pi_y>/dlam = -2 eps cos(p (x-y)) = -2 (1/4) cos(pi) = +1/2
        assert rep.derivative_at_zero["pi_y"] == pytest.approx(0.5, abs=1e-8)

    def test_deterministic_reports(self):
        a = run_scenario(field_scenario())
        b = run_scenario(field_scenario())
        assert a.tables == b.tables
        assert a.derivative_at_zero == b.derivative_at_zero

    @pytest.mark.parametrize("make", [
        lambda: spin_scenario(observables=["sBx", "sBy", "sBz", "S2"]),
        lambda: field_scenario(observables=["phi_y", "pi_y", "phi2_y", "pi2_y"],
                               lambda_grid=[-0.3, -0.0, 0.3]),
        lambda: oscillator_scenario(observables=["QB", "PB", "QB2", "PB2", "EB"],
                                    lambda_grid=[-0.2, -0.0, 0.1, 0.2]),
    ], ids=["spin", "field", "oscillator"])
    def test_each_distinct_lambda_is_evaluated_once(self, monkeypatch, make):
        """One system call per report, on exactly the distinct (lam, sign)
        points of the grid, the baseline and the Richardson points, whatever
        the number of observables; a grid's -0.0 stays apart from 0.0."""
        sc = make()
        calls = _count_system_calls(monkeypatch, sc.system)
        run_scenario(sc)
        h = 1e-3 * max(abs(v) for v in sc.lambda_grid)
        assert calls == [_keys(*sc.lambda_grid, 0.0, h / 2, -h / 2, h, -h)]

    def test_compare_calls_each_scheme_once(self, monkeypatch):
        """compare_schemes reads lambda_ref and the Richardson points, each
        compared scheme in one call; "none" also serves every 'before'."""
        sc = oscillator_scenario(observables=["PB"])
        calls = _count_system_calls(monkeypatch, sc.system)
        compare_schemes(sc, ["naive-nplus", "none"])
        h = 1e-3 * max(abs(v) for v in sc.lambda_grid)
        assert calls == [_keys(sc.lambda_ref, h / 2, -h / 2, h, -h)] * 2
        calls.clear()
        compare_schemes(sc, ["naive-nplus", "phase-nplus"])
        assert calls == [_keys(sc.lambda_ref)] + [_keys(sc.lambda_ref, h / 2, -h / 2, h, -h)] * 2

    @pytest.mark.parametrize("measure", ["deviation", "after_value"])
    def test_sweep_calls_once_per_cutoff(self, monkeypatch, measure):
        sc = oscillator_scenario(observables=["QB2"])
        calls = _count_system_calls(monkeypatch, sc.system)
        cutoff_sweep(sc, "s_cut", [2, 4, 8], measure=measure)
        reads = (*sc.lambda_grid, 0.0) if measure == "deviation" else (sc.lambda_ref,)
        assert calls == [_keys(*reads)] * 3

    def test_spin_branches_are_shared_by_observables(self, monkeypatch, cold_spin_table):
        """From an empty spins table, each observable's M_O = sum_i P_i O P_i
        is formed once and serves the stack of every distinct lam, not once
        per lam; a second report in the process forms none."""
        sc = Scenario.from_dict(json.loads((SCENARIOS / "spin_s2_ambiguity.json").read_text()))
        assert len(sc.observables) == 2
        calls = _count_system_calls(monkeypatch, sc.system)
        formed = []
        original = spins.post_measurement_operator
        monkeypatch.setattr(spins, "post_measurement_operator",
                            lambda scheme, obs: formed.append(obs.matrix) or original(scheme, obs))
        run_scenario(sc)
        h = 1e-3 * max(abs(v) for v in sc.lambda_grid)
        distinct = set(sc.lambda_grid) | {0.0, h, -h, h / 2, -h / 2}
        assert [len(points) for points in calls] == [len(distinct)] == [7]
        want = [spins.spin_observable(name).matrix for name in sc.observables]
        assert len(formed) == len(want) == 2
        assert all(np.array_equal(got, op) for got, op in zip(formed, want))
        formed.clear()
        run_scenario(sc)
        assert formed == []

    def test_negative_zero_is_not_merged_with_zero(self):
        """A grid point at -0.0 keeps its own value next to the baseline at
        0.0: the CSVs print <pi_y> there as -0 and 0."""
        rep = run_scenario(field_scenario(lambda_grid=[-0.3, -0.0, 0.3]))
        assert math.copysign(1.0, dict(rep.tables["pi_y"])[-0.0]) == -1.0
        assert math.copysign(1.0, rep.baseline["pi_y"]) == 1.0


class TestDerivativeAndFit:
    def test_central_derivative_on_cubic(self):
        f = lambda x: 0.3 * x**3 - 2.0 * x + 1.0
        assert central_derivative(f, 0.0, 1.0) == pytest.approx(-2.0, abs=1e-9)

    def test_power_fit_recovers_exact_law(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        ys = [5.0 * x**-1.5 for x in xs]
        fit = power_fit(xs, ys)
        assert fit.exponent == pytest.approx(-1.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("ys", [[0.5, 0.5, 0.5], [0.5, 0.5 + 1e-16, 0.5],
                                    [0.0, 0.0, 0.0], [0.0, -0.0, 0.0]],
                             ids=["flat", "near-flat", "zero", "signed-zero"])
    def test_power_fit_of_flat_measure_is_nan(self, ys):
        """A flat row has no exponent; a 1e-16 wobble would fit with R^2 0.5."""
        fit = power_fit([10.0, 20.0, 40.0], ys)
        assert math.isnan(fit.exponent) and math.isnan(fit.r_squared)

    def test_power_fit_of_slight_variation_is_kept(self):
        fit = power_fit([10.0, 20.0, 40.0], [1.0, 1.0 + 1e-6, 1.0 + 2e-6])
        assert 0.0 < fit.exponent < 1e-5 and fit.r_squared > 0.9


class TestCutoffSweep:
    def test_volume_sweep_exponent(self):
        rep = cutoff_sweep(field_scenario(), "volume", [4, 8, 16])
        assert rep.fits["pi_y"].exponent == pytest.approx(-1.0, abs=0.05)
        assert rep.fits["pi_y"].r_squared > 0.999

    def test_flat_measures_fit_to_nan(self):
        """QB and PB of the phase scheme are identically zero at every s_cut;
        QB2 varies and keeps its exponent."""
        rep = cutoff_sweep(oscillator_scenario(observables=["QB", "PB", "QB2"]),
                           "s_cut", [4, 6, 8])
        assert all(math.isnan(v) for name in ("QB", "PB")
                   for v in (rep.fits[name].exponent, rep.fits[name].r_squared))
        assert math.isfinite(rep.fits["QB2"].exponent)

    def test_s_cut_sweep_exponent(self):
        rep = cutoff_sweep(oscillator_scenario(observables=["QB2"]),
                           "s_cut", [64, 128, 256, 512], measure="after_value")
        assert rep.fits["QB2"].exponent == pytest.approx(1.0, abs=0.05)

    def test_spacing_sweep_amplitude_monotone(self):
        sc = field_scenario(system_params={
            "dim": 1, "n_sites": 8, "spacing": 1.0, "mass": 1.0,
            "x": 0, "y": 4, "p": 1})
        rep = cutoff_sweep(sc, "spacing", [1.0, 0.5, 0.25], measure="amplitude")
        vals = rep.rows["suppression_amplitude"]
        assert vals[0] > vals[1] > vals[2]

    def test_too_few_points_rejected(self):
        with pytest.raises(ScenarioError, match="3 points"):
            cutoff_sweep(field_scenario(), "volume", [4, 8])

    def test_axis_system_mismatch_rejected(self):
        with pytest.raises(ScenarioError, match="axis"):
            cutoff_sweep(field_scenario(), "s_cut", [2, 4, 8])
        with pytest.raises(ScenarioError, match="axis"):
            cutoff_sweep(oscillator_scenario(), "volume", [4, 8, 16])

    def test_wavenumber_must_stay_physical(self):
        with pytest.raises(ScenarioError, match="held fixed"):
            cutoff_sweep(field_scenario(), "volume", [4, 8, 6])

    @pytest.mark.parametrize("axis, values, message", [
        ("volume", [4, 8, 6], "wavenumber 1 cannot be held fixed in physical units at N=6"),
        ("spacing", [1.0, 0.3, 0.25],
         "spacing 0.3 does not preserve the box: N=13.333333333333334"),
    ])
    def test_refused_cutoff_keeps_its_message(self, axis, values, message):
        with pytest.raises(ScenarioError) as err:
            cutoff_sweep(field_scenario(), axis, values)
        assert str(err.value) == message

    @pytest.mark.parametrize("make, axis, values, measure", [
        (field_scenario, "volume", [4, 8, 16], "deviation"),
        (field_scenario, "spacing", [1.0, 0.5, 0.25], "amplitude"),
        (oscillator_scenario, "s_cut", [2, 4, 6], "after_value"),
    ])
    def test_each_point_is_validated_once(self, monkeypatch, make, axis, values, measure):
        """The base scenario was checked when it was made; the sweep checks
        each point once, when it makes it, and none again."""
        sc, validated = make(), []
        validate = Scenario.validate
        monkeypatch.setattr(Scenario, "validate",
                            lambda self: validated.append(self) or validate(self))
        cutoff_sweep(sc, axis, values, measure=measure)
        assert len(validated) == len(values) and not any(sub is sc for sub in validated)

    @pytest.mark.parametrize("make, axis, values, refused", [
        (oscillator_scenario, "s_cut", [0, 2, 4], "[0]"),
        (oscillator_scenario, "trunc", [20, -30, 40], "[-30]"),
        (field_scenario, "volume", [4, 0, 8], "[0]"),
        (field_scenario, "spacing", [1.0, 0.5, -0.25], "[-0.25]"),
    ])
    def test_non_positive_cutoff_refused_before_evaluation(self, monkeypatch, make, axis,
                                                           values, refused):
        """A zero or negative cutoff is named, not fed to log() or a lattice."""
        sc = make()
        monkeypatch.setattr(harness, "make_evaluator",
                            lambda sub, points, **kw: pytest.fail("evaluated"))
        monkeypatch.setitem(harness.SYSTEMS[sc.system].sweep_axes, axis,
                            lambda sub, value: pytest.fail("rescaled"))
        with pytest.raises(ScenarioError) as err:
            cutoff_sweep(sc, axis, values)
        assert str(err.value) == f"sweep axis {axis!r} needs positive cutoffs, got {refused}"

    @pytest.mark.parametrize("values, repeated", [
        ([4, 4, 8], "[4.0]"), ([4, 4.0, 8], "[4.0]"), ([4, 8, 16, 8], "[8.0]"),
    ])
    def test_repeated_cutoff_refused(self, monkeypatch, values, repeated):
        """A repeated cutoff would write a duplicate row and weigh the fit twice."""
        monkeypatch.setattr(harness, "make_evaluator",
                            lambda sub, points, **kw: pytest.fail("evaluated"))
        with pytest.raises(ScenarioError) as err:
            cutoff_sweep(field_scenario(), "volume", values)
        assert str(err.value) == f"sweep axis 'volume' cutoffs repeat {repeated}"

    def test_amplitude_needs_a_system_amplitude(self):
        with pytest.raises(ScenarioError, match="'amplitude' is not meaningful"):
            cutoff_sweep(oscillator_scenario(), "trunc", [20, 30, 40], measure="amplitude")


class TestSignalingClassification:
    """Causal prescriptions show no lam response anywhere; the violating
    ones clear their documented floors."""

    def test_causal_schemes_are_flat(self):
        causal = [
            spin_scenario(scheme={"id": "s2-bell"}),
            spin_scenario(scheme={"id": "sz-standard"},
                          observables=["sBx", "sBy", "sBz"]),
            oscillator_scenario(observables=["QB", "PB"]),
        ]
        for sc in causal:
            rep = run_scenario(sc)
            for obs in sc.observables:
                assert abs(rep.derivative_at_zero[obs]) <= 1e-6, (sc.scheme, obs)
                assert rep.max_deviation[obs] <= 1e-6, (sc.scheme, obs)

    def test_violating_schemes_clear_their_floors(self):
        # spins: quarter-of-hbar scale in the value response
        for scheme in ({"id": "qndsv", "target": ["up", "right"]},
                       {"id": "s2-standard"}, {"id": "sz-bell"}):
            rep = run_scenario(spin_scenario(scheme=scheme))
            assert rep.max_deviation["sBz"] >= 0.25 - 1e-10, scheme
        # oscillator: naive collapse leaks the kick with slope 1/2
        rep = run_scenario(oscillator_scenario(scheme={"id": "naive-nplus"},
                                               observables=["PB"]))
        assert abs(rep.derivative_at_zero["PB"]) >= 0.5 - 1e-6
        # field: naive momentum response at the mode-volume scale eps = 1/4
        rep = run_scenario(field_scenario())
        assert abs(rep.derivative_at_zero["pi_y"]) >= 2 * 0.25 - 1e-6


class TestCompareSchemes:
    def test_spin_prescriptions_side_by_side(self):
        sc = spin_scenario(scheme={"id": "s2-bell"}, lambda_grid=[0.0, HALF_PI],
                           lambda_ref=0.0)
        rows = {r.scheme_id: r for r in
                compare_schemes(sc, ["s2-bell", "sz-standard", "none"])}
        assert rows["s2-bell"].after == pytest.approx(0.0, abs=1e-12)
        assert rows["sz-standard"].after == pytest.approx(0.5, abs=1e-12)
        assert rows["none"].after == pytest.approx(0.5, abs=1e-12)
        for r in rows.values():
            assert r.before == pytest.approx(0.5, abs=1e-12)

    def test_oscillator_momentum_derivatives(self):
        sc = oscillator_scenario(observables=["PB"])
        rows = {r.scheme_id: r for r in
                compare_schemes(sc, ["naive-nplus", "phase-nplus"])}
        assert rows["naive-nplus"].derivative == pytest.approx(-0.5, abs=1e-6)
        assert rows["phase-nplus"].derivative == pytest.approx(0.0, abs=1e-6)

    def test_oscillator_energy_observable(self):
        sc = oscillator_scenario(observables=["EB"])
        rows = {r.scheme_id: r for r in
                compare_schemes(sc, ["naive-nplus", "phase-nplus"])}
        # vacuum energy hbar Omega / 2 before either measurement
        for r in rows.values():
            assert r.before == pytest.approx(0.5, abs=1e-10)
        # the naive collapse barely disturbs B; the phase-state scheme pumps
        # roughly s_cut/2 quanta into it (here s_cut = 4)
        assert rows["naive-nplus"].after < 0.6
        assert rows["phase-nplus"].after > 2.0

    def test_field_verification_vs_naive(self):
        sc = field_scenario(system_params={
            "dim": 1, "n_sites": 4, "spacing": 1.0, "mass": 1.0,
            "x": 0, "y": 1, "p": 1}, observables=["phi_y"])
        rows = {r.scheme_id: r for r in
                compare_schemes(sc, ["qndsv-1p", "naive-np"])}
        assert abs(rows["qndsv-1p"].after) > 1e-3   # suppressed but nonzero
        assert rows["naive-np"].after == pytest.approx(0.0, abs=1e-14)

    def test_needs_two_schemes(self):
        with pytest.raises(ScenarioError):
            compare_schemes(spin_scenario(), ["qndsv"])

    @pytest.mark.parametrize("make, scheme_ids, repeated", [
        (oscillator_scenario, ["none", "none", "naive-nplus"], "['none']"),
        (field_scenario, ["naive", "naive-np"], "['naive-np']"),
        (oscillator_scenario, ["phase-nplus", "none", "phase-nplus", "none"],
         "['phase-nplus', 'none']"),
    ])
    def test_repeated_scheme_id_refused(self, make, scheme_ids, repeated):
        """Ids repeat after alias resolution: naive and naive-np are one scheme."""
        with pytest.raises(ScenarioError) as err:
            compare_schemes(make(), scheme_ids)
        assert str(err.value) == f"scheme ids {','.join(scheme_ids)} repeat {repeated}"
