"""Two-spin prescriptions: flip example, post-basis ambiguity, semicausality."""

from __future__ import annotations

import filecmp
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalprobe import cli, harness, spins
from causalprobe.core import (
    StateVector,
    born_ensemble,
    post_measurement_expectation,
    post_measurement_expectations,
    post_measurement_operator,
    validate_scheme,
)
from causalprobe.spins import (
    OBSERVABLES,
    SCHEMES,
    alice_rotate,
    axis_sigma,
    spin_observable,
    spin_scheme,
    spin_state,
)

from conftest import (bloch_grid, expectation, minus, plus, probability, random_rotations,
                      same_up_to_phase)
from test_golden import COMMANDS

SBZ = spin_observable("sBz")
HALF_PI = math.pi / 2


class TestStates:
    def test_up_up(self):
        assert np.allclose(spin_state("up", "up").amplitudes, [1, 0, 0, 0])

    def test_right_up(self):
        assert np.allclose(spin_state("right", "up").amplitudes,
                           np.array([1, 0, 1, 0]) / math.sqrt(2))

    def test_plus_z_is_up(self):
        assert np.allclose(spin_state(plus((0, 0, 1)), "down").amplitudes,
                           [0, 1, 0, 0])

    def test_plus_x_is_right(self):
        assert same_up_to_phase(spin_state(plus((1, 0, 0)), "up"),
                                spin_state("right", "up"))

    def test_minus_z_is_down(self):
        assert np.allclose(spin_state(minus((0, 0, 1)), "up").amplitudes,
                           [0, 0, 1, 0])

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            spin_state(plus((1, 1, 0)), "up")

    @pytest.mark.parametrize("axis", [(math.nan, 0, 0), (0, math.nan, 1), (math.inf, 0, 0)])
    def test_non_finite_axis_rejected(self, axis):
        """Formerly axis_sigma((nan, 0, 0)) returned a NaN matrix."""
        with pytest.raises(ValueError, match="unit length"):
            axis_sigma(axis)

    @pytest.mark.parametrize("hbar", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_non_finite_or_non_positive_hbar_rejected(self, hbar):
        """Formerly spin_observable("sBz", inf) returned an all-NaN operator."""
        for name in OBSERVABLES:
            with pytest.raises(ValueError, match="hbar must be positive and finite"):
                spin_observable(name, hbar)


class TestRotations:
    def test_quarter_turn_about_y_gives_right(self):
        got = alice_rotate(spin_state("up", "up"), (0, 1, 0), HALF_PI)
        assert same_up_to_phase(got, spin_state("right", "up"))

    def test_flip_about_x(self):
        got = alice_rotate(spin_state("up", "up"), (1, 0, 0), math.pi)
        assert same_up_to_phase(got, spin_state("down", "up"))

    def test_zero_angle_is_identity(self):
        psi = spin_state("right", "down")
        got = alice_rotate(psi, (0, 0, 1), 0.0)
        assert np.allclose(got.amplitudes, psi.amplitudes)

    def test_norm_preserved(self):
        psi = spin_state("up", "up")
        for axis, ang in random_rotations(10, seed=3):
            assert alice_rotate(psi, axis, ang).norm == pytest.approx(1.0, abs=1e-12)


class TestTotalSpinSquaredScheme:
    def test_standard_probabilities_on_right_up(self):
        ens = born_ensemble(spin_scheme("s2-standard"), spin_state("right", "up"))
        probs = {e.label: e.probability for e in ens.entries}
        assert probs["S=0 singlet"] == pytest.approx(0.25, abs=1e-12)
        assert probs["S=1 m=0 sym"] == pytest.approx(0.25, abs=1e-12)
        assert probs["S=1 up-up"] == pytest.approx(0.5, abs=1e-12)
        assert probs["S=1 down-down"] == pytest.approx(0.0, abs=1e-14)

    def test_bell_probabilities_on_right_up(self):
        ens = born_ensemble(spin_scheme("s2-bell"), spin_state("right", "up"))
        for e in ens.entries:
            assert e.probability == pytest.approx(0.25, abs=1e-12)

    def test_basis_choice_changes_bobs_value(self):
        psi = spin_state("right", "up")
        assert post_measurement_expectation(psi, spin_scheme("s2-standard"), SBZ) \
            == pytest.approx(0.25, abs=1e-12)
        assert post_measurement_expectation(psi, spin_scheme("s2-bell"), SBZ) \
            == pytest.approx(0.0, abs=1e-12)

    def test_flip_example(self):
        # no flip: the product triplet state survives with certainty
        ens = born_ensemble(spin_scheme("s2-standard"), spin_state("up", "up"))
        assert probability(ens, "S=1 up-up") == pytest.approx(1.0, abs=1e-12)
        assert post_measurement_expectation(
            spin_state("up", "up"), spin_scheme("s2-standard"), SBZ) \
            == pytest.approx(0.5, abs=1e-12)
        # flipped: half singlet, half symmetric triplet, Bob sees zero
        flipped = spin_state("down", "up")
        ens2 = born_ensemble(spin_scheme("s2-standard"), flipped)
        assert probability(ens2, "S=0 singlet") == pytest.approx(0.5, abs=1e-12)
        assert probability(ens2, "S=1 m=0 sym") == pytest.approx(0.5, abs=1e-12)
        assert post_measurement_expectation(flipped, spin_scheme("s2-standard"), SBZ) \
            == pytest.approx(0.0, abs=1e-12)

    def test_total_spin_conserved_across_bases(self):
        s2 = spin_observable("S2")
        psi = spin_state("right", "up")
        before = expectation(s2, psi)
        assert before == pytest.approx(1.5, abs=1e-12)
        for choice in ("standard", "bell", "luders"):
            after = post_measurement_expectation(psi, spin_scheme(f"s2-{choice}"), s2)
            assert after == pytest.approx(before, abs=1e-10)

    def test_lueders_matches_standard_on_down_up(self):
        psi = spin_state("down", "up")
        std = born_ensemble(spin_scheme("s2-standard"), psi)
        lud = born_ensemble(spin_scheme("s2-luders"), psi)
        assert probability(lud, "S=0") == pytest.approx(
            probability(std, "S=0 singlet"), abs=1e-12)
        assert probability(lud, "S=1") == pytest.approx(
            probability(std, "S=1 m=0 sym"), abs=1e-12)
        # the triplet branch collapses onto the same symmetric state
        lud_triplet = next(e for e in lud.entries if e.label == "S=1")
        std_triplet = next(e for e in std.entries if e.label == "S=1 m=0 sym")
        assert abs(np.vdot(lud_triplet.post_state.amplitudes,
                           std_triplet.post_state.amplitudes)) == pytest.approx(1.0, abs=1e-12)


class TestTotalSpinZScheme:
    def test_m0_basis_choice_changes_bobs_value(self):
        psi = spin_state("right", "up")
        assert post_measurement_expectation(psi, spin_scheme("sz-standard"), SBZ) \
            == pytest.approx(0.5, abs=1e-12)
        assert post_measurement_expectation(psi, spin_scheme("sz-bell"), SBZ) \
            == pytest.approx(0.25, abs=1e-12)

    def test_eigenstate_passes_through(self):
        ens = born_ensemble(spin_scheme("sz-standard"), spin_state("up", "up"))
        assert probability(ens, "m=+1") == pytest.approx(1.0, abs=1e-12)

    def test_schemes_validate(self):
        for sid, frames in SCHEMES.items():
            assert validate_scheme(spin_scheme(sid)).within(1e-12), sid
            labels = [label for label, _ in frames]
            assert len(set(labels)) == len(labels), sid


class TestMeasuredFlag:
    """<obs> on the prestate against the post-measurement ensemble average:
    where they differ, local data alone tell that the measurement happened."""

    def test_semicausal_s2_erases_local_value(self):
        psi = spin_state("up", "up")
        assert expectation(SBZ, psi) == pytest.approx(0.5, abs=1e-12)
        assert post_measurement_expectation(psi, spin_scheme("s2-bell"), SBZ) \
            == pytest.approx(0.0, abs=1e-12)

    def test_causal_sz_preserves_it(self):
        psi = spin_state("up", "up")
        assert expectation(SBZ, psi) == pytest.approx(0.5, abs=1e-12)
        assert post_measurement_expectation(psi, spin_scheme("sz-standard"), SBZ) \
            == pytest.approx(0.5, abs=1e-12)

    def test_identity_scheme_changes_nothing(self, rng):
        from conftest import random_state

        psi = random_state((2, 2), rng)
        assert post_measurement_expectation(psi, spin_scheme("none"), SBZ) \
            == pytest.approx(expectation(SBZ, psi), abs=1e-12)


def _invariance_deviation(scheme, rotations):
    """Max change of any B observable under A-local rotations of up-up."""
    psi = spin_state("up", "up")
    worst = 0.0
    for name in ("sBx", "sBy", "sBz"):
        obs = spin_observable(name)
        ref = post_measurement_expectation(psi, scheme, obs)
        for axis, angle in rotations:
            rotated = alice_rotate(psi, axis, angle)
            val = post_measurement_expectation(rotated, scheme, obs)
            worst = max(worst, abs(val - ref))
    return worst


class TestNoSignalingSuite:
    ROTATIONS = bloch_grid(10) + random_rotations(100, seed=7)

    def test_bell_s2_passes(self):
        assert _invariance_deviation(spin_scheme("s2-bell"), self.ROTATIONS) <= 1e-10

    def test_standard_sz_passes(self):
        assert _invariance_deviation(spin_scheme("sz-standard"), self.ROTATIONS) <= 1e-10

    def test_standard_s2_witness(self):
        a = post_measurement_expectation(spin_state("up", "up"), spin_scheme("s2-standard"), SBZ)
        b = post_measurement_expectation(
            alice_rotate(spin_state("up", "up"), (0, 1, 0), HALF_PI),
            spin_scheme("s2-standard"), SBZ)
        assert abs(a - b) >= 0.25 - 1e-10

    def test_bell_sz_witness(self):
        a = post_measurement_expectation(spin_state("up", "up"), spin_scheme("sz-bell"), SBZ)
        b = post_measurement_expectation(
            alice_rotate(spin_state("up", "up"), (0, 1, 0), HALF_PI),
            spin_scheme("sz-bell"), SBZ)
        assert abs(a - b) >= 0.25 - 1e-10


def _bob_signaling(scheme) -> float:
    """max |M_O - 1_A (x) tr_A(M_O)/2| over Bob's three spins at hbar = 1:
    zero exactly when no Alice operation, from any initial state, moves any
    of Bob's expectation values after the measurement."""
    worst = 0.0
    for name in ("sBx", "sBy", "sBz"):
        heisenberg = post_measurement_operator(scheme, spin_observable(name))
        bob = np.trace(heisenberg.reshape(2, 2, 2, 2), axis1=0, axis2=2) / 2
        worst = max(worst, float(np.max(np.abs(heisenberg - np.kron(np.eye(2), bob)))))
    return worst


class TestHeisenbergCausality:
    """The paper's spin claims, for every Alice operation and initial state
    at once: a scheme signals exactly when Bob's M_O depends on Alice's spin."""

    @pytest.mark.parametrize("sid", ["sz-standard", "sz-luders", "s2-bell", "none"])
    def test_causal_schemes_keep_bobs_matrices_local(self, sid):
        assert _bob_signaling(spin_scheme(sid)) <= 1e-15

    @pytest.mark.parametrize("sid, target", [
        ("s2-standard", None), ("s2-luders", None), ("sz-bell", None),
        ("qndsv", ("up", "up")), ("qndsv", ("up", "right")), ("qndsv", ("right", "down"))])
    def test_signaling_schemes_reach_alice(self, sid, target):
        assert _bob_signaling(spin_scheme(sid, target)) >= 0.1


class TestNoMeasurementEquivalence:
    def test_arbitrary_axis_product_basis_reproduces_plain_expectation(self, rng):
        """A complete orthogonal measurement in any {|+-_A>, |up/down_B>}
        product basis leaves Bob's expectation at its unmeasured value."""
        from causalprobe.core import MeasurementScheme
        from conftest import random_state

        for axis in [(0, 0, 1), (1, 0, 0),
                     tuple(v / np.linalg.norm([0.3, -1.2, 0.5]) for v in (0.3, -1.2, 0.5))]:
            vecs = []
            for a_label in (plus(axis), minus(axis)):
                for b_label in ("up", "down"):
                    vecs.append(spin_state(a_label, b_label).amplitudes)
            scheme = MeasurementScheme.from_basis(
                (2, 2), [(f"v{i}", v) for i, v in enumerate(vecs)])
            for _ in range(5):
                psi = random_state((2, 2), rng)
                want = expectation(SBZ, psi)
                got = post_measurement_expectation(psi, scheme, SBZ)
                assert got == pytest.approx(want, abs=1e-10)


class TestHbarScaling:
    def test_values_scale_linearly(self):
        psi = spin_state("right", "up")
        obs2 = spin_observable("sBz", hbar=2.0)
        assert post_measurement_expectation(psi, spin_scheme("s2-standard"), obs2) \
            == pytest.approx(0.5, abs=1e-12)


class TestSchemeRegistry:
    def test_ids_resolve(self):
        for sid in ("qndsv", *SCHEMES):
            target = ("up", "right") if sid == "qndsv" else None
            scheme = spin_scheme(sid, target=target)
            assert validate_scheme(scheme).within(1e-10)

    def test_harness_reads_the_tables(self):
        assert set(harness.SPIN.schemes) == {"qndsv"} | set(SCHEMES)
        assert harness.SPIN.observables == OBSERVABLES

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            spin_scheme("s3-standard")

    def test_qndsv_needs_target(self):
        with pytest.raises(ValueError):
            spin_scheme("qndsv")


# ---------------------------------------------------------------------------
# the spins table: the fixed matrices every spin report reads, at hbar = 1

NAMED_PAIRS = list(itertools.product(["up", "down", "right", "left"], repeat=2))
# every scheme key of the table: the fixed ids, and qndsv on each named pair
SCHEME_KEYS = [(sid, None) for sid in SCHEMES] + [("qndsv", t) for t in NAMED_PAIRS]
LAMS = np.array([0.0, -0.0, 0.3, -1.1, HALF_PI, 2.5])
AXIS = (0.6, 0.0, 0.8)


def _table_values(key, initial, hbar) -> dict:
    """Every observable's values at LAMS, read by the harness from the table."""
    sid, target = key
    sc = harness.Scenario.from_dict({
        "version": 1, "system": "spin",
        "system_params": {"initial": list(initial), "hbar": hbar},
        "alice": {"kind": "rotate", "axis": list(AXIS)},
        "scheme": {"id": sid, **({"target": list(target)} if target else {})},
        "observables": list(OBSERVABLES), "lambda_grid": [0.0]})
    return harness.SPIN.evaluator(sc, {})(LAMS)


def _per_call_values(key, initial, hbar) -> np.ndarray:
    """The same values from a scheme, operators and prestate built for the
    call, each operator at hbar itself: shape (len(OBSERVABLES), len(LAMS))."""
    rows = spins.alice_rotations(spin_state(*initial), AXIS, LAMS.tolist())
    operators = [spin_observable(name, hbar) for name in OBSERVABLES]
    return post_measurement_expectations(rows, spin_scheme(*key), operators)


def _assert_table_matches_per_call(key, hbar) -> None:
    """Within 1e-15 of each observable's scale, its largest |eigenvalue|."""
    scales = [np.max(np.abs(np.linalg.eigvalsh(spin_observable(name, hbar).matrix)))
              for name in OBSERVABLES]
    for initial in NAMED_PAIRS:
        table, per_call = _table_values(key, initial, hbar), _per_call_values(key, initial, hbar)
        for name, scale, want in zip(OBSERVABLES, scales, per_call):
            assert np.max(np.abs(table[name] - want)) <= 1e-15 * scale, (key, initial, name)


class TestTable:
    def test_keys_cover_every_scheme_id(self):
        assert len(SCHEME_KEYS) == 23
        assert {sid for sid, _ in SCHEME_KEYS} == set(harness.SPIN.schemes)

    @pytest.mark.parametrize("key", SCHEME_KEYS, ids=str)
    def test_equals_the_per_call_route_bit_for_bit_at_unit_hbar(self, key, cold_spin_table):
        for initial in NAMED_PAIRS:
            table, per_call = _table_values(key, initial, 1.0), _per_call_values(key, initial, 1.0)
            for name, want in zip(OBSERVABLES, per_call):
                assert table[name].tobytes() == want.tobytes(), (key, initial, name)

    @pytest.mark.parametrize("key", SCHEME_KEYS, ids=str)
    def test_matches_the_per_call_route_at_other_hbar(self, key):
        _assert_table_matches_per_call(key, 0.7)

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(key=st.sampled_from(SCHEME_KEYS), hbar=st.floats(0.01, 50.0))
    def test_matches_the_per_call_route_at_drawn_hbar(self, key, hbar):
        _assert_table_matches_per_call(key, hbar)

    def test_holds_read_only_arrays(self, cold_spin_table):
        for key in SCHEME_KEYS:
            for initial in NAMED_PAIRS[:2]:
                _table_values(key, initial, 1.0)
        kinds = {type(value) for value in cold_spin_table.values()}
        assert kinds == {spins.MeasurementScheme, spins.Operator, StateVector, np.ndarray}
        # 23 schemes, 8 observables, 2 prestates and an M_O per scheme and observable
        assert len(cold_spin_table) == 23 + 8 + 2 + 23 * 8
        arrays = []
        for value in cold_spin_table.values():
            if isinstance(value, spins.MeasurementScheme):
                arrays += [out.frame for out in value.outcomes]
            elif isinstance(value, spins.Operator):
                arrays.append(value.matrix)
            elif isinstance(value, StateVector):
                arrays.append(value.amplitudes)
            else:
                arrays.append(value)
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            arrays[-1][0, 0] = 1.0

    @pytest.mark.parametrize("name", ["spin_qndsv", "spin_s2_sz", "compare_spin"])
    def test_cold_and_warm_runs_write_the_same_bytes(self, tmp_path, cold_spin_table, name):
        assert not cold_spin_table
        for run in ("cold", "warm"):
            assert cli.main([*COMMANDS[name], "--out", str(tmp_path / run)]) == 0
        csvs = sorted(p.name for p in (tmp_path / "cold").glob("*.csv"))
        assert csvs == sorted(p.name for p in (tmp_path / "warm").glob("*.csv"))
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "cold", tmp_path / "warm",
                                                   csvs, shallow=False)
        assert (mismatch, errors) == ([], []) and match

    def test_is_empty_after_import_and_scenario_checks(self):
        """Nothing fills it at import, nor when a spin scenario is made: a
        fresh command process starts with it empty."""
        scenarios = sorted(Path(__file__).resolve().parent.parent.glob("scenarios/spin_*.json"))
        code = ("import json, sys\n"
                "import causalprobe.cli\n"
                "from causalprobe import harness, spins\n"
                "assert spins._TABLE == {}, 'filled at import'\n"
                "for path in sys.argv[1:]:\n"
                "    harness.Scenario.from_dict(json.load(open(path)))\n"
                "assert spins._TABLE == {}, 'filled by a scenario check'\n")
        src = str(Path(spins.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", code, *map(str, scenarios)], env=env, check=True)
        assert scenarios

    @pytest.mark.parametrize("hbar", [-1.0, 0.0])
    def test_scenario_refuses_non_positive_hbar_when_made(self, hbar):
        with pytest.raises(harness.ScenarioError, match="hbar must be positive"):
            harness.Scenario.from_dict({
                "version": 1, "system": "spin", "system_params": {"hbar": hbar},
                "alice": {"kind": "rotate"}, "scheme": {"id": "none"},
                "observables": ["sBz"], "lambda_grid": [0.0]})
