"""Two-spin prescriptions: flip example, post-basis ambiguity, semicausality."""

from __future__ import annotations

import math

import numpy as np
import pytest

from causalprobe import harness
from causalprobe.core import (
    born_ensemble,
    post_measurement_expectation,
    post_measurement_operator,
    validate_scheme,
)
from causalprobe.spins import (
    OBSERVABLES,
    SCHEMES,
    alice_rotate,
    s2_total,
    spin_observable,
    spin_scheme,
    spin_state,
)

from conftest import (bloch_grid, expectation, minus, plus, probability, random_rotations,
                      same_up_to_phase)

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
        s2 = s2_total()
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
