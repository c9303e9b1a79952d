"""Hilbert-space engine: states, embeddings, Born ensembles, schemes."""

from __future__ import annotations

import dataclasses
import inspect
import math

import numpy as np
import pytest

from causalprobe.core import (
    MeasurementScheme,
    Operator,
    SchemeError,
    SchemeOutcome,
    StateVector,
    born_ensemble,
    embed_local,
    post_measurement_expectation,
    qndsv_scheme,
    reduced_projector,
    tensor_state,
    validate_scheme,
)
from causalprobe.spins import SIGMA_X, SIGMA_Z, spin_observable, spin_scheme, spin_state

from conftest import (expectation, probability, public_callables, random_state,
                      random_unitary)

UP = StateVector((2,), [1, 0])
DOWN = StateVector((2,), [0, 1])
RIGHT = StateVector((2,), np.array([1, 1]) / math.sqrt(2))


class TestStateVector:
    def test_length_must_match_dims(self):
        with pytest.raises(ValueError):
            StateVector((2, 2), [1, 0, 0])

    def test_norm_cached(self):
        sv = StateVector((2,), [3, 4])
        assert sv.norm == pytest.approx(5.0)
        assert not sv.is_normalized()

    def test_amplitudes_read_only(self):
        sv = StateVector((2,), [1, 0])
        with pytest.raises(ValueError):
            sv.amplitudes[0] = 0.0


class TestTensorState:
    def test_up_up(self):
        out = tensor_state([UP, UP])
        assert out.dims == (2, 2)
        assert np.allclose(out.amplitudes, [1, 0, 0, 0])

    def test_right_up(self):
        out = tensor_state([RIGHT, UP])
        assert np.allclose(out.amplitudes, np.array([1, 0, 1, 0]) / math.sqrt(2))

    def test_ground_ground_three_level(self):
        g = StateVector((3,), [1, 0, 0])
        out = tensor_state([g, g])
        want = np.zeros(9)
        want[0] = 1.0
        assert out.dims == (3, 3)
        assert np.allclose(out.amplitudes, want)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor_state([])

    def test_unnormalized_factor_rejected(self):
        with pytest.raises(ValueError):
            tensor_state([UP, StateVector((2,), [1, 1])])


class TestEmbedLocal:
    def test_sigma_z_on_slot_one(self):
        op = embed_local(Operator((2,), SIGMA_Z, hermitian=True), 1, (2, 2))
        assert np.allclose(op.matrix, np.diag([1, -1, 1, -1]))

    def test_sigma_x_on_slot_zero(self):
        op = embed_local(Operator((2,), SIGMA_X, hermitian=True), 0, (2, 2))
        assert np.allclose(op.matrix, np.kron(SIGMA_X, np.eye(2)))

    def test_number_operator_spectrum(self):
        n = np.diag(np.arange(5.0))
        op = embed_local(Operator((5,), n, hermitian=True), 0, (5, 5))
        vals = np.sort(np.linalg.eigvalsh(op.matrix))
        want = np.sort(np.repeat(np.arange(5.0), 5))
        assert np.allclose(vals, want)

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            embed_local(Operator((2,), SIGMA_Z), 2, (2, 2))


class TestBornEnsemble:
    def test_qndsv_up_right_on_up_up(self):
        # independent oracle: direct 4-dim inner products
        target = spin_state("up", "right")
        psi = spin_state("up", "up")
        p_yes_direct = abs(np.vdot(target.amplitudes, psi.amplitudes)) ** 2
        assert p_yes_direct == pytest.approx(0.5, abs=1e-15)

        ens = born_ensemble(qndsv_scheme(target), psi)
        assert probability(ens, "yes") == pytest.approx(0.5, abs=1e-12)
        assert probability(ens, "no") == pytest.approx(0.5, abs=1e-12)

    def test_s2_standard_on_up_up(self):
        ens = born_ensemble(spin_scheme("s2-standard"), spin_state("up", "up"))
        assert probability(ens, "S=1 up-up") == pytest.approx(1.0, abs=1e-12)
        zero = [e for e in ens.entries if e.label != "S=1 up-up"]
        assert all(e.zero_branch for e in zero)
        assert all(e.post_state is None for e in zero)

    def test_s2_standard_on_down_up(self):
        ens = born_ensemble(spin_scheme("s2-standard"), spin_state("down", "up"))
        assert probability(ens, "S=0 singlet") == pytest.approx(0.5, abs=1e-12)
        assert probability(ens, "S=1 m=0 sym") == pytest.approx(0.5, abs=1e-12)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            born_ensemble(qndsv_scheme(spin_state("up", "up")), UP)

    def test_probability_sum_validated(self):
        from causalprobe.core import OutcomeEnsemble, OutcomeEntry

        with pytest.raises(ValueError):
            OutcomeEnsemble((OutcomeEntry("a", 0.5, None, True),))


class TestPostMeasurementExpectation:
    def test_qndsv_signaling_values(self):
        scheme = qndsv_scheme(spin_state("up", "right"))
        obs = spin_observable("sBz")
        assert post_measurement_expectation(spin_state("up", "up"), scheme, obs) \
            == pytest.approx(0.0, abs=1e-12)
        assert post_measurement_expectation(spin_state("right", "up"), scheme, obs) \
            == pytest.approx(0.25, abs=1e-12)

    def test_identity_scheme_returns_plain_expectation(self, rng):
        obs = spin_observable("sBx")
        for _ in range(5):
            psi = random_state((2, 2), rng)
            want = float(np.real(np.vdot(psi.amplitudes, obs.matrix @ psi.amplitudes)))
            got = post_measurement_expectation(psi, spin_scheme("none"), obs)
            assert got == pytest.approx(want, abs=1e-12)

    def test_requires_hermitian_observable(self):
        bad = Operator((2, 2), np.diag([1j, 0, 0, 0]))
        with pytest.raises(ValueError):
            post_measurement_expectation(
                spin_state("up", "up"), qndsv_scheme(spin_state("up", "up")), bad)

    def test_unnormalized_sum_identity_random(self, rng):
        """sum_i <psi|P_i O P_i|psi> = sum_i p_i <O>_post,i on random
        complete-orthogonal and Lueders schemes up to dim 16."""
        for dims in [(2, 2), (4,), (2, 2, 2), (4, 4)]:
            dim = int(np.prod(dims))
            u = random_unitary(dim, rng)
            labeled = [(f"v{i}", u[:, i]) for i in range(dim)]
            complete = MeasurementScheme.from_basis(dims, labeled)
            # Lueders grouping of the same basis into two frames
            half = dim // 2
            lueders = MeasurementScheme.from_basis(
                dims, [("lo", u[:, :half].T), ("hi", u[:, half:].T)])
            herm = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            obs = Operator(dims, (herm + herm.conj().T) / 2, hermitian=True)
            psi = random_state(dims, rng)
            for scheme in (complete, lueders):
                direct = post_measurement_expectation(psi, scheme, obs)
                averaged = sum(e.probability * expectation(obs, e.post_state)
                               for e in born_ensemble(scheme, psi).entries if not e.zero_branch)
                assert direct == pytest.approx(averaged, abs=1e-10)

    def test_multi_vector_frame_is_the_lueders_projector(self, rng):
        """An outcome given several orthonormal vectors projects onto their
        span: its matrix and its action are those of sum_j |u_j><u_j|."""
        u = random_unitary(4, rng)
        scheme = MeasurementScheme.from_basis(
            (2, 2), [("lo", [u[:, 0], u[:, 1], u[:, 2]]), ("hi", u[:, 3])])
        lo = scheme.outcomes[0]
        want = sum(np.outer(u[:, j], u[:, j].conj()) for j in range(3))
        assert np.allclose(lo.projector_matrix(), want, rtol=0, atol=1e-14)
        psi = random_state((2, 2), rng)
        assert np.allclose(lo.apply(psi.amplitudes), want @ psi.amplitudes,
                           rtol=0, atol=1e-14)


class TestQndsvScheme:
    def test_projector_ranks(self):
        scheme = qndsv_scheme(spin_state("up", "right"))
        yes, no = scheme.outcomes
        assert np.linalg.matrix_rank(yes.projector_matrix()) == 1
        assert np.linalg.matrix_rank(no.projector_matrix()) == 3

    def test_up_up_yes_projector(self):
        scheme = qndsv_scheme(spin_state("up", "up"))
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        assert np.allclose(scheme.outcomes[0].projector_matrix(), want)

    def test_singlet_target_matches_subspace_projector(self):
        from causalprobe.spins import SINGLET

        scheme = qndsv_scheme(StateVector((2, 2), SINGLET))
        assert np.allclose(scheme.outcomes[0].projector_matrix(),
                           np.outer(SINGLET, SINGLET.conj()))

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            qndsv_scheme(StateVector((2,), [0, 0]))


def unchecked_scheme(dims, labeled) -> MeasurementScheme:
    """What from_basis builds, without its validation, so that invalid
    schemes reach validate_scheme."""
    return MeasurementScheme(dims, tuple(SchemeOutcome(label, np.atleast_2d(v).T)
                                         for label, v in labeled))


class TestValidateScheme:
    def test_causal_scheme_clean(self):
        diag = validate_scheme(spin_scheme("s2-bell"))
        assert diag.within(1e-12)

    def test_yes_only_scheme_completeness_hole(self):
        scheme = unchecked_scheme((2, 2), [("yes", [1, 0, 0, 0])])
        diag = validate_scheme(scheme)
        assert diag.completeness == pytest.approx(1.0, abs=1e-12)

    def test_non_orthogonal_pair_flagged(self):
        v1 = np.array([1, 0, 0, 0], dtype=complex)
        v2 = np.array([1, 1, 0, 0], dtype=complex) / math.sqrt(2)
        scheme = unchecked_scheme((2, 2), [("a", v1), ("b", v2)])
        assert validate_scheme(scheme).orthogonality > 0.1

    def test_non_orthonormal_frame_flagged(self):
        """Columns of one outcome that overlap, or a complement whose frame
        is not normalized, make that outcome fail idempotence."""
        v1 = np.array([1, 0, 0, 0], dtype=complex)
        v2 = np.array([1, 1, 0, 0], dtype=complex) / math.sqrt(2)
        scheme = unchecked_scheme(
            (2, 2), [("a", [v1, v2]), ("b", [[0, 0, 1, 0], [0, 0, 0, 1]])])
        assert validate_scheme(scheme).idempotence > 0.1
        halved = MeasurementScheme((2, 2), (SchemeOutcome("yes", v1[:, None]),
                                            SchemeOutcome("no", v1[:, None] / 2, complement=True)))
        diag = validate_scheme(halved)
        assert diag.idempotence > 0.1
        assert max(diag.orthogonality, diag.completeness) < 1e-15

    def test_constructor_rejects_incomplete(self):
        with pytest.raises(SchemeError):
            MeasurementScheme.from_basis((2, 2), [("yes", [1, 0, 0, 0])])


class TestReducedProjector:
    def test_bell_projectors_reduce_to_half_identity(self):
        for out in spin_scheme("s2-bell").outcomes:
            proj = Operator((2, 2), out.projector_matrix(), hermitian=True)
            red = reduced_projector(proj, keep=1)
            assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_projector_reduces_to_pure_state(self):
        psi = spin_state("up", "up")
        proj = Operator((2, 2), np.outer(psi.amplitudes, psi.amplitudes.conj()),
                        hermitian=True)
        red = reduced_projector(proj, keep=1)
        assert np.allclose(red.matrix, np.diag([1.0, 0.0]))

    def test_identity_traces_to_dimension(self):
        proj = Operator((2, 2), np.eye(4), hermitian=True)
        assert np.allclose(reduced_projector(proj, keep=1).matrix, 2 * np.eye(2))

    def test_three_party_trace(self, rng):
        psi = random_state((2, 3, 2), rng)
        proj = Operator((2, 3, 2), np.outer(psi.amplitudes, psi.amplitudes.conj()),
                        hermitian=True)
        red = reduced_projector(proj, keep=1)
        assert red.dims == (3,)
        assert np.trace(red.matrix) == pytest.approx(1.0, abs=1e-12)


class TestNoSignalingProperty:
    def test_semicausal_scheme_invariant_under_a_unitaries(self, rng):
        """Schemes whose reduced projectors on B all equal c*1_B leave every
        B-local expectation untouched by A-local unitaries on the prestate."""
        scheme = spin_scheme("s2-bell")
        for out in scheme.outcomes:
            red = reduced_projector(
                Operator((2, 2), out.projector_matrix(), hermitian=True), keep=1)
            assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)
        obs = spin_observable("sBz")
        psi = spin_state("up", "up")
        ref = post_measurement_expectation(psi, scheme, obs)
        for _ in range(25):
            u = np.kron(random_unitary(2, rng), np.eye(2))
            rotated = StateVector((2, 2), u @ psi.amplitudes)
            val = post_measurement_expectation(rotated, scheme, obs)
            assert abs(val - ref) <= 1e-10

    def test_qndsv_violates_invariance_by_quarter(self):
        scheme = qndsv_scheme(spin_state("up", "right"))
        obs = spin_observable("sBz")
        a = post_measurement_expectation(spin_state("up", "up"), scheme, obs)
        b = post_measurement_expectation(spin_state("right", "up"), scheme, obs)
        assert abs(a - b) == pytest.approx(0.25, abs=1e-12)


def test_no_per_call_policy_kind_basis_or_tol():
    """Tolerances are read from DEFAULT_POLICY where they are checked: no
    public function or method takes an optional policy, scheme kind, basis
    or tolerance, and a scheme carries no kind tag."""
    found = dict(public_callables())
    assert {"causalprobe.core.MeasurementScheme.from_basis",
            "causalprobe.oscillators.local_moments_b",
            "causalprobe.fieldtheory.WavePacket.validate",
            "causalprobe.field_oracle.numeric_oracle_qndsv"} <= set(found)
    options = [f"{qual}({param.name})" for qual, fn in found.items()
               for param in inspect.signature(fn).parameters.values()
               if param.name in {"policy", "kind", "basis", "tol"}
               and param.default is not param.empty]
    assert options == []
    assert [f.name for f in dataclasses.fields(MeasurementScheme)] == ["dims", "outcomes"]
    assert [f.name for f in dataclasses.fields(SchemeOutcome)] == ["label", "frame", "complement"]
