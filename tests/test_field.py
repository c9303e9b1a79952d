"""Field measurements: closed forms against the independent truncated-Fock
oracle on the standard small fixture (d=1, N=4, trunc 6), on N=6 and N=8
lattices and at d=3, the factorised oracle against the dense reference of
``dense_oracle``, parity and cutoff scalings, and wave packets."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from causalprobe.fieldtheory import (
    KickSpec,
    WavePacket,
    kick_displacements,
    max_signaling,
    naive_np_expectations,
    packet_kernel,
    prestate_expectations,
    qndsv_phi2_y,
    qndsv_phi_y,
    qndsv_wavepacket_phi_y,
    signal_kernel,
    sorkin_derivative,
    suppression_factor,
)
from causalprobe import field_oracle
from causalprobe.core import (MeasurementScheme, Operator, embed_local,
                             post_measurement_expectations, qndsv_scheme)
from causalprobe.field_oracle import (
    _LIVE_ROWS,
    _LIVE_VECTORS,
    _ORACLE_BYTE_BUDGET,
    field_operator,
    momentum_operator,
    numeric_oracle_qndsv,
)
from causalprobe.harness import power_fit
from causalprobe.lattice import LatticeSpec, build_modes, kernel_ginv
from causalprobe.oscillators import ladder
from causalprobe.policy import TruncationError
from conftest import naive_outcome_probabilities, single_mode_packet
from dense_oracle import (apply_mode_sum, dense_oracle, one_particle_state,
                          oracle_prestate, oracle_qndsv_packet_phi_y)

LAT = LatticeSpec(dim=1, n_sites=4, spacing=1.0, mass=1.0)
MODES = build_modes(LAT)
P = MODES.mode_index(1)
KICK = KickSpec(site=0, strength=0.3)
KICK3 = KickSpec(site=(0, 0, 0), strength=0.3)
TRUNC = 6


def dense_field_operator(modes, y, trunc, momentum=False) -> Operator:
    """Reference phi_y (or pi_y) as one dense joint matrix: the sum of every
    mode's ladder term embedded with identities elsewhere."""
    lat = modes.lattice
    dims = (trunc,) * modes.n_modes
    a = ladder(trunc)
    total = np.zeros((trunc ** modes.n_modes,) * 2, dtype=complex)
    for i in range(modes.n_modes):
        phase = np.exp(1j * modes.phase_at(i, y))
        if momentum:
            w = math.sqrt(lat.hbar * modes.omega[i] / (2.0 * lat.volume))
            term = -1j * w * (phase * a - np.conj(phase) * a.conj().T)
        else:
            w = math.sqrt(lat.hbar / (2.0 * modes.omega[i] * lat.volume))
            term = w * (phase * a + np.conj(phase) * a.conj().T)
        total += embed_local(Operator((trunc,), term, hermitian=True), i, dims).matrix
    return Operator(dims, total, hermitian=True)


def pair_level_frames(dims) -> MeasurementScheme:
    """The naive pair collapse as core frames: one frame of number states
    per joint level (m, n) of the +-p modes."""
    q = MODES.conjugate(P)
    digits = np.indices(dims).reshape(len(dims), -1)
    basis = np.eye(digits.shape[1])
    return MeasurementScheme.from_basis(dims, [
        (f"{m},{n}", basis[(digits[P] == m) & (digits[q] == n)])
        for m in range(dims[P]) for n in range(dims[q])])


def branch_loop(trunc, scheme_of) -> dict:
    """The four averages at y = 1 by core, <psi|M_O|psi> under the scheme
    ``scheme_of(prestate)``, with dense phi_y, pi_y and their dense squares."""
    state, _ = oracle_prestate(MODES, KICK, trunc)
    phi, pi = (dense_field_operator(MODES, 1, trunc, momentum).matrix
               for momentum in (False, True))
    dense = {name: Operator(state.dims, m, hermitian=True) for name, m in (
        ("phi_y", phi), ("pi_y", pi), ("phi2_y", phi @ phi), ("pi2_y", pi @ pi))}
    return dict(zip(dense, post_measurement_expectations(state, scheme_of(state),
                                                         dense.values())))


class TestKickDisplacements:
    def test_no_kick_no_displacement(self):
        assert np.allclose(kick_displacements(MODES, KickSpec(0, 0.0)), 0.0)

    def test_amplitude_formula(self):
        alphas = kick_displacements(MODES, KickSpec(site=2, strength=0.7))
        for i in range(MODES.n_modes):
            phase = MODES.k[i, 0] * 2.0
            want = 1j * 0.7 * np.exp(-1j * phase) / math.sqrt(
                2 * MODES.omega[i] * LAT.volume)
            assert alphas[i] == pytest.approx(want, abs=1e-14)

    def test_injected_energy_finite(self):
        alphas = kick_displacements(MODES, KICK)
        energy = float(np.sum(2 * LAT.hbar * MODES.omega * np.abs(alphas) ** 2))
        # sum_k lam^2/V = lam^2 N^d / V = lam^2 / a^d
        assert energy == pytest.approx(KICK.strength**2 / LAT.spacing, abs=1e-12)

    def test_total_weight_is_suppression_exponent(self):
        alphas = kick_displacements(MODES, KICK)
        want = KICK.strength**2 * kernel_ginv(MODES, 0, 0) / (2 * LAT.hbar)
        assert float(np.sum(np.abs(alphas) ** 2)) == pytest.approx(want, abs=1e-12)

    def test_prestate_momentum_profile(self):
        """<pi_y> of the kicked vacuum is lam/a^d on the kicked site only,
        checked against the truncated-Fock oracle."""
        for y in range(4):
            rep = numeric_oracle_qndsv(MODES, KICK, y, P, TRUNC, scheme_kind="naive",
                                       observables=("pi_y",))
            want = KICK.strength / LAT.spacing if y == 0 else 0.0
            assert rep.prestate_values["pi_y"] == pytest.approx(want, abs=1e-10)
            closed = prestate_expectations(MODES, KICK, y)
            assert closed.pi == pytest.approx(want, abs=1e-14)


class TestNaiveMeasurement:
    @pytest.mark.parametrize("y", [0, 1, 2, 3])
    def test_closed_forms_match_oracle(self, y):
        rep = numeric_oracle_qndsv(MODES, KICK, y, P, TRUNC, scheme_kind="naive")
        closed = naive_np_expectations(MODES, KICK, y, P).as_dict()
        assert rep.tail_bound <= 1e-8
        for name in ("phi_y", "pi_y", "phi2_y", "pi2_y"):
            assert closed[name] == pytest.approx(rep.values[name], abs=1e-6), name

    def test_phi_vanishes_for_all_lambda(self):
        for lam in (-0.8, -0.2, 0.0, 0.5, 1.0):
            for y in range(4):
                assert naive_np_expectations(
                    MODES, KickSpec(0, lam), y, P).phi == 0.0

    def test_off_site_momentum_value(self):
        got = naive_np_expectations(MODES, KICK, 2, P).pi
        want = -2 * KICK.strength * MODES.eps * math.cos(math.pi / 2 * 2)
        assert got == pytest.approx(want, abs=1e-14)
        assert got == pytest.approx(2 * 0.3 * 0.25, abs=1e-14)  # cos(pi) = -1

    def test_parity_in_lambda(self):
        plus = naive_np_expectations(MODES, KickSpec(0, 0.4), 2, P)
        minus = naive_np_expectations(MODES, KickSpec(0, -0.4), 2, P)
        assert plus.pi == pytest.approx(-minus.pi, abs=1e-12)
        assert plus.phi2 == pytest.approx(minus.phi2, abs=1e-12)
        assert plus.pi2 == pytest.approx(minus.pi2, abs=1e-12)

    def test_outcome_probabilities_poisson_and_complete(self):
        probs = naive_outcome_probabilities(MODES, KICK, P, TRUNC)
        alphas = kick_displacements(MODES, KICK)
        mean = abs(alphas[P]) ** 2
        assert probs[0, 0] == pytest.approx(math.exp(-2 * mean), abs=1e-10)
        assert probs[1, 0] == pytest.approx(mean * math.exp(-2 * mean), abs=1e-10)
        state, tail = oracle_prestate(MODES, KICK, TRUNC)
        assert probs.sum() == pytest.approx(1.0, abs=tail + 1e-10)

    def test_self_conjugate_mode_rejected(self):
        nyquist = MODES.mode_index(2)
        with pytest.raises(ValueError):
            naive_np_expectations(MODES, KICK, 1, nyquist)


class TestQndsvPhi:
    def test_matches_oracle(self):
        for y in (1, 2, 3):
            rep = numeric_oracle_qndsv(MODES, KICK, y, P, TRUNC,
                                       scheme_kind="qndsv", observables=("phi_y",))
            closed = qndsv_phi_y(MODES, KICK, y, P)
            assert closed == pytest.approx(rep.values["phi_y"], abs=1e-6)

    def test_zero_for_zero_kick(self):
        assert qndsv_phi_y(MODES, KickSpec(0, 0.0), 1, P) == 0.0

    def test_zero_on_the_kicked_site(self):
        assert qndsv_phi_y(MODES, KICK, 0, P) == pytest.approx(0.0, abs=1e-15)

    def test_odd_in_lambda(self):
        for lam in (0.1, 0.4, 0.9):
            a = qndsv_phi_y(MODES, KickSpec(0, lam), 1, P)
            b = qndsv_phi_y(MODES, KickSpec(0, -lam), 1, P)
            assert a == pytest.approx(-b, abs=1e-12)

    def test_verification_probability_is_poisson_weight(self):
        rep = numeric_oracle_qndsv(MODES, KICK, 1, P, TRUNC, scheme_kind="qndsv",
                                   observables=("phi_y",))
        alphas = kick_displacements(MODES, KICK)
        want = abs(alphas[P]) ** 2 * math.exp(
            -float(np.sum(np.abs(alphas) ** 2)))
        assert rep.p_yes == pytest.approx(want, abs=1e-10)

    def test_vacuum_values_at_zero_kick(self):
        rep = numeric_oracle_qndsv(MODES, KickSpec(0, 0.0), 1, P, TRUNC,
                                   scheme_kind="qndsv")
        assert rep.values["phi_y"] == pytest.approx(0.0, abs=1e-12)
        assert rep.values["phi2_y"] == pytest.approx(
            0.5 * kernel_ginv(MODES, 1, 1), abs=1e-10)


class TestWavePackets:
    def test_single_mode_reduction(self):
        packet = single_mode_packet(MODES, P)
        for t1 in (0.0, 0.7, -2.3):
            for y in (1, 2, 3):
                got = qndsv_wavepacket_phi_y(MODES, KICK, y, packet, t1)
                assert got == pytest.approx(qndsv_phi_y(MODES, KICK, y, P), abs=1e-12)

    def test_real_symmetric_packet_vanishes_at_origin(self):
        # equal weight on +-p with real amplitudes: S(x,x) = Im|F|^2 = 0
        spec = np.zeros(MODES.n_modes, dtype=complex)
        q = MODES.mode_index(-1)
        spec[P] = spec[q] = math.sqrt(LAT.volume / 2.0)
        packet = WavePacket(spec)
        assert qndsv_wavepacket_phi_y(MODES, KICK, 0, packet, 0.0) \
            == pytest.approx(0.0, abs=1e-15)

    def test_two_mode_packet_against_oracle(self):
        spec = np.zeros(MODES.n_modes, dtype=complex)
        q = MODES.mode_index(-1)
        spec[P] = math.sqrt(LAT.volume) * math.sqrt(0.7)
        spec[q] = math.sqrt(LAT.volume) * math.sqrt(0.3) * np.exp(0.4j)
        packet = WavePacket(spec)
        for y in (1, 3):
            got = qndsv_wavepacket_phi_y(MODES, KICK, y, packet, t1=0.2)
            oracle = oracle_qndsv_packet_phi_y(MODES, KICK, y, packet, 0.2, TRUNC)
            assert got == pytest.approx(oracle, abs=1e-6)

    def test_packet_normalization_enforced(self):
        with pytest.raises(ValueError):
            packet_kernel(MODES, WavePacket(2.0 * np.ones(MODES.n_modes)), 0.0, 0)


class TestSorkinDerivative:
    def test_equals_finite_difference(self):
        packet = single_mode_packet(MODES, P)
        h = 1e-4
        for y in (1, 2, 3):
            want = (qndsv_wavepacket_phi_y(MODES, KickSpec(0, h), y, packet)
                    - qndsv_wavepacket_phi_y(MODES, KickSpec(0, -h), y, packet)) / (2 * h)
            assert sorkin_derivative(MODES, 0, y, packet) == pytest.approx(
                want, abs=1e-6)

    def test_single_mode_form(self):
        packet = single_mode_packet(MODES, P)
        got = sorkin_derivative(MODES, 0, 1, packet)
        want = (MODES.eps / MODES.omega[P]) * math.sin(math.pi / 2)
        assert got == pytest.approx(want, abs=1e-14)

    def test_antisymmetric(self):
        spec = np.zeros(MODES.n_modes, dtype=complex)
        spec[P] = math.sqrt(LAT.volume) * 0.8
        spec[MODES.mode_index(-1)] = math.sqrt(LAT.volume) * 0.6j
        packet = WavePacket(spec)
        for x, y in ((0, 1), (1, 3), (2, 0)):
            assert signal_kernel(MODES, packet, 0.1, x, y) == pytest.approx(
                -signal_kernel(MODES, packet, 0.1, y, x), abs=1e-14)


class TestQndsvSecondMoment:
    def test_even_in_lambda(self):
        a = qndsv_phi2_y(MODES, KickSpec(0, 0.6), 1, P)
        b = qndsv_phi2_y(MODES, KickSpec(0, -0.6), 1, P)
        assert a == pytest.approx(b, abs=1e-12)

    def test_oracle_matches_independent_ladder_algebra(self):
        """The reported <phi_y^2>, a hand-derived closed form (vacuum piece
        plus verification corrections), against the oracle; at lam = 0 it
        is the vacuum value (hbar/2) ginv_yy."""
        for lam in (0.0, KICK.strength):
            kick = KickSpec(0, lam)
            for y in range(4):
                rep = numeric_oracle_qndsv(MODES, kick, y, P, TRUNC,
                                           scheme_kind="qndsv", observables=("phi2_y",))
                want = qndsv_phi2_y(MODES, kick, y, P)
                assert rep.values["phi2_y"] == pytest.approx(want, abs=1e-8)
        assert qndsv_phi2_y(MODES, KickSpec(0, 0.0), 1, P) == pytest.approx(
            0.5 * LAT.hbar * kernel_ginv(MODES, 1, 1), abs=1e-15)

    def test_lambda_part_scales_with_inverse_volume(self):
        """Doubling the box at fixed spacing roughly halves the lam-part.
        On small boxes the bracket's hbar eps/omega_p term, itself 1/V,
        still competes with the rest (the lam-part changes sign between
        N = 8 and 32), so the fit runs on large ones."""
        vals = []
        for n in (256, 512, 1024):
            lat = LatticeSpec(dim=1, n_sites=n, spacing=1.0, mass=1.0)
            modes = build_modes(lat)
            p = modes.mode_index(n // 8)
            base = qndsv_phi2_y(modes, KickSpec(0, 0.0), 1, p)
            vals.append(qndsv_phi2_y(modes, KickSpec(0, 0.3), 1, p) - base)
        fit = power_fit([256, 512, 1024], vals)
        assert fit.exponent == pytest.approx(-1.0, abs=0.05)


class TestCutoffScalings:
    def test_ir_scaling_of_verification_signal(self):
        """|<phi_y>| after verification falls off as 1/V at fixed spacing,
        fixed physical wave vector and fixed observation point."""
        vals = []
        for n in (4, 8, 16):
            lat = LatticeSpec(dim=1, n_sites=n, spacing=1.0, mass=1.0)
            modes = build_modes(lat)
            p = modes.mode_index(n // 4)   # k = pi/2 for every n
            vals.append(abs(qndsv_phi_y(modes, KickSpec(0, 0.3), 1, p)))
        fit = power_fit([4, 8, 16], vals)
        assert fit.exponent == pytest.approx(-1.0, abs=0.05)

    def test_ir_scaling_of_naive_momentum_term(self):
        vals = []
        for n in (4, 8, 16):
            lat = LatticeSpec(dim=1, n_sites=n, spacing=1.0, mass=1.0)
            modes = build_modes(lat)
            p = modes.mode_index(n // 4)
            vals.append(abs(naive_np_expectations(modes, KickSpec(0, 0.3), 2, p).pi))
        fit = power_fit([4, 8, 16], vals)
        assert fit.exponent == pytest.approx(-1.0, abs=0.05)

    def test_uv_suppression_monotone_in_spacing(self):
        factors = []
        for n, a in ((8, 1.0), (16, 0.5), (32, 0.25)):
            lat = LatticeSpec(dim=1, n_sites=n, spacing=a, mass=1.0)
            factors.append(suppression_factor(build_modes(lat), KickSpec(0, 0.5)))
        assert factors[0] > factors[1] > factors[2]


class TestMaxSignaling:
    def test_calculus_maximum(self):
        ms = max_signaling(MODES, 0)
        gxx = kernel_ginv(MODES, 0, 0)
        assert ms.lambda_star == pytest.approx(math.sqrt(1.0 / gxx), abs=1e-14)
        assert ms.amplitude == pytest.approx(
            math.sqrt(1.0 / (math.e * gxx)), abs=1e-14)

    def test_is_a_maximum(self):
        ms = max_signaling(MODES, 0)

        def f(lam):
            return lam * suppression_factor(MODES, KickSpec(0, lam))

        assert f(ms.lambda_star) > f(ms.lambda_star * 0.99)
        assert f(ms.lambda_star) > f(ms.lambda_star * 1.01)
        assert f(ms.lambda_star) == pytest.approx(ms.amplitude, abs=1e-14)

    def test_amplitude_shrinks_with_spacing(self):
        amps = []
        for n, a in ((8, 1.0), (16, 0.5), (32, 0.25)):
            lat = LatticeSpec(dim=1, n_sites=n, spacing=a, mass=1.0)
            amps.append(max_signaling(build_modes(lat), 0).amplitude)
        assert amps[0] > amps[1] > amps[2]


class TestOtherLattices:
    def test_continuum_dispersion_against_oracle(self):
        lat = LatticeSpec(dim=1, n_sites=4, spacing=1.0, mass=1.0,
                          dispersion="continuum")
        modes = build_modes(lat)
        p = modes.mode_index(1)
        kick = KickSpec(site=0, strength=0.3)
        rep = numeric_oracle_qndsv(modes, kick, 1, p, 6, scheme_kind="qndsv",
                                   observables=("phi_y",))
        assert qndsv_phi_y(modes, kick, 1, p) == pytest.approx(
            rep.values["phi_y"], abs=1e-6)
        rep2 = numeric_oracle_qndsv(modes, kick, 1, p, 6, scheme_kind="naive",
                                    observables=("pi_y", "phi2_y"))
        closed = naive_np_expectations(modes, kick, 1, p).as_dict()
        for name in ("pi_y", "phi2_y"):
            assert closed[name] == pytest.approx(rep2.values[name], abs=1e-6)

    def test_two_dimensional_closed_forms(self):
        lat = LatticeSpec(dim=2, n_sites=4, spacing=0.5, mass=1.0)
        modes = build_modes(lat)
        p = modes.mode_index((1, 0))
        kick = KickSpec(site=(0, 0), strength=0.4)
        vals = naive_np_expectations(modes, kick, (1, 2), p)
        assert vals.phi == 0.0
        assert math.isfinite(vals.pi) and math.isfinite(vals.pi2)
        # off-site momentum response at the documented eps scale
        phase = math.pi / 2 * 1  # k.(x-y) along the first axis, |dx| = 1 site
        want = -2 * kick.strength * modes.eps * math.cos(-phase)
        assert vals.pi == pytest.approx(want, abs=1e-12)
        # verification response odd in lam and suppressed by eps = 1/V
        a = qndsv_phi_y(modes, kick, (1, 2), p)
        b = qndsv_phi_y(modes, KickSpec((0, 0), -0.4), (1, 2), p)
        assert a == pytest.approx(-b, abs=1e-14)
        assert abs(a) < 2 * modes.eps / modes.omega[p] * 0.4

    def test_massless_field_with_regulator(self):
        lat = LatticeSpec(dim=1, n_sites=8, spacing=1.0, mass=0.0)
        modes = build_modes(lat)
        p = modes.mode_index(1)
        val = qndsv_phi_y(modes, KickSpec(0, 0.2), 3, p)
        assert math.isfinite(val) and val != 0.0


class TestOracleGuards:
    @pytest.mark.parametrize("p_index", [-1, MODES.n_modes])
    def test_out_of_range_mode_refused_by_oracle_and_closed_form(self, p_index):
        """-1 is not read as the last mode, and M is not an IndexError."""
        with pytest.raises(ValueError, match="out of range"):
            numeric_oracle_qndsv(MODES, KICK, 1, p_index, TRUNC)
        with pytest.raises(ValueError, match="out of range"):
            qndsv_phi_y(MODES, KICK, 1, p_index)

    @pytest.mark.parametrize("kind", ["qndsv", "naive"])
    @pytest.mark.parametrize("trunc", [1, 0, True, 6.0, "6", np.int64(1)])
    def test_trunc_below_two_or_not_an_integer_refused(self, kind, trunc):
        """The target's level 1 needs two levels per mode, and a bool or a
        float is not a number of levels."""
        with pytest.raises(ValueError, match="trunc must be an integer of at least 2"):
            numeric_oracle_qndsv(MODES, KICK, 1, P, trunc, scheme_kind=kind)

    @pytest.mark.parametrize("route", [numeric_oracle_qndsv, dense_oracle],
                             ids=["factorised", "dense"])
    def test_truncation_failure_raises(self, route):
        with pytest.raises(TruncationError):
            route(MODES, KickSpec(0, 3.0), 1, P, 2)

    @pytest.mark.parametrize("route", [numeric_oracle_qndsv, dense_oracle],
                             ids=["factorised", "dense"])
    def test_non_finite_kick_refused(self, route):
        """NaN amplitudes give a NaN norm, refused rather than read as a zero tail."""
        with np.errstate(invalid="ignore"), pytest.raises(TruncationError):
            route(MODES, KickSpec(0, math.inf), 1, P, 3)

    def test_three_dimensions_accepted(self):
        """d=3, N=4 holds 6^64 joint amplitudes, which the dense reference
        refuses in exact integers (int64 would wrap to 0); the factorised
        oracle holds 64 bands of 6 per field and matches the closed forms."""
        big = build_modes(LatticeSpec(dim=3, n_sites=4, spacing=1.0, mass=1.0))
        p = big.mode_index((1, 0, 0))
        with pytest.raises(ValueError, match="exceed the dense reference"):
            dense_oracle(big, KICK3, (1, 2, 0), p, 6)
        rep = numeric_oracle_qndsv(big, KICK3, (1, 2, 0), p, 6, scheme_kind="naive")
        closed = naive_np_expectations(big, KICK3, (1, 2, 0), p).as_dict()
        for name, value in closed.items():
            assert rep.values[name] == pytest.approx(value, abs=1e-10 + rep.tail_bound), name

    def test_byte_budget_boundary(self):
        """The budget charges _LIVE_ROWS rows of M x trunc complex numbers
        and _LIVE_VECTORS of M: d=3, N=64 is admitted at trunc 8 and refused
        at the first truncation whose charge exceeds the budget, before any
        array is made.  A dense stack of field_operator is charged as
        trunc + 1 rows, so it is refused there at trunc 8."""
        modes = build_modes(LatticeSpec(dim=3, n_sites=64, spacing=1.0, mass=1.0))

        def charge(trunc):
            return modes.n_modes * (_LIVE_ROWS * trunc + _LIVE_VECTORS) * 16

        assert charge(8) <= _ORACLE_BYTE_BUDGET
        trunc = 8
        while charge(trunc + 1) <= _ORACLE_BYTE_BUDGET:
            trunc += 1
        field_oracle._check_budget(modes.n_modes, trunc)
        for call in (lambda: field_operator(modes, (0, 0, 0), 8),
                     lambda: numeric_oracle_qndsv(modes, KICK3, (0, 0, 0),
                                                  modes.mode_index((1, 0, 0)), trunc + 1)):
            with pytest.raises(ValueError, match="over the byte budget"):
                call()
        assert not {"omega", "k", "k_axis"} & set(vars(modes))

    def test_one_particle_state_is_normalized(self):
        target = one_particle_state(MODES, P, TRUNC)
        assert target.norm == pytest.approx(1.0, abs=1e-14)

    def test_mask_collapse_matches_generic_machinery(self):
        """The oracle's naive collapse, a level scheme on the pair read from
        the prestate, equals the core's Lueders family of frames, one frame
        of number states per joint outcome (m, n), with dense observables
        and their dense squares, on a tiny truncation."""
        want = branch_loop(4, lambda state: pair_level_frames(state.dims))
        rep = numeric_oracle_qndsv(MODES, KICK, 1, P, 4, scheme_kind="naive")
        for name, value in want.items():
            assert rep.values[name] == pytest.approx(value, abs=1e-12), name


class TestMatrixFreeOracle:
    @pytest.mark.parametrize("trunc", [3, 4])
    @pytest.mark.parametrize("momentum", [False, True])
    def test_apply_matches_dense_matvec(self, trunc, momentum):
        """The term stacks, applied as mode sums, against the dense joint
        matrix built independently from the ladder."""
        terms = (momentum_operator if momentum else field_operator)(MODES, 1, trunc)
        dense = dense_field_operator(MODES, 1, trunc, momentum).matrix
        rng = np.random.default_rng(trunc)
        v = rng.normal(size=trunc**4) + 1j * rng.normal(size=trunc**4)
        assert np.allclose(apply_mode_sum(terms, v), dense @ v, rtol=0, atol=1e-12)
        assert np.allclose(apply_mode_sum(terms, v, 2), dense @ (dense @ v),
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("trunc", range(2, 9))
    @pytest.mark.parametrize("dim, n, y", [(1, 4, 1), (2, 4, (1, 3)), (3, 2, (1, 0, 1))])
    @pytest.mark.parametrize("field", ["phi", "pi"])
    def test_band_action_matches_dense_stacks(self, field, dim, n, y, trunc):
        """The oracle's shifted products of a band, T_k v_k and at every
        level n <n|v_k>, <n|T_k|v_k>, <n|T_k^2|v_k>/2 and <n|T_k^2|n>/2,
        equal the field_operator / momentum_operator stacks applied as
        dense matrices; each stack is hermitian."""
        modes = build_modes(LatticeSpec(dim=dim, n_sites=n, spacing=0.7, mass=0.5))
        stack = {"phi": field_operator, "pi": momentum_operator}[field](modes, y, trunc)
        band = field_oracle._band(modes, np.exp(1j * modes.phases(y)), trunc, field)
        rng = np.random.default_rng(trunc)
        v = rng.normal(size=(modes.n_modes, trunc)) + 1j * rng.normal(size=(modes.n_modes, trunc))
        moved = field_oracle._apply(band, v)
        want = (stack @ v[..., None])[..., 0]
        twice = (stack @ want[..., None])[..., 0]
        assert np.array_equal(stack, stack.conj().swapaxes(1, 2))
        assert np.allclose(moved, want, rtol=0, atol=1e-14)
        for level in range(trunc):
            got = field_oracle._at_level(band, v, moved, level)
            assert np.array_equal(got[0], v[:, level])
            assert np.allclose(got[1:], [want[:, level], 0.5 * twice[:, level],
                                         0.5 * (stack @ stack)[:, level, level]],
                               rtol=0, atol=1e-14), level

    def test_verification_branches_match_core(self):
        """The dense reference's two verification branches, yes = t<t|psi>
        and no = psi - yes, give core's averages over ``qndsv_scheme``."""
        want = branch_loop(4, lambda state: qndsv_scheme(one_particle_state(MODES, P, 4)))
        rep = dense_oracle(MODES, KICK, 1, P, 4)
        for name, value in want.items():
            assert rep.values[name] == pytest.approx(value, abs=1e-12), name

    def test_naive_collapse_matches_branch_loop(self):
        """The dense reference reads the pair collapse's averages from the
        prestate, with no branch, and they equal the branch loop over the
        frames of the +-p joint levels."""
        want = branch_loop(4, lambda state: pair_level_frames(state.dims))
        rep = dense_oracle(MODES, KICK, 1, P, 4, scheme_kind="naive")
        for name, value in want.items():
            assert rep.values[name] == pytest.approx(value, abs=1e-12), name

    def test_converges_in_truncation(self):
        """Values at trunc 5 and 6 sit within the dropped amplitude,
        sqrt(tail_bound), of trunc 7, for both schemes."""
        for kind in ("naive", "qndsv"):
            reps = {t: numeric_oracle_qndsv(MODES, KICK, 1, P, t, scheme_kind=kind)
                    for t in (5, 6, 7)}
            assert reps[5].tail_bound > reps[6].tail_bound > reps[7].tail_bound
            for t in (5, 6):
                for name, value in reps[t].values.items():
                    assert abs(value - reps[7].values[name]) <= math.sqrt(
                        reps[t].tail_bound), (kind, t, name)


class TestOracleLattices:
    """Closed forms against the oracle beyond the N=4 fixture."""

    N6 = build_modes(LatticeSpec(dim=1, n_sites=6, spacing=1.0, mass=1.0))
    N8 = build_modes(LatticeSpec(dim=1, n_sites=8, spacing=1.0, mass=1.0))

    def test_n6_naive(self):
        p = self.N6.mode_index(1)
        rep = numeric_oracle_qndsv(self.N6, KICK, 2, p, 6, scheme_kind="naive")
        closed = naive_np_expectations(self.N6, KICK, 2, p).as_dict()
        for name in ("phi_y", "pi_y", "phi2_y", "pi2_y"):
            assert closed[name] == pytest.approx(rep.values[name], abs=1e-6), name

    def test_n8_naive(self):
        p = self.N8.mode_index(1)
        rep = numeric_oracle_qndsv(self.N8, KICK, 3, p, 5, scheme_kind="naive")
        closed = naive_np_expectations(self.N8, KICK, 3, p).as_dict()
        for name in ("phi_y", "pi_y", "phi2_y", "pi2_y"):
            assert closed[name] == pytest.approx(rep.values[name], abs=1e-6), name

    @pytest.mark.parametrize("y", range(6))
    def test_n6_qndsv(self, y):
        p = self.N6.mode_index(1)
        rep = numeric_oracle_qndsv(self.N6, KICK, y, p, 6, scheme_kind="qndsv",
                                   observables=("phi_y", "phi2_y"))
        assert qndsv_phi_y(self.N6, KICK, y, p) == pytest.approx(
            rep.values["phi_y"], abs=1e-6)
        assert qndsv_phi2_y(self.N6, KICK, y, p) == pytest.approx(
            rep.values["phi2_y"], abs=1e-8)

    @pytest.mark.parametrize("y", [1, 6])
    def test_n8_qndsv(self, y):
        p = self.N8.mode_index(1)
        rep = numeric_oracle_qndsv(self.N8, KICK, y, p, 5, scheme_kind="qndsv",
                                   observables=("phi_y", "phi2_y"))
        assert qndsv_phi_y(self.N8, KICK, y, p) == pytest.approx(
            rep.values["phi_y"], abs=1e-6)
        assert qndsv_phi2_y(self.N8, KICK, y, p) == pytest.approx(
            rep.values["phi2_y"], abs=1e-8)

    @pytest.mark.parametrize("kind, observables", [
        ("qndsv", ("phi_y", "phi2_y")),
        ("qndsv", ("phi_y", "pi_y", "phi2_y", "pi2_y")),
        ("naive", ("phi_y", "phi2_y")),
        ("naive", ("phi_y", "pi_y", "phi2_y", "pi2_y")),
    ])
    def test_peak_memory_within_live_stacks(self, kind, observables):
        """A call's traced peak stays within what the byte budget charges,
        _LIVE_ROWS rows of M x trunc complex numbers and _LIVE_VECTORS of
        M, at d=2, N=64 (4096 modes, 512 KiB per row at trunc 8), at trunc 8
        and at trunc 3, where the M-sized vectors weigh most."""
        modes = build_modes(LatticeSpec(dim=2, n_sites=64, spacing=1.0, mass=1.0))
        p = modes.mode_index((1, 0))
        for trunc, lam in ((8, 0.3), (3, 0.05)):
            tracemalloc.start()
            try:
                numeric_oracle_qndsv(modes, KickSpec((0, 0), lam), (2, 1), p, trunc,
                                     scheme_kind=kind, observables=observables)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= modes.n_modes * (_LIVE_ROWS * trunc + _LIVE_VECTORS) * 16, trunc


class TestFactorisedOracle:
    """The factorised oracle against the dense kron reference: values,
    prestate values, tail and verification probability within 1e-13, for
    both kinds, lam = -0.5, 0.3 and 0.6 and mass 1 and 0.5.  A truncation
    that loses too much norm is refused by both routes alike."""

    @staticmethod
    def _compare(modes, trunc, kind, lam, ys):
        p = modes.mode_index(1)
        for y in ys:
            try:
                got = numeric_oracle_qndsv(modes, KickSpec(0, lam), y, p, trunc,
                                           scheme_kind=kind)
            except TruncationError:
                with pytest.raises(TruncationError):
                    dense_oracle(modes, KickSpec(0, lam), y, p, trunc, scheme_kind=kind)
                continue
            want = dense_oracle(modes, KickSpec(0, lam), y, p, trunc, scheme_kind=kind)
            for table in ("values", "prestate_values"):
                for name, value in getattr(want, table).items():
                    assert abs(getattr(got, table)[name] - value) <= 1e-13, (table, name, y)
            assert abs(got.tail_bound - want.tail_bound) <= 1e-13
            assert (got.p_yes is None) == (want.p_yes is None)
            if kind == "qndsv":
                assert abs(got.p_yes - want.p_yes) <= 1e-13

    @pytest.mark.parametrize("kind", ["naive", "qndsv"])
    @pytest.mark.parametrize("mass", [1.0, 0.5])
    @pytest.mark.parametrize("trunc", [5, 6, 7])
    def test_n4_every_site(self, trunc, mass, kind):
        modes = build_modes(LatticeSpec(dim=1, n_sites=4, spacing=1.0, mass=mass))
        for lam in (-0.5, 0.3, 0.6):
            self._compare(modes, trunc, kind, lam, range(4))

    @pytest.mark.parametrize("kind", ["naive", "qndsv"])
    def test_n6(self, kind):
        modes = build_modes(LatticeSpec(dim=1, n_sites=6, spacing=1.0, mass=1.0))
        self._compare(modes, 6, kind, 0.6, (0, 3))

    @pytest.mark.parametrize("kind", ["naive", "qndsv"])
    def test_n8(self, kind):
        modes = build_modes(LatticeSpec(dim=1, n_sites=8, spacing=1.0, mass=1.0))
        self._compare(modes, 5, kind, -0.5, (6,))
