"""Acceptance suite: one test per exit criterion, at the pinned tolerances.

Each test prints a PASS line once its assertions hold, so running

    pytest tests/test_acceptance.py -v -s

gives one line per criterion.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from causalprobe.core import (
    Operator,
    born_ensemble,
    post_measurement_expectation,
    qndsv_scheme,
    reduced_projector,
)
from causalprobe.fieldtheory import (
    KickSpec,
    max_signaling,
    naive_np_expectations,
    qndsv_phi_y,
    qndsv_wavepacket_phi_y,
    sorkin_derivative,
    suppression_factor,
)
from causalprobe.field_oracle import numeric_oracle_qndsv
from dense_oracle import oracle_prestate
from causalprobe.harness import power_fit
from causalprobe.lattice import LatticeSpec, build_modes
from causalprobe.oscillators import (
    KickParams,
    OscParams,
    coherent_prestate,
    local_moments_b,
    naive_nplus_ensemble,
    phase_coefficients,
    phase_ensemble_moments,
)
from causalprobe.spins import (
    alice_rotate,
    spin_observable,
    spin_scheme,
    spin_state,
)

from conftest import (naive_outcome_probabilities, probability, random_rotations,
                      single_mode_packet)
from phase_reference import phase_scheme_nplus
from test_cli import ALL_FIXTURES, _run_fixture

SBZ = spin_observable("sBz")
HALF_PI = math.pi / 2


def _report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_spin_qndsv_signaling():
    started = time.monotonic()
    scheme = qndsv_scheme(spin_state("up", "right"))
    unrotated = post_measurement_expectation(spin_state("up", "up"), scheme, SBZ)
    rotated = post_measurement_expectation(spin_state("right", "up"), scheme, SBZ)
    assert unrotated == pytest.approx(0.0, abs=1e-12)
    assert rotated == pytest.approx(0.25, abs=1e-12)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, f"verification of up,right gives <sBz> = 0 and hbar/4 "
               f"({elapsed*1e3:.0f} ms)")


def test_criterion_02_total_spin_flip_example():
    ens = born_ensemble(spin_scheme("s2-standard"), spin_state("up", "up"))
    assert probability(ens, "S=1 up-up") == pytest.approx(1.0, abs=1e-12)
    assert post_measurement_expectation(
        spin_state("up", "up"), spin_scheme("s2-standard"), SBZ) \
        == pytest.approx(0.5, abs=1e-12)
    flipped = spin_state("down", "up")
    ens2 = born_ensemble(spin_scheme("s2-standard"), flipped)
    assert probability(ens2, "S=0 singlet") == pytest.approx(0.5, abs=1e-12)
    assert probability(ens2, "S=1 m=0 sym") == pytest.approx(0.5, abs=1e-12)
    assert post_measurement_expectation(flipped, spin_scheme("s2-standard"), SBZ) \
        == pytest.approx(0.0, abs=1e-12)
    _report(2, "flip example: certainty without the flip, 1/2-1/2 and "
               "<sBz> = 0 with it")


def test_criterion_03_post_basis_ambiguity():
    psi = spin_state("right", "up")
    std = born_ensemble(spin_scheme("s2-standard"), psi)
    for label, want in (("S=0 singlet", 0.25), ("S=1 m=0 sym", 0.25),
                        ("S=1 up-up", 0.5), ("S=1 down-down", 0.0)):
        assert probability(std, label) == pytest.approx(want, abs=1e-12)
    assert post_measurement_expectation(psi, spin_scheme("s2-standard"), SBZ) \
        == pytest.approx(0.25, abs=1e-12)
    bell = born_ensemble(spin_scheme("s2-bell"), psi)
    for entry in bell.entries:
        assert entry.probability == pytest.approx(0.25, abs=1e-12)
    assert post_measurement_expectation(psi, spin_scheme("s2-bell"), SBZ) \
        == pytest.approx(0.0, abs=1e-12)
    assert post_measurement_expectation(psi, spin_scheme("sz-standard"), SBZ) \
        == pytest.approx(0.5, abs=1e-12)
    assert post_measurement_expectation(psi, spin_scheme("sz-bell"), SBZ) \
        == pytest.approx(0.25, abs=1e-12)
    _report(3, "same prestate, different degenerate bases: hbar/4 vs 0, "
               "and hbar/2 vs hbar/4 for total-Sz")


def test_criterion_04_semicausality():
    for out in spin_scheme("s2-bell").outcomes:
        red = reduced_projector(
            Operator((2, 2), out.projector_matrix(), hermitian=True), keep=1)
        assert np.max(np.abs(red.matrix - np.eye(2) / 2)) <= 1e-12
    psi = spin_state("up", "up")
    worst = 0.0
    for scheme in (spin_scheme("s2-bell"), spin_scheme("sz-standard")):
        for name in ("sBx", "sBy", "sBz"):
            obs = spin_observable(name)
            ref = post_measurement_expectation(psi, scheme, obs)
            for axis, angle in random_rotations(100, seed=11):
                val = post_measurement_expectation(
                    alice_rotate(psi, axis, angle), scheme, obs)
                worst = max(worst, abs(val - ref))
    assert worst <= 1e-10
    _report(4, f"Bell projectors reduce to 1_B/2 and 100 random local "
               f"rotations move Bob's values by at most {worst:.2e}")


def test_criterion_05_oscillator_naive_momentum():
    started = time.monotonic()
    params = OscParams()
    p_a, p_b = 0.3, -0.2
    for lam in np.linspace(-1.0, 1.0, 9):
        pre = coherent_prestate(params, KickParams(p_a=p_a, p_b=p_b, lam=lam), 40)
        assert pre.tail_bound <= 1e-8
        moments = local_moments_b(naive_nplus_ensemble(pre), params)
        assert moments.p == pytest.approx(-(p_a - p_b + lam) / 2, abs=1e-8)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(5, f"<P_B> = -(p_A - p_B + lam)/2 across lam in [-1, 1] "
               f"({elapsed:.2f} s)")


def test_criterion_06_phase_state_scheme():
    params = OscParams()
    kick = KickParams(p_a=1.0, p_b=-0.6, lam=1.2)   # Lambda+ = 0.8, Lambda- = 1.4
    assert abs(kick.big_lambda_plus(params)) <= 1.5
    assert abs(kick.big_lambda_minus(params)) <= 1.5
    s_cut, n_max = 16, 28
    pre = coherent_prestate(params, kick, (n_max, 2 * s_cut + 2))
    c = phase_coefficients(params, kick, s_cut, n_max)
    scheme = phase_scheme_nplus(s_cut, n_max)
    flat = pre.amps.reshape(-1)
    labels = [(n, b, s) for n in range(n_max) for b in (0, 1)
              for s in range(s_cut + 1)]
    worst = max(abs(np.vdot(out.frame[:, 0], flat) - c[n, b, s])
                for out, (n, b, s) in zip(scheme.outcomes, labels))
    assert worst <= 1e-8

    h = 1e-3
    for field in ("q", "p"):
        lo = getattr(phase_ensemble_moments(params, KickParams(lam=-h), 8, 24), field)
        hi = getattr(phase_ensemble_moments(params, KickParams(lam=+h), 8, 24), field)
        assert abs((hi - lo) / (2 * h)) <= 1e-6

    cuts = np.array([4.0, 8.0, 16.0, 32.0])
    vals = np.array([phase_ensemble_moments(params, KickParams(lam=0.2),
                                            int(s), 20).q2 for s in cuts])
    design = np.vstack([cuts, np.ones_like(cuts)]).T
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    fitted = design @ coef
    r2 = 1 - np.sum((vals - fitted) ** 2) / np.sum((vals - vals.mean()) ** 2)
    assert coef[0] > 0 and r2 > 0.99
    _report(6, f"closed-form coefficients match projection to {worst:.1e}; "
               f"first moments lam-flat; <Q_B^2> linear in s_cut (R^2 = {r2:.6f})")


FIXTURE_LAT = LatticeSpec(dim=1, n_sites=4, spacing=1.0, mass=1.0)


def test_criterion_07_field_naive_vs_oracle():
    started = time.monotonic()
    modes = build_modes(FIXTURE_LAT)
    p = modes.mode_index(1)
    kick = KickSpec(site=0, strength=0.3)
    for y in range(4):
        rep = numeric_oracle_qndsv(modes, kick, y, p, 6, scheme_kind="naive")
        closed = naive_np_expectations(modes, kick, y, p).as_dict()
        for name in ("phi_y", "pi_y", "phi2_y", "pi2_y"):
            assert closed[name] == pytest.approx(
                rep.values[name], abs=1e-6 + rep.tail_bound), (y, name)
    probs = naive_outcome_probabilities(modes, kick, p, 6)
    _, tail = oracle_prestate(modes, kick, 6)
    assert probs.sum() == pytest.approx(1.0, abs=tail + 1e-10)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(7, f"all four naive closed forms match the truncated-Fock oracle "
               f"to 1e-6 and sum(P_mn) = 1 ({elapsed:.1f} s)")


def test_criterion_08_field_verification_vs_oracle():
    modes = build_modes(FIXTURE_LAT)
    p = modes.mode_index(1)
    kick = KickSpec(site=0, strength=0.3)
    for y in (1, 2, 3):
        rep = numeric_oracle_qndsv(modes, kick, y, p, 6, scheme_kind="qndsv",
                                   observables=("phi_y",))
        assert qndsv_phi_y(modes, kick, y, p) == pytest.approx(
            rep.values["phi_y"], abs=1e-6)
    for lam in (0.15, 0.6):
        assert qndsv_phi_y(modes, KickSpec(0, lam), 1, p) == pytest.approx(
            -qndsv_phi_y(modes, KickSpec(0, -lam), 1, p), abs=1e-12)
    packet = single_mode_packet(modes, p)
    for t1 in (0.0, 1.3):
        for y in (1, 3):
            assert qndsv_wavepacket_phi_y(modes, kick, y, packet, t1) \
                == pytest.approx(qndsv_phi_y(modes, kick, y, p), abs=1e-12)
    h = 1e-4
    for y in (1, 2, 3):
        fd = (qndsv_wavepacket_phi_y(modes, KickSpec(0, h), y, packet)
              - qndsv_wavepacket_phi_y(modes, KickSpec(0, -h), y, packet)) / (2 * h)
        assert sorkin_derivative(modes, 0, y, packet) == pytest.approx(fd, abs=1e-6)
    _report(8, "verification <phi_y> matches the oracle, is odd in lam, the "
               "spectral-delta packet reduces exactly, and the derivative "
               "kernel equals the finite difference")


def test_criterion_09_cutoff_scaling():
    vals = []
    for n in (4, 8, 16):
        lat = LatticeSpec(dim=1, n_sites=n, spacing=1.0, mass=1.0)
        modes = build_modes(lat)
        p = modes.mode_index(n // 4)
        vals.append(abs(naive_np_expectations(modes, KickSpec(0, 0.3), 2, p).pi))
    fit = power_fit([4, 8, 16], vals)
    assert fit.exponent == pytest.approx(-1.0, abs=0.05)

    vals = []
    for n in (4, 8, 16):
        lat = LatticeSpec(dim=1, n_sites=n, spacing=1.0, mass=1.0)
        modes = build_modes(lat)
        p = modes.mode_index(n // 4)
        vals.append(abs(qndsv_phi_y(modes, KickSpec(0, 0.3), 1, p)))
    fit2 = power_fit([4, 8, 16], vals)
    assert fit2.exponent == pytest.approx(-1.0, abs=0.05)

    modes = build_modes(FIXTURE_LAT)
    ms = max_signaling(modes, 0)
    grid = np.concatenate([np.linspace(0.0, 2 * ms.lambda_star, 801),
                           [ms.lambda_star]])
    grid_max = max(lam * suppression_factor(modes, KickSpec(0, lam))
                   for lam in grid)
    assert grid_max == pytest.approx(ms.amplitude, abs=1e-6)

    amps = []
    for n, a in ((8, 1.0), (16, 0.5), (32, 0.25)):
        lat = LatticeSpec(dim=1, n_sites=n, spacing=a, mass=1.0)
        amps.append(max_signaling(build_modes(lat), 0).amplitude)
    assert amps[0] > amps[1] > amps[2]
    _report(9, f"volume-sweep exponents {fit.exponent:.3f} / {fit2.exponent:.3f}; "
               f"suppression amplitude matches its grid maximum and falls "
               f"with the spacing")


def test_criterion_10_deterministic_outputs(tmp_path):
    assert ALL_FIXTURES, "fixture corpus missing"
    for fixture in ALL_FIXTURES:
        first = _run_fixture(fixture, tmp_path / f"{fixture.stem}_1")
        second = _run_fixture(fixture, tmp_path / f"{fixture.stem}_2")
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), (fixture.name, a.name)
    _report(10, f"{len(ALL_FIXTURES)} shipped scenarios rerun byte-identical")
