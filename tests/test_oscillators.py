"""Two-oscillator lab: kicked coherent states of the +- modes, the naive
center-of-mass number measurement, and the number-times-phase-state scheme.

The independent oracle used throughout is the brute-force displacement
operator expm(alpha a^dag - alpha* a) on a truncated ladder.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import factorial

from causalprobe import cli
from causalprobe.core import born_ensemble, validate_scheme
from causalprobe.oscillators import (
    KickParams,
    OscParams,
    TwoModeFock,
    _amplitude_moments,
    _bound_scale,
    coherent_amplitudes,
    coherent_prestate,
    kicked_moments,
    ladder,
    local_moments_b,
    momentum_matrix,
    naive_nplus_ensemble,
    phase_coefficients,
    phase_ensemble_moments,
    position_matrix,
    product_moments,
)
from causalprobe.policy import TruncationError
from phase_reference import phase_scheme_nplus, phase_state

PARAMS = OscParams()


def displaced_ground(alpha: complex, dim: int) -> np.ndarray:
    """Oracle: expm displacement applied to the ground state."""
    a = ladder(dim)
    d = expm(alpha * a.conj().T - np.conj(alpha) * a)
    return d[:, 0]


class TestParams:
    def test_kappa_definition(self):
        p = OscParams(mass=2.0, frequency=3.0, hbar=0.5)
        assert p.kappa**2 == pytest.approx(2.0 * 3.0 / 0.5, abs=1e-12)

    def test_kick_lambdas(self):
        k = KickParams(p_a=0.4, p_b=-0.1, lam=0.25)
        assert k.lambda_plus == pytest.approx(0.55, abs=1e-12)
        assert k.lambda_minus == pytest.approx(0.75, abs=1e-12)
        assert k.big_lambda_plus(PARAMS) == pytest.approx(0.275, abs=1e-12)

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            OscParams(mass=-1.0)

    @pytest.mark.parametrize("name", ["mass", "frequency", "hbar"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_non_finite_or_zero_parameter_refused(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            OscParams(**{name: value})


class TestCoherentPrestate:
    def test_zero_kick_is_ground_state(self):
        pre = coherent_prestate(PARAMS, KickParams(), 10)
        want = np.zeros((10, 10))
        want[0, 0] = 1.0
        assert np.allclose(pre.amps, want)

    def test_unkicked_relative_mode_stays_ground(self):
        # p_a = 0, p_b = x, lam = x makes lambda_minus vanish
        pre = coherent_prestate(PARAMS, KickParams(p_a=0.0, p_b=0.3, lam=0.3), 20)
        assert np.allclose(pre.amps[:, 1:], 0.0, atol=1e-15)

    def test_number_distribution_matches_displacement_oracle(self):
        kick = KickParams(p_a=0.5, p_b=-0.3, lam=0.4)
        pre = coherent_prestate(PARAMS, kick, 30)
        for col, big_lam in ((0, kick.big_lambda_plus(PARAMS)),
                             (1, kick.big_lambda_minus(PARAMS))):
            marginal = np.sum(np.abs(pre.amps) ** 2, axis=1 - col)
            oracle = np.abs(displaced_ground(1j * big_lam, 30)) ** 2
            assert np.allclose(marginal, oracle, atol=1e-10)
            n = np.arange(30)
            poisson = np.exp(-big_lam**2) * big_lam ** (2 * n) / factorial(n)
            assert np.allclose(marginal, poisson, atol=1e-10)

    def test_insufficient_truncation_rejected(self):
        with pytest.raises(TruncationError):
            coherent_prestate(PARAMS, KickParams(lam=4.0), 4)

    def test_underflowing_ground_amplitude_rejected(self):
        """|alpha|^2 = 1600: e^{-|alpha|^2/2} underflows to 0, so every
        amplitude is 0 and the tail is 1, however large the box."""
        with pytest.raises(TruncationError):
            coherent_prestate(PARAMS, KickParams(p_a=80.0), 2000)

    def test_subnormal_ground_amplitude_rejected(self):
        """|alpha|^2 = 1480: e^{-|alpha|^2/2} is subnormal, the recurrence
        carries its lost digits into every level and the norm exceeds 1."""
        momentum = math.sqrt(1480.0)
        with pytest.raises(TruncationError):
            kicked_moments(PARAMS, KickParams(p_a=momentum, p_b=momentum), (3000, 1))

    def test_non_finite_kick_rejected(self):
        """An infinite kick gives 0 * inf = NaN amplitudes; the NaN norm is
        refused, not clamped to a zero tail."""
        with np.errstate(invalid="ignore"), pytest.raises(TruncationError):
            kicked_moments(PARAMS, KickParams(lam=math.inf), 10)

    @pytest.mark.parametrize("routine, args", [(coherent_prestate, (10,)),
                                               (phase_coefficients, (4, 10))])
    def test_batch_of_kicks_refused_by_name(self, routine, args):
        """Both build the state of one kick: an array lam is refused by name,
        formerly with numpy's truth-value or broadcast error."""
        kick = KickParams(lam=np.array([0.1, 0.2]))
        with pytest.raises(ValueError) as err:
            routine(PARAMS, kick, *args)
        assert str(err.value) == f"{routine.__name__} takes one kick, got lam=array([0.1, 0.2])"

    def test_norm_invariant_enforced(self):
        amps = np.zeros((3, 3), dtype=complex)
        amps[0, 0] = 0.5
        with pytest.raises(ValueError):
            TwoModeFock(PARAMS, amps, tail_bound=0.0)


class TestNaiveMeasurement:
    def test_probabilities_are_poisson_in_the_plus_displacement(self):
        kick = KickParams(p_a=0.5, p_b=-0.3, lam=0.4)
        pre = coherent_prestate(PARAMS, kick, 30)
        ens = naive_nplus_ensemble(pre)
        big_lam = kick.big_lambda_plus(PARAMS)
        oracle = np.abs(displaced_ground(1j * big_lam, 30)) ** 2
        for n, entry in enumerate(ens.entries):
            assert entry.probability == pytest.approx(oracle[n], abs=1e-12)

    def test_momentum_of_b_after_measurement(self):
        for lam in (-1.0, -0.3, 0.0, 0.5, 1.0):
            kick = KickParams(p_a=0.3, p_b=-0.2, lam=lam)
            ens = naive_nplus_ensemble(coherent_prestate(PARAMS, kick, 40))
            moments = local_moments_b(ens, PARAMS)
            assert moments.p == pytest.approx(-(0.3 + 0.2 + lam) / 2, abs=1e-8)

    def test_zero_kick_single_outcome(self):
        ens = naive_nplus_ensemble(coherent_prestate(PARAMS, KickParams(), 8))
        assert ens.entries[0].probability == pytest.approx(1.0, abs=1e-12)
        assert all(e.zero_branch for e in ens.entries[1:])

    def test_entangled_prestate_collapses_row_by_row(self):
        """The Lueders rule on any PM prestate: outcome n keeps row n of the
        amplitudes, with its squared norm as Born weight."""
        rng = np.random.default_rng(11)
        amps = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        amps /= np.linalg.norm(amps)
        assert np.linalg.svd(amps, compute_uv=False)[1] > 0.1     # entangled
        ens = naive_nplus_ensemble(TwoModeFock(PARAMS, amps))
        assert [e.label for e in ens.entries] == [f"n={n}" for n in range(4)]
        for n, entry in enumerate(ens.entries):
            norm = np.linalg.norm(amps[n])
            assert entry.probability == pytest.approx(norm**2, rel=1e-14)
            want = np.zeros_like(amps)
            want[n] = amps[n] / norm
            assert np.allclose(entry.post_state.amplitudes, want.reshape(-1), rtol=0, atol=1e-15)


class TestPhaseStates:
    def test_trivial_cutoff(self):
        assert np.allclose(phase_state(0, 0, 0), [1, 0])

    def test_odd_family_at_zero_angle(self):
        got = phase_state(1, 0, 2)
        want = np.zeros(6)
        want[[1, 3, 5]] = 1 / math.sqrt(3)
        assert np.allclose(got, want)

    def test_orthonormal_family(self):
        for s_cut in (2, 4, 6):
            vecs = [phase_state(b, s, s_cut) for b in (0, 1) for s in range(s_cut + 1)]
            gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
            assert np.max(np.abs(gram - np.eye(len(vecs)))) < 1e-12

    def test_odd_cutoff_rejected(self):
        with pytest.raises(ValueError):
            phase_state(0, 0, 3)

    def test_s_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            phase_state(0, 5, 4)


class TestPhaseScheme:
    def test_complete_orthogonal_on_truncated_space(self):
        diag = validate_scheme(phase_scheme_nplus(2, 5))
        assert diag.within(1e-10)

    def test_overflow_levels_covered(self):
        scheme = phase_scheme_nplus(2, 3, n_minus_dim=8)
        assert validate_scheme(scheme).within(1e-10)
        assert any("overflow" in out.label for out in scheme.outcomes)

    def test_too_small_minus_truncation_rejected(self):
        with pytest.raises(TruncationError):
            phase_scheme_nplus(4, 6, n_minus_dim=8)

    def test_closed_form_coefficients_match_projection(self):
        """Most of acceptance: c_{n,b,theta_s} against the numeric overlap of
        the prestate with each scheme basis vector, Lambda <= 1.5, s_cut 16;
        then against overlaps with the phase states themselves at the
        smallest cutoffs and at the benchmark's s_cut 200."""
        params = PARAMS
        kick = KickParams(p_a=1.0, p_b=-0.6, lam=1.2)   # Lambda+ = 0.8, Lambda- = 1.4
        assert abs(kick.big_lambda_plus(params)) <= 1.5
        assert abs(kick.big_lambda_minus(params)) <= 1.5
        s_cut, n_max = 16, 28
        pre = coherent_prestate(params, kick, (n_max, 2 * s_cut + 2))
        c = phase_coefficients(params, kick, s_cut, n_max)
        flat = pre.amps.reshape(-1)
        scheme = phase_scheme_nplus(s_cut, n_max)
        idx = 0
        worst = 0.0
        for n in range(n_max):
            for b in (0, 1):
                for s in range(s_cut + 1):
                    out = scheme.outcomes[idx]
                    assert out.label == f"n={n} b={b} s={s}"
                    worst = max(worst, abs(np.vdot(out.frame[:, 0], flat) - c[n, b, s]))
                    idx += 1
        assert worst < 1e-8
        for s_cut, kick in ((0, KickParams(p_a=0.25, p_b=0.5, lam=0.25)),   # Lambda- = 0
                            (2, KickParams(p_a=0.2, p_b=-0.1, lam=0.1)),
                            (200, kick)):
            pre = coherent_prestate(params, kick, (n_max, 2 * s_cut + 2))
            chis = np.array([[phase_state(b, s, s_cut) for s in range(s_cut + 1)]
                             for b in (0, 1)])
            projected = np.einsum("nm,bsm->nbs", pre.amps, chis.conj())
            c = phase_coefficients(params, kick, s_cut, n_max)
            assert np.max(np.abs(projected - c)) < 1e-8, s_cut

    def test_weights_sum_to_one_within_tail(self):
        kick = KickParams(p_a=0.6, p_b=0.2, lam=0.4)
        c = phase_coefficients(PARAMS, kick, 8, 24)
        assert float(np.sum(np.abs(c) ** 2)) == pytest.approx(1.0, abs=1e-10)

    def test_odd_family_empty_without_relative_displacement(self):
        kick = KickParams(p_a=0.0, p_b=0.25, lam=0.25)  # lambda_minus = 0
        c = phase_coefficients(PARAMS, kick, 6, 16)
        assert np.max(np.abs(c[:, 1, :])) <= 1e-12

    def test_born_weights_match_closed_form(self):
        kick = KickParams(p_a=0.2, p_b=-0.1, lam=0.3)
        s_cut, n_max = 6, 18
        pre = coherent_prestate(PARAMS, kick, (n_max, 2 * s_cut + 2))
        scheme = phase_scheme_nplus(s_cut, n_max)
        ens = born_ensemble(scheme, pre.as_state(), tail_bound=pre.tail_bound)
        c = phase_coefficients(PARAMS, kick, s_cut, n_max)
        idx = 0
        for n in range(n_max):
            for b in (0, 1):
                for s in range(s_cut + 1):
                    assert ens.entries[idx].probability == pytest.approx(
                        abs(c[n, b, s]) ** 2, abs=1e-10)
                    idx += 1


class TestPhaseMoments:
    def test_first_moments_vanish_identically(self):
        m = phase_ensemble_moments(PARAMS, KickParams(p_a=0.4, lam=0.3), 8, 24)
        assert m.q == 0.0 and m.p == 0.0

    def test_lambda_independence_of_first_moments(self):
        h = 1e-3
        for obs in ("q", "p"):
            lo = getattr(phase_ensemble_moments(PARAMS, KickParams(lam=-h), 8, 24), obs)
            hi = getattr(phase_ensemble_moments(PARAMS, KickParams(lam=+h), 8, 24), obs)
            assert abs((hi - lo) / (2 * h)) <= 1e-6

    def test_naive_momentum_signals_with_slope_half(self):
        h = 1e-3
        vals = []
        for lam in (-h, h):
            ens = naive_nplus_ensemble(
                coherent_prestate(PARAMS, KickParams(lam=lam), 30))
            vals.append(local_moments_b(ens, PARAMS).p)
        assert (vals[1] - vals[0]) / (2 * h) == pytest.approx(-0.5, abs=1e-8)

    def test_position_variance_grows_linearly_with_s_cut(self):
        cuts = np.array([4, 8, 16, 32], dtype=float)
        vals = np.array([
            phase_ensemble_moments(PARAMS, KickParams(lam=0.2), int(s), 20).q2
            for s in cuts])
        design = np.vstack([cuts, np.ones_like(cuts)]).T
        coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
        fitted = design @ coef
        r2 = 1 - np.sum((vals - fitted) ** 2) / np.sum((vals - vals.mean()) ** 2)
        assert coef[0] > 0
        assert r2 > 0.99

    def test_moments_match_scheme_based_ensemble(self):
        """Closed-form path vs the generic Born machinery.

        The minus truncation is padded two levels past the phase-state span
        so the squared position matrix is exact on every populated level;
        the two routes then agree to rounding.
        """
        kick = KickParams(p_a=0.2, p_b=-0.1, lam=0.3)
        s_cut, n_max = 4, 14
        pad = 2 * s_cut + 4
        pre = coherent_prestate(PARAMS, kick, (n_max, pad))
        scheme = phase_scheme_nplus(s_cut, n_max, n_minus_dim=pad)
        ens = born_ensemble(scheme, pre.as_state(), tail_bound=pre.tail_bound)
        generic = local_moments_b(ens, PARAMS)
        closed = phase_ensemble_moments(PARAMS, kick, s_cut, n_max)
        # overflow levels hold only the coherent tail, so the comparison is
        # tight despite the closed path ignoring them
        assert closed.q2 == pytest.approx(generic.q2, abs=1e-8)
        assert closed.p2 == pytest.approx(generic.p2, abs=1e-8)
        assert closed.q == pytest.approx(generic.q, abs=1e-10)
        assert closed.p == pytest.approx(generic.p, abs=1e-10)

    def test_lost_norm_is_refused(self, tmp_path):
        """s_cut 2 gives the relative mode 6 levels, far too few for
        lambda = 5: the library and the CLI refuse, as for the other schemes."""
        for routine in (phase_ensemble_moments, phase_coefficients):
            with pytest.raises(TruncationError):
                routine(PARAMS, KickParams(lam=5.0), 2, 40)
        assert cli.main(["ho", "phase-nplus", "--s-cut", "2", "--trunc", "40",
                         "--lambda", "5", "--out", str(tmp_path)]) == 3
        assert not list(tmp_path.iterdir())


class TestLocalMoments:
    def test_vacuum_moments(self):
        pre = coherent_prestate(PARAMS, KickParams(), 8)
        m = local_moments_b(pre)
        assert m.q == pytest.approx(0.0, abs=1e-12)
        assert m.p == pytest.approx(0.0, abs=1e-12)
        assert m.q2 == pytest.approx(0.5, abs=1e-12)   # hbar/(2 m Omega)
        assert m.p2 == pytest.approx(0.5, abs=1e-12)   # hbar m Omega / 2
        assert m.energy == pytest.approx(0.5, abs=1e-12)

    def test_prestate_momentum_is_p_b(self):
        pre = coherent_prestate(PARAMS, KickParams(p_a=0.4, p_b=-0.35, lam=0.2), 40)
        assert local_moments_b(pre).p == pytest.approx(-0.35, abs=1e-10)

    def test_error_bound_scales_with_tail(self):
        kick = KickParams(p_a=0.5, p_b=-0.3, lam=0.4)
        pre = coherent_prestate(PARAMS, kick, 30)
        assert local_moments_b(pre).error_bound <= 1e-8 * 1e4

    def test_excessive_tail_rejected(self):
        amps = np.zeros((4, 4), dtype=complex)
        amps[0, 0] = math.sqrt(1.0 - 1e-6)
        state = TwoModeFock(PARAMS, amps, tail_bound=1e-6)
        with pytest.raises(TruncationError):
            local_moments_b(state)

    def test_matrix_conventions(self):
        # [Q, P] = i hbar on the retained block
        q, p = position_matrix(10, PARAMS), momentum_matrix(10, PARAMS)
        comm = q @ p - p @ q
        assert np.allclose(np.diag(comm)[:-1], 1j * np.ones(9), atol=1e-12)

    def test_coherent_momentum_expectation(self):
        # <P> = sqrt(2) hbar kappa Im(alpha) for a coherent state
        alpha = 0.3j
        vec = coherent_amplitudes(alpha, 30)
        p = momentum_matrix(30, PARAMS)
        got = float(np.real(np.vdot(vec, p @ vec)))
        assert got == pytest.approx(math.sqrt(2) * 0.3, abs=1e-10)


class TestFactorisedMoments:
    """The product-outcome route the CLI takes; the generic route is
    compared with it in tests/test_properties.py."""

    @pytest.mark.parametrize("collapse", [True, False])
    def test_insufficient_truncation_rejected(self, collapse):
        with pytest.raises(TruncationError):
            kicked_moments(PARAMS, KickParams(lam=4.0), 4, collapse=collapse)

    @pytest.mark.parametrize("trunc", [40.9, 40.0, "40", True, (40, 30.0)])
    def test_non_integer_trunc_refused_by_name(self, trunc):
        with pytest.raises(ValueError, match="^trunc must be an integer"):
            kicked_moments(PARAMS, KickParams(p_a=0.3), trunc, collapse=True)

    @pytest.mark.parametrize("s_cut, n_max, name", [
        (4.0, 20, "s_cut"), ("4", 20, "s_cut"), (True, 20, "s_cut"), (4, 20.0, "n_max")])
    def test_non_integer_phase_cutoff_refused_by_name(self, s_cut, n_max, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            phase_ensemble_moments(PARAMS, KickParams(p_a=0.3), s_cut, n_max)

    def test_numpy_integer_cutoffs_accepted(self):
        kick = KickParams(p_a=0.3, lam=0.2)
        assert kicked_moments(PARAMS, kick, np.int64(40), collapse=True) \
            == kicked_moments(PARAMS, kick, 40, collapse=True)
        assert phase_ensemble_moments(PARAMS, kick, np.int64(4), np.int64(20)) \
            == phase_ensemble_moments(PARAMS, kick, 4, 20)

    def test_naive_momentum_pin(self):
        for lam in (-1.0, -0.3, 0.0, 0.5, 1.0):
            kick = KickParams(p_a=0.3, p_b=-0.2, lam=lam)
            assert kicked_moments(PARAMS, kick, 40, collapse=True).p == pytest.approx(
                -(0.3 + 0.2 + lam) / 2, abs=1e-8)

    def test_phase_first_moments_are_positive_zero(self):
        """+0.0, so the CSVs print 0 and never -0."""
        for lam in (-1.0, -0.0, 0.0, 0.7):
            m = phase_ensemble_moments(PARAMS, KickParams(p_a=-0.4, p_b=0.3, lam=lam), 8, 24)
            assert math.copysign(1.0, m.q) == math.copysign(1.0, m.p) == 1.0

    def test_product_moments_match_dense_route_on_any_product(self):
        """Arbitrary complex factors, unlike the kicks, also move <Q_+-> and
        the cross terms."""
        params = OscParams(mass=1.5, frequency=0.8, hbar=1.2)
        rng = np.random.default_rng(7)
        f_plus, f_minus = (rng.normal(size=d) + 1j * rng.normal(size=d) for d in (9, 12))
        f_plus, f_minus = f_plus / np.linalg.norm(f_plus), f_minus / np.linalg.norm(f_minus)
        dense = local_moments_b(TwoModeFock(params, np.outer(f_plus, f_minus)))
        fast = product_moments(_amplitude_moments(params, f_plus),
                               _amplitude_moments(params, f_minus), params, 0.0)
        assert abs(dense.q) > 0.1
        for name in ("q", "p", "q2", "p2", "energy"):
            assert getattr(fast, name) == pytest.approx(getattr(dense, name), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (5, 4), (12, 30)])
    def test_bound_scale_matches_dense_infinity_norms(self, dims):
        params = OscParams(mass=2.0, frequency=0.7, hbar=1.3)

        def norm(mat):
            return float(np.max(np.sum(np.abs(mat), axis=1)))

        q1, q2 = position_matrix(dims[0], params), position_matrix(dims[1], params)
        p1, p2 = momentum_matrix(dims[0], params), momentum_matrix(dims[1], params)
        dense_pm = 0.5 * (norm(q1 @ q1) + 2 * norm(q1) * norm(q2) + norm(q2 @ q2)
                          + norm(p1 @ p1) + 2 * norm(p1) * norm(p2) + norm(p2 @ p2))
        assert _bound_scale(*dims, params) == pytest.approx(dense_pm, rel=1e-13)
