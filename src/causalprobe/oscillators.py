"""Two identical harmonic oscillators in truncated Fock space.

The center-of-mass / relative coordinates Q_pm = (Q_A +- Q_B)/sqrt(2) carry
their own ladder operators a_pm = (a_A +- a_B)/sqrt(2); on Fock amplitudes
the change of basis is a 50:50 mixing that conserves total excitation
number, applied here sector by sector with exact binomial coefficients.

Phase convention: the momentum kick exp(i q Q / hbar) on a ground state is
the displacement D(alpha) with alpha = i q / (sqrt(2) hbar kappa),
kappa = sqrt(m Omega / hbar).  A kick of strength lam on oscillator A then
displaces the +- modes by i Lambda_pm with Lambda_pm = lambda_pm/(2 hbar
kappa) and lambda_pm = p_A +- p_B + lam, which is what makes the
closed-form expansion coefficients below come out literally.

Product outcomes: the kicked prestate f_+ (x) f_- and every outcome of the
naive N_+ collapse (|n>_+ (x) f_-) and of the number-times-phase-state
scheme (|n>_+ (x) |b, theta_s>_-) are products, so B's moments follow one
mode at a time (``product_moments``): <Q_B> = (<Q_+> - <Q_->)/sqrt(2) and
<Q_B^2> = (<Q_+^2> - 2 <Q_+><Q_-> + <Q_-^2>)/2, likewise for P; over + number
states <n|Q_+|n> = 0 kills the cross term.  A mode's moments are O(trunc)
sums of its number weights and coherences <a>, <a^2> (``mode_moments``);
``local_moments_b`` keeps the dense route on joint arrays as the reference.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .core import (
    MeasurementScheme,
    OutcomeEnsemble,
    OutcomeEntry,
    StateVector,
)
from .policy import DEFAULT_POLICY, TruncationError

BASIS_AB = "AB"
BASIS_PM = "PM"


@dataclass(frozen=True)
class OscParams:
    """Oscillator mass, frequency and hbar; kappa = sqrt(m Omega / hbar)."""

    mass: float = 1.0
    frequency: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if min(self.mass, self.frequency, self.hbar) <= 0:
            raise ValueError("mass, frequency and hbar must be positive")

    @property
    def kappa(self) -> float:
        return math.sqrt(self.mass * self.frequency / self.hbar)


@dataclass(frozen=True)
class KickParams:
    """Initial momenta p_a, p_b plus the freely chosen kick lam on A."""

    p_a: float = 0.0
    p_b: float = 0.0
    lam: float = 0.0

    @property
    def lambda_plus(self) -> float:
        return self.p_a + self.p_b + self.lam

    @property
    def lambda_minus(self) -> float:
        return self.p_a - self.p_b + self.lam

    def big_lambda_plus(self, params: OscParams) -> float:
        return self.lambda_plus / (2.0 * params.hbar * params.kappa)

    def big_lambda_minus(self, params: OscParams) -> float:
        return self.lambda_minus / (2.0 * params.hbar * params.kappa)


@dataclass(frozen=True)
class TwoModeFock:
    """Truncated two-mode Fock amplitudes with a basis tag (AB or PM)."""

    params: OscParams
    amps: np.ndarray
    basis: str
    tail_bound: float = 0.0

    def __post_init__(self):
        if self.basis not in (BASIS_AB, BASIS_PM):
            raise ValueError(f"basis must be {BASIS_AB!r} or {BASIS_PM!r}")
        amps = np.array(self.amps, dtype=complex)
        if amps.ndim != 2:
            raise ValueError("amplitudes must be a 2-d array (n_first, n_second)")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        total = float(np.sum(np.abs(amps) ** 2)) + self.tail_bound
        if abs(total - 1.0) > DEFAULT_POLICY.structural_tol:
            raise ValueError(
                f"|amps|^2 + tail_bound = {total!r}, must be 1 within structural tolerance")

    @property
    def trunc(self) -> tuple[int, int]:
        return self.amps.shape

    def as_state(self) -> StateVector:
        return StateVector(self.amps.shape, self.amps.reshape(-1))


def ladder(dim: int) -> np.ndarray:
    """Lowering operator on a dim-level truncation."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def position_matrix(dim: int, params: OscParams) -> np.ndarray:
    a = ladder(dim)
    scale = math.sqrt(params.hbar / (2.0 * params.mass * params.frequency))
    return scale * (a + a.conj().T)


def momentum_matrix(dim: int, params: OscParams) -> np.ndarray:
    a = ladder(dim)
    scale = math.sqrt(params.hbar * params.mass * params.frequency / 2.0)
    return 1j * scale * (a.conj().T - a)


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Truncated coherent state, physical (unrenormalized) amplitudes."""
    n = np.arange(dim)
    mag = np.exp(-abs(alpha) ** 2 / 2.0 - 0.5 * gammaln(n + 1))
    return mag * np.power(complex(alpha), n) if alpha != 0 else (
        np.eye(dim, dtype=complex)[0])


def _normalize_trunc(trunc) -> tuple[int, int]:
    if np.isscalar(trunc):
        return int(trunc), int(trunc)
    a, b = trunc
    return int(a), int(b)


def _kicked_factors(params: OscParams, kick: KickParams,
                    trunc) -> tuple[np.ndarray, np.ndarray, float]:
    """The + and - coherent factors of the kicked prestate and its tail."""
    d_plus, d_minus = _normalize_trunc(trunc)
    f_plus = coherent_amplitudes(1j * kick.big_lambda_plus(params), d_plus)
    f_minus = coherent_amplitudes(1j * kick.big_lambda_minus(params), d_minus)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(f_plus) ** 2))
               * float(np.sum(np.abs(f_minus) ** 2)))
    if tail > DEFAULT_POLICY.tail_tol:
        raise TruncationError(f"truncation {d_plus}x{d_minus} leaves tail {tail:.3e}"
                              f" > {DEFAULT_POLICY.tail_tol:.0e}")
    return f_plus, f_minus, tail


def coherent_prestate(params: OscParams, kick: KickParams, trunc) -> TwoModeFock:
    """Kicked coherent product state in the PM basis.

    The +- modes are coherent with amplitudes i*Lambda_pm.  Fails rather
    than silently truncating when the norm outside the box exceeds the
    policy tail tolerance.
    """
    f_plus, f_minus, tail = _kicked_factors(params, kick, trunc)
    return TwoModeFock(params=params, amps=np.outer(f_plus, f_minus), basis=BASIS_PM,
                       tail_bound=tail)


@lru_cache(maxsize=None)
def mixing_sector_matrix(n: int) -> np.ndarray:
    """Fock-amplitude matrix of the a_pm = (a_A +- a_B)/sqrt(2) change of
    basis inside the total-number-n sector; real, orthogonal, involutive.

    Entry [n_plus, n_A] comes from expanding
    (a+_dag + a-_dag)^{n_A} (a+_dag - a-_dag)^{n_B} / sqrt(2^n):
    the integer coefficient of t^{n_plus} in (1+t)^{n_A} (t-1)^{n_B},
    computed exactly, times sqrt(n_plus! n_minus! / n_A! n_B!).
    """
    mat = np.zeros((n + 1, n + 1))
    lg = gammaln(np.arange(n + 2))
    for n_a in range(n + 1):
        n_b = n - n_a
        coeffs = [1]
        for _ in range(n_a):  # multiply by (1 + t)
            coeffs = [x + y for x, y in zip(coeffs + [0], [0] + coeffs)]
        for _ in range(n_b):  # multiply by (t - 1)
            coeffs = [-x + y for x, y in zip(coeffs + [0], [0] + coeffs)]
        for n_p, k in enumerate(coeffs):
            if k == 0:
                continue
            log_amp = 0.5 * (lg[n_p + 1] + lg[n - n_p + 1] - lg[n_a + 1] - lg[n_b + 1]) \
                - 0.5 * n * math.log(2.0)
            mat[n_p, n_a] = math.copysign(math.exp(log_amp + math.log(abs(k))), k)
    mat.setflags(write=False)
    return mat


def _apply_mixing(amps: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply the sector-exact mixing on a truncation box; returns (out, lost norm).

    Sectors with total number beyond the per-mode cutoffs are only partially
    contained in the box, so a little norm can leak out; it is returned so
    callers can fold it into their tail accounting.
    """
    d1, d2 = amps.shape
    out = np.zeros_like(amps)
    lost = 0.0
    for n in range(d1 + d2 - 1):
        lo, hi = max(0, n - (d2 - 1)), min(d1 - 1, n)
        vin = np.zeros(n + 1, dtype=complex)
        for i in range(lo, hi + 1):
            vin[i] = amps[i, n - i]
        if not np.any(vin):
            continue
        vout = mixing_sector_matrix(n) @ vin
        kept = 0.0
        for i in range(lo, hi + 1):
            out[i, n - i] = vout[i]
            kept += abs(vout[i]) ** 2
        lost += float(np.sum(np.abs(vout) ** 2) - kept)
    return out, max(lost, 0.0)


def ab_to_pm(state: TwoModeFock) -> TwoModeFock:
    """Per-oscillator amplitudes -> center-of-mass/relative amplitudes."""
    if state.basis != BASIS_AB:
        raise ValueError(f"expected basis {BASIS_AB!r}, got {state.basis!r}")
    out, lost = _apply_mixing(state.amps)
    return TwoModeFock(state.params, out, BASIS_PM, state.tail_bound + lost)


def pm_to_ab(state: TwoModeFock) -> TwoModeFock:
    """Inverse of ab_to_pm (the mixing is its own inverse)."""
    if state.basis != BASIS_PM:
        raise ValueError(f"expected basis {BASIS_PM!r}, got {state.basis!r}")
    out, lost = _apply_mixing(state.amps)
    return TwoModeFock(state.params, out, BASIS_AB, state.tail_bound + lost)


def _separable_factors(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u, s, vh = np.linalg.svd(amps)
    if len(s) > 1 and s[1] > DEFAULT_POLICY.tail_tol:
        raise ValueError(
            f"state is not separable across the two modes (second Schmidt value {s[1]:.3e})")
    f1 = u[:, 0] * s[0]
    f2 = vh[0]
    pivot = f1[np.argmax(np.abs(f1))]
    phase = np.conj(pivot) / abs(pivot)
    return f1 * phase, f2 * np.conj(phase)


def naive_nplus_ensemble(prestate: TwoModeFock) -> OutcomeEnsemble:
    """Collapse only the center-of-mass factor onto its number states.

    Defined only for prestates separable across the +- modes: outcome n has
    the Born weight |<n|f_plus>|^2 and leaves the relative-mode factor
    untouched.
    """
    if prestate.basis != BASIS_PM:
        raise ValueError("naive collapse is defined on the PM basis")
    f_plus, f_minus = _separable_factors(prestate.amps)
    d_plus, d_minus = prestate.trunc
    nrm_minus = float(np.linalg.norm(f_minus))
    post_minus = f_minus / nrm_minus
    entries = []
    for n in range(d_plus):
        prob = float(abs(f_plus[n]) ** 2) * nrm_minus**2
        if prob < DEFAULT_POLICY.zero_probability:
            entries.append(OutcomeEntry(f"n={n}", prob, None, zero_branch=True))
            continue
        amp = np.zeros((d_plus, d_minus), dtype=complex)
        amp[n, :] = post_minus
        entries.append(OutcomeEntry(
            f"n={n}", prob, StateVector((d_plus, d_minus), amp.reshape(-1))))
    return OutcomeEnsemble(tuple(entries), tail_bound=prestate.tail_bound)


def phase_state(parity: int, s: int, s_cut: int) -> np.ndarray:
    """Finite fixed-parity phase state on 2*s_cut+2 Fock levels.

    (s_cut+1)^(-1/2) sum_{n=0}^{s_cut} e^{i(2n+parity) theta_s} |2n+parity>,
    theta_s = 2 pi s/(s_cut+1).  Exactly orthonormal across (parity, s)
    because s_cut+1 is odd, which is why odd s_cut is rejected.
    """
    if parity not in (0, 1):
        raise ValueError("parity bit must be 0 or 1")
    if s_cut < 0 or s_cut % 2 != 0:
        raise ValueError(f"s_cut must be even and nonnegative, got {s_cut}")
    if not 0 <= s <= s_cut:
        raise ValueError(f"s must lie in 0..{s_cut}, got {s}")
    theta = 2.0 * math.pi * s / (s_cut + 1)
    levels = 2 * np.arange(s_cut + 1) + parity
    vec = np.zeros(2 * s_cut + 2, dtype=complex)
    vec[levels] = np.exp(1j * levels * theta) / math.sqrt(s_cut + 1)
    return vec


def phase_scheme_nplus(s_cut: int, n_plus_dim: int, n_minus_dim: int | None = None,
                       *, validate: bool = True) -> MeasurementScheme:
    """Complete scheme: number states on the + mode, phase states on the - mode.

    The phase family spans relative-mode levels 0..2*s_cut+1 exactly; the
    minus-mode truncation must therefore be at least 2*s_cut+2.  Any levels
    above that are covered by plain number-state outcomes (labeled
    "overflow") so the scheme stays complete on the truncated space.
    """
    span = 2 * s_cut + 2
    if n_minus_dim is None:
        n_minus_dim = span
    if n_minus_dim < span:
        raise TruncationError(
            f"minus-mode truncation {n_minus_dim} too small for phase states (need {span})")
    eye_p = np.eye(n_plus_dim, dtype=complex)
    eye_m = np.eye(n_minus_dim, dtype=complex)
    labeled = []
    for n in range(n_plus_dim):
        for b in (0, 1):
            for s in range(s_cut + 1):
                chi = np.zeros(n_minus_dim, dtype=complex)
                chi[:span] = phase_state(b, s, s_cut)
                labeled.append((f"n={n} b={b} s={s}", np.kron(eye_p[n], chi)))
        for m in range(span, n_minus_dim):
            labeled.append((f"n={n} overflow m={m}", np.kron(eye_p[n], eye_m[m])))
    return MeasurementScheme.from_basis(
        (n_plus_dim, n_minus_dim), labeled, validate=validate)


def phase_coefficients(params: OscParams, kick: KickParams, s_cut: int,
                       n_max: int) -> np.ndarray:
    """Closed-form expansion coefficients c[n, parity, s] of the kicked
    prestate over the number-times-phase-state basis:

    c = e^{-(L+^2+L-^2)/2} (i L+)^n / sqrt(n!)
        * sum_j (i L- e^{-i theta_s})^{2j+parity} / sqrt((2j+parity)! (s_cut+1))
    """
    if s_cut % 2 != 0:
        raise ValueError(f"s_cut must be even, got {s_cut}")
    lp = kick.big_lambda_plus(params)
    lm = kick.big_lambda_minus(params)
    n = np.arange(n_max)
    # 0^0 = 1 handles the unkicked modes
    plus_part = np.exp(-0.5 * (lp**2 + lm**2) - 0.5 * gammaln(n + 1)) \
        * np.power(1j * lp, n)
    out = np.zeros((n_max, 2, s_cut + 1), dtype=complex)
    j = np.arange(s_cut + 1)
    bases = 1j * lm * np.exp(-1j * (2.0 * math.pi * j / (s_cut + 1)))    # one per s
    for b in (0, 1):
        pw = 2 * j + b
        log_mag = -0.5 * gammaln(pw + 1) - 0.5 * math.log(s_cut + 1)
        terms = np.exp(log_mag) * np.power(bases[:, None], pw)          # [s, j]
        out[:, b, :] = np.outer(plus_part, np.sum(terms, axis=1))
    return out


@dataclass(frozen=True)
class LocalMoments:
    """First and second moments of oscillator B, plus its energy."""

    q: float
    p: float
    q2: float
    p2: float
    energy: float
    error_bound: float


def _expect_two_mode(amps: np.ndarray, op1: np.ndarray, op2: np.ndarray) -> float:
    val = np.einsum("mn,mk,nl,kl->", np.conj(amps), op1, op2, amps, optimize=True)
    return float(np.real(val))


def _ladder_norms(dim: int) -> tuple[float, float]:
    """Infinity norms of a + a^dag and of its square on a dim-level ladder,
    from the closed-form row sums of the banded matrices; +-i phases and
    signs do not change them, so they serve P and P^2 as well."""
    n = np.arange(dim, dtype=float)
    first = np.sqrt(n) + np.sqrt(n + 1) * (n < dim - 1)
    second = np.sqrt(n * (n - 1)) + n + (n + 1) * (n < dim - 1) \
        + np.sqrt((n + 1) * (n + 2)) * (n < dim - 2)
    return float(np.max(first)), float(np.max(second))


def _bound_scale(d1: int, d2: int, params: OscParams, basis: str) -> float:
    """Infinity-norm bound on the quadratic B observables over the box."""
    scale = params.hbar / (2.0 * params.mass * params.frequency) \
        + params.hbar * params.mass * params.frequency / 2.0    # Q and P scales squared
    (first1, second1), (first2, second2) = _ladder_norms(d1), _ladder_norms(d2)
    if basis == BASIS_PM:
        return 0.5 * scale * (second1 + 2 * first1 * first2 + second2)
    return scale * second2


def _moments_from_amps(amps: np.ndarray, params: OscParams, basis: str,
                       tail: float) -> LocalMoments:
    d1, d2 = amps.shape
    q1m, q2m = position_matrix(d1, params), position_matrix(d2, params)
    p1m, p2m = momentum_matrix(d1, params), momentum_matrix(d2, params)
    i1, i2 = np.eye(d1, dtype=complex), np.eye(d2, dtype=complex)
    if basis == BASIS_PM:
        # Q_B = (Q_+ - Q_-)/sqrt2, P_B likewise
        q = (_expect_two_mode(amps, q1m, i2) - _expect_two_mode(amps, i1, q2m)) / math.sqrt(2)
        p = (_expect_two_mode(amps, p1m, i2) - _expect_two_mode(amps, i1, p2m)) / math.sqrt(2)
        q2 = 0.5 * (_expect_two_mode(amps, q1m @ q1m, i2)
                    - 2.0 * _expect_two_mode(amps, q1m, q2m)
                    + _expect_two_mode(amps, i1, q2m @ q2m))
        p2 = 0.5 * (_expect_two_mode(amps, p1m @ p1m, i2)
                    - 2.0 * _expect_two_mode(amps, p1m, p2m)
                    + _expect_two_mode(amps, i1, p2m @ p2m))
    else:
        q = _expect_two_mode(amps, i1, q2m)
        p = _expect_two_mode(amps, i1, p2m)
        q2 = _expect_two_mode(amps, i1, q2m @ q2m)
        p2 = _expect_two_mode(amps, i1, p2m @ p2m)
    energy = p2 / (2.0 * params.mass) + 0.5 * params.mass * params.frequency**2 * q2
    bound = tail * _bound_scale(d1, d2, params, basis) if tail else 0.0
    return LocalMoments(q, p, q2, p2, energy, error_bound=bound)


def local_moments_b(obj, params: OscParams | None = None) -> LocalMoments:
    """Moments of oscillator B for a TwoModeFock state or an OutcomeEnsemble.

    Ensembles (whose entries are joint StateVectors) need explicit params;
    their states are taken to be in the PM basis.  The reported
    error_bound is tail * (an infinity-norm bound on the quadratic
    observables over the truncated box).
    """
    if isinstance(obj, TwoModeFock):
        if obj.tail_bound > DEFAULT_POLICY.tail_tol:
            raise TruncationError(f"state tail {obj.tail_bound:.3e} above policy tolerance")
        return _moments_from_amps(obj.amps, obj.params, obj.basis, obj.tail_bound)
    if isinstance(obj, OutcomeEnsemble):
        if params is None:
            raise ValueError("params are required for ensemble moments")
        if obj.tail_bound > DEFAULT_POLICY.tail_tol:
            raise TruncationError(f"ensemble tail {obj.tail_bound:.3e} above policy tolerance")
        acc = np.zeros(5)
        dims = None
        for entry in obj.entries:
            if entry.zero_branch:
                continue
            dims = entry.post_state.dims
            amps = entry.post_state.amplitudes.reshape(dims)
            m = _moments_from_amps(amps, params, BASIS_PM, 0.0)
            acc += entry.probability * np.array([m.q, m.p, m.q2, m.p2, m.energy])
        if dims is None:
            raise ValueError("ensemble has no nonzero branches")
        bound = obj.tail_bound * _bound_scale(dims[0], dims[1], params, BASIS_PM)
        return LocalMoments(*acc, error_bound=bound)
    raise TypeError(f"unsupported input {type(obj).__name__}")


# one mode's sums tr(rho X) for X = 1, Q, P, Q^2, P^2; rho need not be normalized
ModeMoments = namedtuple("ModeMoments", "norm q p q2 p2")


def mode_moments(params: OscParams, weights: np.ndarray, a: complex = 0j,
                 a2: complex = 0j, box: int | None = None) -> ModeMoments:
    """One mode's moments from its number weights rho_nn and the ladder
    coherences <a>, <a^2> (zero for a mixture of number states), with Q and P
    as in position_matrix and momentum_matrix.  <a a^dag> counts level n only
    when n + 1 < box, as the dense matrices on box levels do (default: as
    many levels as weights)."""
    weights = np.asarray(weights, dtype=float)
    n = np.arange(len(weights))
    box = len(weights) if box is None else box
    number = float(np.sum(n * weights))                            # <a^dag a>
    number += float(np.sum(((n + 1) * weights)[n + 1 < box]))      # + <a a^dag>
    scale_q = params.hbar / (2.0 * params.mass * params.frequency)
    scale_p = params.hbar * params.mass * params.frequency / 2.0
    return ModeMoments(float(np.sum(weights)), 2.0 * math.sqrt(scale_q) * a.real,
                       2.0 * math.sqrt(scale_p) * a.imag,
                       scale_q * (number + 2.0 * a2.real), scale_p * (number - 2.0 * a2.real))


def _amplitude_moments(params: OscParams, f: np.ndarray) -> ModeMoments:
    """mode_moments of the pure state with Fock amplitudes f."""
    root = np.sqrt(np.arange(1, len(f)))                           # <n-1|a|n>
    a = complex(np.vdot(f[:-1], root * f[1:]))
    a2 = complex(np.vdot(f[:-2], root[:-1] * root[1:] * f[2:]))
    return mode_moments(params, np.abs(f) ** 2, a, a2)


def product_moments(plus: ModeMoments, minus: ModeMoments, params: OscParams,
                    error_bound: float) -> LocalMoments:
    """B moments on rho_+ (x) rho_-, from Q_B = (Q_+ - Q_-)/sqrt(2) and
    P_B = (P_+ - P_-)/sqrt(2); also exact for a mixture of outcomes
    |n>_+ (x) chi_- given the + number weights and the - factor averaged over
    outcomes, since <n|Q_+|n> = 0 removes the cross term either way."""
    root2 = math.sqrt(2.0)
    q = (plus.q * minus.norm - plus.norm * minus.q) / root2
    p = (plus.p * minus.norm - plus.norm * minus.p) / root2
    q2 = 0.5 * (plus.q2 * minus.norm - 2.0 * plus.q * minus.q + plus.norm * minus.q2)
    p2 = 0.5 * (plus.p2 * minus.norm - 2.0 * plus.p * minus.p + plus.norm * minus.p2)
    energy = p2 / (2.0 * params.mass) + 0.5 * params.mass * params.frequency**2 * q2
    return LocalMoments(q, p, q2, p2, energy, error_bound=error_bound)


def phase_ensemble_moments(params: OscParams, kick: KickParams, s_cut: int,
                           n_max: int) -> LocalMoments:
    """B moments right after the number-times-phase-state measurement,
    via the closed-form coefficients and per-outcome product moments.

    Every outcome is a product of a + number state and a - phase state, so
    <Q_B> and <P_B> vanish outcome by outcome (parity), and the second
    moments split as (<.2>_+ + <.2>_-)/2 with no cross term.
    """
    c = phase_coefficients(params, kick, s_cut, n_max)
    w = np.abs(c) ** 2
    total = float(np.sum(w))
    # the - factor averaged over outcomes: phase state |b, theta_s> puts
    # 1/(s_cut+1) on each level 2j+b, has <a> = 0 and <a^2> = e^{2i theta_s}
    # A_b with A_b = sum_j sqrt((2j+b)(2j+b-1))/(s_cut+1)
    w_bs = np.sum(w, axis=0) / total
    j = np.arange(1, s_cut + 1)
    a_b = np.array([np.sum(np.sqrt((2 * j + b) * (2 * j + b - 1.0))) for b in (0, 1)]) \
        / (s_cut + 1)
    thetas = 2.0 * math.pi * np.arange(s_cut + 1) / (s_cut + 1)
    a2 = complex(np.sum(a_b[:, None] * w_bs * np.exp(2j * thetas)))
    levels = np.tile(np.sum(w_bs, axis=1) / (s_cut + 1), s_cut + 1)
    # closed forms, exact on every populated level: no truncated top
    plus = mode_moments(params, np.sum(w, axis=(1, 2)), box=n_max + 1)
    minus = mode_moments(params, levels, a2=a2, box=len(levels) + 1)
    tail = max(0.0, 1.0 - total)
    return product_moments(plus, minus, params,
                           tail * _bound_scale(n_max, len(levels), params, BASIS_PM))


def kicked_moments(params: OscParams, kick: KickParams, trunc,
                   collapse: bool = False) -> LocalMoments:
    """local_moments_b(coherent_prestate(...)) or, with collapse,
    local_moments_b(naive_nplus_ensemble(coherent_prestate(...)), params),
    from the two coherent factors: the naive collapse keeps the + number
    weights, drops the + coherences and the branches below
    DEFAULT_POLICY.zero_probability, and leaves the - factor alone."""
    f_plus, f_minus, tail = _kicked_factors(params, kick, trunc)
    if collapse:
        w_plus = np.abs(f_plus) ** 2
        prob = w_plus * float(np.sum(np.abs(f_minus) ** 2))
        plus = mode_moments(params,
                            np.where(prob < DEFAULT_POLICY.zero_probability, 0.0, w_plus))
    else:
        plus = _amplitude_moments(params, f_plus)
    return product_moments(plus, _amplitude_moments(params, f_minus), params,
                           tail * _bound_scale(len(f_plus), len(f_minus), params, BASIS_PM))
