"""Two identical harmonic oscillators in truncated Fock space.

The center-of-mass / relative coordinates Q_pm = (Q_A +- Q_B)/sqrt(2) carry
their own ladder operators a_pm = (a_A +- a_B)/sqrt(2), and every state here
is held as Fock amplitudes of those two modes; oscillator B is read through
Q_B = (Q_+ - Q_-)/sqrt(2).  Coherent amplitudes follow the ladder recurrence.

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
states <n|Q_+|n> = 0 kills the cross term.  A mode's moments are O(levels)
sums of its number weights and coherences <a>, <a^2> (``mode_moments``), and
a 1-d array of kicks lam is one batch: a row per kick, all in one call.
The reference route works on the joint amplitude matrix A[n_+, n_-] of
any +- prestate, entangled or not: the naive collapse keeps row n of A for
outcome n (the Lueders rule of a number measurement of the + mode), and
``local_moments_b`` applies X_B A = (X_+ A - A X_-^T)/sqrt(2), X = Q or P.
Every scheme takes f_+, f_- and the tail check from ``_kicked_factors``.
Level m of the phase state |b, theta_s> (Pegg & Barnett 1989) carries
e^{i m theta_s}, theta_s = 2 pi s/(s_cut+1): the length-(2 s_cut+2) DFT
kernel at index 2s, so one FFT per parity gives every <b, theta_s|f_->.
The dense phase states and their scheme, which check these overlaps, live
in the tests (``tests/phase_reference.py``).  A trunc, or 2 s_cut + 2
levels, past the float64 values one numpy array can address is refused
(``policy.addressable``).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import OutcomeEnsemble, StateVector, branch_ensemble
from .policy import DEFAULT_POLICY, TruncationError, addressable, checked_tail, integer


@dataclass(frozen=True)
class OscParams:
    """Oscillator mass, frequency and hbar; kappa = sqrt(m Omega / hbar)."""

    mass: float = 1.0
    frequency: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name, value in (("mass", self.mass), ("frequency", self.frequency),
                            ("hbar", self.hbar)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @property
    def kappa(self) -> float:
        return math.sqrt(self.mass * self.frequency / self.hbar)


@dataclass(frozen=True)
class KickParams:
    """Initial momenta p_a, p_b plus the freely chosen kick lam on A; lam
    may be a 1-d array, one kick per element."""

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
    """Truncated Fock amplitudes amps[n_plus, n_minus] of the +- modes."""

    params: OscParams
    amps: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.ndim != 2:
            raise ValueError("amplitudes must be a 2-d array (n_plus, n_minus)")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        total = float(np.sum(np.abs(amps) ** 2)) + self.tail_bound
        if not abs(total - 1.0) <= DEFAULT_POLICY.structural_tol:
            raise ValueError(
                f"|amps|^2 + tail_bound = {total!r}, must be 1 within structural tolerance")

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


def coherent_amplitudes(alpha, dim: int) -> np.ndarray:
    """Truncated coherent states, one row of physical (unrenormalized)
    amplitudes per alpha, by the ladder recurrence <n|alpha> = (alpha/sqrt(n))
    <n-1|alpha> from <0|alpha> = exp(-|alpha|^2/2); never overflows."""
    alpha = np.asarray(alpha, dtype=complex)
    steps = np.repeat(alpha[..., None], dim, axis=-1)
    ground = [math.exp(-0.5 * abs(a) * abs(a)) for a in alpha.ravel().tolist()]  # libm's exp
    steps[..., :1] = np.reshape(ground, alpha.shape + (1,))
    steps[..., 1:] /= np.sqrt(np.arange(1, dim))
    return np.cumprod(steps, axis=-1)


def _normalize_trunc(trunc) -> tuple[int, int]:
    a, b = (integer(t, "trunc") for t in ((trunc, trunc) if np.isscalar(trunc) else trunc))
    if min(a, b) < 1:
        raise ValueError(f"trunc must be at least 1 level per mode, got {a}x{b}")
    addressable(max(a, b), "trunc")
    return a, b


def _kicked_factors(params: OscParams, kick: KickParams,
                    trunc) -> tuple[np.ndarray, np.ndarray, float]:
    """The + and - coherent factors of the kicked prestate and its tail, one
    row and tail per kick; the tails are checked in the order of the kicks."""
    d_plus, d_minus = _normalize_trunc(trunc)
    f_plus = coherent_amplitudes(1j * kick.big_lambda_plus(params), d_plus)
    f_minus = coherent_amplitudes(1j * kick.big_lambda_minus(params), d_minus)
    norm = np.sum(np.abs(f_plus) ** 2, axis=-1) * np.sum(np.abs(f_minus) ** 2, axis=-1)
    tails = [checked_tail(n, f"truncation {d_plus}x{d_minus}") for n in np.ravel(norm).tolist()]
    return f_plus, f_minus, np.reshape(tails, np.shape(norm))[()]


def coherent_prestate(params: OscParams, kick: KickParams, trunc) -> TwoModeFock:
    """Kicked coherent product state of the +- modes.

    The +- modes are coherent with amplitudes i*Lambda_pm.  Fails rather
    than silently truncating when the norm outside the box exceeds the
    policy tail tolerance.
    """
    if np.ndim(kick.lam):
        raise ValueError(f"coherent_prestate takes one kick, got lam={kick.lam!r}")
    f_plus, f_minus, tail = _kicked_factors(params, kick, trunc)
    return TwoModeFock(params=params, amps=np.outer(f_plus, f_minus), tail_bound=tail)


def naive_nplus_ensemble(prestate: TwoModeFock) -> OutcomeEnsemble:
    """Collapse only the center-of-mass mode onto its number states.

    The Lueders rule for any prestate: outcome "n=<n>" keeps row n of the
    amplitudes, and ``core.branch_ensemble`` takes its squared norm as Born
    weight.  On a product f_+ (x) f_- that weight is |<n|f_+>|^2 and the
    relative-mode factor is left untouched.
    """
    amps = prestate.amps
    rows = ((f"n={n}", np.where(np.arange(len(amps))[:, None] == n, amps, 0).reshape(-1))
            for n in range(len(amps)))
    return branch_ensemble(prestate.as_state(), rows, tail_bound=prestate.tail_bound)


def _check_s_cut(s_cut: int) -> None:
    if integer(s_cut, "s_cut") < 0 or s_cut % 2 != 0:
        raise ValueError(f"s_cut must be even and nonnegative, got {s_cut}")
    addressable(2 * s_cut + 2, "the 2*s_cut+2 relative-mode levels")


def _phase_overlaps(params: OscParams, kick: KickParams, s_cut: int,
                    n_max: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The + factor of the kicked prestate on n_max levels, the overlaps
    o[..., b, s] = <b, theta_s|f_-> of its - factor on 2*s_cut+2 levels with
    the phase states, and the tail, per kick; see the module docstring."""
    _check_s_cut(s_cut)
    f_plus, f_minus, tail = _kicked_factors(params, kick,
                                            (integer(n_max, "n_max"), 2 * s_cut + 2))
    by_parity = np.where(np.arange(2 * s_cut + 2) % 2 == [[0], [1]], f_minus[..., None, :], 0)
    return f_plus, np.fft.fft(by_parity, axis=-1)[..., ::2] / math.sqrt(s_cut + 1), tail


def phase_coefficients(params: OscParams, kick: KickParams, s_cut: int,
                       n_max: int) -> np.ndarray:
    """Expansion coefficients c[n, parity, s] = <n|f_+> <parity, theta_s|f_->
    of the kicked prestate over the number-times-phase-state basis."""
    if np.ndim(kick.lam):
        raise ValueError(f"phase_coefficients takes one kick, got lam={kick.lam!r}")
    f_plus, overlaps, _ = _phase_overlaps(params, kick, s_cut, n_max)
    return f_plus[:, None, None] * overlaps


@dataclass(frozen=True)
class LocalMoments:
    """First and second moments of oscillator B, plus its energy."""

    q: float
    p: float
    q2: float
    p2: float
    energy: float
    error_bound: float


@functools.cache     # two floats per box size
def _ladder_norms(dim: int) -> tuple[float, float]:
    """Infinity norms of a + a^dag and of its square on a dim-level ladder,
    from the closed-form row sums of the banded matrices; +-i phases and
    signs do not change them, so they serve P and P^2 as well."""
    n = np.arange(dim, dtype=float)
    first = np.sqrt(n) + np.sqrt(n + 1) * (n < dim - 1)
    second = np.sqrt(n * (n - 1)) + n + (n + 1) * (n < dim - 1) \
        + np.sqrt((n + 1) * (n + 2)) * (n < dim - 2)
    return float(np.max(first)), float(np.max(second))


def _bound_scale(d1: int, d2: int, params: OscParams) -> float:
    """Infinity-norm bound on the quadratic B observables over the box."""
    scale = params.hbar / (2.0 * params.mass * params.frequency) \
        + params.hbar * params.mass * params.frequency / 2.0    # Q and P scales squared
    (first1, second1), (first2, second2) = _ladder_norms(d1), _ladder_norms(d2)
    return 0.5 * scale * (second1 + 2 * first1 * first2 + second2)


def local_moments_b(obj, params: OscParams | None = None) -> LocalMoments:
    """Moments of oscillator B for a TwoModeFock state or an OutcomeEnsemble.

    Ensembles (whose entries are joint StateVectors of the +- modes) need
    explicit params.  Each state is read as its amplitude matrix A, on which
    X_B A = (X_+ A - A X_-^T)/sqrt(2) for X = Q, P; then <X_B> = <A, X_B A>
    and <X_B^2> = |X_B A|^2.  The reported error_bound is tail * (an
    infinity-norm bound on the quadratic observables over the truncated box).
    """
    if isinstance(obj, TwoModeFock):
        params, weighted = obj.params, [(1.0, obj.amps)]
    elif isinstance(obj, OutcomeEnsemble):
        if params is None:
            raise ValueError("params are required for ensemble moments")
        weighted = [(e.probability, e.post_state.amplitudes.reshape(e.post_state.dims))
                    for e in obj.entries if not e.zero_branch]
    else:
        raise TypeError(f"unsupported input {type(obj).__name__}")
    if not obj.tail_bound <= DEFAULT_POLICY.tail_tol:
        raise TruncationError(f"tail {obj.tail_bound:.3e} above policy tolerance")
    if not weighted:
        raise ValueError("ensemble has no nonzero branches")
    d_plus, d_minus = weighted[0][1].shape
    half, moments = 1 / math.sqrt(2), []
    for matrix in (position_matrix, momentum_matrix):
        plus, minus = half * matrix(d_plus, params), -half * matrix(d_minus, params)
        moved = [(w, a, plus @ a + a @ minus.T) for w, a in weighted]      # X_B A
        moments += [sum(w * float(np.real(np.vdot(a, xa))) for w, a, xa in moved),
                    sum(w * float(np.real(np.vdot(xa, xa))) for w, a, xa in moved)]
    q, q2, p, p2 = moments
    energy = p2 / (2.0 * params.mass) + 0.5 * params.mass * params.frequency**2 * q2
    return LocalMoments(q, p, q2, p2, energy,
                        error_bound=obj.tail_bound * _bound_scale(d_plus, d_minus, params))


# one mode's sums tr(rho X) for X = 1, Q, P, Q^2, P^2; rho need not be normalized
ModeMoments = namedtuple("ModeMoments", "norm q p q2 p2")


def mode_moments(params: OscParams, weights: np.ndarray, a: complex = 0j,
                 a2: complex = 0j, box: int | None = None) -> ModeMoments:
    """One mode's moments from its number weights rho_nn and the ladder
    coherences <a>, <a^2> (zero for a mixture of number states), with Q and P
    as in position_matrix and momentum_matrix.  <a a^dag> counts level n only
    when n + 1 < box, as the dense matrices on box levels do (default: as
    many levels as weights).  Rows of weights, a and a2 are mode states."""
    weights = np.asarray(weights, dtype=float)
    n = np.arange(weights.shape[-1])
    box = len(n) if box is None else box
    # slices, not masks: a masked copy of 2-d rows sums in another order
    number = np.sum(n * weights, axis=-1)                                  # <a^dag a>
    number += np.sum(((n + 1) * weights)[..., :max(box - 1, 0)], axis=-1)  # + <a a^dag>
    scale_q = params.hbar / (2.0 * params.mass * params.frequency)
    scale_p = params.hbar * params.mass * params.frequency / 2.0
    return ModeMoments(np.sum(weights, axis=-1), 2.0 * math.sqrt(scale_q) * a.real,
                       2.0 * math.sqrt(scale_p) * a.imag,
                       scale_q * (number + 2.0 * a2.real), scale_p * (number - 2.0 * a2.real))


def _amplitude_moments(params: OscParams, f: np.ndarray) -> ModeMoments:
    """mode_moments of the pure states with Fock amplitudes f, one per row."""
    root = np.sqrt(np.arange(1, f.shape[-1]))                      # <n-1|a|n>
    rows = f.reshape(-1, f.shape[-1])
    a, a2 = (np.reshape([np.vdot(g[:-k], weight * g[k:]) for g in rows], f.shape[:-1])
             for k, weight in ((1, root), (2, root[:-1] * root[1:])))
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
    from the + factor's number weights and the DFT overlaps of the - factor
    with the phase states (``_phase_overlaps``).

    Every outcome is a product of a + number state and a - phase state, so
    <Q_B> and <P_B> vanish outcome by outcome (parity), and the second
    moments split as (<.2>_+ + <.2>_-)/2 with no cross term.
    """
    f_plus, overlaps, tail = _phase_overlaps(params, kick, s_cut, n_max)
    # the - factor summed over outcomes: phase state |b, theta_s> puts
    # 1/(s_cut+1) on each level 2j+b, has <a> = 0 and <a^2> = e^{2i theta_s}
    # A_b with A_b = sum_j sqrt((2j+b)(2j+b-1))/(s_cut+1)
    w_bs = np.abs(overlaps) ** 2
    j = np.arange(1, s_cut + 1)
    a_b = np.array([np.sum(np.sqrt((2 * j + b) * (2 * j + b - 1.0))) for b in (0, 1)]) \
        / (s_cut + 1)
    thetas = 2.0 * math.pi * np.arange(s_cut + 1) / (s_cut + 1)
    terms = a_b[:, None] * w_bs * np.exp(2j * thetas)      # [..., b, s], summed per kick
    a2 = np.sum(terms.reshape(*terms.shape[:-2], -1), axis=-1)
    levels = np.tile(np.sum(w_bs, axis=-1) / (s_cut + 1), s_cut + 1)
    # closed forms, exact on every populated level: no truncated top
    plus = mode_moments(params, np.abs(f_plus) ** 2, box=n_max + 1)
    minus = mode_moments(params, levels, a2=a2, box=levels.shape[-1] + 1)
    return product_moments(plus, minus, params,
                           tail * _bound_scale(n_max, levels.shape[-1], params))


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
        prob = w_plus * np.sum(np.abs(f_minus) ** 2, axis=-1)[..., None]
        plus = mode_moments(params,
                            np.where(prob < DEFAULT_POLICY.zero_probability, 0.0, w_plus))
    else:
        plus = _amplitude_moments(params, f_plus)
    return product_moments(plus, _amplitude_moments(params, f_minus), params,
                           tail * _bound_scale(f_plus.shape[-1], f_minus.shape[-1], params))
