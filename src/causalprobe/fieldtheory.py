"""Closed-form expectation values for measurements on the lattice scalar field.

A local kick U_x = exp(i lam phi_x / hbar) on the vacuum displaces every
mode coherently by alpha_k = i lam e^{-i k.x} / sqrt(2 hbar omega_k V);
the total displaced weight sum_k |alpha_k|^2 = lam^2 ginv(x,x) / (2 hbar)
is what produces the Gaussian suppression factor exp(-lam^2 ginv_xx/2hbar)
in every verification-type result below.

Two measurement prescriptions are covered:

* verification ("yes/no") of the one-particle state of a single paired
  mode, or of a wave packet, after the kick — Bob's <phi_y> response;
* the naive ideal measurement that collapses only the +-p mode pair onto
  its number states — Bob's <phi_y>, <pi_y> and second moments.

The second moments of the naive measurement carry the coefficients
lam^2 eps^2 / omega_p^2 (for phi) and lam^2 eps^2 (for pi); both are fixed
by the independent truncated-Fock oracle in ``field_oracle``.

Each (scheme, observable) pair has one closed form of its own, named
``<scheme>_<observable>`` (schemes ``naive_np``, ``prestate``, ``qndsv``)
and read by name through ``closed_forms``, so a report sums only the
kernels that its observables read.  Before a measurement and after the
naive one, <phi_y> and <pi_y> read none, <phi_y^2> reads ginv_yy and
<pi_y^2> g_yy; after the verification, <phi_y> reads ginv_xx and <phi_y^2>
ginv_xx, ginv_xy and ginv_yy.  Given an array of kick strengths, a form reads
its phases and kernels once: one value per kick, or one for all if no lam.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import ModeSet, kernel_g, kernel_ginv
from .policy import DEFAULT_POLICY


@dataclass(frozen=True)
class KickSpec:
    """Localized field kick: site x and strength lam."""

    site: tuple[int, ...] | int
    strength: float


@dataclass(frozen=True)
class WavePacket:
    """Spectral amplitudes over the mode set, (1/V) sum_k |amp_k|^2 = 1."""

    spectral: np.ndarray

    def __post_init__(self):
        arr = np.array(self.spectral, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "spectral", arr)

    def validate(self, modes: ModeSet) -> None:
        if self.spectral.shape != (modes.n_modes,):
            raise ValueError("spectral amplitudes do not match the mode set")
        total = float(np.sum(np.abs(self.spectral) ** 2)) / modes.lattice.volume
        if not abs(total - 1.0) <= DEFAULT_POLICY.structural_tol:
            raise ValueError(f"wave packet norm {total!r} != 1")


def _each(fn, values):
    """fn of each element of values as a Python float, shaped like values:
    libm's exp and pow, which numpy's vector loops do not always match."""
    return np.reshape([fn(v) for v in np.ravel(values).tolist()], np.shape(values))[()]


_square = functools.partial(_each, lambda v: v**2)


def kick_displacements(modes: ModeSet, kick: KickSpec) -> np.ndarray:
    """Per-mode coherent amplitudes of the kicked vacuum."""
    lat = modes.lattice
    return (1j * kick.strength * np.exp(-1j * modes.phases(kick.site))
            / np.sqrt(2.0 * lat.hbar * modes.omega * lat.volume))


def suppression_factor(modes: ModeSet, kick: KickSpec) -> float:
    """exp(-lam^2 ginv(x,x) / 2 hbar), the UV-controlled damping of every
    verification signal."""
    gxx, hbar = kernel_ginv(modes, kick.site, kick.site), modes.lattice.hbar
    return _each(lambda lam: math.exp(-lam**2 * gxx / (2.0 * hbar)), kick.strength)


def _require_paired(modes: ModeSet, p_index: int) -> None:
    if not modes.is_paired(p_index):
        raise ValueError(
            f"mode {p_index} is self-conjugate; a one-particle pair state needs a +-k pair")


def qndsv_phi_y(modes: ModeSet, kick: KickSpec, y, p_index: int) -> float:
    """<phi_y> right after verifying the one-particle state of mode p:

        lam e^{-lam^2 ginv_xx/2hbar} (eps/omega_p) sin p.(y-x)

    Odd in lam, vanishes at y = x, and suppressed both by the mode-volume
    factor eps = 1/V and by the Gaussian UV factor.
    """
    _require_paired(modes, p_index)
    phase = modes.phase_at(p_index, y) - modes.phase_at(p_index, kick.site)
    # a zero of lam's sign turns -0.0 at lam = 0.0 into 0.0 and changes no other value
    return (kick.strength * suppression_factor(modes, kick) * (modes.eps / modes.frequency(p_index))
            * math.sin(phase) + np.copysign(0.0, kick.strength))


def packet_kernel(modes: ModeSet, packet: WavePacket, t: float, z) -> complex:
    """F(t,z) = (1/V) sum_k (amp_k/sqrt(omega_k)) e^{-i(omega_k t - k.z)}."""
    packet.validate(modes)
    terms = packet.spectral / np.sqrt(modes.omega) * np.exp(
        -1j * (modes.omega * t - modes.phases(z)))
    return complex(np.sum(terms) / modes.lattice.volume)


def signal_kernel(modes: ModeSet, packet: WavePacket, t1: float, x, y) -> float:
    """S(x,y) = Im F*(t1,x) F(t1,y); antisymmetric under x <-> y."""
    fx = packet_kernel(modes, packet, t1, x)
    fy = packet_kernel(modes, packet, t1, y)
    return float(np.imag(np.conj(fx) * fy))


def qndsv_wavepacket_phi_y(modes: ModeSet, kick: KickSpec, y,
                           packet: WavePacket, t1: float = 0.0) -> float:
    """<phi_y> after verifying the one-particle state of a wave packet:
    lam e^{-lam^2 ginv_xx/2hbar} S(x,y)."""
    return (kick.strength * suppression_factor(modes, kick)
            * signal_kernel(modes, packet, t1, kick.site, y))


def sorkin_derivative(modes: ModeSet, x, y, packet: WavePacket,
                      t1: float = 0.0) -> float:
    """d<phi_y>/dlam at lam -> 0 for the wave-packet verification: S(x,y)
    (the Gaussian factor is 1 at lam = 0)."""
    return signal_kernel(modes, packet, t1, x, y)


def qndsv_phi2_y(modes: ModeSet, kick: KickSpec, y, p_index: int) -> float:
    """<phi_y^2> right after verifying the one-particle state of mode p:

        (hbar/2) ginv_yy + e^{-lam^2 ginv_xx/2hbar} (lam^2 eps / hbar omega_p)
          [ lam^2 ginv_xy^2 / 4 - hbar ginv_xy cos p.(x-y) + hbar eps/omega_p ]

    Equals the vacuum value at lam = 0, where the kicked state is the vacuum
    and the verification leaves it alone, and is even in lam.  Agrees with the
    truncated-Fock oracle in ``field_oracle`` to rounding.
    """
    _require_paired(modes, p_index)
    lam2, hbar = _square(kick.strength), modes.lattice.hbar
    wp = modes.frequency(p_index)
    gxy = kernel_ginv(modes, kick.site, y)
    phase = modes.phase_at(p_index, kick.site) - modes.phase_at(p_index, y)
    bracket = (0.25 * lam2 * gxy**2 - hbar * gxy * math.cos(phase)
               + hbar * modes.eps / wp)
    return (_vacuum_phi2(modes, y) + suppression_factor(modes, kick)
            * (lam2 * modes.eps / (hbar * wp)) * bracket)


OBSERVABLES = ("phi_y", "pi_y", "phi2_y", "pi2_y")


@dataclass(frozen=True)
class FieldExpectations:
    """Bob's local expectation values {phi, pi, phi^2, pi^2} at one site."""

    phi: float
    pi: float
    phi2: float
    pi2: float

    def as_dict(self) -> dict:
        return dict(zip(OBSERVABLES, (self.phi, self.pi, self.phi2, self.pi2)))


def closed_forms(scheme: str, modes: ModeSet, kick: KickSpec, y, p_index: int,
                 observables=OBSERVABLES) -> dict:
    """{observable: value} from the forms ``<scheme>_<observable>`` alone,
    so only the kernels those observables read are summed."""
    forms = globals()
    return {obs: forms[f"{scheme}_{obs}"](modes, kick, y, p_index) for obs in observables}


def _sites(modes: ModeSet, kick: KickSpec, y) -> tuple:
    """The kick site and y, each refused unless it is a lattice site."""
    lat = modes.lattice
    return lat.site(kick.site), lat.site(y)


def _contact(modes: ModeSet, kick: KickSpec, y) -> float:
    """delta_xy / a^d, the momentum density the kick itself leaves at y."""
    xs, ys = _sites(modes, kick, y)
    return (1.0 / modes.lattice.spacing**modes.lattice.dim) if xs == ys else 0.0


def _vacuum_phi2(modes: ModeSet, y) -> float:
    """(hbar/2) ginv_yy, the vacuum's <phi_y^2>."""
    return 0.5 * modes.lattice.hbar * kernel_ginv(modes, y, y)


def _vacuum_pi2(modes: ModeSet, y) -> float:
    """(hbar/2) g_yy, the vacuum's <pi_y^2>."""
    return 0.5 * modes.lattice.hbar * kernel_g(modes, y, y)


# the kicked vacuum, before any measurement; p_index is not read

def prestate_phi_y(modes: ModeSet, kick: KickSpec, y, p_index=None) -> float:
    """<phi_y> = 0: the kick displaces only the momenta."""
    _sites(modes, kick, y)
    return 0.0


def prestate_pi_y(modes: ModeSet, kick: KickSpec, y, p_index=None) -> float:
    """<pi_y> = lam delta_xy / a^d."""
    return kick.strength * _contact(modes, kick, y)


def prestate_phi2_y(modes: ModeSet, kick: KickSpec, y, p_index=None) -> float:
    """<phi_y^2> = (hbar/2) ginv_yy."""
    _sites(modes, kick, y)
    return _vacuum_phi2(modes, y)


def prestate_pi2_y(modes: ModeSet, kick: KickSpec, y, p_index=None) -> float:
    """<pi_y^2> = <pi_y>^2 + (hbar/2) g_yy."""
    return _square(prestate_pi_y(modes, kick, y)) + _vacuum_pi2(modes, y)


def prestate_expectations(modes: ModeSet, kick: KickSpec, y) -> FieldExpectations:
    """Same local moments on the kicked vacuum, before any measurement."""
    return FieldExpectations(*closed_forms("prestate", modes, kick, y, None).values())


# the naive collapse of the +-p pair onto its number states

def naive_np_phi_y(modes: ModeSet, kick: KickSpec, y, p_index: int) -> float:
    """<phi_y> = 0, as before the collapse."""
    _require_paired(modes, p_index)
    return prestate_phi_y(modes, kick, y)


def naive_np_pi_y(modes: ModeSet, kick: KickSpec, y, p_index: int) -> float:
    """<pi_y> = lam [ delta_xy/a^d - 2 eps cos p.(x-y) ]."""
    _require_paired(modes, p_index)
    lam = kick.strength
    phase = modes.phase_at(p_index, kick.site) - modes.phase_at(p_index, y)
    return (lam * (_contact(modes, kick, y) - 2.0 * modes.eps * math.cos(phase))
            + np.copysign(0.0, lam))  # see qndsv_phi_y


def naive_np_phi2_y(modes: ModeSet, kick: KickSpec, y, p_index: int) -> float:
    """<phi_y^2> = (hbar/2) ginv_yy + lam^2 eps^2 / omega_p^2."""
    _require_paired(modes, p_index)
    _sites(modes, kick, y)
    return (_vacuum_phi2(modes, y)
            + _square(kick.strength) * modes.eps**2 / modes.frequency(p_index)**2)


def naive_np_pi2_y(modes: ModeSet, kick: KickSpec, y, p_index: int) -> float:
    """<pi_y^2> = <pi_y>^2 + (hbar/2) g_yy + lam^2 eps^2."""
    return (_square(naive_np_pi_y(modes, kick, y, p_index)) + _vacuum_pi2(modes, y)
            + _square(kick.strength) * modes.eps**2)


def naive_np_expectations(modes: ModeSet, kick: KickSpec, y,
                          p_index: int) -> FieldExpectations:
    """Local moments at y after the naive collapse of the +-p pair onto its
    number states (all other modes keep their kicked coherent factors):

        <phi_y>  = 0
        <pi_y>   = lam [ delta_xy/a^d - 2 eps cos p.(x-y) ]
        <phi_y^2> = (hbar/2) ginv_yy + lam^2 eps^2 / omega_p^2
        <pi_y^2>  = <pi_y>^2 + (hbar/2) g_yy + lam^2 eps^2

    The lam-dependent pieces for y != x all carry the mode-volume factor
    eps = 1/V.
    """
    return FieldExpectations(*closed_forms("naive_np", modes, kick, y, p_index).values())


@dataclass(frozen=True)
class MaxSignal:
    """Strongest verification response over lam and where it occurs."""

    lambda_star: float
    amplitude: float


def max_signaling(modes: ModeSet, x) -> MaxSignal:
    """Maximum of lam e^{-lam^2 ginv_xx / 2 hbar} over lam.

    Attained at lam* = sqrt(hbar/ginv_xx) with value sqrt(hbar/(e ginv_xx));
    shrinks as the spacing decreases because ginv_xx grows with the UV
    cutoff.
    """
    hbar = modes.lattice.hbar
    gxx = kernel_ginv(modes, x, x)
    lam_star = math.sqrt(hbar / gxx)
    return MaxSignal(lambda_star=lam_star, amplitude=lam_star * math.exp(-0.5))
