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
"""

from __future__ import annotations

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
        if abs(total - 1.0) > DEFAULT_POLICY.structural_tol:
            raise ValueError(f"wave packet norm {total!r} != 1")


def single_mode_packet(modes: ModeSet, p_index: int) -> WavePacket:
    """Spectral delta on one mode: amplitude sqrt(V) there, zero elsewhere."""
    spec = np.zeros(modes.n_modes, dtype=complex)
    spec[p_index] = math.sqrt(modes.lattice.volume)
    return WavePacket(spec)


def kick_displacements(modes: ModeSet, kick: KickSpec) -> np.ndarray:
    """Per-mode coherent amplitudes of the kicked vacuum."""
    lat = modes.lattice
    return (1j * kick.strength * np.exp(-1j * modes.phases(kick.site))
            / np.sqrt(2.0 * lat.hbar * modes.omega * lat.volume))


def suppression_factor(modes: ModeSet, kick: KickSpec) -> float:
    """exp(-lam^2 ginv(x,x) / 2 hbar), the UV-controlled damping of every
    verification signal."""
    gxx = kernel_ginv(modes, kick.site, kick.site)
    return math.exp(-kick.strength**2 * gxx / (2.0 * modes.lattice.hbar))


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
    return (kick.strength * suppression_factor(modes, kick)
            * (modes.eps / modes.omega[p_index]) * math.sin(phase))


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
    lam, hbar = kick.strength, modes.lattice.hbar
    wp = modes.omega[p_index]
    gyy = kernel_ginv(modes, y, y)
    gxy = kernel_ginv(modes, kick.site, y)
    phase = modes.phase_at(p_index, kick.site) - modes.phase_at(p_index, y)
    bracket = (0.25 * lam**2 * gxy**2 - hbar * gxy * math.cos(phase)
               + hbar * modes.eps / wp)
    return (0.5 * hbar * gyy + suppression_factor(modes, kick)
            * (lam**2 * modes.eps / (hbar * wp)) * bracket)


def qndsv_phi2_y_candidate(modes: ModeSet, kick: KickSpec, y, p_index: int) -> float:
    """The paper's closed-form candidate for <phi_y^2> after the single-mode
    verification:

        (3hbar/2) ginv_yy + 2 hbar eps/omega_p
        - (lam^2 eps / hbar omega_p) e^{-lam^2 ginv_xx/2hbar}
          [ 2 hbar ginv_xy cos p.(x-y) + (hbar/2) ginv_yy
            - (lam^2/4) ginv_xy^2 ]

    The independent oracle disagrees with this expression even at lam = 0;
    ``qndsv_phi2_y`` is the value reports use, and this one is kept only
    for ``field_oracle.phi2_comparison``.
    """
    _require_paired(modes, p_index)
    lat = modes.lattice
    lam, hbar = kick.strength, lat.hbar
    wp = modes.omega[p_index]
    gyy = kernel_ginv(modes, y, y)
    gxy = kernel_ginv(modes, kick.site, y)
    phase = modes.phase_at(p_index, kick.site) - modes.phase_at(p_index, y)
    damp = suppression_factor(modes, kick)
    bracket = (2.0 * hbar * gxy * math.cos(phase) + 0.5 * hbar * gyy
               - (lam**2 / 4.0) * gxy**2)
    return (1.5 * hbar * gyy + 2.0 * hbar * modes.eps / wp
            - (lam**2 * modes.eps / (hbar * wp)) * damp * bracket)


@dataclass(frozen=True)
class FieldExpectations:
    """Bob's local expectation values {phi, pi, phi^2, pi^2} at one site."""

    phi: float
    pi: float
    phi2: float
    pi2: float

    def as_dict(self) -> dict:
        return {"phi_y": self.phi, "pi_y": self.pi,
                "phi2_y": self.phi2, "pi2_y": self.pi2}


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
    _require_paired(modes, p_index)
    lat = modes.lattice
    lam, hbar = kick.strength, lat.hbar
    eps = modes.eps
    wp = modes.omega[p_index]
    xs, ys = lat.site(kick.site), lat.site(y)
    onsite = (1.0 / lat.spacing**lat.dim) if xs == ys else 0.0
    phase = modes.phase_at(p_index, xs) - modes.phase_at(p_index, ys)
    pi = lam * (onsite - 2.0 * eps * math.cos(phase))
    gyy_inv = kernel_ginv(modes, y, y)
    gyy = kernel_g(modes, y, y)
    phi2 = 0.5 * hbar * gyy_inv + lam**2 * eps**2 / wp**2
    pi2 = pi**2 + 0.5 * hbar * gyy + lam**2 * eps**2
    return FieldExpectations(phi=0.0, pi=pi, phi2=phi2, pi2=pi2)


def prestate_expectations(modes: ModeSet, kick: KickSpec, y) -> FieldExpectations:
    """Same local moments on the kicked vacuum, before any measurement."""
    lat = modes.lattice
    xs, ys = lat.site(kick.site), lat.site(y)
    onsite = (1.0 / lat.spacing**lat.dim) if xs == ys else 0.0
    pi = kick.strength * onsite
    phi2 = 0.5 * lat.hbar * kernel_ginv(modes, y, y)
    pi2 = pi**2 + 0.5 * lat.hbar * kernel_g(modes, y, y)
    return FieldExpectations(phi=0.0, pi=pi, phi2=phi2, pi2=pi2)


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
