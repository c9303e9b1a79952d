"""Finite periodic lattice for a real scalar field and its mode decomposition.

Transcription dictionary used throughout (d spatial dimensions, N sites per
axis, spacing a, volume V = (N a)^d):

    integral d^dk/(2pi)^d   ->  (1/V) sum_k
    delta^d(x - y)          ->  delta_xy / a^d
    mode-volume factor eps  ->  1/V
    ladder operators        ->  Kronecker-normalized, [b_k, b_p^dag] = delta_kp

Dual-lattice wave vectors are k = 2 pi n / (N a) with integer components in
(-N/2, N/2].  A mode is self-conjugate when k = -k modulo 2 pi/a (each
component 0 or the Nyquist value); the rest come in +-k pairs coupled by
the reality of the field.

The kernels g and g^-1 are sums over every mode; each is computed once per
mode set, weight and site displacement, and kept on the mode set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DISPERSIONS = ("lattice", "continuum")


@dataclass(frozen=True)
class LatticeSpec:
    dim: int
    n_sites: int
    spacing: float
    mass: float
    hbar: float = 1.0
    dispersion: str = "lattice"
    zero_mode_mass: float | None = None

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"spatial dimension must be 1, 2 or 3, got {self.dim}")
        if self.n_sites < 2 or self.n_sites % 2 != 0:
            raise ValueError(f"n_sites must be even and >= 2, got {self.n_sites}")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.dispersion not in DISPERSIONS:
            raise ValueError(f"dispersion must be one of {DISPERSIONS}")
        if self.mass == 0.0 and self.zero_mode_mass is None:
            # default regulator keeps the zero mode a finite oscillator
            object.__setattr__(self, "zero_mode_mass", 1e-3 / self.spacing)

    @property
    def volume(self) -> float:
        return float((self.n_sites * self.spacing) ** self.dim)

    def site(self, x) -> tuple[int, ...]:
        """Normalize a site given as int (d=1) or sequence of ints."""
        coords = (int(x),) if np.isscalar(x) else tuple(int(c) for c in x)
        if len(coords) != self.dim:
            raise ValueError(f"site {x!r} does not match dimension {self.dim}")
        return tuple(c % self.n_sites for c in coords)


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Dual-lattice modes: wave vectors, frequencies, and the +-k pairing in
    conjugate_index.  Compared and hashed by identity: each build owns its
    kernel memo."""

    lattice: LatticeSpec
    wavenumbers: np.ndarray      # integer components, shape (M, d)
    k: np.ndarray                # physical wave vectors, shape (M, d)
    omega: np.ndarray            # shape (M,)
    conjugate_index: np.ndarray  # index of -k for every mode; i itself if self-conjugate
    # _mode_sum's values by (weight, displacement): floats only, gone with the mode set
    _kernels: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for arr in (self.wavenumbers, self.k, self.omega, self.conjugate_index):
            arr.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.omega.size

    @property
    def eps(self) -> float:
        return 1.0 / self.lattice.volume

    def is_paired(self, index: int) -> bool:
        if not 0 <= index < self.n_modes:
            raise ValueError(f"mode index {index} out of range")
        return bool(self.conjugate_index[index] != index)

    def mode_index(self, wavenumber) -> int:
        """Index of the mode with the given integer wave-number vector."""
        want = np.atleast_1d(np.asarray(wavenumber, dtype=int))
        if want.shape != (self.lattice.dim,):
            raise ValueError(f"wavenumber {wavenumber!r} does not match dimension")
        return int(_flat_index(want, self.lattice.n_sites))

    def phase_at(self, index: int, site) -> float:
        """k . x in radians for a lattice site."""
        x = np.asarray(self.lattice.site(site), dtype=float) * self.lattice.spacing
        return float(np.dot(self.k[index], x))

    def phases(self, site) -> np.ndarray:
        """phase_at of every mode, to the bit: numpy forms (1, d) @ (d,) as np.dot."""
        x = np.asarray(self.lattice.site(site), dtype=float) * self.lattice.spacing
        return (self.k[:, None, :] @ x)[:, 0]


def _flat_index(wavenumbers: np.ndarray, n: int) -> np.ndarray:
    """Row-major ("ij") mode index of integer wavenumbers folded into (-n/2, n/2]."""
    digits = (wavenumbers + n // 2 - 1) % n
    return digits @ (n ** np.arange(wavenumbers.shape[-1] - 1, -1, -1))


def build_modes(lattice: LatticeSpec) -> ModeSet:
    """Enumerate dual-lattice modes with Kronecker normalization.

    Massless lattices get the configured regulator mass on the zero mode so
    every retained mode has omega > 0.
    """
    n = lattice.n_sites
    axis = np.arange(-n // 2 + 1, n // 2 + 1)
    wavenumbers = np.stack(np.meshgrid(*[axis] * lattice.dim, indexing="ij"),
                           axis=-1).reshape(-1, lattice.dim)
    k = 2.0 * math.pi * wavenumbers / (n * lattice.spacing)
    if lattice.dispersion == "lattice":
        ksq = np.sum((2.0 / lattice.spacing) ** 2
                     * np.sin(k * lattice.spacing / 2.0) ** 2, axis=1)
    else:
        ksq = np.sum(k**2, axis=1)
    msq = np.full(ksq.shape, lattice.mass**2)
    if lattice.mass == 0.0:
        msq[np.all(wavenumbers == 0, axis=1)] = lattice.zero_mode_mass**2
    omega = np.sqrt(msq + ksq)
    return ModeSet(lattice=lattice, wavenumbers=wavenumbers, k=k, omega=omega,
                   conjugate_index=_flat_index(-wavenumbers, n))


def _mode_sum(modes: ModeSet, inverse: bool, x, y) -> float:
    """(1/V) sum_k w_k cos(k.(x - y)) with w_k = 1/omega_k if inverse else
    omega_k; real because +-k enter symmetrically.

    Computed once per mode set, weight and integer displacement
    site(x) - site(y), the only input of k.(x - y), so ginv_xx and ginv_yy
    are one sum.
    """
    lat = modes.lattice
    key = (inverse, tuple(a - b for a, b in zip(lat.site(x), lat.site(y))))
    if key not in modes._kernels:
        weights = 1.0 / modes.omega if inverse else modes.omega
        dx = np.asarray(key[1], dtype=float) * lat.spacing
        modes._kernels[key] = float(np.sum(weights * np.cos(modes.k @ dx)) / lat.volume)
    return modes._kernels[key]


def kernel_g(modes: ModeSet, x, y) -> float:
    """Position-space kernel with Fourier weight omega_k (vacuum stiffness)."""
    return _mode_sum(modes, False, x, y)


def kernel_ginv(modes: ModeSet, x, y) -> float:
    """Position-space kernel with Fourier weight 1/omega_k.

    Discrete convolution inverse of kernel_g:
    a^d sum_z ginv(x,z) g(z,y) = delta_xy / a^d.
    """
    return _mode_sum(modes, True, x, y)
