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

The mode set is built axis by axis: every per-mode array is a broadcast of
N-entry arrays of one axis, so a build takes d N sines, not M d.  The
kernels g and g^-1 are sums over every mode; each is computed once per mode
set, weight and site displacement, and kept on the mode set, and only when
an observable reads it (see ``fieldtheory``).

Sites, wavenumbers, ``dim`` and ``n_sites`` are integers: a bool, float or
string is refused with a ValueError, never truncated.
"""

from __future__ import annotations

import math
import operator
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
        for name in ("dim", "n_sites"):
            value = getattr(self, name)
            try:
                if type(value) is bool:
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.dim not in (1, 2, 3):
            raise ValueError(f"spatial dimension must be 1, 2 or 3, got {self.dim}")
        if self.n_sites < 2 or self.n_sites % 2 != 0:
            raise ValueError(f"n_sites must be even and >= 2, got {self.n_sites}")
        positive = {"spacing": self.spacing, "hbar": self.hbar}
        if self.zero_mode_mass is not None:
            positive["zero_mode_mass"] = self.zero_mode_mass
        for name, value in positive.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (math.isfinite(self.mass) and self.mass >= 0):
            raise ValueError(f"mass must be nonnegative and finite, got {self.mass!r}")
        if self.dispersion not in DISPERSIONS:
            raise ValueError(f"dispersion must be one of {DISPERSIONS}")
        if self.mass == 0.0 and self.zero_mode_mass is None:
            # default regulator keeps the zero mode a finite oscillator
            object.__setattr__(self, "zero_mode_mass", 1e-3 / self.spacing)

    @property
    def volume(self) -> float:
        return float((self.n_sites * self.spacing) ** self.dim)

    def site(self, x, what: str = "site") -> tuple[int, ...]:
        """Normalize a site given as int (d=1) or sequence of ints into
        [0, N)^d.  A bool, float or string coordinate is refused with a
        ValueError naming ``what``, not truncated."""
        coords = tuple(x) if isinstance(x, (tuple, list, np.ndarray)) else (x,)
        if len(coords) != self.dim:
            raise ValueError(f"{what} {x!r} does not match dimension {self.dim}")
        if bool not in map(type, coords):
            try:
                n = self.n_sites
                return tuple([operator.index(c) % n for c in coords])
            except TypeError:
                pass
        raise ValueError(f"{what} needs integer coordinates, got {x!r}")


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Dual-lattice modes: wave vectors, frequencies, and the +-k pairing in
    conjugate_index.  Compared and hashed by identity: each build owns its
    kernel memo."""

    lattice: LatticeSpec
    k: np.ndarray                # physical wave vectors, shape (M, d)
    omega: np.ndarray            # shape (M,)
    conjugate_index: np.ndarray  # index of -k for every mode; i itself if self-conjugate
    # _mode_sum's values by (weight, displacement): floats only, gone with the mode set
    _kernels: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for arr in (self.k, self.omega, self.conjugate_index):
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
        n = self.lattice.n_sites
        index = 0
        for w in self.lattice.site(wavenumber, "wavenumber"):
            index = index * n + (w + n // 2 - 1) % n    # row-major digits of (-n/2, n/2]
        return index

    def phase_at(self, index: int, site) -> float:
        """k . x in radians for a lattice site."""
        x = np.asarray(self.lattice.site(site), dtype=float) * self.lattice.spacing
        return float(np.dot(self.k[index], x))

    def phases(self, site) -> np.ndarray:
        """phase_at of every mode, to the bit: numpy forms (1, d) @ (d,) as np.dot."""
        x = np.asarray(self.lattice.site(site), dtype=float) * self.lattice.spacing
        return (self.k[:, None, :] @ x)[:, 0]


def build_modes(lattice: LatticeSpec) -> ModeSet:
    """Enumerate dual-lattice modes with Kronecker normalization, in row-major
    ("ij") order of the wavenumbers.

    Each axis contributes N-entry arrays: its k, dispersion term and the
    position (N - 2 - j) mod N of -k for position j.  They are broadcast
    into the mode set's arrays, each written once: omega^2 adds the axes'
    terms in axis order, and the conjugate index reads the positions as
    base-N digits.  Massless lattices get the configured regulator mass on
    the zero mode so every retained mode has omega > 0.
    """
    n, dim, a = lattice.n_sites, lattice.dim, lattice.spacing
    axis = np.arange(-n // 2 + 1, n // 2 + 1)
    k_axis = 2.0 * math.pi * axis / (n * a)
    if lattice.dispersion == "lattice":
        ksq_axis = (2.0 / a) ** 2 * np.sin(k_axis * a / 2.0) ** 2
    else:
        ksq_axis = k_axis**2
    conj_axis = (n - 2 - np.arange(n)) % n
    omega_sq, conj = ksq_axis, conj_axis
    for _ in range(dim - 1):    # only the last step is M-sized
        omega_sq = omega_sq[..., None] + ksq_axis
        conj = conj[..., None] * n + conj_axis
    omega_sq += lattice.mass**2
    if lattice.mass == 0.0:
        omega_sq[(n // 2 - 1,) * dim] += lattice.zero_mode_mass**2
    omega = np.sqrt(omega_sq, out=omega_sq)
    k = np.empty((n,) * dim + (dim,))
    for j in range(dim):
        k[..., j] = k_axis.reshape((n,) + (1,) * (dim - 1 - j))    # along grid axis j
    return ModeSet(lattice=lattice, k=k.reshape(-1, dim), omega=omega.reshape(-1),
                   conjugate_index=conj.reshape(-1))


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
        dx = np.asarray(key[1], dtype=float) * lat.spacing
        terms = modes.k @ dx
        np.cos(terms, out=terms)     # at most two M-sized temporaries: these and 1/omega
        terms *= 1.0 / modes.omega if inverse else modes.omega
        modes._kernels[key] = float(np.sum(terms) / lat.volume)
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
