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
the reality of the field.  The one dispersion, the nearest-neighbour
Laplacian's omega_k^2 = m^2 + sum_i (2/a)^2 sin^2(k_i a/2), has kernels that
approach Minkowski space's as a^2.

A mode set holds only its lattice.  It reads a mode index as base-N digits
and forms k at those digits with the expression that builds one axis's N
wave numbers, so omega_p and the phases of p need no array of any size;
every array, even the axis's, is built on first read.  The kernels g and
g^-1 are sums over every mode; each is computed once per mode set, weight
and site displacement, and kept on the mode set, and only when an
observable reads it (see ``fieldtheory``).  At a nonzero displacement r,
cos k.r = Re prod_i e^{i k_i r_i} contracts the (N,)*d weights with one
length-N plane wave per axis, so no (M, d) array of k and no M cosines.

Sites, wavenumbers, mode indices, ``dim`` and ``n_sites`` are integers: a
bool, float or string is refused with a ValueError, never truncated.  A plain
int passes an exact-type test first; numpy scalars and every other type take
``policy.integer``'s general route.  A lattice whose N^d float64 values no
numpy array can address is refused (``policy.addressable``).  Mode digits are
plain ints, and at d = 1 a mode's phase is one Python product.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .policy import addressable, integer


@dataclass(frozen=True)
class LatticeSpec:
    dim: int
    n_sites: int
    spacing: float
    mass: float
    hbar: float = 1.0
    zero_mode_mass: float | None = None

    def __post_init__(self):
        for name in ("dim", "n_sites"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if self.dim not in (1, 2, 3):
            raise ValueError(f"spatial dimension must be 1, 2 or 3, got {self.dim}")
        if self.n_sites < 2 or self.n_sites % 2 != 0:
            raise ValueError(f"n_sites must be even and >= 2, got {self.n_sites}")
        addressable(self.n_sites ** self.dim, "n_sites**dim")
        positive = {"spacing": self.spacing, "hbar": self.hbar}
        if self.zero_mode_mass is not None:
            positive["zero_mode_mass"] = self.zero_mode_mass
        for name, value in positive.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (math.isfinite(self.mass) and self.mass >= 0):
            raise ValueError(f"mass must be nonnegative and finite, got {self.mass!r}")
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
        n = self.n_sites
        try:
            return tuple([(c if type(c) is int else integer(c, what)) % n for c in coords])
        except ValueError:
            raise ValueError(f"{what} needs integer coordinates, got {x!r}") from None


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Dual-lattice modes in row-major ("ij") wavenumber order, from one axis's
    arrays, each built on first read.  Compared and hashed by identity: each
    build owns its kernel memo."""

    lattice: LatticeSpec
    # _mode_sum's values by (weight, displacement): floats only, gone with the mode set
    _kernels: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_modes(self) -> int:
        return self.lattice.n_sites ** self.lattice.dim

    @property
    def eps(self) -> float:
        return 1.0 / self.lattice.volume

    def _digits(self, index) -> tuple:
        """The row-major base-N digits of a mode index, as plain ints."""
        index = integer(index, "mode index")
        if not 0 <= index < self.n_modes:
            raise ValueError(f"mode index {index} out of range")
        digits = []
        for _ in range(self.lattice.dim):
            index, digit = divmod(index, self.lattice.n_sites)
            digits.append(digit)
        return tuple(reversed(digits))

    def _k(self, digits) -> np.ndarray:
        """Physical wave numbers 2 pi n / (N a) at axis positions digits,
        n = digit - N/2 + 1 in (-N/2, N/2]."""
        n = self.lattice.n_sites
        return 2.0 * math.pi * (np.asarray(digits) - (n // 2 - 1)) / (n * self.lattice.spacing)

    def _ksq(self, k: np.ndarray) -> np.ndarray:
        """The dispersion term of each k: (2/a)^2 sin^2(ka/2)."""
        a = self.lattice.spacing
        return (2.0 / a) ** 2 * np.sin(k * a / 2.0) ** 2

    @functools.cached_property
    def k_axis(self) -> np.ndarray:
        """Physical wave numbers of one axis, shape (N,)."""
        return _frozen(self._k(np.arange(self.lattice.n_sites)))

    @functools.cached_property
    def ksq_axis(self) -> np.ndarray:
        """One axis's dispersion term, shape (N,)."""
        return _frozen(self._ksq(self.k_axis))

    @functools.cached_property
    def omega(self) -> np.ndarray:
        """Frequencies, shape (M,): the axes' terms added in axis order, then m^2."""
        lat, n = self.lattice, self.lattice.n_sites
        omega_sq = self.ksq_axis.copy()
        for _ in range(lat.dim - 1):    # only the last step is M-sized
            omega_sq = omega_sq[..., None] + self.ksq_axis
        omega_sq += lat.mass**2
        if lat.mass == 0.0:
            omega_sq[(n // 2 - 1,) * lat.dim] += lat.zero_mode_mass**2
        return _frozen(np.sqrt(omega_sq, out=omega_sq).reshape(-1))

    def frequency(self, index) -> float:
        """omega[index] to the bit: the same terms, added in the same order."""
        lat, digits = self.lattice, self._digits(index)
        omega_sq = functools.reduce(operator.add, self._ksq(self._k(digits))) + lat.mass**2
        if lat.mass == 0.0 and digits == (lat.n_sites // 2 - 1,) * lat.dim:
            omega_sq = omega_sq + lat.zero_mode_mass**2
        return np.sqrt(omega_sq)

    @functools.cached_property
    def k(self) -> np.ndarray:
        """Physical wave vectors, shape (M, d)."""
        grids = np.meshgrid(*[self.k_axis] * self.lattice.dim, indexing="ij", copy=False)
        return _frozen(np.stack(grids, axis=-1).reshape(-1, self.lattice.dim))

    def conjugate(self, index) -> int:
        """Index of -k (index itself if self-conjugate), whose digits are the
        positions (N - 2 - j) mod N of -k on each axis."""
        n, out = self.lattice.n_sites, 0
        for d in self._digits(index):
            out = out * n + (n - 2 - int(d)) % n
        return out

    def is_paired(self, index: int) -> bool:
        return self.conjugate(index) != index

    def mode_index(self, wavenumber) -> int:
        """Index of the mode with the given integer wave-number vector."""
        n = self.lattice.n_sites
        index = 0
        for w in self.lattice.site(wavenumber, "wavenumber"):
            index = index * n + (w + n // 2 - 1) % n    # row-major digits of (-n/2, n/2]
        return index

    def phase_at(self, index: int, site) -> float:
        """k . x in radians for a lattice site.  At d = 1 one Python product,
        in _k's order; from d = 2 np.dot, whose sum may round otherwise."""
        lat, digits = self.lattice, self._digits(index)
        if lat.dim == 1:
            n, (x,) = lat.n_sites, lat.site(site)
            return 2.0 * math.pi * (digits[0] - (n // 2 - 1)) / (n * lat.spacing) \
                * (float(x) * lat.spacing)
        x = np.asarray(lat.site(site), dtype=float) * lat.spacing
        return float(np.dot(self._k(digits), x))

    def phases(self, site) -> np.ndarray:
        """phase_at of every mode, to the bit but for a zero's sign: (1, d) @ (d,) as np.dot."""
        x = np.asarray(self.lattice.site(site), dtype=float) * self.lattice.spacing
        return (self.k[:, None, :] @ x)[:, 0]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def build_modes(lattice: LatticeSpec) -> ModeSet:
    """The dual-lattice modes of a lattice, with Kronecker normalization;
    nothing is computed until it is read."""
    return ModeSet(lattice=lattice)


def _mode_sum(modes: ModeSet, inverse: bool, x, y) -> float:
    """(1/V) sum_k w_k cos(k.(x - y)) with w_k = 1/omega_k if inverse else
    omega_k; real because +-k enter symmetrically.

    Computed once per mode set, weight and integer displacement
    site(x) - site(y), the only input of k.(x - y), so ginv_xx and ginv_yy
    are one sum.  At a zero displacement every cos is 1: the weights alone.
    Otherwise cos k.r = Re prod_i e^{i k_i r_i}: the (N,)*d weights are
    contracted with one length-N plane wave per axis, last axis first.
    """
    lat = modes.lattice
    key = (inverse, tuple(a - b for a, b in zip(lat.site(x), lat.site(y))))
    if key not in modes._kernels:
        terms = 1.0 / modes.omega if inverse else modes.omega
        if any(key[1]):
            *steps, last = [modes.k_axis * (step * lat.spacing) for step in key[1]]
            # the real weights meet the last axis's cos and sin in one real product
            total = terms.reshape(-1, lat.n_sites) @ np.stack([np.cos(last), np.sin(last)], axis=1)
            total = total[:, 0] + 1j * total[:, 1]
            for phase in reversed(steps):
                total = total.reshape(-1, lat.n_sites) @ np.exp(1j * phase)
            terms = total.real          # one entry: every axis contracted
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
