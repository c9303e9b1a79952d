"""The lattice kernels against Minkowski space.

The field's one dispersion, omega_k^2 = m^2 + sum_i (2/a)^2 sin^2(k_i a/2),
is a lattice regulator of the free field in Minkowski space, so its kernels
g^-1 and g must approach the continuum theory's as the spacing a goes to 0
at a fixed box.  The continuum g^-1(r) = int d^dk/(2pi)^d e^{ik.r}/omega_k
in a periodic box of side L is the image sum over r + nL of

    d = 1: K0(mr)/pi,    d = 2: e^{-mr}/(2 pi r),    d = 3: m K1(mr)/(2 pi^2 r),

and off r = 0, g = (m^2 - laplacian) g^-1.  The images fall like e^{-mL},
so |n_i| <= 6 leaves nothing at L = 16, m = 1.  The lattice differs from
the continuum at order (ka)^2, so each halving of a cuts the relative error
at a fixed physical separation fourfold: successive ratios lie in
[3.5, 4.5].  In d = 3 the separation r = 1 is left out: at 8 and 16 sites
the error is not yet asymptotic there (ratios near 5).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from scipy import special

from causalprobe.lattice import LatticeSpec, build_modes, kernel_g, kernel_ginv

BOX, MASS, IMAGES = 16.0, 1.0, 6


def _ginv(dim: int, r: np.ndarray) -> np.ndarray:
    """Infinite-volume g^-1 at distances r > 0."""
    mr = MASS * r
    return {1: lambda: special.k0(mr) / np.pi,
            2: lambda: np.exp(-mr) / (2.0 * np.pi * r),
            3: lambda: MASS * special.k1(mr) / (2.0 * np.pi**2 * r)}[dim]()


def _g(dim: int, r: np.ndarray) -> np.ndarray:
    """Infinite-volume g = (m^2 - laplacian) g^-1 at distances r > 0."""
    mr = MASS * r
    return {1: lambda: -MASS * special.k1(mr) / (np.pi * r),
            2: lambda: -np.exp(-mr) * (1.0 + mr) / (2.0 * np.pi * r**3),
            3: lambda: -MASS**2 * special.kn(2, mr) / (2.0 * np.pi**2 * r**2)}[dim]()


def continuum(dim: int, kernel, r: float) -> float:
    """The periodic-box kernel at separation r along the first axis: the
    image sum over r e_1 + n L, |n_i| <= IMAGES."""
    shifts = BOX * np.array(list(itertools.product(range(-IMAGES, IMAGES + 1), repeat=dim)))
    shifts[:, 0] += r
    return float(np.sum(kernel(dim, np.linalg.norm(shifts, axis=1))))


@functools.cache
def _modes(dim: int, n_sites: int):
    return build_modes(LatticeSpec(dim=dim, n_sites=n_sites, spacing=BOX / n_sites,
                                   mass=MASS))


def relative_error(dim: int, n_sites: int, r: float, lattice_kernel, reference) -> float:
    """(lattice - continuum) / continuum at separation r along the first axis."""
    steps = r * n_sites / BOX
    assert steps.is_integer(), (r, n_sites)
    site = (int(steps),) + (0,) * (dim - 1)
    want = continuum(dim, reference, r)
    return (lattice_kernel(_modes(dim, n_sites), site, (0,) * dim) - want) / want


# (d, site counts: each a halving of a at L = 16, separations r)
CASES = [(1, (256, 512, 1024), (1.0, 2.0, 4.0)),
         (2, (128, 256), (1.0, 2.0, 4.0)),
         (3, (64, 128), (2.0, 4.0))]


@pytest.mark.parametrize("lattice_kernel, reference", [(kernel_ginv, _ginv), (kernel_g, _g)],
                         ids=["ginv", "g"])
@pytest.mark.parametrize("dim, sites, r", [pytest.param(d, sites, r, id=f"d{d}-r{r:g}")
                                           for d, sites, rs in CASES for r in rs])
def test_kernel_error_falls_as_a_squared(dim, sites, r, lattice_kernel, reference):
    errors = [relative_error(dim, n, r, lattice_kernel, reference) for n in sites]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(3.5 <= ratio <= 4.5 for ratio in ratios), (errors, ratios)

