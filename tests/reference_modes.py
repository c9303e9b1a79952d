"""The meshgrid build of a lattice mode set, kept as the reference that
``lattice.build_modes`` must match byte for byte, and whose conjugate index
``ModeSet.conjugate`` must match at every index.

It materialises every mode's wavenumbers with ``np.meshgrid`` and works on
(M, d) arrays throughout: M d sines for the dispersion, a sum over the axis
for omega^2, and a mixed-radix matmul of the negated wavenumbers' digits for
the conjugate index.
"""

from __future__ import annotations

import math

import numpy as np


def flat_index(wavenumbers: np.ndarray, n: int) -> np.ndarray:
    """Row-major ("ij") mode index of integer wavenumbers folded into (-n/2, n/2]."""
    digits = (wavenumbers + n // 2 - 1) % n
    return digits @ (n ** np.arange(wavenumbers.shape[-1] - 1, -1, -1))


def reference_modes(lattice) -> dict:
    """wavenumbers, k, omega and conjugate_index of a ``LatticeSpec``."""
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
    return {"wavenumbers": wavenumbers, "k": k, "omega": np.sqrt(msq + ksq),
            "conjugate_index": flat_index(-wavenumbers, n)}
