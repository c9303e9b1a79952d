from __future__ import annotations

import math

import numpy as np
import pytest

from causalprobe.core import StateVector


def random_state(dims, rng) -> StateVector:
    total = int(np.prod(dims))
    amp = rng.normal(size=total) + 1j * rng.normal(size=total)
    return StateVector(dims, amp / np.linalg.norm(amp))


def random_unitary(n: int, rng) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bloch_grid(n_axes: int = 10, angles=(math.pi / 2, math.pi)):
    """Deterministic (axis, angle) grid of A-local rotations: Fibonacci-sphere
    axes crossed with the given angles."""
    pts = []
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for i in range(n_axes):
        z = 1.0 - 2.0 * (i + 0.5) / n_axes
        r = math.sqrt(max(0.0, 1.0 - z * z))
        th = golden * i
        axis = (r * math.cos(th), r * math.sin(th), z)
        for ang in angles:
            pts.append((axis, ang))
    return pts


def random_rotations(n: int, seed: int = 0):
    """Seeded random (axis, angle) pairs, uniform axis on the sphere."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        out.append((tuple(v), float(rng.uniform(0.0, 2.0 * math.pi))))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20231202)
