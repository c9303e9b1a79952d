from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import causalprobe
from causalprobe.core import StateVector
from dense_oracle import oracle_prestate
from causalprobe.fieldtheory import WavePacket


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


def public_callables():
    """(qualified name, function) for every public function, method and
    property getter of every causalprobe module."""
    for info in pkgutil.iter_modules(causalprobe.__path__):
        module = importlib.import_module(f"causalprobe.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    # classmethods and properties
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def naive_outcome_probabilities(modes, kick, p_index: int, trunc: int) -> np.ndarray:
    """P_mn table for the naive pair measurement (Poisson products), from
    the oracle's prestate."""
    state, _ = oracle_prestate(modes, kick, trunc)
    q_index = modes.conjugate(p_index)
    tensor = np.abs(state.amplitudes.reshape(state.dims)) ** 2
    axes = tuple(i for i in range(modes.n_modes) if i not in (p_index, q_index))
    probs = tensor.sum(axis=axes)
    return probs if p_index < q_index else probs.T


def single_mode_packet(modes, p_index: int) -> WavePacket:
    """Spectral delta on one mode: amplitude sqrt(V) there, zero elsewhere."""
    spec = np.zeros(modes.n_modes, dtype=complex)
    spec[p_index] = math.sqrt(modes.lattice.volume)
    return WavePacket(spec)


def scenario_dict(sc) -> dict:
    """The raw scenario that reads back as the validated ``sc``."""
    raw = {f.name: getattr(sc, f.name) for f in dataclasses.fields(sc)}
    sections = {key: dict(raw[key]) for key in ("system_params", "alice", "scheme")}
    return copy.deepcopy({"version": 1, **raw, **sections})


@pytest.fixture
def rng():
    return np.random.default_rng(20231202)
