"""Two-spin system, declared as three tables: the named single-spin kets
(``_NAMED``), the measurement prescriptions (``SCHEMES``) and the
observables (``OBSERVABLES``); plus local rotations on particle A.

Both S^2 and S^z have a degenerate eigenspace on two spins, so a complete
orthogonal measurement must pick a basis inside it.  ``SCHEMES`` holds one
entry per choice, and the choice matters:

* ``"s2-standard"`` keeps the product triplet states up-up/down-down and
  signals (Bob's <s_B^z> shifts with Alice's local rotation), while
  ``"s2-bell"`` uses the entangled triplet pair and is semicausal (every
  reduced projector on B equals 1_B/2).
* ``"sz-standard"`` keeps the product m=0 pair and is causal, while
  ``"sz-bell"`` entangles the m=0 subspace and signals.

The ``-luders`` entries project onto whole eigenspaces (no basis choice),
and ``"none"`` is the single outcome of no measurement.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from .core import (MeasurementScheme, Operator, StateVector, embed_local, qndsv_scheme,
                   tensor_state)
from .policy import DEFAULT_POLICY

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


# the sigma_z (up, down) and sigma_x (right, left) eigenkets, by name
_NAMED = MappingProxyType({
    "up": np.array([1.0, 0.0], dtype=complex),
    "down": np.array([0.0, 1.0], dtype=complex),
    "right": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
    "left": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2),
})
for _named_ket in _NAMED.values():
    _named_ket.setflags(write=False)


def axis_sigma(axis) -> np.ndarray:
    """axis . sigma, for a unit 3-vector axis."""
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,):
        raise ValueError(f"axis must be a 3-vector, got shape {ax.shape}")
    n = float(np.linalg.norm(ax))
    if not abs(n - 1.0) <= DEFAULT_POLICY.exact_tol:
        raise ValueError(f"axis must be unit length, |axis|={n!r}")
    return ax[0] * SIGMA_X + ax[1] * SIGMA_Y + ax[2] * SIGMA_Z


def ket(label) -> np.ndarray:
    """The single-spin ket a label names in ``_NAMED``; a ket is returned as is."""
    if not isinstance(label, str):
        return label
    if label not in _NAMED:
        raise ValueError(f"unknown spin label {label!r}; "
                         f"the named labels are {', '.join(_NAMED)}")
    return _NAMED[label]


def spin_state(a, b) -> StateVector:
    """Normalized 4-dim product state |a_A b_B>; each label is a name in
    ``_NAMED`` or a normalized single-spin ket."""
    return tensor_state([StateVector((2,), ket(a)), StateVector((2,), ket(b))])


def alice_rotate(state: StateVector, axis, angle: float) -> StateVector:
    """Rotate particle A; identity on B.  Norm preserved."""
    return StateVector(state.dims, alice_rotations(state, axis, (angle,))[0])


def alice_rotations(state: StateVector, axis, angles) -> np.ndarray:
    """The amplitudes of alice_rotate(state, axis, angle) for each angle, as
    (L, 4) rows: the stack of U = exp(-i angle (axis . sigma)/2), kron(U, 1)
    formed as np.kron forms it (the same products, then a reshape), and one
    stacked matmul."""
    if state.dims != (2, 2):
        raise ValueError(f"expected a two-spin state, got dims {state.dims}")
    cos = np.array([math.cos(angle / 2.0) for angle in angles])[:, None, None]
    isin = np.array([1j * math.sin(angle / 2.0) for angle in angles])[:, None, None]
    u = cos * np.eye(2) - isin * axis_sigma(axis)
    return (u[:, :, None, :, None] * np.eye(2)[:, None, :]).reshape(-1, 4, 4) @ state.amplitudes


OBSERVABLES = ("sAx", "sAy", "sAz", "sBx", "sBy", "sBz", "S2", "Sz")


def spin_observable(name: str, hbar: float = 1.0) -> Operator:
    """An entry of OBSERVABLES: s{A,B}{x,y,z} single-spin (hbar/2 sigma), or
    the totals "S2" and "Sz"."""
    if name not in OBSERVABLES:
        raise ValueError(f"unknown spin observable {name!r}")
    if not (math.isfinite(hbar) and hbar > 0):
        raise ValueError(f"hbar must be positive and finite, got {hbar!r}")
    if name == "S2":
        return s2_total(hbar)
    if name == "Sz":
        return sz_total(hbar)
    single = Operator((2,), (hbar / 2.0) * _PAULI[name[2]])
    return embed_local(single, "AB".index(name[1]), (2, 2))


def sz_total(hbar: float = 1.0) -> Operator:
    mat = (hbar / 2.0) * (np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z))
    return Operator((2, 2), mat)


def s2_total(hbar: float = 1.0) -> Operator:
    """(s_A + s_B)^2 with eigenvalues hbar^2 S(S+1), S in {0, 1}."""
    mat = np.zeros((4, 4), dtype=complex)
    for p in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        tot = (hbar / 2.0) * (np.kron(p, np.eye(2)) + np.kron(np.eye(2), p))
        mat += tot @ tot
    return Operator((2, 2), mat)


# two-spin product kets in the (A major, B minor) ordering
_UU = np.array([1, 0, 0, 0], dtype=complex)
_UD = np.array([0, 1, 0, 0], dtype=complex)
_DU = np.array([0, 0, 1, 0], dtype=complex)
_DD = np.array([0, 0, 0, 1], dtype=complex)
SINGLET = (_UD - _DU) / math.sqrt(2)
TRIPLET_SYM = (_UD + _DU) / math.sqrt(2)
BELL_PHI_PLUS = (_UU + _DD) / math.sqrt(2)
BELL_PHI_MINUS = (_UU - _DD) / math.sqrt(2)

# every prescription but verification, as (label, frame) pairs in outcome order:
# one ket per outcome, or a list of kets for an outcome that keeps its eigenspace whole
SCHEMES = MappingProxyType({
    "s2-standard": (("S=0 singlet", SINGLET), ("S=1 m=0 sym", TRIPLET_SYM),
                    ("S=1 up-up", _UU), ("S=1 down-down", _DD)),
    "s2-bell": (("S=0 singlet", SINGLET), ("S=1 m=0 sym", TRIPLET_SYM),
                ("S=1 phi+", BELL_PHI_PLUS), ("S=1 phi-", BELL_PHI_MINUS)),
    "s2-luders": (("S=0", SINGLET), ("S=1", [TRIPLET_SYM, _UU, _DD])),
    "sz-standard": (("m=+1", _UU), ("m=-1", _DD), ("m=0 up-down", _UD), ("m=0 down-up", _DU)),
    "sz-bell": (("m=+1", _UU), ("m=-1", _DD), ("m=0 sym", TRIPLET_SYM), ("m=0 antisym", SINGLET)),
    "sz-luders": (("m=+1", _UU), ("m=-1", _DD), ("m=0", [_UD, _DU])),
    "none": (("none", [_UU, _UD, _DU, _DD]),),
})


def spin_scheme(scheme_id: str, target=None) -> MeasurementScheme:
    """The scheme a spin scheme id names: an entry of ``SCHEMES``, or
    "qndsv", the verification of the product state ``target``."""
    if scheme_id == "qndsv":
        if target is None:
            raise ValueError("qndsv scheme needs a target (pair of spin labels)")
        return qndsv_scheme(spin_state(*target))
    if scheme_id not in SCHEMES:
        raise ValueError(f"unknown spin scheme {scheme_id!r}")
    return MeasurementScheme.from_basis((2, 2), SCHEMES[scheme_id])
