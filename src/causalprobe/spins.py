"""Two-spin system: product-state builders, local rotations on particle A,
and the competing projective prescriptions for the total-spin variables.

Both S^2 and S^z have a degenerate eigenspace on two spins, so a complete
orthogonal measurement must pick a basis inside it.  The choice matters:

* ``s2_scheme("standard")`` keeps the product triplet states up-up/down-down
  and signals (Bob's <s_B^z> shifts with Alice's local rotation), while
  ``s2_scheme("bell")`` uses the entangled triplet pair and is semicausal
  (every reduced projector on B equals 1_B/2).
* ``sz_scheme("standard")`` keeps the product m=0 pair and is causal, while
  ``sz_scheme("bell")`` entangles the m=0 subspace and signals.

A Lueders variant (project onto whole eigenspaces, no basis choice) is
included for both variables as the natural third prescription.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    KIND_COMPLETE,
    KIND_LUDERS,
    MeasurementScheme,
    Operator,
    StateVector,
    embed_local,
    post_measurement_expectation,
    tensor_state,
)
from .policy import DEFAULT_POLICY

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

X_AXIS = (1.0, 0.0, 0.0)
Y_AXIS = (0.0, 1.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)

BASIS_CHOICES = ("standard", "bell", "luders")


@dataclass(frozen=True)
class SpinLabel:
    """Single-spin state label: a named axis eigenstate.

    kind "up"/"down" are the sigma_z eigenstates, "right"/"left" the
    sigma_x ones; "plus"/"minus" carry an arbitrary unit axis.
    """

    kind: str
    axis: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.kind in ("up", "down", "right", "left"):
            if self.axis is not None:
                raise ValueError(f"{self.kind!r} takes no axis")
        elif self.kind in ("plus", "minus"):
            ax = _unit_axis(self.axis)
            object.__setattr__(self, "axis", ax)
        else:
            raise ValueError(f"unknown spin label {self.kind!r}")


UP = SpinLabel("up")
DOWN = SpinLabel("down")
RIGHT = SpinLabel("right")
LEFT = SpinLabel("left")


def plus(axis) -> SpinLabel:
    return SpinLabel("plus", tuple(axis))


def minus(axis) -> SpinLabel:
    return SpinLabel("minus", tuple(axis))


def _unit_axis(axis) -> tuple[float, float, float]:
    if axis is None:
        raise ValueError("plus/minus labels need an axis")
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,):
        raise ValueError(f"axis must be a 3-vector, got shape {ax.shape}")
    n = float(np.linalg.norm(ax))
    if abs(n - 1.0) > DEFAULT_POLICY.exact_tol:
        raise ValueError(f"axis must be unit length, |axis|={n!r}")
    return (float(ax[0]), float(ax[1]), float(ax[2]))


def _coerce_label(label) -> SpinLabel:
    if isinstance(label, SpinLabel):
        return label
    if isinstance(label, str):
        return SpinLabel(label)
    raise TypeError(f"expected SpinLabel or label name, got {label!r}")


def single_spin_vector(label) -> np.ndarray:
    """Two-component ket for a spin label, phase fixed (largest component
    made real positive)."""
    label = _coerce_label(label)
    if label.kind == "up":
        return np.array([1.0, 0.0], dtype=complex)
    if label.kind == "down":
        return np.array([0.0, 1.0], dtype=complex)
    if label.kind == "right":
        return np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    if label.kind == "left":
        return np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)
    ax = np.asarray(label.axis)
    mat = ax[0] * SIGMA_X + ax[1] * SIGMA_Y + ax[2] * SIGMA_Z
    vals, vecs = np.linalg.eigh(mat)
    idx = int(np.argmax(vals)) if label.kind == "plus" else int(np.argmin(vals))
    v = vecs[:, idx]
    pivot = v[np.argmax(np.abs(v))]
    return v * (np.conj(pivot) / abs(pivot))


def spin_state(a, b) -> StateVector:
    """Normalized 4-dim product state |a_A b_B>."""
    return tensor_state([
        StateVector((2,), single_spin_vector(a)),
        StateVector((2,), single_spin_vector(b)),
    ])


def rotation_unitary(axis, angle: float) -> np.ndarray:
    """exp(-i angle (axis . sigma)/2)."""
    ax = np.asarray(_unit_axis(tuple(axis)))
    gen = ax[0] * SIGMA_X + ax[1] * SIGMA_Y + ax[2] * SIGMA_Z
    half = angle / 2.0
    return math.cos(half) * np.eye(2) - 1j * math.sin(half) * gen


def alice_rotate(state: StateVector, axis, angle: float) -> StateVector:
    """Rotate particle A; identity on B.  Norm preserved."""
    if state.dims != (2, 2):
        raise ValueError(f"expected a two-spin state, got dims {state.dims}")
    u = np.kron(rotation_unitary(axis, angle), np.eye(2))
    return StateVector(state.dims, u @ state.amplitudes)


def spin_observable(name: str, hbar: float = 1.0) -> Operator:
    """Named observables: s{A,B}{x,y,z} single-spin (hbar/2 sigma), or the
    totals "S2" and "Sz"."""
    if name == "S2":
        return s2_total(hbar)
    if name == "Sz":
        return sz_total(hbar)
    if len(name) == 3 and name[0] == "s" and name[1] in "AB" and name[2] in "xyz":
        slot = 0 if name[1] == "A" else 1
        single = Operator((2,), (hbar / 2.0) * _PAULI[name[2]], hermitian=True)
        return embed_local(single, slot, (2, 2))
    raise ValueError(f"unknown spin observable {name!r}")


def sz_total(hbar: float = 1.0) -> Operator:
    mat = (hbar / 2.0) * (np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z))
    return Operator((2, 2), mat, hermitian=True)


def s2_total(hbar: float = 1.0) -> Operator:
    """(s_A + s_B)^2 with eigenvalues hbar^2 S(S+1), S in {0, 1}."""
    mat = np.zeros((4, 4), dtype=complex)
    for p in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        tot = (hbar / 2.0) * (np.kron(p, np.eye(2)) + np.kron(np.eye(2), p))
        mat += tot @ tot
    return Operator((2, 2), mat, hermitian=True)


# two-spin product kets in the (A major, B minor) ordering
_UU = np.array([1, 0, 0, 0], dtype=complex)
_UD = np.array([0, 1, 0, 0], dtype=complex)
_DU = np.array([0, 0, 1, 0], dtype=complex)
_DD = np.array([0, 0, 0, 1], dtype=complex)
SINGLET = (_UD - _DU) / math.sqrt(2)
TRIPLET_SYM = (_UD + _DU) / math.sqrt(2)
BELL_PHI_PLUS = (_UU + _DD) / math.sqrt(2)
BELL_PHI_MINUS = (_UU - _DD) / math.sqrt(2)


def _check_choice(choice: str) -> str:
    if choice not in BASIS_CHOICES:
        raise ValueError(f"basis choice must be one of {BASIS_CHOICES}, got {choice!r}")
    return choice


def s2_scheme(choice: str = "standard") -> MeasurementScheme:
    """Complete measurement of total S^2; ``choice`` picks the triplet basis."""
    _check_choice(choice)
    if choice == "luders":
        p_singlet = np.outer(SINGLET, SINGLET.conj())
        return MeasurementScheme.from_projectors(
            (2, 2),
            [("S=0", p_singlet), ("S=1", np.eye(4) - p_singlet)],
            kind=KIND_LUDERS,
        )
    if choice == "standard":
        triplet = [("S=1 m=0 sym", TRIPLET_SYM), ("S=1 up-up", _UU), ("S=1 down-down", _DD)]
    else:
        triplet = [("S=1 m=0 sym", TRIPLET_SYM),
                   ("S=1 phi+", BELL_PHI_PLUS), ("S=1 phi-", BELL_PHI_MINUS)]
    return MeasurementScheme.from_basis(
        (2, 2), [("S=0 singlet", SINGLET)] + triplet, kind=KIND_COMPLETE)


def sz_scheme(choice: str = "standard") -> MeasurementScheme:
    """Complete measurement of total S^z; ``choice`` picks the m=0 basis."""
    _check_choice(choice)
    if choice == "luders":
        p0 = np.outer(_UD, _UD.conj()) + np.outer(_DU, _DU.conj())
        return MeasurementScheme.from_projectors(
            (2, 2),
            [("m=+1", np.outer(_UU, _UU.conj())),
             ("m=-1", np.outer(_DD, _DD.conj())),
             ("m=0", p0)],
            kind=KIND_LUDERS,
        )
    if choice == "standard":
        middle = [("m=0 up-down", _UD), ("m=0 down-up", _DU)]
    else:
        middle = [("m=0 sym", TRIPLET_SYM), ("m=0 antisym", SINGLET)]
    return MeasurementScheme.from_basis(
        (2, 2), [("m=+1", _UU), ("m=-1", _DD)] + middle, kind=KIND_COMPLETE)


def identity_scheme(dims=(2, 2)) -> MeasurementScheme:
    """Trivial single-outcome scheme (no measurement)."""
    dim = int(np.prod(dims))
    return MeasurementScheme.from_projectors(
        dims, [("none", np.eye(dim))], kind=KIND_LUDERS)


def spin_scheme(scheme_id: str, target=None) -> MeasurementScheme:
    """The scheme a spin scheme id names; the ids are declared in
    ``harness.SPIN``.  "qndsv" verifies the product state ``target``."""
    from .core import qndsv_scheme

    if scheme_id == "qndsv":
        if target is None:
            raise ValueError("qndsv scheme needs a target (pair of spin labels)")
        return qndsv_scheme(spin_state(*target))
    if scheme_id == "none":
        return identity_scheme()
    if "-" in scheme_id:
        var, choice = scheme_id.split("-", 1)
        if var == "s2":
            return s2_scheme(choice)
        if var == "sz":
            return sz_scheme(choice)
    raise ValueError(f"unknown spin scheme {scheme_id!r}")


@dataclass(frozen=True)
class BeforeAfter:
    before: float
    after: float


def measured_flag_observable(scheme: MeasurementScheme, prestate: StateVector,
                             obs: Operator) -> BeforeAfter:
    """<obs> on the prestate vs the post-measurement ensemble average.

    When the two differ, an observer with knowledge of the initial state can
    tell from local data alone that (and which) measurement happened.
    """
    return BeforeAfter(
        before=float(obs.expectation(prestate)),
        after=post_measurement_expectation(prestate, scheme, obs),
    )


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
