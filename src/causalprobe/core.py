"""Finite-dimensional Hilbert-space engine.

States and operators over a composite space with explicit subsystem
dimensions (row-major tensor ordering, subsystem 0 is the slowest index),
projective measurement schemes, Born-rule outcome ensembles, and the
post-measurement ensemble average

    <O> = sum_i <psi| P_i O P_i |psi>,

which equals the probability-weighted average over renormalized branches
because each branch's normalization cancels its Born weight.

Every outcome projects onto the span of orthonormal columns F, P = F F^dag;
complete measurements, Lueders projections and the verification of one
state (its "no" frame an orthonormal basis of the target's complement) share
that one type.  Every ``Operator`` is a dense hermitian observable, checked
when it is made and read in the Heisenberg picture: ``post_measurement_operator``
forms M_O = sum_i P_i O P_i from the frames, and the average above is the
quadratic form <psi|M_O|psi>.  Alice's local operations can move Bob's <O>
exactly when his M_O is not 1_A (x) M_B.  ``born_ensemble`` and
``branch_ensemble`` give the branches P_i|psi> themselves, the latter for a
reference that forms them by other means (the oscillators' number collapse
keeps rows of an amplitude matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import DEFAULT_POLICY, integer


class SchemeError(ValueError):
    """A measurement scheme fails its structural requirements."""


def _as_dims(dims) -> tuple[int, ...]:
    out = tuple(integer(d, "a subsystem dimension") for d in dims)
    if not out or any(d <= 0 for d in out):
        raise ValueError(f"subsystem dimensions must be positive, got {dims!r}")
    return out


def _frozen_array(values, shape=None) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    if arr.flags.writeable:     # the caller can still write to it: keep a copy
        arr = np.array(arr)
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a composite basis with subsystem dims."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray
    norm: float = 0.0

    def __init__(self, dims, amplitudes):
        object.__setattr__(self, "dims", _as_dims(dims))
        total = int(np.prod(self.dims))
        amp = _frozen_array(amplitudes)
        if amp.ndim != 1 or amp.size != total:
            raise ValueError(
                f"amplitude vector of length {amp.size} does not match dims {self.dims}"
            )
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "norm", float(np.linalg.norm(amp)))

    def is_normalized(self) -> bool:
        return abs(self.norm - 1.0) <= DEFAULT_POLICY.exact_tol


@dataclass(frozen=True)
class Operator:
    """Dense observable on a composite space, refused when it is made unless
    hermitian within ``exact_tol``."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __init__(self, dims, matrix):
        object.__setattr__(self, "dims", _as_dims(dims))
        total = int(np.prod(self.dims))
        mat = _frozen_array(matrix, shape=(total, total))
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        if not dev <= DEFAULT_POLICY.exact_tol:     # false for NaN too
            raise ValueError(f"an observable must be hermitian, deviates by {dev:.3e}")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class SchemeOutcome:
    """One labeled outcome: P = F F^dag, F the orthonormal (dim, rank)
    columns of ``frame``; a complement, too, is given by its own frame."""

    label: str
    frame: np.ndarray

    def __post_init__(self):
        frame = _frozen_array(self.frame)
        if frame.ndim != 2:
            raise ValueError(f"a frame is a (dim, rank) array, got shape {frame.shape}")
        object.__setattr__(self, "frame", frame)

    def projector_matrix(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """P |psi> = F (F^dag psi), one vdot per column: no conjugate copy of F."""
        return self.frame @ np.array([np.vdot(col, amplitudes) for col in self.frame.T])


@dataclass(frozen=True)
class MeasurementScheme:
    """Ordered, labeled projector family describing a projective measurement."""

    dims: tuple[int, ...]
    outcomes: tuple[SchemeOutcome, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_dims(self.dims))
        if not self.outcomes:
            raise ValueError("a scheme needs at least one outcome")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @classmethod
    def from_basis(cls, dims, labeled) -> "MeasurementScheme":
        """Build from (label, vectors) pairs, one basis vector per label or
        orthonormal vectors whose span the outcome projects on; validated."""
        outs = tuple(SchemeOutcome(str(lbl), np.atleast_2d(v).T) for lbl, v in labeled)
        scheme = cls(dims=_as_dims(dims), outcomes=outs)
        _require_valid(scheme)
        return scheme


@dataclass(frozen=True)
class SchemeDiagnostics:
    """Max-abs deviations of a scheme's frames from a projector decomposition."""

    idempotence: float
    orthogonality: float
    completeness: float

    def within(self, tol: float) -> bool:
        return max(self.idempotence, self.orthogonality, self.completeness) <= tol


@dataclass(frozen=True)
class OutcomeEntry:
    label: str
    probability: float
    post_state: StateVector | None
    zero_branch: bool = False


@dataclass(frozen=True)
class OutcomeEnsemble:
    """Born-rule outcome table; zero-probability branches kept, flagged inert."""

    entries: tuple[OutcomeEntry, ...]
    tail_bound: float = 0.0

    def __post_init__(self):
        total = sum(e.probability for e in self.entries)
        slack = DEFAULT_POLICY.structural_tol + self.tail_bound
        if not abs(total - 1.0) <= slack:
            raise ValueError(
                f"outcome probabilities sum to {total!r}, outside 1 +/- {slack:.3e}"
            )


# ---------------------------------------------------------------------------
# operations

def tensor_state(factors) -> StateVector:
    """Tensor product of normalized states; dims concatenate."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("tensor_state needs at least one factor")
    for i, f in enumerate(factors):
        if not f.is_normalized():
            raise ValueError(f"factor {i} is not normalized (norm={f.norm!r})")
    amp = factors[0].amplitudes
    dims: tuple[int, ...] = factors[0].dims
    for f in factors[1:]:
        amp = np.kron(amp, f.amplitudes)
        dims = dims + f.dims
    return StateVector(dims, amp)


def embed_local(op: Operator, slot: int, dims) -> Operator:
    """Embed a single-subsystem operator as identity everywhere else."""
    dims = _as_dims(dims)
    if not 0 <= slot < len(dims):
        raise ValueError(f"slot {slot} out of range for dims {dims}")
    if op.dims != (dims[slot],):
        raise ValueError(f"operator dims {op.dims} do not match dims[{slot}]={dims[slot]}")
    mat = np.eye(1, dtype=complex)
    for i, d in enumerate(dims):
        mat = np.kron(mat, op.matrix if i == slot else np.eye(d))
    return Operator(dims, mat)


def qndsv_scheme(target: StateVector) -> MeasurementScheme:
    """Two-outcome verification of |target>: {yes: |t><t|, no: 1 - |t><t|}."""
    if target.norm <= DEFAULT_POLICY.zero_probability:
        raise ValueError("verification target must be a nonzero state")
    if not target.is_normalized():
        raise ValueError(f"verification target is not normalized (norm={target.norm!r})")
    frame = target.amplitudes[:, None]
    # span(t)^perp from a complete QR: orthonormal by construction, so not re-validated
    rest = np.linalg.qr(frame, mode="complete")[0][:, 1:]
    return MeasurementScheme(dims=target.dims, outcomes=(
        SchemeOutcome("yes", frame), SchemeOutcome("no", rest)))


def born_ensemble(scheme: MeasurementScheme, state: StateVector,
                  tail_bound: float = 0.0) -> OutcomeEnsemble:
    """Born probabilities and renormalized post-measurement branches of
    ``scheme``'s outcomes, in order (``branch_ensemble``)."""
    if state.dims != scheme.dims:
        raise ValueError(f"state dims {state.dims} do not match scheme dims {scheme.dims}")
    return branch_ensemble(state, ((out.label, out.apply(state.amplitudes))
                                   for out in scheme.outcomes), tail_bound)


def branch_ensemble(state: StateVector, labeled_branches,
                    tail_bound: float = 0.0) -> OutcomeEnsemble:
    """Outcome table of the branches P_i|psi>, given as (label, amplitudes)
    pairs: Born weight <psi|P_i|psi>, and P_i|psi> renormalized.

    The state's norm must be 1 up to ``tail_bound``.  Only branches with
    probability at or above ``DEFAULT_POLICY.zero_probability`` are divided
    by their norm; the rest are retained with ``zero_branch=True`` and no
    post state.
    """
    nsq = state.norm**2
    slack = DEFAULT_POLICY.structural_tol
    if not 1.0 - tail_bound - slack <= nsq <= 1.0 + slack:      # false for NaN too
        raise ValueError(f"state norm {state.norm!r} inconsistent with tail bound {tail_bound!r}")
    entries = []
    for label, branch in labeled_branches:
        prob = max(float(np.real(np.vdot(state.amplitudes, branch))), 0.0)
        if prob < DEFAULT_POLICY.zero_probability:
            entries.append(OutcomeEntry(label, prob, None, zero_branch=True))
        else:
            post = StateVector(state.dims, branch / np.sqrt(prob))
            entries.append(OutcomeEntry(label, prob, post))
    return OutcomeEnsemble(tuple(entries), tail_bound=tail_bound)


def post_measurement_expectation(state: StateVector, scheme: MeasurementScheme,
                                 obs: Operator) -> float:
    """Ensemble average of obs right after the measurement, <psi|M_O|psi>."""
    if state.dims != scheme.dims:
        raise ValueError(f"state dims {state.dims} do not match scheme dims {scheme.dims}")
    return float(post_measurement_expectations(state.amplitudes, scheme, (obs,))[0])


def post_measurement_expectations(amplitudes: np.ndarray, scheme: MeasurementScheme,
                                  observables) -> np.ndarray:
    """post_measurement_expectation of each observable, in order, for each
    (..., dim) row of amplitudes, shape (len(observables), ...); one M_O per
    observable."""
    if amplitudes.shape[-1] != scheme.dim:
        raise ValueError(f"amplitudes of shape {amplitudes.shape} not on {scheme.dims}")
    return quadratic_forms(amplitudes, [post_measurement_operator(scheme, obs)
                                        for obs in observables])


def quadratic_forms(amplitudes: np.ndarray, matrices) -> np.ndarray:
    """Re <psi|M|psi> of each matrix M for each (..., dim) row, shape (len(matrices), ...)."""
    return np.array([np.einsum("...i,ij,...j->...", amplitudes.conj(), m, amplitudes).real
                     for m in matrices])


def post_measurement_operator(scheme: MeasurementScheme, obs: Operator) -> np.ndarray:
    """M_O = sum_i P_i O P_i (read-only), summed from each outcome's frame F
    as F (F^dag O F) F^dag: O(dim^2 rank) work, and no projector is built."""
    if obs.dims != scheme.dims:
        raise ValueError(f"obs dims {obs.dims} do not match scheme dims {scheme.dims}")
    o, total = obs.matrix, np.zeros_like(obs.matrix)
    for out in scheme.outcomes:
        f, g = out.frame, out.frame.conj().T
        total += f @ ((g @ o) @ f) @ g
    total.setflags(write=False)
    return total


def validate_scheme(scheme: MeasurementScheme) -> SchemeDiagnostics:
    """Max deviations from idempotence, orthogonality and completeness of a
    scheme's frames.

    Diagnostics only; never raises.  Over the stacked frame columns V of all
    outcomes, the Gram matrix V^dag V - 1 gives idempotence in its
    within-outcome blocks and orthogonality in the rest, and V V^dag - 1
    gives completeness.
    """
    frames = [out.frame for out in scheme.outcomes]
    stacked = np.hstack(frames)
    gram = stacked.conj().T @ stacked - np.eye(stacked.shape[1])
    owner = np.repeat(np.arange(len(frames)), [f.shape[1] for f in frames])
    same = owner[:, None] == owner
    return SchemeDiagnostics(_max_abs(gram[same]), _max_abs(gram[~same]),
                             _max_abs(stacked @ stacked.conj().T - np.eye(scheme.dim)))


def _max_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values), initial=0.0))


def _require_valid(scheme: MeasurementScheme) -> None:
    diag = validate_scheme(scheme)
    if not diag.within(DEFAULT_POLICY.structural_tol):
        raise SchemeError(f"scheme fails structural checks: {diag}")


def reduced_projector(proj: Operator, keep: int) -> Operator:
    """Partial trace of a projector over every subsystem except ``keep``.

    For a semicausal scheme all reduced projectors on the remote side are
    proportional to the identity with one common coefficient; this is the
    quantity those checks inspect.
    """
    dims = proj.dims
    if not 0 <= keep < len(dims):
        raise ValueError(f"keep={keep} out of range for dims {dims}")
    n = len(dims)
    tensor = proj.matrix.reshape(dims + dims)
    # trace out subsystems one by one, highest index first
    for slot in reversed([i for i in range(n) if i != keep]):
        k = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=slot, axis2=slot + k)
    return Operator((dims[keep],), tensor)
