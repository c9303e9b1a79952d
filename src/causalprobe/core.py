"""Finite-dimensional Hilbert-space engine.

States and operators over a composite space with explicit subsystem
dimensions (row-major tensor ordering, subsystem 0 is the slowest index),
projective measurement schemes, Born-rule outcome ensembles, and the
post-measurement ensemble average

    <O> = sum_i <psi| P_i O P_i |psi>,

which equals the probability-weighted average over renormalized branches
because each branch's normalization cancels its Born weight.

Projectors are stored as dense matrices by default so that rank-1
(complete orthogonal) and multi-rank (Lueders) schemes run through one
code path.  Schemes made of rank-1 projectors may instead be backed by
their basis vectors; the dense matrix is then materialized on demand.
This matters for the large oscillator schemes, where storing every
projector densely is not feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import DEFAULT_POLICY, NumericPolicy

KIND_COMPLETE = "complete-orthogonal"
KIND_QNDSV = "qndsv"
KIND_LUDERS = "luders"
_KINDS = (KIND_COMPLETE, KIND_QNDSV, KIND_LUDERS)


class SchemeError(ValueError):
    """A measurement scheme fails its structural requirements."""


class ZeroProbabilityBranch(ValueError):
    """Renormalization requested for a branch of (numerically) zero weight."""


def _as_dims(dims) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d <= 0 for d in out):
        raise ValueError(f"subsystem dimensions must be positive, got {dims!r}")
    return out


def _frozen_array(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
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

    @classmethod
    def basis_state(cls, dims, index) -> "StateVector":
        dims = _as_dims(dims)
        amp = np.zeros(int(np.prod(dims)), dtype=complex)
        flat = int(np.ravel_multi_index(tuple(index), dims)) if not np.isscalar(index) else int(index)
        amp[flat] = 1.0
        return cls(dims, amp)

    def is_normalized(self, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
        return abs(self.norm - 1.0) <= policy.exact_tol

    def normalized(self) -> "StateVector":
        if self.norm == 0.0:
            raise ZeroProbabilityBranch("cannot normalize a zero vector")
        return StateVector(self.dims, self.amplitudes / self.norm)

    def overlap(self, other: "StateVector") -> complex:
        if self.dims != other.dims:
            raise ValueError(f"dims mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def same_up_to_phase(self, other: "StateVector", tol: float = 1e-10) -> bool:
        return abs(abs(self.overlap(other)) - 1.0) <= tol


@dataclass(frozen=True)
class Operator:
    """Dense operator on a composite space; hermiticity validated when flagged."""

    dims: tuple[int, ...]
    matrix: np.ndarray
    hermitian: bool = False

    def __init__(self, dims, matrix, hermitian=False):
        object.__setattr__(self, "dims", _as_dims(dims))
        total = int(np.prod(self.dims))
        mat = _frozen_array(matrix, shape=(total, total))
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "hermitian", bool(hermitian))
        if self.hermitian:
            dev = float(np.max(np.abs(mat - mat.conj().T)))
            if dev > DEFAULT_POLICY.exact_tol:
                raise ValueError(f"operator flagged hermitian deviates by {dev:.3e}")

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """O |psi> on a flat amplitude vector."""
        return self.matrix @ amplitudes

    def expectation(self, state: StateVector):
        if state.dims != self.dims:
            raise ValueError(f"dims mismatch: {state.dims} vs {self.dims}")
        val = complex(np.vdot(state.amplitudes, self.apply(state.amplitudes)))
        return float(val.real) if self.hermitian else val


@dataclass(frozen=True)
class SchemeOutcome:
    """One labeled outcome: a dense projector, or a rank-1 basis vector.

    ``complement=True`` (vector-backed only) means P = 1 - |v><v|, kept
    implicit so that verification-style schemes never materialize the
    large complement matrix unless explicitly asked to.
    """

    label: str
    projector: np.ndarray | None = None
    vector: np.ndarray | None = None
    complement: bool = False

    def __post_init__(self):
        if (self.projector is None) == (self.vector is None):
            raise ValueError("exactly one of projector/vector must be given")
        if self.complement and self.vector is None:
            raise ValueError("complement outcomes must be vector-backed")
        arr = self.projector if self.projector is not None else self.vector
        arr = _frozen_array(arr)
        if self.projector is not None:
            object.__setattr__(self, "projector", arr)
        else:
            object.__setattr__(self, "vector", arr)

    @property
    def is_rank_one_vector(self) -> bool:
        return self.vector is not None and not self.complement

    def projector_matrix(self) -> np.ndarray:
        if self.projector is not None:
            return self.projector
        proj = np.outer(self.vector, np.conj(self.vector))
        if self.complement:
            proj = np.eye(self.vector.size) - proj
        return proj

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """P |psi> without materializing the complement projector."""
        if self.projector is not None:
            return self.projector @ amplitudes
        comp = self.vector * np.vdot(self.vector, amplitudes)
        return amplitudes - comp if self.complement else comp


@dataclass(frozen=True)
class MeasurementScheme:
    """Ordered, labeled projector family describing a projective measurement."""

    dims: tuple[int, ...]
    outcomes: tuple[SchemeOutcome, ...]
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_dims(self.dims))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}; expected one of {_KINDS}")
        if not self.outcomes:
            raise ValueError("a scheme needs at least one outcome")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @classmethod
    def from_projectors(cls, dims, labeled, kind=KIND_COMPLETE, *,
                        validate=True, policy=DEFAULT_POLICY) -> "MeasurementScheme":
        """Build from (label, matrix) pairs; matrices may be Operator or ndarray."""
        outs = []
        for label, proj in labeled:
            mat = proj.matrix if isinstance(proj, Operator) else np.asarray(proj, dtype=complex)
            outs.append(SchemeOutcome(label=str(label), projector=mat))
        scheme = cls(dims=_as_dims(dims), outcomes=tuple(outs), kind=kind)
        if validate:
            _require_valid(scheme, policy)
        return scheme

    @classmethod
    def from_basis(cls, dims, labeled, kind=KIND_COMPLETE, *,
                   validate=True, policy=DEFAULT_POLICY) -> "MeasurementScheme":
        """Build a rank-1 scheme from (label, basis vector) pairs."""
        outs = tuple(SchemeOutcome(label=str(lbl), vector=np.asarray(v, dtype=complex))
                     for lbl, v in labeled)
        scheme = cls(dims=_as_dims(dims), outcomes=outs, kind=kind)
        if validate:
            _require_valid(scheme, policy)
        return scheme


@dataclass(frozen=True)
class SchemeDiagnostics:
    """Max-abs deviations of a scheme from an exact projector decomposition."""

    idempotence: float
    hermiticity: float
    orthogonality: float
    completeness: float

    def within(self, tol: float) -> bool:
        return max(self.idempotence, self.hermiticity,
                   self.orthogonality, self.completeness) <= tol


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
        if abs(total - 1.0) > slack:
            raise ValueError(
                f"outcome probabilities sum to {total!r}, outside 1 +/- {slack:.3e}"
            )

    def probability(self, label: str) -> float:
        for e in self.entries:
            if e.label == label:
                return e.probability
        raise KeyError(label)

    def nonzero(self) -> tuple[OutcomeEntry, ...]:
        return tuple(e for e in self.entries if not e.zero_branch)

    def average(self, obs: Operator) -> float:
        """Probability-weighted expectation of obs over the branches."""
        total = 0.0
        for e in self.entries:
            if e.zero_branch:
                continue
            total += e.probability * obs.expectation(e.post_state)
        return total


# ---------------------------------------------------------------------------
# operations

def tensor_state(factors, policy: NumericPolicy = DEFAULT_POLICY) -> StateVector:
    """Tensor product of normalized states; dims concatenate."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("tensor_state needs at least one factor")
    for i, f in enumerate(factors):
        if not f.is_normalized(policy):
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
    return Operator(dims, mat, hermitian=op.hermitian)


def qndsv_scheme(target: StateVector, policy: NumericPolicy = DEFAULT_POLICY) -> MeasurementScheme:
    """Two-outcome verification of |target>: {yes: |t><t|, no: 1 - |t><t|}."""
    if target.norm <= policy.zero_probability:
        raise ValueError("verification target must be a nonzero state")
    if not target.is_normalized(policy):
        raise ValueError(f"verification target is not normalized (norm={target.norm!r})")
    v = target.amplitudes
    outcomes = (
        SchemeOutcome(label="yes", vector=v),
        SchemeOutcome(label="no", vector=v, complement=True),
    )
    return MeasurementScheme(dims=target.dims, outcomes=outcomes, kind=KIND_QNDSV)


def born_ensemble(scheme: MeasurementScheme, state: StateVector,
                  policy: NumericPolicy = DEFAULT_POLICY,
                  tail_bound: float = 0.0) -> OutcomeEnsemble:
    """Born probabilities and renormalized post-measurement branches.

    Branches with probability below ``policy.zero_probability`` are retained
    with ``zero_branch=True`` and no post state; asking this function to
    renormalize them anyway is what ``ZeroProbabilityBranch`` guards inside
    ``StateVector.normalized``.
    """
    if state.dims != scheme.dims:
        raise ValueError(f"state dims {state.dims} do not match scheme dims {scheme.dims}")
    nsq = state.norm**2
    if nsq > 1.0 + policy.structural_tol or nsq < 1.0 - tail_bound - policy.structural_tol:
        raise ValueError(f"state norm {state.norm!r} inconsistent with tail bound {tail_bound!r}")
    entries = []
    for out in scheme.outcomes:
        branch = out.apply(state.amplitudes)
        prob = float(np.real(np.vdot(state.amplitudes, branch)))
        prob = max(prob, 0.0)
        if prob < policy.zero_probability:
            entries.append(OutcomeEntry(out.label, prob, None, zero_branch=True))
        else:
            post = StateVector(scheme.dims, branch / np.sqrt(prob))
            entries.append(OutcomeEntry(out.label, prob, post))
    return OutcomeEnsemble(tuple(entries), tail_bound=tail_bound)


def post_measurement_expectation(state: StateVector, scheme: MeasurementScheme,
                                 obs: Operator,
                                 policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Ensemble average of obs right after the measurement.

    Evaluates sum_i <psi|P_i O P_i|psi> directly; zero-probability branches
    contribute nothing because P_i|psi> already vanishes on them.  ``obs``
    may be any operator with ``dims``, ``hermitian`` and ``apply``, so
    matrix-free operators run through the same path as dense ones.
    """
    return post_measurement_expectations(state, scheme, (obs,))[0]


def post_measurement_expectations(state: StateVector, scheme: MeasurementScheme,
                                  observables) -> list[float]:
    """post_measurement_expectation of each observable, in order; each
    branch P_i|psi> is computed once and shared by all of them."""
    observables = tuple(observables)
    for obs in observables:
        if state.dims != scheme.dims or obs.dims != scheme.dims:
            raise ValueError(
                f"dims mismatch: state {state.dims}, scheme {scheme.dims}, obs {obs.dims}")
        if not obs.hermitian:
            raise ValueError("observable must be flagged (and be) hermitian")
    branches = [out.apply(state.amplitudes) for out in scheme.outcomes]
    return [sum(float(np.real(np.vdot(branch, obs.apply(branch)))) for branch in branches)
            for obs in observables]


def validate_scheme(scheme: MeasurementScheme) -> SchemeDiagnostics:
    """Max deviations from idempotence, hermiticity, orthogonality, completeness.

    Diagnostics only; never raises.  Fully vector-backed schemes are checked
    through their Gram matrix, which keeps the large rank-1 families cheap.
    """
    dim = scheme.dim
    if all(o.is_rank_one_vector for o in scheme.outcomes):
        vecs = np.column_stack([o.vector for o in scheme.outcomes])
        gram = vecs.conj().T @ vecs
        norms = np.real(np.diag(gram))
        peak = np.max(np.abs(vecs), axis=0)
        idem = float(np.max(np.abs(norms - 1.0) * peak**2))
        off = gram - np.diag(np.diag(gram))
        ortho = 0.0
        if len(scheme.outcomes) > 1:
            ortho = float(np.max(np.abs(off) * np.outer(peak, peak)))
        comp = float(np.max(np.abs(vecs @ vecs.conj().T - np.eye(dim))))
        return SchemeDiagnostics(idem, 0.0, ortho, comp)

    projs = [o.projector_matrix() for o in scheme.outcomes]
    idem = max(float(np.max(np.abs(p @ p - p))) for p in projs)
    herm = max(float(np.max(np.abs(p - p.conj().T))) for p in projs)
    ortho = 0.0
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            ortho = max(ortho, float(np.max(np.abs(projs[i] @ projs[j]))))
    comp = float(np.max(np.abs(sum(projs) - np.eye(dim))))
    return SchemeDiagnostics(idem, herm, ortho, comp)


def _require_valid(scheme: MeasurementScheme, policy: NumericPolicy) -> None:
    diag = validate_scheme(scheme)
    if not diag.within(policy.structural_tol):
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
    return Operator((dims[keep],), tensor, hermitian=proj.hermitian)
