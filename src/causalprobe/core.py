"""Finite-dimensional Hilbert-space engine.

States and operators over a composite space with explicit subsystem
dimensions (row-major tensor ordering, subsystem 0 is the slowest index),
projective measurement schemes, Born-rule outcome ensembles, and the
post-measurement ensemble average

    <O> = sum_i <psi| P_i O P_i |psi>,

which equals the probability-weighted average over renormalized branches
because each branch's normalization cancels its Born weight.

Every outcome's ``apply`` gives P|psi> without building P: it projects
onto the span of orthonormal columns F, P = F F^dag, or onto its implicit
complement.  Complete measurements, Lueders projections and the
verification of one state share that one type; observables are dense
``Operator``s.  A reference that forms its branches P_i|psi> by other means
(the oscillators' number collapse keeps rows of an amplitude matrix) hands
them to ``branch_ensemble``, which applies the same Born rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import DEFAULT_POLICY


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

    def normalized(self) -> "StateVector":
        if self.norm == 0.0:
            raise ZeroProbabilityBranch("cannot normalize a zero vector")
        return StateVector(self.dims, self.amplitudes / self.norm)

    def overlap(self, other: "StateVector") -> complex:
        if self.dims != other.dims:
            raise ValueError(f"dims mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def same_up_to_phase(self, other: "StateVector") -> bool:
        return abs(abs(self.overlap(other)) - 1.0) <= DEFAULT_POLICY.structural_tol


@dataclass(frozen=True)
class Operator:
    """Dense operator on a composite space; checked hermitian when flagged."""

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
        """O |psi> for each row of a (..., dim) stack, one stacked matmul."""
        return (self.matrix @ amplitudes[..., None])[..., 0]

    def expectation(self, state: StateVector):
        if state.dims != self.dims:
            raise ValueError(f"dims mismatch: {state.dims} vs {self.dims}")
        val = complex(np.vdot(state.amplitudes, self.apply(state.amplitudes)))
        return float(val.real) if self.hermitian else val


@dataclass(frozen=True)
class SchemeOutcome:
    """One labeled outcome: P = F F^dag, F the orthonormal (dim, rank)
    columns of ``frame``, or P = 1 - F F^dag when ``complement`` is set.

    The complement stays implicit, so verifying one state of a large space
    never builds a dim x dim matrix.
    """

    label: str
    frame: np.ndarray
    complement: bool = False

    def __post_init__(self):
        frame = _frozen_array(self.frame)
        if frame.ndim != 2:
            raise ValueError(f"a frame is a (dim, rank) array, got shape {frame.shape}")
        object.__setattr__(self, "frame", frame)

    def projector_matrix(self) -> np.ndarray:
        proj = self.frame @ self.frame.conj().T
        return np.eye(len(proj)) - proj if self.complement else proj

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """P |psi> = F (F^dag psi) for each row of a (..., dim) stack."""
        coeffs = _vdots(self.frame.T, amplitudes[..., None, :])
        comp = (self.frame @ coeffs[..., None])[..., 0]
        return amplitudes - comp if self.complement else comp


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
        if abs(total - 1.0) > slack:
            raise ValueError(
                f"outcome probabilities sum to {total!r}, outside 1 +/- {slack:.3e}"
            )

    def probability(self, label: str) -> float:
        for e in self.entries:
            if e.label == label:
                return e.probability
        raise KeyError(label)


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
    return Operator(dims, mat, hermitian=op.hermitian)


def qndsv_scheme(target: StateVector) -> MeasurementScheme:
    """Two-outcome verification of |target>: {yes: |t><t|, no: 1 - |t><t|}."""
    if target.norm <= DEFAULT_POLICY.zero_probability:
        raise ValueError("verification target must be a nonzero state")
    if not target.is_normalized():
        raise ValueError(f"verification target is not normalized (norm={target.norm!r})")
    frame = target.amplitudes[:, None]     # both outcomes share the read-only target
    return MeasurementScheme(dims=target.dims, outcomes=(
        SchemeOutcome("yes", frame), SchemeOutcome("no", frame, complement=True)))


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
    if nsq > 1.0 + slack or nsq < 1.0 - tail_bound - slack:
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
    """Ensemble average of obs right after the measurement.

    Evaluates sum_i <psi|P_i O P_i|psi> directly; zero-probability branches
    contribute nothing because P_i|psi> already vanishes on them.
    """
    return float(post_measurement_expectations(state, scheme, (obs,))[0])


def post_measurement_expectations(state, scheme: MeasurementScheme,
                                  observables) -> np.ndarray:
    """post_measurement_expectation of each observable, in order, for a
    StateVector, shape (len(observables),), or for each row of an (L, dim)
    stack of amplitudes, shape (len(observables), L).  Each outcome's
    branches P_i|psi> are computed once, for every row and observable.
    """
    amplitudes = getattr(state, "amplitudes", state)
    observables = tuple(observables)
    for obs in observables:
        if getattr(state, "dims", scheme.dims) != scheme.dims \
                or amplitudes.shape[-1] != scheme.dim or obs.dims != scheme.dims:
            raise ValueError(f"dims mismatch: state {getattr(state, 'dims', amplitudes.shape)}, "
                             f"scheme {scheme.dims}, obs {obs.dims}")
        if not obs.hermitian:
            raise ValueError("observable must be flagged (and be) hermitian")
    totals = np.zeros((len(observables),) + amplitudes.shape[:-1])
    for out in scheme.outcomes:
        branches = out.apply(amplitudes)
        for i, obs in enumerate(observables):
            totals[i] += _vdots(branches, obs.apply(branches)).real
    return totals


def _vdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vdot of each pair of rows of two (..., n) stacks, as (1, n) @ (n, 1) products."""
    return (np.conj(a)[..., None, :] @ b[..., :, None])[..., 0, 0]


def validate_scheme(scheme: MeasurementScheme) -> SchemeDiagnostics:
    """Max deviations from idempotence, orthogonality and completeness of a
    scheme's frames.

    Diagnostics only; never raises.  Over the stacked frame columns V of all
    outcomes, the Gram matrix V^dag V - 1 gives idempotence in its
    within-outcome blocks and orthogonality in the rest, and V V^dag - 1
    gives completeness.  A complement outcome enters as an orthonormal basis
    of its range, span(F)^perp, and adds F^dag F - 1 to idempotence.
    """
    frames, idem = [], 0.0
    for out in scheme.outcomes:
        frame, rank = out.frame, out.frame.shape[1]
        if out.complement:
            idem = max(idem, _max_abs(frame.conj().T @ frame - np.eye(rank)))
            frame = np.linalg.qr(frame, mode="complete")[0][:, rank:]
        frames.append(frame)
    stacked = np.hstack(frames)
    gram = stacked.conj().T @ stacked - np.eye(stacked.shape[1])
    owner = np.repeat(np.arange(len(frames)), [f.shape[1] for f in frames])
    same = owner[:, None] == owner
    return SchemeDiagnostics(max(idem, _max_abs(gram[same])), _max_abs(gram[~same]),
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
    return Operator((dims[keep],), tensor, hermitian=proj.hermitian)
