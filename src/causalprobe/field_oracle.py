"""Independent truncated-Fock oracle for the lattice field results.

Represents every lattice mode as an explicit truncated oscillator ladder,
builds the kicked vacuum as a kron product of coherent vectors, applies the
measurement exactly as a projector family on the joint space, and reads
observables off mode-local operators.  Nothing here reuses the closed forms
in ``fieldtheory``; agreement between the two is a test, not an assumption.

phi_y and pi_y are sums of one trunc x trunc ladder term per mode, each
applied along its own axis of the (trunc,)*M amplitude tensor, so no joint
matrix is ever built: memory is O(dim) and one apply costs O(dim M trunc)
with dim = trunc^M.  Second moments apply the sum twice.  The oracle
refuses a lattice whose live vectors would exceed ``_ORACLE_BYTE_BUDGET``
(256 MiB; d=1, N=8 at trunc 6 fits, trunc 7 does not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import StateVector, post_measurement_expectation, qndsv_scheme
from .fieldtheory import KickSpec, kick_displacements, qndsv_phi2_y_candidate
from .lattice import ModeSet
from .oscillators import coherent_amplitudes, ladder
from .policy import DEFAULT_POLICY, TruncationError

_ORACLE_BYTE_BUDGET = 256 * 2**20
# Dim-sized complex vectors a call may hold at once: the prestate, the
# verification target (shared by both outcomes), the two branches, and the
# intermediate, accumulator and term product of a squared apply; one spare.
_LIVE_VECTORS = 8


def oracle_dims(modes: ModeSet, trunc: int) -> tuple[int, ...]:
    dims = (int(trunc),) * modes.n_modes
    need = math.prod(dims) * np.dtype(complex).itemsize * _LIVE_VECTORS
    if need > _ORACLE_BYTE_BUDGET:
        raise ValueError(
            f"oracle needs {need} bytes for {modes.n_modes} modes at trunc {trunc}, "
            f"over the byte budget {_ORACLE_BYTE_BUDGET}")
    return dims


def oracle_prestate(modes: ModeSet, kick: KickSpec, trunc: int) -> tuple[StateVector, float]:
    """Kicked vacuum as a product of per-mode truncated coherent vectors."""
    dims = oracle_dims(modes, trunc)
    alphas = kick_displacements(modes, kick)
    amp = np.array([1.0], dtype=complex)
    for a in alphas:
        amp = np.kron(amp, coherent_amplitudes(a, trunc))
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amp) ** 2)))
    if tail > DEFAULT_POLICY.tail_tol:
        raise TruncationError(f"per-mode truncation {trunc} leaves tail {tail:.3e}"
                              f" > {DEFAULT_POLICY.tail_tol:.0e}")
    return StateVector(dims, amp), tail


@dataclass(frozen=True)
class ModeSumOperator:
    """(sum_i T_i)^power with T_i a hermitian term on mode i alone.

    Never materialized: ``apply`` runs each term along its own tensor axis.
    Provides the ``dims``/``hermitian``/``apply`` interface the generic
    ``core`` machinery uses for dense operators.
    """

    dims: tuple[int, ...]
    terms: tuple[np.ndarray, ...]
    power: int = 1
    hermitian = True

    def __post_init__(self):
        for i, term in enumerate(self.terms):
            dev = float(np.max(np.abs(term - term.conj().T)))
            if dev > DEFAULT_POLICY.exact_tol:
                raise ValueError(f"term {i} deviates from hermitian by {dev:.3e}")

    def squared(self) -> "ModeSumOperator":
        return replace(self, power=2 * self.power)

    def _apply_once(self, amplitudes: np.ndarray) -> np.ndarray:
        out = np.zeros(amplitudes.size, dtype=complex)
        pre = 1
        for d, term in zip(self.dims, self.terms):
            # (pre, d, post) view: the term acts on the middle axis
            out += (term @ amplitudes.reshape(pre, d, -1)).reshape(-1)
            pre *= d
        return out

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        for _ in range(self.power):
            amplitudes = self._apply_once(amplitudes)
        return amplitudes

    def expectation(self, state: StateVector) -> float:
        if state.dims != self.dims:
            raise ValueError(f"dims mismatch: {state.dims} vs {self.dims}")
        return float(np.real(np.vdot(state.amplitudes, self.apply(state.amplitudes))))


def _mode_term(angle: float, trunc: int, weight: float, momentum: bool) -> np.ndarray:
    a = ladder(trunc)
    phase = np.exp(1j * angle)
    if momentum:
        return -1j * weight * (phase * a - np.conj(phase) * a.conj().T)
    return weight * (phase * a + np.conj(phase) * a.conj().T)


def field_operator(modes: ModeSet, y, trunc: int) -> ModeSumOperator:
    """phi_y = sum_k sqrt(hbar/2 omega_k V)(e^{ik.y} b_k + h.c.)."""
    lat = modes.lattice
    weights = np.sqrt(lat.hbar / (2.0 * modes.omega * lat.volume))
    return ModeSumOperator(oracle_dims(modes, trunc), tuple(
        _mode_term(t, trunc, w, momentum=False) for t, w in zip(modes.phases(y), weights)))


def momentum_operator(modes: ModeSet, y, trunc: int) -> ModeSumOperator:
    """pi_y = -i sum_k sqrt(hbar omega_k / 2V)(e^{ik.y} b_k - h.c.)."""
    lat = modes.lattice
    weights = np.sqrt(lat.hbar * modes.omega / (2.0 * lat.volume))
    return ModeSumOperator(oracle_dims(modes, trunc), tuple(
        _mode_term(t, trunc, w, momentum=True) for t, w in zip(modes.phases(y), weights)))


def one_particle_state(modes: ModeSet, p_index: int, trunc: int) -> StateVector:
    """b_p^dag |0>: single excitation in mode p, vacuum elsewhere."""
    dims = oracle_dims(modes, trunc)
    index = [0] * modes.n_modes
    index[p_index] = 1
    return StateVector.basis_state(dims, tuple(index))


def one_particle_packet_state(modes: ModeSet, packet, t1: float,
                              trunc: int) -> StateVector:
    """One-particle state of a wave packet: sum_k w_k b_k^dag |0> with
    w_k = sqrt(eps) packet_k e^{-i omega_k t1} (unit norm by the packet
    normalization convention)."""
    packet.validate(modes)
    dims = oracle_dims(modes, trunc)
    weights = (np.sqrt(modes.eps) * packet.spectral
               * np.exp(-1j * modes.omega * t1))
    amp = np.zeros(math.prod(dims), dtype=complex)
    for i, w in enumerate(weights):
        if w == 0:
            continue
        index = [0] * modes.n_modes
        index[i] = 1
        flat = int(np.ravel_multi_index(tuple(index), dims))
        amp[flat] = w
    return StateVector(dims, amp)


def _naive_expectation(state: StateVector, obs: ModeSumOperator, mode_a: int,
                       mode_b: int) -> float:
    """sum_{m,n} <psi|P_mn O P_mn|psi> with P_mn the joint number projector
    on the two pair modes (identity elsewhere), applied as an index mask.

    Same semantics as a Lueders projector family through the generic
    machinery; kept mask-based so no joint-space projector matrices are
    ever materialized.
    """
    dims = state.dims
    tensor = state.amplitudes.reshape(dims)
    total = 0.0
    for m in range(dims[mode_a]):
        for n in range(dims[mode_b]):
            sel = [slice(None)] * len(dims)
            sel[mode_a], sel[mode_b] = m, n
            branch = np.zeros_like(tensor)
            branch[tuple(sel)] = tensor[tuple(sel)]
            flat = branch.reshape(-1)
            total += float(np.real(np.vdot(flat, obs.apply(flat))))
    return total


def naive_outcome_probabilities(modes: ModeSet, kick: KickSpec, p_index: int,
                                trunc: int) -> np.ndarray:
    """P_mn table for the naive pair measurement (Poisson products)."""
    state, _ = oracle_prestate(modes, kick, trunc)
    q_index = int(modes.conjugate_index[p_index])
    tensor = np.abs(state.amplitudes.reshape(state.dims)) ** 2
    axes = tuple(i for i in range(modes.n_modes) if i not in (p_index, q_index))
    probs = tensor.sum(axis=axes)
    return probs if p_index < q_index else probs.T


@dataclass(frozen=True)
class OracleReport:
    """Oracle expectation values before and after the measurement."""

    scheme_kind: str
    values: dict
    prestate_values: dict
    tail_bound: float
    p_yes: float | None = None


def numeric_oracle_qndsv(modes: ModeSet, kick: KickSpec, y, p_index: int,
                         trunc: int, scheme_kind: str = "qndsv",
                         observables=("phi_y", "pi_y", "phi2_y", "pi2_y")) -> OracleReport:
    """Exact truncated-Fock evaluation of Bob's local moments at y.

    scheme_kind "qndsv": two-outcome verification of the one-particle state
    of mode p.  scheme_kind "naive": collapse of the +-p pair onto joint
    number states.
    """
    if not modes.is_paired(p_index):
        raise ValueError(f"mode {p_index} is self-conjugate")
    state, tail = oracle_prestate(modes, kick, trunc)
    ops = {}
    phi = field_operator(modes, y, trunc)
    pi = momentum_operator(modes, y, trunc)
    for name in observables:
        if name == "phi_y":
            ops[name] = phi
        elif name == "pi_y":
            ops[name] = pi
        elif name == "phi2_y":
            ops[name] = phi.squared()
        elif name == "pi2_y":
            ops[name] = pi.squared()
        else:
            raise ValueError(f"unknown field observable {name!r}")

    pre = {name: float(op.expectation(state)) for name, op in ops.items()}

    p_yes = None
    if scheme_kind == "qndsv":
        target = one_particle_state(modes, p_index, trunc)
        scheme = qndsv_scheme(target)
        p_yes = float(abs(target.overlap(state)) ** 2)
        post = {name: post_measurement_expectation(state, scheme, op)
                for name, op in ops.items()}
    elif scheme_kind == "naive":
        q_index = int(modes.conjugate_index[p_index])
        post = {name: _naive_expectation(state, op, p_index, q_index)
                for name, op in ops.items()}
    else:
        raise ValueError(f"unknown scheme kind {scheme_kind!r}")
    return OracleReport(scheme_kind=scheme_kind, values=post, prestate_values=pre,
                        tail_bound=tail, p_yes=p_yes)


def oracle_qndsv_packet_phi_y(modes: ModeSet, kick: KickSpec, y, packet,
                              t1: float, trunc: int) -> float:
    """<phi_y> after verifying the one-particle state of a wave packet,
    exact on the truncated joint space."""
    state, _ = oracle_prestate(modes, kick, trunc)
    target = one_particle_packet_state(modes, packet, t1, trunc)
    scheme = qndsv_scheme(target)
    phi = field_operator(modes, y, trunc)
    return post_measurement_expectation(state, scheme, phi)


@dataclass(frozen=True)
class Phi2Comparison:
    """Side-by-side <phi_y^2> after the single-mode verification.

    ``closed_form`` is the paper's candidate
    (``fieldtheory.qndsv_phi2_y_candidate``), which disagrees with the
    oracle systematically, already at lam = 0; reports use
    ``fieldtheory.qndsv_phi2_y``, which matches it.
    """

    closed_form: float
    oracle: float
    difference: float
    tail_bound: float


def phi2_comparison(modes: ModeSet, kick: KickSpec, y, p_index: int,
                    trunc: int) -> Phi2Comparison:
    closed = qndsv_phi2_y_candidate(modes, kick, y, p_index)
    report = numeric_oracle_qndsv(modes, kick, y, p_index, trunc,
                                  scheme_kind="qndsv", observables=("phi2_y",))
    oracle = report.values["phi2_y"]
    return Phi2Comparison(closed_form=closed, oracle=oracle,
                          difference=closed - oracle, tail_bound=report.tail_bound)
