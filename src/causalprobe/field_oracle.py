"""Independent truncated-Fock oracle for the lattice field results.

Represents every lattice mode as an explicit truncated oscillator ladder,
builds the kicked vacuum as a kron product of coherent vectors, and measures
through ``core``: the verification is ``core.qndsv_scheme``, the naive pair
collapse ``core.level_scheme`` on the +-p modes.  Nothing here reuses the
closed forms in ``fieldtheory``; agreement between the two is a test, not an
assumption.

phi_y and pi_y are ``core.ModeSumOperator``s, sums of one trunc x trunc
ladder term per mode, each applied along its own axis of the (trunc,)*M
amplitude tensor, so no joint matrix is ever built: memory is O(dim) and one
apply costs O(dim M trunc) with dim = trunc^M.  Under the verification a
second moment applies the sum twice to each of the two branches; under the
naive collapse every moment is one apply of the dephased sum to the prestate
(``core`` docstring), with no branch built.  The oracle refuses a lattice
whose live vectors would exceed ``_ORACLE_BYTE_BUDGET`` (256 MiB; d=1, N=8 at
trunc 6 fits, trunc 7 does not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ModeSumOperator, StateVector, level_scheme, post_measurement_expectation,
                   post_measurement_expectations, qndsv_scheme)
from .fieldtheory import KickSpec, kick_displacements, qndsv_phi2_y_candidate
from .lattice import ModeSet
from .oscillators import coherent_amplitudes, ladder
from .policy import checked_tail

_ORACLE_BYTE_BUDGET = 256 * 2**20
# Dim-sized complex vectors a call may hold at once.  Verification: the
# prestate, the target (shared by both outcomes), one branch at a time, and the
# intermediate, accumulator and term product of a squared apply (6, traced).
# Naive collapse: the prestate and one dephased apply (4, traced).  Two spare.
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
    return StateVector(dims, amp), checked_tail(float(np.sum(np.abs(amp) ** 2)),
                                                f"per-mode truncation {trunc}")


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
    of mode p, both branches built once for all observables.  scheme_kind
    "naive": collapse of the +-p pair onto joint number states,
    ``core.level_scheme`` on the two modes, whose averages ``core`` reads
    from the prestate with one dephased apply per observable instead of
    trunc^2 branches.  Both kinds run through one
    ``core.post_measurement_expectations`` call.
    """
    if not modes.is_paired(p_index):
        raise ValueError(f"mode {p_index} is self-conjugate")
    state, tail = oracle_prestate(modes, kick, trunc)
    phi, pi = field_operator(modes, y, trunc), momentum_operator(modes, y, trunc)
    # callables, so that a call makes only the operators it asks for
    known = {"phi_y": lambda: phi, "pi_y": lambda: pi, "phi2_y": phi.squared,
             "pi2_y": pi.squared}
    for name in observables:
        if name not in known:
            raise ValueError(f"unknown field observable {name!r}")
    ops = {name: known[name]() for name in observables}

    pre = {name: float(op.expectation(state)) for name, op in ops.items()}

    p_yes = None
    if scheme_kind == "qndsv":
        target = one_particle_state(modes, p_index, trunc)
        scheme = qndsv_scheme(target)
        p_yes = float(abs(target.overlap(state)) ** 2)
    elif scheme_kind == "naive":
        scheme = level_scheme(state.dims, (p_index, int(modes.conjugate_index[p_index])))
    else:
        raise ValueError(f"unknown scheme kind {scheme_kind!r}")
    post = dict(zip(ops, post_measurement_expectations(state, scheme, ops.values())))
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
