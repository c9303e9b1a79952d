"""Dense truncated-Fock reference for the field oracle.

Holds the kicked vacuum as one trunc^M amplitude vector, the kron product of
the per-mode coherent vectors, and measures it on that vector.  phi_y and
pi_y are the term stacks of ``field_oracle``, one trunc x trunc term per
mode; ``apply_mode_sum`` runs each term along its own axis of the
(trunc,)*M amplitude tensor.  The verification's branches are
yes = t <t|psi> and no = psi - yes, the naive pair collapse a number
measurement of the +-p modes.  Tests use it to check the factorised
``field_oracle.numeric_oracle_qndsv``, and it carries the wave-packet
verification, which no command reaches.

A full number measurement needs no branches for a mode sum O = sum_k T_k.
Its level projectors P_i on slots S commute with every term off S, so

    sum_i P_i O P_i   = D,
    sum_i P_i O^2 P_i = D^2 + sum_{k in S} diag_k(sum_{m != n} |T_k[m, n]|^2),

with D the sum whose measured terms T_k (k in S) keep only their diagonal.
Hence <O> = <psi|D psi> and <O^2> = |D psi|^2 + sum_{k in S} sum_n
p_k(n) sum_{m != n} |T_k[m, n]|^2, p_k the level marginal of slot k: one
apply of D on the prestate instead of one branch per joint level
(``dephased_expectation`` below).
"""

from __future__ import annotations

import math

import numpy as np

from causalprobe.core import StateVector
from causalprobe.field_oracle import OracleReport, field_operator, momentum_operator
from causalprobe.fieldtheory import KickSpec, kick_displacements
from causalprobe.lattice import ModeSet
from causalprobe.oscillators import coherent_amplitudes
from causalprobe.policy import checked_tail

# the kron prestate is refused above this many joint amplitudes (64 MiB)
MAX_AMPLITUDES = 2**22


def oracle_dims(modes: ModeSet, trunc: int) -> tuple[int, ...]:
    """(trunc,)*M, refused when trunc^M exceeds MAX_AMPLITUDES; exact
    integers, so a huge lattice cannot wrap around to a small size."""
    if int(trunc) ** modes.n_modes > MAX_AMPLITUDES:
        raise ValueError(f"{modes.n_modes} modes at trunc {trunc} exceed the dense "
                         f"reference's {MAX_AMPLITUDES} amplitudes")
    return (int(trunc),) * modes.n_modes


def oracle_prestate(modes: ModeSet, kick: KickSpec, trunc: int) -> tuple[StateVector, float]:
    """Kicked vacuum as a kron product of per-mode truncated coherent vectors."""
    dims = oracle_dims(modes, trunc)
    amp = np.array([1.0], dtype=complex)
    for a in kick_displacements(modes, kick):
        amp = np.kron(amp, coherent_amplitudes(a, trunc))
    return StateVector(dims, amp), checked_tail(float(np.sum(np.abs(amp) ** 2)),
                                                f"per-mode truncation {trunc}")


def apply_mode_sum(terms, amplitudes: np.ndarray, power: int = 1) -> np.ndarray:
    """(sum_k T_k)^power |psi>, with T_k one square term per subsystem k,
    each applied along its own axis of the amplitude tensor."""
    for _ in range(power):
        out = np.zeros(amplitudes.size, dtype=complex)
        pre = 1
        for term in terms:
            # (pre, d, post) view: the term acts on the middle axis
            out += (term @ amplitudes.reshape(pre, len(term), -1)).reshape(-1)
            pre *= len(term)
        amplitudes = out
    return amplitudes


def one_particle_state(modes: ModeSet, p_index: int, trunc: int) -> StateVector:
    """b_p^dag |0>: single excitation in mode p, vacuum elsewhere."""
    weights = np.zeros(modes.n_modes, dtype=complex)
    weights[p_index] = 1.0
    return _one_particle(modes, weights, trunc)


def one_particle_packet_state(modes: ModeSet, packet, t1: float,
                              trunc: int) -> StateVector:
    """One-particle state of a wave packet: sum_k w_k b_k^dag |0> with
    w_k = sqrt(eps) packet_k e^{-i omega_k t1} (unit norm by the packet
    normalization convention)."""
    packet.validate(modes)
    return _one_particle(modes, np.sqrt(modes.eps) * packet.spectral
                         * np.exp(-1j * modes.omega * t1), trunc)


def _one_particle(modes: ModeSet, weights: np.ndarray, trunc: int) -> StateVector:
    """sum_k weights_k b_k^dag |0> on the joint amplitude vector."""
    dims = oracle_dims(modes, trunc)
    amp = np.zeros(math.prod(dims), dtype=complex)
    for k in np.flatnonzero(weights):
        amp[trunc ** (modes.n_modes - 1 - k)] = weights[k]     # level 1 in mode k
    return StateVector(dims, amp)


def dephased_expectation(amplitudes: np.ndarray, terms, power: int, slots) -> float:
    """sum_i <psi|P_i O P_i|psi> for O = (sum_k T_k)^power over the level
    projectors on ``slots``: <psi|D psi> for power 1, |D psi|^2 plus the
    jump term for power 2 (module docstring)."""
    dims = tuple(len(term) for term in terms)
    jumps = 0.0
    for k in slots if power == 2 else ():
        weights = np.abs(terms[k]) ** 2
        np.fill_diagonal(weights, 0.0)
        others = tuple(a for a in range(len(dims)) if a != k)
        marginal = (np.abs(amplitudes.reshape(dims)) ** 2).sum(axis=others)
        jumps += float(marginal @ weights.sum(axis=0))
    moved = apply_mode_sum([np.diag(np.diag(t)) if k in slots else t
                            for k, t in enumerate(terms)], amplitudes)
    if power == 1:
        return float(np.real(np.vdot(amplitudes, moved)))
    return float(np.real(np.vdot(moved, moved))) + jumps


def _expectation(amplitudes: np.ndarray, terms, power: int) -> float:
    """<psi|(sum_k T_k)^power|psi> for an unnormalized branch psi."""
    return float(np.real(np.vdot(amplitudes, apply_mode_sum(terms, amplitudes, power))))


def _verification_branches(target: StateVector, amplitudes: np.ndarray) -> tuple:
    """The branches yes = t <t|psi> and no = psi - yes of verifying t."""
    yes = target.amplitudes * np.vdot(target.amplitudes, amplitudes)
    return yes, amplitudes - yes


def dense_oracle(modes: ModeSet, kick: KickSpec, y, p_index: int, trunc: int,
                 scheme_kind: str = "qndsv",
                 observables=("phi_y", "pi_y", "phi2_y", "pi2_y")) -> OracleReport:
    """``field_oracle.numeric_oracle_qndsv`` on the joint amplitude vector:
    the verification's two branches, the naive averages read from the
    prestate."""
    if not modes.is_paired(p_index):
        raise ValueError(f"mode {p_index} is self-conjugate")
    state, tail = oracle_prestate(modes, kick, trunc)
    psi = state.amplitudes
    phi, pi = (build(modes, y, trunc) for build in (field_operator, momentum_operator))
    known = {"phi_y": (phi, 1), "pi_y": (pi, 1), "phi2_y": (phi, 2), "pi2_y": (pi, 2)}
    ops = {name: known[name] for name in observables}
    pre = {name: _expectation(psi, *op) for name, op in ops.items()}
    p_yes = None
    if scheme_kind == "qndsv":
        target = one_particle_state(modes, p_index, trunc)
        p_yes = float(abs(target.overlap(state)) ** 2)
        branches = _verification_branches(target, psi)
        post = {name: sum(_expectation(b, *op) for b in branches) for name, op in ops.items()}
    else:
        slots = (p_index, modes.conjugate(p_index))
        post = {name: dephased_expectation(psi, *op, slots) for name, op in ops.items()}
    return OracleReport(scheme_kind=scheme_kind, values=post, prestate_values=pre,
                        tail_bound=tail, p_yes=p_yes)


def oracle_qndsv_packet_phi_y(modes: ModeSet, kick: KickSpec, y, packet,
                              t1: float, trunc: int) -> float:
    """<phi_y> after verifying the one-particle state of a wave packet,
    exact on the truncated joint space."""
    state, _ = oracle_prestate(modes, kick, trunc)
    target = one_particle_packet_state(modes, packet, t1, trunc)
    terms = field_operator(modes, y, trunc)
    return sum(_expectation(b, terms, 1) for b in _verification_branches(target, state.amplitudes))
