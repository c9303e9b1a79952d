"""Dense truncated-Fock reference for the field oracle.

Holds the kicked vacuum as one trunc^M amplitude vector, the kron product of
the per-mode coherent vectors, and measures it through ``core``: the
verification is ``core.qndsv_scheme``, the naive pair collapse
``core.level_scheme`` on the +-p modes.  phi_y and pi_y are
``core.ModeSumOperator``s over the term stacks of ``field_oracle``, each term
applied along its own axis of the (trunc,)*M amplitude tensor.  Tests use it
to check the factorised ``field_oracle.numeric_oracle_qndsv``, and it carries
the wave-packet verification, which no command reaches.

A full number measurement needs no branches for a mode sum O = sum_k T_k.
Its level projectors P_i on slots S commute with every term off S, so

    sum_i P_i O P_i   = D,
    sum_i P_i O^2 P_i = D^2 + sum_{k in S} diag_k(sum_{m != n} |T_k[m, n]|^2),

with D the sum whose measured terms T_k (k in S) keep only their diagonal.
Hence <O> = <psi|D psi> and <O^2> = |D psi|^2 + sum_{k in S} sum_n
p_k(n) sum_{m != n} |T_k[m, n]|^2, p_k the level marginal of slot k: one
apply of D on the prestate instead of one branch per joint level
(``post_measurement_expectations`` below).
"""

from __future__ import annotations

import copy
import math
from itertools import product

import numpy as np

from causalprobe import core
from causalprobe.core import (LevelOutcome, MeasurementScheme, ModeSumOperator, StateVector,
                              level_scheme, qndsv_scheme)
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


def mode_sum(terms: np.ndarray) -> ModeSumOperator:
    """The ModeSumOperator of an (M, trunc, trunc) term stack."""
    return ModeSumOperator((terms.shape[1],) * len(terms), tuple(terms))


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


def level_slots(scheme: MeasurementScheme) -> tuple[int, ...]:
    """The slots of a full number measurement, one ``LevelOutcome`` per
    joint level of the same distinct slots; () for any other scheme."""
    outs = scheme.outcomes
    slots = outs[0].slots if isinstance(outs[0], LevelOutcome) else ()
    if len(set(slots)) != len(slots) or not all(
            isinstance(o, LevelOutcome) and o.slots == slots and o.dims == scheme.dims
            for o in outs):
        return ()
    every = list(product(*(range(scheme.dims[s]) for s in slots)))
    return slots if sorted(o.levels for o in outs) == every else ()


def dephased_expectation(amplitudes: np.ndarray, obs: ModeSumOperator, slots) -> float:
    """sum_i <psi|P_i O P_i|psi> over the level projectors on ``slots``:
    <psi|D psi> for power 1, |D psi|^2 plus the jump term for power 2."""
    jumps = 0.0
    for k in slots if obs.power == 2 else ():
        weights = np.abs(obs.terms[k]) ** 2
        np.fill_diagonal(weights, 0.0)
        others = tuple(a for a in range(len(obs.dims)) if a != k)
        marginal = (np.abs(amplitudes.reshape(obs.dims)) ** 2).sum(axis=others)
        jumps += float(marginal @ weights.sum(axis=0))
    dephased = copy.copy(obs)   # diagonals of checked hermitian terms: no recheck
    object.__setattr__(dephased, "power", 1)
    object.__setattr__(dephased, "terms", tuple(
        np.diag(np.diag(t)) if k in slots else t for k, t in enumerate(obs.terms)))
    moved = dephased.apply(amplitudes)
    if obs.power == 1:
        return float(np.real(np.vdot(amplitudes, moved)))
    return float(np.real(np.vdot(moved, moved))) + jumps


def post_measurement_expectations(state: StateVector, scheme: MeasurementScheme,
                                  observables) -> list[float]:
    """``core.post_measurement_expectations``, except that under a full
    number measurement a mode sum of power 1 or 2 is read from the prestate
    with one apply of its dephased sum (module docstring)."""
    observables = tuple(observables)
    slots = level_slots(scheme)
    direct = [i for i, obs in enumerate(observables)
              if slots and isinstance(obs, ModeSumOperator) and obs.power in (1, 2)]
    looped = [i for i in range(len(observables)) if i not in direct]
    totals = dict(zip(looped, core.post_measurement_expectations(
        state, scheme, [observables[i] for i in looped]) if looped else ()))
    for i in direct:
        totals[i] = dephased_expectation(state.amplitudes, observables[i], slots)
    return [totals[i] for i in range(len(observables))]


def dense_oracle(modes: ModeSet, kick: KickSpec, y, p_index: int, trunc: int,
                 scheme_kind: str = "qndsv",
                 observables=("phi_y", "pi_y", "phi2_y", "pi2_y")) -> OracleReport:
    """``field_oracle.numeric_oracle_qndsv`` on the joint amplitude vector:
    the verification's two branches are built once for all observables, the
    naive averages are read from the prestate."""
    if not modes.is_paired(p_index):
        raise ValueError(f"mode {p_index} is self-conjugate")
    state, tail = oracle_prestate(modes, kick, trunc)
    phi, pi = (mode_sum(build(modes, y, trunc)) for build in (field_operator, momentum_operator))
    known = {"phi_y": phi, "pi_y": pi, "phi2_y": phi.squared(), "pi2_y": pi.squared()}
    ops = {name: known[name] for name in observables}
    pre = {name: float(op.expectation(state)) for name, op in ops.items()}
    p_yes = None
    if scheme_kind == "qndsv":
        target = one_particle_state(modes, p_index, trunc)
        scheme = qndsv_scheme(target)
        p_yes = float(abs(target.overlap(state)) ** 2)
    else:
        scheme = level_scheme(state.dims, (p_index, int(modes.conjugate_index[p_index])))
    post = dict(zip(ops, post_measurement_expectations(state, scheme, ops.values())))
    return OracleReport(scheme_kind=scheme_kind, values=post, prestate_values=pre,
                        tail_bound=tail, p_yes=p_yes)


def oracle_qndsv_packet_phi_y(modes: ModeSet, kick: KickSpec, y, packet,
                              t1: float, trunc: int) -> float:
    """<phi_y> after verifying the one-particle state of a wave packet,
    exact on the truncated joint space."""
    state, _ = oracle_prestate(modes, kick, trunc)
    scheme = qndsv_scheme(one_particle_packet_state(modes, packet, t1, trunc))
    return core.post_measurement_expectation(state, scheme,
                                             mode_sum(field_operator(modes, y, trunc)))
