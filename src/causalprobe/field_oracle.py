"""Independent truncated-Fock oracle for the lattice field results.

Every lattice mode is an explicit oscillator ladder of ``trunc`` levels, and
phi_y and pi_y are mode sums O = sum_k T_k of one hermitian trunc x trunc
ladder term per mode (``field_operator`` and ``momentum_operator`` return
the (M, trunc, trunc) stacks).  Nothing here reuses the closed forms in
``fieldtheory``; agreement between the two is a test, not an assumption.

Every state the oracle measures is a product over the modes, or a short sum
of products, so no joint trunc^M amplitude vector is ever built.  Between
two products u and v, <u|v>, <u|O|v> and <u|O^2|v>/2 are the coefficients
of 1, s and s^2 in

    prod_k (<u_k|v_k> + s <u_k|T_k|v_k> + s^2 <u_k|T_k^2|v_k> / 2),

one running product over the modes.  The kicked vacuum psi is the product
of the coherent vectors u_k, and its truncation tail is 1 - prod_k |u_k|^2.
The verification of t = |1_p>|0...> averages, over its yes and no outcomes,

    <psi|O|psi> - 2 Re(<psi|t><t|O|psi>) + 2 |<t|psi>|^2 <t|O|t>.

The naive collapse of the +-p pair onto joint number states leaves the
prestate with those two modes dephased, rho_k = diag(|u_k|^2): a product of
per-mode density matrices, whose moments come from the same product with
tr(rho_k T_k^n) in place of <u_k|T_k^n|u_k>.  Memory and time are
O(M trunc^2); the oracle refuses a lattice whose term stacks would exceed
``_ORACLE_BYTE_BUDGET`` (256 MiB: d=3, N=32 at trunc 8 fits).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .fieldtheory import KickSpec, kick_displacements
from .lattice import ModeSet
from .oscillators import coherent_amplitudes, ladder
from .policy import DEFAULT_POLICY, checked_tail

_ORACLE_BYTE_BUDGET = 256 * 2**20
# (M, trunc, trunc) complex stacks a call may hold at once: the terms of both
# fields, and the conjugate copy, difference and modulus made from one of
# them to check it hermitian (4.5, traced).  Half a stack spare.
_LIVE_STACKS = 5
# observable -> (field, power of its mode sum)
_OBSERVABLES = {"phi_y": ("phi", 1), "pi_y": ("pi", 1),
                "phi2_y": ("phi", 2), "pi2_y": ("pi", 2)}


def _check_budget(n_modes: int, trunc: int) -> None:
    need = _LIVE_STACKS * n_modes * int(trunc) ** 2 * np.dtype(complex).itemsize
    if need > _ORACLE_BYTE_BUDGET:
        raise ValueError(
            f"oracle needs {need} bytes for {n_modes} modes at trunc {trunc}, "
            f"over the byte budget {_ORACLE_BYTE_BUDGET}")


def _mode_terms(modes: ModeSet, y, trunc: int, coefficients: np.ndarray) -> np.ndarray:
    """The stack of X_k + X_k^dag with X_k = c_k e^{ik.y} b_k."""
    _check_budget(modes.n_modes, trunc)
    lowering = (coefficients * np.exp(1j * modes.phases(y)))[:, None, None] * ladder(trunc)
    terms = lowering.conj().swapaxes(1, 2)
    terms += lowering
    return terms


def field_operator(modes: ModeSet, y, trunc: int) -> np.ndarray:
    """phi_y = sum_k sqrt(hbar/2 omega_k V)(e^{ik.y} b_k + h.c.), one term per mode."""
    lat = modes.lattice
    return _mode_terms(modes, y, trunc, np.sqrt(lat.hbar / (2.0 * modes.omega * lat.volume)))


def momentum_operator(modes: ModeSet, y, trunc: int) -> np.ndarray:
    """pi_y = -i sum_k sqrt(hbar omega_k / 2V)(e^{ik.y} b_k - h.c.), one term per mode."""
    lat = modes.lattice
    return _mode_terms(modes, y, trunc, -1j * np.sqrt(lat.hbar * modes.omega / (2.0 * lat.volume)))


def _product_series(factors: np.ndarray) -> np.ndarray:
    """Coefficients of 1, s and s^2 in prod_k (c_k + s a_k + s^2 h_k), with
    factors[:, ..., k] = (c_k, a_k, h_k); neighbouring modes are multiplied
    pairwise, so M modes take log2(M) rounds of whole-array products."""
    while factors.shape[-1] > 1:
        if factors.shape[-1] % 2:
            one = np.zeros(factors.shape[:-1] + (1,), dtype=complex)
            one[0] = 1.0
            factors = np.concatenate([factors, one], axis=-1)
        (c, a, h), (c2, a2, h2) = factors[..., ::2], factors[..., 1::2]
        factors = np.array([c * c2, c * a2 + a * c2, c * h2 + a * a2 + h * c2])
    return factors[..., 0]


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
    number states.  Each moment is read from running products over the
    modes (module docstring).
    """
    if isinstance(trunc, bool) or not isinstance(trunc, numbers.Integral) or trunc < 2:
        raise ValueError(f"trunc must be an integer of at least 2, got {trunc!r}")
    if not modes.is_paired(p_index):
        raise ValueError(f"mode {p_index} is self-conjugate")
    for name in observables:
        if name not in _OBSERVABLES:
            raise ValueError(f"unknown field observable {name!r}")
    if scheme_kind not in ("qndsv", "naive"):
        raise ValueError(f"unknown scheme kind {scheme_kind!r}")
    _check_budget(modes.n_modes, trunc)
    u = np.array([coherent_amplitudes(a, trunc) for a in kick_displacements(modes, kick)])
    weights = np.abs(u) ** 2
    tail = checked_tail(float(np.prod(weights.sum(axis=1))), f"per-mode truncation {trunc}")
    modes_at = np.arange(modes.n_modes)
    levels = np.zeros(modes.n_modes, dtype=int)     # the target's level of each mode
    levels[p_index] = 1
    overlap = complex(np.prod(u[modes_at, levels]))  # <t|psi>

    build = {"phi": field_operator, "pi": momentum_operator}
    fields = list(dict.fromkeys(_OBSERVABLES[name][0] for name in observables))
    terms = np.empty((len(fields), modes.n_modes, trunc, trunc), dtype=complex)
    for i, field in enumerate(fields):
        terms[i] = build[field](modes, y, trunc)
        dev = float(np.abs(terms[i] - terms[i].conj().swapaxes(1, 2)).max())
        if dev > DEFAULT_POLICY.exact_tol:
            raise ValueError(f"a {field} mode term deviates from hermitian by {dev:.3e}")
    moved = (terms @ u[..., None])[..., 0]                           # T_k u_k
    # factors[:, i, f, k]: mode k's (<.|.>, <.|T|.>, <.|T^2|.>/2) in product i of field f
    factors = np.empty((3, 3 if scheme_kind == "qndsv" else 2) + moved.shape[:2], dtype=complex)

    def put(i, *coefficients):
        for j, value in enumerate(coefficients):
            factors[j, i] = value

    put(0, weights.sum(axis=1), (u.conj() * moved).sum(axis=-1),
        0.5 * (np.abs(moved) ** 2).sum(axis=-1))                   # <psi| . |psi>
    if scheme_kind == "qndsv":
        rows = terms[:, modes_at, levels]                           # <t_k| T_k
        put(1, u[modes_at, levels], moved[:, modes_at, levels],
            0.5 * (rows * moved).sum(axis=-1))                      # <t| . |psi>
        put(2, 1.0, rows[:, modes_at, levels], 0.5 * (np.abs(rows) ** 2).sum(axis=-1))
    else:
        pair = [p_index, int(modes.conjugate_index[p_index])]
        measured = terms[:, pair]
        factors[:, 1] = factors[:, 0]                               # +-p dephased
        factors[1, 1][:, pair] = (weights[pair] * np.diagonal(measured, axis1=-2, axis2=-1)
                                  ).sum(axis=-1)
        factors[2, 1][:, pair] = 0.5 * (weights[pair] * (np.abs(measured) ** 2).sum(axis=-2)
                                        ).sum(axis=-1)
    series = _product_series(factors)                               # [coefficient, i, f]
    moments = np.array([series[1], 2.0 * series[2]])                # [power - 1, i, f]
    if scheme_kind == "qndsv":
        psi, t_psi, t_t = np.moveaxis(moments, 1, 0)
        after = psi - 2.0 * (np.conj(overlap) * t_psi).real + 2.0 * abs(overlap) ** 2 * t_t
    else:
        after = moments[:, 1]

    def read(table):    # table[power - 1, f]
        return {name: float(table[power - 1, fields.index(field)].real)
                for name, (field, power) in ((n, _OBSERVABLES[n]) for n in observables)}

    return OracleReport(scheme_kind=scheme_kind, values=read(after),
                        prestate_values=read(moments[:, 0]), tail_bound=tail,
                        p_yes=float(abs(overlap) ** 2) if scheme_kind == "qndsv" else None)
