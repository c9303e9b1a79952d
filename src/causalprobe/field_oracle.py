"""Independent truncated-Fock oracle for the lattice field results.

Every lattice mode is an explicit oscillator ladder of ``trunc`` levels, and
phi_y and pi_y are mode sums O = sum_k T_k of one hermitian ladder term
T_k = z_k b + conj(z_k) b^dag per mode, z_k = c_k e^{ik.y}.  The oracle
keeps each term as its band z_k sqrt(n + 1), the superdiagonal whose
conjugate is the subdiagonal, so T_k u_k, <n|T_k and the diagonal of T_k^2
are shifted products of one (M, trunc) array, and every term is hermitian
by construction.  ``field_operator`` and ``momentum_operator`` return the
same terms as dense (M, trunc, trunc) stacks.  Nothing here reuses the
closed forms in ``fieldtheory``; agreement between the two is a test, not
an assumption.

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
O(M trunc), one field at a time; the oracle refuses a lattice whose live
rows and vectors would exceed ``_ORACLE_BYTE_BUDGET`` (256 MiB: d=3, N=64
fits at trunc 8).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .fieldtheory import KickSpec, kick_displacements
from .lattice import ModeSet
from .oscillators import coherent_amplitudes
from .policy import checked_tail

_ORACLE_BYTE_BUDGET = 256 * 2**20
# What a call holds at once, in complex numbers per mode: _LIVE_ROWS rows of
# trunc (the amplitudes, one field's band, its T_k u_k and one shifted
# product: 4, traced) and _LIVE_VECTORS more (the product factors of every
# field and their pairwise products, the kick's per-mode arrays and numpy's
# buffers: at most 19.2, traced from 4096 modes up).  Half a row and about
# five vectors spare.
_LIVE_ROWS = 4.5
_LIVE_VECTORS = 24
# observable -> (field, power of its mode sum)
_OBSERVABLES = {"phi_y": ("phi", 1), "pi_y": ("pi", 1),
                "phi2_y": ("phi", 2), "pi2_y": ("pi", 2)}


def _check_budget(n_modes: int, trunc: int, rows: float = _LIVE_ROWS) -> None:
    need = int(n_modes * (rows * int(trunc) + _LIVE_VECTORS) * np.dtype(complex).itemsize)
    if need > _ORACLE_BYTE_BUDGET:
        raise ValueError(
            f"oracle needs {need} bytes for {n_modes} modes at trunc {trunc}, "
            f"over the byte budget {_ORACLE_BYTE_BUDGET}")


def _band(modes: ModeSet, wave: np.ndarray, trunc: int, field: str) -> np.ndarray:
    """(M, trunc): row k holds z_k sqrt(n + 1) at n < trunc - 1 and 0 at
    trunc - 1, the superdiagonal of T_k, where z_k = c_k wave_k, wave_k =
    e^{ik.y} and c_k = sqrt(hbar/2 omega_k V) for phi, -i sqrt(hbar omega_k
    / 2V) for pi."""
    lat, omega = modes.lattice, modes.omega
    c = (np.sqrt(lat.hbar / (2.0 * omega * lat.volume)) if field == "phi"
         else -1j * np.sqrt(lat.hbar * omega / (2.0 * lat.volume)))
    band = np.zeros((modes.n_modes, trunc), dtype=complex)
    np.multiply((c * wave)[:, None], np.sqrt(np.arange(1, trunc)), out=band[:, :-1])
    return band


def _stack(modes: ModeSet, y, trunc: int, field: str) -> np.ndarray:
    """The terms of ``_band`` as dense (M, trunc, trunc) matrices."""
    _check_budget(modes.n_modes, trunc, rows=trunc + 1)
    band = _band(modes, np.exp(1j * modes.phases(y)), trunc, field)[:, :-1]
    n = np.arange(trunc - 1)
    terms = np.zeros((modes.n_modes, trunc, trunc), dtype=complex)
    terms[:, n, n + 1] = band
    terms[:, n + 1, n] = band.conj()
    return terms


def field_operator(modes: ModeSet, y, trunc: int) -> np.ndarray:
    """phi_y = sum_k sqrt(hbar/2 omega_k V)(e^{ik.y} b_k + h.c.), one term per mode."""
    return _stack(modes, y, trunc, "phi")


def momentum_operator(modes: ModeSet, y, trunc: int) -> np.ndarray:
    """pi_y = -i sum_k sqrt(hbar omega_k / 2V)(e^{ik.y} b_k - h.c.), one term per mode."""
    return _stack(modes, y, trunc, "pi")


def _apply(band: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T_k v_k of each row: band[n] v[n+1] + conj(band[n-1]) v[n-1]."""
    out = np.empty_like(v)
    np.multiply(band[:, :-1], v[:, 1:], out=out[:, :-1])
    out[:, -1] = 0.0
    lower = np.conj(band[:, :-1])
    lower *= v[:, :-1]
    out[:, 1:] += lower
    return out


def _real_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum_n conj(a_n) b_n of each row, with no temporary."""
    return np.einsum("ij,ij->i", a.view(float), b.view(float))


def _at_level(band: np.ndarray, u: np.ndarray, moved: np.ndarray, level: int) -> tuple:
    """<n|u_k>, <n|T_k|u_k>, <n|T_k^2|u_k>/2 and <n|T_k^2|n>/2 of each row
    at n = level, from row n of T_k: conj(band[n-1]) and band[n]."""
    up, down = band[:, level], band[:, level - 1].conj()    # band[:, -1] is 0
    above = (level + 1) % band.shape[1]
    return (u[:, level], moved[:, level],
            0.5 * (up * moved[:, above] + down * moved[:, level - 1]),
            0.5 * (np.abs(up) ** 2 + np.abs(down) ** 2))


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
        out = np.empty_like(factors[..., ::2])      # c c2, c a2 + a c2, c h2 + a a2 + h c2
        np.multiply(c, c2, out=out[0])
        np.multiply(c, a2, out=out[1])
        out[1] += a * c2
        np.multiply(c, h2, out=out[2])
        out[2] += a * a2
        out[2] += h * c2
        factors = out
    return factors[..., 0]


def _field_factors(out: np.ndarray, band: np.ndarray, u: np.ndarray, norms: np.ndarray,
                   scheme_kind: str, p_index: int, pair: list) -> float:
    """Write out[:, i, k], mode k's (<.|.>, <.|T|.>, <.|T^2|.>/2) in product
    i of one field's terms: <psi| . |psi>, then <t| . |psi> (qndsv) or the
    prestate with the +-p pair dephased (naive).  Returns <t|O^2|t> (qndsv):
    the sum of (T_k^2)[t_k, t_k], since T_k has a zero diagonal, which also
    makes <t|O|t> = 0."""
    moved = _apply(band, u)                                             # T_k u_k
    out[:, 0] = norms, _real_dot(u, moved), 0.5 * _real_dot(moved, moved)
    if scheme_kind == "naive":
        out[:, 1] = out[:, 0]
        square = np.abs(band[pair]) ** 2                                # diag T_k^2 = this
        square[:, 1:] += square[:, :-1]                                 # + the row below
        out[1, 1, pair] = 0.0
        out[2, 1, pair] = 0.5 * (np.abs(u[pair]) ** 2 * square).sum(axis=-1)
        return 0.0
    half_diagonal = np.empty(len(u))
    for k, level in ((slice(None), 0), (slice(p_index, p_index + 1), 1)):   # t_k: |0>, p: |1>
        *t_psi, half_diagonal[k] = _at_level(band[k], u[k], moved[k], level)
        out[:, 1, k] = t_psi
    return 2.0 * float(half_diagonal.sum())


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
    u = coherent_amplitudes(kick_displacements(modes, kick), trunc)     # one row per mode
    norms = _real_dot(u, u)
    tail = checked_tail(float(np.prod(norms)), f"per-mode truncation {trunc}")
    levels = u[:, 0].copy()                         # <t_k|u_k>: level 0, and level 1 at p
    levels[p_index] = u[p_index, 1]
    overlap = complex(np.prod(levels))                                   # <t|psi>
    del levels
    fields = list(dict.fromkeys(_OBSERVABLES[name][0] for name in observables))
    pair = [p_index, modes.conjugate(p_index)]
    factors = np.empty((3, 2, len(fields), modes.n_modes), dtype=complex)
    t_t = np.zeros((2, len(fields)))                                # <t|O^power|t>
    wave = np.exp(1j * modes.phases(y))
    for f, field in enumerate(fields):          # one field's rows at a time
        t_t[1, f] = _field_factors(factors[:, :, f], _band(modes, wave, trunc, field), u, norms,
                                   scheme_kind, p_index, pair)
    series = _product_series(factors)                               # [coefficient, i, f]
    moments = np.array([series[1], 2.0 * series[2]])                # [power - 1, i, f]
    if scheme_kind == "qndsv":
        psi, t_psi = np.moveaxis(moments, 1, 0)
        after = psi - 2.0 * (np.conj(overlap) * t_psi).real + 2.0 * abs(overlap) ** 2 * t_t
    else:
        after = moments[:, 1]

    def read(table):    # table[power - 1, f]
        return {name: float(table[power - 1, fields.index(field)].real)
                for name, (field, power) in ((n, _OBSERVABLES[n]) for n in observables)}

    return OracleReport(scheme_kind=scheme_kind, values=read(after),
                        prestate_values=read(moments[:, 0]), tail_bound=tail,
                        p_yes=float(abs(overlap) ** 2) if scheme_kind == "qndsv" else None)
