"""Dense reference for the oscillators' number-times-phase-state scheme.

Builds the finite fixed-parity phase states |b, theta_s> (Pegg & Barnett
1989) as explicit Fock vectors and the complete measurement that pairs them
with + mode number states as a ``MeasurementScheme``.  Tests run it through
``core.born_ensemble`` and ``oscillators.local_moments_b`` to check the
DFT overlaps of ``oscillators.phase_coefficients`` and the closed forms of
``oscillators.phase_ensemble_moments``; no command reaches it.
"""

from __future__ import annotations

import math

import numpy as np

from causalprobe.core import MeasurementScheme
from causalprobe.oscillators import _check_s_cut
from causalprobe.policy import TruncationError


def phase_state(parity: int, s: int, s_cut: int) -> np.ndarray:
    """Finite fixed-parity phase state on 2*s_cut+2 Fock levels.

    (s_cut+1)^(-1/2) sum_{n=0}^{s_cut} e^{i(2n+parity) theta_s} |2n+parity>,
    theta_s = 2 pi s/(s_cut+1).  Exactly orthonormal across (parity, s)
    because s_cut+1 is odd, which is why odd s_cut is rejected.
    """
    if parity not in (0, 1):
        raise ValueError("parity bit must be 0 or 1")
    _check_s_cut(s_cut)
    if not 0 <= s <= s_cut:
        raise ValueError(f"s must lie in 0..{s_cut}, got {s}")
    theta = 2.0 * math.pi * s / (s_cut + 1)
    levels = 2 * np.arange(s_cut + 1) + parity
    vec = np.zeros(2 * s_cut + 2, dtype=complex)
    vec[levels] = np.exp(1j * levels * theta) / math.sqrt(s_cut + 1)
    return vec


def phase_scheme_nplus(s_cut: int, n_plus_dim: int,
                       n_minus_dim: int | None = None) -> MeasurementScheme:
    """Complete scheme: number states on the + mode, phase states on the - mode.

    The phase family spans relative-mode levels 0..2*s_cut+1 exactly; the
    minus-mode truncation must therefore be at least 2*s_cut+2.  Any levels
    above that are covered by plain number-state outcomes (labeled
    "overflow") so the scheme stays complete on the truncated space.
    """
    span = 2 * s_cut + 2
    if n_minus_dim is None:
        n_minus_dim = span
    if n_minus_dim < span:
        raise TruncationError(
            f"minus-mode truncation {n_minus_dim} too small for phase states (need {span})")
    eye_p = np.eye(n_plus_dim, dtype=complex)
    eye_m = np.eye(n_minus_dim, dtype=complex)
    labeled = []
    for n in range(n_plus_dim):
        for b in (0, 1):
            for s in range(s_cut + 1):
                chi = np.zeros(n_minus_dim, dtype=complex)
                chi[:span] = phase_state(b, s, s_cut)
                labeled.append((f"n={n} b={b} s={s}", np.kron(eye_p[n], chi)))
        for m in range(span, n_minus_dim):
            labeled.append((f"n={n} overflow m={m}", np.kron(eye_p[n], eye_m[m])))
    return MeasurementScheme.from_basis((n_plus_dim, n_minus_dim), labeled)
