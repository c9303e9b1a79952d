"""Lattice scalar field: Alice kicks the vacuum at one site, a single mode
pair's occupation (or a one-particle state) is measured projectively, and
Bob reads local expectation values at a distance.

Unlike the spin and oscillator cases, the signaling terms here come with
universal suppression factors: the mode-volume factor 1/V (IR) for any
single-mode measurement, and exp(-lam^2 ginv_xx / 2hbar) (UV) for the
verification, since ginv_xx grows as the lattice spacing shrinks.  This
script prints the raw responses and both cutoff scalings, with the
truncated-Fock oracle cross-checking the closed forms on the small fixture
and on a d=3 lattice of 4096 modes.

Run:  python demos/field_cutoff_suppression.py
"""

import math

from causalprobe.field_oracle import numeric_oracle_qndsv
from causalprobe.fieldtheory import (
    KickSpec,
    max_signaling,
    naive_np_expectations,
    qndsv_phi2_y,
    qndsv_phi_y,
    suppression_factor,
)
from causalprobe.harness import power_fit
from causalprobe.lattice import LatticeSpec, build_modes, kernel_ginv


def qndsv_phi2_y_candidate(modes, kick, y, p_index):
    """The paper's closed-form candidate for <phi_y^2> after the single-mode
    verification:

        (3hbar/2) ginv_yy + 2 hbar eps/omega_p
        - (lam^2 eps / hbar omega_p) e^{-lam^2 ginv_xx/2hbar}
          [ 2 hbar ginv_xy cos p.(x-y) + (hbar/2) ginv_yy
            - (lam^2/4) ginv_xy^2 ]

    The truncated-Fock oracle disagrees with it even at lam = 0; reports
    use ``fieldtheory.qndsv_phi2_y``, which matches the oracle.
    """
    lam, hbar = kick.strength, modes.lattice.hbar
    wp = modes.frequency(p_index)
    gyy = kernel_ginv(modes, y, y)
    gxy = kernel_ginv(modes, kick.site, y)
    phase = modes.phase_at(p_index, kick.site) - modes.phase_at(p_index, y)
    bracket = (2.0 * hbar * gxy * math.cos(phase) + 0.5 * hbar * gyy
               - (lam**2 / 4.0) * gxy**2)
    return (1.5 * hbar * gyy + 2.0 * hbar * modes.eps / wp
            - (lam**2 * modes.eps / (hbar * wp)) * suppression_factor(modes, kick) * bracket)


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


LAM = 0.3
lat = LatticeSpec(dim=1, n_sites=4, spacing=1.0, mass=1.0)
modes = build_modes(lat)
p = modes.mode_index(1)
kick = KickSpec(site=0, strength=LAM)

banner("1. Closed forms vs the truncated-Fock oracle (d=1, N=4, trunc 6; d=3)")
print("  naive pair-occupation measurement, observation site y:")
print("  y   quantity   closed form        oracle             |diff|")
for y in (1, 2):
    rep = numeric_oracle_qndsv(modes, kick, y, p, 6, scheme_kind="naive")
    closed = naive_np_expectations(modes, kick, y, p).as_dict()
    for name in ("pi_y", "phi2_y", "pi2_y"):
        a, b = closed[name], rep.values[name]
        print(f"  {y}   {name:8s}   {a:+.12f}   {b:+.12f}   {abs(a-b):.2e}")
rep = numeric_oracle_qndsv(modes, kick, 1, p, 6, scheme_kind="qndsv",
                           observables=("phi_y",))
a = qndsv_phi_y(modes, kick, 1, p)
print(f"  1   phi_y(V)   {a:+.12f}   {rep.values['phi_y']:+.12f}   "
      f"{abs(a - rep.values['phi_y']):.2e}   (verification scheme)")
# the oracle holds one 8 x 8 term per mode, never the 8^4096 joint amplitudes
modes3 = build_modes(LatticeSpec(dim=3, n_sites=16, spacing=1.0, mass=1.0))
p3, kick3, y3 = modes3.mode_index((1, 0, 0)), KickSpec(site=(0, 0, 0), strength=LAM), (2, 1, 0)
print(f"  d=3, N=16 ({modes3.n_modes} modes), trunc 8, y = {y3}:")
rep = numeric_oracle_qndsv(modes3, kick3, y3, p3, 8, scheme_kind="naive", observables=("pi_y",))
a = naive_np_expectations(modes3, kick3, y3, p3).pi
print(f"      pi_y       {a:+.12f}   {rep.values['pi_y']:+.12f}   "
      f"{abs(a - rep.values['pi_y']):.2e}   (naive scheme)")
rep = numeric_oracle_qndsv(modes3, kick3, y3, p3, 8, scheme_kind="qndsv", observables=("phi_y",))
a = qndsv_phi_y(modes3, kick3, y3, p3)
print(f"      phi_y(V)   {a:+.12f}   {rep.values['phi_y']:+.12f}   "
      f"{abs(a - rep.values['phi_y']):.2e}   (verification scheme)")

banner("2. The verification second moment: reported form vs the paper's")
oracle = numeric_oracle_qndsv(modes, kick, 1, p, 6, scheme_kind="qndsv",
                              observables=("phi2_y",)).values["phi2_y"]
candidate = qndsv_phi2_y_candidate(modes, kick, 1, p)
print(f"  reported closed form:    {qndsv_phi2_y(modes, kick, 1, p):.12f}")
print(f"  truncated-Fock oracle:   {oracle:.12f}")
print(f"  paper's candidate:       {candidate:.12f}")
print(f"  candidate - oracle:      {candidate - oracle:+.12f}")
print("  The candidate disagrees already at lam = 0; the reported form")
print("  matches the oracle to rounding, like the other closed forms above.")

banner("3. IR suppression: responses fall like 1/V")
print("  N    V     |<pi_y>| response    |<phi_y>| verification")
pis, phis, ns = [], [], (4, 8, 16, 32)
for n in ns:
    li = LatticeSpec(dim=1, n_sites=n, spacing=1.0, mass=1.0)
    mi = build_modes(li)
    pi_i = mi.mode_index(n // 4)             # fixed physical wave vector pi/2
    pis.append(abs(naive_np_expectations(mi, kick, 2, pi_i).pi))
    phis.append(abs(qndsv_phi_y(mi, kick, 1, pi_i)))
    print(f"  {n:3d}  {n:4.0f}   {pis[-1]:.12f}      {phis[-1]:.12f}")
print(f"  power-law fits: exponent {power_fit(ns, pis).exponent:+.4f} and "
      f"{power_fit(ns, phis).exponent:+.4f} (1/V on the nose)")

banner("4. UV suppression of the verification signal")
print("  a       ginv_xx     exp factor at lam=0.5   strongest possible signal")
for n, a in ((8, 1.0), (16, 0.5), (32, 0.25), (64, 0.125)):
    li = LatticeSpec(dim=1, n_sites=n, spacing=a, mass=1.0)
    mi = build_modes(li)
    gxx = kernel_ginv(mi, 0, 0)
    damp = suppression_factor(mi, KickSpec(0, 0.5))
    ms = max_signaling(mi, 0)
    print(f"  {a:5.3f}   {gxx:8.5f}    {damp:18.12f}   "
          f"{ms.amplitude:.12f} at lam* = {ms.lambda_star:.5f}")
print("  Finer lattices (higher UV cutoff) damp the signal harder; its best")
print("  case sqrt(hbar / e ginv_xx) sinks monotonically with the spacing.")
print()
print("  Both cutoffs push every response toward zero: with the box taken")
print("  large and the spacing small, these projective prescriptions are")
print("  effectively causal even though none of them is exactly so.")
