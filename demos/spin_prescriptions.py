"""Two distinguishable spins, one held by Alice and one by Bob, far apart.

Walks through the measurement prescriptions for this system and prints how
much of Alice's local choice leaks into Bob's local expectation values:

1. a verification ("is the pair in |up right>?") signals at the hbar/4 level
   even though every state involved is a product state;
2. an ideal total-spin-squared measurement signals or not depending on which
   basis is chosen inside the degenerate triplet subspace;
3. the semicausal choices (entangled triplet basis for S^2, product basis
   for total S^z) erase the dependence entirely.

Run:  python demos/spin_prescriptions.py
"""

import math

import numpy as np

from causalprobe.core import (
    Operator,
    born_ensemble,
    post_measurement_expectation,
    qndsv_scheme,
    reduced_projector,
)
from causalprobe.spins import (
    alice_rotate,
    spin_observable,
    spin_scheme,
    spin_state,
)

HALF_PI = math.pi / 2
SBZ = spin_observable("sBz")


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


banner("1. Verification of |up right> on a product prestate")
scheme = qndsv_scheme(spin_state("up", "right"))
for label, pre in (("|up up>  (Alice did nothing)", spin_state("up", "up")),
                   ("|right up> (Alice rotated)", spin_state("right", "up"))):
    value = post_measurement_expectation(pre, scheme, SBZ)
    print(f"  prestate {label:34s} ->  <s_B^z> = {value:+.6f}")
print("  Bob reads hbar/4 vs 0: a binary superluminal channel, with zero")
print("  entanglement anywhere in the protocol.")

banner("2. Ideal S^2 measurement: the degenerate basis matters")
pre = spin_state("right", "up")
for sid in ("s2-standard", "s2-bell"):
    ens = born_ensemble(spin_scheme(sid), pre)
    probs = ", ".join(f"{e.label}: {e.probability:.3f}" for e in ens.entries)
    value = post_measurement_expectation(pre, spin_scheme(sid), SBZ)
    print(f"  {sid:11s} triplet basis: {probs}")
    print(f"            -> <s_B^z> after = {value:+.6f}")
print("  Same operator, same prestate, different post-measurement bases:")
print("  hbar/4 against 0.  The flip example is sharper still:")
for label, pre2 in (("no flip", spin_state("up", "up")),
                    ("flipped", spin_state("down", "up"))):
    value = post_measurement_expectation(pre2, spin_scheme("s2-standard"), SBZ)
    print(f"    {label:8s}: <s_B^z> after S^2 = {value:+.4f}")

banner("3. Why the entangled triplet basis is safe: reduced projectors")
for out in spin_scheme("s2-bell").outcomes:
    proj = Operator((2, 2), out.projector_matrix())
    red = reduced_projector(proj, keep=1)
    print(f"  {out.label:14s} -> Tr_A P = {np.real(np.diag(red.matrix))} (always 1/2)")
print("  Every outcome looks maximally mixed from Bob's side, so no local")
print("  operation by Alice can shift his statistics.")

banner("4. Scan of Alice's rotation angle for each prescription")
angles = np.linspace(0.0, math.pi, 7)
rows = {
    "verification |up right>": qndsv_scheme(spin_state("up", "right")),
    "S^2 standard basis": spin_scheme("s2-standard"),
    "S^2 entangled basis": spin_scheme("s2-bell"),
    "S^z product m=0 basis": spin_scheme("sz-standard"),
    "S^z entangled m=0 basis": spin_scheme("sz-bell"),
}
header = "  angle/pi:" + "".join(f"{a/math.pi:8.3f}" for a in angles)
print(header)
for name, sch in rows.items():
    vals = []
    for ang in angles:
        pre = alice_rotate(spin_state("up", "up"), (0, 1, 0), ang)
        vals.append(post_measurement_expectation(pre, sch, SBZ))
    print(f"  {name:24s}" + "".join(f"{v:8.3f}" for v in vals))
print()
print("  Flat rows are the causal prescriptions; the rest would let Alice")
print("  signal by choosing her angle.")
