"""Physics invariants as hypothesis properties.

Every property runs derandomized, so each run draws the same examples and
Tier-1 stays deterministic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalprobe import fieldtheory, spins
from causalprobe.core import StateVector, born_ensemble, post_measurement_expectation, tensor_state
from causalprobe.harness import SPIN
from causalprobe.lattice import LatticeSpec, build_modes

SEEDED = settings(derandomize=True, deadline=None)

# Beckman, Gottesman, Nielsen & Preskill 2001: these prescriptions are
# semicausal, so no local operation of Alice's moves Bob's reduced state.
SEMICAUSAL = ("s2-bell", "sz-standard", "sz-luders", "none")

_coord = st.floats(-1.0, 1.0, allow_nan=False)
unit_axes = st.tuples(_coord, _coord, _coord).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: tuple(np.asarray(v) / np.linalg.norm(v)))
angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


@st.composite
def spin_kets(draw) -> StateVector:
    """A normalized single-spin ket with arbitrary amplitudes and phases."""
    re_im = draw(st.tuples(_coord, _coord, _coord, _coord).filter(
        lambda v: np.linalg.norm(v) > 0.1))
    amp = np.array([re_im[0] + 1j * re_im[1], re_im[2] + 1j * re_im[3]])
    return StateVector((2,), amp / np.linalg.norm(amp))


product_states = st.builds(lambda a, b: tensor_state([a, b]), spin_kets(), spin_kets())
labels = st.one_of(st.sampled_from(["up", "down", "right", "left"]),
                   st.builds(spins.plus, unit_axes), st.builds(spins.minus, unit_axes))


@SEEDED
@given(sid=st.sampled_from(sorted(SPIN.schemes)), state=product_states,
       target=st.tuples(labels, labels))
def test_born_weights_sum_to_one(sid, state, target):
    scheme = spins.spin_scheme(sid, target=target if sid == "qndsv" else None)
    total = sum(e.probability for e in born_ensemble(scheme, state).entries)
    assert abs(total - 1.0) <= 1e-12


@pytest.mark.parametrize("sid", SEMICAUSAL)
@SEEDED
@given(state=product_states, axis=unit_axes, angle=angles)
def test_semicausal_schemes_show_no_signal(sid, state, axis, angle):
    scheme = spins.spin_scheme(sid)
    rotated = spins.alice_rotate(state, axis, angle)
    for component in "xyz":
        obs = spins.spin_observable(f"sB{component}")
        after = post_measurement_expectation(rotated, scheme, obs)
        assert abs(after - post_measurement_expectation(state, scheme, obs)) <= 1e-12


@st.composite
def paired_lattices(draw):
    """A d = 1 lattice, kick and observation sites, and a paired mode p."""
    n_sites = 2 * draw(st.integers(2, 8))
    spec = LatticeSpec(dim=1, n_sites=n_sites, spacing=draw(st.floats(0.25, 2.0)),
                       mass=draw(st.floats(0.1, 3.0)))
    p = draw(st.integers(1, n_sites - 1).filter(lambda k: k != n_sites // 2))
    modes = build_modes(spec)
    return (modes, draw(st.integers(0, n_sites - 1)), draw(st.integers(0, n_sites - 1)),
            modes.mode_index(p))


def _naive(key):
    return lambda modes, kick, y, p: \
        fieldtheory.naive_np_expectations(modes, kick, y, p).as_dict()[key]


@pytest.mark.parametrize("form, parity", [
    (fieldtheory.qndsv_phi_y, -1), (_naive("pi_y"), -1),
    (fieldtheory.qndsv_phi2_y, 1), (_naive("phi2_y"), 1), (_naive("pi2_y"), 1),
], ids=["qndsv_phi_y", "naive_pi_y", "qndsv_phi2_y", "naive_phi2_y", "naive_pi2_y"])
@SEEDED
@given(lattice=paired_lattices(), lam=st.floats(0.01, 2.0))
def test_closed_forms_have_definite_parity_in_lambda(form, parity, lattice, lam):
    modes, x, y, p = lattice
    at = form(modes, fieldtheory.KickSpec(site=x, strength=lam), y, p)
    mirrored = form(modes, fieldtheory.KickSpec(site=x, strength=-lam), y, p)
    assert mirrored == pytest.approx(parity * at, rel=1e-12, abs=1e-15)
