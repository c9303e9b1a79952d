"""Physics invariants as hypothesis properties.

Every property runs derandomized, so each run draws the same examples and
Tier-1 stays deterministic.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import fields, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from causalprobe import field_oracle, fieldtheory, harness, oscillators, spins
from causalprobe.core import (MeasurementScheme, Operator, SchemeOutcome, StateVector,
                              born_ensemble, embed_local,
                              post_measurement_expectation, post_measurement_expectations,
                              post_measurement_operator, qndsv_scheme, tensor_state,
                              validate_scheme)
from causalprobe.harness import SPIN
from causalprobe.lattice import LatticeSpec, build_modes, kernel_g, kernel_ginv
from causalprobe.policy import TruncationError, integer

import dense_oracle
import scalar_reference
from conftest import minus, plus, random_state, random_unitary
from phase_reference import phase_scheme_nplus
from reference_modes import reference_modes

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
                   st.builds(plus, unit_axes), st.builds(minus, unit_axes))


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
def framed_schemes(draw):
    """A random unitary on dim <= 16 split into frames of random ranks, the
    last outcome optionally given the frame of the others' complement that a
    complete QR of their columns gives; with each outcome's dense projector,
    summed from np.outer here."""
    dim = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(dim, rng)
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1), max_size=dim - 1))) if dim > 1 else []
    blocks = np.split(u, cuts, axis=1)
    outcomes = [SchemeOutcome(f"o{i}", b) for i, b in enumerate(blocks)]
    if len(blocks) > 1 and draw(st.booleans()):
        others = np.hstack(blocks[:-1])
        rest = np.linalg.qr(others, mode="complete")[0][:, others.shape[1]:]
        outcomes[-1] = SchemeOutcome("rest", rest)
    projectors = [sum(np.outer(col, col.conj()) for col in out.frame.T) for out in outcomes]
    herm = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2)]
    observables = [Operator((dim,), (h + h.conj().T) / 2) for h in herm]
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state = StateVector((dim,), amp / np.linalg.norm(amp))
    return MeasurementScheme((dim,), tuple(outcomes)), projectors, observables, state


@SEEDED
@given(case=framed_schemes())
def test_frames_match_dense_projectors(case):
    """The frames pass validate_scheme, and their Heisenberg matrices,
    post-measurement averages and Born weights equal sum_i P_i O P_i,
    sum_i <psi|P_i O P_i|psi> and <psi|P_i|psi> from dense projectors."""
    scheme, projectors, observables, state = case
    assert validate_scheme(scheme).within(1e-10)
    psi = state.amplitudes
    got = post_measurement_expectations(state.amplitudes, scheme, observables)
    for value, obs in zip(got, observables):
        assert np.allclose(post_measurement_operator(scheme, obs),
                           sum(p @ obs.matrix @ p for p in projectors), rtol=0, atol=1e-12)
        want = sum(np.vdot(psi, p @ obs.matrix @ p @ psi).real for p in projectors)
        assert abs(value - want) <= 1e-12
    weights = [e.probability for e in born_ensemble(scheme, state).entries]
    assert np.allclose(weights, [np.vdot(psi, p @ psi).real for p in projectors],
                       rtol=0, atol=1e-12)


def _hermitian(n: int, rng) -> np.ndarray:
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (h + h.conj().T) / (2 * math.sqrt(n))


@st.composite
def level_cases(draw):
    """2-4 subsystems of 2-4 levels, distinct slots in a random order, a
    random state and one random hermitian term per subsystem."""
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=2, max_size=4)))
    order = draw(st.permutations(range(len(dims))))
    slots = tuple(order[:draw(st.integers(1, len(dims)))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = math.prod(dims)
    terms = [_hermitian(d, rng) for d in dims]
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return dims, slots, StateVector(dims, amp / np.linalg.norm(amp)), terms


@SEEDED
@given(case=level_cases())
def test_dephased_route_matches_unit_vector_frames(case):
    """The dense reference's mode sum, applied axis by axis, equals the
    dense sum of embedded terms, and its dephased route gives at powers 1
    and 2 core's averages over the frame scheme whose outcome
    (levels) holds every basis vector with those levels on the slots."""
    dims, slots, state, terms = case
    dense = sum(embed_local(Operator((len(t),), t), k, dims).matrix
                for k, t in enumerate(terms))
    assert np.allclose(dense_oracle.apply_mode_sum(terms, state.amplitudes),
                       dense @ state.amplitudes, rtol=0, atol=1e-12)
    digits = np.indices(dims).reshape(len(dims), -1)
    basis = np.eye(digits.shape[1])
    frames = MeasurementScheme.from_basis(dims, [
        (f"n={','.join(map(str, lv))}",
         basis[np.all(digits[list(slots)] == np.array(lv)[:, None], axis=0)])
        for lv in itertools.product(*(range(dims[s]) for s in slots))])
    want = post_measurement_expectations(state.amplitudes, frames, [
        Operator(dims, dense), Operator(dims, dense @ dense)])
    got = [dense_oracle.dephased_expectation(state.amplitudes, terms, power, slots)
           for power in (1, 2)]
    assert np.allclose(got, want, rtol=0, atol=1e-12)


@st.composite
def verified_targets(draw):
    """A random normalized target on (2, 2), (3, 2) or (2, 3, 2), and a
    random observable there."""
    dims = draw(st.sampled_from([(2, 2), (3, 2), (2, 3, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_state(dims, rng), Operator(dims, _hermitian(math.prod(dims), rng))


@SEEDED
@given(case=verified_targets())
def test_qndsv_frames_project_on_the_target_and_its_complement(case):
    """qndsv_scheme's yes and no frames give the projectors |t><t| and
    1 - |t><t|, pass validate_scheme, and give the dense sum_i P_i O P_i."""
    target, obs = case
    yes = np.outer(target.amplitudes, target.amplitudes.conj())
    dense = (yes, np.eye(len(yes)) - yes)
    scheme = qndsv_scheme(target)
    for out, proj in zip(scheme.outcomes, dense, strict=True):
        assert np.allclose(out.projector_matrix(), proj, rtol=0, atol=1e-12)
    assert validate_scheme(scheme).within(1e-12)
    assert np.allclose(post_measurement_operator(scheme, obs),
                       sum(p @ obs.matrix @ p for p in dense), rtol=0, atol=1e-12)


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


@st.composite
def field_cases(draw):
    """A d = 1, 2 or 3 lattice, a kick site x,
    an observation site y, a paired mode p and lam.  Mass >= 0.5, spacing
    >= 0.5 and |lam| <= 1 keep every |alpha_k|^2 <= 1/2, so 14 levels leave
    the top kept level below 1e-13 and the oracle's truncation error below
    the tolerance."""
    dim = draw(st.sampled_from((1, 2, 3)))
    n_sites = 2 * draw(st.integers(2, {1: 16, 2: 8, 3: 4}[dim]))
    modes = build_modes(LatticeSpec(
        dim=dim, n_sites=n_sites, spacing=draw(st.floats(0.5, 2.0)),
        mass=draw(st.floats(0.5, 3.0))))
    site = st.tuples(*[st.integers(0, n_sites - 1)] * dim)
    p = draw(st.integers(0, modes.n_modes - 1).filter(modes.is_paired))
    return (modes, fieldtheory.KickSpec(site=draw(site), strength=draw(st.floats(-1.0, 1.0))),
            draw(site), p)


@SEEDED
@given(case=field_cases())
def test_field_closed_forms_match_factorised_oracle(case):
    """Every field closed form equals the factorised truncated-Fock oracle
    within 1e-10 relative to max(1, |value|), plus the tail: the naive
    collapse for all four observables, the verification for phi_y and
    phi2_y."""
    modes, kick, y, p = case
    closed = {"naive": fieldtheory.naive_np_expectations(modes, kick, y, p).as_dict(),
              "qndsv": {"phi_y": fieldtheory.qndsv_phi_y(modes, kick, y, p),
                        "phi2_y": fieldtheory.qndsv_phi2_y(modes, kick, y, p)}}
    for kind, want in closed.items():
        rep = field_oracle.numeric_oracle_qndsv(modes, kick, y, p, 14, scheme_kind=kind,
                                                observables=tuple(want))
        for name, value in want.items():
            assert abs(rep.values[name] - value) <= 1e-10 * max(1.0, abs(value)) \
                + rep.tail_bound, (kind, name)


def _folded(wavenumber, n_sites) -> tuple:
    """Each component moved by a multiple of N into (-N/2, N/2]."""
    return tuple(int(c % n_sites) - (n_sites if c % n_sites > n_sites // 2 else 0)
                 for c in wavenumber)


@st.composite
def mode_lattices(draw):
    dim = draw(st.sampled_from((1, 2, 3)))
    n_sites = 2 * draw(st.integers(1, {1: 16, 2: 6, 3: 3}[dim]))
    return LatticeSpec(dim=dim, n_sites=n_sites, spacing=draw(st.floats(0.25, 2.0)),
                       mass=draw(st.sampled_from((0.0, 0.7))))


@SEEDED
@given(spec=mode_lattices(), data=st.data())
def test_mode_set_matches_reference_enumeration(spec, data):
    """The array-built mode set against a per-mode enumeration: row-major
    wavenumbers (mode_index of the i-th is i), -k pairing as an involution
    with 2^d fixed points, equal frequencies across each pair, and
    mode_index blind to dual-lattice shifts."""
    n, dim = spec.n_sites, spec.dim
    modes = build_modes(spec)
    reference = list(itertools.product(range(-n // 2 + 1, n // 2 + 1), repeat=dim))
    assert reference_modes(spec)["wavenumbers"].tolist() == [list(w) for w in reference]
    assert [modes.mode_index(w) for w in reference] == list(range(modes.n_modes))
    every = np.arange(modes.n_modes)
    conj = np.array([modes.conjugate(i) for i in every])
    assert np.array_equal(conj[conj], every)
    assert int(np.sum(conj == every)) == 2**dim
    for i, w in enumerate(reference):
        assert reference[conj[i]] == _folded([-c for c in w], n)
    assert np.array_equal(modes.omega[conj], modes.omega)
    shifts = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    for i in data.draw(st.lists(st.integers(0, modes.n_modes - 1), min_size=1, max_size=8)):
        shifted = [w + n * s for w, s in zip(reference[i], data.draw(shifts))]
        assert modes.mode_index(shifted) == i


@st.composite
def reference_lattices(draw):
    """Lattices for the byte comparison: every dimension and
    zero-mode regulator, spacings off the binary grid, M up to 4096."""
    dim = draw(st.sampled_from((1, 2, 3)))
    mass = draw(st.sampled_from((0.0, 0.7, 1.0)) | st.floats(0.0, 3.0))
    return LatticeSpec(dim=dim, n_sites=2 * draw(st.integers(1, {1: 300, 2: 32, 3: 8}[dim])),
                       spacing=draw(st.floats(1e-3, 4.0)), mass=mass,
                       hbar=draw(st.sampled_from((1.0, 0.8))),
                       zero_mode_mass=draw(st.none() | st.floats(1e-4, 2.0)))


@settings(SEEDED, max_examples=200)
@given(spec=reference_lattices())
def test_axis_built_mode_set_is_the_meshgrid_build_byte_for_byte(spec):
    """build_modes, built axis by axis, equals the meshgrid build in
    ``reference_modes`` by dtype, shape and bytes, and puts the reference's
    i-th wavenumber at mode_index i."""
    modes = build_modes(spec)
    reference = reference_modes(spec)
    for name in ("k", "omega"):
        got, want = getattr(modes, name), reference[name]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    assert [modes.mode_index(w) for w in reference["wavenumbers"].tolist()] \
        == list(range(modes.n_modes))


def _cosine_sum(lat, inverse, x, y) -> tuple[float, float]:
    """(1/V) sum_k w_k cos(k.(x - y)) over the reference build's (M, d) k,
    and the scale (1/V) sum_k |w_k| of its rounding."""
    reference = reference_modes(lat)
    weights = 1.0 / reference["omega"] if inverse else reference["omega"]
    dx = (np.asarray(lat.site(x), dtype=float)
          - np.asarray(lat.site(y), dtype=float)) * lat.spacing
    terms = weights * np.cos(reference["k"] @ dx)
    return float(np.sum(terms) / lat.volume), float(np.sum(np.abs(weights)) / lat.volume)


@SEEDED
@given(spec=mode_lattices(), data=st.data())
def test_memoised_kernels_equal_fresh_sums_bit_for_bit(spec, data):
    """kernel_g and kernel_ginv, read through the mode set's memo, equal the
    same sum on a fresh mode set to the bit, in either site order and on the
    diagonal, and the cosine sum over the reference's k within 16 eps of
    (1/V) sum_k |w_k|; a mode set of another lattice shares no entry; a copy
    is another mode set with an empty memo."""
    sites = st.lists(st.integers(-2 * spec.n_sites, 2 * spec.n_sites),
                     min_size=spec.dim, max_size=spec.dim)
    x, y = data.draw(sites), data.draw(sites)
    modes = build_modes(spec)
    # same sites and displacements, other spacing: every key coincides
    other = build_modes(replace(spec, spacing=2.0 * spec.spacing))
    for kernel, inverse in ((kernel_g, False), (kernel_ginv, True)):
        for a, b in ((x, y), (y, x), (x, x), (y, y)):
            for ms in (modes, other):
                got = kernel(ms, a, b)
                assert got.hex() == kernel(build_modes(ms.lattice), a, b).hex()
                want, scale = _cosine_sum(ms.lattice, inverse, a, b)
                assert abs(got - want) <= 16 * np.finfo(float).eps * scale
    assert modes._kernels is not other._kernels
    assert all(type(v) is float for v in modes._kernels.values())
    twin = replace(modes)
    assert twin._kernels == {} and twin != modes and len({modes, twin, modes}) == 2


@SEEDED
@given(spec=st.builds(LatticeSpec, dim=st.sampled_from((1, 2, 3)),
                      n_sites=st.sampled_from((2, 4, 6, 8)), spacing=st.floats(0.25, 2.0),
                      mass=st.just(0.0) | st.floats(0.1, 3.0),
                      zero_mode_mass=st.none() | st.floats(1e-4, 2.0)),
       data=st.data())
def test_digit_reads_equal_the_per_mode_arrays(spec, data):
    """frequency, conjugate, is_paired and phase_at read an index's base-N
    digits and build no per-mode array; each equals the array read (conjugate
    the reference build's -k index), frequency to the bit (phase_at's np.dot
    may give -0.0 where the matmul gives 0.0)."""
    site = data.draw(st.lists(st.integers(-spec.n_sites, 2 * spec.n_sites),
                              min_size=spec.dim, max_size=spec.dim))
    modes = build_modes(spec)
    every = range(modes.n_modes)
    scalar = [(modes.frequency(i).hex(), modes.conjugate(i), modes.is_paired(i),
               modes.phase_at(i, site)) for i in every]
    assert not {"omega", "k", "k_axis", "ksq_axis"} & set(vars(modes))
    phases, conj = modes.phases(site), reference_modes(spec)["conjugate_index"]
    assert scalar == [(modes.omega[i].hex(), conj[i], conj[i] != i, phases[i])
                      for i in every]


@SEEDED
@given(spec=st.builds(LatticeSpec, dim=st.sampled_from((1, 2, 3)),
                      n_sites=st.integers(1, 32).map(lambda h: 2 * h),
                      spacing=st.sampled_from((0.1, 0.37, 1.0, 2.5)),
                      mass=st.just(0.0) | st.floats(0.1, 3.0)),
       data=st.data())
def test_digit_reads_do_not_depend_on_the_axis_arrays(spec, data):
    """frequency and phase_at form k at an index's own digits: the same
    bits before and after k_axis and ksq_axis are built."""
    modes = build_modes(spec)
    site = data.draw(st.lists(st.integers(0, spec.n_sites - 1),
                              min_size=spec.dim, max_size=spec.dim))
    indices = data.draw(st.lists(st.integers(0, modes.n_modes - 1), min_size=1, max_size=16))

    def reads():
        return [(modes.frequency(i).hex(), modes.phase_at(i, site).hex()) for i in indices]

    before = reads()
    assert not {"k_axis", "ksq_axis"} & set(vars(modes))
    assert modes.k_axis.shape == modes.ksq_axis.shape == (spec.n_sites,)
    assert reads() == before


# -- factorised oscillator moments against the generic Born route ------------

def _moments_close(fast, generic) -> None:
    for name in ("q", "p", "q2", "p2", "energy"):
        assert getattr(fast, name) == pytest.approx(getattr(generic, name), rel=1e-12, abs=1e-12)


osc_params = st.builds(oscillators.OscParams, mass=st.floats(0.5, 2.0),
                       frequency=st.floats(0.5, 2.0), hbar=st.floats(0.5, 2.0))
momenta = st.floats(-0.8, 0.8)


@SEEDED
@given(params=osc_params, p_a=momenta, p_b=momenta, lam=momenta, trunc=st.integers(8, 60))
def test_factorised_naive_and_prestate_match_generic_route(params, p_a, p_b, lam, trunc):
    """Both routes refuse the same truncations and otherwise agree, also
    where the top Fock level, which the dense matrices truncate, is
    populated."""
    kick = oscillators.KickParams(p_a=p_a, p_b=p_b, lam=lam)
    try:
        pre = oscillators.coherent_prestate(params, kick, trunc)
    except TruncationError:
        for collapse in (True, False):
            with pytest.raises(TruncationError):
                oscillators.kicked_moments(params, kick, trunc, collapse=collapse)
        return
    _moments_close(oscillators.kicked_moments(params, kick, trunc, collapse=True),
                   oscillators.local_moments_b(oscillators.naive_nplus_ensemble(pre), params))
    _moments_close(oscillators.kicked_moments(params, kick, trunc),
                   oscillators.local_moments_b(pre))


@settings(SEEDED, max_examples=20)
@given(p_a=st.floats(-0.1, 0.1), p_b=st.floats(-0.1, 0.1), lam=st.floats(-0.1, 0.1),
       n_max=st.integers(8, 60), s_cut=st.sampled_from([2, 4, 6, 8]))
def test_factorised_phase_moments_match_generic_route(p_a, p_b, lam, n_max, s_cut):
    """The closed form takes every outcome's moments exactly, the generic
    route through truncated matrices, whose top + level and overflow -
    levels differ; the kicks are small enough that the weight there stays
    far below the tolerance."""
    params, kick = oscillators.OscParams(), oscillators.KickParams(p_a=p_a, p_b=p_b, lam=lam)
    pad = 2 * s_cut + 4             # squares of Q_- exact on every phase-state level
    pre = oscillators.coherent_prestate(params, kick, (n_max, pad))
    scheme = phase_scheme_nplus(s_cut, n_max, n_minus_dim=pad)
    ensemble = born_ensemble(scheme, pre.as_state(), tail_bound=pre.tail_bound)
    _moments_close(oscillators.phase_ensemble_moments(params, kick, s_cut, n_max),
                   oscillators.local_moments_b(ensemble, params))


@SEEDED
@given(params=osc_params, p_a=momenta, p_b=momenta, lam=st.floats(-4.0, 4.0),
       n_max=st.integers(2, 40), s_cut=st.sampled_from([0, 2, 4, 8, 16]))
def test_phase_moments_refuse_what_the_prestate_refuses(params, p_a, p_b, lam, n_max, s_cut):
    """phase-nplus keeps the tail check of the prestate it measures."""
    kick = oscillators.KickParams(p_a=p_a, p_b=p_b, lam=lam)
    try:
        oscillators.coherent_prestate(params, kick, (n_max, 2 * s_cut + 2))
    except TruncationError:
        with pytest.raises(TruncationError):
            oscillators.phase_ensemble_moments(params, kick, s_cut, n_max)
        return
    oscillators.phase_ensemble_moments(params, kick, s_cut, n_max)


@SEEDED
@given(r=st.floats(1e-6, 20.0), theta=st.floats(-math.pi, math.pi),
       dim=st.integers(1, 2000))
def test_coherent_amplitudes_are_poisson_amplitudes(r, theta, dim):
    """The ladder recurrence gives |<n|alpha>|^2 = e^{-|alpha|^2} |alpha|^{2n}/n!
    at every level, and the full norm once the box holds the Poisson bulk."""
    alpha = cmath.rect(r, theta)
    amps = oscillators.coherent_amplitudes(alpha, dim)
    assert amps.shape == (dim,) and np.all(np.isfinite(amps))
    mag = abs(alpha)
    poisson = np.exp([n * 2.0 * math.log(mag) - mag * mag - math.lgamma(n + 1)
                      for n in range(dim)])
    assert np.max(np.abs(np.abs(amps) ** 2 - poisson)) <= 1e-13
    if dim >= mag * mag + 10.0 * mag + 20.0:
        assert abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# a report's kicks go to each system as one array: every value must be the
# one that kick gives alone, bit for bit

_BATCH_SYSTEMS = {
    "spin": ({"initial": ["up", "right"]}, {"kind": "rotate", "axis": [0.6, 0.0, 0.8]}),
    "oscillator": ({"p_a": 0.3, "p_b": -0.2, "trunc": 24}, {"kind": "kick"}),
    "field": ({"dim": 1, "n_sites": 6, "mass": 1.0, "x": 0, "y": 2, "p": 1}, {"kind": "kick"}),
}
_BATCH_SCHEMES = [
    *(("spin", {"id": sid, **({"target": ["up", "right"]} if sid == "qndsv" else {})})
      for sid in sorted(SPIN.schemes)),
    ("oscillator", {"id": "naive-nplus"}), ("oscillator", {"id": "phase-nplus", "s_cut": 4}),
    ("oscillator", {"id": "none"}),
    ("field", {"id": "naive-np"}), ("field", {"id": "qndsv-1p"}), ("field", {"id": "none"}),
]


@st.composite
def kick_batches(draw) -> list:
    """Kicks in random order, with -0.0, 0.0 and repeated values among them."""
    lams = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
    lams += [0.0, -0.0, *draw(st.lists(st.sampled_from(lams), max_size=3))]
    return draw(st.permutations(lams))


@pytest.mark.parametrize("system, scheme", _BATCH_SCHEMES,
                         ids=[f"{system}-{scheme['id']}" for system, scheme in _BATCH_SCHEMES])
@settings(SEEDED, max_examples=30)
@given(lams=kick_batches())
def test_batched_values_equal_each_kick_alone(system, scheme, lams):
    params, alice = _BATCH_SYSTEMS[system]
    spec = harness.SYSTEMS[system]
    sc = harness.Scenario.from_dict({
        "version": 1, "system": system, "system_params": params, "alice": alice,
        "scheme": scheme, "observables": list(spec.schemes[scheme["id"]].observables
                                              or spec.observables),
        "lambda_grid": [0.0]})
    values = spec.evaluator(sc, {})
    batch = values(np.array(lams))
    for i, lam in enumerate(lams):
        alone = values(np.array([lam]))
        for obs in sc.observables:
            assert len(batch[obs]) == len(lams)
            assert batch[obs][i].tobytes() == alone[obs][0].tobytes(), (obs, lam)


# ---------------------------------------------------------------------------
# the spin evaluator takes every lam as one stack, and reads each value as a
# quadratic form of M_O = sum_i P_i O P_i: each value must be the one the
# per-state branch route gives, up to the rounding of a different sum order

def _per_state_arithmetic(prestate, axis, angle, scheme, operators) -> list:
    """One rotated state at a time, branch by branch: one scalar unitary and
    its np.kron, one np.vdot per frame column and per observable, sums in
    Python floats."""
    half = angle / 2.0
    sigma = axis[0] * spins.SIGMA_X + axis[1] * spins.SIGMA_Y + axis[2] * spins.SIGMA_Z
    u = math.cos(half) * np.eye(2) - 1j * math.sin(half) * sigma
    psi = np.kron(u, np.eye(2)) @ prestate.amplitudes
    totals = [0.0] * len(operators)
    for out in scheme.outcomes:
        branch = out.frame @ np.array([np.vdot(col, psi) for col in out.frame.T])
        for i, op in enumerate(operators):
            totals[i] += float(np.real(np.vdot(branch, op.matrix @ branch)))
    return totals


_NAMED_PAIRS = list(itertools.product(["up", "down", "right", "left"], repeat=2))


@pytest.mark.parametrize("sid", sorted(SPIN.schemes))
@settings(SEEDED, max_examples=8)
@given(axis=unit_axes, target=st.sampled_from(_NAMED_PAIRS),
       lams=st.lists(st.one_of(angles, st.sampled_from([0.0, -0.0])), min_size=1, max_size=8))
def test_stacked_spin_route_matches_the_per_state_route(sid, axis, target, lams):
    """For every named initial state, each value of one values(lams) call
    and of post_measurement_expectations(alice_rotate(...)) is within 4e-15
    of the per-state branch arithmetic."""
    scheme_dict = {"id": sid, **({"target": list(target)} if sid == "qndsv" else {})}
    scheme = spins.spin_scheme(sid, target=target if sid == "qndsv" else None)
    operators = [spins.spin_observable(name) for name in spins.OBSERVABLES]
    for initial in _NAMED_PAIRS:
        sc = harness.Scenario.from_dict({
            "version": 1, "system": "spin", "system_params": {"initial": list(initial)},
            "alice": {"kind": "rotate", "axis": list(axis)}, "scheme": scheme_dict,
            "observables": list(spins.OBSERVABLES), "lambda_grid": [0.0]})
        stacked = SPIN.evaluator(sc, {})(np.array(lams))
        prestate = spins.spin_state(*initial)
        for i, lam in enumerate(lams):
            per_state = post_measurement_expectations(
                spins.alice_rotate(prestate, axis, lam).amplitudes, scheme, operators)
            reference = _per_state_arithmetic(prestate, axis, lam, scheme, operators)
            for k, obs in enumerate(spins.OBSERVABLES):
                assert abs(stacked[obs][i] - reference[k]) <= 4e-15, (initial, obs, lam)
                assert abs(per_state[k] - reference[k]) <= 4e-15, (initial, obs, lam)


# ---------------------------------------------------------------------------
# hbar pinned by closed forms, each value read without the spins table

hbars = st.floats(0.01, 50.0)


@SEEDED
@given(hbar=hbars)
def test_spin_values_scale_with_hbar(hbar):
    """Unmeasured |up up>: <s_Bz> = hbar/2 and <S2> = 2 hbar^2; verifying
    |up right> after Alice's quarter turn about y: <s_Bz> = hbar/4."""
    up_up = spins.spin_state("up", "up")
    sbz, s2 = (spins.spin_observable(name, hbar) for name in ("sBz", "S2"))
    none = spins.spin_scheme("none")
    verified = post_measurement_expectation(spins.alice_rotate(up_up, (0, 1, 0), math.pi / 2),
                                            spins.spin_scheme("qndsv", ("up", "right")), sbz)
    for got, want in ((post_measurement_expectation(up_up, none, sbz), hbar / 2),
                      (post_measurement_expectation(up_up, none, s2), 2 * hbar**2),
                      (verified, hbar / 4)):
        assert abs(got - want) <= 1e-12 * want


@SEEDED
@given(hbar=hbars, dim=st.sampled_from((1, 2)), half=st.integers(2, 6),
       mass=st.floats(0.1, 3.0), data=st.data())
def test_field_vacuum_phi2_is_half_hbar_ginv(hbar, dim, half, mass, data):
    """field none at lam = 0: <phi_y^2> = (hbar/2) ginv_yy, ginv_yy the
    reference build's (1/V) sum_k 1/omega_k."""
    n = 2 * half
    site = st.lists(st.integers(0, n - 1), min_size=dim, max_size=dim)
    x, y = data.draw(site), data.draw(site)
    sc = harness.Scenario.from_dict({
        "version": 1, "system": "field",
        "system_params": {"dim": dim, "n_sites": n, "mass": mass, "x": x, "y": y,
                          "p": [1] + [0] * (dim - 1), "hbar": hbar},
        "alice": {"kind": "kick"}, "scheme": {"id": "none"},
        "observables": ["phi2_y"], "lambda_grid": [0.0]})
    lattice = LatticeSpec(dim=dim, n_sites=n, spacing=1.0, mass=mass)
    ginv_yy = float(np.sum(1.0 / reference_modes(lattice)["omega"])) / lattice.volume
    got = harness.make_evaluator(sc, (0.0,))("phi2_y", 0.0)
    assert abs(got - hbar / 2 * ginv_yy) <= 1e-12 * hbar * ginv_yy


@SEEDED
@given(params=osc_params, p_a=momenta, p_b=momenta, lam=momenta)
def test_unmeasured_oscillator_moments_are_closed_forms(params, p_a, p_b, lam):
    """oscillator none: Alice's kick leaves Bob's <P_B> = p_b, <Q_B> = 0,
    <P_B^2> = p_b^2 + hbar m Omega/2 and <Q_B^2> = hbar/(2 m Omega)."""
    m, omega, hbar = params.mass, params.frequency, params.hbar
    sc = harness.Scenario.from_dict({
        "version": 1, "system": "oscillator",
        "system_params": {"mass": m, "frequency": omega, "hbar": hbar,
                          "p_a": p_a, "p_b": p_b, "trunc": 80},
        "alice": {"kind": "kick"}, "scheme": {"id": "none"},
        "observables": ["PB", "QB", "PB2", "QB2"], "lambda_grid": [lam]})
    evaluate = harness.make_evaluator(sc, (lam,))
    want = {"PB": p_b, "QB": 0.0, "PB2": p_b**2 + hbar * m * omega / 2,
            "QB2": hbar / (2 * m * omega)}
    for name, value in want.items():
        assert abs(evaluate(name, lam) - value) <= 1e-12, name


# ---------------------------------------------------------------------------
# exact-type fast paths against the general routes they shortcut

# ints past 2**1024 overflow float(): the general route of _integral raises
# there, a program fault, and is compared with its fast path on its own below
_FLOAT_RANGE = 2**1023
scalars = st.one_of(
    st.integers(-10, 10), st.integers(), st.integers(-_FLOAT_RANGE, _FLOAT_RANGE),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.floats(), st.integers(-10**6, 10**6).map(float),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300]),
    st.floats().map(np.float64), st.booleans(), st.booleans().map(np.bool_),
    st.text(max_size=3), st.none(), st.lists(st.integers(-3, 3), max_size=2))


def _outcome(fn, *args):
    """What a call gives: its value with every element's type and repr, or
    its exception's class and message."""
    def typed(value):
        if isinstance(value, tuple):
            return tuple(typed(v) for v in value)
        return type(value), repr(value)
    try:
        return "returns", typed(fn(*args))
    except Exception as err:      # noqa: BLE001 - the class is what is compared
        return "raises", type(err), str(err)


@SEEDED
@given(value=scalars)
def test_scalar_fast_paths_match_the_general_route(value):
    """_integral, _real, policy.integer and _site (of a scalar and of a list
    of it) return the same value of the same type as the general route, or
    raise the same class with the same message."""
    for fast, general in ((harness._integral, scalar_reference.integral),
                          (harness._real, scalar_reference.real),
                          (harness._site, scalar_reference.site_param)):
        assert _outcome(fast, "x", value) == _outcome(general, "x", value)
    assert _outcome(harness._site, "x", [value, 1]) \
        == _outcome(scalar_reference.site_param, "x", [value, 1])
    assert _outcome(integer, value, "n") == _outcome(scalar_reference.integer, value, "n")


@pytest.mark.parametrize("value", [2**1024, -2**1024, 10**400])
def test_integral_fast_path_returns_ints_past_the_float_range(value):
    """The differences from the general route: an int that float() cannot
    hold made it raise OverflowError (a program fault, not a refusal); the
    fast path returns it, as policy.integer always has, and _real, or
    _integral's general route for a real past float's range, refuses it."""
    for general in (scalar_reference.integral, scalar_reference.real):
        with pytest.raises(OverflowError):
            general("x", value)
    assert harness._integral("x", value) == integer(value, "x") == value
    assert _outcome(harness._real, "x", value) \
        == ("raises", harness.ScenarioError, f"x needs finite numbers, got {value!r}")
    assert _outcome(harness._integral, "x", Fraction(value)) \
        == ("raises", harness.ScenarioError, f"x needs integer values, got {Fraction(value)!r}")


@SEEDED
@given(spec=st.builds(LatticeSpec, dim=st.sampled_from((1, 2, 3)),
                      n_sites=st.integers(1, 8).map(lambda h: 2 * h),
                      spacing=st.just(1.0), mass=st.just(1.0)),
       data=st.data())
def test_lattice_site_fast_path_matches_the_general_route(spec, data):
    """LatticeSpec.site of a scalar, of a list or tuple of 1 to 3 scalars,
    or of an integer array equals the general route, refusals included."""
    x = data.draw(scalars | st.lists(scalars, min_size=1, max_size=3)
                  | st.lists(st.integers(-40, 40), min_size=1, max_size=3).map(tuple)
                  | st.lists(st.integers(-40, 40), min_size=1, max_size=3).map(np.array))
    assert _outcome(spec.site, x, "x") == _outcome(scalar_reference.lattice_site, spec, x, "x")


_index_kinds = (int, np.int64, np.intp, np.int32, np.uint16)


@SEEDED
@given(spec=st.builds(LatticeSpec, dim=st.sampled_from((1, 2, 3)),
                      n_sites=st.integers(1, 20).map(lambda h: 2 * h),
                      spacing=st.sampled_from((0.1, 0.37, 1.0, 2.5)), mass=st.just(1.0)),
       data=st.data())
def test_mode_digits_are_unravel_index_as_plain_ints(spec, data):
    """_digits equals np.unravel_index for int and numpy-integer indices,
    as plain ints, and refuses an index out of range, a bool or a float with
    the general route's message.  phase_at (at d = 1 one Python product) is
    the general route's np.dot to the bit but for a zero's sign, which is
    the BLAS dot's, and at d = 1 equals phases(site)[index]."""
    modes = build_modes(spec)
    index = data.draw(st.integers(0, modes.n_modes - 1))
    kind = data.draw(st.sampled_from(_index_kinds))
    got = modes._digits(kind(index))
    assert got == tuple(int(d) for d in scalar_reference.digits(modes, index))
    assert all(type(d) is int for d in got)
    bad = data.draw(st.sampled_from((-1, modes.n_modes, modes.n_modes + 7, True, False,
                                     np.True_, 1.0, np.float64(index), "1", None)))
    assert _outcome(modes._digits, bad)[0] == "raises"
    assert _outcome(modes._digits, bad) == _outcome(scalar_reference.digits, modes, bad)
    site = data.draw(st.lists(st.integers(-2 * spec.n_sites, 2 * spec.n_sites),
                              min_size=spec.dim, max_size=spec.dim))
    phase = modes.phase_at(kind(index), site)
    assert type(phase) is float
    want = scalar_reference.phase_at(modes, index, site)
    assert phase == want and (phase.hex() == want.hex() or phase == 0.0)
    if spec.dim == 1:
        assert phase == modes.phases(site)[index]


def _raw(system: str, params: dict, scheme: dict, observables: list) -> dict:
    return {"version": 1, "system": system, "system_params": params,
            "alice": {"kind": "kick"}, "scheme": scheme, "observables": observables,
            "lambda_grid": [-0.3, 0.0, 0.3], "lambda_ref": 0.3}


def _site_draws(dim: int, n: int):
    coords = st.integers(-n, n)
    return coords if dim == 1 else st.lists(coords, min_size=dim, max_size=dim)


@st.composite
def sweep_cases(draw):
    """A scenario, one of its system's sweep axes and values along it: a
    field's volume or spacing, or an oscillator's trunc or s_cut.  Values
    that the point refuses are drawn too (an odd N, a site off the lattice,
    a p that becomes self-conjugate, an odd or huge cutoff)."""
    if draw(st.booleans()):
        dim = draw(st.sampled_from((1, 2, 3)))
        n = draw(st.sampled_from((4, 6, 8, 12) if dim < 3 else (4, 6)))
        spacing = draw(st.sampled_from((1.0, 0.5, 2.0, 0.3)))
        params = {"dim": dim, "n_sites": n, "spacing": spacing, "mass": 1.0,
                  **{key: draw(_site_draws(dim, n)) for key in ("x", "y", "p")}}
        axis = draw(st.sampled_from(("volume", "spacing")))
        values = st.integers(1, 40) | st.sampled_from((3, 2**62, 2**63)) if axis == "volume" \
            else st.integers(1, 2 * n).map(lambda k: spacing * n / k) | st.floats(0.01, 10.0)
        raw = _raw("field", params, {"id": "naive-np"}, ["pi_y"])
    else:
        scheme = draw(st.sampled_from(("naive-nplus", "phase-nplus")))
        axis = draw(st.sampled_from(("trunc", "s_cut") if scheme == "phase-nplus" else ("trunc",)))
        values = st.integers(-3, 60) | st.sampled_from((0, 2**60, 2**63))
        extras = {"s_cut": 2 * draw(st.integers(0, 20))} if scheme == "phase-nplus" else {}
        raw = _raw("oscillator", {"trunc": draw(st.integers(1, 60))}, {"id": scheme, **extras},
                   ["PB"])
    try:
        parent = harness.Scenario.from_dict(raw)
    except harness.ScenarioError:
        reject()
    return parent, axis, draw(st.lists(values, min_size=1, max_size=4))


def _replaced(sc, section: str, changes: dict):
    """The fully validated point: ``replace`` with the section's changes."""
    return replace(sc, **{section: {**getattr(sc, section), **changes}})


def _point_at(scenario_at, parent, value):
    try:
        return scenario_at(parent, value)
    except harness.ScenarioError as err:
        return str(err)


def _field_case(n_sites, p, axis, values, x=0, y=1):
    params = {"dim": 1, "n_sites": n_sites, "spacing": 1.0, "mass": 1.0, "x": x, "y": y, "p": p}
    raw = _raw("field", params, {"id": "naive-np"}, ["pi_y"])
    return harness.Scenario.from_dict(raw), axis, values


@SEEDED
@given(case=sweep_cases())
@example(case=_field_case(6, 2, "volume", [3]))                   # odd N
@example(case=_field_case(8, 1, "spacing", [2.0, 0.5], x=1))      # x off the lattice
@example(case=_field_case(8, 2, "spacing", [2.0], y=2))           # p self-conjugate at N = 4
@example(case=(harness.Scenario.from_dict(_raw(
    "oscillator", {"trunc": 20}, {"id": "phase-nplus", "s_cut": 4}, ["PB"])), "s_cut", [3]))
def test_sweep_points_equal_fully_validated_ones(case):
    """A sweep point derived from its parent's typed values is the point
    ``replace`` makes with full validation: the same fields, read-only and
    without lists, ==, hash and typed values, the typed values filled in;
    where either refuses, both do, with the same message."""
    parent, axis, values = case
    scenario_at = harness.SYSTEMS[parent.system].sweep_axes[axis]
    for value in values:
        derived = _point_at(scenario_at, parent, value)
        with mock.patch.object(harness, "_derived", _replaced):
            full = _point_at(scenario_at, parent, value)
        if isinstance(derived, str) or isinstance(full, str):
            assert derived == full
            continue
        assert "typed" in vars(derived)
        for f in fields(harness.Scenario):
            assert getattr(derived, f.name) == getattr(full, f.name)
            assert type(getattr(derived, f.name)) is type(getattr(full, f.name))
        assert derived == full and derived.typed == full.typed == derived.validate()
        assert _outcome(hash, derived) == _outcome(hash, full)
