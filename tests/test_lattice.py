"""Mode enumeration, dispersion, pairing, and the g / g^-1 kernels."""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from causalprobe import cli, field_oracle, fieldtheory, harness
from causalprobe.fieldtheory import KickSpec
from causalprobe.harness import Scenario, make_evaluator
from causalprobe.lattice import LatticeSpec, build_modes, kernel_g, kernel_ginv
from reference_modes import reference_modes

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def small_chain(n=4, mass=1.0, spacing=1.0) -> LatticeSpec:
    return LatticeSpec(dim=1, n_sites=n, spacing=spacing, mass=mass)


class TestBuildModes:
    def test_chain_of_four(self):
        modes = build_modes(small_chain())
        ks = sorted(modes.k.ravel().tolist())
        assert ks == pytest.approx([-math.pi / 2, 0.0, math.pi / 2, math.pi])
        moved = np.array([modes.conjugate(i) for i in range(4)]) != np.arange(4)
        assert moved.sum() == 2      # one +-k pair
        assert (~moved).sum() == 2   # k = 0 and the Nyquist mode

    def test_lattice_dispersion(self):
        modes = build_modes(small_chain(mass=1.0, spacing=0.5))
        for i in range(modes.n_modes):
            k = modes.k[i, 0]
            want = math.sqrt(1.0 + (2 / 0.5) ** 2 * math.sin(k * 0.5 / 2) ** 2)
            assert modes.omega[i] == pytest.approx(want, abs=1e-12)

    def test_massless_zero_mode_regulated(self):
        lat = LatticeSpec(dim=1, n_sites=4, spacing=2.0, mass=0.0)
        modes = build_modes(lat)
        zero = modes.mode_index(0)
        assert modes.omega[zero] == pytest.approx(1e-3 / 2.0, abs=1e-15)
        custom = LatticeSpec(dim=1, n_sites=4, spacing=2.0, mass=0.0,
                             zero_mode_mass=0.05)
        assert build_modes(custom).omega[zero] == pytest.approx(0.05, abs=1e-15)

    @pytest.mark.parametrize("name, value", [
        ("spacing", math.nan), ("spacing", math.inf), ("spacing", 0.0),
        ("hbar", math.nan), ("hbar", -math.inf), ("hbar", 0.0),
        ("mass", math.nan), ("mass", math.inf), ("mass", -1.0),
        ("zero_mode_mass", math.nan), ("zero_mode_mass", math.inf),
        ("zero_mode_mass", 0.0), ("zero_mode_mass", -0.1)])
    def test_non_finite_or_out_of_range_parameter_refused(self, name, value):
        params = dict(dim=1, n_sites=4, spacing=1.0, mass=0.0, hbar=1.0)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            LatticeSpec(**{**params, name: value})

    def test_pairing_partition(self):
        for dim, n in ((1, 6), (2, 4), (3, 2)):
            lat = LatticeSpec(dim=dim, n_sites=n, spacing=1.0, mass=1.0)
            modes = build_modes(lat)
            wavenumbers = reference_modes(lat)["wavenumbers"]
            every = np.arange(modes.n_modes)
            assert [modes.mode_index(w) for w in wavenumbers.tolist()] == list(every)
            conj = np.array([modes.conjugate(i) for i in every])
            # an involution: fixed points and 2-cycles partition the modes
            assert np.array_equal(conj[conj], every)
            selfc = every[conj == every]
            assert len(selfc) == 2**dim
            assert np.isin(wavenumbers[selfc], (0, n // 2)).all()  # 0 or Nyquist
            assert [modes.is_paired(i) for i in every] == list(conj != every)
            # conjugation is negation modulo the dual lattice
            half = n // 2
            folded = ((-wavenumbers[conj] + half - 1) % n) - half + 1
            assert np.array_equal(wavenumbers, folded)
            assert np.allclose(modes.omega, modes.omega[conj], rtol=0, atol=1e-12)

    def test_mode_sets_compare_and_hash_by_identity(self):
        """Two builds of one lattice are distinct mode sets, each with its
        own kernel memo; either can key a dict."""
        first, second = build_modes(small_chain()), build_modes(small_chain())
        assert first == first and first != second
        assert {first: 1, second: 2}[first] == 1

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            LatticeSpec(dim=1, n_sites=5, spacing=1.0, mass=1.0)

    @pytest.mark.parametrize("dim, n_sites", [(1, 2**60), (2, 2**30), (3, 2**20)])
    def test_lattice_no_numpy_array_can_hold_is_refused(self, dim, n_sites):
        """At N^d = 2**63, numpy 2.4's arange is empty and every kernel sums
        to a silent zero; any N^d float64 values past intp's bytes are refused."""
        with pytest.raises(ValueError, match=r"^n_sites\*\*dim must be at most "
                           rf"{np.iinfo(np.intp).max // 8}, the float64 values one numpy "
                           rf"array can address, got {n_sites ** dim}$"):
            LatticeSpec(dim=dim, n_sites=n_sites, spacing=1.0, mass=1.0)
        LatticeSpec(dim=dim, n_sites=n_sites // 2, spacing=1.0, mass=1.0)

    def test_mode_index_folds_wavenumbers(self):
        modes = build_modes(small_chain())
        assert modes.mode_index(3) == modes.mode_index(-1)
        assert modes.is_paired(modes.mode_index(1))
        assert not modes.is_paired(modes.mode_index(2))  # Nyquist
        with pytest.raises(ValueError):
            modes.mode_index((1, 1))

    @pytest.mark.parametrize("index", [-1, 4, 99])
    def test_is_paired_refuses_out_of_range_index(self, index):
        with pytest.raises(ValueError, match="out of range"):
            build_modes(small_chain()).is_paired(index)

    @pytest.mark.parametrize("dim,n,site", [(1, 8, 3), (2, 6, (1, 4)), (3, 4, (3, 0, 2))])
    def test_phases_equal_phase_at(self, dim, n, site):
        modes = build_modes(LatticeSpec(dim=dim, n_sites=n, spacing=0.37, mass=1.0))
        want = [modes.phase_at(i, site) for i in range(modes.n_modes)]
        assert modes.phases(site).tolist() == want


class TestIntegralInputs:
    """Sites, wavenumbers, dim and n_sites are integers or refused by name."""

    @pytest.mark.parametrize("site", [2.7, 2.0, "3", True, np.float64(1.0), [1.5], None])
    def test_site_refuses_non_integers(self, site):
        with pytest.raises(ValueError, match="site"):
            small_chain().site(site)

    @pytest.mark.parametrize("site", [(1, 2.5, 0), [0, True, 1], "123", np.array([0.0, 1.0, 2.0])])
    def test_site_refuses_non_integer_coordinates(self, site):
        with pytest.raises(ValueError, match="site"):
            LatticeSpec(dim=3, n_sites=4, spacing=1.0, mass=1.0).site(site)

    def test_site_takes_any_integer_type(self):
        lat = LatticeSpec(dim=2, n_sites=4, spacing=1.0, mass=1.0)
        assert lat.site((np.int64(5), -1)) == lat.site(np.array([1, 3])) == (1, 3)
        assert small_chain().site(np.int32(6)) == (2,)

    @pytest.mark.parametrize("wavenumber", [1.7, 1.0, "1", True, [1.0]])
    def test_mode_index_refuses_non_integers(self, wavenumber):
        with pytest.raises(ValueError, match="wavenumber"):
            build_modes(small_chain()).mode_index(wavenumber)

    @pytest.mark.parametrize("index", [True, False, np.True_, 2.0, np.float64(1.0), 1.5, "1", None])
    def test_mode_reads_refuse_non_integer_indices(self, index):
        """Formerly frequency(True) read mode 1 and frequency(2.0) raised
        numpy's "only int indices permitted", naming no argument."""
        modes = build_modes(small_chain(n=8))
        kick = KickSpec(site=0, strength=0.3)
        message = re.escape(f"mode index must be an integer, got {index!r}")
        for read in (modes.frequency, lambda i: modes.phase_at(i, 2), modes.is_paired,
                     lambda i: fieldtheory.qndsv_phi_y(modes, kick, 2, i),
                     lambda i: field_oracle.numeric_oracle_qndsv(modes, kick, 2, i, 4)):
            with pytest.raises(ValueError, match=message):
                read(index)

    def test_mode_reads_take_any_integer_type(self):
        modes = build_modes(small_chain(n=8))
        for read in (modes.frequency, lambda i: modes.phase_at(i, 2), modes.is_paired):
            assert read(np.int64(1)) == read(np.int32(1)) == read(1)

    @pytest.mark.parametrize("field, value", [("dim", True), ("dim", 1.0), ("dim", "1"),
                                              ("n_sites", 8.0), ("n_sites", True),
                                              ("n_sites", (8,))])
    def test_spec_refuses_non_integer_sizes(self, field, value):
        sizes = {"dim": 1, "n_sites": 8, field: value}
        with pytest.raises(ValueError, match=field):
            LatticeSpec(**sizes, spacing=1.0, mass=1.0)

    def test_spec_stores_plain_ints(self):
        lat = LatticeSpec(dim=np.int64(2), n_sites=np.int64(4), spacing=1.0, mass=1.0)
        assert type(lat.dim) is int and type(lat.n_sites) is int
        assert lat == LatticeSpec(dim=2, n_sites=4, spacing=1.0, mass=1.0)

    @pytest.mark.parametrize("x, y", [(0.9, 2), (0, 2.5), (0.9, 2.5)])
    def test_closed_forms_refuse_off_lattice_sites(self, x, y):
        """Formerly truncated: kick site 0.9 and y = 2.5 reported sites 0 and 2."""
        modes = build_modes(small_chain(n=8))
        p = modes.mode_index(1)
        kick = KickSpec(site=x, strength=0.3)
        for forms in ("naive_np", "prestate", "qndsv"):
            for obs in fieldtheory.OBSERVABLES if forms != "qndsv" else ("phi_y", "phi2_y"):
                with pytest.raises(ValueError, match="site"):
                    fieldtheory.closed_forms(forms, modes, kick, y, p, (obs,))
        with pytest.raises(ValueError, match="site"):
            fieldtheory.naive_np_expectations(modes, kick, y, p)


class TestKernels:
    def test_two_site_hand_sum(self):
        # modes k in {0, pi}: omega = {1, sqrt(5)}; volume 2
        modes = build_modes(small_chain(n=2))
        assert kernel_ginv(modes, 0, 0) == pytest.approx(
            0.5 * (1.0 + 1.0 / math.sqrt(5)), abs=1e-14)
        assert kernel_g(modes, 0, 0) == pytest.approx(
            0.5 * (1.0 + math.sqrt(5)), abs=1e-14)

    @pytest.mark.parametrize("dim,n,spacing,mass", [
        (1, 4, 1.0, 1.0), (1, 8, 0.5, 0.2), (2, 4, 1.0, 1.0), (1, 6, 1.0, 0.0),
    ])
    def test_convolution_duality(self, dim, n, spacing, mass):
        """a^d sum_z ginv(x,z) g(z,y) = delta_xy / a^d."""
        import itertools

        lat = LatticeSpec(dim=dim, n_sites=n, spacing=spacing, mass=mass)
        modes = build_modes(lat)
        sites = list(itertools.product(range(n), repeat=dim))
        ad = spacing**dim
        for x in sites[: 4]:
            for y in sites[: 4]:
                total = ad * sum(kernel_ginv(modes, x, z) * kernel_g(modes, z, y)
                                 for z in sites)
                want = (1.0 if x == y else 0.0) / ad
                assert total == pytest.approx(want, abs=1e-10)

    def test_translation_invariance(self):
        modes = build_modes(small_chain(n=8, mass=0.3))
        for kern in (kernel_g, kernel_ginv):
            for shift in (1, 3, 5):
                assert kern(modes, 2, 6) == pytest.approx(
                    kern(modes, 2 + shift, 6 + shift), abs=1e-12)

    def test_ginv_diagonal_grows_as_spacing_shrinks(self):
        # fixed physical box, finer lattice: more modes, larger (1/V) sum 1/omega
        coarse = build_modes(LatticeSpec(dim=1, n_sites=8, spacing=1.0, mass=1.0))
        fine = build_modes(LatticeSpec(dim=1, n_sites=16, spacing=0.5, mass=1.0))
        finest = build_modes(LatticeSpec(dim=1, n_sites=32, spacing=0.25, mass=1.0))
        vals = [kernel_ginv(m, 0, 0) for m in (coarse, fine, finest)]
        assert vals[0] < vals[1] < vals[2]

    def test_kernels_are_real_symmetric(self):
        modes = build_modes(small_chain(n=8, mass=0.5))
        for x in range(4):
            for y in range(4):
                assert kernel_ginv(modes, x, y) == pytest.approx(
                    kernel_ginv(modes, y, x), abs=1e-14)


class _FillCounter(dict):
    """A kernel memo that counts its fills: one per kernel sum, at any
    displacement, on every mode set that shares the counter."""

    def __init__(self, counter):
        super().__init__()
        self.counter = counter

    def __setitem__(self, key, value):
        self.counter.calls += 1
        super().__setitem__(key, value)


@pytest.fixture
def kernel_sums(monkeypatch):
    """``build`` makes a mode set whose memo counts its fills in ``calls``;
    the harness builds through it, and ``built`` lists what it made."""
    counter = SimpleNamespace(calls=0, built=[])

    def build(lat):
        modes = build_modes(lat)
        object.__setattr__(modes, "_kernels", _FillCounter(counter))
        counter.built.append(modes)
        return modes

    counter.build = build
    monkeypatch.setattr(harness, "build_modes", build)
    return counter


class TestKernelMemo:
    """Each kernel is summed once per mode set, weight and displacement."""

    D3 = ["--d", "3", "--N", "32", "--mass", "1", "--x", "0,0,0", "--y", "1,0,0",
          "--p-index", "1,0,0", "--grid=-1:1:21"]

    @pytest.mark.parametrize("scheme", ["qndsv", "naive"])
    def test_d3_run_sums_two_kernels(self, kernel_sums, tmp_path, scheme):
        """21 grid points and 4 Richardson steps: qndsv needs ginv at
        displacements 0 (xx and yy) and x - y; naive needs ginv_yy and g_yy."""
        assert cli.main(["field", scheme, *self.D3, "--out", str(tmp_path)]) == 0
        assert kernel_sums.calls == 2

    def test_pi_y_volume_sweep_sums_no_kernel(self, kernel_sums, tmp_path):
        """<pi_y> reads no kernel and the phases of p from its digits: no
        point of a pi_y-only sweep sums a kernel or builds omega, k, the
        conjugate index or even one axis's wave numbers."""
        built = kernel_sums.built
        values = [4 << i for i in range(10)]
        assert cli.main(["sweep", "--scenario", str(SCENARIOS / "field_volume_sweep.json"),
                         "--axis", "volume", "--values", ",".join(map(str, values)),
                         "--out", str(tmp_path)]) == 0
        assert kernel_sums.calls == 0
        assert [modes.lattice.n_sites for modes in built] == values
        unbuilt = {"omega", "k", "ksq_axis", "k_axis"}
        assert all(not unbuilt & set(vars(modes)) for modes in built)

    def test_compare_shares_one_memo(self, kernel_sums, tmp_path):
        """none, naive and qndsv rows of phi_y and phi2_y read one mode set:
        ginv at displacements 0 and x - y, each summed once for the whole
        table, and g not at all."""
        assert cli.main(["compare", "--scenario", str(SCENARIOS / "field_qndsv.json"),
                         "--schemes", "none,naive,qndsv", "--out", str(tmp_path)]) == 0
        assert kernel_sums.calls == 2

    @pytest.mark.parametrize("scheme", ["naive-np", "none"])
    def test_each_observable_sums_only_the_kernels_it_reads(self, scheme):
        """On one mode set: phi_y and pi_y sum no kernel, phi2_y adds one
        ginv entry and pi2_y one g entry."""
        base = Scenario.from_dict(json.loads((SCENARIOS / "field_naive.json").read_text()))
        built = {}

        def kernels_after(obs):
            sc = replace(base, scheme={"id": scheme}, observables=(obs,))
            evaluate = make_evaluator(sc, sc.lambda_grid, built=built)
            for lam in sc.lambda_grid:
                evaluate(obs, lam)
            (modes,) = built.values()
            return sorted(inverse for inverse, _ in modes._kernels)

        assert kernels_after("pi_y") == []
        assert kernels_after("phi_y") == []
        assert kernels_after("phi2_y") == [True]
        assert kernels_after("pi2_y") == [False, True]

    def test_d3_qndsv_report_builds_no_wave_vectors(self, kernel_sums, tmp_path):
        """g^-1_xy contracts one axis's plane waves: the report's mode set
        never builds the (M, d) array k."""
        assert cli.main(["field", "qndsv", *self.D3, "--out", str(tmp_path)]) == 0
        (modes,) = kernel_sums.built
        assert any(disp != (0, 0, 0) for _, disp in modes._kernels)
        assert "k" not in vars(modes)

    def test_diagonal_is_one_sum_per_weight(self, kernel_sums):
        modes = kernel_sums.build(LatticeSpec(dim=2, n_sites=6, spacing=0.5, mass=0.3))
        for x in [(0, 0), (1, 4), (5, 5), (-1, 7)]:
            kernel_g(modes, x, x)
            kernel_ginv(modes, x, x)
        assert kernel_sums.calls == 2
