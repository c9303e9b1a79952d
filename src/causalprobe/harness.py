"""Scenario runner: bundles (system, Alice's operation family, measurement
prescription, Bob's observables), tabulates Bob's expectation values over
the lam grid, differentiates at lam = 0, and fits cutoff scalings.

Everything downstream is a pure function of the scenario, so reports are
reproducible bit for bit; grid points may be evaluated in parallel (capped
by CAUSAL_PROBE_THREADS) with a fixed reduction order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fieldtheory, oscillators, spins
from .core import post_measurement_expectation
from .lattice import LatticeSpec, build_modes

SYSTEMS = ("spin", "oscillator", "field")

_SPIN_SCHEMES = ("qndsv", "s2-standard", "s2-bell", "s2-luders",
                 "sz-standard", "sz-bell", "sz-luders", "none")
_OSC_SCHEMES = ("naive-nplus", "phase-nplus", "none")
_FIELD_SCHEMES = ("qndsv-1p", "naive-np", "none")

_SPIN_OBS = ("sAx", "sAy", "sAz", "sBx", "sBy", "sBz", "S2", "Sz")
_OSC_OBS = ("QB", "PB", "QB2", "PB2", "EB")
_FIELD_OBS = ("phi_y", "pi_y", "phi2_y", "pi2_y")


class ScenarioError(ValueError):
    """A scenario fails structural validation."""


def _check_keys(obj: dict, required, optional, where: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object, got {type(obj).__name__}")
    keys = set(obj)
    missing = set(required) - keys
    unknown = keys - set(required) - set(optional)
    if missing:
        raise ScenarioError(f"{where} is missing keys {sorted(missing)}")
    if unknown:
        raise ScenarioError(f"{where} has unknown keys {sorted(unknown)} (strict mode)")


@dataclass(frozen=True)
class Scenario:
    system: str
    system_params: dict
    alice: dict
    scheme: dict
    observables: tuple[str, ...]
    lambda_grid: tuple[float, ...]
    lambda_ref: float = 0.0

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        _check_keys(raw, ("version", "system", "system_params", "alice", "scheme",
                          "observables", "lambda_grid"), ("lambda_ref",), "scenario")
        if raw["version"] != 1:
            raise ScenarioError(f"unsupported scenario version {raw['version']!r}")
        sc = cls(
            system=raw["system"],
            system_params=dict(raw["system_params"]),
            alice=dict(raw["alice"]),
            scheme=dict(raw["scheme"]),
            observables=tuple(raw["observables"]),
            lambda_grid=tuple(float(v) for v in raw["lambda_grid"]),
            lambda_ref=float(raw.get("lambda_ref", 0.0)),
        )
        sc.validate()
        return sc

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "system": self.system,
            "system_params": dict(self.system_params),
            "alice": dict(self.alice),
            "scheme": dict(self.scheme),
            "observables": list(self.observables),
            "lambda_grid": list(self.lambda_grid),
            "lambda_ref": self.lambda_ref,
        }

    def with_updates(self, *, system_params=None, scheme=None) -> "Scenario":
        sp = dict(self.system_params)
        sp.update(system_params or {})
        sch = dict(self.scheme)
        sch.update(scheme or {})
        out = Scenario(self.system, sp, dict(self.alice), sch,
                       self.observables, self.lambda_grid, self.lambda_ref)
        out.validate()
        return out

    def with_scheme(self, scheme: dict) -> "Scenario":
        """Replace (not merge) the measurement prescription."""
        out = Scenario(self.system, dict(self.system_params), dict(self.alice),
                       dict(scheme), self.observables, self.lambda_grid, self.lambda_ref)
        out.validate()
        return out

    # -- validation ------------------------------------------------------
    def validate(self) -> None:
        if self.system not in SYSTEMS:
            raise ScenarioError(f"unknown system {self.system!r}")
        if not self.observables:
            raise ScenarioError("at least one observable is required")
        if not self.lambda_grid:
            raise ScenarioError("lambda_grid must be non-empty")
        if any(b <= a for a, b in zip(self.lambda_grid, self.lambda_grid[1:])):
            raise ScenarioError("lambda_grid must be strictly increasing")
        getattr(self, f"_validate_{self.system}")()

    def _validate_spin(self) -> None:
        _check_keys(self.system_params, ("initial",), ("hbar",), "system_params")
        initial = self.system_params["initial"]
        if len(initial) != 2:
            raise ScenarioError("spin initial state needs exactly two labels")
        _check_keys(self.alice, ("kind",), ("axis",), "alice")
        if self.alice["kind"] != "rotate":
            raise ScenarioError("spin scenarios use alice kind 'rotate'")
        sid = self.scheme.get("id")
        if sid not in _SPIN_SCHEMES:
            raise ScenarioError(f"unknown spin scheme {sid!r}")
        _check_keys(self.scheme, ("id",), ("target",) if sid == "qndsv" else (), "scheme")
        if sid == "qndsv" and "target" not in self.scheme:
            raise ScenarioError("qndsv scheme needs a target")
        bad = set(self.observables) - set(_SPIN_OBS)
        if bad:
            raise ScenarioError(f"unknown spin observables {sorted(bad)}")

    def _validate_oscillator(self) -> None:
        _check_keys(self.system_params, (),
                    ("mass", "frequency", "hbar", "p_a", "p_b", "trunc"), "system_params")
        _check_keys(self.alice, ("kind",), (), "alice")
        if self.alice["kind"] != "kick":
            raise ScenarioError("oscillator scenarios use alice kind 'kick'")
        sid = self.scheme.get("id")
        if sid not in _OSC_SCHEMES:
            raise ScenarioError(f"unknown oscillator scheme {sid!r}")
        extras = ("s_cut", "n_max") if sid == "phase-nplus" else ()
        _check_keys(self.scheme, ("id",), extras, "scheme")
        if sid == "phase-nplus" and "s_cut" not in self.scheme:
            raise ScenarioError("phase-nplus scheme needs s_cut")
        bad = set(self.observables) - set(_OSC_OBS)
        if bad:
            raise ScenarioError(f"unknown oscillator observables {sorted(bad)}")

    def _validate_field(self) -> None:
        _check_keys(self.system_params, ("n_sites", "mass", "x", "y", "p"),
                    ("dim", "spacing", "hbar", "dispersion", "zero_mode_mass"),
                    "system_params")
        _check_keys(self.alice, ("kind",), (), "alice")
        if self.alice["kind"] != "kick":
            raise ScenarioError("field scenarios use alice kind 'kick'")
        sid = self.scheme.get("id")
        if sid not in _FIELD_SCHEMES:
            raise ScenarioError(f"unknown field scheme {sid!r}")
        _check_keys(self.scheme, ("id",), (), "scheme")
        bad = set(self.observables) - set(_FIELD_OBS)
        if bad:
            raise ScenarioError(f"unknown field observables {sorted(bad)}")
        if sid == "qndsv-1p":
            unsupported = set(self.observables) - {"phi_y", "phi2_y"}
            if unsupported:
                raise ScenarioError(
                    f"qndsv-1p only reports phi_y/phi2_y, not {sorted(unsupported)}")


# ---------------------------------------------------------------------------
# evaluators: (observable, lam) -> expectation value

def _spin_evaluator(sc: Scenario):
    sp = sc.system_params
    hbar = float(sp.get("hbar", 1.0))
    initial = tuple(sp["initial"])
    axis = tuple(sc.alice.get("axis", (0.0, 1.0, 0.0)))
    scheme = spins.spin_scheme(sc.scheme["id"], target=sc.scheme.get("target"))
    obs_ops = {name: spins.spin_observable(name, hbar) for name in sc.observables}
    prestate = spins.spin_state(*initial)

    def evaluate(obs: str, lam: float) -> float:
        state = spins.alice_rotate(prestate, axis, lam)
        return post_measurement_expectation(state, scheme, obs_ops[obs])

    return evaluate


_OSC_FIELDS = {"QB": "q", "PB": "p", "QB2": "q2", "PB2": "p2", "EB": "energy"}


def _oscillator_evaluator(sc: Scenario):
    sp = sc.system_params
    params = oscillators.OscParams(
        mass=float(sp.get("mass", 1.0)),
        frequency=float(sp.get("frequency", 1.0)),
        hbar=float(sp.get("hbar", 1.0)),
    )
    p_a, p_b = float(sp.get("p_a", 0.0)), float(sp.get("p_b", 0.0))
    trunc = int(sp.get("trunc", 40))
    sid = sc.scheme["id"]
    cache: dict[float, oscillators.LocalMoments] = {}

    def moments(lam: float) -> oscillators.LocalMoments:
        if lam not in cache:
            kick = oscillators.KickParams(p_a=p_a, p_b=p_b, lam=lam)
            if sid == "phase-nplus":
                s_cut = int(sc.scheme["s_cut"])
                n_max = int(sc.scheme.get("n_max", trunc))
                cache[lam] = oscillators.phase_ensemble_moments(params, kick, s_cut, n_max)
            elif sid == "naive-nplus":
                pre = oscillators.coherent_prestate(params, kick, trunc)
                ens = oscillators.naive_nplus_ensemble(pre)
                cache[lam] = oscillators.local_moments_b(ens, params)
            else:
                pre = oscillators.coherent_prestate(params, kick, trunc)
                cache[lam] = oscillators.local_moments_b(pre)
        return cache[lam]

    def evaluate(obs: str, lam: float) -> float:
        return getattr(moments(lam), _OSC_FIELDS[obs])

    return evaluate


def _field_evaluator(sc: Scenario):
    sp = sc.system_params
    lattice = LatticeSpec(
        dim=int(sp.get("dim", 1)),
        n_sites=int(sp["n_sites"]),
        spacing=float(sp.get("spacing", 1.0)),
        mass=float(sp["mass"]),
        hbar=float(sp.get("hbar", 1.0)),
        dispersion=sp.get("dispersion", "lattice"),
        zero_mode_mass=sp.get("zero_mode_mass"),
    )
    modes = build_modes(lattice)
    x, y = sp["x"], sp["y"]
    p_index = modes.mode_index(sp["p"])
    if not modes.is_paired(p_index):
        raise ScenarioError(f"wavenumber {sp['p']!r} is self-conjugate, pick a paired mode")
    sid = sc.scheme["id"]

    def evaluate(obs: str, lam: float) -> float:
        kick = fieldtheory.KickSpec(site=x, strength=lam)
        if sid == "naive-np":
            vals = fieldtheory.naive_np_expectations(modes, kick, y, p_index).as_dict()
            return vals[obs]
        if sid == "none":
            return fieldtheory.prestate_expectations(modes, kick, y).as_dict()[obs]
        if obs == "phi_y":
            return fieldtheory.qndsv_phi_y(modes, kick, y, p_index)
        return fieldtheory.qndsv_phi2_y(modes, kick, y, p_index)

    return evaluate


def make_evaluator(sc: Scenario):
    sc.validate()
    return {"spin": _spin_evaluator, "oscillator": _oscillator_evaluator,
            "field": _field_evaluator}[sc.system](sc)


def _worker_count() -> int:
    raw = os.environ.get("CAUSAL_PROBE_THREADS", "")
    if raw.strip():
        return max(1, int(raw))
    return os.cpu_count() or 1


def _ordered_map(fn, items):
    items = list(items)
    workers = min(_worker_count(), len(items)) if items else 1
    if workers <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def central_derivative(fn, at: float, scale: float) -> float:
    """Central difference with one Richardson refinement, h = 1e-3 * scale."""
    h = 1e-3 * scale

    def diff(step: float) -> float:
        return (fn(at + step) - fn(at - step)) / (2.0 * step)

    return (4.0 * diff(h / 2.0) - diff(h)) / 3.0


@dataclass(frozen=True)
class SignalingReport:
    """Per-observable lam tables plus the signaling diagnostics."""

    scenario: Scenario
    tables: dict            # observable -> tuple[(lam, value), ...]
    baseline: dict          # observable -> value at lam = 0
    derivative_at_zero: dict
    max_deviation: dict

    def table(self, obs: str):
        return self.tables[obs]


def run_scenario(sc: Scenario) -> SignalingReport:
    evaluate = make_evaluator(sc)
    grid = sc.lambda_grid
    scale = max((abs(v) for v in grid), default=1.0) or 1.0
    tables = {}
    baseline = {}
    deriv = {}
    maxdev = {}
    for obs in sc.observables:
        values = _ordered_map(lambda lam: evaluate(obs, lam), grid)
        tables[obs] = tuple(zip(grid, values))
        base = evaluate(obs, 0.0)
        baseline[obs] = base
        deriv[obs] = central_derivative(lambda lam: evaluate(obs, lam), 0.0, scale)
        maxdev[obs] = max(abs(v - base) for v in values)
    return SignalingReport(scenario=sc, tables=tables, baseline=baseline,
                           derivative_at_zero=deriv, max_deviation=maxdev)


# ---------------------------------------------------------------------------
# cutoff sweeps

SWEEP_AXES = ("volume", "spacing", "s_cut", "trunc")
SWEEP_MEASURES = ("deviation", "after_value", "amplitude")


@dataclass(frozen=True)
class PowerFit:
    exponent: float
    r_squared: float


@dataclass(frozen=True)
class SweepReport:
    scenario: Scenario
    axis: str
    values: tuple[float, ...]
    measure: str
    rows: dict               # observable -> tuple of measures, one per value
    fits: dict               # observable -> PowerFit


def _rescaled_for_volume(sc: Scenario, n_sites: int) -> Scenario:
    base_n = int(sc.system_params["n_sites"])
    p = sc.system_params["p"]
    if np.isscalar(p):
        scaled = p * n_sites / base_n
        if scaled != int(scaled):
            raise ScenarioError(
                f"wavenumber {p!r} cannot be held fixed in physical units at N={n_sites}")
        p_new = int(scaled)
    else:
        p_new = []
        for comp in p:
            scaled = comp * n_sites / base_n
            if scaled != int(scaled):
                raise ScenarioError(
                    f"wavenumber {p!r} cannot be held fixed in physical units at N={n_sites}")
            p_new.append(int(scaled))
    return sc.with_updates(system_params={"n_sites": int(n_sites), "p": p_new})


def _rescaled_for_spacing(sc: Scenario, spacing: float) -> Scenario:
    base_n = int(sc.system_params["n_sites"])
    base_a = float(sc.system_params.get("spacing", 1.0))
    length = base_n * base_a
    n_new = length / spacing
    if abs(n_new - round(n_new)) > 1e-9 or int(round(n_new)) % 2 != 0:
        raise ScenarioError(f"spacing {spacing!r} does not preserve the box: N={n_new}")
    n_new = int(round(n_new))
    ratio = base_a / spacing

    def rescale_site(site):
        vals = [site] if np.isscalar(site) else list(site)
        out = []
        for v in vals:
            w = v * ratio
            if abs(w - round(w)) > 1e-9:
                raise ScenarioError(
                    f"site {site!r} is not on the lattice at spacing {spacing!r}")
            out.append(int(round(w)))
        return out[0] if np.isscalar(site) else out

    return sc.with_updates(system_params={
        "n_sites": n_new, "spacing": float(spacing),
        "x": rescale_site(sc.system_params["x"]),
        "y": rescale_site(sc.system_params["y"]),
    })


def _integral(axis: str, value) -> int:
    """An integer-valued sweep point; 8.0 is accepted, 4.5 is refused."""
    if not float(value).is_integer():
        raise ScenarioError(f"sweep axis {axis!r} needs integer values, got {value!r}")
    return int(value)


def _scenario_at(sc: Scenario, axis: str, value) -> Scenario:
    if axis == "volume":
        return _rescaled_for_volume(sc, _integral(axis, value))
    if axis == "spacing":
        return _rescaled_for_spacing(sc, float(value))
    if axis == "s_cut":
        return sc.with_updates(scheme={"s_cut": _integral(axis, value)})
    if axis == "trunc":
        return sc.with_updates(system_params={"trunc": _integral(axis, value)})
    raise ScenarioError(f"unknown sweep axis {axis!r}")


def _axis_allowed(sc: Scenario, axis: str) -> None:
    field_axes = ("volume", "spacing")
    osc_axes = ("s_cut", "trunc")
    ok = (sc.system == "field" and axis in field_axes) or \
         (sc.system == "oscillator" and axis in osc_axes)
    if not ok:
        raise ScenarioError(f"axis {axis!r} is not meaningful for system {sc.system!r}")


def power_fit(xs, ys) -> PowerFit:
    """Least-squares slope of log|y| vs log x.

    Magnitudes are floored at 1e-300 so an identically-zero measure yields a
    (meaningless but finite) fit instead of log(0); causal schemes are
    expected to produce such rows.
    """
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.maximum(np.abs(np.asarray(ys, dtype=float)), 1e-300))
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerFit(exponent=float(coef[0]), r_squared=r2)


def cutoff_sweep(sc: Scenario, axis: str, values, measure: str = "deviation") -> SweepReport:
    """Evaluate the signaling measure across a cutoff sweep and fit a power law.

    measure "deviation": max_lam |<O>(lam) - <O>(0)| per observable;
    "after_value": <O>(lambda_ref); "amplitude": the field suppression
    amplitude max_lam lam e^{-lam^2 ginv_xx/2hbar} (observable-free).
    """
    _axis_allowed(sc, axis)
    if measure not in SWEEP_MEASURES:
        raise ScenarioError(f"unknown sweep measure {measure!r}")
    values = tuple(values)
    if len(values) < 3:
        raise ScenarioError("a cutoff sweep needs at least 3 points")

    def measures_at(value) -> dict:
        sub = _scenario_at(sc, axis, value)
        if measure == "amplitude":
            sp = sub.system_params
            lattice = LatticeSpec(
                dim=int(sp.get("dim", 1)), n_sites=int(sp["n_sites"]),
                spacing=float(sp.get("spacing", 1.0)), mass=float(sp["mass"]),
                hbar=float(sp.get("hbar", 1.0)),
                dispersion=sp.get("dispersion", "lattice"),
                zero_mode_mass=sp.get("zero_mode_mass"))
            amp = fieldtheory.max_signaling(build_modes(lattice), sp["x"]).amplitude
            return {"suppression_amplitude": amp}
        evaluate = make_evaluator(sub)
        out = {}
        for obs in sub.observables:
            if measure == "after_value":
                out[obs] = evaluate(obs, sub.lambda_ref)
            else:
                base = evaluate(obs, 0.0)
                out[obs] = max(abs(evaluate(obs, lam) - base) for lam in sub.lambda_grid)
        return out

    per_value = _ordered_map(measures_at, values)
    names = list(per_value[0])
    rows = {name: tuple(pv[name] for pv in per_value) for name in names}
    fits = {name: power_fit(values, rows[name]) for name in names}
    return SweepReport(scenario=sc, axis=axis, values=values, measure=measure,
                       rows=rows, fits=fits)


@dataclass(frozen=True)
class CompareRow:
    scheme_id: str
    observable: str
    before: float
    after: float
    derivative: float


def compare_schemes(sc: Scenario, scheme_ids) -> tuple[CompareRow, ...]:
    """Side-by-side before/after/derivative table across prescriptions.

    'before' is Bob's value on the pre-measurement state at lambda_ref,
    'after' the post-measurement ensemble value there, 'derivative' the
    signaling derivative of the after-value at lam = 0.
    """
    scheme_ids = tuple(scheme_ids)
    if len(scheme_ids) < 2:
        raise ScenarioError("compare_schemes needs at least two scheme ids")
    rows = []
    scale = max((abs(v) for v in sc.lambda_grid), default=1.0) or 1.0
    for sid in scheme_ids:
        sub = sc.with_scheme(_scheme_for_id(sc, sid))
        evaluate = make_evaluator(sub)
        before_eval = make_evaluator(sub.with_scheme({"id": "none"}))
        for obs in sub.observables:
            rows.append(CompareRow(
                scheme_id=sid,
                observable=obs,
                before=before_eval(obs, sub.lambda_ref),
                after=evaluate(obs, sub.lambda_ref),
                derivative=central_derivative(
                    lambda lam: evaluate(obs, lam), 0.0, scale),
            ))
    return tuple(rows)


def _scheme_for_id(sc: Scenario, sid: str) -> dict:
    """Scheme dict for sid, carrying over only the extras that id accepts."""
    keep = {"qndsv": ("target",), "phase-nplus": ("s_cut", "n_max")}.get(sid, ())
    out = {"id": sid}
    for key in keep:
        if key in sc.scheme:
            out[key] = sc.scheme[key]
    return out
