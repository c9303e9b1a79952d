"""Scenario runner: bundles (system, Alice's operation family, measurement
prescription, Bob's observables), tabulates Bob's expectation values over
the lam grid, differentiates at lam = 0, and fits cutoff scalings.  Each
system is one declarative table in ``SYSTEMS``, read by validation, the
evaluators and the CLI, so a new prescription is one table entry.

A scenario is checked once, when it is made (``dataclasses.replace``
included), and keeps its typed values as ``Scenario.typed``: every
``Scenario`` that exists is valid.

Everything downstream is a pure function of the scenario, so reports are
reproducible bit for bit.  Each report hands its evaluator every lam it
will read, and the system evaluates the distinct ones in one array call,
for every observable, in one thread.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import namedtuple
from collections.abc import Mapping
# unused here: perfbench/tracing.py:231 rebinds it; the next benchmark change removes it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Callable

import numpy as np

from . import fieldtheory, oscillators, spins
from .core import post_measurement_expectations
from .lattice import DISPERSIONS, LatticeSpec, build_modes


class ScenarioError(ValueError):
    """A scenario fails structural validation."""


def _check_keys(obj: Mapping, required, optional, where: str) -> None:
    if not isinstance(obj, Mapping):
        raise ScenarioError(f"{where} must be an object, got {type(obj).__name__}")
    keys = set(obj)
    missing = set(required) - keys
    unknown = keys - set(required) - set(optional)
    if missing:
        raise ScenarioError(f"{where} is missing keys {sorted(missing)}")
    if unknown:
        raise ScenarioError(f"{where} has unknown keys {sorted(unknown)} (strict mode)")


# ---------------------------------------------------------------------------
# typed values: nothing is coerced, a value of the wrong type is refused

def _integral(what: str, value) -> int:
    """An integer value; 8.0 is accepted, 4.5, NaN, True and "8" are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not float(value).is_integer():
        raise ScenarioError(f"{what} needs integer values, got {value!r}")
    return int(value)


def _real(what: str, value) -> float:
    """A finite number; NaN, Infinity, True and "1.0" are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ScenarioError(f"{what} needs finite numbers, got {value!r}")
    return float(value)


def _labels(what: str, value) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2 \
            or not all(isinstance(v, str) for v in value):
        raise ScenarioError(f"{what} needs exactly two labels, got {value!r}")
    return tuple(value)


def _site(what: str, value):
    """A lattice site or integer wavenumber: an int (d = 1) or a list."""
    if isinstance(value, (list, tuple)):
        return [_integral(what, v) for v in value]
    return _integral(what, value)


def _vector(what: str, value) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"{what} needs three components, got {value!r}")
    return tuple(_real(what, v) for v in value)


# a "choice" is passed on as is: its consumer (LatticeSpec) checks membership
_KINDS = {"int": _integral, "float": _real, "labels": _labels, "site": _site,
          "vector": _vector, "choice": lambda what, value: value}
_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """A typed entry of system_params, alice or a scheme; kind is a key of
    _KINDS, choices what the CLI offers.  A None default lets it be null."""

    kind: str
    default: object = _REQUIRED
    flag: str | None = None
    help: str | None = None
    choices: tuple | None = None
    check: Callable = lambda value: None    # its consumer's refusal (a ValueError)

    def read(self, what: str, value):
        if value is None and self.default is None:
            return None
        typed = _KINDS[self.kind](what, value)
        try:
            self.check(typed)
        except ValueError as err:
            raise ScenarioError(f"{what}: {err}") from None
        return typed


def _resolve(section: dict, spec: dict, where: str, head: tuple = ()) -> dict:
    """Typed values of spec's entries, defaults filled in; ``head`` names
    the section's other keys (a scheme's id)."""
    required = [key for key, param in spec.items() if param.default is _REQUIRED]
    _check_keys(section, (*head, *required), tuple(spec), where)
    return {key: param.read(f"{where}.{key}", section.get(key, param.default))
            for key, param in spec.items()}


@dataclass(frozen=True)
class Scheme:
    """A measurement prescription: its extras, the observables it is
    restricted to (empty: any), and the function computing its values."""

    extras: dict = field(default_factory=dict)
    observables: tuple = ()
    compute: Callable | None = None


@dataclass(frozen=True)
class System:
    """Everything one system's scenarios may say, declared once."""

    params: dict                  # name -> Param
    alice: str                    # Alice's operation kind
    schemes: dict                 # id -> Scheme
    observables: tuple | dict     # names (the oscillator's map to moment fields)
    evaluator: Callable           # (Scenario, built) -> values(lams) -> {obs: array}
    default_observables: tuple = ()                   # empty: all observables
    alice_params: dict = field(default_factory=dict)
    aliases: dict = field(default_factory=dict)       # CLI name -> scheme id
    sweep_axes: dict = field(default_factory=dict)    # axis -> (sc, value) -> sc
    amplitude: Callable | None = None   # Scenario -> observable-free sweep measure

    def scheme_for_id(self, sid: str, current: dict) -> dict:
        """Scheme dict for a command-line id, alias resolved (field: naive ->
        naive-np), carrying over from ``current`` only the extras it accepts."""
        sid = self.aliases.get(sid, sid)
        keep = self.schemes[sid].extras if sid in self.schemes else {}
        return {"id": sid, **{k: v for k, v in current.items() if k in keep}}

    def defaults(self, sid) -> tuple:
        """The observables reported when none are asked for."""
        scheme = self.schemes.get(sid) if isinstance(sid, str) else None
        return (scheme and scheme.observables) or self.default_observables \
            or tuple(self.observables)


# a scenario's typed values, defaults filled in
Typed = namedtuple("Typed", "params alice scheme extras")


def check_shape(raw) -> None:
    """Refuse a scenario whose sections have the wrong JSON type."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"scenario must be an object, got {type(raw).__name__}")
    for key, kind in (("system_params", dict), ("alice", dict), ("scheme", dict),
                      ("observables", (list, tuple)), ("lambda_grid", (list, tuple))):
        if key in raw and not isinstance(raw[key], kind):
            shape = "an object" if kind is dict else "a list"
            raise ScenarioError(f"{key} must be {shape}, got {type(raw[key]).__name__}")


@dataclass(frozen=True)
class Scenario:
    system: str
    system_params: Mapping      # the sections are read-only once checked
    alice: Mapping
    scheme: Mapping
    observables: tuple[str, ...]
    lambda_grid: tuple[float, ...]
    lambda_ref: float = 0.0

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        check_shape(raw)
        _check_keys(raw, ("version", "system", "system_params", "alice", "scheme",
                          "observables", "lambda_grid"), ("lambda_ref",), "scenario")
        if _integral("version", raw["version"]) != 1:
            raise ScenarioError(f"unsupported scenario version {raw['version']!r}")
        return cls(
            system=raw["system"],
            system_params=raw["system_params"],
            alice=raw["alice"],
            scheme=raw["scheme"],
            observables=tuple(raw["observables"]),
            lambda_grid=tuple(_real("lambda_grid", v) for v in raw["lambda_grid"]),
            lambda_ref=_real("lambda_ref", raw.get("lambda_ref", 0.0)),
        )

    def __post_init__(self):
        self.typed      # a scenario that exists is valid, and stays as it was checked:
        for key in ("system_params", "alice", "scheme"):
            object.__setattr__(self, key, MappingProxyType(dict(getattr(self, key))))

    @functools.cached_property
    def typed(self) -> Typed:
        """The typed values, checked once, when the scenario is made."""
        return self.validate()

    # -- validation ------------------------------------------------------
    def validate(self) -> Typed:
        """Refuse a malformed scenario; return its typed values."""
        spec = SYSTEMS.get(self.system) if isinstance(self.system, str) else None
        if spec is None:
            raise ScenarioError(f"unknown system {self.system!r}")
        if not self.observables:
            raise ScenarioError("at least one observable is required")
        if not self.lambda_grid:
            raise ScenarioError("lambda_grid must be non-empty")
        if any(b <= a for a, b in zip(self.lambda_grid, self.lambda_grid[1:])):
            raise ScenarioError("lambda_grid must be strictly increasing")
        params = _resolve(self.system_params, spec.params, "system_params")
        alice = _resolve(self.alice, spec.alice_params, "alice", head=("kind",))
        if self.alice["kind"] != spec.alice:
            raise ScenarioError(f"{self.system} scenarios use alice kind {spec.alice!r}")
        sid = self.scheme.get("id")
        scheme = spec.schemes.get(sid) if isinstance(sid, str) else None
        if scheme is None:
            raise ScenarioError(f"unknown {self.system} scheme {sid!r}")
        extras = _resolve(self.scheme, scheme.extras, "scheme", head=("id",))
        bad = [o for o in self.observables if not (isinstance(o, str) and o in spec.observables)]
        if bad:
            raise ScenarioError(f"unknown {self.system} observables {sorted(set(map(str, bad)))}")
        unsupported = set(self.observables) - set(scheme.observables or self.observables)
        if unsupported:
            raise ScenarioError(f"{sid} only reports {'/'.join(scheme.observables)}, "
                                f"not {sorted(unsupported)}")
        return Typed(params, alice, scheme, extras)


# ---------------------------------------------------------------------------
# evaluators: a 1-d array of lams -> {observable: one value per lam}, every
# observable in one call

def _spin_evaluator(sc: Scenario, built: dict):
    typed = sc.typed
    scheme = spins.spin_scheme(sc.scheme["id"], **typed.extras)
    hbar, initial = typed.params["hbar"], typed.params["initial"]
    key = (sc.observables, hbar, initial)
    if key not in built:
        built[key] = ([spins.spin_observable(name, hbar) for name in sc.observables],
                      spins.spin_state(*initial))
    operators, prestate = built[key]

    def values(lams: np.ndarray) -> dict:
        rows = spins.alice_rotations(prestate, typed.alice["axis"], lams.tolist())
        return dict(zip(sc.observables, post_measurement_expectations(rows, scheme, operators)))

    return values


def _oscillator_evaluator(sc: Scenario, built: dict):
    typed = sc.typed
    sp = typed.params
    params = oscillators.OscParams(**{f.name: sp[f.name] for f in fields(oscillators.OscParams)})

    def values(lams: np.ndarray) -> dict:
        kick = oscillators.KickParams(p_a=sp["p_a"], p_b=sp["p_b"], lam=lams)
        moments = typed.scheme.compute(params, kick, sp["trunc"], **typed.extras)
        return {obs: getattr(moments, OSCILLATOR.observables[obs]) for obs in sc.observables}

    return values


def _osc_phase(params, kick, trunc, s_cut) -> oscillators.LocalMoments:
    return oscillators.phase_ensemble_moments(params, kick, s_cut, trunc)


def _lattice(params: dict) -> LatticeSpec:
    """The lattice a field scenario's typed params describe."""
    return LatticeSpec(**{f.name: params[f.name] for f in fields(LatticeSpec)})


def _field_evaluator(sc: Scenario, built: dict):
    sp = sc.typed.params
    lattice = _lattice(sp)
    if lattice not in built:
        built[lattice] = build_modes(lattice)
    modes = built[lattice]
    p_index = modes.mode_index(sp["p"])
    if not modes.is_paired(p_index):
        raise ScenarioError(f"wavenumber {sp['p']!r} is self-conjugate, pick a paired mode")

    def values(lams: np.ndarray) -> dict:
        kick = fieldtheory.KickSpec(site=sp["x"], strength=lams)
        forms = sc.typed.scheme.compute(modes, kick, sp["y"], p_index, sc.observables)
        # a form that does not read lam returns one value for every kick
        return {obs: np.broadcast_to(value, lams.shape) for obs, value in forms.items()}

    return values


def _field_amplitude(sc: Scenario) -> float:
    """The suppression amplitude max_lam lam e^{-lam^2 ginv_xx/2hbar}."""
    params = sc.typed.params
    return fieldtheory.max_signaling(build_modes(_lattice(params)), params["x"]).amplitude


# ---------------------------------------------------------------------------
# sweep axes: (scenario, cutoff value) -> the scenario at that cutoff

def _on_lattice(coords, ratio: float, error: str):
    """An int or list of ints times ratio, refused unless still integral."""
    scaled = [c * ratio for c in np.atleast_1d(coords)]
    if any(abs(w - round(w)) > 1e-9 for w in scaled):
        raise ScenarioError(error)
    out = [int(round(w)) for w in scaled]
    return out[0] if np.isscalar(coords) else out


def _rescaled_for_volume(sc: Scenario, value) -> Scenario:
    sp = sc.typed.params
    n_sites = _integral("sweep axis 'volume'", value)
    p = _on_lattice(sp["p"], n_sites / sp["n_sites"], f"wavenumber {sp['p']!r} cannot "
                    f"be held fixed in physical units at N={n_sites}")
    return replace(sc, system_params={**sc.system_params, "n_sites": n_sites, "p": p})


def _rescaled_for_spacing(sc: Scenario, value) -> Scenario:
    sp = sc.typed.params
    spacing = _real("sweep axis 'spacing'", value)
    n_new = sp["n_sites"] * sp["spacing"] / spacing
    if abs(n_new - round(n_new)) > 1e-9 or int(round(n_new)) % 2 != 0:
        raise ScenarioError(f"spacing {spacing!r} does not preserve the box: N={n_new}")
    ratio = sp["spacing"] / spacing
    return replace(sc, system_params={
        **sc.system_params, "n_sites": int(round(n_new)), "spacing": spacing,
        **{key: _on_lattice(sp[key], ratio, f"site {sp[key]!r} is not on the lattice "
                            f"at spacing {spacing!r}") for key in ("x", "y")},
    })


def _set_integer(section: str, key: str, sc: Scenario, value) -> Scenario:
    """Sweep axis (bound with partial) setting one integer of a section."""
    value = _integral(f"sweep axis {key!r}", value)
    return replace(sc, **{section: {**getattr(sc, section), key: value}})


# ---------------------------------------------------------------------------
# the systems, one table each

NO_MEASUREMENT = "none"     # every system's scheme id for the unmeasured state

SPIN = System(
    params={
        "initial": Param("labels", ("up", "up"), flag="--initial",
                         help="initial product state labels, e.g. up,up",
                         check=lambda pair: [spins.ket(label) for label in pair]),
        "hbar": Param("float", 1.0),
    },
    alice="rotate",
    alice_params={"axis": Param("vector", (0.0, 1.0, 0.0), check=spins.axis_sigma)},
    schemes={
        "qndsv": Scheme({"target": Param("labels", flag="--target",
                                         help="qndsv target labels, e.g. up,right",
                                         check=lambda pair: [spins.ket(label) for label in pair])}),
        **{sid: Scheme() for sid in spins.SCHEMES},
    },
    observables=spins.OBSERVABLES,
    default_observables=("sBz",),
    evaluator=_spin_evaluator,
)

OSCILLATOR = System(
    params={
        "mass": Param("float", 1.0),
        "frequency": Param("float", 1.0),
        "hbar": Param("float", 1.0),
        "p_a": Param("float", 0.0, flag="--p-a"),
        "p_b": Param("float", 0.0, flag="--p-b"),
        "trunc": Param("int", 40, flag="--trunc"),
    },
    alice="kick",
    schemes={
        "naive-nplus": Scheme(compute=functools.partial(oscillators.kicked_moments,
                                                        collapse=True)),
        "phase-nplus": Scheme({"s_cut": Param("int", flag="--s-cut")}, compute=_osc_phase),
        NO_MEASUREMENT: Scheme(compute=oscillators.kicked_moments),
    },
    observables={"QB": "q", "PB": "p", "QB2": "q2", "PB2": "p2", "EB": "energy"},
    default_observables=("QB", "PB", "QB2", "PB2"),
    evaluator=_oscillator_evaluator,
    sweep_axes={"s_cut": functools.partial(_set_integer, "scheme", "s_cut"),
                "trunc": functools.partial(_set_integer, "system_params", "trunc")},
)

FIELD = System(
    params={
        "dim": Param("int", 1, flag="--d", help="spatial dimension"),
        "n_sites": Param("int", flag="--N", help="sites per axis"),
        "spacing": Param("float", 1.0, flag="--a", help="lattice spacing"),
        "mass": Param("float", flag="--mass"),
        "x": Param("site", flag="--x", help="kick site"),
        "y": Param("site", flag="--y", help="observation site"),
        "p": Param("site", flag="--p-index", help="integer wavenumber of the measured mode"),
        "dispersion": Param("choice", "lattice", flag="--dispersion", choices=DISPERSIONS),
        "hbar": Param("float", 1.0),
        "zero_mode_mass": Param("float", None),     # None: lattice default
    },
    alice="kick",
    schemes={
        # each reported observable is read from its own closed form, and
        # sums only the kernels that it reads
        "naive-np": Scheme(compute=functools.partial(fieldtheory.closed_forms, "naive_np")),
        "qndsv-1p": Scheme(observables=("phi_y", "phi2_y"),
                           compute=functools.partial(fieldtheory.closed_forms, "qndsv")),
        NO_MEASUREMENT: Scheme(compute=functools.partial(fieldtheory.closed_forms, "prestate")),
    },
    observables=fieldtheory.OBSERVABLES,
    evaluator=_field_evaluator,
    aliases={"naive": "naive-np", "qndsv": "qndsv-1p"},
    sweep_axes={"volume": _rescaled_for_volume, "spacing": _rescaled_for_spacing},
    amplitude=_field_amplitude,
)

SYSTEMS = {"spin": SPIN, "oscillator": OSCILLATOR, "field": FIELD}
SWEEP_AXES = tuple(axis for spec in SYSTEMS.values() for axis in spec.sweep_axes)


def make_evaluator(sc: Scenario, points, *, built: dict | None = None):
    """evaluate(obs, lam) for the lams of ``points``, read from one
    values(lams) call of the system on their distinct values.

    Evaluators given one ``built`` dict share what they build from equal
    system params: a field mode set with its kernel memo, spin operators.
    """
    # -0.0 and 0.0 may print differently, so each is its own point
    keys = list(dict.fromkeys((lam, math.copysign(1.0, lam)) for lam in points))
    table = SYSTEMS[sc.system].evaluator(sc, {} if built is None else built)(
        np.array([lam for lam, _ in keys], dtype=float))
    memo = {k: {obs: float(column[i]) for obs, column in table.items()}
            for i, k in enumerate(keys)}

    def evaluate(obs: str, lam: float) -> float:
        return memo[lam, math.copysign(1.0, lam)][obs]

    return evaluate


def derivative_scale(grid) -> float:
    """The Richardson step's scale: the grid's largest |lam|, or 1 if that is 0."""
    return max(abs(v) for v in grid) or 1.0


def derivative_points(at: float, scale: float) -> tuple:
    """at +- h/2 and at +- h, h = 1e-3 * scale: the lams central_derivative reads."""
    h = 1e-3 * scale
    return at + h / 2.0, at - h / 2.0, at + h, at - h


def central_derivative(fn, at: float, scale: float) -> float:
    """Central difference with one Richardson refinement, h = 1e-3 * scale."""
    h = 1e-3 * scale
    up_half, down_half, up, down = map(fn, derivative_points(at, scale))
    return (4.0 * ((up_half - down_half) / (2.0 * (h / 2.0))) - (up - down) / (2.0 * h)) / 3.0


@dataclass(frozen=True)
class SignalingReport:
    """Per-observable lam tables plus the signaling diagnostics."""

    scenario: Scenario
    tables: dict            # observable -> tuple[(lam, value), ...]
    baseline: dict          # observable -> value at lam = 0
    derivative_at_zero: dict
    max_deviation: dict


def run_scenario(sc: Scenario) -> SignalingReport:
    names = sc.observables
    scale = derivative_scale(sc.lambda_grid)
    evaluate = make_evaluator(sc, (*sc.lambda_grid, 0.0, *derivative_points(0.0, scale)))
    tables = {obs: tuple((lam, evaluate(obs, lam)) for lam in sc.lambda_grid) for obs in names}
    baseline = {obs: evaluate(obs, 0.0) for obs in names}
    return SignalingReport(
        scenario=sc, tables=tables, baseline=baseline,
        derivative_at_zero={obs: central_derivative(functools.partial(evaluate, obs), 0.0, scale)
                            for obs in names},
        max_deviation={obs: max(abs(v - baseline[obs]) for _, v in tables[obs]) for obs in names})


# ---------------------------------------------------------------------------
# cutoff sweeps

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


def power_fit(xs, ys) -> PowerFit:
    """Least-squares slope of log|y| vs log x.

    A measure flat across the cutoffs (log|y| spread at most 1e-9) has no
    exponent: both fields are NaN, not a fit of rounding noise.  Magnitudes
    are floored at 1e-300, so an identically-zero row, which causal schemes
    are expected to produce, is flat too.
    """
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.maximum(np.abs(np.asarray(ys, dtype=float)), 1e-300))
    if np.ptp(ly) <= 1e-9:
        return PowerFit(exponent=math.nan, r_squared=math.nan)
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    return PowerFit(exponent=float(coef[0]), r_squared=1.0 - ss_res / ss_tot)


def cutoff_sweep(sc: Scenario, axis: str, values, measure: str = "deviation") -> SweepReport:
    """Evaluate the signaling measure across a cutoff sweep and fit a power law.

    measure "deviation": max_lam |<O>(lam) - <O>(0)| per observable;
    "after_value": <O>(lambda_ref); "amplitude": the system's observable-free
    ``System.amplitude`` (the field's suppression amplitude).
    """
    spec = SYSTEMS[sc.system]
    scenario_at = spec.sweep_axes.get(axis)
    if scenario_at is None:
        raise ScenarioError(f"axis {axis!r} is not meaningful for system {sc.system!r}")
    if measure not in SWEEP_MEASURES:
        raise ScenarioError(f"unknown sweep measure {measure!r}")
    if measure == "amplitude" and spec.amplitude is None:
        raise ScenarioError(f"measure 'amplitude' is not meaningful for system {sc.system!r}")
    values = tuple(values)
    if len(values) < 3:
        raise ScenarioError("a cutoff sweep needs at least 3 points")
    refused = [v for v in values if _real(f"sweep axis {axis!r}", v) <= 0]
    if refused:
        raise ScenarioError(f"sweep axis {axis!r} needs positive cutoffs, got {refused}")

    def measures_at(value) -> dict:
        sub = scenario_at(sc, value)
        if measure == "amplitude":
            return {"suppression_amplitude": spec.amplitude(sub)}
        reads = (sub.lambda_ref,) if measure == "after_value" else (*sub.lambda_grid, 0.0)
        evaluate = make_evaluator(sub, reads)
        if measure == "after_value":
            return {obs: evaluate(obs, sub.lambda_ref) for obs in sub.observables}
        return {obs: max(abs(evaluate(obs, lam) - evaluate(obs, 0.0)) for lam in sub.lambda_grid)
                for obs in sub.observables}

    per_value = [measures_at(value) for value in values]
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


def compare_schemes(sc: Scenario, scheme_ids, extras=None) -> tuple[CompareRow, ...]:
    """Side-by-side before/after/derivative table across prescriptions.

    'before' is Bob's value on the pre-measurement state at lambda_ref,
    'after' the post-measurement ensemble value there, 'derivative' the
    signaling derivative of the after-value at lam = 0.  CLI aliases are
    accepted; rows carry the canonical id.  ``extras`` (e.g. s_cut) go to
    every compared scheme that accepts them, over the scenario's own.
    """
    scheme_ids = tuple(scheme_ids)
    if len(scheme_ids) < 2:
        raise ScenarioError("compare_schemes needs at least two scheme ids")
    rows = []
    scale = derivative_scale(sc.lambda_grid)
    reads = (sc.lambda_ref, *derivative_points(0.0, scale))
    given = {**sc.scheme, **(extras or {})}
    subs = [replace(sc, scheme=SYSTEMS[sc.system].scheme_for_id(sid, given))
            for sid in scheme_ids]
    unmeasured = any(sub.scheme["id"] == NO_MEASUREMENT for sub in subs)  # before_eval serves it
    built = {}      # one mode set, or one set of spin operators, for every compared scheme
    before_eval = make_evaluator(replace(sc, scheme={"id": NO_MEASUREMENT}),
                                 reads if unmeasured else reads[:1], built=built)
    for sub in subs:
        evaluate = before_eval if sub.scheme["id"] == NO_MEASUREMENT \
            else make_evaluator(sub, reads, built=built)
        for obs in sub.observables:
            rows.append(CompareRow(
                scheme_id=sub.scheme["id"],
                observable=obs,
                before=before_eval(obs, sub.lambda_ref),
                after=evaluate(obs, sub.lambda_ref),
                derivative=central_derivative(
                    lambda lam: evaluate(obs, lam), 0.0, scale),
            ))
    return tuple(rows)
