"""causal-probe command line: scenario files in, deterministic CSV out.

Subcommands: spin, ho, field (run one system's scenario), sweep (cutoff
scaling fits), compare (scheme side-by-side), validate (parse + dry-run).
Scenario files are strict JSON (unknown keys rejected); flags mirror the
schema fields and override them.  Every table is written with 17
significant digits, '.' decimals and LF line endings so reruns are
byte-identical; a JSON run manifest records the scenario digest and the
numeric policy next to each table.

Exit codes: 0 success, 2 validation error, 3 numeric-policy violation
(truncation tails), 64 usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__, harness
from .harness import (
    Scenario,
    ScenarioError,
    compare_schemes,
    cutoff_sweep,
    run_scenario,
)
from .policy import DEFAULT_POLICY, TruncationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

# subcommand -> system, and the help line of each
_SYSTEM_COMMANDS = {"spin": ("spin", "two-spin measurements"),
                    "ho": ("oscillator", "two-oscillator measurements"),
                    "field": ("field", "lattice scalar field measurements")}


def _site_flag(text: str):
    """--x, --y, --p-index: one integer (d = 1) or comma-separated integers."""
    try:
        parts = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer site: {text!r}") from None
    return parts[0] if len(parts) == 1 else parts


_ARG_TYPES = {"int": int, "site": _site_flag, "float": float}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def scenario_digest(raw: dict) -> str:
    """Content hash, stable under key reordering of the scenario file."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _emit(args, stem: str, raw: dict, started: float, tables, lines) -> int:
    """Write each (suffix, header, rows) table to <out>/<stem><suffix>.csv,
    then the manifest, then print the report lines."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for suffix, header, rows in tables:
        outputs.append(f"{stem}{suffix}.csv")
        with open(out_dir / outputs[-1], "w", newline="\n") as fh:
            for row in (header, *rows):
                fh.write(",".join(row) + "\n")
    manifest = {
        "tool": "causal-probe",
        "version": __version__,
        "scenario_digest": scenario_digest(raw),
        "numeric_policy": DEFAULT_POLICY.as_dict(),
        "wall_clock_seconds": time.monotonic() - started,
        "outputs": outputs,
    }
    with open(out_dir / f"{stem}.manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("\n".join(lines))
    return EXIT_OK


def _load_scenario_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    harness.check_shape(raw)
    return raw


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", help="JSON scenario file (flags override it)")
    sub.add_argument("--out", default=".", help="output directory (default: cwd)")
    sub.add_argument("--obs", help="comma-separated observables")
    sub.add_argument("--lambda", dest="lam", type=float,
                     help="single operation strength; becomes the grid and lambda_ref")
    sub.add_argument("--grid", help="lambda grid as start:stop:count")
    sub.add_argument("--hbar", type=float, help="hbar (default 1)")


def _parse_alice(text: str) -> tuple[tuple[float, float, float], float]:
    # rotate-y:1.5707963 or rotate-0,0,1:0.5
    if not text.startswith("rotate-") or ":" not in text:
        raise ScenarioError(f"cannot parse alice operation {text!r}")
    axis_part, angle_part = text[len("rotate-"):].split(":", 1)
    named = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    # a component axis is checked for length by the scenario's typed alice.axis
    axis = named.get(axis_part) or tuple(float(c) for c in axis_part.split(","))
    return axis, float(angle_part)


def _apply_grid(args, raw: dict) -> None:
    """--grid start:stop:count or --lambda become lambda_grid and lambda_ref."""
    if args.grid:
        try:
            start, stop, count = args.grid.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError as exc:
            raise ScenarioError(f"cannot parse grid {args.grid!r}") from exc
        if count < 2:
            raise ScenarioError("grid needs at least 2 points")
        step = (stop - start) / (count - 1)
        raw["lambda_grid"], raw["lambda_ref"] = [start + i * step for i in range(count)], stop
    elif args.lam is not None:
        raw["lambda_grid"], raw["lambda_ref"] = [args.lam], args.lam


def _flag_params(spec) -> list:
    """(section, key, Param) for each param and scheme extra with a flag."""
    extras = {key: param for scheme in spec.schemes.values()
              for key, param in scheme.extras.items()}
    return [(section, key, param)
            for section, table in (("system_params", spec.params), ("scheme", extras))
            for key, param in table.items() if param.flag]


def _scenario_from_args(args, system: str) -> dict:
    spec = harness.SYSTEMS[system]
    raw = _load_scenario_file(args.scenario) if args.scenario else \
        {"version": 1, "system": system}
    raw.setdefault("alice", {"kind": spec.alice})
    sp = raw.setdefault("system_params", {})
    scheme = raw.setdefault("scheme", {})
    if args.scheme_id:
        # replacing the id drops extras the new prescription does not accept
        raw["scheme"] = spec.scheme_for_id(args.scheme_id, scheme)
    elif "id" in scheme:
        scheme["id"] = spec.canonical(scheme["id"])
    if args.obs:
        raw["observables"] = args.obs.split(",")
    _apply_grid(args, raw)
    if args.hbar is not None:
        sp["hbar"] = args.hbar
    for section, key, param in _flag_params(spec):
        value = getattr(args, key)
        if value is not None:
            raw[section][key] = value.split(",") if param.kind == "labels" else value

    if system == "spin":
        # written out so that the manifest's digest records the state
        sp.setdefault("initial", list(spec.params["initial"].default))
        if args.alice:
            axis, angle = _parse_alice(args.alice)
            raw["alice"] = {"kind": spec.alice, "axis": list(axis)}
            raw["lambda_grid"], raw["lambda_ref"] = [angle], angle
    if not raw.get("lambda_grid"):
        raw["lambda_grid"] = [0.0]
    if not raw.get("observables"):
        raw["observables"] = list(spec.defaults(raw["scheme"].get("id")))
    return raw


def _run_system(args, system: str) -> int:
    raw = _scenario_from_args(args, system)
    started = time.monotonic()
    scenario = Scenario.from_dict(raw)
    report = run_scenario(scenario)
    names = scenario.observables
    stem = Path(args.scenario).stem if args.scenario else \
        f"{args.command}_{scenario.scheme['id']}"
    return _emit(args, stem, raw, started, [
        ("", ("observable", "lambda", "value"),
         [(obs, _fmt(lam), _fmt(value)) for obs in names for lam, value in report.tables[obs]]),
        ("_summary", ("observable", "baseline", "derivative_at_zero", "max_deviation"),
         [(obs, _fmt(report.baseline[obs]), _fmt(report.derivative_at_zero[obs]),
           _fmt(report.max_deviation[obs])) for obs in names]),
    ], [f"{obs}: value({_fmt(lam)}) = {_fmt(value)}, "
        f"d/dlambda|0 = {_fmt(report.derivative_at_zero[obs])}"
        for obs in names for lam, value in report.tables[obs][-1:]])


def _file_scenario(args) -> tuple[dict, float, Scenario]:
    """The --scenario file that sweep and compare need, and its start time."""
    if not args.scenario:
        raise ScenarioError(f"{args.command} needs --scenario")
    raw = _load_scenario_file(args.scenario)
    return raw, time.monotonic(), Scenario.from_dict(raw)


def _run_sweep(args) -> int:
    raw, started, scenario = _file_scenario(args)
    values = [float(v) for v in args.values.split(",")]
    report = cutoff_sweep(scenario, args.axis, values, measure=args.measure)
    return _emit(args, f"{Path(args.scenario).stem}_sweep_{args.axis}", raw, started, [
        ("", ("observable", "cutoff", "measure"),
         [(name, _fmt(v), _fmt(m))
          for name in report.rows for v, m in zip(report.values, report.rows[name])]),
        ("_fits", ("observable", "exponent", "r_squared"),
         [(name, _fmt(f.exponent), _fmt(f.r_squared)) for name, f in report.fits.items()]),
    ], [f"{name}: exponent = {_fmt(f.exponent)}, R^2 = {_fmt(f.r_squared)}"
        for name, f in report.fits.items()])


def _run_compare(args) -> int:
    raw, started, scenario = _file_scenario(args)
    rows = compare_schemes(scenario, args.schemes.split(","))
    return _emit(args, f"{Path(args.scenario).stem}_compare", raw, started, [
        ("", ("scheme", "observable", "before", "after", "derivative"),
         [(r.scheme_id, r.observable, _fmt(r.before), _fmt(r.after), _fmt(r.derivative))
          for r in rows]),
    ], [f"{r.scheme_id} / {r.observable}: before = {_fmt(r.before)}, "
        f"after = {_fmt(r.after)}, d/dlambda|0 = {_fmt(r.derivative)}" for r in rows])


def _run_validate(args) -> int:
    for path in args.files:
        raw = _load_scenario_file(path)
        scenario = Scenario.from_dict(raw)
        run_scenario(scenario)  # dry run, nothing written
        print(f"{path}: ok (digest {scenario_digest(raw)[:12]})")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="causal-probe", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    for command, (system, help_line) in _SYSTEM_COMMANDS.items():
        spec = harness.SYSTEMS[system]
        sub = subs.add_parser(command, help=help_line)
        aliases = "".join(f"; {alias} = {sid}" for alias, sid in spec.aliases.items())
        sub.add_argument("scheme_id", nargs="?", help=" | ".join(spec.schemes) + aliases)
        for _, key, param in _flag_params(spec):
            sub.add_argument(param.flag, dest=key, type=_ARG_TYPES.get(param.kind),
                             choices=param.choices, help=param.help)
        if system == "spin":
            sub.add_argument("--alice", help="local rotation, e.g. rotate-y:1.5707963; "
                             "its angle is the single lambda")
        _add_common(sub)

    sweep = subs.add_parser("sweep", help="cutoff sweep with power-law fits")
    sweep.add_argument("--axis", required=True, choices=harness.SWEEP_AXES)
    sweep.add_argument("--values", required=True, help="comma-separated cutoff values")
    sweep.add_argument("--measure", default="deviation", choices=harness.SWEEP_MEASURES)
    _add_common(sweep)

    cmp_ = subs.add_parser("compare", help="before/after table across schemes")
    cmp_.add_argument("--schemes", required=True, help="comma-separated scheme ids")
    _add_common(cmp_)

    val = subs.add_parser("validate", help="parse, validate and dry-run scenarios")
    val.add_argument("files", nargs="+", help="scenario JSON files")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "alice", None) and (args.grid or args.lam is not None):
            other = "--grid" if args.grid else "--lambda"
            raise UsageError(f"argument --alice: not allowed with argument {other}")
    except UsageError as exc:
        print(f"causal-probe: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command in _SYSTEM_COMMANDS:
            return _run_system(args, _SYSTEM_COMMANDS[args.command][0])
        return {"sweep": _run_sweep, "compare": _run_compare,
                "validate": _run_validate}[args.command](args)
    except TruncationError as exc:
        print(f"causal-probe: numeric policy violation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ScenarioError, ValueError) as exc:
        print(f"causal-probe: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
