"""causal-probe command line: scenario files in, deterministic CSV out.

Subcommands: spin, ho, field (run one system's scenario), sweep (cutoff
scaling fits), compare (scheme side-by-side), validate (parse + dry-run).
Scenario files are strict JSON (unknown keys rejected).  Every subcommand
but validate reads its --scenario file as written, and each flag it has
overrides only the field that the flag names; sweep and compare take
--obs, --lambda, --grid and --hbar, but sweep --measure amplitude, which
reads no observables and no lambda grid, refuses the first three.  compare
also takes the scheme-extra flags (--s-cut, --target) and gives each to
every compared scheme that reads it, refusing one that none reads.  spin,
ho and field refuse another system's file, and without one start from the
table defaults.  Scheme aliases (field naive, qndsv) are command-line
names; a file names the id.
Every table is written with 17 significant digits, '.' decimals and LF
line endings so reruns are byte-identical; a JSON run manifest records
the scenario digest and the numeric policy next to each table.

Exit codes: 0 success, 2 validation error, 3 numeric-policy violation
(truncation tails), 64 usage.
"""

from __future__ import annotations

import argparse
import functools
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


_ARG_TYPES = {"int": int, "site": _site_flag, "float": float, "labels": lambda s: s.split(",")}


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

def _add_common(sub: argparse.ArgumentParser):
    """The flags every subcommand takes; returns the exclusive group of lambda-grid flags."""
    sub.add_argument("--scenario", help="JSON scenario file, read as written (flags override)")
    sub.add_argument("--out", default=".", help="output directory (default: cwd)")
    sub.add_argument("--obs", help="comma-separated observables")
    grid = sub.add_mutually_exclusive_group()
    grid.add_argument("--lambda", dest="lam", type=float,
                      help="single operation strength; becomes the grid and lambda_ref")
    grid.add_argument("--grid", help="lambda grid as start:stop:count")
    sub.add_argument("--hbar", type=float, help="hbar (default 1)")
    return grid


def _parse_alice(text: str) -> tuple[tuple[float, float, float], float]:
    # rotate-y:1.5707963 or rotate-0,0,1:0.5
    named = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    try:
        if not text.startswith("rotate-") or ":" not in text:
            raise ValueError(text)
        axis_part, angle_part = text[len("rotate-"):].split(":", 1)
        # a component axis is checked for length by the scenario's typed alice.axis
        axis = named.get(axis_part) or tuple(float(c) for c in axis_part.split(","))
        return axis, float(angle_part)
    except ValueError:
        raise ScenarioError(f"cannot parse alice operation {text!r}") from None


def _apply_grid(args, raw: dict) -> None:
    """--grid start:stop:count or --lambda become lambda_grid and lambda_ref."""
    if args.grid is not None:
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


def _skeleton(system: str, sid) -> dict:
    """The scenario a run without --scenario starts from: the table
    defaults, the scheme the positional id names and lam = 0."""
    spec = harness.SYSTEMS[system]
    scheme = spec.scheme_for_id(sid, {}) if sid is not None else {}
    # spin writes its initial state out, so that the manifest's digest records it
    params = {"initial": list(spec.params["initial"].default)} if system == "spin" else {}
    return {"version": 1, "system": system, "alice": {"kind": spec.alice},
            "system_params": params, "scheme": scheme,
            "observables": list(spec.defaults(scheme.get("id"))), "lambda_grid": [0.0]}


def _scenario(args, system: str | None = None) -> tuple[dict, Scenario, str]:
    """The raw and validated scenario of every subcommand but validate, and
    its output stem: the file's name, plus ``_<id>`` if a positional id
    replaces the file's, or ``<command>_<id>`` without a file.

    The --scenario file is read as written; a system subcommand refuses
    another system's file, and without a file starts from ``_skeleton``.
    Each flag the subcommand has then overrides the one field it names.
    """
    if args.scenario is not None:
        raw = _load_scenario_file(args.scenario)
        stem = Path(args.scenario).stem
        if system and raw.get("system", system) != system:
            raise ScenarioError(f"{args.scenario} holds a {raw['system']!r} scenario; "
                                f"{args.command} runs only {system!r} scenarios")
    elif system:
        raw = _skeleton(system, args.scheme_id)
        stem = f"{args.command}_{raw['scheme'].get('id')}"
    else:
        raise ScenarioError(f"{args.command} needs --scenario")
    overrides = [("system_params", "hbar", args.hbar)]
    if system:
        spec = harness.SYSTEMS[system]
        if args.scheme_id is not None:
            given = raw.get("scheme", {}).get("id")
            # replacing the id drops extras the new prescription does not accept
            raw["scheme"] = spec.scheme_for_id(args.scheme_id, raw.get("scheme", {}))
            if raw["scheme"]["id"] != given:      # runs of two ids keep apart
                stem += f"_{raw['scheme']['id']}"
        overrides += [(sec, key, getattr(args, key)) for sec, key, _ in _flag_params(spec)]
    if args.obs is not None:
        raw["observables"] = args.obs.split(",")
    _apply_grid(args, raw)
    for section, key, value in overrides:
        if value is not None:
            raw.setdefault(section, {})[key] = value
    if system == "spin" and args.alice is not None:
        axis, angle = _parse_alice(args.alice)
        raw["alice"] = {"kind": spec.alice, "axis": list(axis)}
        raw["lambda_grid"], raw["lambda_ref"] = [angle], angle
    return raw, Scenario.from_dict(raw), stem


def _run_system(args, system: str) -> int:
    started = time.monotonic()
    raw, scenario, stem = _scenario(args, system)
    report = run_scenario(scenario)
    names = scenario.observables
    return _emit(args, stem, raw, started, [
        ("", ("observable", "lambda", "value"),
         [(obs, _fmt(lam), _fmt(value)) for obs in names for lam, value in report.tables[obs]]),
        ("_summary", ("observable", "baseline", "derivative_at_zero", "max_deviation"),
         [(obs, _fmt(report.baseline[obs]), _fmt(report.derivative_at_zero[obs]),
           _fmt(report.max_deviation[obs])) for obs in names]),
    ], [f"{obs}: value({_fmt(lam)}) = {_fmt(value)}, "
        f"d/dlambda|0 = {_fmt(report.derivative_at_zero[obs])}"
        for obs in names for lam, value in report.tables[obs][-1:]])


def _run_sweep(args) -> int:
    started = time.monotonic()
    unread = [flag for flag, value in (("--obs", args.obs), ("--lambda", args.lam),
                                       ("--grid", args.grid)) if value is not None]
    if args.measure == "amplitude" and unread:
        raise ScenarioError(f"--measure amplitude reads no observables and no lambda grid; "
                            f"{' and '.join(unread)} would be ignored")
    raw, scenario, stem = _scenario(args)
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise ScenarioError(f"cannot parse --values {args.values!r}") from None
    report = cutoff_sweep(scenario, args.axis, values, measure=args.measure)
    return _emit(args, f"{stem}_sweep_{args.axis}", raw, started, [
        ("", ("observable", "cutoff", "measure"),
         [(name, _fmt(v), _fmt(m))
          for name in report.rows for v, m in zip(report.values, report.rows[name])]),
        ("_fits", ("observable", "exponent", "r_squared"),
         [(name, _fmt(f.exponent), _fmt(f.r_squared)) for name, f in report.fits.items()]),
    ], [f"{name}: exponent = {_fmt(f.exponent)}, R^2 = {_fmt(f.r_squared)}"
        for name, f in report.fits.items()])


def _scheme_flags() -> dict:
    """key -> Param of every scheme extra a system subcommand has a flag for."""
    return {key: param for spec in harness.SYSTEMS.values()
            for section, key, param in _flag_params(spec) if section == "scheme"}


def _run_compare(args) -> int:
    started = time.monotonic()
    raw, scenario, stem = _scenario(args)
    scheme_ids = args.schemes.split(",")
    flags = _scheme_flags()
    extras = {key: getattr(args, key) for key in flags if getattr(args, key) is not None}
    spec = harness.SYSTEMS[scenario.system]
    accepted = {key for sid in scheme_ids for key in spec.scheme_for_id(sid, extras)}
    unread = [flags[key].flag for key in extras if key not in accepted]
    if unread:
        raise ScenarioError(f"none of the compared schemes {args.schemes} reads "
                            f"{' or '.join(unread)}")
    rows = compare_schemes(scenario, scheme_ids, extras)
    if extras:
        # the digest records what ran: the file, its overrides and these extras
        raw = {**raw, "compare_extras": extras}
    return _emit(args, f"{stem}_compare", raw, started, [
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


@functools.cache     # the tables it reads are fixed once the package is imported
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
        grid = _add_common(sub)
        if system == "spin":
            grid.add_argument("--alice", help="local rotation, e.g. rotate-y:1.5707963; "
                              "its angle is the single lambda")

    sweep = subs.add_parser("sweep", help="cutoff sweep with power-law fits")
    sweep.add_argument("--axis", required=True, choices=harness.SWEEP_AXES)
    sweep.add_argument("--values", required=True, help="comma-separated cutoff values")
    sweep.add_argument("--measure", default="deviation", choices=harness.SWEEP_MEASURES)
    _add_common(sweep)

    cmp_ = subs.add_parser("compare", help="before/after table across schemes")
    cmp_.add_argument("--schemes", required=True, help="comma-separated scheme ids")
    for key, param in _scheme_flags().items():
        cmp_.add_argument(param.flag, dest=key, type=_ARG_TYPES.get(param.kind),
                          help=f"{param.help or key}; given to every compared scheme "
                               "that takes it")
    _add_common(cmp_)

    val = subs.add_parser("validate", help="parse, validate and dry-run scenarios")
    val.add_argument("files", nargs="+", help="scenario JSON files")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
