"""Seeded workload plans, op execution and reference checks.

Every workload is a closed loop with one caller: a scientist's script that
issues the next op when the previous one returns.  An op is one
``causalprobe.cli.main(argv)`` call or one field-oracle call; a pass is one
run through the workload's fixed op list.  The seed chooses the program's
inputs (op order, momenta, sites, kick strength) and never their sizes, so
every seed runs the same amount of work.

Checks test physics, not golden bytes, except that a CLI op's CSVs must be
byte-identical to the same op's CSVs in the first pass of the run.
Nothing is pinned on ``qndsv-1p``/``phi2_y``: that value is a known
candidate that is expected to change.

This module imports only the standard library at load time, so a set-up
probe can generate inputs before ``causalprobe`` is imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
CORPUS_FILES = ("field_naive", "field_qndsv", "field_volume_sweep", "ho_naive",
                "ho_phase", "spin_qndsv", "spin_s2_ambiguity")
WORKLOADS = ("corpus", "ho_scaled", "field_scaled", "oracle_check")

# Tail percentile per workload: the highest percentile that keeps at least 10
# op samples beyond it at the workload's minimum pass count (see run.py).
# corpus runs 50 passes (about 30 s) because its 5-20 ms ops, dominated by
# thread-pool start-up, jitter far more from run to run than longer ops.
TAIL_PERCENTILE = {"corpus": 95, "ho_scaled": 25, "field_scaled": 75,
                   "oracle_check": 25}
MIN_PASSES = {"corpus": 50, "ho_scaled": 5, "field_scaled": 10,
              "oracle_check": 2}

PIN_TOL = 1e-8          # <P_B> pin for the naive oscillator collapse
SPIN_TOL = 1e-12        # hbar/4 after spin verification
ORACLE_TOL = 1e-6       # closed form vs truncated-Fock oracle, plus the tail


@dataclass
class Op:
    """One closed-loop operation.

    ``argv`` ops go through ``cli.main`` and write into ``out``; ``call`` ops
    return a library result.  ``sizes`` holds everything that sets the
    amount of work and must not depend on the seed.  ``check`` returns a
    list of problems for the op's outputs.
    """

    name: str
    sizes: tuple
    check: Callable[[object], list]
    argv: list | None = None
    out: Path | None = None
    call: Callable[[], object] | None = None


@dataclass
class OpResult:
    name: str
    seconds: float
    outputs: object = None          # {csv name: bytes} or a library result
    bytes_written: int = 0          # measured from the files the op wrote
    problems: list = field(default_factory=list)


@dataclass
class Plan:
    workload: str
    ops: list
    inputs: dict                    # what the set-up probe loads and validates
    shuffle: random.Random | None = None
    prepare: Callable[[], None] = lambda: None   # load inputs before timing

    def signature(self) -> tuple:
        """Op names and problem sizes; identical for every seed."""
        return tuple(sorted((op.name, op.sizes) for op in self.ops))

    def order(self) -> list:
        ops = list(self.ops)
        if self.shuffle is not None:
            self.shuffle.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# helpers

def _template(stem: str) -> dict:
    with open(SCENARIOS / f"{stem}.json") as fh:
        return json.load(fh)


def _write(path: Path, raw: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(raw, fh, sort_keys=True)
    return str(path)


def _rows(outputs: dict, name: str) -> list:
    """CSV body rows of one output file, as lists of strings."""
    text = outputs[name].decode("utf-8")
    return [line.split(",") for line in text.splitlines()[1:]]


def _cli_op(name, sizes, argv, out, check=None) -> Op:
    """A cli.main op; ``out`` is None for subcommands that write nothing."""
    if out is not None:
        argv = argv + ["--out", str(out)]
    return Op(name=name, sizes=sizes, argv=argv, out=out,
              check=check or (lambda outputs: []))


def _pb_pin(p_a: float, p_b: float, csv: str) -> Callable:
    """Every PB row equals -(p_A - p_B + lam)/2 after the naive collapse."""
    def check(outputs):
        problems = []
        rows = [r for r in _rows(outputs, csv) if r[0] == "PB"]
        if not rows:
            return [f"{csv}: no PB rows"]
        for _, lam, value in rows:
            want = -(p_a - p_b + float(lam)) / 2.0
            if abs(float(value) - want) > PIN_TOL:
                problems.append(f"{csv}: PB({lam}) = {value}, want {want!r}")
        return problems
    return check


# ---------------------------------------------------------------------------
# corpus: the shipped scenarios, per-call costs

def _corpus(seed: int, work: Path) -> Plan:
    out = work / "out"
    sc = {stem: str(SCENARIOS / f"{stem}.json") for stem in CORPUS_FILES}
    system_cmd = {"spin": "spin", "oscillator": "ho", "field": "field"}
    ops = []
    for stem in CORPUS_FILES:
        raw = _template(stem)
        cmd = system_cmd[raw["system"]]
        check = None
        if stem == "spin_qndsv":
            check = _spin_pin
        elif stem == "ho_naive":
            sp = raw["system_params"]
            check = _pb_pin(sp["p_a"], sp["p_b"], f"{stem}.csv")
        ops.append(_cli_op(f"{cmd}:{stem}", (stem,),
                           [cmd, "--scenario", sc[stem]], out / stem, check))
    ops.append(_cli_op("sweep-volume:field_volume_sweep", ("volume", 4),
                       ["sweep", "--scenario", sc["field_volume_sweep"],
                        "--axis", "volume", "--values", "4,8,16,32"],
                       out / "sweep_volume"))
    ops.append(_cli_op("sweep-s_cut:ho_phase", ("s_cut", 3),
                       ["sweep", "--scenario", sc["ho_phase"],
                        "--axis", "s_cut", "--values", "8,10,12"],
                       out / "sweep_s_cut"))
    spin_schemes = "s2-standard,s2-bell,s2-luders,sz-standard,sz-bell,sz-luders"
    ops.append(_cli_op("compare:spin_s2_ambiguity", (6,),
                       ["compare", "--scenario", sc["spin_s2_ambiguity"],
                        "--schemes", spin_schemes], out / "compare_spin"))
    naive = _template("ho_naive")["system_params"]
    ops.append(_cli_op("compare:ho_naive", (2,),
                       ["compare", "--scenario", sc["ho_naive"],
                        "--schemes", "naive-nplus,none"], out / "compare_ho",
                       _compare_pb_pin(naive["p_a"], naive["p_b"],
                                       _template("ho_naive")["lambda_ref"])))
    ops.append(_cli_op("validate:all", (len(CORPUS_FILES),),
                       ["validate", *sc.values()], None))
    return Plan("corpus", ops, {"scenarios": list(sc.values())},
                shuffle=random.Random(seed))


def _spin_pin(outputs):
    """Verifying (up, right) after a pi/2 rotation leaves <s_Bz> = hbar/4."""
    rows = [r for r in _rows(outputs, "spin_qndsv.csv") if r[0] == "sBz"]
    at = [float(v) for _, lam, v in rows if abs(float(lam) - math.pi / 2) < 1e-12]
    if len(at) != 1:
        return ["spin_qndsv.csv: no sBz row at lambda = pi/2"]
    if abs(at[0] - 0.25) > SPIN_TOL:
        return [f"spin_qndsv.csv: sBz(pi/2) = {at[0]!r}, want 0.25"]
    return []


def _compare_pb_pin(p_a, p_b, lam_ref):
    def check(outputs):
        rows = [r for r in _rows(outputs, "ho_naive_compare.csv")
                if r[0] == "naive-nplus" and r[1] == "PB"]
        want = -(p_a - p_b + lam_ref) / 2.0
        if len(rows) != 1:
            return ["ho_naive_compare.csv: no naive-nplus PB row"]
        if abs(float(rows[0][3]) - want) > PIN_TOL:
            return [f"ho_naive_compare.csv: PB after = {rows[0][3]}, want {want!r}"]
        return []
    return check


# ---------------------------------------------------------------------------
# ho_scaled: the scaled oscillator variants, dominated by `oscillators`

HO_TRUNC = 100
HO_GRID = 21
HO_S_CUT = 200
HO_SWEEP = "40,60,80,100"


def _ho_scaled(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    # |p| <= 0.4 keeps the trunc-40 sweep point's tail far below tail_tol
    p_a, p_b = rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
    naive = _template("ho_naive")
    naive["system_params"].update(p_a=p_a, p_b=p_b)
    phase = _template("ho_phase")
    phase["system_params"].update(p_a=p_a, p_b=p_b)
    naive_path = _write(work / "inputs" / "ho_naive.json", naive)
    phase_path = _write(work / "inputs" / "ho_phase.json", phase)
    out = work / "out"
    grid_max = max(abs(v) for v in naive["lambda_grid"])
    ops = [
        _cli_op("ho:naive-trunc100", (HO_TRUNC, HO_GRID),
                ["ho", "naive-nplus", "--scenario", naive_path,
                 "--trunc", str(HO_TRUNC), f"--grid=-1:1:{HO_GRID}"],
                out / "naive", _pb_pin(p_a, p_b, "ho_naive.csv")),
        _cli_op("ho:phase-s_cut200", (HO_S_CUT,),
                ["ho", "phase-nplus", "--scenario", phase_path,
                 "--s-cut", str(HO_S_CUT)], out / "phase", _phase_zero),
        _cli_op("sweep-trunc:ho_naive", (HO_SWEEP,),
                ["sweep", "--scenario", naive_path, "--axis", "trunc",
                 "--values", HO_SWEEP], out / "sweep",
                _sweep_pb_deviation(grid_max / 2.0)),
    ]
    return Plan("ho_scaled", ops, {"scenarios": [naive_path, phase_path]})


def _phase_zero(outputs):
    """The number-times-phase measurement leaves <Q_B> = <P_B> = 0."""
    bad = [r for r in _rows(outputs, "ho_phase.csv")
           if r[0] in ("QB", "PB") and float(r[2]) != 0.0]
    return [f"ho_phase.csv: {r[0]}({r[1]}) = {r[2]}, want 0" for r in bad]


def _sweep_pb_deviation(want: float):
    """max_lam |<P_B>(lam) - <P_B>(0)| = max|lam|/2 at every truncation."""
    def check(outputs):
        rows = [r for r in _rows(outputs, "ho_naive_sweep_trunc.csv") if r[0] == "PB"]
        if len(rows) != len(HO_SWEEP.split(",")):
            return ["ho_naive_sweep_trunc.csv: wrong number of PB rows"]
        return [f"ho_naive_sweep_trunc.csv: PB deviation at trunc {c} = {m}, want {want!r}"
                for _, c, m in rows if abs(float(m) - want) > PIN_TOL]
    return check


# ---------------------------------------------------------------------------
# field_scaled: lattice/fieldtheory at sizes only the closed forms reach

FIELD_N3 = 32
FIELD_GRID = 21
VOLUMES = ",".join(str(4 << i) for i in range(15))               # 4 .. 65536
SPACINGS = ",".join(repr(2.0 ** -i) for i in range(13))         # 1 .. 1/4096


def _paired_wavenumber(rng: random.Random, n: int) -> list:
    half = n // 2
    while True:
        p = [rng.randrange(-half + 1, half + 1) for _ in range(3)]
        if any(c not in (0, half) for c in p):
            return p


def _field_scaled(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    x = [rng.randrange(FIELD_N3) for _ in range(3)]
    y = [rng.randrange(FIELD_N3) for _ in range(3)]
    while y == x:
        y = [rng.randrange(FIELD_N3) for _ in range(3)]
    p = _paired_wavenumber(rng, FIELD_N3)
    big = {}
    for kind, stem in (("naive", "field_naive"), ("qndsv", "field_qndsv")):
        raw = _template(stem)
        raw["system_params"].update(dim=3, n_sites=FIELD_N3, x=x, y=y, p=p)
        big[kind] = _write(work / "inputs" / f"{stem}.json", raw)
    # base N = 4: only y = x + 2 gives cos(p.(x - y)) = -1, so the pi_y
    # deviation is 2 lam eps exactly and must scale as 1/V
    vol = _template("field_volume_sweep")
    x1 = rng.randrange(4)
    vol["system_params"].update(x=x1, y=(x1 + 2) % 4, p=rng.choice((1, -1)))
    vol_path = _write(work / "inputs" / "field_volume_sweep.json", vol)

    out = work / "out"
    lam_grid = f"--grid=-1:1:{FIELD_GRID}"
    ops = [
        _cli_op("field:naive-d3", (3, FIELD_N3, FIELD_GRID),
                ["field", "naive", "--scenario", big["naive"], lam_grid],
                out / "naive", _naive_pi_pin(x, y, p)),
        _cli_op("field:qndsv-d3", (3, FIELD_N3, FIELD_GRID),
                ["field", "qndsv", "--scenario", big["qndsv"], lam_grid],
                out / "qndsv", _qndsv_phi_odd),
        _cli_op("sweep-volume:d1", (VOLUMES,),
                ["sweep", "--scenario", vol_path, "--axis", "volume",
                 "--values", VOLUMES], out / "volume", _volume_fit),
        _cli_op("sweep-spacing:d1", (SPACINGS,),
                ["sweep", "--scenario", vol_path, "--axis", "spacing",
                 "--measure", "amplitude", "--values", SPACINGS],
                out / "spacing", _spacing_monotone),
    ]
    return Plan("field_scaled", ops,
                {"scenarios": [big["naive"], big["qndsv"], vol_path]})


def _naive_pi_pin(x, y, p):
    """<pi_y> = -2 lam eps cos p.(x - y) (x != y) after the naive pair
    collapse, and <phi_y> = 0; eps = 1/V with V = N^3 at unit spacing."""
    phase = 2.0 * math.pi * sum(pc * (xc - yc) for pc, xc, yc in zip(p, x, y)) / FIELD_N3
    eps = 1.0 / FIELD_N3 ** 3

    def check(outputs):
        problems = []
        for obs, lam, value in _rows(outputs, "field_naive.csv"):
            v, lam = float(value), float(lam)
            if obs == "phi_y" and v != 0.0:
                problems.append(f"phi_y({lam}) = {v!r}, want 0")
            if obs == "pi_y":
                want = -2.0 * lam * eps * math.cos(phase)
                if abs(v - want) > 1e-12 * max(1.0, abs(want)):
                    problems.append(f"pi_y({lam}) = {v!r}, want {want!r}")
        return problems
    return check


def _qndsv_phi_odd(outputs):
    """<phi_y> after verification is odd in lam on the symmetric grid."""
    rows = sorted((float(lam), float(v)) for obs, lam, v in
                  _rows(outputs, "field_qndsv.csv") if obs == "phi_y")
    if len(rows) != FIELD_GRID:
        return ["field_qndsv.csv: wrong number of phi_y rows"]
    return [f"phi_y({lo}) = {a!r} but phi_y({hi}) = {b!r}"
            for (lo, a), (hi, b) in zip(rows, reversed(rows))
            if abs(lo + hi) > 1e-12 or abs(a + b) > 1e-15 + 1e-12 * abs(a)]


def _volume_fit(outputs):
    rows = [r for r in _rows(outputs, "field_volume_sweep_sweep_volume_fits.csv")
            if r[0] == "pi_y"]
    if len(rows) != 1:
        return ["volume fits: no pi_y row"]
    exponent, r2 = float(rows[0][1]), float(rows[0][2])
    if abs(exponent + 1.0) > 0.05 or not r2 > 0.99:
        return [f"volume fit: exponent {exponent!r}, R^2 {r2!r}; want -1 +- 0.05, > 0.99"]
    return []


def _spacing_monotone(outputs):
    rows = _rows(outputs, "field_volume_sweep_sweep_spacing.csv")
    amps = [float(r[2]) for r in rows]   # cutoffs are listed coarse to fine
    if len(amps) != len(SPACINGS.split(",")):
        return ["spacing sweep: wrong number of rows"]
    if any(b >= a for a, b in zip(amps, amps[1:])):
        return [f"spacing amplitude is not decreasing: {amps!r}"]
    return []


# ---------------------------------------------------------------------------
# oracle_check: the truncated-Fock cross-check through the library API

ORACLE_N = 4
ORACLE_TRUNC = 6
ORACLE_BIG_TRUNC = 7


def _oracle_check(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    # lam <= 0.8 keeps the trunc-6 tail near 1e-9, below tail_tol = 1e-8
    lam, x = rng.uniform(0.2, 0.8), rng.randrange(ORACLE_N)
    spec = {"dim": 1, "n_sites": ORACLE_N, "spacing": 1.0, "mass": 1.0,
            "x": x, "lam": lam, "p": 1}
    state = {}
    ops = []
    for y in range(ORACLE_N):
        ops.append(_oracle_op(state, y, ORACLE_TRUNC, "naive"))
    for y in range(1, ORACLE_N):
        ops.append(_oracle_op(state, y, ORACLE_TRUNC, "qndsv", ("phi_y",)))
    ops.append(_oracle_op(state, 2, ORACLE_BIG_TRUNC, "naive"))

    def prepare():
        state["inputs"] = oracle_inputs(spec)

    return Plan("oracle_check", ops, {"oracle": spec}, prepare=prepare)


def oracle_inputs(spec: dict):
    """The oracle's validated inputs: mode set, kick and measured mode."""
    from causalprobe import fieldtheory, lattice
    lat = lattice.LatticeSpec(dim=spec["dim"], n_sites=spec["n_sites"],
                              spacing=spec["spacing"], mass=spec["mass"])
    modes = lattice.build_modes(lat)
    p_index = modes.mode_index(spec["p"])
    if not modes.is_paired(p_index):
        raise ValueError(f"wavenumber {spec['p']} is self-conjugate")
    return modes, fieldtheory.KickSpec(site=spec["x"], strength=spec["lam"]), p_index


def _oracle_op(state, y, trunc, kind, observables=("phi_y", "pi_y", "phi2_y", "pi2_y")):
    def call():
        from causalprobe import field_oracle
        modes, kick, p_index = state["inputs"]
        return field_oracle.numeric_oracle_qndsv(
            modes, kick, y, p_index, trunc, scheme_kind=kind, observables=observables)

    def check(report):
        from causalprobe import fieldtheory
        modes, kick, p_index = state["inputs"]
        if kind == "naive":
            closed = fieldtheory.naive_np_expectations(modes, kick, y, p_index).as_dict()
        else:
            closed = {"phi_y": fieldtheory.qndsv_phi_y(modes, kick, y, p_index)}
        tol = ORACLE_TOL + report.tail_bound
        return [f"{kind} y={y} trunc={trunc} {obs}: oracle {report.values[obs]!r}, "
                f"closed form {closed[obs]!r}"
                for obs in observables if abs(report.values[obs] - closed[obs]) > tol]

    return Op(name=f"oracle:{kind}-y{y}-trunc{trunc}", sizes=(trunc, observables),
              call=call, check=check)


BUILDERS = {"corpus": _corpus, "ho_scaled": _ho_scaled,
            "field_scaled": _field_scaled, "oracle_check": _oracle_check}


def build(workload: str, seed: int, work: Path) -> Plan:
    return BUILDERS[workload](seed, work)


# ---------------------------------------------------------------------------
# execution

def _read_outputs(out: Path) -> tuple[dict, int]:
    """CSV bytes (manifests carry wall-clock time and are excluded) and the
    total size of every file the op left in its output directory."""
    csvs, total = {}, 0
    for path in sorted(out.iterdir()):
        total += path.stat().st_size
        if path.suffix == ".csv":
            csvs[path.name] = path.read_bytes()
    return csvs, total


def run_op(op: Op) -> OpResult:
    """Run one op; only the program call itself is timed."""
    from causalprobe import cli
    sink, err = io.StringIO(), io.StringIO()
    if op.call is not None:
        t0 = time.perf_counter()
        try:
            outputs = op.call()
        except Exception as exc:   # an op that raises counts as failed
            return OpResult(op.name, time.perf_counter() - t0,
                            problems=[f"raised {exc!r}"])
        return OpResult(op.name, time.perf_counter() - t0, outputs)
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception as exc:
            rc = exc
        seconds = time.perf_counter() - t0
    if rc != 0:
        return OpResult(op.name, seconds,
                        problems=[f"exit {rc!r}: {err.getvalue().strip()[:200]}"])
    return OpResult(op.name, seconds)


def collect(op: Op, result: OpResult, reference: dict) -> None:
    """Read an op's outputs after its pass and run its checks.

    ``reference`` maps op name to the CSVs of its first successful run;
    later runs must match them byte for byte.
    """
    if result.problems:
        return
    if op.out is not None:
        result.outputs, result.bytes_written = _read_outputs(op.out)
        first = reference.setdefault(op.name, result.outputs)
        if result.outputs != first:
            changed = sorted(k for k in set(first) | set(result.outputs)
                             if first.get(k) != result.outputs.get(k))
            result.problems.append(f"CSVs differ from the first pass: {changed}")
    try:
        result.problems.extend(op.check(result.outputs))
    except (KeyError, ValueError, IndexError) as exc:
        result.problems.append(f"unreadable output: {exc!r}")


def run_pass(plan: Plan, reference: dict, tracer=None) -> tuple[float, list]:
    """One pass: ops back to back, then their checks.  Returns the pass
    wall time and the per-op results.  With a tracer, spans are recorded
    while an op runs and tagged with its op id."""
    order = plan.order()
    for op in order:
        if op.out is not None:
            op.out.mkdir(parents=True, exist_ok=True)
            for path in op.out.iterdir():
                path.unlink()
    t0 = time.perf_counter()
    results = []
    for op in order:
        if tracer is not None:
            tracer.op = tracer.next_op()
        results.append(run_op(op))
        if tracer is not None:
            tracer.op = None
    wall = time.perf_counter() - t0
    for op, res in zip(order, results):
        collect(op, res, reference)
    return wall, results
