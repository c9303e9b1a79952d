"""causal-probe benchmark: one workload per fresh process.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The untraced run (``--trace 0``) measures
whole passes of the workload for at least S seconds and at least the
workload's minimum pass count, then prints the end-to-end metrics.  The
traced run (``--trace 1``) measures half the minimum pass count untraced,
then as many passes with span wrappers installed, then the minimum pass
count untraced in a child process with ``CAUSAL_PROBE_THREADS=1
OPENBLAS_NUM_THREADS=1``, and prints the per-layer metrics, which carry no
bound.  Every op's output is checked (see workloads.py);
an op fails if it raises, exits nonzero or misses its check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, sample counts, quartiles and any failures.  The
traced run also writes its spans to ``perfbench/_traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"

# Every end-to-end metric comes from untraced runs.  The median op time is
# printed in the details line only: on ho_scaled it is the trunc sweep, whose
# run-to-run spread on a 2-vCPU host (0.14-0.32 IQR/median over 10 runs)
# exceeds the largest bound a metric may have.
END_TO_END = {"setup_s": "s", "pass_s": "s", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5
UNTRACED_BUDGET_S = 150          # stop starting passes after this; exit < 180 s
TRACED_BUDGETS_S = (50, 100)     # untraced, traced segment ends; child after
TRACED_END_S = 172               # the serial child must end by then


@dataclass
class Measurement:
    pass_seconds: list = field(default_factory=list)
    op_seconds: list = field(default_factory=list)
    values_per_pass: list = field(default_factory=list)
    bytes_per_pass: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def _values(result) -> int:
    """Number of values an op returned: CSV data rows or oracle values."""
    if isinstance(result.outputs, dict):
        return sum(max(0, data.count(b"\n") - 1) for data in result.outputs.values())
    return len(getattr(result.outputs, "values", ()))


def measure(plan, seconds: float, min_passes: int, reference: dict, stop_at: float,
            tracer=None) -> Measurement:
    m = Measurement()
    start = time.perf_counter()
    while (len(m.pass_seconds) < min_passes or time.perf_counter() - start < seconds) \
            and time.perf_counter() < stop_at:
        wall, results = workloads.run_pass(plan, reference, tracer)
        m.pass_seconds.append(wall)
        m.op_seconds.extend(r.seconds for r in results)
        m.values_per_pass.append(sum(_values(r) for r in results))
        m.bytes_per_pass.append(sum(r.bytes_written for r in results))
        m.attempted += len(results)
        for r in results:
            if r.problems:
                m.failed += 1
                m.problems.append(f"{r.name}: {'; '.join(r.problems)}"[:300])
    return m


def op_tail(m: Measurement, workload: str) -> float:
    """The workload's tail percentile of op time, in seconds."""
    q = workloads.TAIL_PERCENTILE[workload]
    return statistics.quantiles(m.op_seconds, n=100, method="inclusive")[q - 1]


def setup_samples(plan, count: int, importtime: bool) -> list:
    """Fresh-process set-up probes; with ``importtime`` each also reports
    the time it spent importing scipy."""
    samples = []
    for _ in range(count):
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
               str(HERE / "setup_probe.py"), str(SRC), json.dumps(plan.inputs)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              cwd=REPO, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if importtime:
            sample["scipy_s"] = _scipy_seconds(proc.stderr)
        samples.append(sample)
    return samples


def _scipy_seconds(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in a
    ``-X importtime`` log, so what scipy pulls in is counted once."""
    rows = re.findall(r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$",
                      importtime_log, re.MULTILINE)
    total, stack = 0, []          # (depth, inside scipy) of open ancestors
    for cumulative, indent, name in reversed(rows):   # parents come first
        depth = len(indent)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total += int(cumulative)
        stack.append((depth, inside or is_scipy))
    return 1e-6 * total


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {name: os.environ.get(name) for name in
           ("CAUSAL_PROBE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            **env, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def serial_reference(args, seconds_left: float) -> float:
    """Median pass_s of the same workload in a child process with the
    harness pool and BLAS held to one thread (set only in the child)."""
    env = dict(os.environ, CAUSAL_PROBE_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--setup-samples", "0", "--stop-after", str(max(1.0, seconds_left - 10))]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=REPO,
                          timeout=max(1.0, seconds_left), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"serial reference failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("serial reference run failed its checks")
    return result["metrics"]["pass_s"]["value"]


def _summary(m: Measurement, workload: str) -> dict:
    tail = op_tail(m, workload)
    return {"passes": len(m.pass_seconds),
            "pass_s_quartiles": statistics.quantiles(m.pass_seconds, n=4)
            if len(m.pass_seconds) > 1 else m.pass_seconds,
            "op_p50_ms": 1e3 * statistics.median(m.op_seconds),
            "op_samples": len(m.op_seconds),
            "op_tail_percentile": workloads.TAIL_PERCENTILE[workload],
            "op_samples_beyond_tail": sum(v > tail for v in m.op_seconds),
            "values_per_pass": sorted(set(m.values_per_pass)),
            "failed_frac": m.failed / m.attempted, "problems": m.problems[:5]}


def run(args, work: Path) -> int:
    started = time.perf_counter()
    plan = workloads.build(args.workload, args.seed, work / "plan")
    other = workloads.build(args.workload, args.seed + 1, work / "other")
    if plan.signature() != other.signature():
        raise RuntimeError("the seed changed the op list or the problem sizes")

    probes = setup_samples(plan, args.setup_samples, importtime=bool(args.trace))
    import causalprobe
    if not causalprobe.__file__.startswith(str(SRC)):
        raise RuntimeError(f"imported {causalprobe.__file__}, not the checkout's src/")
    plan.prepare()
    reference = {}
    min_passes = workloads.MIN_PASSES[args.workload]

    if not args.trace:
        m = measure(plan, args.seconds, min_passes, reference,
                    started + args.stop_after)
        values = {
            "pass_s": statistics.median(m.pass_seconds),
            "op_tail_ms": 1e3 * op_tail(m, args.workload),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if probes:
            values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        units = END_TO_END
        info = _summary(m, args.workload)
        attempted, failed = m.attempted, m.failed
    else:
        passes = max(1, min_passes // 2)
        base = measure(plan, 0, passes, reference, started + TRACED_BUDGETS_S[0])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(plan, 0, passes, reference,
                             started + TRACED_BUDGETS_S[1], tracer)
        finally:
            tracer.uninstall()
        tracer.dump(HERE / "_traces" / f"{args.workload}-seed{args.seed}.json")
        base_pass = statistics.median(base.pass_seconds)
        values = tracing.layer_metrics(tracer, len(traced.pass_seconds),
                                       sum(traced.pass_seconds))
        values.update({
            "cli.bytes_written": statistics.median(traced.bytes_per_pass),
            "harness.pool_speedup": serial_reference(
                args, started + TRACED_END_S - time.perf_counter()) / base_pass,
            "trace.overhead_frac":
                (statistics.median(traced.pass_seconds) - base_pass) / base_pass,
        })
        if probes:
            values["setup.import_ms"] = 1e3 * statistics.median(p["import_s"] for p in probes)
            values["setup.scipy_ms"] = 1e3 * statistics.median(p["scipy_s"] for p in probes)
        units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
        info = {"untraced": _summary(base, args.workload),
                "traced": _summary(traced, args.workload)}
        attempted = base.attempted + traced.attempted
        failed = base.failed + traced.failed

    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                setup_samples=[p["setup_s"] for p in probes],
                environment=environment())
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the traced run's serial child skips set-up and ends early
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES,
                        help="fresh-process set-up probes (0: skip set-up metrics)")
    parser.add_argument("--stop-after", type=float, default=UNTRACED_BUDGET_S,
                        help="start no pass after this many seconds")
    args = parser.parse_args(argv)

    if not (SRC / "causalprobe" / "__init__.py").is_file() \
            or not (REPO / "scenarios").is_dir():
        print(f"perfbench: {REPO} holds no src/causalprobe or scenarios/; "
              "run from the root of a causal-probe checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = HERE / "_work" / str(os.getpid())
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass        # another run's work directory is still there


if __name__ == "__main__":
    sys.exit(main())
