"""Self-test of the benchmark's own checks and declarations.

    python3 perfbench/selftest.py        (from the root of a checkout)

* BENCHMARK.json declares exactly the workloads and metrics the code emits;
* every workload's op list and problem sizes are identical across seeds,
  and so is the number of values a corpus pass returns;
* one perturbed value fed through the checks makes its op count as failed,
  for a CLI op (the <P_B> pin) and for an oracle op (closed form vs oracle).

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

import run
import tracing
import workloads


def _failed(results) -> int:
    return sum(bool(r.problems) for r in results)


def check_declarations() -> None:
    with open(run.REPO / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [row[:3] for row in tracing.LAYER_METRICS]


def check_seeds(work: Path) -> None:
    for name in workloads.WORKLOADS:
        sigs = {workloads.build(name, seed, work / f"{name}-{seed}").signature()
                for seed in range(5)}
        assert len(sigs) == 1, f"{name}: the seed changed the op list or sizes"
    counts = set()
    for seed in (0, 1):
        plan = workloads.build("corpus", seed, work / f"values-{seed}")
        _, results = workloads.run_pass(plan, {})
        assert _failed(results) == 0, [r.problems for r in results if r.problems]
        counts.add(sum(run._values(r) for r in results))
    assert len(counts) == 1, f"values per corpus pass differ across seeds: {counts}"


def check_perturbed_cli(work: Path) -> None:
    plan = workloads.build("corpus", 0, work / "perturb")
    reference = {}
    _, results = workloads.run_pass(plan, reference)
    assert _failed(results) == 0
    ops = {op.name: op for op in plan.ops}
    result = next(r for r in results if r.name == "ho:ho_naive")
    rows = result.outputs["ho_naive.csv"].decode().splitlines()
    i = next(k for k, line in enumerate(rows) if line.startswith("PB,"))
    obs, lam, value = rows[i].split(",")
    rows[i] = f"{obs},{lam},{float(value) + 1e-6!r}"
    perturbed = {**result.outputs, "ho_naive.csv": ("\n".join(rows) + "\n").encode()}
    # the physics pin alone must catch it, not only the byte comparison
    assert ops["ho:ho_naive"].check(perturbed), "PB pin missed a 1e-6 error"
    bad = dataclasses.replace(result, problems=[])
    (ops["ho:ho_naive"].out / "ho_naive.csv").write_bytes(perturbed["ho_naive.csv"])
    workloads.collect(ops["ho:ho_naive"], bad, reference)
    results = [bad if r.name == "ho:ho_naive" else r for r in results]
    assert _failed(results) == 1, "a perturbed CLI value was not counted as failed"


def check_perturbed_oracle(work: Path) -> None:
    plan = workloads.build("oracle_check", 0, work / "oracle")
    plan.prepare()
    op = next(o for o in plan.ops if o.name == "oracle:qndsv-y1-trunc6")
    result = workloads.run_op(op)
    workloads.collect(op, result, {})
    assert not result.problems, result.problems
    report = copy.deepcopy(result.outputs)
    report.values["phi_y"] += 1e-5
    bad = workloads.OpResult(op.name, result.seconds, report)
    workloads.collect(op, bad, {})
    assert _failed([result, bad]) == 1, "a perturbed oracle value was not counted as failed"


def main() -> int:
    if not (run.SRC / "causalprobe").is_dir():
        print("selftest: run from a causal-probe checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    work = run.HERE / "_work" / f"selftest-{os.getpid()}"
    try:
        check_declarations()
        check_seeds(work)
        check_perturbed_cli(work)
        check_perturbed_oracle(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass        # a benchmark run's work directory is still there
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
