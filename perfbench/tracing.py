"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` replaces the public entry points below with timing
wrappers, rebinding every name under which a ``causalprobe`` module holds
the function (``harness.build_modes`` and ``field_oracle.embed_local`` are
imported names, for example).  Spans record name, start, end, parent span
and op id; they stay in memory until the run ends and writes them out.  Spans
opened on the harness's pool threads are parented to the span that
submitted the work, by rebinding ``harness.ThreadPoolExecutor``.

A span's self time is its duration minus the union of its children's
intervals.  A layer's time is the summed duration of its spans that have
no ancestor in the same layer, so nested calls are not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# (module, function); the span name is "<module>.<function>".
ENTRY_POINTS = (
    ("cli", "main"),
    ("harness", "run_scenario"), ("harness", "cutoff_sweep"),
    ("harness", "compare_schemes"), ("harness", "make_evaluator"),
    ("spins", "spin_scheme"), ("spins", "alice_rotate"),
    ("core", "post_measurement_expectation"), ("core", "embed_local"),
    ("oscillators", "coherent_prestate"), ("oscillators", "naive_nplus_ensemble"),
    ("oscillators", "local_moments_b"), ("oscillators", "phase_ensemble_moments"),
    ("lattice", "build_modes"), ("lattice", "kernel_g"), ("lattice", "kernel_ginv"),
    ("fieldtheory", "qndsv_phi_y"), ("fieldtheory", "qndsv_phi2_y"),
    ("fieldtheory", "qndsv_wavepacket_phi_y"), ("fieldtheory", "naive_np_expectations"),
    ("fieldtheory", "prestate_expectations"), ("fieldtheory", "suppression_factor"),
    ("fieldtheory", "max_signaling"),
    ("field_oracle", "field_operator"), ("field_oracle", "momentum_operator"),
    ("field_oracle", "numeric_oracle_qndsv"),
)

HARNESS_TOP = ("harness.run_scenario", "harness.cutoff_sweep", "harness.compare_schemes")
SPINS = ("spins.spin_scheme", "spins.alice_rotate")
KERNELS = ("lattice.kernel_g", "lattice.kernel_ginv")
FIELDTHEORY = tuple(f"fieldtheory.{fn}" for mod, fn in ENTRY_POINTS if mod == "fieldtheory")
ORACLE_BUILD = ("field_oracle.field_operator", "field_oracle.momentum_operator")
ORACLE = "field_oracle.numeric_oracle_qndsv"

# Per-layer metrics: name, unit, better, and what each one serves --
# the end-to-end metric it should move, the workload where that shows, the
# workloads where it should stay flat, and the ROADMAP item it informs
# (op_p50_ms is printed in the untraced run's details line).
# Times and counts are per traced pass.  Byte counts say in their unit
# whether they were measured from files or computed from array shapes.
LAYER_METRICS = (
    ("cli.self_ms", "ms", "lower", "op_p50_ms pass_s", "corpus", "ho_scaled field_scaled", "6 7"),
    ("cli.bytes_written", "bytes_measured", "lower", "op_p50_ms pass_s", "corpus", "ho_scaled field_scaled", "7"),
    ("harness.self_ms", "ms", "lower", "op_p50_ms pass_s", "corpus ho_scaled", "oracle_check", "5 6"),
    ("harness.build_ms", "ms", "lower", "pass_s", "field_scaled", "oracle_check", "5"),
    ("harness.builds", "count", "lower", "pass_s", "field_scaled", "oracle_check", "5"),
    ("harness.evaluate_calls", "count", "lower", "pass_s", "field_scaled ho_scaled", "oracle_check", "5"),
    ("harness.useful_ratio", "ratio", "higher", "pass_s", "field_scaled ho_scaled", "oracle_check", "5"),
    ("harness.pool_speedup", "ratio", "higher", "pass_s", "ho_scaled", "oracle_check", "5"),
    ("spins.ms", "ms", "lower", "op_p50_ms pass_s", "corpus", "ho_scaled field_scaled", "5"),
    ("core.post_measurement_expectation.ms", "ms", "lower", "op_p50_ms pass_s", "corpus", "ho_scaled field_scaled", "5"),
    ("core.post_measurement_expectation.calls", "count", "lower", "op_p50_ms pass_s", "corpus", "ho_scaled field_scaled", "5"),
    ("oscillators.prestate_ms", "ms", "lower", "pass_s op_tail_ms", "ho_scaled corpus", "field_scaled oracle_check", "4"),
    ("oscillators.prestate_calls", "count", "lower", "pass_s op_tail_ms", "ho_scaled corpus", "field_scaled oracle_check", "4"),
    ("oscillators.ensemble_ms", "ms", "lower", "pass_s op_tail_ms", "ho_scaled corpus", "field_scaled oracle_check", "4"),
    ("oscillators.ensemble_calls", "count", "lower", "pass_s op_tail_ms", "ho_scaled corpus", "field_scaled oracle_check", "4"),
    ("oscillators.moments_ms", "ms", "lower", "pass_s op_tail_ms", "ho_scaled corpus", "field_scaled oracle_check", "4"),
    ("oscillators.moments_calls", "count", "lower", "pass_s op_tail_ms", "ho_scaled corpus", "field_scaled oracle_check", "4"),
    ("oscillators.phase_ms", "ms", "lower", "pass_s op_tail_ms", "ho_scaled corpus", "field_scaled oracle_check", "4"),
    ("oscillators.phase_calls", "count", "lower", "pass_s op_tail_ms", "ho_scaled corpus", "field_scaled oracle_check", "4"),
    ("oscillators.branches", "count", "lower", "pass_s peak_rss_mb", "ho_scaled", "field_scaled oracle_check", "4"),
    ("oscillators.branch_bytes", "bytes_computed", "lower", "pass_s peak_rss_mb", "ho_scaled", "field_scaled oracle_check", "4"),
    ("lattice.build_ms", "ms", "lower", "pass_s", "field_scaled", "ho_scaled oracle_check", "5"),
    ("lattice.builds", "count", "lower", "pass_s", "field_scaled", "ho_scaled oracle_check", "5"),
    ("lattice.modes", "count", "lower", "pass_s", "field_scaled", "ho_scaled oracle_check", "5"),
    ("lattice.kernel_ms", "ms", "lower", "pass_s", "field_scaled", "ho_scaled", "5"),
    ("lattice.kernel_calls", "count", "lower", "pass_s", "field_scaled", "ho_scaled", "5"),
    ("fieldtheory.ms", "ms", "lower", "pass_s", "field_scaled", "ho_scaled oracle_check", "5"),
    ("fieldtheory.calls", "count", "lower", "pass_s", "field_scaled", "ho_scaled oracle_check", "5"),
    ("field_oracle.build_ms", "ms", "lower", "pass_s", "oracle_check", "corpus ho_scaled field_scaled", "3"),
    ("field_oracle.apply_ms", "ms", "lower", "pass_s", "oracle_check", "corpus ho_scaled field_scaled", "3"),
    ("field_oracle.dim", "count", "lower", "peak_rss_mb", "oracle_check", "corpus ho_scaled field_scaled", "3"),
    ("field_oracle.operator_bytes", "bytes_computed", "lower", "peak_rss_mb", "oracle_check", "corpus ho_scaled field_scaled", "3"),
    ("setup.import_ms", "ms", "lower", "setup_s", "all", "", "2"),
    ("setup.scipy_ms", "ms", "lower", "setup_s", "all", "", "2"),
    ("trace.overhead_frac", "ratio", "lower", "trust in the trace", "all", "", "2"),
    ("trace.unattributed_frac", "ratio", "lower", "trust in the trace", "all", "", "2"),
)


class Tracer:
    """In-memory spans and counters for the ops of a traced run."""

    def __init__(self):
        self.spans = []            # (id, parent id, name, start, end, op id)
        self.op = None             # id of the running op; None: record nothing
        self.points = set()        # distinct (evaluator, lam) points
        self.counts = {"modes": 0, "branches": 0, "branch_bytes": 0,
                       "oracle_dim": 0, "operator_bytes": 0}
        self._ids = itertools.count(1)
        self._evaluators = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def next_op(self) -> int:
        return next(self._ops)

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, fn, name, after=None):
        """Timing wrapper; ``after(args, kwargs, result)`` may replace the
        result (used to wrap the evaluator closures)."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end, tracer.op))
            return after(args, kwargs, result) if after else result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str, value: int, keep_max: bool = False) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value) if keep_max \
                else self.counts[key] + value

    # -- result hooks ----------------------------------------------------
    def _after_make_evaluator(self, args, kwargs, evaluate):
        eid = next(self._evaluators)
        points = self.points

        def counted(obs, lam):
            points.add((eid, float(lam)))
            return evaluate(obs, lam)

        return self.wrap(counted, "harness.evaluate")

    def _after_build_modes(self, args, kwargs, modes):
        self._count("modes", modes.n_modes)
        return modes

    def _after_ensemble(self, args, kwargs, ensemble):
        live = [e for e in ensemble.entries if not e.zero_branch]
        self._count("branches", len(live))
        # computed from array shapes, not measured
        self._count("branch_bytes", sum(e.post_state.amplitudes.size * 16 for e in live))
        return ensemble

    def _oracle_hook(self, fn):
        sig = inspect.signature(fn)

        def after(args, kwargs, report):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            dim = int(bound.arguments["trunc"]) ** bound.arguments["modes"].n_modes
            squares = sum(o in ("phi2_y", "pi2_y") for o in bound.arguments["observables"])
            self._count("oracle_dim", dim, keep_max=True)
            # phi and pi are always built, plus one square per second moment;
            # computed from array shapes, not measured
            self._count("operator_bytes", (2 + squares) * dim * dim * 16, keep_max=True)
            return report
        return after

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        from causalprobe import harness
        for mod_name in {mod for mod, _ in ENTRY_POINTS}:
            importlib.import_module(f"causalprobe.{mod_name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "causalprobe" or name.startswith("causalprobe.")]
        for mod_name, fn_name in ENTRY_POINTS:
            original = getattr(sys.modules[f"causalprobe.{mod_name}"], fn_name)
            after = {"make_evaluator": self._after_make_evaluator,
                     "build_modes": self._after_build_modes,
                     "naive_nplus_ensemble": self._after_ensemble}.get(fn_name)
            if fn_name == "numeric_oracle_qndsv":
                after = self._oracle_hook(original)
            traced = self.wrap(original, f"{mod_name}.{fn_name}", after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))
        tracer = self

        class ParentingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        stack.pop()

                return super().submit(run, *args, **kwargs)

        self._patched.append((harness, "ThreadPoolExecutor", harness.ThreadPoolExecutor))
        harness.ThreadPoolExecutor = ParentingPool

    def dump(self, path: Path) -> None:
        """Write the spans as [id, parent, name, start s, end s, op id],
        times relative to the first span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump([[sid, parent, name, start - t0, end - t0, op]
                       for sid, parent, name, start, end, op in self.spans], fh)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# metrics from spans

def _union(intervals) -> float:
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_metrics(tracer: Tracer, passes: int, root_seconds: float) -> dict:
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    ``root_seconds`` is the summed wall time of those passes; the part of
    it that no top-level span covers is reported as unattributed.
    """
    spans = {s[0]: s for s in tracer.spans}
    children = {}
    for s in spans.values():
        children.setdefault(s[1], []).append(s)

    def self_time(s) -> float:
        kids = [(max(c[3], s[3]), min(c[4], s[4])) for c in children.get(s[0], ())]
        return (s[4] - s[3]) - _union(k for k in kids if k[1] > k[0])

    def has_ancestor_in(s, names) -> bool:
        parent = spans.get(s[1])
        while parent is not None:
            if parent[2] in names:
                return True
            parent = spans.get(parent[1])
        return False

    def outer(names):
        return [s for s in spans.values() if s[2] in names and not has_ancestor_in(s, names)]

    def ms(names) -> float:
        return 1e3 * sum(s[4] - s[3] for s in outer(names)) / passes

    def calls(names) -> float:
        return len(outer(names)) / passes

    oracle = outer((ORACLE,))
    oracle_build = sum(s[4] - s[3] for s in outer(ORACLE_BUILD)
                       if has_ancestor_in(s, (ORACLE,)))
    evaluate_calls = calls(("harness.evaluate",)) * passes
    roots = [s for s in spans.values() if s[1] is None]
    return {
        "cli.self_ms": 1e3 * sum(self_time(s) for s in outer(("cli.main",))) / passes,
        "harness.self_ms": 1e3 * sum(self_time(s) for s in outer(HARNESS_TOP)) / passes,
        "harness.build_ms": ms(("harness.make_evaluator",)),
        "harness.builds": calls(("harness.make_evaluator",)),
        "harness.evaluate_calls": evaluate_calls / passes,
        "harness.useful_ratio": (len(tracer.points) / evaluate_calls
                                 if evaluate_calls else 0.0),
        "spins.ms": ms(SPINS),
        "core.post_measurement_expectation.ms": ms(("core.post_measurement_expectation",)),
        "core.post_measurement_expectation.calls": calls(("core.post_measurement_expectation",)),
        "oscillators.prestate_ms": ms(("oscillators.coherent_prestate",)),
        "oscillators.prestate_calls": calls(("oscillators.coherent_prestate",)),
        "oscillators.ensemble_ms": ms(("oscillators.naive_nplus_ensemble",)),
        "oscillators.ensemble_calls": calls(("oscillators.naive_nplus_ensemble",)),
        "oscillators.moments_ms": ms(("oscillators.local_moments_b",)),
        "oscillators.moments_calls": calls(("oscillators.local_moments_b",)),
        "oscillators.phase_ms": ms(("oscillators.phase_ensemble_moments",)),
        "oscillators.phase_calls": calls(("oscillators.phase_ensemble_moments",)),
        "oscillators.branches": tracer.counts["branches"] / passes,
        "oscillators.branch_bytes": tracer.counts["branch_bytes"] / passes,
        "lattice.build_ms": ms(("lattice.build_modes",)),
        "lattice.builds": calls(("lattice.build_modes",)),
        "lattice.modes": tracer.counts["modes"] / passes,
        "lattice.kernel_ms": ms(KERNELS),
        "lattice.kernel_calls": calls(KERNELS),
        "fieldtheory.ms": ms(FIELDTHEORY),
        "fieldtheory.calls": calls(FIELDTHEORY),
        "field_oracle.build_ms": ms(ORACLE_BUILD),
        "field_oracle.apply_ms": 1e3 * (sum(s[4] - s[3] for s in oracle)
                                        - oracle_build) / passes,
        "field_oracle.dim": tracer.counts["oracle_dim"],
        "field_oracle.operator_bytes": tracer.counts["operator_bytes"],
        "trace.unattributed_frac": max(
            0.0, 1.0 - sum(s[4] - s[3] for s in roots) / root_seconds),
    }
