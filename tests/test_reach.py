"""Reach guard: every public function and method of ``src/`` is called by
a shipped command or demo, or is named in ``ALLOWED`` with why it stays.

The trace runs, under ``sys.setprofile``, every command of the golden
corpus, ``validate`` on the shipped scenarios and the three demos.  The
unreached set must equal ``ALLOWED``: new dead code fails, and so does an
entry that something now reaches.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
from pathlib import Path

from causalprobe import cli, spins
from conftest import public_callables
from test_golden import COMMANDS

ROOT = Path(__file__).resolve().parent.parent

_TEST_REFERENCE = "the tests' dense reference route"
_TRACER = "an entry point of perfbench/tracing.py"
_PACKETS = "wave-packet verification, ROADMAP item 7"
ALLOWED = {
    "causalprobe.fieldtheory.qndsv_wavepacket_phi_y": _TRACER,
    "causalprobe.fieldtheory.prestate_expectations": _TRACER,
    "causalprobe.field_oracle.field_operator": f"{_TRACER} and {_TEST_REFERENCE}",
    "causalprobe.field_oracle.momentum_operator": f"{_TRACER} and {_TEST_REFERENCE}",
    "causalprobe.fieldtheory.WavePacket.validate": _PACKETS,
    "causalprobe.fieldtheory.packet_kernel": _PACKETS,
    "causalprobe.fieldtheory.signal_kernel": _PACKETS,
    "causalprobe.fieldtheory.sorkin_derivative": _PACKETS,
}


def _traced_codes(out: Path) -> set:
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    # a command starts from an empty spins table; a warm one would hide its builders
    spins._TABLE.clear()
    scenarios = [str(p) for p in sorted((ROOT / "scenarios").glob("*.json"))]
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            for name, argv in COMMANDS.items():
                assert cli.main([*argv, "--out", str(out / name)]) == 0, name
            assert cli.main(["validate", *scenarios]) == 0
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.setprofile(None)
    return called


def test_unreached_public_functions_are_the_allowed_ones(tmp_path):
    called = _traced_codes(tmp_path)
    unreached = {name for name, fn in public_callables() if fn.__code__ not in called}
    assert sorted(unreached - ALLOWED.keys()) == [], "unreached and not allowed"
    assert sorted(ALLOWED.keys() - unreached) == [], "allowed but now reached or gone"


def _tracer_entry_points() -> set:
    """``perfbench/tracing.py:ENTRY_POINTS``, read from the source without
    importing the tracer."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets)]
    return {f"causalprobe.{mod}.{fn}" for mod, fn in ast.literal_eval(value)}


def test_tracer_reasons_name_tracer_entry_points():
    traced = {name for name, reason in ALLOWED.items() if _TRACER in reason}
    assert traced, "no allow-list entry names the tracer"
    assert sorted(traced - _tracer_entry_points()) == [], "not an entry point of the tracer"
