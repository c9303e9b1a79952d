"""Golden values: the CSVs of the shipped commands and the printed output
of the demos, recorded in tests/golden/.

Each command is rerun and every cell compared with its recorded value:
text exactly, numbers within 1e-13 relative, which allows for BLAS and SIMD
differences between hosts (on the recording host the bytes match too).
Each demo is rerun and its output compared token by token: text exactly,
numbers within 1e-10, since the demos also print differences of order
1e-13 between routes.  A change that means to move a number rerecords the
files with

    PYTHONPATH=src python tests/test_golden.py

and says in its own diff which numbers moved and why.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import runpy
import shutil
import sys
from pathlib import Path

import pytest

from causalprobe import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
REL_TOL = 1e-13
DEMO_TOL = 1e-10
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _scenario(stem: str) -> list:
    return ["--scenario", str(SCENARIOS / f"{stem}.json")]


# d = 3, N = 32: the lattice of the closed-form benchmark, all observables
D3 = ["--d", "3", "--N", "32", "--mass", "1", "--x", "3,17,9", "--y", "20,5,30",
      "--p-index", "1,-2,3", "--grid=-1:1:21"]

COMMANDS = {
    **{stem: [cmd, *_scenario(stem)] for cmd, stem in (
        ("field", "field_naive"), ("field", "field_qndsv"), ("field", "field_volume_sweep"),
        ("ho", "ho_naive"), ("ho", "ho_phase"),
        ("spin", "spin_qndsv"), ("spin", "spin_s2_ambiguity"))},
    "sweep_volume": ["sweep", *_scenario("field_volume_sweep"), "--axis", "volume",
                     "--values", "4,8,16,32"],
    "sweep_spacing": ["sweep", *_scenario("field_volume_sweep"), "--axis", "spacing",
                      "--measure", "amplitude", "--values", "1,0.5,0.25,0.125"],
    "sweep_s_cut": ["sweep", *_scenario("ho_phase"), "--axis", "s_cut",
                    "--values", "8,10,12"],
    # y = x: the contact term makes pi_y read +-lambda
    "field_none_pi": ["field", "none", *_scenario("field_naive"), "--y", "0",
                      "--obs", "pi_y,pi2_y"],
    "spin_s2_sz": ["spin", *_scenario("spin_s2_ambiguity"), "--obs", "Sz,S2,sBz"],
    "compare_spin": ["compare", *_scenario("spin_s2_ambiguity"), "--schemes",
                     "s2-standard,s2-bell,s2-luders,sz-standard,sz-bell,sz-luders,none"],
    "compare_ho": ["compare", *_scenario("ho_naive"), "--schemes", "naive-nplus,none"],
    "compare_field": ["compare", *_scenario("field_qndsv"), "--schemes", "none,naive,qndsv"],
    "field_naive_d3": ["field", "naive", *D3, "--obs", "phi_y,pi_y,phi2_y,pi2_y"],
    "field_qndsv_d3": ["field", "qndsv", *D3],
}


def _run(name: str, out: Path) -> None:
    assert cli.main([*COMMANDS[name], "--out", str(out)]) == 0


def _same(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_reproduces_its_golden_csvs(name, tmp_path):
    _run(name, tmp_path)
    recorded = sorted(p.name for p in (GOLDEN / name).glob("*.csv"))
    assert recorded and sorted(p.name for p in tmp_path.glob("*.csv")) == recorded
    for csv in recorded:
        got = (tmp_path / csv).read_text().splitlines()
        want = (GOLDEN / name / csv).read_text().splitlines()
        assert len(got) == len(want), csv
        for row, (g, w) in enumerate(zip(got, want)):
            g, w = g.split(","), w.split(",")
            assert len(g) == len(w) and all(map(_same, g, w)), \
                f"{name}/{csv} line {row + 1}: {','.join(g)} != {','.join(w)}"


def _demo_output(demo: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    return out.getvalue()


def _same_demo_token(got: str, want: str) -> bool:
    if NUMBER.fullmatch(got) and NUMBER.fullmatch(want):
        return abs(float(got) - float(want)) <= DEMO_TOL
    return got == want


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_reproduces_its_golden_output(demo):
    got = _demo_output(demo).splitlines()
    want = (GOLDEN / "demos" / f"{demo.stem}.txt").read_text().splitlines()
    assert len(got) == len(want), demo.name
    for row, (g, w) in enumerate(zip(got, want)):
        g, w = NUMBER.split(g), NUMBER.split(w)
        assert len(g) == len(w) and all(map(_same_demo_token, g, w)), \
            f"{demo.name} line {row + 1}: {''.join(g)!r} != {''.join(w)!r}"


def record() -> None:
    """Rewrite tests/golden/ from the commands and demos as they run now."""
    for name in COMMANDS:
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        _run(name, target)
        for manifest in target.glob("*.manifest.json"):
            manifest.unlink()     # holds a wall-clock time, so never golden
    (GOLDEN / "demos").mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / "demos" / f"{demo.stem}.txt").write_text(_demo_output(demo))


if __name__ == "__main__":
    sys.exit(record())
