"""Golden values: the CSVs of the shipped commands, recorded in tests/golden/.

Each command is rerun and every cell compared with its recorded value:
text exactly, numbers within 1e-13 relative, which allows for BLAS and SIMD
differences between hosts (on the recording host the bytes match too).  A
change that means to move a number rerecords the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its own diff which numbers moved and why.
"""

from __future__ import annotations

import math
import shutil
import sys
from pathlib import Path

import pytest

from causalprobe import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
REL_TOL = 1e-13


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


def record() -> None:
    """Rewrite tests/golden/ from the commands as they run now."""
    for name in COMMANDS:
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        _run(name, target)
        for manifest in target.glob("*.manifest.json"):
            manifest.unlink()     # holds a wall-clock time, so never golden


if __name__ == "__main__":
    sys.exit(record())
