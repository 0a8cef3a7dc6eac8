"""Every demo script runs to completion against the library in src/, and
the output of those in `STDOUT` is as pinned there."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Demos whose standard output is pinned line by line: an exit code of 0
# alone would pass a law that printed False.
STDOUT = {
    "06_presentation_roundtrip.py": [
        "unit law: True",
        "mult law: True",
        "axioms: True",
        "non-expansive: True",
        "G(F(alpha)) == alpha on samples: True",
        "F(G(ops)) == ops on samples: True",
        "eval_canonical(tower) == mu(tower): True",
        "HK between two towers: 1/2",
        "corruption detected: True (11 mismatches)",
    ],
}


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.name in STDOUT:
        assert proc.stdout.splitlines() == STDOUT[demo.name]
