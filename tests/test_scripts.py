"""Smoke tests of the experiment scripts in scripts/.

Each script runs as a fresh process on a small input and must exit 0
and print its closing line; this keeps them in step with the package
API they import.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=src_env(),
                          timeout=300)


@pytest.mark.parametrize("name, args, closing", [
    ("bracket_report.py", ("--states", "2"),
     "resolved energy-row coefficients: gradient g/4, dipole g"),
    ("fine_structure_table.py", ("--n-max", "2"),
     "bare-g coupling would give"),
    ("thomas_precession.py", ("--orbits", "0.5", "--dt", "0.2", "--g", "2"),
     "rate/base tracking g - 1 (not g) is the Thomas half"),
])
def test_script_runs_to_its_closing_line(name, args, closing):
    proc = _run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1].startswith(closing), proc.stdout
