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
    # l = 6, the first level past h, is named i
    ("fine_structure_table.py", ("--n-max", "7"),
     "bare-g coupling would give"),
])
def test_script_runs_to_its_closing_line(name, args, closing):
    proc = _run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1].startswith(closing), proc.stdout


@pytest.mark.parametrize("name, args, error", [
    ("bracket_report.py", ("--states", "0"), "must be an integer >= 1"),
    ("thomas_precession.py", ("--orbits", "0", "--g", "2"), "two distinct times"),
    ("bracket_report.py", ("--seed", "-1"), "must be an integer >= 0"),
    ("bracket_report.py", ("--g", "nan"), "argument --g: must be finite"),
    ("fine_structure_table.py", ("--n-max", "0"), "must be an integer >= 1"),
    ("fine_structure_table.py", ("--n-max", "22"), "no spectroscopic letter"),
])
def test_script_refuses_an_input_that_verifies_nothing(name, args, error):
    """No state, no level, or no time span to fit a rate over, is an
    error rather than a zero or an empty table that reads as a result;
    so are a seed the generator refuses, a g that is not finite and a
    level past the spectroscopic letters.  Each is one message, not a
    traceback."""
    proc = _run_script(name, *args)
    assert proc.returncode != 0 and error in proc.stderr, (proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr, proc.stderr
