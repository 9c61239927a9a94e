"""The runtime dependencies in pyproject.toml cover every third-party
module that the package imports, and neither scipy nor sympy is one of
them: the package steps with its own rk4, and the operator ring takes
ints and cleared pairs only.  scipy serves the tests alone (the DOP853
reference and the Numerov radial check), and so does sympy (the
reference ring and the reader of sympy expressions)."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
# import name -> distribution name, where the two differ
DISTRIBUTIONS = {"yaml": "pyyaml"}


def _imports_by_module():
    """{module file stem: the top-level modules it imports}, for every
    src/relspin/*.py, the imports inside functions included; relative
    imports excluded."""
    out = {}
    for path in sorted((ROOT / "src" / "relspin").glob("*.py")):
        names = out[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return out


def _imported_modules():
    """The top-level modules imported anywhere in src/relspin/*.py."""
    return set().union(*_imports_by_module().values())


def _requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}


def test_runtime_dependencies_cover_the_imports_and_leave_out_scipy():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _requirement_names(project["dependencies"])
    third_party = {name for name in _imported_modules()
                   if name not in sys.stdlib_module_names and name != "relspin"}
    assert {"numpy", "yaml"} <= third_party
    assert "scipy" not in third_party
    assert {DISTRIBUTIONS.get(name, name) for name in third_party} <= runtime
    assert "scipy" not in runtime
    assert "scipy" in _requirement_names(project["optional-dependencies"]["test"])


def test_no_module_imports_sympy():
    assert not {stem for stem, names in _imports_by_module().items()
                if "sympy" in names}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert "sympy" not in _requirement_names(project["dependencies"])
    assert "sympy" in _requirement_names(project["optional-dependencies"]["test"])
