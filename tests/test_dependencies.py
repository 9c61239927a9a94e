"""The runtime dependencies in pyproject.toml cover every third-party
module that the package imports, and neither scipy nor sympy is one of
them: the package steps with its own rk4, and the operator ring takes
ints and cleared pairs only.  scipy serves the tests alone (the DOP853
reference and the Numerov radial check), and so does sympy (the
reference ring and the reader of sympy expressions).  Every name a
module imports is read in it, and every function of the package is
named by what runs: the package, its scripts or perfbench."""

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


def test_no_module_imports_a_name_it_never_reads():
    """Every name that a src/relspin module imports, at the top or inside
    a function, is read somewhere in that module: an import left behind
    when its last reader went (a private helper, math, numpy) is named
    here.  __future__ imports bind no name and are exempt."""
    unread = {}
    for path in sorted((ROOT / "src" / "relspin").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {alias.asname or alias.name.split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if bound - read:
            unread[path.stem] = sorted(bound - read)
    assert not unread


# defined in src/relspin and kept though nothing in src/, scripts/ or
# perfbench/ names them: module stem and qualified name -> why
KEPT_UNNAMED = {
    ("expansion", "from_primed"): "the commuting chart, whose body binds the field_data "
                                  "that perfbench finds in expansion",
    ("hydrogen", "spin_orbit_shift_naive"): "the bare-g control of the (g - 1) coupling",
    ("weyl", "Op.adjoint"): "Hermiticity of the operators of the realization",
}


def _definitions():
    """(module stem, qualified name, is a method) of every top-level
    function of src/relspin and every public method of its top-level
    classes; dunders, which Python calls, are left out."""
    out = []
    for path in sorted((ROOT / "src" / "relspin").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                out.append((path.stem, node.name, False))
            elif isinstance(node, ast.ClassDef):
                out += [(path.stem, f"{node.name}.{fn.name}", True) for fn in node.body
                        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    return out


def _named():
    """(attribute names, plain names) that the code of src/, scripts/ and
    perfbench/ reads: each attribute, each name loaded or imported, and
    each part of a tracer LAYERS path."""
    attributes, plain = set(), set()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    plain.add(node.id)
                elif isinstance(node, ast.alias):
                    plain.add(node.name.split(".")[-1])
                elif (isinstance(node, ast.Assign) and path.name == "tracer.py"
                      and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]):
                    for _, layer_path in ast.literal_eval(node.value).values():
                        attributes.update(layer_path.split("."))
    return attributes, plain


def _exported():
    tree = ast.parse((ROOT / "src" / "relspin" / "__init__.py").read_text())
    (exports,) = (node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"])
    return set(ast.literal_eval(exports))


def test_every_function_in_src_is_named_outside_the_tests():
    """Every top-level function and public method of src/relspin is named
    by the package, its scripts or perfbench (a tracer layer's path
    counts), exported by relspin, or kept on purpose in KEPT_UNNAMED: a
    function that only the tests call is not what runs.  A method counts
    as named where an attribute of its name is read; a function also
    where its name is loaded or imported."""
    attributes, plain = _named()
    exported = _exported()
    definitions = _definitions()
    unnamed = sorted((stem, name) for stem, name, method in definitions
                     if name.split(".")[-1] not in attributes
                     and (method or name not in plain) and name not in exported
                     and (stem, name) not in KEPT_UNNAMED)
    assert not unnamed
    assert set(KEPT_UNNAMED) <= {(stem, name) for stem, name, _ in definitions}
