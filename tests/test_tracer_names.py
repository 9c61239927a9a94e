"""The names perfbench's span tracer reads in the package still resolve.

perfbench/tracer.py wraps each layer of its LAYERS table by module and
attribute path, and leaves out, without a word, a layer that no longer
resolves; a refactor that renames or moves a traced function would so
drop its per-layer metrics.  The tracer is loaded here from its file,
read only, and each of its names is resolved as the tracer resolves it.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("name", sorted(tracer.LAYERS))
def test_every_traced_layer_resolves(name):
    modules, path = tracer.LAYERS[name]
    assert tracer._resolve(modules, path) is not None, (name, modules, path)


def test_the_projection_hook_resolves():
    """The CONVERGED layer's hook reads phase.constraint_residuals."""
    assert tracer.CONVERGED in tracer.LAYERS
    found = tracer._resolve(("relspin.phase",), "constraint_residuals")
    assert found is not None and callable(found[2])
