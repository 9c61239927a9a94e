"""Relativistic spinning particle in stationary electromagnetic fields.

Phase space with inner degrees of freedom (omega, pi), second-class
constraint pair eliminated by Dirac brackets, trajectory integration,
low-energy expansion, and the Pauli-level operator realization.

The names below are imported from their modules on first read (PEP 562),
so importing the package, or one module of it, loads nothing else.
"""

from importlib import import_module

# exported name -> the module that defines it
_EXPORTS = {
    "FieldBackground": "fields",
    "make_background": "fields",
    "Model": "phase",
    "PhaseState": "phase",
    "init_state": "phase",
    "random_constrained_state": "phase",
    "dirac_bracket": "brackets",
    "dirac_core": "brackets",
    "defining_property_report": "brackets",
    "closed_vs_direct_report": "brackets",
    "Trajectory": "dynamics",
    "integrate": "dynamics",
    "project_state": "dynamics",
    "HydrogenModel": "hydrogen",
    "fine_structure_table": "hydrogen",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
