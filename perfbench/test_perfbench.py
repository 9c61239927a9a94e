"""Tests of the benchmark's gates and tracer, including negative controls.

    python3 -m pytest perfbench -q

Each gate must accept the program's real output and reject a known
defect: a g-weighted precession reference, the defective transcribed
energy row, a changed byte in a repeated CLI output, and wrong values
in the JSON reports of the brackets, expand and spectrum commands.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import wl_brackets  # noqa: E402
import wl_cli  # noqa: E402
import wl_orbit  # noqa: E402
from relspin import brackets, dynamics, expansion, phase  # noqa: E402


@pytest.fixture(scope="module")
def orbit_results():
    orbits = wl_orbit.build(3)
    return [wl_orbit.run(orbits, i) for i in range(5)]


def test_orbit_gate_accepts_g_minus_one(orbit_results):
    for i, res in enumerate(orbit_results):
        assert wl_orbit.check(None, i, res, None) is None
    assert wl_orbit.check_all(None, orbit_results) is None


def test_orbit_gate_rejects_g_weighted_reference(orbit_results):
    problem = wl_orbit.check_all(None, orbit_results, reference=lambda g: g)
    assert problem is not None and "g = 2" in problem


def test_orbit_gate_rejects_drift(orbit_results):
    res = dict(orbit_results[0], energy_drift=1e-6)
    assert wl_orbit.check(None, 0, res, None) is not None


def test_bracket_gate_accepts_resolved_forms():
    items = wl_brackets.build(0)
    for i in range(2):   # one coulomb and one crossed state
        assert wl_brackets.check(items, i, wl_brackets.run(items, i),
                                 None) is None


def test_bracket_gate_rejects_transcribed_energy_row(monkeypatch):
    original = brackets.aux_table_entries

    def defective(z, model, energy_row_variant="resolved"):
        return original(z, model, "transcribed")

    monkeypatch.setattr(brackets, "aux_table_entries", defective)
    items = wl_brackets.build(0)
    for i in range(2):
        problem = wl_brackets.check(items, i, wl_brackets.run(items, i), None)
        assert problem is not None and "aux table" in problem


@pytest.fixture(scope="module")
def simulate_result():
    commands = wl_cli.build(0)
    return commands, wl_cli.run(commands, 0)


def test_cli_gate_accepts_repeat(simulate_result):
    commands, res = simulate_result
    assert wl_cli.check(commands, 0, res, None) is None
    assert wl_cli.check(commands, 1, dict(res), res) is None


def test_cli_gate_rejects_changed_byte(simulate_result):
    commands, res = simulate_result
    out = bytearray(res["out"])
    k = out.rindex(b"e-")   # a digit of the last exponent
    out[k + 2] = ord("7") if out[k + 2] != ord("7") else ord("8")
    changed = dict(res, out=bytes(out))
    problem = wl_cli.check(commands, 1, changed, res)
    assert problem is not None and "different bytes" in problem


def test_cli_gate_rejects_unparseable_output(simulate_result):
    commands, res = simulate_result
    broken = dict(res, out=res["out"].replace(b",", b";", 1))
    assert wl_cli.check(commands, 0, broken, None) is not None


@pytest.fixture(scope="module")
def json_results():
    """command -> (item index, result) of one brackets, expand and
    spectrum process each."""
    commands = wl_cli.build(0)
    firsts = {}
    for i, (name, _) in enumerate(commands):
        if name in ("brackets", "expand", "spectrum"):
            firsts.setdefault(name, i)
    return commands, {name: (i, wl_cli.run(commands, i))
                      for name, i in firsts.items()}


def _with_report(res, edit):
    report = json.loads(res["out"])
    edit(report)
    return dict(res, out=json.dumps(report).encode())


def test_cli_gate_accepts_json_reports(json_results):
    commands, results = json_results
    for i, res in results.values():
        assert wl_cli.check(commands, i, res, None) is None


def _set_decreasing_false(report):
    report["ladder"]["PS"]["decreasing"] = False


def _shift_level(report):
    report["levels"][3]["total"] *= 1.0 + 1e-6


@pytest.mark.parametrize("name, edit, words", [
    ("brackets", lambda r: r.update(defining_property_max=1e-3),
     "defining property"),
    ("brackets", lambda r: r["closed_vs_direct_max_rel"].update(SS=1e-6),
     "closed vs direct"),
    ("brackets", lambda r: r["aux_table"]["resolved_max_dev"].update(
        {"{T3,P0}": 1e-6}), "aux table"),
    ("expand", _set_decreasing_false, "does not decrease"),
    ("spectrum", _shift_level, "Sommerfeld"),
    ("spectrum", lambda r: r["summary"].update(
        p_splitting_n2=r["summary"]["p_splitting_n2_bare_g"]), "splitting"),
])
def test_cli_gate_rejects_wrong_values(json_results, name, edit, words):
    commands, results = json_results
    i, res = results[name]
    problem = wl_cli.check(commands, i, _with_report(res, edit), None)
    assert problem is not None and words in problem


def test_failed_ensemble_gate_fails_its_items():
    loop = {"errors": ["item 1: energy drift"], "results": [{}, {}, {}],
            "run_error": "slope of rate/base against g is 1.5"}
    assert run.failed_items(loop) == 4
    assert run.failed_items(dict(loop, run_error=None)) == 1


def test_tracer_patches_every_alias_and_restores():
    original = phase.field_data
    with tracer.Tracer() as tr:
        for mod in (phase, dynamics, brackets, expansion):
            assert mod.field_data is not original
            assert mod.field_data.__wrapped__ is original
        orbits = wl_orbit.build(0)
        dynamics.integrate(orbits[0][1], orbits[0][2], 1.0, 0.25)
    for mod in (phase, dynamics, brackets, expansion):
        assert mod.field_data is original
    assert tr.calls["dynamics.dirac_rhs"] == 16
    assert tr.calls["fields.field_data"] > 16
    m = tr.metrics()
    assert m["dynamics.integrate.self_s"][0] < m["dynamics.integrate.calls"][0] * (
        m["dynamics.integrate.us_per_call"][0] * 1e-6)


def test_tracer_omits_missing_layer(monkeypatch):
    layers = dict(tracer.LAYERS, **{"dynamics.gone": (("relspin.dynamics",),
                                                      "no_such_function")})
    monkeypatch.setattr(tracer, "LAYERS", layers)
    with tracer.Tracer() as tr:
        pass
    assert "dynamics.gone" not in tr.layers
    assert not any(k.startswith("dynamics.gone") for k in tr.metrics())


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 100)]) == (99.0, 100.0, False)
    value, pct, defined = run.tail([float(v) for v in range(1, 101)])
    assert (value, pct, defined) == (90.0, 90.0, True)
