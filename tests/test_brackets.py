"""Dirac bracket engine.

Two independent routes are compared throughout: the direct bracket
(Poisson bracket plus the second-class correction, assembled only from
exact observable gradients) is the frozen oracle; the closed-form
coefficient expressions are the implementation under test.  The direct
route was written and pinned first, the closed forms were reconciled
against it afterwards.
"""

import dataclasses
import inspect
import textwrap

import numpy as np
import pytest

from relspin import brackets, dynamics, expansion, fields, minkowski, phase
from relspin.brackets import (CLOSED_FAMILIES, ROW_OBSERVABLES,
                              aux_table_entries, aux_table_oracle,
                              aux_table_report, closed_brackets,
                              closed_vs_direct_report,
                              defining_property_report, dirac_bracket,
                              dirac_core, dirac_coefficients, row_gradients,
                              t3t4_closed)
from relspin.phase import Model, PhaseState, init_state, spin_tensor, symplectic

import oracles
from conftest import (BACKGROUND_PARAMS, KERNEL_BACKGROUNDS, LINEAR_FIELD, build_model,
                      kernel_model, state_batch)
from oracles import PHYSICAL_ORACLES, ROW_ORACLES, obs_coord, obs_hamiltonian, obs_spin

ALL_KINDS = sorted(BACKGROUND_PARAMS)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_defining_property(kind):
    """{T3, X}_D = {T4, X}_D = 0 for every observable X: the bracket
    must kill the second-class pair identically, not just on average."""
    model = build_model(kind, g=2.3)
    states = state_batch(model, 8, seed=21)
    assert defining_property_report(states, model) < 1e-10


@pytest.mark.parametrize("kind", ["zero", "coulomb", "crossed"])
def test_defining_property_reads_rounding_at_any_c(kind, monkeypatch):
    """The measure is |{T_a, X}_D| relative to 1 + |{T_a, X}|: the
    canonical bracket sets the size of the rounding, which grows with c.
    The absolute |{T_a, X}_D| read 4e4 at c = 1e20 (3.7e-6 at 1e10), past
    the 1e-10 bound on working code.  Negative control: with the sign of
    the second-class correction in DiracCore.flow flipped, the report
    reads O(1) at every c."""
    flow = brackets.DiracCore.flow
    for c in (10.0, 1e10, 1e20):
        model = build_model(kind, c=c)
        states = state_batch(model, 4, seed=3)
        assert defining_property_report(states, model) < 1e-10, c
        with monkeypatch.context() as mp:
            mp.setattr(brackets.DiracCore, "flow",
                       lambda core, G: 2.0 * (G @ phase.J.T) - flow(core, G))
            assert defining_property_report(states, model) > 0.5, c


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_closed_forms_match_oracle(kind):
    model = build_model(kind, g=2.3)
    states = state_batch(model, 8, seed=22)
    rep = closed_vs_direct_report(states, model)
    for fam, dev in rep.items():
        assert dev < 1e-8, (fam, dev)


def test_bracket_antisymmetry_and_leibniz_spots():
    model = build_model("coulomb", g=2.1)
    z = state_batch(model, 1, seed=4)[0]
    core = dirac_core(z, model)
    x2 = obs_coord("x", 2)
    H = obs_hamiltonian()
    s13 = obs_spin(1, 3)
    assert np.isclose(dirac_bracket(x2, H, core, model),
                      -dirac_bracket(H, x2, core, model), rtol=1e-12)
    assert abs(dirac_bracket(s13, s13, core, model)) < 1e-14


def test_dirac_bracket_reads_the_state_of_its_core():
    """dirac_bracket pairs two observables at core.z: at each of two
    states it reads the entry of that state's G flow(G)^T, and the two
    differ, so a core is never paired with another state's gradients."""
    model = build_model("coulomb", g=2.3)
    x1, x2 = obs_coord("x", 1), obs_coord("x", 2)
    a, b = ROW_OBSERVABLES.index(("x", 1)), ROW_OBSERVABLES.index(("x", 2))
    values = []
    for z in state_batch(model, 2, seed=0):
        core = dirac_core(z, model)
        G = row_gradients(core, model)
        values.append(dirac_bracket(x1, x2, core, model))
        assert np.isclose(values[-1], (G @ core.flow(G).T)[a, b], rtol=1e-12, atol=0.0)
    assert not np.isclose(*values)


@pytest.mark.parametrize("spinless", [False, True], ids=["spin", "spinless"])
@pytest.mark.parametrize("name", sorted(KERNEL_BACKGROUNDS))
def test_row_gradients_match_the_oracle_factories(name, spinless):
    """row_gradients, read from one dirac_core, is the stack of the oracle
    observables' gradients, each evaluating the fields on its own, row by
    row and bit for bit, signed zeros included."""
    model = kernel_model(name, spinless)
    for z in state_batch(model, 6, seed=19):
        G = row_gradients(dirac_core(z, model), model)
        assert G.shape == (len(ROW_OBSERVABLES) + 1, 16) == (22, 16)
        for row, ob in zip(G, ROW_ORACLES, strict=True):
            assert row.tobytes() == ob.grad(z, model).tobytes(), ob.name


def _direct_physical(z, model):
    """G flow(G)^T over the oracle's physical rows."""
    core = dirac_core(z, model)
    G = np.array([ob.grad(z, model) for ob in PHYSICAL_ORACLES])
    return G @ core.flow(G).T


def test_closed_matrix_matches_oracle_in_every_block():
    # the mirrored blocks below the diagonal come from antisymmetry
    model = build_model("coulomb", g=2.3)
    for z in state_batch(model, 2, seed=22):
        D = _direct_physical(z, model)
        core = dirac_core(z, model)
        C = closed_brackets(core, dirac_coefficients(core, model), model)
        assert C.shape == (12, 12)
        assert np.max(np.abs(C - D) / (1.0 + np.abs(D))) < 1e-8


@pytest.mark.parametrize("kind", ["coulomb", "crossed", "uniform-B"])
def test_flipped_l_sign_fails_the_oracle(kind):
    """Negative control: with L -> -L the spin-position and spin-spin
    blocks leave the direct oracle over a batch, so the comparison sees
    the sign of the L term."""
    model = build_model(kind, g=2.3)
    worst = dict.fromkeys(("Sx", "SS"), 0.0)
    for z in state_batch(model, 8, seed=22):
        core = dirac_core(z, model)
        coef = dirac_coefficients(core, model)
        flipped = dataclasses.replace(coef, L=-coef.L)
        D = _direct_physical(z, model)
        rel = np.abs(closed_brackets(core, flipped, model) - D) / (1.0 + np.abs(D))
        for fam in worst:
            worst[fam] = max(worst[fam], rel[CLOSED_FAMILIES[fam]].max())
    assert min(worst.values()) > 1e-6, worst


@pytest.fixture(scope="module")
def linear():
    """A model on oracles.linear_background at g = 2.3 and four states."""
    model = Model(background=oracles.linear_background(**LINEAR_FIELD), g=2.3)
    return model, state_batch(model, 4, seed=23)


def _kernel_copy(term=None):
    """phase._kernel compiled afresh from its source, with the + before
    term, which occurs once there, flipped to -."""
    source = textwrap.dedent(inspect.getsource(phase._kernel))
    if term is not None:
        assert source.count(term) == 1, term
        source = source.replace(term, "- " + term[2:])
    namespace = dict(vars(phase))
    exec(compile(source, phase.__file__, "exec"), namespace)
    return namespace["_kernel"]


def test_bracket_reports_hold_on_a_linear_background(linear, monkeypatch):
    """The three reports at their tolerances on a field with a gradient in
    every slot; the kernel compiled afresh from its source gives the same
    bits, so the sign flips below differ from it by their flip alone."""
    model, states = linear
    assert defining_property_report(states, model) < 1e-10
    assert max(aux_table_report(states, model)["resolved_max_dev"].values()) < 1e-12
    rep = closed_vs_direct_report(states, model)
    assert max(rep.values()) < 1e-8, rep
    monkeypatch.setattr(brackets, "_kernel", _kernel_copy())
    assert closed_vs_direct_report(states, model) == rep


# the sign flips in phase._kernel that no catalog background sees: the
# magnetic-gradient terms dF^{13} and dF^{23} of fs1..fs3, and the
# diagonal d_i A^i (a22, a33) in the x-block of g0, ex3 and ex4
KERNEL_SIGN_FLIPS = ("+ u13 * s13", "+ u23 * s23", "+ v13 * s13", "+ v23 * s23",
                     "+ y13 * s13", "+ y23 * s23", "+ P2 * a22", "+ P3 * a33",
                     "+ w2 * a22", "+ w3 * a33", "+ q2 * a22", "+ q3 * a33")


@pytest.mark.parametrize("term", KERNEL_SIGN_FLIPS)
def test_kernel_sign_flip_misses_the_oracle_on_a_linear_background(term, linear, monkeypatch):
    """Negative control: with one of these signs flipped in the kernel
    that dirac_core reads, the direct route leaves the closed forms,
    which read the fields themselves, on the linear background."""
    model, states = linear
    monkeypatch.setattr(brackets, "_kernel", _kernel_copy(term))
    rep = closed_vs_direct_report(states, model)
    assert max(rep.values()) > 1e-8, rep


def test_ss_closed_form_antisymmetry():
    # swapping the index pairs must flip the sign; this is what pinned
    # down the mirrored L-term in the spin-spin closed form
    model = build_model("crossed", g=2.6)
    z = state_batch(model, 1, seed=8)[0]
    core = dirac_core(z, model)
    SS = closed_brackets(core, dirac_coefficients(core, model), model)[CLOSED_FAMILIES["SS"]]
    assert np.allclose(SS, -SS.T, atol=1e-13)


def test_t3t4_closed_form():
    for kind in ALL_KINDS:
        model = build_model(kind, g=2.3)
        for z in state_batch(model, 4, seed=17):
            core = dirac_core(z, model)
            coef = dirac_coefficients(core, model)
            assert np.isclose(t3t4_closed(core, coef, model), core.t34,
                              rtol=1e-10)


REPORTS = (defining_property_report, closed_vs_direct_report, aux_table_report)


@pytest.mark.parametrize("report", REPORTS, ids=lambda r: r.__name__)
def test_reports_refuse_an_empty_batch(report):
    """No state gives all-zero maxima, which would read as a perfect
    verification; every report refuses it."""
    model = build_model("coulomb", g=2.3)
    with pytest.raises(ValueError, match="no state given"):
        report([], model)
    with pytest.raises(ValueError, match="no state given"):
        report(iter(()), model)


# the values of each report that must read NaN when one state's deviation is NaN
NAN_READS = {
    defining_property_report: lambda rep: [rep],
    closed_vs_direct_report: lambda rep: [rep[fam] for fam in CLOSED_FAMILIES],
    aux_table_report: lambda rep: list(rep["resolved_max_dev"].values()),
}


@pytest.mark.parametrize("report", REPORTS, ids=lambda r: r.__name__)
def test_nan_deviation_does_not_read_as_agreement(report, monkeypatch):
    """With the gradients of the last of three states NaN, each report
    reads NaN in every family, every resolved group or its defining
    maximum: the reduction over states keeps a NaN after two numbers,
    where Python's max would drop it."""
    model = build_model("coulomb", g=2.3)
    states = state_batch(model, 3, seed=22)
    original = brackets.row_gradients
    monkeypatch.setattr(brackets, "row_gradients", lambda core, model: (
        original(core, model) * (np.nan if core.z is states[-1] else 1.0)))
    values = NAN_READS[report](report(states, model))
    assert values and all(np.isnan(values)), values


@pytest.fixture
def evaluations(monkeypatch):
    """Calls of field_data and phase._kernel, and the arrays that
    minkowski.field_tensor builds, F of six floats, dF stacks of four
    rows and the ladder's spin tensors of the 16 columns of its six
    S^{ij} gradient rows ("S rows"), wrapped in every module that binds
    them by name, with the count paused inside expansion's init_state: a
    ladder rung's state is built before it is read."""
    calls = dict.fromkeys(("field_data", "_kernel", "F", "dF", "S rows"), 0)
    paused = [0]
    arrays = {(6,): "F", (4, 6): "dF", (16, 6): "S rows"}

    def counting(name, fn):
        def counted(*args, **kwargs):
            key = arrays[np.shape(args[0])] if name == "field_tensor" else name
            calls[key] += not paused[0]
            return fn(*args, **kwargs)
        return counted

    def pausing(fn):
        def quiet(*args, **kwargs):
            paused[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                paused[0] -= 1
        return quiet

    for mod in (fields, minkowski, phase, brackets, expansion, dynamics):
        for name in ("field_data", "field_tensor", "_kernel"):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counting(name, vars(mod)[name]))
    monkeypatch.setattr(expansion, "init_state", pausing(expansion.init_state))
    return calls


@pytest.mark.parametrize("report", REPORTS, ids=lambda r: r.__name__)
@pytest.mark.parametrize("kind", ["coulomb", "crossed"])
def test_reports_evaluate_each_state_once(kind, report, evaluations):
    """One field evaluation, one kernel call and at most one F and one
    dF stack per state, the gradients included: the closed forms, both
    auxiliary tables, the oracle and row_gradients read the state's
    dirac_core, which builds its arrays once."""
    model = build_model(kind, g=2.3)
    states = state_batch(model, 3, seed=40)
    evaluations.update(dict.fromkeys(evaluations, 0))   # the batch is built aside
    report(states, model)
    assert evaluations["field_data"] == evaluations["_kernel"] == 3, evaluations
    assert evaluations["F"] <= 3 and evaluations["dF"] <= 3, evaluations


@pytest.mark.parametrize("kind", ["coulomb", "crossed"])
def test_defining_property_report_builds_no_field_tensor(kind, evaluations):
    """The direct route reads the rows and the gradient matrix only: a
    core builds its field arrays on first read, and this report reads none."""
    model = build_model(kind, g=2.3)
    states = state_batch(model, 3, seed=40)
    evaluations.update(dict.fromkeys(evaluations, 0))
    defining_property_report(states, model)
    assert evaluations == {"field_data": 3, "_kernel": 3, "F": 0, "dF": 0, "S rows": 0}


def test_ladder_evaluates_each_rung_once(evaluations):
    """The same per rung of bracket_ladder, its state built aside, the
    gradients included; the ladder reads the field tuples and builds no
    field array."""
    expansion.bracket_ladder("coulomb", cs=(10.0, 20.0, 40.0))
    assert evaluations == {"field_data": 3, "_kernel": 3, "F": 0, "dF": 0, "S rows": 3}


# ---------------------------------------------------------------------------
# auxiliary bracket table and its adjudication


def test_aux_table_resolved_rows():
    model = build_model("coulomb", g=2.3)
    states = state_batch(model, 6, seed=30)
    rep = aux_table_report(states, model)
    worst = max(rep["resolved_max_dev"].values())
    assert worst < 1e-12, rep["resolved_max_dev"]


def test_aux_table_energy_row_defect_is_visible():
    """The energy-row coefficients as printed, (g/8, mu-like g/2), are
    not reproducible from the generating constraints; the resolved row
    carries (g/4, g).  In any background with field gradients or an
    electric component the printed variant must deviate visibly, else
    the adjudication would be untestable."""
    model = build_model("coulomb", g=2.3)
    states = state_batch(model, 6, seed=30)
    rep = aux_table_report(states, model)
    assert rep["transcribed_energy_row_max_dev"] > 1e-3
    assert rep["energy_row_coefficients"] == {"gradient_term": "g/4",
                                              "dipole_term": "g"}


def test_aux_report_sees_the_transcribed_row_in_the_resolved_slot(monkeypatch):
    """Negative control: with the transcribed energy row served for
    either variant, the report's resolved deviation is the defect's."""
    model = build_model("coulomb", g=2.3)
    original = brackets.aux_table_entries
    monkeypatch.setattr(brackets, "aux_table_entries",
                        lambda core, model, variant="resolved":
                        original(core, model, "transcribed"))
    rep = aux_table_report(state_batch(model, 2, seed=30), model)
    assert max(rep["resolved_max_dev"].values()) > 1e-3


def test_aux_table_variants_agree_without_fields():
    # with F = 0 both variants collapse to the same numbers
    model = build_model("zero", g=2.3)
    z = state_batch(model, 1, seed=31)[0]
    core = dirac_core(z, model)
    res = aux_table_entries(core, model, "resolved")
    tra = aux_table_entries(core, model, "transcribed")
    orc = aux_table_oracle(core, model)
    assert res.shape == orc.shape == (3, 21)
    assert np.allclose(res, tra, atol=1e-14)
    assert np.allclose(res, orc, atol=1e-12)


def test_aux_table_rejects_unknown_variant():
    model = build_model("zero", g=2.3)
    z = state_batch(model, 1, seed=31)[0]
    with pytest.raises(ValueError):
        aux_table_entries(dirac_core(z, model), model, "printed")


# ---------------------------------------------------------------------------
# free-theory noncommutative position


def test_free_position_bracket_at_rest():
    """At rest the quoted form S^{ij} / (2 m c P^0) is exact; with
    alpha = 3/4 and the spin along x3 the 12-component is sqrt(3)/200
    at m = 1, c = 10."""
    model = build_model("zero", g=2.0, alpha=0.75)
    z = init_state(model, x3=(0.3, -0.2, 0.5), P3=(0, 0, 0),
                   spin_dir=(0, 0, 1.0))
    core = dirac_core(z, model)
    S = spin_tensor(z.w, z.pi)
    xs = {i: obs_coord("x", i) for i in (1, 2, 3)}
    P0 = model.m * model.c
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            direct = dirac_bracket(xs[i], xs[j], core, model)
            assert abs(direct - S[i, j] / (2 * model.m * model.c * P0)) < 1e-10
    d12 = dirac_bracket(xs[1], xs[2], core, model)
    assert abs(d12 - np.sqrt(3) / 200.0) < 1e-12


def test_free_position_bracket_boost_correction():
    """Away from rest the exact free bracket is Delta^{ij}/2, which
    adds P^{[i} S^{0 j]} pieces to the quoted S^{ij}/(2 m c P^0); the
    deviation grows like beta^2 and is a property of the model, not a
    numerical error."""
    model = build_model("zero", g=2.0, alpha=0.75)
    xs = {i: obs_coord("x", i) for i in (1, 2, 3)}
    devs = []
    for beta in (0.01, 0.02, 0.04):
        p = beta * model.m * model.c
        z = init_state(model, x3=(0, 0, 0), P3=(p, 0, 0), spin_dir=(0, 1, 0))
        core = dirac_core(z, model)
        S = spin_tensor(z.w, z.pi)
        P0 = np.sqrt(p**2 + (model.m * model.c) ** 2)
        worst_quoted = 0.0
        worst_exact = 0.0
        closed = closed_brackets(core, dirac_coefficients(core, model), model)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                direct = dirac_bracket(xs[i], xs[j], core, model)
                worst_quoted = max(worst_quoted,
                                   abs(direct - S[i, j] / (2 * model.m * model.c * P0)))
                worst_exact = max(worst_exact,
                                  abs(direct - closed[i - 1, j - 1]))
        assert worst_exact < 1e-14
        devs.append(worst_quoted)
    # quadratic growth: doubling beta quadruples the deviation
    assert devs[1] / devs[0] == pytest.approx(4.0, rel=0.05)
    assert devs[2] / devs[1] == pytest.approx(4.0, rel=0.05)


def test_spinless_states_reduce_to_canonical():
    # omega = pi = 0: {x,P}=delta, {x,x}={P,P}=0 up to the field term
    model = build_model("uniform-B", g=2.0)
    z0 = init_state(model, x3=(1.0, 0.5, -0.3), P3=(0.4, -0.2, 0.6),
                    spin_dir=(0, 0, 1))
    vec = z0.vec.copy()
    vec[8:16] = 0.0
    z = PhaseState(vec=vec)
    core = dirac_core(z, model)
    C = closed_brackets(core, dirac_coefficients(core, model), model)
    xx, xP, PP = (C[CLOSED_FAMILIES[fam]] for fam in ("xx", "xP", "PP"))
    assert np.all(np.abs(xx) < 1e-15)
    assert np.allclose(xP, np.eye(3), atol=1e-14)
    assert np.allclose(PP, model.e / model.c * core.F_low[1:, 1:], atol=1e-14)


# ---------------------------------------------------------------------------
# the flow kernel against the three-application form of tests/oracles.py

def _flow_deviation(kind, spinless=False):
    """Largest relative deviation of DiracCore.flow from the oracle form,
    over one gradient and a (12, 16) stack per state."""
    model = build_model(kind, g=2.3)
    states = state_batch(model, 4, seed=23)
    if spinless:
        states = [PhaseState(vec=np.concatenate([z.vec[:8], np.zeros(8)]))
                  for z in states]
    worst = 0.0
    for z in states:
        core = dirac_core(z, model)
        gh = obs_hamiltonian().grad(z, model)
        stack = np.array([ob.grad(z, model) for ob in PHYSICAL_ORACLES])
        for G in (gh, stack):
            got = core.flow(G)
            want = oracles.flow(*core.R[1:], G)
            assert got.shape == want.shape == G.shape
            worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return worst


@pytest.mark.parametrize("spinless", [False, True], ids=["spin", "spinless"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_flow_matches_three_application_form(kind, spinless):
    """J applied once to grad B, with J grad T3 and J grad T4 stored in
    the core, gives the flow of the block-by-block form.  The right-hand
    side's pairing form is pinned to the same oracle in test_dynamics."""
    assert _flow_deviation(kind, spinless) <= 1e-15


@pytest.mark.parametrize("kind", ["coulomb", "crossed"])
def test_flow_with_transposed_symplectic_matrix_fails(kind, monkeypatch):
    """Negative control: J^T = -J in place of J, as the matrix applied to
    grad B and as the signed permutation applied to grad T3 and grad T4,
    flips the flow."""
    monkeypatch.setattr(brackets, "J", brackets.J.T)
    monkeypatch.setattr(brackets, "symplectic",
                        lambda v: [-u for u in symplectic(v)])
    assert _flow_deviation(kind) > 1.0
