"""Backgrounds must supply exact analytic derivatives; everything else
in the package chain-rules through them, so A/dA/F/dF are pinned against
central finite differences here."""

import re
from fractions import Fraction

import numpy as np
import pytest

from relspin.fields import KINDS, PARAMETERS, make_background
from relspin.minkowski import ETA_DIAG

import oracles
from conftest import LINEAR_FIELD
from oracles import FieldArrays, extract_EB, linear_background, with_gauge_shift

PARAMS = {
    "zero": {},
    "uniform-E": {"E": (0.3, -0.1, 0.2)},
    "uniform-B": {"B": (0.1, 0.4, -0.3)},
    "crossed": {"E": (0.2, 0.0, 0.1), "B": (0.0, 0.0, 1.0)},
    "coulomb": {"q": 1.3},
}

POINTS = [
    np.array([0.0, 1.6, -0.8, 1.1]),
    np.array([2.0, 0.4, 0.9, -1.7]),
    np.array([-1.0, -0.6, 1.2, 0.5]),
]


def _field(bg, name):
    """x -> the array name (A, dA, F or dF) of bg at the array point x,
    read through the arrays of an evaluation, oracles.FieldArrays."""
    return lambda x: getattr(FieldArrays(bg.at(x.tolist())), name)


def _fd_grad(fn, x, h=1e-6):
    """d fn / d x^nu by central differences, nu = 0..3."""
    cols = []
    for nu in range(4):
        xp, xm = x.copy(), x.copy()
        xp[nu] += h
        xm[nu] -= h
        cols.append((np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2 * h))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("kind", KINDS)
def test_dA_matches_finite_differences(kind):
    bg = make_background(kind, e=1.0, c=10.0, **PARAMS[kind])
    for x in POINTS:
        assert np.allclose(_field(bg, "dA")(x), _fd_grad(_field(bg, "A"), x), atol=1e-8)


@pytest.mark.parametrize("kind", KINDS)
def test_dF_matches_finite_differences(kind):
    bg = make_background(kind, e=1.0, c=10.0, **PARAMS[kind])
    for x in POINTS:
        fd = np.moveaxis(_fd_grad(_field(bg, "F"), x), -1, 0)  # -> dF[lam, mu, nu]
        assert np.allclose(_field(bg, "dF")(x), fd, atol=1e-7)


@pytest.mark.parametrize("kind", KINDS)
def test_F_from_potential(kind):
    # F^{mu nu} must be the curl of A: F_{mu nu} = d_mu A_nu - d_nu A_mu
    bg = make_background(kind, e=1.0, c=10.0, **PARAMS[kind])
    for x in POINTS:
        dA = _field(bg, "dA")(x)  # dA[mu, nu] = d_nu A^mu
        dA_low = ETA_DIAG[:, None] * dA  # d_nu A_mu
        F_low = dA_low.T - dA_low
        F_up = ETA_DIAG[:, None] * F_low * ETA_DIAG[None, :]
        assert np.allclose(_field(bg, "F")(x), F_up, atol=1e-12)


def test_linear_background_matches_finite_differences():
    """The test-side linear background, the one with magnetic gradients
    and a nonzero d_i A^i: dA and dF match central differences of A and
    F, F is the curl of A, and E and B are E0 + K x and B0 + G x."""
    bg = linear_background(**LINEAR_FIELD)
    K, G = np.array(LINEAR_FIELD["K"]), np.array(LINEAR_FIELD["G"])
    for x in POINTS:
        view = FieldArrays(bg.at(x.tolist()))
        assert np.allclose(view.dA, _fd_grad(_field(bg, "A"), x), atol=1e-8)
        assert np.allclose(view.dF, np.moveaxis(_fd_grad(_field(bg, "F"), x), -1, 0),
                           atol=1e-8)
        dA_low = ETA_DIAG[:, None] * view.dA   # d_nu A_mu
        assert np.allclose(view.F_low, dA_low.T - dA_low, atol=1e-12)
        E, B = extract_EB(view.F)
        assert np.allclose(E, LINEAR_FIELD["E0"] + K @ x[1:], atol=1e-15)
        assert np.allclose(B, LINEAR_FIELD["B0"] + G @ x[1:], atol=1e-15)
        _, dA, _, dF = bg.at(x.tolist())   # every d_i A^i and every slot of dF nonzero
        assert all(dA[i][i - 1] for i in (1, 2, 3)) and all(map(all, dF))


def _shifted(bg):
    """bg with the static gauge shift chi = 0.3 x1 x2 + 0.2 x3^2."""
    return with_gauge_shift(
        bg,
        lambda x: np.array([0.3 * x[2], 0.3 * x[1], 0.4 * x[3]]),
        lambda x: np.array([[0.0, 0.3, 0.0], [0.3, 0.0, 0.0], [0.0, 0.0, 0.4]]),
    )


@pytest.mark.parametrize("kind", KINDS)
def test_stationarity_and_antisymmetry(kind):
    """No field depends on x^0, and F is antisymmetric: in the arrays of
    every catalog kind, and of each under a static gauge shift, the x^0
    column of dA and all of dF[0] are 0.0, and F and each dF[lam] are
    antisymmetric in their last two indices, exactly.  The layout of
    at(x) holds neither the x^0 derivatives nor the entries on and below
    the diagonal, and the kernel, which reads that layout, writes no x^0
    derivative."""
    bg = make_background(kind, e=1.0, c=10.0, **PARAMS[kind])
    for b in (bg, _shifted(bg)):
        for x in POINTS:
            view = FieldArrays(b.at(x.tolist()))
            dA, F, dF = view.dA, view.F, view.dF
            assert np.all(dA[:, 0] == 0.0)
            assert np.all(dF[0] == 0.0)
            assert np.array_equal(F, -F.T)
            assert np.array_equal(dF, -dF.transpose(0, 2, 1))


def test_uniform_layout():
    E = (0.3, -0.1, 0.2)
    B = (0.0, 0.5, -1.0)
    bg = make_background("crossed", E=E, B=B)
    E2, B2 = extract_EB(_field(bg, "F")(POINTS[0]))
    assert np.allclose(E2, E) and np.allclose(B2, B)
    # A^0 = -E.x reproduces E_i = -d_i A^0
    x = POINTS[1]
    assert np.isclose(_field(bg, "A")(x)[0], -np.dot(E, x[1:]))


@pytest.mark.parametrize("kind", ["uniform-E", "crossed"])
def test_uniform_a0_is_the_unfused_float_sum(kind):
    """A^0 = -E.x is the three rounded products added left to right, with
    no fused multiply-add, on every host: equal to that sum emulated
    exactly in fractions, and within the recursive-summation bound
    gamma_3 sum |E_i x_i| (unit roundoff u = 2^-53) of the exact -E.x.
    One ulp of -E.x is no bound: where the terms cancel, the rounding of
    the products alone exceeds it."""
    bg = make_background(kind, **PARAMS[kind])
    E = [Fraction(v) for v in PARAMS[kind]["E"]]
    u = Fraction(1, 2**53)
    gamma3 = 3 * u / (1 - 3 * u)
    rng = np.random.default_rng(19)
    for x in POINTS + list(rng.normal(scale=2.0, size=(200, 4))):
        terms = [e * Fraction(v) for e, v in zip(E, x[1:].tolist())]
        p1, p2, p3 = (Fraction(float(t)) for t in terms)
        unfused = Fraction(float(Fraction(float(p1 + p2)) + p3))
        a0 = Fraction(bg.at(x.tolist())[0][0])
        assert a0 == -unfused
        assert abs(a0 + sum(terms)) <= gamma3 * sum(abs(t) for t in terms)


def test_coulomb_field_shape():
    q = 1.3
    bg = make_background("coulomb", q=q)
    x = POINTS[0]
    r3 = x[1:]
    r = np.linalg.norm(r3)
    E, B = extract_EB(_field(bg, "F")(x))
    assert np.allclose(E, q * r3 / r**3)
    assert np.allclose(B, 0.0)
    assert np.isclose(_field(bg, "A")(x)[0], q / r)
    # divergence of E vanishes away from the source
    dF = _field(bg, "dF")(x)
    divE = sum(dF[i, 0, i] for i in (1, 2, 3))
    assert abs(divE) < 1e-12


def test_coulomb_center_guard():
    """An evaluation closer to the center than fields.R_MIN is refused,
    the center itself included."""
    bg = make_background("coulomb", q=1.0)
    for r in (0.0, 1e-7):
        with pytest.raises(ValueError, match=re.escape(f"r={r:.3e} < r_min=1.000e-06")):
            _field(bg, "A")(np.array([0.0, r, 0.0, 0.0]))


def test_missing_q_rejected():
    with pytest.raises(ValueError):
        make_background("coulomb")
    with pytest.raises(ValueError):
        make_background("nonsense")


@pytest.mark.parametrize("kind", KINDS)
def test_missing_and_foreign_parameters_are_refused_by_name(kind):
    """Every kind refuses each parameter left out and each parameter it
    does not take, naming it.  uniform-B with an E built a zero field,
    uniform-E without E built one too, and a misspelt Bz was dropped
    without a word.  r_min is a constant, fields.R_MIN, and a foreign
    parameter on every kind."""
    full = PARAMS[kind]
    for name in PARAMETERS[kind]:
        missing = f"{kind} background requires the parameter {name}$"
        with pytest.raises(ValueError, match=missing):
            make_background(kind, **{k: v for k, v in full.items() if k != name})
    foreign = ["Bz", *(n for n in ("E", "B", "q", "r_min") if n not in PARAMETERS[kind])]
    for name in foreign:
        with pytest.raises(ValueError, match=f"{kind} background takes no parameter {name};"):
            make_background(kind, **full, **{name: 1.0})
    make_background(kind, **full)


@pytest.mark.parametrize("kind, params, name", [
    ("uniform-E", {"E": (0.1, 0.2)}, "E"),
    ("crossed", {"E": (0.1, 0.0, 0.0), "B": 1.0}, "B"),
    ("coulomb", {"q": (1.0, 2.0)}, "q"),
])
def test_parameters_of_the_wrong_shape_are_refused_by_name(kind, params, name):
    with pytest.raises(ValueError, match=f"background parameter {name} must be finite, of shape"):
        make_background(kind, **params)


def test_gauge_shift_leaves_F():
    bg = make_background("uniform-B", B=(0.0, 0.0, 2.0))
    # chi = x1 * x2 -> dchi = (x2, x1, 0)
    shifted = with_gauge_shift(
        bg,
        lambda x: np.array([x[2], x[1], 0.0]),
        lambda x: np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    )
    for x in POINTS:
        assert np.allclose(_field(shifted, "F")(x), _field(bg, "F")(x))
        assert not np.allclose(_field(shifted, "A")(x), _field(bg, "A")(x))
        assert np.allclose(_field(shifted, "dA")(x), _fd_grad(_field(shifted, "A"), x), atol=1e-8)


def test_backgrounds_alive_at_once_keep_their_own_fields():
    """Two coulomb backgrounds with different q, and two uniform ones,
    evaluated in turn: each gives its own fields, and evaluating one
    leaves the arrays returned by the other untouched."""
    for kind, a, b in (("coulomb", {"q": 1.0}, {"q": -2.5}),
                       ("crossed", {"E": (0.2, 0.0, 0.1), "B": (0.0, 0.0, 1.0)},
                        {"E": (-0.5, 0.0, -0.25), "B": (0.0, 0.0, -2.5)})):
        bg_a, bg_b = make_background(kind, **a), make_background(kind, **b)
        for x in POINTS:
            first = bg_a.at(x)
            kept = [np.copy(t) for t in first]
            second = bg_b.at(x)
            for t_a, t_keep, t_b in zip(first, kept, second):
                assert np.array_equal(t_a, t_keep)
                assert np.allclose(t_b, -2.5 * np.asarray(t_a), rtol=1e-14, atol=1e-15)
            assert np.array_equal(bg_a.at(x)[2], kept[2])


def _reference_at(kind):
    """The numpy evaluator of tests/oracles.py for a PARAMS background."""
    if kind == "coulomb":
        return oracles.coulomb_at(PARAMS[kind]["q"], 1e-6)
    return oracles.uniform_at(PARAMS[kind].get("E", (0, 0, 0)), PARAMS[kind].get("B", (0, 0, 0)))


def _leaves(t):
    """The entries of nested tuples; anything else is a leaf."""
    return [v for u in t for v in _leaves(u)] if isinstance(t, tuple) else [t]


# r from a float sum and r from numpy's fused BLAS sum differ by up to one
# ulp, which moves r^-5 by up to five
COULOMB_RTOL = 2e-15


@pytest.mark.parametrize("kind", KINDS)
def test_evaluator_matches_the_numpy_reference(kind):
    """at(x) on four floats gives tuples of Python floats in the compact
    layout, A (4,), dA (4, 3), F (6,) and dF (3, 6), whose arrays equal
    the numpy evaluator: the uniform kinds exactly, coulomb to
    COULOMB_RTOL of each tensor's largest entry.  F and dF are the arrays
    of minkowski.field_tensor, the one writer of a field array in the
    package, and every zero it writes is +0.0."""
    bg = make_background(kind, e=1.0, c=10.0, **PARAMS[kind])
    ref = _reference_at(kind)
    rng = np.random.default_rng(17)
    for x in POINTS + list(rng.normal(scale=2.0, size=(200, 4))):
        got = bg.at(x.tolist())
        for t, shape in zip(got, ((4,), (4, 3), (6,), (3, 6))):
            assert np.shape(t) == shape
            assert all(type(v) is float for v in _leaves(t))
        view = FieldArrays(got)
        assert not np.signbit(view.F[view.F == 0.0]).any()
        assert not np.signbit(view.dF[view.dF == 0.0]).any()
        for t, want in zip((view.A, view.dA, view.F, view.dF), ref(x)):
            assert t.shape == want.shape
            if kind == "coulomb":
                assert np.max(np.abs(t - want)) <= COULOMB_RTOL * np.max(np.abs(want))
            else:
                assert np.array_equal(t, want)


# every uniform E and B the repository builds: the catalog presets of
# conftest and scripts/bracket_report.py, the expansion ladder and the
# bracket-sweep workload (crossed), configs/cyclotron.yaml and
# perfbench/configs/simulate_dense.yaml (B3 = 2), and the tests
REPO_UNIFORM_FIELDS = [
    ("uniform-E", {"E": (0.3, -0.1, 0.2)}),
    ("uniform-B", {"B": (0.1, 0.4, -0.3)}),
    ("crossed", {"E": (0.2, 0.0, 0.1), "B": (0.0, 0.0, 1.0)}),
    ("uniform-B", {"B": (0.35, -0.5, 0.3)}),
    ("crossed", {"E": (0.25, -0.3, 0.15), "B": (-0.4, 0.2, 0.55)}),
    ("crossed", {"E": (0.3, -0.1, 0.2), "B": (0.0, 0.5, -1.0)}),
    ("crossed", {"E": (-0.5, 0.0, -0.25), "B": (0.0, 0.0, -2.5)}),
    ("uniform-B", {"B": [0.0, 0.0, 2.0]}),
    *(("uniform-B", {"B": (0.0, 0.0, b)}) for b in (0.7, 1.0, 2.0)),
]


def _uniform_bits(kind, params, x):
    """(float.hex of every entry of at(x), the same of the tuples the array
    reference oracles.uniform_at gives at x): A, dA read off its x^i
    columns, F above the diagonal, and a zero dF."""
    got = make_background(kind, **params).at(x.tolist())
    A, dA, F, _ = oracles.uniform_at(params.get("E", (0.0,) * 3),
                                     params.get("B", (0.0,) * 3))(x)
    want = (tuple(A.tolist()), tuple(map(tuple, dA[:, 1:].tolist())),
            tuple(F[np.triu_indices(4, 1)].tolist()), ((0.0,) * 6,) * 3)
    return [v.hex() for v in _leaves(got)], [v.hex() for v in _leaves(want)]


@pytest.mark.parametrize("kind, params", REPO_UNIFORM_FIELDS)
def test_uniform_tuples_equal_the_array_reference_bit_for_bit(kind, params):
    """The float writer of the uniform kinds (minkowski.field_from_EB for
    F, dA written out) gives the tuples of the array reference, the
    Levi-Civita einsum cut above the diagonal, to the bit, signs of zero
    included, on every E and B the repository uses."""
    for x in POINTS:
        got, want = _uniform_bits(kind, params, x)
        assert got == want


def test_uniform_tuples_equal_the_array_reference_on_random_fields():
    """The same on random E and B, with some components +0.0; where a
    component is -0.0, the reference's einsum sums it into +0.0, so an
    entry may differ there, and only in the sign of a zero."""
    rng = np.random.default_rng(23)
    for zero, to_the_bit in ((0.0, True), (-0.0, False)):
        for E, B in rng.normal(size=(300, 2, 3)):
            E[rng.random(3) < 0.3] = zero
            B[rng.random(3) < 0.3] = zero
            got, want = _uniform_bits("crossed", {"E": E, "B": B}, POINTS[1])
            if to_the_bit:
                assert got == want
            else:
                assert [float.fromhex(v) for v in got] == [float.fromhex(v) for v in want]


def test_coulomb_refuses_a_nan_position():
    bg = make_background("coulomb", q=1.0)
    with pytest.raises(ValueError, match="r=nan"):
        bg.at(np.array([0.0, np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("kind, params, name", [
    ("coulomb", {"q": np.nan}, "q"),
    ("coulomb", {"q": np.inf}, "q"),
    ("coulomb", {"q": -np.inf}, "q"),
    ("uniform-E", {"E": (np.nan, 0.0, 0.0)}, "E"),
    ("uniform-B", {"B": (0.0, 0.0, np.inf)}, "B"),
    ("crossed", {"E": (np.nan, 0.0, 0.0), "B": (0.0, 0.0, 1.0)}, "E"),
    ("crossed", {"E": (0.1, 0.0, 0.0), "B": (0.0, -np.inf, 1.0)}, "B"),
])
def test_non_finite_parameters_are_refused_by_name(kind, params, name):
    """A non-finite field parameter is refused where the background is
    built; it used to build, and a random constrained state on it then
    failed with a fixed-point error that did not name the parameter."""
    with pytest.raises(ValueError, match=f"background parameter {name} must be finite"):
        make_background(kind, **params)


@pytest.mark.parametrize("kind, params, name", [
    ("coulomb", {"q": "a"}, "q"),
    ("coulomb", {"q": None}, "q"),
    ("uniform-B", {"B": ("x", 0, 0)}, "B"),
    ("uniform-E", {"E": {"x": 1}}, "E"),
    ("crossed", {"E": (0.1, 0.0, 0.0), "B": ((1.0,), 0.0, 0.0)}, "B"),
])
def test_parameters_that_are_not_numbers_are_refused_by_name(kind, params, name):
    """A string, a dict or a ragged sequence is refused with the same
    ValueError as a non-finite value, naming the parameter, where numpy's
    conversion error named none."""
    with pytest.raises(ValueError, match=f"background parameter {name} must be finite"):
        make_background(kind, **params)


@pytest.mark.parametrize("name, value", [
    ("e", "a"), ("e", [1, 2]), ("e", None), ("c", "x"), ("c", None), ("c", (10.0,) * 2),
])
def test_charge_and_light_speed_that_are_not_numbers_are_refused_by_name(name, value):
    """A charge e or light speed c that is not a number is refused with a
    ValueError naming it, as a non-finite one is; float() raised its own
    ValueError or TypeError, which named neither."""
    what = {"e": "charge e", "c": "light speed c"}[name]
    with pytest.raises(ValueError, match=f"^{what} must be a number, got "):
        make_background("zero", **{name: value})
