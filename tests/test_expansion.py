"""Order counting of the expanded bracket table and the commuting chart."""

import numpy as np
import pytest

from relspin.brackets import dirac_core
from relspin.expansion import (LADDER_ORDERS, bracket_ladder,
                               expanded_brackets, from_primed,
                               hamiltonian_expanded, ladder_decreasing,
                               primed_shift_example, _ladder_state)
from relspin.fields import make_background
from relspin.phase import Model, field_data, init_state, spin_readouts, spin_tensor

from conftest import BACKGROUND_PARAMS
from oracles import PHYSICAL_ORACLES, kinetic_momentum


@pytest.mark.parametrize("background", ["crossed", "coulomb"])
def test_ladder_every_family_decreases(background):
    lad = bracket_ladder(background, cs=(10.0, 20.0, 40.0, 80.0))
    for fam in list(LADDER_ORDERS) + ["H"]:
        assert ladder_decreasing(lad[fam]), (fam, lad[fam]["scaled"])


@pytest.mark.parametrize("cs", [(), (10.0,), (10.0, 10.0), (40.0, 20.0, 10.0)],
                         ids=["none", "one", "repeated", "decreasing"])
def test_ladder_refuses_fewer_than_two_rungs(cs):
    """One rung or none compares nothing, and every ladder_decreasing
    of such a ladder would read True; a repeated or decreasing c read
    "not decreasing" on every family, a failure of the ladder, not of
    the table."""
    with pytest.raises(ValueError, match="cs"):
        bracket_ladder("crossed", cs=cs)


def test_ladder_refuses_a_background_with_no_preset():
    with pytest.raises(ValueError, match="^no ladder preset for background 'uniform-B'$"):
        bracket_ladder("uniform-B")


def test_ladder_residuals_fall_fast_enough():
    # consistency with the quoted orders: residuals must fall by at
    # least 2^k per doubling of c once above the rounding floor
    lad = bracket_ladder("crossed", cs=(10.0, 20.0, 40.0))
    for fam, k in LADDER_ORDERS.items():
        res = lad[fam]["residuals"]
        for a, b in zip(res, res[1:]):
            if a < 1e-12:
                continue
            assert b < a / 2**k * 1.05, (fam, res)


def test_ladder_decreasing_helper():
    assert ladder_decreasing({"scaled": [1.0, 0.5, 0.25]})
    assert not ladder_decreasing({"scaled": [1.0, 1.1, 0.2]})
    # both below floor: rounding noise is not adjudicated
    assert ladder_decreasing({"scaled": [1.0, 1e-14, 3e-14]})


def test_expanded_bracket_values_free():
    bg = make_background("zero", e=1.0, c=10.0)
    model = Model(background=bg, m=1.0, g=2.0, alpha=0.75)
    z = init_state(model, x3=(0.1, 0.2, -0.3), P3=(0.4, -0.1, 0.2),
                   spin_dir=(0.2, 0.5, -1.0))
    S = spin_readouts(spin_tensor(z.w, z.pi))[0]
    table = expanded_brackets(dirac_core(z, model), model)
    assert list(table) == list(LADDER_ORDERS)
    assert np.isclose(table["xx"][0, 1],
                      S[2] / (model.m * model.c) ** 2, rtol=0, atol=1e-15)
    assert table["xP"][0, 0] == 1.0
    assert table["xP"][0, 1] == 0.0
    assert table["PP"][1, 2] == 0.0
    assert table["PS"][0, 2] == 0.0
    assert np.isclose(table["SS"][0, 1], S[2], rtol=0, atol=1e-15)


def test_primed_positions_commute_to_higher_order():
    # {x'_1, x'_2} assembled by Leibniz from the pair table must be
    # O(c^-4), two powers beyond the O(c^-2) physical-position bracket
    res = []
    for c in (10.0, 20.0, 40.0):
        model, z = _ladder_state(c, "crossed")
        core = dirac_core(z, model)
        S = spin_readouts(spin_tensor(z.w, z.pi))[0]
        from relspin.phase import field_data
        P = kinetic_momentum(z, model, field_data(model, z.x))[1:]
        eps = np.zeros((3, 3, 3))
        for a, b, cc, s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                            (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
            eps[a, b, cc] = s
        # exact {x_i, .} on the physical rows x, calP, S^{mu nu}; the
        # spin three-vector is (S^{23}, -S^{13}, S^{12}) / 2
        G = np.array([ob.grad(z, model) for ob in PHYSICAL_ORACLES])
        D = G @ core.flow(G).T
        xx, xP = D[:3, :3], D[:3, 3:6]
        xS = 0.5 * D[:3, [11, 10, 9]] * [1.0, -1.0, 1.0]
        i, j = 1, 2
        val = xx[i - 1, j - 1]
        pref = 1.0 / (2.0 * model.m**2 * c**2)
        for k in range(3):
            for l in range(3):
                if eps[j - 1, k, l]:
                    val += pref * eps[j - 1, k, l] * (
                        xP[i - 1, k] * S[l] + P[k] * xS[i - 1, l])
                if eps[i - 1, k, l]:
                    val -= pref * eps[i - 1, k, l] * (
                        xP[j - 1, k] * S[l] + P[k] * xS[j - 1, l])
        res.append(abs(val))
    assert res[0] < 1e-4
    assert res[1] < res[0] / 8.0
    assert res[2] < res[1] / 8.0


def _potential(model, xp):
    """A^mu at the spatial point xp, as an array."""
    return np.array(field_data(model, [0.0, *xp.tolist()])[0])


def to_primed(x, P, S, model):
    """Inverse chart: x' = x + (P x S)/(2 m^2 c^2), then P' = P + (e/c) A(x')."""
    x, P, S = (np.asarray(v, float) for v in (x, P, S))
    m, c, e = model.m, model.c, model.e
    xp = x + np.cross(P, S) / (2.0 * m**2 * c**2)
    return xp, P + (e / c) * _potential(model, xp)[1:], S.copy()


def test_chart_roundtrip_both_ways():
    for kind in ("coulomb", "uniform-B", "crossed"):
        bg = make_background(kind, e=1.0, c=10.0, **BACKGROUND_PARAMS[kind])
        model = Model(background=bg, m=1.0, g=2.0, alpha=0.75)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
            P = rng.normal(0.0, 0.6, 3)
            S = rng.normal(0.0, 0.5, 3)
            xp, Pp, Sp = to_primed(x, P, S, model)
            x2, P2, S2 = from_primed(xp, Pp, Sp, model)
            assert np.max(np.abs(x2 - x)) < 1e-12, kind
            assert np.max(np.abs(P2 - P)) < 1e-12, kind
            assert np.array_equal(S2, S)
            x3, P3, S3 = from_primed(x, P, S, model)
            xb, Pb, Sb = to_primed(x3, P3, S3, model)
            assert np.max(np.abs(xb - x)) < 1e-12, kind
            assert np.max(np.abs(Pb - P)) < 1e-12, kind


@pytest.mark.parametrize("kind", ["uniform-B", "crossed"])
def test_chart_shift_is_built_on_the_kinetic_momentum(kind):
    # at a point where A(x') != 0 the canonical and kinetic momenta
    # differ at O(1), so the shift differs from one built on P' at c^-2
    bg = make_background(kind, e=1.0, c=10.0, **BACKGROUND_PARAMS[kind])
    model = Model(background=bg, m=1.0, g=2.0, alpha=0.75)
    xp, Pp, Sp = np.array([0.7, -0.4, 0.3]), np.array([0.2, 0.5, -0.1]), np.array([0.1, -0.3, 0.4])
    assert np.max(np.abs(_potential(model, xp)[1:])) > 0.1
    x, P, S = from_primed(xp, Pp, Sp, model)
    assert np.allclose(P, Pp - _potential(model, xp)[1:] / model.c, rtol=0, atol=1e-15)
    assert np.allclose(x - xp, -np.cross(P, Sp) / (2.0 * model.c**2), rtol=0, atol=1e-16)
    assert not np.allclose(x - xp, -np.cross(Pp, Sp) / (2.0 * model.c**2), rtol=0, atol=1e-6)


def test_primed_shift_reference_value():
    bg = make_background("zero", e=1.0, c=10.0)
    model = Model(background=bg, m=1.0, g=2.0, alpha=0.75)
    out = primed_shift_example(model)
    assert np.isclose(out["xprime_minus_x"][1], -np.sqrt(3.0) / 400.0,
                      rtol=0, atol=1e-16)
    assert out["xprime_minus_x"][0] == 0.0
    assert out["xprime_minus_x"][2] == 0.0


def test_expanded_hamiltonian_nonrelativistic_pieces():
    # raise c so only the leading kinetic + potential + magnetic moment
    # terms matter, then check them against hand values
    bg = make_background("uniform-B", e=1.0, c=1e4, B=(0.0, 0.0, 0.7))
    model = Model(background=bg, m=2.0, g=2.0, alpha=0.75)
    z = init_state(model, x3=(0.1, -0.2, 0.3), P3=(0.3, 0.1, -0.2),
                   spin_dir=(0.0, 0.0, 1.0))
    S = spin_readouts(spin_tensor(z.w, z.pi))[0]
    h = hamiltonian_expanded(dirac_core(z, model), model)
    p2 = 0.3**2 + 0.1**2 + 0.2**2
    expect = (model.m * model.c**2 + p2 / (2 * model.m)
              - model.g / (2 * model.m * model.c) * 0.7 * S[2])
    assert np.isclose(h, expect, rtol=0, atol=1e-10)
