"""Fine-structure assembly against the frozen Sommerfeld oracle."""

import math
import re

import numpy as np
import pytest

from relspin.hydrogen import (MC2_EV, HydrogenModel, fine_structure_table,
                              kinetic_shift,
                              p_level_splitting, p_level_splitting_naive,
                              sommerfeld_shift, spin_orbit_shift,
                              spin_orbit_shift_naive)

from radial import radial_expectations_closed, radial_expectations_numerov


def _total(hm, n, l, j):
    """The alpha^4 shift of level (n, l, j): kinetic plus spin-orbit."""
    return kinetic_shift(hm, n, l) + spin_orbit_shift(hm, n, l, j)


def test_sommerfeld_match_all_levels_n_le_4():
    hm = HydrogenModel(g=2.0)
    worst = 0.0
    for n in range(1, 5):
        for l in range(1, n):
            for j in (l - 0.5, l + 0.5):
                tot = _total(hm, n, l, j)
                somm = sommerfeld_shift(hm, n, j)
                worst = max(worst, abs(tot - somm) / abs(somm))
    assert worst < 1e-10


def test_j_degeneracy_across_l():
    # levels with the same (n, j) but different l coincide at g = 2
    hm = HydrogenModel(g=2.0)
    for n, j in ((3, 1.5), (4, 1.5), (4, 2.5)):
        ls = [l for l in range(1, n) if abs(j - l) == 0.5]
        vals = [_total(hm, n, l, j) for l in ls]
        assert len(vals) == 2
        assert np.isclose(vals[0], vals[1], rtol=1e-12)


def test_2p_splitting_physical_value():
    hm = HydrogenModel()
    dE = p_level_splitting(hm)
    assert np.isclose(dE, hm.mc2 * hm.alpha**4 / 32.0, rtol=1e-12)
    assert np.isclose(dE, 4.53e-5, rtol=5e-3)   # eV


def test_naive_coupling_doubles_the_splitting():
    hm = HydrogenModel(g=2.0)
    ratio = p_level_splitting_naive(hm) / p_level_splitting(hm)
    # g / (g - 1) = 2 exactly at g = 2
    assert ratio == pytest.approx(2.0, abs=1e-12)


def test_closed_form_expectations_ground_rows():
    # hand values for low (n, l)
    out = radial_expectations_closed(2, 1)
    assert np.isclose(out["inv_r"], 0.25, atol=1e-15)
    assert np.isclose(out["inv_r2"], 1.0 / 12.0, atol=1e-15)
    assert np.isclose(out["inv_r3"], 1.0 / 24.0, atol=1e-15)
    with pytest.raises(ValueError):
        radial_expectations_closed(2, 2)


@pytest.mark.parametrize("n,l", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)])
def test_numerov_confirms_closed_forms(n, l):
    ref = radial_expectations_closed(n, l)
    num = radial_expectations_numerov(n, l)
    for key in ("inv_r", "inv_r2", "inv_r3", "p4"):
        assert np.isclose(num[key], ref[key], rtol=1e-6), (key, num[key], ref[key])


def test_numerov_rejects_s_states():
    with pytest.raises(ValueError):
        radial_expectations_numerov(2, 0)


def test_spin_orbit_sign_structure():
    hm = HydrogenModel(g=2.0)
    # j = l + 1/2 raised, j = l - 1/2 lowered
    assert spin_orbit_shift(hm, 2, 1, 1.5) > 0
    assert spin_orbit_shift(hm, 2, 1, 0.5) < 0
    assert spin_orbit_shift(hm, 3, 0, 0.5) == 0.0
    for shift in (spin_orbit_shift, spin_orbit_shift_naive):
        with pytest.raises(ValueError, match="j must be l"):
            shift(hm, 2, 1, 2.5)
    # naive and realized couplings are proportional: g vs g - 1
    hm3 = HydrogenModel(g=3.0)
    assert np.isclose(spin_orbit_shift_naive(hm3, 2, 1, 1.5) * (3.0 - 1.0),
                      spin_orbit_shift(hm3, 2, 1, 1.5) * 3.0, rtol=1e-12)


def test_table_shape_and_content():
    hm = HydrogenModel(g=2.0)
    rows = fine_structure_table(hm, n_max=3)
    # n = 1: one row; n = 2: 1 + 2; n = 3: 1 + 2 + 2
    assert len(rows) == 1 + 3 + 5
    for row in rows:
        if row["l"] == 0:
            assert row["sommerfeld"] is None and row["defect"] is None
            assert row["spin_orbit"] == 0.0
            assert row["total"] == row["kinetic"]
        else:
            assert abs(row["defect"]) < 1e-10 * abs(row["sommerfeld"])


@pytest.mark.parametrize("n, l", [(0, 0), (-1, 0), (1, 1), (2, 2), (2, -1), (2.5, 1), (3, 1.5)])
def test_shifts_refuse_a_level_that_does_not_exist(n, l):
    """A level has whole numbers n >= 1 and 0 <= l <= n - 1.
    (n, l, j) = (1, 1, 1.5) read 1.81e-4 and (2, 2, 2.5) read 3.77e-6,
    n = 0 raised ZeroDivisionError, and kinetic_shift(hm, 2.5, 1) read
    -1.70e-5."""
    hm = HydrogenModel()
    with pytest.raises(ValueError, match=f"no level n={n}, l={l}"):
        kinetic_shift(hm, n, l)
    for shift in (spin_orbit_shift, spin_orbit_shift_naive):
        with pytest.raises(ValueError, match=f"no level n={n}, l={l}"):
            shift(hm, n, l, l + 0.5)


def test_kinetic_shift_scale():
    # 1s kinetic shift is -(5/8) mc^2 alpha^4 in closed form
    hm = HydrogenModel(g=2.0)
    assert np.isclose(kinetic_shift(hm, 1, 0),
                      -hm.mc2 * hm.alpha**4 * 5.0 / 8.0, rtol=1e-12)


@pytest.mark.parametrize("name, value", [
    ("g", np.nan),       # a table of nan
    ("g", np.inf),       # a p splitting of inf
    ("alpha", -1.0),     # a p splitting of 15968.7
    ("alpha", 0.0),
    ("alpha", np.inf),
    ("mc2", np.nan),     # nan shifts
    ("mc2", 0.0),
    ("mc2", -np.inf),
])
def test_hydrogen_model_refuses_a_field_that_is_not_finite_or_not_positive(name, value):
    """g must be finite, alpha and mc2 finite and positive: each is
    refused at construction, by name, not carried into the shifts."""
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        HydrogenModel(**{name: value})


@pytest.mark.parametrize("alpha, mc2", [(1e100, MC2_EV), (1e10, 1e300)],
                         ids=["alpha4-overflows", "product-overflows"])
def test_hydrogen_model_refuses_an_energy_scale_past_the_float_range(alpha, mc2):
    """Every shift is a multiple of mc2 alpha^4: where that is not a
    number (alpha**4 itself overflows, or the product does and the table
    would read inf - inf = nan), the pair is refused, naming both."""
    with pytest.raises(ValueError, match=re.escape(f"alpha = {alpha}, mc2 = {mc2}")):
        HydrogenModel(alpha=alpha, mc2=mc2)
    assert HydrogenModel(alpha=1e10, mc2=1e250).mc2 == 1e250   # 1e290 is a number


@pytest.mark.parametrize("g", [1e308, -1e308, 7.1e302, -7.1e302])
def test_hydrogen_model_refuses_a_g_whose_spin_orbit_prefactor_overflows(g):
    """coupling * 0.5 * mc2 overflows before alpha^4 scales it down: at
    g = 1e308 the table read -inf in 20 fields.  Such a g is refused at
    construction, naming it, for the realized g - 1 and for the bare-g
    control alike; g = 7e302 still builds a finite table."""
    with pytest.raises(ValueError, match=re.escape(f"g = {g} puts the spin-orbit prefactor")):
        HydrogenModel(g=g)
    hm = HydrogenModel(g=math.copysign(7e302, g))
    for row in fine_structure_table(hm, n_max=3):
        assert all(np.isfinite(row[k]) for k in ("kinetic", "spin_orbit", "total"))
    assert np.isfinite(p_level_splitting_naive(hm)) and np.isfinite(p_level_splitting(hm))
