"""Operator realization: correspondence floors and the g - 1 assembly."""

import pytest
import sympy as sp

from sympy.polys.polyerrors import ExactQuotientFailed

from relspin.quantum import (CORRESPONDENCE_FLOORS, FIELD_KINDS, _by_ihbar,
                             build_operators, correspondence_report,
                             correspondence_residuals, covariant_spin_orbit,
                             g_minus_one_residual, g_sym, pauli_hamiltonian,
                             potential_shift, shift_identity_residual)
from relspin.weyl import Op, cinv, hbar


def test_unknown_kind_raises():
    with pytest.raises(ValueError):
        build_operators("dipole")


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_correspondence_floors(kind):
    rep = correspondence_report(kind)
    for fam, row in rep.items():
        assert row["ok"], (kind, fam, row)


def test_free_xx_residual_is_pure_fourth_order():
    ps = build_operators("free")
    res = correspondence_residuals(ps)["xx"]
    assert not res.is_zero()
    for Mat in res.terms.values():
        for entry in Mat:
            entry = sp.expand(entry)
            if entry == 0:
                continue
            poly = sp.Poly(entry, cinv)
            assert {mon[0] for mon in poly.monoms()} == {4}


def test_division_by_ihbar_is_exact():
    assert _by_ihbar(Op.x(1).scale(sp.I * hbar**2)) == Op.x(1).scale(hbar)
    # without a factor hbar it raises instead of producing 1/hbar terms
    with pytest.raises(ExactQuotientFailed):
        _by_ihbar(Op.x(1))


def test_free_xs_mismatch_sits_at_its_floor():
    # the xhat-S commutator and the transcribed classical bracket first
    # disagree at cinv^2, the same order as the bracket itself; the
    # floor records that the disagreement is an ordering artifact, not
    # a missed lower-order term
    ps = build_operators("free")
    res = correspondence_residuals(ps)["xS"]
    assert not res.is_zero()
    assert res.min_cinv_order() == 2
    assert CORRESPONDENCE_FLOORS["free"]["xS"] == 2


def test_exact_families_have_zero_residual():
    ps = build_operators("free")
    res = correspondence_residuals(ps)
    for fam in ("xP", "PP", "PS", "SS"):
        assert res[fam] is None or res[fam].is_zero(), fam


def test_spin_tensor_dictionary():
    ps = build_operators("free")
    assert ps.Shat[(1, 2)] == Op.sigma(3).scale(hbar)
    assert ps.Shat[(2, 1)] == Op.sigma(3).scale(-hbar)
    assert ps.Shat[(3, 1)] == Op.sigma(2).scale(hbar)


def test_potential_shift_vanishes_without_electric_field():
    for kind in ("free", "uniform-B"):
        assert potential_shift(build_operators(kind)).is_zero()


@pytest.mark.parametrize("kind", ["uniform-E", "crossed"])
def test_shift_identity(kind):
    # e A^0(xhat) - e A^0(x) = -(e cinv^2 / 2 m^2) S.(P x E), exactly
    assert shift_identity_residual(build_operators(kind)).is_zero()


def test_g_minus_one_identity():
    ps = build_operators("uniform-E")
    assert g_minus_one_residual(ps).is_zero()
    # and at a concrete g: assembled coupling / covariant = (g-1)/g
    assert g_minus_one_residual(ps, g=sp.Integer(2)).is_zero()
    # the covariant term alone is NOT the assembled one
    diff = covariant_spin_orbit(ps, g=sp.Integer(2)) - (
        covariant_spin_orbit(ps, g=sp.Integer(2))
        + potential_shift(ps))
    assert not diff.is_zero()


def test_pauli_hamiltonian_hermitian():
    for kind in ("uniform-E", "uniform-B", "crossed"):
        H = pauli_hamiltonian(kind, g=g_sym)
        assert H.is_hermitian(), kind


def test_uniform_b_hamiltonian_pieces_hermitian():
    from relspin.weyl import dot
    ps = build_operators("uniform-B")
    P2 = dot(ps.Phat, ps.Phat)
    assert P2.is_hermitian()
    for comp in ps.Phat:
        assert comp.is_hermitian()
    assert ps.S[2].scale(ps.B[2]).is_hermitian()


def test_dipole_operator_hermitian():
    ps = build_operators("uniform-B")
    for comp in ps.Dhat:
        assert comp.is_hermitian()
