"""Operator realization: correspondence floors and the g - 1 assembly."""

import re

import pytest
import sympy as sp

from relspin import quantum, weyl
from relspin.quantum import (CORRESPONDENCE_FLOORS, FIELD_KINDS, _by_ihbar,
                             _scalars, build_operators, correspondence_report,
                             correspondence_residuals, covariant_spin_orbit,
                             g_minus_one_residual, potential_shift,
                             shift_identity_residual)
from relspin.weyl import NotDivisible, Op, cross, dot
from ring_oracles import (PAIRS, anticommutator, cinv, cinv_orders, e,
                          full_residuals, g_sym, hbar, m, to_ring)


def pauli_hamiltonian(kind="uniform-E", g=g_sym, include_so=True):
    """Operator Hamiltonian of the realization for a uniform background,
    with the constant rest energy dropped (it carries cinv^{-2} and is
    a multiple of the identity).

        H = P^2/2m - P^4 c^{-2}/8m^3 + e A^0(xhat)
            + (e g / 2 m c) [ S.(P x E)/(m c) - B.S ]

    Spin factors are symmetrized against momentum factors so the result
    is Hermitian by construction.
    """
    ps = build_operators(kind)
    g = to_ring(g)
    P2 = dot(ps.Phat, ps.Phat)
    H = (P2.scale(to_ring(1 / (2 * m))) - (P2 * P2).scale(to_ring(cinv**2 / (8 * m**3)))
         + ps.A0_hat.scale(to_ring(e)))
    if include_so:
        PxE = cross(ps.Phat, _scalars(ps.E))
        so = Op()
        for k in range(3):
            so = so + anticommutator(ps.S[k], PxE[k])
        H = H + so.scale(to_ring(e * cinv**2 / (4 * m**2))).scale(g)
        BS = dot(ps.S, _scalars(ps.B))
        H = H - BS.scale(to_ring(e * cinv / (2 * m))).scale(g)
    return H


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
    assert cinv_orders(res) == {4}
    # negative control: one cinv^2 term among the cinv^4 ones shows
    mixed = res + Op.sigma(1).scale(to_ring(hbar * cinv**2))
    assert cinv_orders(mixed) == {2, 4}


def test_division_by_ihbar_is_exact():
    assert _by_ihbar(Op.x(1).scale(to_ring(sp.I * hbar**2))) == Op.x(1).scale(to_ring(hbar))
    # without a factor hbar it raises instead of producing 1/hbar terms,
    # and names the polynomial
    with pytest.raises(NotDivisible, match=re.escape("1 is not divisible by i*hbar")):
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
    assert ps.Shat[(1, 2)] == Op.sigma(3).scale(to_ring(hbar))
    assert ps.Shat[(2, 1)] == Op.sigma(3).scale(to_ring(-hbar))
    assert ps.Shat[(3, 1)] == Op.sigma(2).scale(to_ring(hbar))


def test_potential_shift_vanishes_without_electric_field():
    for kind in ("free", "uniform-B"):
        assert potential_shift(build_operators(kind)).is_zero()


@pytest.mark.parametrize("kind", ["uniform-E", "crossed"])
def test_shift_identity(kind):
    # e A^0(xhat) - e A^0(x) = -(e cinv^2 / 2 m^2) S.(P x E), exactly
    assert shift_identity_residual(build_operators(kind)).is_zero()


def test_g_minus_one_identity():
    for kind in ("uniform-E", "crossed"):
        ps = build_operators(kind)
        assert g_minus_one_residual(ps).is_zero(), kind
        # and at a concrete g: assembled coupling / covariant = (g-1)/g
        assert g_minus_one_residual(ps, g=2).is_zero(), kind
        # the covariant term alone is NOT the assembled one
        diff = covariant_spin_orbit(ps, g=2) - (covariant_spin_orbit(ps, g=2)
                                                + potential_shift(ps))
        assert not diff.is_zero(), kind


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
    for kind in ("uniform-E", "uniform-B", "crossed"):
        assert all(comp.is_hermitian() for comp in build_operators(kind).Dhat), kind


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_dipole_operator_is_built_on_first_read(kind):
    """build_operators leaves Dhat unbuilt (no report reads it); the
    first read builds it and later reads return the same tuple.  With no
    magnetic field Phat = p commutes with sigma, and the symmetrized
    dipole is (hbar cinv / m) p x sigma, the classical 2 (P x S)/(m c)."""
    ps = build_operators(kind)
    assert "Dhat" not in vars(ps)
    D = ps.Dhat
    assert ps.Dhat is D and len(D) == 3
    if kind in ("free", "uniform-E"):
        want = cross(ps.p, ps.sigma)
        assert D == tuple(w.scale(to_ring(hbar * cinv / m)) for w in want)


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_upper_triangle_loop_matches_the_full_loop(kind, monkeypatch):
    """The i < j loop of xx, PP and SS keeps the same residuals and
    gives the same report as the full 3x3 loop on A B - B A, whose
    antisymmetric families are antisymmetric with a zero diagonal."""
    got = {}

    def capture(ps):
        got.update(correspondence_residuals(ps))
        return got

    monkeypatch.setattr(quantum, "correspondence_residuals", capture)
    report = correspondence_report(kind)
    per_pair, kept = full_residuals(build_operators(kind))
    monkeypatch.setattr(quantum, "correspondence_residuals",
                        lambda ps: kept)
    assert correspondence_report(kind) == report
    for fam, op in kept.items():
        assert (got[fam] is None) == (op is None), fam
        assert op is None or got[fam] == op, fam
    for fam in ("xx", "PP", "SS"):
        res = per_pair[fam]
        for i, j in PAIRS:
            assert res[(j, i)] == -res[(i, j)], (fam, i, j)
        assert all(res[(i, i)].is_zero() for i in (1, 2, 3)), fam


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_report_takes_36_commutators_and_no_product_inside_them(kind, monkeypatch):
    """xP, xS and PS on all 9 pairs and xx, PP and SS on the 3 with
    i < j; the commutator forms no product of whole operators."""
    calls = {"commutator": 0, "mul_inside": 0}
    inside = []
    commutator, mul = weyl.commutator, Op.__mul__

    def counted_commutator(A, B):
        calls["commutator"] += 1
        inside.append(True)
        try:
            return commutator(A, B)
        finally:
            inside.pop()

    def counted_mul(self, other):
        calls["mul_inside"] += bool(inside)
        return mul(self, other)

    monkeypatch.setattr(quantum, "commutator", counted_commutator)
    monkeypatch.setattr(Op, "__mul__", counted_mul)
    correspondence_report(kind)
    assert calls == {"commutator": 36, "mul_inside": 0}
