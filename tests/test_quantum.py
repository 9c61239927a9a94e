"""Operator realization: correspondence floors and the g - 1 assembly."""

import inspect
import re

import pytest
import sympy as sp

from relspin import quantum, weyl
from relspin.minkowski import EPS3
from relspin.quantum import (CORRESPONDENCE_FLOORS, FIELD_KINDS, _eps_sum, _scalars,
                             build_operators, correspondence_report,
                             correspondence_residuals, covariant_spin_orbit,
                             g_minus_one_residual, potential_shift,
                             shift_identity_residual)
from relspin.weyl import NotDivisible, Op, cross, div_ihbar, dot
from ring_oracles import (PAIRS, anticommutator, canonical_op, cinv, cinv_orders, dipole,
                          e, full_residuals, g_sym, hbar, is_hermitian, m, scalar_potential,
                          target_xS, to_ring)


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


@pytest.mark.parametrize("kind", ["free", "uniform-E"])
def test_with_no_magnetic_field_phat_is_p_over_den_1(kind):
    """With no B the kinetic momenta at x and at xhat are p itself, den 1
    included: a zero vector potential enters no arithmetic."""
    ps = build_operators(kind)
    for P0, P, p in zip(ps.P0hat, ps.Phat, ps.p):
        assert (P0.blocks, P0.den) == (P.blocks, P.den) == (p.blocks, 1)


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_first_read_a0_is_the_eager_potential(kind):
    """The correspondence residuals build no A^0; A0 and A0_hat, built on
    first read over the nonzero E_i only, are -sum_i E_i x_i and
    -sum_i E_i xhat_i over all three components."""
    ps = build_operators(kind)
    correspondence_residuals(ps)
    assert "A0" not in vars(ps) and "A0_hat" not in vars(ps)
    assert ps.A0 == scalar_potential(ps.E, ps.x)
    assert ps.A0_hat == scalar_potential(ps.E, ps.xhat)
    assert ps.A0 is ps.A0 and ps.A0_hat is ps.A0_hat
    assert ps.A0.is_zero() == ps.A0_hat.is_zero() == (kind in ("free", "uniform-B"))


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_xs_target_table_is_the_per_pair_form(kind):
    """The one table of products S_j P_i from S_j scaled once, its
    diagonal as S.P, holds the per-pair (S_j P_i - delta_ij S.P)
    cinv^2/m^2 with the same den and coefficients."""
    ps = build_operators(kind)
    table = quantum._targets_xS(ps)
    for i, j in PAIRS:
        assert canonical_op(table[i - 1][j - 1]) == canonical_op(target_xS(ps, i, j)), (i, j)


def test_eps_sum_is_the_levi_civita_contraction():
    """_eps_sum(vec, i, j) is sum_k eps_ijk vec_k at every pair, the
    diagonal included, with eps read from minkowski.EPS3."""
    vec = (Op.x(1), Op.p(2).scale(to_ring(hbar / 3)), Op.sigma(3) + Op.x(2))
    for i, j in PAIRS:
        want = sum((vec[k].scale(int(EPS3[i - 1, j - 1, k])) for k in range(3)), Op())
        assert _eps_sum(vec, i, j) == want, (i, j)


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
    assert div_ihbar(Op.x(1).scale(to_ring(sp.I * hbar**2))) == Op.x(1).scale(to_ring(hbar))
    # without a factor hbar it raises instead of producing 1/hbar terms,
    # and names the polynomial
    with pytest.raises(NotDivisible, match=re.escape("1 is not divisible by i*hbar")):
        div_ihbar(Op.x(1))


def test_free_xs_mismatch_sits_at_its_floor():
    # the xhat-S commutator and the transcribed classical bracket first
    # disagree at cinv^2, the same order as the bracket itself: S = hbar
    # sigma / 2 is the rest-frame spin, while the bracket is that of the
    # lab spin, a different variable at O(c^-2) (ROADMAP item 13)
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
        # the covariant term alone is NOT the assembled one
        diff = covariant_spin_orbit(ps) - (covariant_spin_orbit(ps) + potential_shift(ps))
        assert not diff.is_zero(), kind


def test_pauli_hamiltonian_hermitian():
    for kind in ("uniform-E", "uniform-B", "crossed"):
        H = pauli_hamiltonian(kind, g=g_sym)
        assert is_hermitian(H), kind


def test_uniform_b_hamiltonian_pieces_hermitian():
    from relspin.weyl import dot
    ps = build_operators("uniform-B")
    P2 = dot(ps.Phat, ps.Phat)
    assert is_hermitian(P2)
    for comp in ps.Phat:
        assert is_hermitian(comp)
    assert is_hermitian(ps.S[2].scale(ps.B[2]))


def test_dipole_operator_hermitian():
    for kind in ("uniform-E", "uniform-B", "crossed"):
        assert all(is_hermitian(comp) for comp in dipole(build_operators(kind))), kind


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_dipole_operator_is_the_classical_form(kind):
    """With no magnetic field Phat = p commutes with sigma, and the
    symmetrized dipole is (hbar cinv / m) p x sigma, the classical
    2 (P x S)/(m c); a magnetic field adds terms from cinv^2 on, through
    e cinv A(xhat) in Phat."""
    ps = build_operators(kind)
    D = dipole(ps)
    lead = tuple(w.scale(to_ring(hbar * cinv / m)) for w in cross(ps.p, ps.sigma))
    if kind in ("free", "uniform-E"):
        assert D == lead
    else:
        assert min((d - w).min_cinv_order() for d, w in zip(D, lead)) == 2


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
            assert res[(j, i)] == Op() - res[(i, j)], (fam, i, j)
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


@pytest.fixture
def constructions(monkeypatch):
    """Calls of Op.__init__ and of weyl.commutator, by every name
    quantum binds."""
    calls = dict.fromkeys(("init", "commutator"), 0)
    init, commutator = Op.__init__, weyl.commutator

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_commutator(A, B):
        calls["commutator"] += 1
        return commutator(A, B)

    monkeypatch.setattr(Op, "__init__", counted_init)
    for mod in (weyl, quantum):
        monkeypatch.setattr(mod, "commutator", counted_commutator)
    return calls


def test_reports_build_only_what_they_read(constructions):
    """The free report builds no A^0, no vector potential and no PP
    target, and scales each S_j once for its xS targets; the g - 1 item
    of the benchmark builds A^0 at x and at xhat on first read.  The
    bounds are the counts at the time of writing, against 219 and 111
    when every operator was built eagerly.  Every Op is made through
    __init__: an Op made by __new__ alone would lower the count without
    saving the work."""
    for mod in (weyl, quantum):
        assert "__new__" not in inspect.getsource(mod), mod.__name__
    correspondence_report("free")
    assert constructions["commutator"] == 36 and constructions["init"] <= 152, constructions
    constructions.update(dict.fromkeys(constructions, 0))
    g_minus_one_residual(build_operators("uniform-E"))
    assert constructions["commutator"] == 0 and constructions["init"] <= 69, constructions


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_pp_targets_are_one_scalar_scaled_once(kind, constructions):
    """Each PP target e cinv eps_ijk B_k is one scalar Op of B_k scaled
    once by +-e cinv: at most 6 constructions for the three i < j
    targets, where all three scalars of B and two scalings took 15.
    Each target is the same element, with the same den, as that form,
    and the zero Op at i == j."""
    ps = build_operators(kind)
    constructions.update(dict.fromkeys(constructions, 0))
    upper = ((1, 2), (1, 3), (2, 3))
    got = [quantum._target_PP(ps, i, j) for i, j in upper]
    assert constructions["init"] <= 6, constructions
    e_cinv = weyl._cleared_term(e=1, cinv=1)
    for (i, j), op in zip(upper, got):
        want = _eps_sum(_scalars(ps.B), i, j).scale(e_cinv)
        assert (op.blocks, op.den) == (want.blocks, want.den), (i, j)
    assert all(quantum._target_PP(ps, i, i).is_zero() for i in (1, 2, 3))
