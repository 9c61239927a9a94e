"""Exactness of the normal-ordered operator ring."""

import sympy as sp

from relspin import quantum
from relspin.weyl import (Op, anticommutator, cinv, commutator, cross, dot,
                          hbar, m)

I = sp.I


def test_canonical_commutators():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            val = commutator(Op.x(i), Op.p(j))
            if i == j:
                assert val == Op.scalar(I * hbar)
            else:
                assert val.is_zero()
            assert commutator(Op.x(i), Op.x(j)).is_zero()
            assert commutator(Op.p(i), Op.p(j)).is_zero()


def test_reorder_identities():
    x1, p1 = Op.x(1), Op.p(1)
    assert p1 * x1 == x1 * p1 - Op.scalar(I * hbar)
    # [p, x^2] = -2 i hbar x
    assert commutator(p1, x1 * x1) == x1.scale(-2 * I * hbar)
    # [p^2, x] = -2 i hbar p
    assert commutator(p1 * p1, x1) == p1.scale(-2 * I * hbar)
    # mixed axes stay untouched
    assert Op.p(2) * Op.x(3) == Op.x(3) * Op.p(2)


def test_adjoint():
    x1, p1 = Op.x(1), Op.p(1)
    a = x1 * p1
    assert a.adjoint() == p1 * x1
    assert a.adjoint() == a - Op.scalar(I * hbar)
    assert not a.is_hermitian()
    sym = (a + a.adjoint()).scale(sp.Rational(1, 2))
    assert sym.is_hermitian()
    # involution
    b = Op.sigma(2) * p1 + x1.scale(3 * cinv)
    assert b.adjoint().adjoint() == b
    # anti-automorphism: (AB)^+ = B^+ A^+
    c = Op.sigma(1) * Op.p(2)
    assert (b * c).adjoint() == c.adjoint() * b.adjoint()


def test_non_hermitian_counterexample():
    assert not Op.x(1).scale(I).is_hermitian()
    assert Op.x(1).is_hermitian()
    assert Op.sigma(2).is_hermitian()


def test_pauli_algebra():
    s1, s2, s3 = Op.sigma(1), Op.sigma(2), Op.sigma(3)
    assert commutator(s1, s2) == s3.scale(2 * I)
    assert anticommutator(s1, s2).is_zero()
    assert s1 * s1 == Op.scalar(1)
    # sigma commutes with x and p
    assert commutator(s3, Op.x(1) * Op.p(1)).is_zero()


def test_min_cinv_order_and_coefficient():
    a = Op.scalar(3 * cinv**2 + cinv**4)
    assert a.min_cinv_order() == 2
    assert a.coefficient_of_cinv(2) == Op.scalar(3)
    assert a.coefficient_of_cinv(3).is_zero()
    assert Op.x(1).min_cinv_order() == 0
    assert Op().min_cinv_order() is None
    assert (a - a).min_cinv_order() is None


def test_dot_and_cross_helpers():
    xs = (Op.x(1), Op.x(2), Op.x(3))
    ps = (Op.p(1), Op.p(2), Op.p(3))
    lz = cross(xs, ps)[2]
    assert lz == Op.x(1) * Op.p(2) - Op.x(2) * Op.p(1)
    # L is hermitian even without symmetrization because the crossed
    # factors live on different axes
    assert lz.is_hermitian()
    r2 = dot(xs, xs)
    assert r2 == Op.x(1) * Op.x(1) + Op.x(2) * Op.x(2) + Op.x(3) * Op.x(3)
    # x . p - p . x = 3 i hbar
    assert dot(xs, ps) - dot(ps, xs) == Op.scalar(3 * I * hbar)


def test_linear_structure():
    x1 = Op.x(1)
    assert x1.scale(2) == x1 + x1
    assert (x1 - x1).is_zero()
    assert (x1 + 1) - 1 == x1
    assert (1 + x1) == x1 + 1
    assert (2 * x1) == x1.scale(2)
    assert (-x1) + x1 == Op()


def test_sympy_boundary_round_trip():
    # sympy in through Op.scalar (m read as 1/minv), sympy out through the
    # terms view (minv written back as 1/m)
    expr = hbar * cinv**2 / (4 * m**2)
    (key, Mat), = Op.scalar(expr).terms.items()
    assert key == (0, 0, 0, 0, 0, 0)
    assert sp.simplify(Mat - expr * sp.eye(2)) == sp.zeros(2, 2)


def test_g_minus_one_residual_sees_a_wrong_assembly(monkeypatch):
    ps = quantum.build_operators("uniform-E")
    assert quantum.g_minus_one_residual(ps).is_zero()
    # without the potential shift the assembled coupling keeps g, and
    # the polynomial form g * assembled - (g-1) * covariant is nonzero
    monkeypatch.setattr(quantum, "potential_shift", lambda ps: Op())
    assert not quantum.g_minus_one_residual(ps).is_zero()
    assert not quantum.g_minus_one_residual(ps, g=sp.Integer(2)).is_zero()
