"""Exactness of the normal-ordered operator ring."""

import re

import pytest
import sympy as sp
from sympy import ZZ_I
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ring_oracles
from relspin import quantum
from relspin.weyl import (I2, SIGMA, Op, R, cinv, commutator, cross, dot, hbar,
                          m, to_ring)
from ring_oracles import anticommutator, coefficient_of_cinv

I = sp.I

# blocks I2 and sigma_1..3, each times 1, hbar, cinv or i (elements of
# the Gaussian-integer block ring): some pairs commute and some do not
_BASES = (I2,) + SIGMA
_FACTORS = tuple(R.from_expr(sp.sympify(f)) for f in (1, hbar, cinv, I))


def _monomial_op(key, base, factor):
    return Op({key: tuple(_FACTORS[factor] * u for u in _BASES[base])})


# 1-3 monomials, exponents 0-2 per axis, so contractions occur in A B,
# in B A, in both and in neither
_ops = st.lists(st.builds(_monomial_op,
                          st.tuples(*[st.integers(0, 2)] * 6),
                          st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=3).map(lambda ops: sum(ops, Op()))


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
    assert coefficient_of_cinv(a, 2) == Op.scalar(3)
    assert coefficient_of_cinv(a, 3).is_zero()
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


# exact scalars whose denominators are not powers of two, some of them
# Gaussian, so that an Op's den holds factors 3 and 5 as well as 2
_QS = (sp.Rational(1, 3), I / 6, sp.Rational(2, 5), sp.Rational(-7, 12),
       sp.Rational(3, 4) - I / 9)


def _sympy_sum(*views):
    out = {}
    for view in views:
        for k, Mat in view.items():
            out[k] = out.get(k, sp.zeros(2, 2)) + Mat
    return out


@settings(max_examples=60, deadline=None)
@given(_ops, _ops, st.sampled_from(_QS), st.sampled_from(_QS))
def test_non_dyadic_and_gaussian_scalars_stay_exact(A, B, q, r):
    Aq, Br = A.scale(q), B.scale(r)
    assert Aq.scale(1 / q) == A
    assert A.is_zero() or Aq != A
    # the terms view divides by den: the sum's view is the sum of views
    lhs, rhs = (Aq + Br).terms, _sympy_sum(Aq.terms, Br.terms)
    for k in set(lhs) | set(rhs):
        diff = lhs.get(k, sp.zeros(2, 2)) - rhs.get(k, sp.zeros(2, 2))
        assert diff.applyfunc(sp.expand) == sp.zeros(2, 2), k
    assert Aq.adjoint().adjoint() == Aq
    assert Aq.adjoint() == A.adjoint().scale(sp.conjugate(q))
    assert commutator(Aq, Br) == commutator(A, B).scale(q * r)
    for op in (Aq, Br, Aq + Br, Aq * Br, commutator(Aq, Br), Aq.adjoint()):
        assert type(op.den) is int and op.den > 0
        for blk in op.blocks.values():
            for u in blk:
                assert u.ring is R and R.domain == ZZ_I
                assert all(ZZ_I.of_type(c) for c in u.values())


def test_a_denominator_past_double_precision_is_kept():
    # negative control for the one-den representation: 1/3 and
    # 1/3 + 2^-60 agree to 18 digits and are still different scalars
    A = Op.x(1) * Op.p(2) + Op.sigma(3)
    near = sp.Rational(1, 3) + sp.Rational(1, 2**60)
    assert A.scale(sp.Rational(1, 3)) != A.scale(near)
    assert A.scale(sp.Rational(1, 3)).den * 2**60 <= A.scale(near).den


@pytest.mark.parametrize("value", [0.1 * 3, 1 / 3, 0.5 * hbar, sp.Float(2),
                                   1 + 0.5j, cinv + sp.Float("0.25")],
                         ids=["0.1*3", "1/3", "0.5*hbar", "Float(2)", "complex",
                              "cinv+Float"])
def test_to_ring_refuses_floats(value):
    """sympy would round a float to a rational; the ring takes exact
    values only, and the error names the value."""
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        to_ring(value)
    with pytest.raises(ValueError, match="float"):
        Op.x(1).scale(value)
    with pytest.raises(ValueError, match="float"):
        Op.scalar(value)


def test_to_ring_takes_exact_values():
    assert to_ring(3) == to_ring(sp.Integer(3))
    assert Op.x(1).scale(sp.Rational(3, 10)) == Op.x(1).scale(3).scale(sp.Rational(1, 10))
    assert Op.scalar(I * hbar / 2) == Op.scalar(hbar).scale(I).scale(sp.Rational(1, 2))
    assert Op.scalar(cinv / m) * Op.scalar(2 / m) == Op.scalar(2 * cinv / m**2)


def test_g_minus_one_residual_sees_a_wrong_assembly(monkeypatch):
    ps = quantum.build_operators("uniform-E")
    assert quantum.g_minus_one_residual(ps).is_zero()
    # without the potential shift the assembled coupling keeps g, and
    # the polynomial form g * assembled - (g-1) * covariant is nonzero
    monkeypatch.setattr(quantum, "potential_shift", lambda ps: Op())
    assert not quantum.g_minus_one_residual(ps).is_zero()
    assert not quantum.g_minus_one_residual(ps, g=sp.Integer(2)).is_zero()


@settings(max_examples=150, deadline=None)
@given(_ops, _ops)
# x1 p1 sigma_1 against x1 p1 sigma_2: contractions in both orders and
# blocks that do not commute
@example(_monomial_op((1, 0, 0, 1, 0, 0), 1, 0),
         _monomial_op((1, 0, 0, 1, 0, 0), 2, 0))
def test_commutator_matches_the_two_product_form(A, B):
    assert commutator(A, B) == ring_oracles.commutator(A, B)


@pytest.mark.parametrize("kind", ["uniform-B", "crossed"])
def test_commutator_matches_the_two_product_form_on_the_realization(kind):
    """Every ordered pair of (xhat_i, Phat_j, S_k): the one-pass
    commutator equals A B - B A, and the reversed pair its negative."""
    ps = quantum.build_operators(kind)
    ops = ps.xhat + ps.Phat + ps.S
    for a, A in enumerate(ops):
        for B in ops[a:]:
            want = ring_oracles.commutator(A, B)
            assert commutator(A, B) == want
            assert commutator(B, A) == -want
