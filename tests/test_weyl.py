"""Exactness of the normal-ordered operator ring."""

import itertools
import random
import re

import numpy as np
import pytest
import sympy as sp
from sympy import QQ, QQ_I, ZZ_I
from sympy.polys.rings import ring
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ring_oracles
from relspin import quantum, weyl
from relspin.weyl import (_CINV_SHIFT, _EXP_MASK, _HBAR_SHIFT, _NAMES, _PAULI_SHIFT,
                          _TIMES, NotDivisible, Op, _conj, _pack, _padd, _pairs_into,
                          _pdiv_ihbar, _psub, _reorder, _term_mul, _unpack, commutator,
                          cross, div_ihbar, dot, matrix_block)
from ring_oracles import (GENERATORS, PAULI_MATRICES, RQ, R, anticommutator,
                          block, canonical_op, cinv, coefficient_of_cinv, e,
                          from_ring_element, g_sym, hbar, is_hermitian, m,
                          matrix_product, minv, random_poly, to_ring, to_ring_element)

I = sp.I


def _pmul(p, q):
    """The block product p q, as Op.scale and Op.__mul__ form it."""
    return _pairs_into({}, p, q, _TIMES)

# blocks I2 and sigma_1..3, each times 1, hbar, cinv or i (polynomial
# dicts of one term): some pairs commute and some do not
I2 = block({0: (1, 0)})
_BASES = (I2,) + tuple(block(*({0: (1, 0)} if s == k else {} for s in range(4)))
                       for k in (1, 2, 3))
_FACTORS = ({0: (1, 0)}, {1 << _HBAR_SHIFT: (1, 0)}, {1 << _CINV_SHIFT: (1, 0)},
            {0: (0, 1)})


def _monomial_op(key, base, factor):
    # the entries are formed in the reference ring, not by weyl
    f = from_ring_element(to_ring_element(_FACTORS[factor]))
    return Op({key: block(*(f if s == base else {} for s in range(4)))})


def _matrices(op):
    """op's blocks as 2x2 entries, key by key."""
    return {k: matrix_block(blk) for k, blk in op.blocks.items()}


def _assert_canonical(op):
    """The representation invariant: den a positive int; each block a
    nonempty dict from packed monomials (non-negative ints with no guard
    bit set and a Pauli index 0-3 above the generators) to pairs of
    Python ints, no zero coefficient stored."""
    assert type(op.den) is int and op.den > 0
    for blk in op.blocks.values():
        assert type(blk) is dict and blk
        for mon, c in blk.items():
            assert type(mon) is int and mon >= 0
            assert not mon & weyl._GUARDS
            assert mon >> _PAULI_SHIFT < 4
            assert type(c) is tuple and len(c) == 2
            assert all(type(v) is int for v in c)
            assert c != (0, 0)


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
                assert val == Op.scalar(to_ring(I * hbar))
            else:
                assert val.is_zero()
            assert commutator(Op.x(i), Op.x(j)).is_zero()
            assert commutator(Op.p(i), Op.p(j)).is_zero()


@pytest.mark.parametrize("axis", [0, -1, 4, 7])
@pytest.mark.parametrize("make", ["x", "p", "sigma"])
def test_constructors_refuse_an_axis_outside_one_to_three(make, axis):
    with pytest.raises(ValueError, match=f"axis {axis}"):
        getattr(Op, make)(axis)


@pytest.mark.parametrize("axis", [True, np.int64(2), np.int64(1), 1.0, 2.0],
                         ids=["bool", "int64-2", "int64-1", "float-1", "float-2"])
@pytest.mark.parametrize("make", ["x", "p", "sigma"])
def test_constructors_refuse_an_axis_that_is_not_an_int(make, axis):
    """An axis is a Python int: True would be x1, and np.int64(2) would
    shift the Pauli index out of the monomial and give the identity
    block, which commutes with sigma_1."""
    with pytest.raises(TypeError, match=re.escape(f"axis {axis!r} ({type(axis).__name__})")):
        getattr(Op, make)(axis)


def test_reorder_identities():
    x1, p1 = Op.x(1), Op.p(1)
    assert p1 * x1 == x1 * p1 - Op.scalar(to_ring(I * hbar))
    # [p, x^2] = -2 i hbar x
    assert commutator(p1, x1 * x1) == x1.scale(to_ring(-2 * I * hbar))
    # [p^2, x] = -2 i hbar p
    assert commutator(p1 * p1, x1) == p1.scale(to_ring(-2 * I * hbar))
    # mixed axes stay untouched
    assert Op.p(2) * Op.x(3) == Op.x(3) * Op.p(2)


def _times_letter(poly, letter, axis):
    """poly, normal-ordered terms {(A, B, k): n} each n (-i hbar)^k
    x^A p^B, times the letter x or p of the 0-based axis on the right.
    x moves left past the p letters of p^B one at a time by the rewrite
    p_i x_j -> x_j p_i - i hbar delta_ij alone: each p_j it passes also
    leaves the word with that p_j and the x removed."""
    out = {}

    def add(A, B, k, n):
        out[A, B, k] = out.get((A, B, k), 0) + n

    for (A, B, k), n in poly.items():
        if letter == "p":
            add(A, B[:axis] + (B[axis] + 1,) + B[axis + 1:], k, n)
            continue
        letters = [i for i in range(3) for _ in range(B[i])]
        for s in reversed(range(len(letters))):
            if letters[s] == axis:
                rest = letters[:s] + letters[s + 1:]
                add(A, tuple(rest.count(i) for i in range(3)), k + 1, n)
        add(A[:axis] + (A[axis] + 1,) + A[axis + 1:], B, k, n)
    return out


def _rewritten(*factors):
    """The word x^a p^b x^c p^d ... of factors ("x", a), ("p", b), ...
    (exponent triples) in normal order, as an Op with blocks n I2."""
    poly = {((0, 0, 0), (0, 0, 0), 0): 1}
    for letter, exps in factors:
        for axis in range(3):
            for _ in range(exps[axis]):
                poly = _times_letter(poly, letter, axis)
    blocks = {}
    for (A, B, k), n in poly.items():
        z = n * (-1j) ** k
        blocks[A + B] = block({_pack((k,) + (0,) * 10): (int(z.real), int(z.imag))})
    return Op(blocks)


def _on_axis(t, n):
    return tuple(n if s == t else 0 for s in range(3))


def test_normal_ordering_matches_a_word_rewriter():
    """Op products against the letter-by-letter rewrite p_i x_j ->
    x_j p_i - i hbar delta_ij, which shares no text with weyl's
    contraction table: x^a p^b . x^c p^d with every exponent 0-3 on each
    single axis, with its commutator and the adjoint of x^a p^b; then
    p^b . x^c with b and c over every per-axis exponent 0-3 on all three
    axes at once."""
    for t in range(3):
        for a, b, c, d in itertools.product(range(4), repeat=4):
            a, b, c, d = (_on_axis(t, n) for n in (a, b, c, d))
            X, Y = Op({a + b: I2}), Op({c + d: I2})
            XY = _rewritten(("x", a), ("p", b), ("x", c), ("p", d))
            got = X * Y
            assert (_matrices(got), got.den) == (_matrices(XY), 1), (a, b, c, d)
            YX = _rewritten(("x", c), ("p", d), ("x", a), ("p", b))
            assert commutator(X, Y) == XY - YX, (a, b, c, d)
            assert _matrices(X.adjoint()) == _matrices(
                _rewritten(("p", b), ("x", a))), (a, b)
    zero = (0, 0, 0)
    for b in itertools.product(range(4), repeat=3):
        for c in itertools.product(range(4), repeat=3):
            got = Op({zero + b: I2}) * Op({c + zero: I2})
            assert _matrices(got) == _matrices(_rewritten(("p", b), ("x", c))), (b, c)


def _keys_up_to_degree(n):
    return [k for k in itertools.product(range(n + 1), repeat=6) if sum(k) <= n]


def test_the_cached_normal_ordering_table_reads_the_same_twice():
    """_reorder is a cached table: every pair of keys x^a p^b, x^c p^d of
    total degree up to 3 each, read once into an empty cache and once
    from it, gives the same tuple both times (a cached generator would
    be empty on its second read), and that tuple is the word rewriter's
    normal form of x^a p^b x^c p^d."""
    _reorder.cache_clear()
    keys = _keys_up_to_degree(3)
    for ka in keys:
        for kb in keys:
            first, second = _reorder(ka, kb), _reorder(ka, kb)
            assert type(first) is tuple and first == second and first, (ka, kb)
            got = Op({key: I2 if coeff is None else block({coeff[0]: coeff[1:]})
                      for key, coeff in first})
            want = _rewritten(("x", ka[:3]), ("p", ka[3:]), ("x", kb[:3]), ("p", kb[3:]))
            assert _matrices(got) == _matrices(want), (ka, kb)
    assert _reorder.cache_info().hits >= len(keys) ** 2


@pytest.mark.parametrize("kind", quantum.FIELD_KINDS)
def test_a_commutator_of_used_operators_equals_that_of_fresh_copies(kind):
    """Each Op keeps the block plan that commutator derives from it on
    first use: after the report's 36 commutators, every commutator of
    xhat_i, Phat_j and S_k, taken twice, is the one of fresh copies of
    its operands, den and every coefficient alike."""
    ps = quantum.build_operators(kind)
    quantum.correspondence_residuals(ps)
    ops = ps.xhat + ps.Phat + ps.S
    for A in ops:
        for B in ops:
            want = canonical_op(commutator(Op(A.blocks, A.den), Op(B.blocks, B.den)))
            assert canonical_op(commutator(A, B)) == want
            assert canonical_op(commutator(A, B)) == want


def test_every_operator_the_ring_returns_goes_through_op_init(monkeypatch):
    """perfbench counts Op constructions (the weyl.op_init layer and
    work.op_inits) by wrapping Op.__init__.  Every Op that commutator,
    div_ihbar, scale, +, - and * return, over the reports and identities
    of every realization, went through it.  An Op made past it would be
    missed by the count, and the same check fails on one: the control
    adds an Op built by object.__new__ to the returned ones."""
    inited, returned = [], []   # every Op stays alive, so no id is reused
    init = Op.__init__

    def counted_init(self, *args, **kwargs):
        inited.append(self)
        init(self, *args, **kwargs)

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            returned.append((name, out))
            return out
        return wrapper

    monkeypatch.setattr(Op, "__init__", counted_init)
    for name in ("scale", "__add__", "__sub__", "__mul__"):
        monkeypatch.setattr(Op, name, recorded(name, vars(Op)[name]))
    for name in ("commutator", "div_ihbar"):
        wrapper = recorded(name, getattr(weyl, name))
        monkeypatch.setattr(weyl, name, wrapper)
        monkeypatch.setattr(quantum, name, wrapper)
    for kind in quantum.FIELD_KINDS:
        ps = quantum.build_operators(kind)
        quantum.correspondence_report(kind)
        quantum.shift_identity_residual(ps)
        quantum.g_minus_one_residual(ps)
    assert {name for name, _ in returned} == {"scale", "__add__", "__sub__", "__mul__",
                                              "commutator", "div_ihbar"}

    def all_counted():
        ids = {id(op) for op in inited}
        return all(id(op) in ids for _, op in returned)

    assert all_counted()
    returned.append(("control", object.__new__(Op)))
    assert not all_counted()


def test_adjoint():
    x1, p1 = Op.x(1), Op.p(1)
    a = x1 * p1
    assert a.adjoint() == p1 * x1
    assert a.adjoint() == a - Op.scalar(to_ring(I * hbar))
    assert not is_hermitian(a)
    sym = (a + a.adjoint()).scale(to_ring(sp.Rational(1, 2)))
    assert is_hermitian(sym)
    # involution
    b = Op.sigma(2) * p1 + x1.scale(to_ring(3 * cinv))
    assert b.adjoint().adjoint() == b
    # anti-automorphism: (AB)^+ = B^+ A^+
    c = Op.sigma(1) * Op.p(2)
    assert (b * c).adjoint() == c.adjoint() * b.adjoint()


def test_non_hermitian_counterexample():
    assert not is_hermitian(Op.x(1).scale(to_ring(I)))
    assert is_hermitian(Op.x(1))
    assert is_hermitian(Op.sigma(2))


def test_pauli_algebra():
    s1, s2, s3 = Op.sigma(1), Op.sigma(2), Op.sigma(3)
    assert commutator(s1, s2) == s3.scale(to_ring(2 * I))
    assert anticommutator(s1, s2).is_zero()
    assert s1 * s1 == Op.scalar(1)
    # sigma commutes with x and p
    assert commutator(s3, Op.x(1) * Op.p(1)).is_zero()


def test_min_cinv_order_and_coefficient():
    a = Op.scalar(to_ring(3 * cinv**2 + cinv**4))
    assert a.min_cinv_order() == 2
    assert coefficient_of_cinv(a, 2) == Op.scalar(3)
    assert coefficient_of_cinv(a, 3).is_zero()
    assert Op.x(1).min_cinv_order() == 0
    assert Op().min_cinv_order() is None
    assert (a - a).min_cinv_order() is None


@pytest.mark.parametrize("bad, error, named", [
    ((Op.x(1), Op.x(2)), ValueError, "not a tuple of 2"),
    ((Op.x(1), Op.x(2), Op.x(3), Op.x(1)), ValueError, "not a tuple of 4"),
    ([Op.x(1), Op.x(2), Op.x(3)], TypeError, "not list"),
], ids=["short", "long", "list"])
def test_dot_and_cross_refuse_an_operand_that_is_not_a_3_tuple(bad, error, named):
    """dot would zip away the components past the shorter operand, and
    cross drop a fourth or fail on a short one by index: both name the
    operand that is not a 3-tuple instead."""
    good = (Op.p(1), Op.p(2), Op.p(3))
    for fn in (dot, cross):
        for args, which in (((bad, good), "first"), ((good, bad), "second")):
            with pytest.raises(error, match=f"the {which} operand of {fn.__name__} .*{named}$"):
                fn(*args)


def test_commutator_and_division_by_ihbar_take_a_scalar_operand():
    """An int or a cleared pair is an operand as Op.scalar reads it:
    [A, c] and [c, A] are the zero Op, c / (i hbar) is exact or
    NotDivisible; anything else is refused with Op.scalar's TypeError
    naming its type."""
    A = Op.x(1) * Op.p(1) + Op.sigma(2)
    for c in (3, 0, to_ring(hbar / 2)):
        assert commutator(A, c).is_zero() and commutator(c, A).is_zero()
        assert commutator(A, c) == commutator(A, Op.scalar(c))
    with pytest.raises(NotDivisible, match=r"^3 is not divisible by i\*hbar$"):
        div_ihbar(3)
    assert div_ihbar(0).is_zero()
    assert div_ihbar(to_ring(hbar / 2)) == Op.scalar(to_ring(-I / 2))
    for bad in (0.5, "x1", None):
        for call in (lambda: commutator(A, bad), lambda: commutator(bad, A),
                     lambda: div_ihbar(bad)):
            with pytest.raises(TypeError, match=f"not {type(bad).__name__}$"):
                call()


def test_dot_and_cross_helpers():
    xs = (Op.x(1), Op.x(2), Op.x(3))
    ps = (Op.p(1), Op.p(2), Op.p(3))
    lz = cross(xs, ps)[2]
    assert lz == Op.x(1) * Op.p(2) - Op.x(2) * Op.p(1)
    # L is hermitian even without symmetrization because the crossed
    # factors live on different axes
    assert is_hermitian(lz)
    r2 = dot(xs, xs)
    assert r2 == Op.x(1) * Op.x(1) + Op.x(2) * Op.x(2) + Op.x(3) * Op.x(3)
    # x . p - p . x = 3 i hbar
    assert dot(xs, ps) - dot(ps, xs) == Op.scalar(to_ring(3 * I * hbar))


def test_linear_structure():
    x1 = Op.x(1)
    assert x1.scale(2) == x1 + x1
    assert (x1 - x1).is_zero()
    assert (x1 + 1) - 1 == x1
    assert (1 + x1) == x1 + 1
    assert (2 * x1) == x1.scale(2)
    assert (-x1) + x1 == Op()


def test_the_zero_op_has_den_1():
    """An Op with no blocks has den 1 whatever den it is given, so a
    zero operand leaves the den of a sum as it is, and a commutator
    that vanishes has den 1 too."""
    assert Op({}, 7).den == Op({(0,) * 6: {}}, 7).den == 1
    total = Op.x(1) + Op().scale(({}, 16))
    assert (total.blocks, total.den) == (Op.x(1).blocks, 1)
    for kind in quantum.FIELD_KINDS:
        xhat1 = quantum.build_operators(kind).xhat[0]
        zero = commutator(xhat1, xhat1)
        assert (zero.blocks, zero.den) == ({}, 1), kind


def test_an_op_is_unhashable():
    # an Op is compared by value, through __eq__, and is never a dict key
    with pytest.raises(TypeError):
        hash(Op.x(1))


def test_sympy_boundary_round_trip():
    # sympy in through the test-side reader (m read as 1/minv), text out
    # through repr, which writes each term by the generator names and
    # each coefficient over den in lowest terms
    op = Op.scalar(to_ring(hbar * cinv**2 / (4 * m**2)))
    assert _matrices(op) == {(0,) * 6: ({_pack((1, 2, 2) + (0,) * 8): (1, 0)}, {}, {},
                                        {_pack((1, 2, 2) + (0,) * 8): (1, 0)})}
    assert op.den == 4
    assert repr(op) == ("Op([1] [[1/4*hbar*cinv^2*minv^2, 0], "
                        "[0, 1/4*hbar*cinv^2*minv^2]])")
    mixed = Op.x(1) * Op.p(2) * Op.sigma(2).scale(to_ring((1 - 2 * I) / 3 * e - 3 * g_sym))
    assert repr(mixed) == ("Op([x1 p2] [[0, (-2-1i)/3*e + 3i*g], "
                           "[(2+1i)/3*e - 3i*g, 0]])")
    assert repr(Op()) == "Op(0)"


# exact scalars whose denominators are not powers of two, some of them
# Gaussian, so that an Op's den holds factors 3 and 5 as well as 2
_QS = (sp.Rational(1, 3), I / 6, sp.Rational(2, 5), sp.Rational(-7, 12),
       sp.Rational(3, 4) - I / 9)


@settings(max_examples=60, deadline=None)
@given(_ops, _ops, st.sampled_from(_QS), st.sampled_from(_QS))
def test_non_dyadic_and_gaussian_scalars_stay_exact(A, B, q, r):
    Aq, Br = A.scale(to_ring(q)), B.scale(to_ring(r))
    assert Aq.scale(to_ring(1 / q)) == A
    assert A.is_zero() or Aq != A
    # a sum brings both dens to one: S / S.den = Aq / Aq.den + Br / Br.den
    # entry by entry, cross-multiplied in the reference ring
    S = Aq + Br
    for k in set(S.blocks) | set(Aq.blocks) | set(Br.blocks):
        for s, a, b in zip(*(matrix_block(op.blocks.get(k, {})) for op in (S, Aq, Br))):
            assert (to_ring_element(s) * (Aq.den * Br.den)
                    == (to_ring_element(a) * Br.den + to_ring_element(b) * Aq.den)
                    * S.den), k
    assert Aq.adjoint().adjoint() == Aq
    assert Aq.adjoint() == A.adjoint().scale(to_ring(sp.conjugate(q)))
    assert commutator(Aq, Br) == commutator(A, B).scale(to_ring(q * r))
    for op in (Aq, Br, S, Aq * Br, commutator(Aq, Br), Aq.adjoint(),
               div_ihbar(Aq.scale(to_ring(hbar))), -Aq, Aq - Br):
        _assert_canonical(op)


def test_a_denominator_past_double_precision_is_kept():
    # negative control for the one-den representation: 1/3 and
    # 1/3 + 2^-60 agree to 18 digits and are still different scalars
    A = Op.x(1) * Op.p(2) + Op.sigma(3)
    third, near = to_ring(sp.Rational(1, 3)), to_ring(sp.Rational(1, 3) + sp.Rational(1, 2**60))
    assert A.scale(third) != A.scale(near)
    assert A.scale(third).den * 2**60 <= A.scale(near).den


@pytest.mark.parametrize("other", [None, 0.5, "x1", (1, 2), object()],
                         ids=["None", "float", "str", "tuple", "object"])
def test_equality_with_a_foreign_operand_is_false(other):
    """== with what is not an Op, an int or a cleared pair returns
    NotImplemented, so it reads False and != True, and an Op can be
    looked up in a list; equality with ints, cleared pairs and Ops is
    unchanged."""
    x1 = Op.x(1)
    assert x1.__eq__(other) is NotImplemented
    assert not x1 == other and x1 != other and not other == x1
    assert x1 not in [other] and x1 in [other, Op.x(1)]
    assert Op.scalar(3) == 3 and Op.scalar(to_ring(hbar / 2)) == to_ring(hbar / 2)
    assert x1 == Op.x(1) and x1 != Op.x(2) and x1 != 0


@pytest.mark.parametrize("value", [0.1 * 3, 1 / 3, 0.5 * hbar, sp.Float(2),
                                   1 + 0.5j, cinv + sp.Float("0.25")],
                         ids=["0.1*3", "1/3", "0.5*hbar", "Float(2)", "complex",
                              "cinv+Float"])
def test_to_ring_refuses_floats(value):
    """sympy would round a float to a rational: the test-side reader
    refuses it and names the value.  The ring takes an int or a cleared
    pair only: Op.scalar, Op.scale and Op + x refuse a float, a complex
    and a sympy expression with a TypeError naming the type."""
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        to_ring(value)
    for refuse in (Op.scalar, Op.x(1).scale, Op.x(1).__add__):
        with pytest.raises(TypeError, match=f"not {type(value).__name__}$"):
            refuse(value)


def test_to_ring_refuses_an_element_of_another_ring():
    """A sympy ring element, of any ring, the reader's own included, is
    not a scalar of the operator ring: Op.scalar and Op.scale refuse it,
    and a tuple that is no (dict, den) pair, with a TypeError naming the
    type.  The reader's cleared pair of the same value passes."""
    x = ring("x", QQ)[1]
    for value in (x + 1, ring("x y", QQ_I)[1] + 1, R.gens[0], RQ.gens[0] / 2):
        for refuse in (Op.scalar, Op.x(1).scale):
            with pytest.raises(TypeError, match="not PolyElement$"):
                refuse(value)
    with pytest.raises(TypeError, match="not tuple$"):
        Op.x(1).scale((1, 2))
    assert Op.x(1).scale(to_ring(hbar / 2)) == Op.x(1).scale(to_ring(hbar)).scale(
        to_ring(sp.Rational(1, 2)))


_ONE = ({0: (1, 0)}, 1)


@pytest.mark.parametrize("pair, error, named", [
    (({0: (1, 0)}, 0), ValueError, "not 0"),
    (({0: (1, 0)}, -2), ValueError, "not -2"),
    (({0: (1, 0)}, 2.0), TypeError, "not 2.0"),
    (({0: (1.5, 0)}, 1), TypeError, "not (1.5, 0)"),
    (({0: (1, 0, 0)}, 1), TypeError, "not (1, 0, 0)"),
    (({-1: (1, 0)}, 1), ValueError, "key -1 "),
    (({1 << 11: (1, 0)}, 1), ValueError, "key 2048 "),
    (({1 << _PAULI_SHIFT: (1, 0)}, 1), ValueError, f"key {1 << _PAULI_SHIFT} "),
    (({0: (0, 0)}, 1), ValueError, "key 0 stores the zero coefficient"),
], ids=["den-0", "den-negative", "den-float", "float-coefficient",
        "three-part-coefficient", "negative-key", "guard-bit-key", "pauli-bit-key",
        "zero-coefficient"])
def test_malformed_cleared_pairs_are_refused(pair, error, named):
    """Op.scalar, Op.scale and Op + x refuse a pair whose den is not a
    positive int, whose key is not a packed monomial or whose
    coefficient is not a nonzero pair of ints, naming the part; a
    well-formed pair passes."""
    for refuse in (Op.scalar, Op.x(1).scale, Op.x(1).__add__, Op.x(1).__sub__):
        with pytest.raises(error, match=re.escape(named)):
            refuse(pair)
    assert Op.scalar(_ONE) == Op.scalar(1) and Op.x(1).scale(_ONE) == Op.x(1)


@pytest.mark.parametrize("den, error", [(0, ValueError), (-2, ValueError),
                                        (1.5, TypeError), (2.0, TypeError),
                                        (True, TypeError)],
                         ids=["zero", "negative", "float", "integral-float", "bool"])
def test_an_op_refuses_a_den_that_is_not_a_positive_int(den, error):
    """Op(blocks, den) names a den that is not a positive int at once,
    instead of a ZeroDivisionError or TypeError at the first sum or a
    negative den taken without a word."""
    with pytest.raises(error, match=f"not {re.escape(repr(den))}$"):
        Op({(0,) * 6: I2}, den)
    assert Op({(0,) * 6: I2}, 3).den == 3


def test_to_ring_takes_exact_values():
    assert to_ring(3) == to_ring(sp.Integer(3)) == ({0: (3, 0)}, 1)
    assert Op.x(1).scale(to_ring(sp.Rational(3, 10))) == Op.x(1).scale(3).scale(
        to_ring(sp.Rational(1, 10)))
    assert Op.scalar(to_ring(I * hbar / 2)) == Op.scalar(to_ring(hbar)).scale(
        to_ring(I)).scale(to_ring(sp.Rational(1, 2)))
    assert (Op.scalar(to_ring(cinv / m)) * Op.scalar(to_ring(2 / m))
            == Op.scalar(to_ring(2 * cinv / m**2)))
    # the ring itself reads no sympy value, exact ones included
    for value in (sp.Integer(3), hbar, I):
        with pytest.raises(TypeError, match=f"not {type(value).__name__}$"):
            Op.scalar(value)


def test_division_by_ihbar_names_a_term_without_hbar():
    """NotDivisible, an ArithmeticError, names the polynomial by the
    generators; the terms with hbar do not rescue one without."""
    no_hbar = {_pack((0, 2) + (0,) * 9): (3, -1)}
    with pytest.raises(NotDivisible, match=re.escape("(3-1i)*cinv^2 is not divisible by i*hbar")):
        _pdiv_ihbar(no_hbar)
    with_hbar = {_pack((1,) + (0,) * 10): (0, 2)}
    assert _pdiv_ihbar(with_hbar) == {0: (2, 0)}
    with pytest.raises(ArithmeticError):
        _pdiv_ihbar(_padd(no_hbar, with_hbar))


def test_g_minus_one_residual_sees_a_wrong_assembly(monkeypatch):
    ps = quantum.build_operators("uniform-E")
    assert quantum.g_minus_one_residual(ps).is_zero()
    # without the potential shift the assembled coupling keeps g, and
    # the polynomial form g * assembled - (g-1) * covariant is nonzero
    monkeypatch.setattr(quantum, "potential_shift", lambda ps: Op())
    assert not quantum.g_minus_one_residual(ps).is_zero()


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


# -- the coefficient arithmetic against sympy's ZZ_I ring ----------------


def _random_pairs(seed, n=300):
    rng = random.Random(seed)
    return [(random_poly(rng), random_poly(rng)) for _ in range(n)]


def _conj_reference(r):
    return R.from_dict({mon: ZZ_I(c.x, -c.y) for mon, c in r.items()})


def test_round_trip_through_the_reference_ring():
    for p, _ in _random_pairs(0, 100):
        assert from_ring_element(to_ring_element(p)) == p
        for mon in p:
            assert _pack(_unpack(mon)) == mon


@pytest.mark.parametrize("seed", [1, 2])
def test_polynomial_arithmetic_matches_the_reference_ring(seed):
    """Products, sums, differences, negation and conjugation of seeded
    random Gaussian-integer polynomials, on dicts and in R."""
    for p, q in _random_pairs(seed):
        rp, rq = to_ring_element(p), to_ring_element(q)
        assert _pmul(p, q) == from_ring_element(rp * rq)
        assert _padd(p, q) == from_ring_element(rp + rq)
        assert _psub(p, q) == from_ring_element(rp - rq)
        assert _psub({}, p) == from_ring_element(-rp)
        assert _conj(p) == from_ring_element(_conj_reference(rp))
        for mon, (re, im) in q.items():
            assert _term_mul(p, mon, re, im) == from_ring_element(
                rp * R({_unpack(mon): ZZ_I(re, im)}))


def test_products_that_cancel_store_no_zero():
    # (a + b)(a - b) = a^2 - b^2: the cross terms meet on one monomial
    a, b = {1 << _HBAR_SHIFT: (1, 2)}, {1 << _CINV_SHIFT: (0, 3)}
    prod = _pmul(_padd(a, b), _psub(a, b))
    assert prod == _psub(_pmul(a, a), _pmul(b, b))
    assert len(prod) == 2
    assert _padd(a, _psub({}, a)) == {}
    p = _padd(a, b)
    assert _psub(p, p) == {}
    i = {0: (0, 1)}
    assert _psub(_padd(p, i), p) == i
    # (hbar + cinv + hbar cinv)(hbar - cinv + 1): hbar (-cinv) and cinv hbar
    # cancel on hbar cinv, then (hbar cinv) 1 lands there again
    hc = (1 << _HBAR_SHIFT) + (1 << _CINV_SHIFT)
    p = {1 << _HBAR_SHIFT: (1, 0), 1 << _CINV_SHIFT: (1, 0), hc: (1, 0)}
    q = {1 << _HBAR_SHIFT: (1, 0), 1 << _CINV_SHIFT: (-1, 0), 0: (1, 0)}
    prod = _pmul(p, q)
    assert prod == from_ring_element(to_ring_element(p) * to_ring_element(q))
    assert prod[hc] == (1, 0) and (0, 0) not in prod.values()


@pytest.mark.parametrize("kind", ["uniform-B", "crossed"])
def test_differences_of_the_realization_store_no_zero(kind):
    """A - A has no block, and A - B, formed with no negated copy of B,
    equals A + (-B) block for block, for every pair of the xhat, Phat
    and S operators."""
    ps = quantum.build_operators(kind)
    ops = ps.xhat + ps.Phat + ps.S
    for A in ops:
        assert (A - A).blocks == {}
        for B in ops:
            diff, via_neg = A - B, A + (-B)
            assert (diff.blocks, diff.den) == (via_neg.blocks, via_neg.den)
            _assert_canonical(diff)


def test_division_by_ihbar_names_the_whole_polynomial_when_the_bad_term_is_last():
    """The hbar-free term comes after a divisible one: the one-pass
    division still raises, naming every term."""
    p = {_pack((1,) + (0,) * 10): (0, 2), _pack((0, 2) + (0,) * 9): (3, -1)}
    with pytest.raises(NotDivisible, match=re.escape(
            "2i*hbar + (3-1i)*cinv^2 is not divisible by i*hbar")):
        _pdiv_ihbar(p)


def _reference_block_mul(A, B):
    return matrix_product(*([to_ring_element(u) for u in matrix_block(blk)]
                            for blk in (A, B)))


_Z = (0,) * 6


def _block_mul(A, B):
    """The block product A B, through the Op product at the key 1."""
    return (Op({_Z: A}) * Op({_Z: B})).blocks.get(_Z, {})


def _block_commutator(A, B):
    """[A, B] of two blocks, through the one-pass commutator at the key 1."""
    return commutator(Op({_Z: A}), Op({_Z: B})).blocks.get(_Z, {})


def test_pauli_blocks_match_the_reference_matrices():
    """matrix_block writes I2 and sigma_1..3 as the Pauli matrices, and
    every product of two of them, and every commutator, is the product
    or commutator of the matrices: sigma_i sigma_j = delta_ij I + i
    eps_ijk sigma_k in the stored basis, the Pauli index of a term."""
    for blk, want in zip(_BASES, PAULI_MATRICES):
        assert matrix_block(blk) == tuple(map(from_ring_element, want))
    for A, a in zip(_BASES, PAULI_MATRICES):
        for B, b in zip(_BASES, PAULI_MATRICES):
            AB, BA = matrix_product(a, b), matrix_product(b, a)
            assert matrix_block(_block_mul(A, B)) == tuple(map(from_ring_element, AB))
            assert matrix_block(_block_commutator(A, B)) == tuple(
                from_ring_element(x - y) for x, y in zip(AB, BA))
    s1, s2, s3 = _BASES[1:]
    assert _block_mul(s1, s2) == block({}, {}, {}, {0: (0, 1)})
    assert _block_commutator(s3, s1) == block({}, {}, {0: (0, 2)}, {})


@pytest.mark.parametrize("seed", [3, 4])
def test_block_products_match_the_reference_ring(seed):
    rng = random.Random(seed)
    for _ in range(100):
        A = tuple(random_poly(rng, 2) for _ in range(4))
        B = tuple(random_poly(rng, 2) for _ in range(4))
        # blocks with no sigma part, whose commutator pass skips every term
        if rng.random() < 0.3:
            A = (A[0], {}, {}, {})
        A, B = block(*A), block(*B)
        AB, BA = _reference_block_mul(A, B), _reference_block_mul(B, A)
        assert matrix_block(_block_mul(A, B)) == tuple(map(from_ring_element, AB))
        assert matrix_block(_block_commutator(A, B)) == tuple(
            from_ring_element(x - y) for x, y in zip(AB, BA))


def _random_op(rng, hbar_in_every_term=False):
    blocks = {}
    for _ in range(rng.randint(1, 3)):
        key = tuple(rng.randint(0, 1) for _ in range(6))
        blk = block(*(random_poly(rng, 2) for _ in range(4)))
        if hbar_in_every_term:
            blk = _term_mul(blk, 1 << _HBAR_SHIFT, 1, 0)
        blocks[key] = blk
    return Op(blocks, rng.randint(1, 6))


def test_cinv_order_and_division_by_ihbar_match_the_reference_ring():
    """The 2x2 entries hold every monomial of the four polynomials of a
    block, as u0 +- u3 and u1 -+ i u2 cannot both cancel one."""
    rng = random.Random(5)
    ihbar = R.from_expr(I * hbar)
    for _ in range(150):
        op = _random_op(rng, hbar_in_every_term=rng.random() < 0.7)
        entries = [to_ring_element(u) for blk in op.blocks.values()
                   for u in matrix_block(blk)]
        want = min((mon[1] for r in entries for mon in r), default=None)
        assert op.min_cinv_order() == want
        if all(mon[0] for r in entries for mon in r):
            got = div_ihbar(op)
            assert got.den == op.den
            for blk, gblk in zip(op.blocks.values(), got.blocks.values()):
                assert matrix_block(gblk) == tuple(
                    from_ring_element(to_ring_element(u).exquo(ihbar))
                    for u in matrix_block(blk))
        else:
            with pytest.raises(NotDivisible):
                div_ihbar(op)


def test_coefficient_of_cinv_reads_the_cinv_field_alone():
    # cinv^2 minv + 3 cinv^2 hbar - i cinv: order 2 keeps minv and hbar
    a = Op.scalar(to_ring(cinv**2 / m + 3 * cinv**2 * hbar - I * cinv))
    assert coefficient_of_cinv(a, 2) == Op.scalar(to_ring(1 / m + 3 * hbar))
    assert coefficient_of_cinv(a, 1) == Op.scalar(to_ring(-I))
    assert coefficient_of_cinv(a, 0).is_zero()


def test_an_exponent_past_its_field_raises_instead_of_carrying():
    """2^11 - 1 is the largest exponent; one more sets the field's guard
    bit, which the product refuses, instead of adding one to the next
    generator (cinv^2048 would otherwise read as minv) or, for E3, to
    the Pauli index of a block's term."""
    top = Op.scalar(to_ring(cinv**_EXP_MASK))
    assert top.min_cinv_order() == _EXP_MASK
    with pytest.raises(OverflowError, match="cinv"):
        top * Op.scalar(to_ring(cinv))
    with pytest.raises(OverflowError, match="cinv"):
        top.scale(to_ring(cinv))
    with pytest.raises(OverflowError, match="hbar"):
        # the contraction of p1 with x1 carries one more hbar
        commutator(Op.p(1).scale(to_ring(hbar**_EXP_MASK)), Op.x(1))
    with pytest.raises(OverflowError, match="minv"):
        Op.scalar(to_ring(minv**(_EXP_MASK + 1)))
    with pytest.raises(OverflowError):
        _pack((0, _EXP_MASK + 1) + (0,) * 9)
    # the largest exponents of two generators side by side stay apart
    both = Op.scalar(to_ring(cinv**_EXP_MASK)) * Op.scalar(to_ring(minv**_EXP_MASK))
    (mon,) = both.blocks[(0,) * 6]
    assert _unpack(mon)[1:3] == (_EXP_MASK, _EXP_MASK)

    # the Pauli index sits in two bits above E3's guard bit: sigma_k
    # sigma_k at the top exponent of cinv, or of E3 right below the Pauli
    # bits, still raises naming the generator alone, in a product and in
    # a commutator; sigma_k sigma_l = +-i sigma_n with every generator at
    # its top exponent keeps every exponent, and _unpack of a sigma term
    # reads the generators only
    every_top = to_ring(sp.Mul(*(gen**_EXP_MASK for gen in GENERATORS)))
    for k in (1, 2, 3):
        for name in ("cinv", "E3"):
            gen = GENERATORS[_NAMES.index(name)]
            top = Op.sigma(k).scale(to_ring(gen**_EXP_MASK))
            with pytest.raises(OverflowError, match=f"exponent field of {name}$"):
                top * Op.sigma(k).scale(to_ring(gen))
            with pytest.raises(OverflowError, match=f"exponent field of {name}$"):
                commutator(top, Op.sigma(k % 3 + 1).scale(to_ring(gen)))
        l, n = k % 3 + 1, (k + 1) % 3 + 1
        for a, b, phase in ((k, l, (0, 1)), (l, k, (0, -1))):
            got = Op.sigma(a).scale(every_top) * Op.sigma(b)
            (mon, c), = got.blocks[(0,) * 6].items()
            assert (_unpack(mon), mon >> _PAULI_SHIFT, c) == ((_EXP_MASK,) * 11, n, phase)
            assert _unpack(mon) == _unpack(mon - (n << _PAULI_SHIFT))


# the text of a realization operator with sigma parts and den 8, and of
# a failed division by i hbar, pinned so that neither drifts with the
# ring's internal layout
_CROSSED_XHAT1 = (
    "Op([p3] [[0, -1i/4*hbar*cinv^2*minv^2], [1i/4*hbar*cinv^2*minv^2, 0]]"
    " + [p2] [[-1/4*hbar*cinv^2*minv^2, 0], [0, 1/4*hbar*cinv^2*minv^2]]"
    " + [x3] [[-1/8*hbar*cinv^3*minv^2*e*B1, 0], [0, 1/8*hbar*cinv^3*minv^2*e*B1]]"
    " + [x2] [[0, 1i/8*hbar*cinv^3*minv^2*e*B1], [-1i/8*hbar*cinv^3*minv^2*e*B1, 0]]"
    " + [x1] [[1 + 1/8*hbar*cinv^3*minv^2*e*B3, -1i/8*hbar*cinv^3*minv^2*e*B2],"
    " [1i/8*hbar*cinv^3*minv^2*e*B2, 1 - 1/8*hbar*cinv^3*minv^2*e*B3]])")


def test_repr_of_a_realization_operator_is_pinned():
    xhat1 = quantum.build_operators("crossed").xhat[0]
    assert xhat1.den == 8
    assert repr(xhat1) == _CROSSED_XHAT1


@pytest.mark.parametrize("extra, pauli, named", [
    (0, 0, "3i*hbar + 1*cinv"),
    (e, 3, "3i*hbar + 1*cinv"),
    (minv + hbar, 0, "1*hbar + 1*minv"),
], ids=["one-part", "sigma3-part-too", "identity-part-too"])
def test_a_failed_division_by_ihbar_names_the_sigma_part_that_fails(extra, pauli, named):
    """hbar sigma_1 divides; the sigma_2 part 3i hbar + cinv does not, and
    the message names that part whole, its divisible term included.  Of
    two parts that fail, it names the first in the order I, sigma_1..3."""
    op = (Op.sigma(2).scale(to_ring(cinv)) + Op.sigma(1).scale(to_ring(hbar))
          + Op.sigma(2).scale(to_ring(3 * I * hbar)))
    op = op + (Op.sigma(pauli) if pauli else Op.scalar(1)).scale(to_ring(extra))
    with pytest.raises(NotDivisible) as exc:
        div_ihbar(op)
    assert str(exc.value) == f"{named} is not divisible by i*hbar"
