"""Normal-ordered operator algebra for the Pauli-level realization.

Operators are finite sums of monomials

    x1^a1 x2^a2 x3^a3  p1^b1 p2^b2 p3^b3  M

with every position factor to the left of every momentum factor and a
2x2 coefficient block M.  An Op stores each block as four sparse
polynomials of one ring

    R = ZZ_I[hbar, cinv, minv, e, g, B1, B2, B3, E1, E2, E3]

(sympy.polys.rings): Gaussian-integer coefficients, real generators,
cinv = 1/c and minv = 1/m, plus one positive integer den shared by all
its blocks; the operator is blocks / den.  Every quantity of the
realization is a polynomial with Gaussian-rational coefficients, so it
is exactly one such pair: a product multiplies the dens, a sum brings
both operands to the lcm of theirs, and zero tests, the conjugation of
the adjoint and the cinv grading read the integer blocks as they are.
No rational arithmetic runs inside a sum, a product or a commutator.
Products are reduced to the normal form with the one-axis identity

    p^n x^m = sum_k  C(n,k) C(m,k) k! (-i hbar)^k  x^{m-k} p^{n-k}

applied axis by axis (different axes commute; blocks commute with
x and p).  The commutator is one pass over the monomial pairs, not two
products: the uncontracted terms of A B and B A differ only in the
block order, so they cancel where either block is scalar and leave
[Ma, Mb] otherwise.  With cinv a generator,
"order in 1/c" is the least cinv exponent among the monomials, which
is how the correspondence with the classical brackets is graded.

Gaussian rationals remain at the boundary only.  to_ring reads a
sympy expression (m -> 1/minv) into RQ, the same generators over QQ_I;
Op.scalar and Op.scale clear a scalar's denominator once, into an R
element and an integer; the Op.terms view divides by den in RQ and
writes minv back as 1/m.
"""

from __future__ import annotations

from math import comb, factorial, lcm

import sympy as sp
from sympy import QQ, QQ_I, ZZ_I
from sympy.polys.rings import PolyElement, ring

hbar, cinv, m, e = sp.symbols("hbar cinv m e", real=True)
minv = sp.Symbol("minv", real=True)
g_sym = sp.Symbol("g", real=True)
B_SYM = sp.symbols("B1 B2 B3", real=True)
E_SYM = sp.symbols("E1 E2 E3", real=True)

_GENERATORS = (hbar, cinv, minv, e, g_sym) + B_SYM + E_SYM
R = ring(_GENERATORS, ZZ_I)[0]
RQ = ring(_GENERATORS, QQ_I)[0]
_CINV = R.symbols.index(cinv)


def to_ring(expr):
    """expr as an element of RQ; a sympy expression is read with m -> 1/minv
    and must then be a polynomial in the generators.  A ring element is
    returned as it is.  ValueError for a value that is or contains a
    float, which sympy would round to a rational without a word."""
    if isinstance(expr, PolyElement):
        return expr
    val = sp.sympify(expr)
    if val.has(sp.Float):
        raise ValueError(f"to_ring takes exact values only, got the float {expr!r}")
    return RQ.from_expr(val.xreplace({m: 1 / minv}))


def _cleared(c):
    """(u, den) with c = u / den, u in R and den a positive int; c is an
    element of RQ or R."""
    if c.ring is R:
        return c, 1
    den = 1
    for q in c.values():
        den = lcm(den, q.x.denominator, q.y.denominator)
    return R.from_dict({mon: ZZ_I(q.x.numerator * (den // q.x.denominator),
                                  q.y.numerator * (den // q.y.denominator))
                        for mon, q in c.items()}), den


I2 = (R.one, R.zero, R.zero, R.one)
SIGMA = tuple(tuple(R.from_expr(sp.sympify(v)) for v in entries) for entries in
              ((0, 1, 1, 0), (0, -sp.I, sp.I, 0), (1, 0, 0, -1)))
_MINUS_IHBAR = R.from_expr(-sp.I * hbar)
_ZKEY = (0, 0, 0, 0, 0, 0)


def _is_scalar(blk):
    """True for a block u * I2."""
    return not blk[1] and not blk[2] and blk[0] == blk[3]


def _block_mul(A, B):
    if _is_scalar(A):
        u = A[0]
        return tuple(u * v for v in B)
    if _is_scalar(B):
        u = B[0]
        return tuple(v * u for v in A)
    a0, a1, a2, a3 = A
    b0, b1, b2, b3 = B
    return (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3,
            a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)


def _block_commutator(A, B):
    """A B - B A with six ring products."""
    a0, a1, a2, a3 = A
    b0, b1, b2, b3 = B
    da, db = a0 - a3, b0 - b3
    c0 = a1 * b2 - b1 * a2
    return (c0, b1 * da - a1 * db, a2 * db - b2 * da, -c0)


def _conj(p):
    return R.from_dict({mon: ZZ_I(c.x, -c.y) for mon, c in p.items()})


def _scaled(coeff, blk):
    return blk if coeff is None else tuple(coeff * u for u in blk)


def _rescaled(blocks, s):
    """blocks times the positive int s; blocks itself for s = 1."""
    if s == 1:
        return blocks
    s = ZZ_I(s)
    return {k: tuple(u.mul_ground(s) for u in blk) for k, blk in blocks.items()}


def _accumulate(out, key, blk):
    old = out.get(key)
    out[key] = blk if old is None else tuple(u + v for u, v in zip(old, blk))


class Op:
    """Finite normal-ordered operator blocks / den.  blocks maps exponent
    keys (a1,a2,a3,b1,b2,b3) to 2x2 coefficient blocks, four elements of
    R in row order; den is a positive int, 1 by default, and need not be
    the least one.  Zero blocks are dropped."""

    __slots__ = ("blocks", "den")

    def __init__(self, blocks=None, den=1):
        self.blocks = {k: blk for k, blk in (blocks or {}).items() if any(blk)}
        self.den = den

    @property
    def terms(self):
        """Sympy view: each key's block over den as a 2x2 sp.Matrix, its
        entries divided in RQ, minv as 1/m."""
        inv = QQ_I(QQ(1, self.den))
        return {k: sp.Matrix(2, 2, [p.set_ring(RQ).mul_ground(inv).as_expr()
                                    .xreplace({minv: 1 / m}) for p in blk])
                for k, blk in self.blocks.items()}

    # -- constructors ------------------------------------------------

    @classmethod
    def scalar(cls, expr):
        c, den = _cleared(to_ring(expr))
        return cls({_ZKEY: (c, R.zero, R.zero, c)}, den)

    @classmethod
    def x(cls, i):
        k = [0] * 6
        k[i - 1] = 1
        return cls({tuple(k): I2})

    @classmethod
    def p(cls, i):
        k = [0] * 6
        k[3 + i - 1] = 1
        return cls({tuple(k): I2})

    @classmethod
    def sigma(cls, k):
        return cls({_ZKEY: SIGMA[k - 1]})

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Op):
            other = Op.scalar(other)
        den = lcm(self.den, other.den)
        out = dict(_rescaled(self.blocks, den // self.den))
        for k, blk in _rescaled(other.blocks, den // other.den).items():
            _accumulate(out, k, blk)
        return Op(out, den)

    __radd__ = __add__

    def __neg__(self):
        return Op({k: tuple(-u for u in blk) for k, blk in self.blocks.items()},
                  self.den)

    def __sub__(self, other):
        if not isinstance(other, Op):
            other = Op.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return Op.scalar(other) + (-self)

    def scale(self, expr):
        c, den = _cleared(to_ring(expr))
        return Op({k: _scaled(c, blk) for k, blk in self.blocks.items()},
                  self.den * den)

    def __rmul__(self, other):
        if isinstance(other, Op):  # pragma: no cover - __mul__ handles it
            return NotImplemented
        return self.scale(other)

    def __mul__(self, other):
        if not isinstance(other, Op):
            return self.scale(other)
        out = {}
        for ka, Ma in self.blocks.items():
            a, b = ka[:3], ka[3:]
            for kb, Mb in other.blocks.items():
                Mab = _block_mul(Ma, Mb)
                for key, coeff in _reorder(a, b, kb[:3], kb[3:]):
                    _accumulate(out, key, _scaled(coeff, Mab))
        return Op(out, self.den * other.den)

    def __eq__(self, other):
        return (self - other).is_zero()

    def __hash__(self):  # pragma: no cover - Ops are not dict keys
        raise TypeError("Op is unhashable")

    # -- involution and predicates -------------------------------------

    def adjoint(self):
        """Hermitian conjugate, back in normal order."""
        out = {}
        for k, (a0, a1, a2, a3) in self.blocks.items():
            MH = (_conj(a0), _conj(a2), _conj(a1), _conj(a3))
            # (x^a p^b)^dagger = M^dagger p^b x^a; the reorder factors
            # are plain rewriting, they are not conjugated
            for key, coeff in _reorder((0, 0, 0), k[3:], k[:3], (0, 0, 0)):
                _accumulate(out, key, _scaled(coeff, MH))
        return Op(out, self.den)

    def is_zero(self):
        return not self.blocks

    def is_hermitian(self):
        return (self - self.adjoint()).is_zero()

    def min_cinv_order(self):
        """Minimal degree in cinv over all nonzero coefficients;
        None for the zero operator."""
        return min((mon[_CINV] for blk in self.blocks.values()
                    for u in blk for mon in u), default=None)

    def __repr__(self):
        if not self.blocks:
            return "Op(0)"
        bits = []
        names = ("x1", "x2", "x3", "p1", "p2", "p3")
        for k, Mat in sorted(self.terms.items()):
            mono = " ".join(f"{n}^{ex}" if ex > 1 else n
                            for n, ex in zip(names, k) if ex)
            bits.append(f"[{mono or '1'}] {Mat.tolist()}")
        return "Op(" + " + ".join(bits) + ")"


def _reorder(a, b, c, d):
    """Normal-order x^a p^b x^c p^d; yields ((key, coefficient), ...), the
    coefficient an element of R or None for the uncontracted term (1)."""
    # per-axis sums over contraction count k_t
    axes = [[(k, comb(b[t], k) * comb(c[t], k) * factorial(k))
             for k in range(min(b[t], c[t]) + 1)] for t in range(3)]
    for k1, n1 in axes[0]:
        for k2, n2 in axes[1]:
            for k3, n3 in axes[2]:
                ks = (k1, k2, k3)
                key = tuple(a[t] + c[t] - ks[t] for t in range(3)) + \
                      tuple(b[t] + d[t] - ks[t] for t in range(3))
                kk = k1 + k2 + k3
                yield key, n1 * n2 * n3 * _MINUS_IHBAR ** kk if kk else None


def commutator(A, B):
    """[A, B] in one pass over the monomial pairs, with no product of
    whole operators.  Per pair: [Ma, Mb] at the uncontracted key
    x^{a+c} p^{b+d}, where the uncontracted terms of A B and B A meet
    (skipped when either block is scalar, where they cancel); plus the
    contractions of x^a p^b x^c p^d times Ma Mb; minus those of
    x^c p^d x^a p^b times Mb Ma.  A block product is formed only for
    an order that has contractions."""
    def split(op):
        return [(k[:3], k[3:], blk, _is_scalar(blk))
                for k, blk in op.blocks.items()]

    out = {}
    rhs = split(B)
    for a, b, Ma, sa in split(A):
        for c, d, Mb, sb in rhs:
            if not (sa or sb):
                comm = _block_commutator(Ma, Mb)
                if any(comm):
                    key = tuple(s + t for s, t in zip(a + b, c + d))
                    _accumulate(out, key, comm)
            # p^b meets x^c on some axis in A B, p^d meets x^a in B A
            if any(map(min, b, c)):
                Mab = _block_mul(Ma, Mb)
                for key, coeff in _reorder(a, b, c, d):
                    if coeff is not None:
                        _accumulate(out, key, _scaled(coeff, Mab))
            if any(map(min, d, a)):
                Mba = _block_mul(Mb, Ma)
                for key, coeff in _reorder(c, d, a, b):
                    if coeff is not None:
                        _accumulate(out, key, _scaled(-coeff, Mba))
    return Op(out, A.den * B.den)


def dot(ops_a, ops_b):
    """Sum of componentwise products of two 3-tuples of operators."""
    out = Op()
    for Aa, Bb in zip(ops_a, ops_b):
        out = out + Aa * Bb
    return out


def cross(ops_a, ops_b):
    """Componentwise operator cross product (no symmetrization)."""
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out.append(ops_a[j] * ops_b[k] - ops_a[k] * ops_b[j])
    return tuple(out)
