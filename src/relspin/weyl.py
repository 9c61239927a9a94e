"""Normal-ordered operator algebra for the Pauli-level realization.

Operators are finite sums of monomials

    x1^a1 x2^a2 x3^a3  p1^b1 p2^b2 p3^b3  M

with every position factor to the left of every momentum factor and a
2x2 coefficient block M.  The four entries of M are sparse polynomials
of one ring

    R = QQ_I[hbar, cinv, minv, e, g, B1, B2, B3, E1, E2, E3]

(sympy.polys.rings): Gaussian-rational coefficients, real generators,
cinv = 1/c and minv = 1/m.  Every quantity of the realization is a
polynomial there, so sums, products, zero tests and the conjugation of
the adjoint are exact ring operations with no simplification step.
Products are reduced to the normal form with the one-axis identity

    p^n x^m = sum_k  C(n,k) C(m,k) k! (-i hbar)^k  x^{m-k} p^{n-k}

applied axis by axis (different axes commute; blocks commute with
x and p).  With cinv a generator, "order in 1/c" is the least cinv
exponent among the monomials, which is how the correspondence with the
classical brackets is graded.

Sympy expressions cross the boundary in to_ring (read with m -> 1/minv),
which Op.scalar and Op.scale apply, and in the Op.terms view (written
back with minv -> 1/m).
"""

from __future__ import annotations

from math import comb, factorial

import sympy as sp
from sympy import QQ_I
from sympy.polys.rings import PolyElement, ring

hbar, cinv, m, e = sp.symbols("hbar cinv m e", real=True)
minv = sp.Symbol("minv", real=True)
g_sym = sp.Symbol("g", real=True)
B_SYM = sp.symbols("B1 B2 B3", real=True)
E_SYM = sp.symbols("E1 E2 E3", real=True)

R = ring((hbar, cinv, minv, e, g_sym) + B_SYM + E_SYM, QQ_I)[0]
_CINV = R.symbols.index(cinv)


def to_ring(expr):
    """expr as an element of R; a sympy expression is read with m -> 1/minv
    and must then be a polynomial in the generators."""
    if isinstance(expr, PolyElement):
        return expr
    return R.from_expr(sp.sympify(expr).xreplace({m: 1 / minv}))


I2 = (R.one, R.zero, R.zero, R.one)
SIGMA = tuple(tuple(to_ring(v) for v in entries) for entries in
              ((0, 1, 1, 0), (0, -sp.I, sp.I, 0), (1, 0, 0, -1)))
_MINUS_IHBAR = to_ring(-sp.I * hbar)
_ZKEY = (0, 0, 0, 0, 0, 0)


def _block_mul(A, B):
    a0, a1, a2, a3 = A
    b0, b1, b2, b3 = B
    return (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3,
            a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)


def _conj(p):
    return R.from_dict({mon: QQ_I(c.x, -c.y) for mon, c in p.items()})


def _scaled(coeff, blk):
    return blk if coeff is None else tuple(coeff * u for u in blk)


def _accumulate(out, key, blk):
    old = out.get(key)
    out[key] = blk if old is None else tuple(u + v for u, v in zip(old, blk))


class Op:
    """Finite normal-ordered operator; blocks maps exponent keys
    (a1,a2,a3,b1,b2,b3) to 2x2 coefficient blocks, four elements of R
    in row order.  Zero blocks are dropped."""

    __slots__ = ("blocks",)

    def __init__(self, blocks=None):
        self.blocks = {k: blk for k, blk in (blocks or {}).items() if any(blk)}

    @property
    def terms(self):
        """Sympy view: each key's block as a 2x2 sp.Matrix, minv as 1/m."""
        return {k: sp.Matrix(2, 2, [p.as_expr().xreplace({minv: 1 / m})
                                    for p in blk])
                for k, blk in self.blocks.items()}

    # -- constructors ------------------------------------------------

    @classmethod
    def scalar(cls, expr):
        c = to_ring(expr)
        return cls({_ZKEY: (c, R.zero, R.zero, c)})

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
        out = dict(self.blocks)
        for k, blk in other.blocks.items():
            _accumulate(out, k, blk)
        return Op(out)

    __radd__ = __add__

    def __neg__(self):
        return Op({k: tuple(-u for u in blk) for k, blk in self.blocks.items()})

    def __sub__(self, other):
        if not isinstance(other, Op):
            other = Op.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return Op.scalar(other) + (-self)

    def scale(self, expr):
        c = to_ring(expr)
        return Op({k: _scaled(c, blk) for k, blk in self.blocks.items()})

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
        return Op(out)

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
        return Op(out)

    def is_zero(self):
        return not self.blocks

    def is_hermitian(self):
        return (self - self.adjoint()).is_zero()

    def min_cinv_order(self):
        """Minimal degree in cinv over all nonzero coefficients;
        None for the zero operator."""
        return min((mon[_CINV] for blk in self.blocks.values()
                    for u in blk for mon in u), default=None)

    def coefficient_of_cinv(self, order):
        """The operator multiplying cinv**order (cinv set to 1 there)."""
        def pick(u):
            return R.from_dict({mon[:_CINV] + (0,) + mon[_CINV + 1:]: c
                                for mon, c in u.items() if mon[_CINV] == order})
        return Op({k: tuple(pick(u) for u in blk)
                   for k, blk in self.blocks.items()})

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
    return A * B - B * A


def anticommutator(A, B):
    return A * B + B * A


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
