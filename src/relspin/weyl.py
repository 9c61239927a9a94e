"""Normal-ordered operator algebra for the Pauli-level realization.

Operators are finite sums of monomials

    x1^a1 x2^a2 x3^a3  p1^b1 p2^b2 p3^b3  M

with every position factor to the left of every momentum factor and a
2x2 coefficient block M.  Each block entry is a polynomial in the
eleven real generators

    hbar, cinv, minv, e, g, B1, B2, B3, E1, E2, E3

(cinv = 1/c, minv = 1/m) with Gaussian-integer coefficients, held in
plain Python: a dict from a packed monomial to its coefficient, a pair
of ints (re, im).  A packed monomial is one int with generator i's
exponent in bits [12 i, 12 i + 11) and a guard bit above each field, so
the product of two monomials is one int addition, and an exponent that
reaches 2^11 sets its guard bit and raises OverflowError instead of
carrying into the next generator.  No zero coefficient is stored; the
zero polynomial is {}.  An Op keeps one positive integer den shared by
all its blocks, the operator being blocks / den: a product multiplies
the dens, a sum brings both operands to the lcm of theirs.  Every
quantity of the realization is such a pair, so no rational arithmetic
takes part in a sum, a product or a commutator.  The conjugation of
the adjoint maps (re, im) to (re, -im); the division by i hbar lowers
the hbar field by one and maps (re, im) to (im, -re); and the order in
1/c of a monomial, by which the correspondence with the classical
brackets is graded, is a shift and a mask.

Products are reduced to the normal form with the one-axis identity

    p^n x^m = sum_k  C(n,k) C(m,k) k! (-i hbar)^k  x^{m-k} p^{n-k}

applied axis by axis (different axes commute; blocks commute with
x and p).  The commutator is one pass over the monomial pairs, not two
products: the uncontracted terms of A B and B A differ only in the
block order, so they cancel where either block is scalar and leave
[Ma, Mb] otherwise.

A scalar is a Python int or a cleared pair (dict, den) such as
_cleared_term builds; anything else is refused with a TypeError that
names its type.  repr and the error of a failed division by i hbar
write each polynomial by the generator names.
"""

from __future__ import annotations

from math import comb, factorial, gcd, lcm

# the generators in packing order
_NAMES = ("hbar", "cinv", "minv", "e", "g", "B1", "B2", "B3", "E1", "E2", "E3")

_WIDTH = 12                           # bits per generator: exponent and guard
_EXP_MASK = (1 << (_WIDTH - 1)) - 1   # one field's exponent bits
_GUARDS = sum(1 << (_WIDTH * i + _WIDTH - 1) for i in range(len(_NAMES)))
_HBAR_SHIFT = _WIDTH * _NAMES.index("hbar")
_CINV_SHIFT = _WIDTH * _NAMES.index("cinv")


def _pack(exps):
    """The packed monomial of an exponent tuple in generator order;
    OverflowError for an exponent outside [0, 2^11)."""
    mon = 0
    for i, n in enumerate(exps):
        if not 0 <= n <= _EXP_MASK:
            raise OverflowError(f"exponent {n} of {_NAMES[i]} does not fit "
                                f"its {_WIDTH - 1}-bit field")
        mon |= n << (_WIDTH * i)
    return mon


def _unpack(mon):
    """The exponent tuple of a packed monomial, in generator order."""
    return tuple((mon >> (_WIDTH * i)) & _EXP_MASK for i in range(len(_NAMES)))


def _overflow(mon):
    raise OverflowError("a monomial product overflows the exponent field of "
                        + ", ".join(_NAMES[i] for i in range(len(_NAMES))
                                    if (mon >> (_WIDTH * i + _WIDTH - 1)) & 1))


def _cleared_term(num=1, den=1, **exponents):
    """The cleared pair ({mon: (num, 0)}, den) of the one-term scalar
    (num / den) * prod name^exponent, the exponents by generator name;
    ({}, den) for num = 0."""
    mon = _pack(tuple(exponents.get(name, 0) for name in _NAMES))
    return ({mon: (num, 0)} if num else {}), den


def _cleared(c):
    """(u, den) with c = u / den: u a polynomial dict and den a positive
    int; c is a Python int, or such a pair, returned as it is.
    TypeError, naming the type, for anything else."""
    if isinstance(c, int):
        return ({0: (int(c), 0)} if c else {}), 1
    if isinstance(c, tuple) and len(c) == 2 and isinstance(c[0], dict):
        return c
    raise TypeError("an operator scalar is an int or a cleared pair "
                    f"(dict, den), not {type(c).__name__}")


def _format(u, den=1):
    """The polynomial dict u over den as text: its terms in monomial
    order, each a reduced Gaussian rational times the generators by name,
    as in 1/4*hbar*cinv^2 - 3*e + (1-2i)/3*g; "0" for the zero polynomial."""
    terms = []
    for mon, (re, im) in sorted(u.items()):
        k = gcd(re, im, den)
        re, im, d = re // k, im // k, den // k
        coeff = str(re) if not im else f"{im}i" if not re else f"({re}{im:+d}i)"
        terms.append("*".join([coeff + (f"/{d}" if d > 1 else "")]
                              + [name if n == 1 else f"{name}^{n}"
                                 for name, n in zip(_NAMES, _unpack(mon)) if n]))
    return " + ".join(terms).replace("+ -", "- ") or "0"


# -- polynomial dicts; a dict stored in an Op is never modified --------


def _padd(p, q):
    if not q:
        return p
    if not p:
        return q
    out = dict(p)
    for mon, c in q.items():
        old = out.get(mon)
        if old is None:
            out[mon] = c
        else:
            re, im = old[0] + c[0], old[1] + c[1]
            if re or im:
                out[mon] = (re, im)
            else:
                del out[mon]
    return out


def _pneg(p):
    return {mon: (-re, -im) for mon, (re, im) in p.items()}


def _pmul(p, q):
    if len(p) > len(q):
        p, q = q, p
    if not p:
        return {}
    if len(p) == 1:
        (mon, (re, im)), = p.items()
        return _term_mul(q, mon, re, im)
    out = {}
    for ma, (ar, ai) in p.items():
        for mb, (br, bi) in q.items():
            mon = ma + mb
            if mon & _GUARDS:
                _overflow(mon)
            re, im = ar * br - ai * bi, ar * bi + ai * br
            old = out.get(mon)
            out[mon] = (re, im) if old is None else (old[0] + re, old[1] + im)
    return {mon: c for mon, c in out.items() if c[0] or c[1]}


def _psub(p, q):
    return _padd(p, _pneg(q))


def _term_mul(p, mon, re, im):
    """p times the single term (re + i im) * mon, with re + i im nonzero:
    distinct monomials stay distinct, and Gaussian integers have no zero
    divisors, so no coefficient meets another or vanishes."""
    out = {}
    for mp, (pr, pi) in p.items():
        mb = mp + mon
        if mb & _GUARDS:
            _overflow(mb)
        out[mb] = (pr * re - pi * im, pr * im + pi * re)
    return out


def _conj(p):
    return {mon: (re, -im) for mon, (re, im) in p.items()}


class NotDivisible(ArithmeticError):
    """A division by i hbar of a polynomial with a term free of hbar."""


def _pdiv_ihbar(p):
    """p / (i hbar), exact: each monomial's hbar field drops by one and
    its coefficient is multiplied by -i, (re, im) -> (im, -re);
    NotDivisible where a monomial carries no hbar."""
    if any(not (mon >> _HBAR_SHIFT) & _EXP_MASK for mon in p):
        raise NotDivisible(f"{_format(p)} is not divisible by i*hbar")
    one = 1 << _HBAR_SHIFT
    return {mon - one: (im, -re) for mon, (re, im) in p.items()}


def _one(re=1, im=0):
    return {0: (re, im)}


I2 = (_one(), {}, {}, _one())
SIGMA = (({}, _one(), _one(), {}),
         ({}, _one(0, -1), _one(0, 1), {}),
         (_one(), {}, {}, _one(-1)))
_ZKEY = (0, 0, 0, 0, 0, 0)
# (-i)^k for k mod 4
_MINUS_I_POW = ((1, 0), (0, -1), (-1, 0), (0, 1))


def _is_scalar(blk):
    """True for a block u * I2."""
    return not blk[1] and not blk[2] and blk[0] == blk[3]


def _block_mul(A, B):
    if _is_scalar(A):
        u = A[0]
        return tuple(_pmul(u, v) for v in B)
    if _is_scalar(B):
        u = B[0]
        return tuple(_pmul(v, u) for v in A)
    a0, a1, a2, a3 = A
    b0, b1, b2, b3 = B
    return (_padd(_pmul(a0, b0), _pmul(a1, b2)), _padd(_pmul(a0, b1), _pmul(a1, b3)),
            _padd(_pmul(a2, b0), _pmul(a3, b2)), _padd(_pmul(a2, b1), _pmul(a3, b3)))


def _block_commutator(A, B):
    """A B - B A with six polynomial products."""
    a0, a1, a2, a3 = A
    b0, b1, b2, b3 = B
    da, db = _psub(a0, a3), _psub(b0, b3)
    c0 = _psub(_pmul(a1, b2), _pmul(b1, a2))
    return (c0, _psub(_pmul(b1, da), _pmul(a1, db)),
            _psub(_pmul(a2, db), _pmul(b2, da)), _pneg(c0))


def _scaled(coeff, blk):
    """blk times a contraction coefficient (mon, re, im), blk itself for
    None."""
    return blk if coeff is None else tuple(_term_mul(u, *coeff) for u in blk)


def _rescaled(blocks, s):
    """blocks times the positive int s; blocks itself for s = 1."""
    if s == 1:
        return blocks
    return {k: tuple(_term_mul(u, 0, s, 0) for u in blk) for k, blk in blocks.items()}


def _accumulate(out, key, blk):
    old = out.get(key)
    out[key] = blk if old is None else tuple(map(_padd, old, blk))


class Op:
    """Finite normal-ordered operator blocks / den.  blocks maps exponent
    keys (a1,a2,a3,b1,b2,b3) to 2x2 coefficient blocks, four polynomial
    dicts in row order; den is a positive int, 1 by default, and need not
    be the least one.  Zero blocks are dropped."""

    __slots__ = ("blocks", "den")

    def __init__(self, blocks=None, den=1):
        self.blocks = {k: blk for k, blk in (blocks or {}).items() if any(blk)}
        self.den = den

    # -- constructors ------------------------------------------------

    @classmethod
    def scalar(cls, expr):
        c, den = _cleared(expr)
        return cls({_ZKEY: (c, {}, {}, c)}, den)

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
        return Op({k: tuple(map(_pneg, blk)) for k, blk in self.blocks.items()},
                  self.den)

    def __sub__(self, other):
        if not isinstance(other, Op):
            other = Op.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return Op.scalar(other) + (-self)

    def scale(self, expr):
        c, den = _cleared(expr)
        return Op({k: tuple(_pmul(c, u) for u in blk)
                   for k, blk in self.blocks.items()}, self.den * den)

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
        return min(((mon >> _CINV_SHIFT) & _EXP_MASK for blk in self.blocks.values()
                    for u in blk for mon in u), default=None)

    def __repr__(self):
        if not self.blocks:
            return "Op(0)"
        bits = []
        names = ("x1", "x2", "x3", "p1", "p2", "p3")
        for k, blk in sorted(self.blocks.items()):
            mono = " ".join(f"{n}^{ex}" if ex > 1 else n
                            for n, ex in zip(names, k) if ex)
            a, b, c, d = (_format(u, self.den) for u in blk)
            bits.append(f"[{mono or '1'}] [[{a}, {b}], [{c}, {d}]]")
        return "Op(" + " + ".join(bits) + ")"


def _reorder(a, b, c, d):
    """Normal-order x^a p^b x^c p^d; yields ((key, coefficient), ...), the
    coefficient n (-i hbar)^k as a single term (hbar^k, re, im), or None
    for the uncontracted term (1)."""
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
                if not kk:
                    yield key, None
                    continue
                n = n1 * n2 * n3
                re, im = _MINUS_I_POW[kk % 4]
                yield key, (kk << _HBAR_SHIFT, n * re, n * im)


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
                        mon, re, im = coeff
                        _accumulate(out, key, _scaled((mon, -re, -im), Mba))
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
