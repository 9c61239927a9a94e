"""Normal-ordered operator algebra for the Pauli-level realization.

Operators are finite sums of monomials

    x1^a1 x2^a2 x3^a3  p1^b1 p2^b2 p3^b3  M

with every position factor to the left of every momentum factor and a
2x2 spin block M in the Pauli basis, four polynomials (u0, u1, u2, u3)
with M = u0 I + u.sigma.  Block products read sigma_i sigma_j =
delta_ij I + i eps_ijk sigma_k, so [M, N] = 2i (u x v).sigma, and most
blocks of the realization, one sigma or I plus one sigma, leave most
factors zero; matrix_block writes the 2x2 entries for repr and the
tests.  Each polynomial is in the eleven real generators

    hbar, cinv, minv, e, g, B1, B2, B3, E1, E2, E3

(cinv = 1/c, minv = 1/m) with Gaussian-integer coefficients, held in
plain Python: a dict from a packed monomial to its coefficient, a pair
of ints (re, im).  A packed monomial is one int with generator i's
exponent in bits [12 i, 12 i + 11) and a guard bit above each field, so
the product of two monomials is one int addition, and an exponent that
reaches 2^11 sets its guard bit and raises OverflowError instead of
carrying into the next generator.  No zero coefficient is stored: a
sum, difference or product deletes a coefficient in the one pass where
it cancels, with no negated copy or filter pass; the zero polynomial is
{}.  An Op keeps one positive integer den shared by all its blocks, the
operator being blocks / den: a product multiplies the dens, a sum or
difference brings both operands to the lcm of theirs, and no rational
arithmetic takes part.  The adjoint maps each (re, im) to (re, -im),
with no transpose, as sigma is Hermitian; the division by i hbar lowers
the hbar field by one and maps (re, im) to (im, -re); the order in 1/c
of a monomial, which grades the correspondence with the classical
brackets, is a shift and a mask.

Products are reduced to the normal form with the one-axis identity

    p^n x^m = sum_k  C(n,k) C(m,k) k! (-i hbar)^k  x^{m-k} p^{n-k}

applied axis by axis, its terms read from a table keyed by (n, m)
(different axes commute; blocks commute with x and p).  The commutator
is one pass over the monomial pairs, not two products: the uncontracted
terms of A B and B A differ only in the block order, so they cancel
where either block has no sigma part and leave [Ma, Mb] otherwise.

A scalar is a Python int or a cleared pair (dict, den) such as
_cleared_term builds; anything else is refused with a TypeError naming
its type, and a pair whose den, key or coefficient is malformed with
an error naming it.  repr and a failed division by i hbar write each
polynomial by the generator names.
"""

from __future__ import annotations

from functools import cache
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
    """(u, den) with c = u / den, u a polynomial dict and den a positive
    int; c is an int or such a pair, checked and returned as it is.
    TypeError, naming the type, for anything else."""
    if isinstance(c, int):
        return ({0: (int(c), 0)} if c else {}), 1
    if not (isinstance(c, tuple) and len(c) == 2 and isinstance(c[0], dict)):
        raise TypeError("an operator scalar is an int or a cleared pair "
                        f"(dict, den), not {type(c).__name__}")
    u, den = c
    if type(den) is not int or den < 1:
        raise (ValueError if type(den) is int else TypeError)(
            f"the den of a cleared pair is a positive int, not {den!r}")
    for mon, coeff in u.items():
        if type(mon) is not int or mon < 0 or mon & _GUARDS:
            raise ValueError(f"the key {mon!r} is not a packed monomial")
        if not (type(coeff) is tuple and len(coeff) == 2
                and type(coeff[0]) is type(coeff[1]) is int):
            raise TypeError(f"a coefficient is a pair of ints (re, im), not {coeff!r}")
        if coeff == (0, 0):
            raise ValueError(f"the key {mon} stores the zero coefficient (0, 0)")
    return c


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


def _pmul(p, q):
    if len(p) > len(q):
        p, q = q, p
    if not p:
        return {}
    if len(p) == 1:
        (mon, (re, im)), = p.items()
        if len(q) > 1:
            return _term_mul(q, mon, re, im)
        (mb, (br, bi)), = q.items()
        mon += mb
        if mon & _GUARDS:
            _overflow(mon)
        return {mon: (re * br - im * bi, re * bi + im * br)}
    out = {}
    for ma, (ar, ai) in p.items():
        for mb, (br, bi) in q.items():
            mon = ma + mb
            if mon & _GUARDS:
                _overflow(mon)
            re, im = ar * br - ai * bi, ar * bi + ai * br
            old = out.get(mon)
            if old is None:
                out[mon] = (re, im)
            else:
                re, im = old[0] + re, old[1] + im
                if re or im:
                    out[mon] = (re, im)
                else:
                    del out[mon]
    return out


def _psub(p, q):
    """p - q in one pass, with no negated copy of q."""
    if not q:
        return p
    out = dict(p)
    for mon, (re, im) in q.items():
        old = out.get(mon)
        if old is None:
            out[mon] = (-re, -im)
        elif old[0] != re or old[1] != im:
            out[mon] = (old[0] - re, old[1] - im)
        else:
            del out[mon]
    return out


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
    NotDivisible, naming the whole of p, where a monomial carries no hbar."""
    one = 1 << _HBAR_SHIFT
    out = {}
    for mon, (re, im) in p.items():
        if not (mon >> _HBAR_SHIFT) & _EXP_MASK:
            raise NotDivisible(f"{_format(p)} is not divisible by i*hbar")
        out[mon - one] = (im, -re)
    return out


_ONE = {0: (1, 0)}
I2 = (_ONE, {}, {}, {})
_ZERO_BLOCK = ({}, {}, {}, {})
SIGMA = (({}, _ONE, {}, {}), ({}, {}, _ONE, {}), ({}, {}, {}, _ONE))
_ZKEY = (0, 0, 0, 0, 0, 0)
# (-i)^k for k mod 4
_MINUS_I_POW = ((1, 0), (0, -1), (-1, 0), (0, 1))


def _is_scalar(blk):
    """True for a block with no sigma part, u0 I."""
    return not (blk[1] or blk[2] or blk[3])


def _cross(p, q, r, s, im):
    """im i (p q - r s), a product formed only where both factors are nonzero."""
    pq = _pmul(p, q) if p and q else {}
    if r and s:
        pq = _psub(pq, _pmul(r, s))
    return _term_mul(pq, 0, 0, im)


def matrix_block(blk):
    """The 2x2 entries of the block u0 I + u.sigma in row order:
    (u0 + u3, u1 - i u2, u1 + i u2, u0 - u3)."""
    u0, u1, u2, u3 = blk
    iu2 = _term_mul(u2, 0, 0, 1)
    return _padd(u0, u3), _psub(u1, iu2), _padd(u1, iu2), _psub(u0, u3)


def _block_mul(A, B):
    """(a0 + a.sigma)(b0 + b.sigma) = a0 b0 + a.b + (a0 b + b0 a + i a x b).sigma."""
    if _is_scalar(A):
        return tuple(_pmul(A[0], v) for v in B)
    if _is_scalar(B):
        return tuple(_pmul(v, B[0]) for v in A)
    a0, a1, a2, a3 = A
    b0, b1, b2, b3 = B
    return (_padd(_padd(_pmul(a0, b0), _pmul(a1, b1)),
                  _padd(_pmul(a2, b2), _pmul(a3, b3))),
            _padd(_padd(_pmul(a0, b1), _pmul(b0, a1)), _cross(a2, b3, a3, b2, 1)),
            _padd(_padd(_pmul(a0, b2), _pmul(b0, a2)), _cross(a3, b1, a1, b3, 1)),
            _padd(_padd(_pmul(a0, b3), _pmul(b0, a3)), _cross(a1, b2, a2, b1, 1)))


def _block_commutator(A, B):
    """A B - B A = 2i (a x b).sigma."""
    _, a1, a2, a3 = A
    _, b1, b2, b3 = B
    return ({}, _cross(a2, b3, a3, b2, 2), _cross(a3, b1, a1, b3, 2),
            _cross(a1, b2, a2, b1, 2))


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


def _axis(i):
    """i, refused unless it is a spatial axis 1, 2 or 3."""
    if i not in (1, 2, 3):
        raise ValueError(f"axis {i!r} is not a spatial axis 1, 2 or 3")
    return i


class Op:
    """Finite normal-ordered operator blocks / den.  blocks maps exponent
    keys (a1,a2,a3,b1,b2,b3) to spin blocks (u0, u1, u2, u3); den is a
    positive int, 1 by default and refused by name otherwise, and need
    not be the least one.  Zero blocks are dropped."""

    __slots__ = ("blocks", "den")

    def __init__(self, blocks=None, den=1):
        if type(den) is not int or den < 1:
            raise (ValueError if type(den) is int else TypeError)(
                f"the den of an Op is a positive int, not {den!r}")
        self.blocks = {k: blk for k, blk in (blocks or {}).items() if any(blk)}
        self.den = den

    # -- constructors ------------------------------------------------

    @classmethod
    def scalar(cls, expr):
        c, den = _cleared(expr)
        return cls({_ZKEY: (c, {}, {}, {})}, den)

    @classmethod
    def x(cls, i):
        k = [0] * 6
        k[_axis(i) - 1] = 1
        return cls({tuple(k): I2})

    @classmethod
    def p(cls, i):
        k = [0] * 6
        k[3 + _axis(i) - 1] = 1
        return cls({tuple(k): I2})

    @classmethod
    def sigma(cls, k):
        return cls({_ZKEY: SIGMA[_axis(k) - 1]})

    # -- ring operations ---------------------------------------------

    def __add__(self, other, pcombine=_padd):
        """self + other; self - other for pcombine _psub."""
        if not isinstance(other, Op):
            other = Op.scalar(other)
        den = lcm(self.den, other.den)
        out = dict(_rescaled(self.blocks, den // self.den))
        for k, blk in _rescaled(other.blocks, den // other.den).items():
            out[k] = tuple(map(pcombine, out.get(k, _ZERO_BLOCK), blk))
        return Op(out, den)

    __radd__ = __add__

    def __neg__(self):
        return Op() - self

    def __sub__(self, other):
        return self.__add__(other, _psub)

    def __rsub__(self, other):
        return Op.scalar(other) - self

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
            for kb, Mb in other.blocks.items():
                Mab = _block_mul(Ma, Mb)
                for key, coeff in _reorder(ka, kb):
                    _accumulate(out, key, _scaled(coeff, Mab))
        return Op(out, self.den * other.den)

    def __eq__(self, other):
        try:
            diff = self - other
        except TypeError:   # not an Op, an int or a cleared pair
            return NotImplemented
        return diff.is_zero()

    def __hash__(self):  # pragma: no cover - Ops are not dict keys
        raise TypeError("Op is unhashable")

    # -- involution and predicates -------------------------------------

    def adjoint(self):
        """Hermitian conjugate, back in normal order."""
        out = {}
        for k, blk in self.blocks.items():
            MH = tuple(map(_conj, blk))
            # (x^a p^b)^dagger = M^dagger p^b x^a; the reorder factors
            # are plain rewriting, they are not conjugated
            for key, coeff in _reorder((0, 0, 0) + k[3:], k[:3] + (0, 0, 0)):
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
            a, b, c, d = (_format(u, self.den) for u in matrix_block(blk))
            bits.append(f"[{mono or '1'}] [[{a}, {b}], [{c}, {d}]]")
        return "Op(" + " + ".join(bits) + ")"


@cache
def _contractions(b, c):
    """The one-axis terms (k, C(b,k) C(c,k) k!), k <= min(b, c), of
    p^b x^c: a table of constants keyed by the two exponents."""
    return tuple((k, comb(b, k) * comb(c, k) * factorial(k))
                 for k in range(min(b, c) + 1))


def _reorder(ka, kb):
    """Normal-order x^a p^b x^c p^d, ka = a + b and kb = c + d; yields
    ((key, coefficient), ...), the coefficient n (-i hbar)^k as a single
    term (hbar^k, re, im), or None for the uncontracted term (1)."""
    a1, a2, a3, b1, b2, b3 = ka
    c1, c2, c3, d1, d2, d3 = kb
    x1, x2, x3, p1, p2, p3 = a1 + c1, a2 + c2, a3 + c3, b1 + d1, b2 + d2, b3 + d3
    for k1, n1 in _contractions(b1, c1):
        for k2, n2 in _contractions(b2, c2):
            for k3, n3 in _contractions(b3, c3):
                key = (x1 - k1, x2 - k2, x3 - k3, p1 - k1, p2 - k2, p3 - k3)
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
    (skipped when either block has no sigma part, where they cancel);
    plus the contractions of x^a p^b x^c p^d times Ma Mb; minus those of
    x^c p^d x^a p^b times Mb Ma.  A block product is formed only for
    an order that has contractions."""
    def split(op):
        return [(k, k[:3], k[3:], blk, _is_scalar(blk))
                for k, blk in op.blocks.items()]

    out = {}
    rhs = split(B)
    for ka, a, b, Ma, sa in split(A):
        for kb, c, d, Mb, sb in rhs:
            if not (sa or sb):
                comm = _block_commutator(Ma, Mb)
                if any(comm):
                    key = tuple(s + t for s, t in zip(ka, kb))
                    _accumulate(out, key, comm)
            # p^b meets x^c on some axis in A B, p^d meets x^a in B A
            if any(map(min, b, c)):
                Mab = _block_mul(Ma, Mb)
                for key, coeff in _reorder(ka, kb):
                    if coeff is not None:
                        _accumulate(out, key, _scaled(coeff, Mab))
            if any(map(min, d, a)):
                Mba = _block_mul(Mb, Ma)
                for key, coeff in _reorder(kb, ka):
                    if coeff is not None:
                        mon, re, im = coeff
                        _accumulate(out, key, _scaled((mon, -re, -im), Mba))
    return Op(out, A.den * B.den)


def dot(ops_a, ops_b):
    """Sum of componentwise products of two 3-tuples of operators."""
    return sum((a * b for a, b in zip(ops_a, ops_b)), Op())


def cross(ops_a, ops_b):
    """Componentwise operator cross product (no symmetrization)."""
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out.append(ops_a[j] * ops_b[k] - ops_a[k] * ops_b[j])
    return tuple(out)
