"""Normal-ordered operator algebra for the Pauli-level realization.

Operators are finite sums of terms

    u  x1^a1 x2^a2 x3^a3  p1^b1 p2^b2 p3^b3  sigma_s

with every position factor to the left of every momentum factor,
sigma_0 = I or a Pauli matrix sigma_1..3, and u a polynomial in the
eleven real generators

    hbar, cinv, minv, e, g, B1, B2, B3, E1, E2, E3

(cinv = 1/c, minv = 1/m) with Gaussian-integer coefficients.  An Op
maps each key (a1, a2, a3, b1, b2, b3) to its spin block u0 I + u.sigma,
one dict in plain Python from a packed monomial to its coefficient, a
pair of ints (re, im).  A packed monomial is one int with generator i's
exponent in bits [12 i, 12 i + 11), a guard bit above each field, and
the Pauli index s of the term in the two bits above the last guard.
The product of two monomials is one int addition; an exponent that
reaches 2^11 sets its guard bit and raises OverflowError instead of
carrying into the next field; and sigma_a sigma_b = phase sigma_{a xor
b}, the phase 1, i or -i and the offset that turns the sum a + b of
the two Pauli fields into a xor b read from a 16-entry table, so a block
product is one pass over the term pairs.  matrix_block writes a block's
2x2 entries for repr and the tests.  No zero coefficient is stored: a
sum, difference or product deletes a coefficient in the one pass where
it cancels, with no negated copy or filter pass; the zero polynomial is
{}.  An Op keeps one positive integer den shared by all its blocks, the
operator being blocks / den: a product multiplies the dens, a sum or
difference brings both operands to the lcm of theirs, the zero Op has
den 1, and no rational arithmetic takes part.  The adjoint maps each
(re, im) to (re, -im), with no transpose, as sigma is Hermitian; the
division by i hbar lowers the hbar field by one and maps (re, im) to
(im, -re); the order in 1/c of a monomial, which grades the
correspondence with the classical brackets, is a shift and a mask.

Products are reduced to the normal form with the one-axis identity

    p^n x^m = sum_k  C(n,k) C(m,k) k! (-i hbar)^k  x^{m-k} p^{n-k}

applied axis by axis, its terms read from a table keyed by (n, m)
(different axes commute; blocks commute with x and p), and the terms of
x^a p^b x^c p^d cached as one tuple per pair of keys.  The commutator is
one pass over the monomial pairs, not two products: the uncontracted
terms of A B and B A differ only in the order of the Pauli factors, so
there a pair of terms leaves 2i eps_abk sigma_k where its indices a and
b differ and are both nonzero, and nothing otherwise.  It reads each
Op's block plan, derived once as an Op is never modified, with the x and
p exponents of each key as 3-bit axis masks: p^b meets x^c on some axis
iff b & c.

A scalar is a Python int or a cleared pair (dict, den) such as
_cleared_term builds, with no Pauli bits; anything else is refused with
a TypeError naming its type, and a pair whose den, key or coefficient
is malformed with an error naming it.  commutator and div_ihbar take a
scalar operand as its scalar Op.  repr and a failed division by i hbar
write each polynomial by the generator names.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial, gcd, lcm
from operator import add

# the generators in packing order
_NAMES = ("hbar", "cinv", "minv", "e", "g", "B1", "B2", "B3", "E1", "E2", "E3")

_WIDTH = 12                           # bits per generator: exponent and guard
_EXP_MASK = (1 << (_WIDTH - 1)) - 1   # one field's exponent bits
_GUARDS = sum(1 << (_WIDTH * i + _WIDTH - 1) for i in range(len(_NAMES)))
_HBAR_SHIFT = _WIDTH * _NAMES.index("hbar")
_CINV_SHIFT = _WIDTH * _NAMES.index("cinv")
# a block term's Pauli index, 0 = I and 1..3 = sigma_1..3, above the generators
_PAULI_SHIFT = _WIDTH * len(_NAMES)


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
        if type(mon) is not int or mon < 0 or mon & _GUARDS or mon >> _PAULI_SHIFT:
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
    """p times the single term (re + i im) * mon, with re + i im nonzero
    and mon free of Pauli bits: distinct monomials stay distinct, and
    Gaussian integers have no zero divisors, so no coefficient meets
    another or vanishes."""
    out = {}
    for mp, (pr, pi) in p.items():
        mb = mp + mon
        if mb & _GUARDS:
            _overflow(mb)
        out[mb] = (pr * re - pi * im, pr * im + pi * re)
    return out


def _conj(p):
    return {mon: (re, -im) for mon, (re, im) in p.items()}


# sigma_a sigma_b = phase sigma_{a xor b}: _TIMES[a][b] is (offset, rot),
# the offset turning the sum a + b of two Pauli fields into a xor b and
# the phase 1 for rot = 0, i rot otherwise
_TIMES = tuple(tuple((((a ^ b) - a - b) << _PAULI_SHIFT,
                      0 if not a or not b or a == b else 1 if (b - a) % 3 == 1 else -1)
                     for b in range(4)) for a in range(4))
# sigma_a sigma_b - sigma_b sigma_a: twice the phase where the two do not
# commute, None where they do; the row of I is None
_BRACKET = (None,) + tuple(tuple((offset, 2 * rot) if rot else None for offset, rot in row)
                           for row in _TIMES[1:])


def _pairs_into(out, A, B, table):
    """Add the product of the blocks A and B, or their commutator for
    table _BRACKET, to the dict out, returned, in one pass over the term
    pairs: each pair's monomials add, its Pauli indices combine through
    the table, and its coefficient lands in out, deleted where it cancels."""
    for ma, (ar, ai) in A.items():
        row = table[ma >> _PAULI_SHIFT]
        if row is None:
            continue
        for mb, (br, bi) in B.items():
            pauli = row[mb >> _PAULI_SHIFT]
            if pauli is None:
                continue
            mon = ma + mb
            if mon & _GUARDS:
                _overflow(mon)
            offset, rot = pauli
            mon += offset
            re, im = ar * br - ai * bi, ar * bi + ai * br
            if rot:
                re, im = -rot * im, rot * re
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


def _components(blk):
    """The four polynomials (u0, u1, u2, u3) of the block u0 I + u.sigma,
    over generator monomials."""
    us = ({}, {}, {}, {})
    for mon, c in blk.items():
        s = mon >> _PAULI_SHIFT
        us[s][mon - (s << _PAULI_SHIFT)] = c
    return us


def matrix_block(blk):
    """The 2x2 entries of the block u0 I + u.sigma in row order:
    (u0 + u3, u1 - i u2, u1 + i u2, u0 - u3), over generator monomials."""
    u0, u1, u2, u3 = _components(blk)
    iu2 = _term_mul(u2, 0, 0, 1)
    return _padd(u0, u3), _psub(u1, iu2), _padd(u1, iu2), _psub(u0, u3)


class NotDivisible(ArithmeticError):
    """A division by i hbar of a polynomial with a term free of hbar."""


def _pdiv_ihbar(p):
    """p / (i hbar), exact: each monomial's hbar field drops by one and
    its coefficient is multiplied by -i, (re, im) -> (im, -re);
    NotDivisible where a monomial carries no hbar, naming the whole of
    the first polynomial u_s of p, in Pauli order, that holds one."""
    one = 1 << _HBAR_SHIFT
    out = {}
    for mon, (re, im) in p.items():
        if not (mon >> _HBAR_SHIFT) & _EXP_MASK:
            bad = min(m >> _PAULI_SHIFT for m in p if not (m >> _HBAR_SHIFT) & _EXP_MASK)
            raise NotDivisible(f"{_format(_components(p)[bad])} is not divisible by i*hbar")
        out[mon - one] = (im, -re)
    return out


def div_ihbar(op):
    """op / (i hbar), exact, with op's den kept; NotDivisible where a
    term carries no hbar.  An int or a cleared pair is taken as its
    scalar Op."""
    op = _operand(op)
    return Op({k: _pdiv_ihbar(blk) for k, blk in op.blocks.items()}, op.den)


_ONE = {0: (1, 0)}
_ZKEY = (0, 0, 0, 0, 0, 0)
# (-i)^k for k mod 4
_MINUS_I_POW = ((1, 0), (0, -1), (-1, 0), (0, 1))


def _rescaled(blocks, s):
    """blocks times the positive int s; blocks itself for s = 1."""
    if s == 1:
        return blocks
    return {k: _term_mul(blk, 0, s, 0) for k, blk in blocks.items()}


def _mask(exps):
    """Bit i - 1 set where the exponent of axis i is nonzero."""
    return sum(1 << i for i, n in enumerate(exps) if n)


def _axis(i):
    """i, refused by name unless it is the int 1, 2 or 3 (a bool is not)."""
    if type(i) is not int or i not in (1, 2, 3):
        raise (ValueError if type(i) is int else TypeError)(
            f"axis {i!r} ({type(i).__name__}) is not a spatial axis, the int 1, 2 or 3")
    return i


class Op:
    """Finite normal-ordered operator blocks / den.  blocks maps exponent
    keys (a1,a2,a3,b1,b2,b3) to spin blocks, each one polynomial dict
    whose monomials carry their Pauli index; den is a positive int, 1 by
    default and for the zero Op, refused by name otherwise, and need not
    be the least one.  Zero blocks are dropped.  An Op is never modified:
    its block plan, which commutator reads, is derived once, on first use."""

    __slots__ = ("blocks", "den", "_plan")

    def __init__(self, blocks=None, den=1):
        if type(den) is not int or den < 1:
            raise (ValueError if type(den) is int else TypeError)(
                f"the den of an Op is a positive int, not {den!r}")
        self.blocks = {k: blk for k, blk in (blocks or {}).items() if blk}
        self.den = den if self.blocks else 1
        self._plan = None

    def _block_plan(self):
        """One (key, x mask, p mask, block, largest Pauli index) per
        block, the index nonzero iff the block has a sigma part."""
        if self._plan is None:
            # the largest monomial of a block has its largest Pauli index
            self._plan = tuple((k, _mask(k[:3]), _mask(k[3:]), blk,
                                max(blk) >> _PAULI_SHIFT)
                               for k, blk in self.blocks.items())
        return self._plan

    # -- constructors ------------------------------------------------

    @classmethod
    def scalar(cls, expr):
        c, den = _cleared(expr)
        return cls({_ZKEY: c}, den)

    @classmethod
    def x(cls, i):
        k = [0] * 6
        k[_axis(i) - 1] = 1
        return cls({tuple(k): _ONE})

    @classmethod
    def p(cls, i):
        k = [0] * 6
        k[3 + _axis(i) - 1] = 1
        return cls({tuple(k): _ONE})

    @classmethod
    def sigma(cls, k):
        return cls({_ZKEY: {_axis(k) << _PAULI_SHIFT: (1, 0)}})

    # -- ring operations ---------------------------------------------

    def __add__(self, other, pcombine=_padd):
        """self + other; self - other for pcombine _psub."""
        other = _operand(other)
        den = lcm(self.den, other.den)
        out = dict(_rescaled(self.blocks, den // self.den))
        for k, blk in _rescaled(other.blocks, den // other.den).items():
            out[k] = pcombine(out.get(k, {}), blk)
        return Op(out, den)

    __radd__ = __add__

    def __neg__(self):
        return Op() - self

    def __sub__(self, other):
        return self.__add__(other, _psub)

    def scale(self, expr):
        c, den = _cleared(expr)
        return Op({k: _pairs_into({}, c, blk, _TIMES) for k, blk in self.blocks.items()},
                  self.den * den)

    # an Op on the left is __mul__'s: only a scalar reaches __rmul__
    __rmul__ = scale

    def __mul__(self, other):
        if not isinstance(other, Op):
            return self.scale(other)
        out = {}
        for ka, Ma in self.blocks.items():
            for kb, Mb in other.blocks.items():
                for key, coeff in _reorder(ka, kb):
                    _pairs_into(out.setdefault(key, {}),
                                Ma if coeff is None else _term_mul(Ma, *coeff), Mb, _TIMES)
        return Op(out, self.den * other.den)

    def __eq__(self, other):
        try:
            diff = self - other
        except TypeError:   # not an Op, an int or a cleared pair
            return NotImplemented
        return diff.is_zero()

    # -- involution and predicates -------------------------------------

    def adjoint(self):
        """Hermitian conjugate, back in normal order."""
        out = {}
        for k, blk in self.blocks.items():
            MH = _conj(blk)
            # (x^a p^b)^dagger = M^dagger p^b x^a; the reorder factors
            # are plain rewriting, they are not conjugated
            for key, coeff in _reorder((0, 0, 0) + k[3:], k[:3] + (0, 0, 0)):
                out[key] = _padd(out.get(key, {}),
                                 MH if coeff is None else _term_mul(MH, *coeff))
        return Op(out, self.den)

    def is_zero(self):
        return not self.blocks

    def min_cinv_order(self):
        """Minimal degree in cinv over all nonzero coefficients;
        None for the zero operator."""
        return min(((mon >> _CINV_SHIFT) & _EXP_MASK for blk in self.blocks.values()
                    for mon in blk), default=None)

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


@cache
def _reorder(ka, kb):
    """Normal-order x^a p^b x^c p^d, ka = a + b and kb = c + d: the tuple
    ((key, coefficient), ...), the coefficient n (-i hbar)^k as a single
    term (hbar^k, re, im), or None for the uncontracted term (1); a
    table of constants keyed by the two exponent keys."""
    a1, a2, a3, b1, b2, b3 = ka
    c1, c2, c3, d1, d2, d3 = kb
    x1, x2, x3, p1, p2, p3 = a1 + c1, a2 + c2, a3 + c3, b1 + d1, b2 + d2, b3 + d3
    out = []
    for k1, n1 in _contractions(b1, c1):
        for k2, n2 in _contractions(b2, c2):
            for k3, n3 in _contractions(b3, c3):
                key = (x1 - k1, x2 - k2, x3 - k3, p1 - k1, p2 - k2, p3 - k3)
                kk = k1 + k2 + k3
                if not kk:
                    out.append((key, None))
                    continue
                n = n1 * n2 * n3
                re, im = _MINUS_I_POW[kk % 4]
                out.append((key, (kk << _HBAR_SHIFT, n * re, n * im)))
    return tuple(out)


def _operand(op):
    """op, or the scalar Op of an int or a cleared pair."""
    return op if isinstance(op, Op) else Op.scalar(op)


def commutator(A, B):
    """[A, B] in one pass over the monomial pairs, with no product of
    whole operators; an int or a cleared pair is taken as its scalar Op.
    Per pair of blocks: [Ma, Mb] at the uncontracted key x^{a+c} p^{b+d},
    where the uncontracted terms of A B and B A meet (skipped when either
    block has no sigma part, where they cancel); plus the contractions of
    x^a p^b x^c p^d times Ma Mb, where p^b meets x^c on some axis; minus
    those of x^c p^d x^a p^b times Mb Ma, where p^d meets x^a."""
    A, B = _operand(A), _operand(B)
    out = {}
    rhs = B._block_plan()
    for ka, xa, pa, Ma, sa in A._block_plan():
        for kb, xb, pb, Mb, sb in rhs:
            if sa and sb:
                key = tuple(map(add, ka, kb))
                _pairs_into(out.setdefault(key, {}), Ma, Mb, _BRACKET)
            if pa & xb:
                for key, coeff in _reorder(ka, kb):
                    if coeff is not None:
                        _pairs_into(out.setdefault(key, {}), _term_mul(Ma, *coeff),
                                    Mb, _TIMES)
            if pb & xa:
                for key, coeff in _reorder(kb, ka):
                    if coeff is not None:
                        mon, re, im = coeff
                        _pairs_into(out.setdefault(key, {}), _term_mul(Mb, mon, -re, -im),
                                    Ma, _TIMES)
    return Op(out, A.den * B.den)


def _triple(ops, fn, which):
    """ops, refused by name unless it is a 3-tuple."""
    if not isinstance(ops, tuple) or len(ops) != 3:
        what = f"a tuple of {len(ops)}" if isinstance(ops, tuple) else type(ops).__name__
        raise (ValueError if isinstance(ops, tuple) else TypeError)(
            f"the {which} operand of {fn} is a 3-tuple of operators, not {what}")
    return ops


def dot(ops_a, ops_b):
    """Sum of componentwise products of two 3-tuples of operators."""
    return sum((a * b for a, b in zip(_triple(ops_a, "dot", "first"),
                                      _triple(ops_b, "dot", "second"))), Op())


def cross(ops_a, ops_b):
    """Componentwise operator cross product (no symmetrization) of two
    3-tuples of operators."""
    ops_a, ops_b = _triple(ops_a, "cross", "first"), _triple(ops_b, "cross", "second")
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out.append(ops_a[j] * ops_b[k] - ops_a[k] * ops_b[j])
    return tuple(out)
