"""Test-only reference code for the operator ring and the correspondence.

* ``commutator``, the two-product form A B - B A built from whole
  normal-ordered products; ``weyl.commutator`` makes one pass over the
  monomial pairs and the tests pin it to this form.
* ``anticommutator``, ``coefficient_of_cinv`` and ``is_hermitian``
  (A equal to its adjoint), which only the tests use.
* ``R``, sympy's ring ZZ_I[hbar, cinv, minv, e, g, B, E] over the
  generators of ``weyl`` (``GENERATORS``, named by ``weyl._NAMES``), the
  reference for the coefficient arithmetic: ``to_ring_element`` and
  ``from_ring_element`` carry a polynomial dict of packed monomials and
  (re, im) pairs to an element of R and back, and ``random_poly`` draws
  a seeded polynomial dict to compare on.
* ``PAULI_MATRICES`` (I, sigma_1, sigma_2, sigma_3 written out as 2x2
  entries of R) and ``matrix_product``, the reference for the spin
  blocks, which ``weyl`` keeps in the Pauli basis, one polynomial dict
  whose monomials carry the Pauli index, and writes as 2x2 entries
  through ``weyl.matrix_block``; ``block`` builds such a dict from its
  four polynomials u0, u1, u2, u3.
* ``to_ring``, which reads a sympy expression in the generators (and m,
  read as 1/minv) into the cleared pair (dict, den) that ``Op.scalar``
  and ``Op.scale`` take, and ``cinv_orders``, the cinv exponents of an
  Op's terms.
* ``canonical_op``, an Op as plain data (den, and per key the sorted
  terms of each 2x2 entry), which the golden digests hash and the tests
  compare Ops by, den and every coefficient alike.
* ``full_residuals``, the correspondence residuals over the full 3x3
  loop of every family, with the oracle commutator and S.P formed per
  diagonal pair; ``quantum.correspondence_residuals`` evaluates the
  antisymmetric families (xx, PP, SS) for i < j only, and the tests pin
  it to this form.
* ``target_xS``, the xS target (S_j P_i - delta_ij S.P) cinv^2/m^2 of
  one pair, from one product, a separate S.P and one scaling, and
  ``scalar_potential``, -sum_i E_i pos_i over every component, the zero
  ones included, as products with scalar Ops: the eager forms that
  ``quantum``'s one table of products and first-read A^0 are pinned to.
* ``dipole``, the electric dipole operator of a realization, which no
  report reads.
"""

from __future__ import annotations

from math import lcm

import sympy as sp
from sympy import QQ_I, ZZ_I
from sympy.polys.rings import ring

from relspin.quantum import _XS, _eps_sum, _target_PP, _target_xx
from relspin.weyl import (_CINV_SHIFT, _NAMES, _PAULI_SHIFT, Op, _pack, _unpack,
                          cross, div_ihbar, dot, matrix_block)

GENERATORS = sp.symbols(_NAMES, real=True)
hbar, cinv, minv, e, g_sym = GENERATORS[:5]
m = sp.Symbol("m", real=True)
R = ring(GENERATORS, ZZ_I)[0]
RQ = ring(GENERATORS, QQ_I)[0]
_CINV = _NAMES.index("cinv")

PAIRS = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))
FAMILIES = ("xx", "xP", "PP", "xS", "PS", "SS")


def commutator(A, B):
    return A * B - B * A


def anticommutator(A, B):
    return A * B + B * A


def is_hermitian(A):
    return (A - A.adjoint()).is_zero()


def coefficient_of_cinv(op, order):
    """The operator multiplying cinv**order in op (cinv set to 1 there,
    every other generator and the Pauli index kept)."""
    return Op({k: {mon - (order << _CINV_SHIFT): c for mon, c in blk.items()
                   if _unpack(mon)[_CINV] == order}
               for k, blk in op.blocks.items()}, op.den)


def canonical_op(op):
    """An Op as plain data: den and, per sorted key, each entry of the
    block's 2x2 matrix as the sorted (exponents, re, im) of its terms;
    None for None."""
    if op is None:
        return None
    return {"den": op.den,
            "blocks": [[list(key), [sorted([list(_unpack(mon)), re, im]
                                           for mon, (re, im) in u.items())
                                    for u in matrix_block(blk)]]
                       for key, blk in sorted(op.blocks.items())]}


def to_ring(expr):
    """The cleared pair (u, den) with expr = u / den, expr a sympy
    expression (or a number) that is a polynomial in the generators once
    m is read as 1/minv; ValueError for a float, which sympy would round
    to a rational without a word."""
    val = sp.sympify(expr)
    if val.has(sp.Float):
        raise ValueError(f"to_ring takes exact values only, got the float {expr!r}")
    c = RQ.from_expr(val.xreplace({m: 1 / minv}))
    den = 1
    for q in c.values():
        den = lcm(den, q.x.denominator, q.y.denominator)
    return {_pack(mon): (int(q.x.numerator) * (den // q.x.denominator),
                         int(q.y.numerator) * (den // q.y.denominator))
            for mon, q in c.items()}, den


def cinv_orders(op):
    """The set of cinv exponents over every term of op's blocks."""
    return {_unpack(mon)[_CINV] for blk in op.blocks.values() for mon in blk}


def to_ring_element(u):
    """The polynomial dict u as an element of R."""
    return R.from_dict({_unpack(mon): ZZ_I(re, im) for mon, (re, im) in u.items()})


def from_ring_element(r):
    """An element of R as a polynomial dict."""
    return {_pack(mon): (int(c.x), int(c.y)) for mon, c in r.items()}


def _entries(*pairs):
    return tuple(R(ZZ_I(re, im)) for re, im in pairs)


# (m00, m01, m10, m11) in row order
PAULI_MATRICES = (_entries((1, 0), (0, 0), (0, 0), (1, 0)),
                  _entries((0, 0), (1, 0), (1, 0), (0, 0)),
                  _entries((0, 0), (0, -1), (0, 1), (0, 0)),
                  _entries((1, 0), (0, 0), (0, 0), (-1, 0)))


def block(*us):
    """The spin block u0 I + u.sigma of the polynomial dicts (u0, u1, u2,
    u3), as weyl stores it: u_s's terms with the Pauli index s."""
    return {mon | (s << _PAULI_SHIFT): c for s, u in enumerate(us) for mon, c in u.items()}


def matrix_product(a, b):
    """The product of two 2x2 matrices of elements of R, in row order."""
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def random_poly(rng, max_terms=4, max_coeff=3):
    """A polynomial dict of up to max_terms terms with coefficient parts
    in [-max_coeff, max_coeff].  hbar, cinv and minv take exponents 0-2
    and every other generator 0 or, rarely, 1, so that the terms of a
    product often meet on one monomial and sometimes cancel there.  Zero
    coefficients are drawn and dropped, so the dict may be empty."""
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        mon = _pack([rng.randint(0, 2) if i < 3 else int(rng.random() < 0.1)
                    for i in range(len(_NAMES))])
        re, im = rng.randint(-max_coeff, max_coeff), rng.randint(-max_coeff, max_coeff)
        if re or im:
            out[mon] = (re, im)
    return out


def target_xS(ps, i, j):
    """(S_j P_i - delta_ij S.P) cinv^2/m^2 at the 1-based pair (i, j)."""
    out = ps.S[j - 1] * ps.Phat[i - 1]
    if i == j:
        out = out - dot(ps.S, ps.Phat)
    return out.scale(_XS)


def scalar_potential(E, pos):
    """A^0 = -E.pos of the cleared pairs E at the operator position pos."""
    return -sum((Op.scalar(Ei) * r for Ei, r in zip(E, pos)), Op())


def _pair_residuals(ps, i, j):
    """Residual of every family at the 1-based pair (i, j)."""
    xi, Pi, Si = ps.xhat[i - 1], ps.Phat[i - 1], ps.S[i - 1]
    xj, Pj, Sj = ps.xhat[j - 1], ps.Phat[j - 1], ps.S[j - 1]
    return {
        "xx": div_ihbar(commutator(xi, xj)) - _target_xx(ps, i, j),
        "xP": div_ihbar(commutator(xi, Pj)) - Op.scalar(1 if i == j else 0),
        "PP": div_ihbar(commutator(Pi, Pj)) - _target_PP(ps, i, j),
        "xS": div_ihbar(commutator(xi, Sj)) - target_xS(ps, i, j),
        "PS": div_ihbar(commutator(Pi, Sj)),
        "SS": div_ihbar(commutator(Si, Sj)) - _eps_sum(ps.S, i, j),
    }


def full_residuals(ps):
    """(per_pair, kept): per_pair[fam][(i, j)] is every residual of the
    3x3 loop; kept[fam] is the first residual, in row-major order, of
    the family's lowest cinv order (None when all vanish)."""
    per_pair = {fam: {} for fam in FAMILIES}
    kept, worst = dict.fromkeys(FAMILIES), dict.fromkeys(FAMILIES)
    for i, j in PAIRS:
        for fam, op in _pair_residuals(ps, i, j).items():
            per_pair[fam][(i, j)] = op
            o = op.min_cinv_order()
            if o is not None and (worst[fam] is None or o < worst[fam]):
                worst[fam], kept[fam] = o, op
    return per_pair, kept


def dipole(ps):
    """D = (hbar cinv / 2 m) (Phat x sigma - sigma x Phat), the
    constraint-resolved classical D = 2 (P x S) / (m c) symmetrized:
    A(xhat) inside Phat carries sigma, so the bare product would miss
    hermiticity at higher order."""
    half = to_ring(hbar * cinv / (2 * m))
    return tuple((a - b).scale(half)
                 for a, b in zip(cross(ps.Phat, ps.sigma), cross(ps.sigma, ps.Phat)))
