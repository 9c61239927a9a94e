"""Pauli-level operator realization of the reduced phase space.

Canonical (x, p, sigma) carry the standard commutators.  The physical
position acquires a spin shift,

    xhat_i = x_i - (hbar cinv^2 / 4 m^2) eps_{ijk} P_j sigma_k,

which reproduces the classical position noncommutativity at its leading
order; kinetic momentum is p - e cinv A(xhat) and spin is hbar sigma / 2.
A zero field enters no operator arithmetic; A^0 is built on first read.
No report reads a dipole operator: the tests build it.

The payoff assembled here: re-expanding e A^0(xhat) around the
canonical position produces, for a linear potential exactly,

    e A^0(xhat) = e A^0(x) - (e cinv^2 / 2 m^2) S.(P x E),

which interferes with the covariant g-proportional coupling of the
expanded Hamiltonian and leaves spin-orbit strength e (g-1) / 2 m^2 c^2.
The classical counterpart of the same mechanism is the primed chart of
the expansion module.  The identity is checked only where it is built:
the uniform fields of FIELD_KINDS, whose A^0 is linear.  For a nonlinear
A^0, the Coulomb one included, the xhat_i fail to commute at
O(hbar^2 cinv^2), and a cubic A^0 leaves a cinv^2 residual unless the
products in A^0(xhat) are Weyl-ordered; the epsilon contraction alone
does not remove it (ROADMAP.md, "The operator identity on non-uniform
potentials").  The hydrogen module assumes the Weyl-ordered form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .weyl import Op, _cleared_term, commutator, cross, div_ihbar, dot

FIELD_KINDS = ("free", "uniform-E", "uniform-B", "crossed")

# background parameters and the constants of the realization, as
# cleared pairs (polynomial dict, den) that Op.scalar and Op.scale take
# as they are: minv = 1/m
_B_FIELD = tuple(_cleared_term(**{name: 1}) for name in ("B1", "B2", "B3"))
_E_FIELD = tuple(_cleared_term(**{name: 1}) for name in ("E1", "E2", "E3"))
_NO_FIELD = (_cleared_term(0),) * 3
_HALF_HBAR = _cleared_term(den=2, hbar=1)
_E = _cleared_term(e=1)
_E_CINV = {s: _cleared_term(s, e=1, cinv=1) for s in (1, -1)}   # +-e cinv, by sign
_HALF_E_CINV = _cleared_term(den=2, e=1, cinv=1)
_SHIFT = _cleared_term(den=4, hbar=1, cinv=2, minv=2)
_XX = _cleared_term(den=2, hbar=1, cinv=2, minv=2)
_XS = _cleared_term(cinv=2, minv=2)
_SO = _cleared_term(den=2, e=1, cinv=2, minv=2)
# the coupling g as the ring generator, in which the g - 1 assembly is built
_G = _cleared_term(g=1)


@dataclass(frozen=True)
class PauliSet:
    """Operator family for one uniform background; E and B are the field
    components as cleared pairs (polynomial dict, den), the generators
    E1..E3 and B1..B3 or zero; A0 and A0_hat are built on first read."""

    x: tuple
    p: tuple
    sigma: tuple
    S: tuple
    P0hat: tuple
    xhat: tuple
    Phat: tuple
    E: tuple
    B: tuple

    @cached_property
    def A0(self):
        return _scalar_potential(self.E, self.x)

    @cached_property
    def A0_hat(self):
        return _scalar_potential(self.E, self.xhat)


def _scalars(vec):
    return tuple(Op.scalar(v) for v in vec)


def _is_zero(field):
    return not any(c for c, _ in field)


def _scalar_potential(E, pos):
    """A^0 = -E.pos at the operator position pos, over the nonzero E_i only."""
    A0 = Op()
    for Ei, r in zip(E, pos):
        if Ei[0]:
            A0 = A0 - r.scale(Ei)
    return A0


def build_operators(kind="uniform-B"):
    """All operators of the realization for a uniform background."""
    if kind not in FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}; use one of {FIELD_KINDS}")
    Bv = _B_FIELD if kind in ("uniform-B", "crossed") else _NO_FIELD
    Ev = _E_FIELD if kind in ("uniform-E", "crossed") else _NO_FIELD

    x = tuple(Op.x(i) for i in (1, 2, 3))
    p = tuple(Op.p(i) for i in (1, 2, 3))
    sig = tuple(Op.sigma(i) for i in (1, 2, 3))
    S = tuple(s.scale(_HALF_HBAR) for s in sig)

    def kinetic(pos):   # p - e cinv A at pos, A = B x pos / 2; p itself on a zero B
        if _is_zero(Bv):
            return p
        A = cross(_scalars(Bv), pos)
        return tuple(pi - a.scale(_HALF_E_CINV) for pi, a in zip(p, A))

    P0hat = kinetic(x)
    shift = cross(P0hat, sig)
    xhat = tuple(x[i] - shift[i].scale(_SHIFT) for i in range(3))

    return PauliSet(x=x, p=p, sigma=sig, S=S, P0hat=P0hat, xhat=xhat,
                    Phat=kinetic(xhat), E=Ev, B=Bv)


# ---------------------------------------------------------------------------
# correspondence with the expanded classical brackets


def _eps(i, j):   # (k, eps_{ijk}) for 1-based i != j, k the third axis, 0-based
    return 5 - i - j, 1 if (j - i) % 3 == 1 else -1


def _eps_sum(vec, i, j):
    """eps_{ijk} vec_k for 1-based i, j; the zero Op when i == j."""
    if i == j:
        return Op()
    k, sign = _eps(i, j)
    return vec[k].scale(sign)


def _target_xx(ps, i, j):
    return _eps_sum(ps.sigma, i, j).scale(_XX)


def _target_PP(ps, i, j):   # e cinv eps_{ijk} B_k; the zero Op at i == j or B = 0
    if i == j or _is_zero(ps.B):
        return Op()
    k, sign = _eps(i, j)
    return Op.scalar(ps.B[k]).scale(_E_CINV[sign])


def _targets_xS(ps):
    """[i][j] = (S_j P_i - delta_ij S.P) cinv^2/m^2 (0-based), from S_j
    scaled once; S.P is the diagonal of the products."""
    S = [s.scale(_XS) for s in ps.S]
    SP = [[s * P for s in S] for P in ps.Phat]
    s_dot_p = SP[0][0] + SP[1][1] + SP[2][2]
    return [[SP[i][j] - s_dot_p if i == j else SP[i][j] for j in range(3)] for i in range(3)]


def correspondence_residuals(ps):
    """Residual operator of each pair family: commutator / (i hbar)
    minus the operator transcription of the expanded classical bracket.
    Keyed by family; values are Ops (zero Op = exact agreement), each
    the first residual (row-major over i, j) of the family's lowest
    cinv order.

    xx, PP and SS are evaluated for i < j only.  Their commutators and
    targets are antisymmetric, so residual(j, i) = -residual(i, j),
    which has the same cinv order and comes later in row-major order,
    and residual(i, i) is zero; neither can displace the residual the
    full 3x3 loop keeps.  The report takes 36 commutators, where the
    full loop takes 54."""
    res = {}
    worst = {"xx": None, "xP": None, "PP": None, "xS": None, "PS": None,
             "SS": None}

    def keep(fam, op):
        o = op.min_cinv_order()
        if o is not None and (worst[fam] is None or o < worst[fam]):
            worst[fam] = o
            res[fam] = op

    target_xS = _targets_xS(ps)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            xP = div_ihbar(commutator(ps.xhat[i - 1], ps.Phat[j - 1]))
            keep("xP", xP - 1 if i == j else xP)
            keep("xS", div_ihbar(commutator(ps.xhat[i - 1], ps.S[j - 1]))
                 - target_xS[i - 1][j - 1])
            keep("PS", div_ihbar(commutator(ps.Phat[i - 1], ps.S[j - 1])))
    for i, j in ((1, 2), (1, 3), (2, 3)):
        keep("xx", div_ihbar(commutator(ps.xhat[i - 1], ps.xhat[j - 1]))
             - _target_xx(ps, i, j))
        keep("PP", div_ihbar(commutator(ps.Phat[i - 1], ps.Phat[j - 1]))
             - _target_PP(ps, i, j))
        keep("SS", div_ihbar(commutator(ps.S[i - 1], ps.S[j - 1]))
             - _eps_sum(ps.S, i, j))
    return {fam: res.get(fam) for fam in worst}


CORRESPONDENCE_FLOORS = {
    # minimal cinv order the residual of each family may contain;
    # None means the residual must vanish identically
    "free":      {"xx": 4, "xP": None, "PP": None, "xS": 2, "PS": None, "SS": None},
    "uniform-E": {"xx": 4, "xP": None, "PP": None, "xS": 2, "PS": None, "SS": None},
    "uniform-B": {"xx": 4, "xP": 3, "PP": 4, "xS": 2, "PS": 3, "SS": None},
    "crossed":   {"xx": 4, "xP": 3, "PP": 4, "xS": 2, "PS": 3, "SS": None},
}


def correspondence_report(kind="uniform-B"):
    """Minimal cinv order of each residual family vs. the quoted floor."""
    ps = build_operators(kind)
    rep = {}
    floors = CORRESPONDENCE_FLOORS[kind]
    for fam, op in correspondence_residuals(ps).items():
        order = None if op is None else op.min_cinv_order()
        floor = floors[fam]
        ok = order is None if floor is None else (order is not None and order >= floor)
        rep[fam] = {"min_order": order, "floor": floor, "ok": bool(ok)}
    return rep


# ---------------------------------------------------------------------------
# the potential re-expansion and the g - 1 assembly


def potential_shift(ps):
    """e A^0(xhat) - e A^0(x); exact as an operator for linear A^0."""
    return (ps.A0_hat - ps.A0).scale(_E)


def _s_dot_p_cross_e(ps):
    return dot(ps.S, cross(ps.P0hat, _scalars(ps.E)))


def shift_identity_residual(ps):
    """potential_shift + (e cinv^2 / 2 m^2) S.(P x E); zero for a
    uniform electric field."""
    return potential_shift(ps) + _s_dot_p_cross_e(ps).scale(_SO)


def covariant_spin_orbit(ps):
    """(e g / 2 m^2 c^2) S.(P x E), g the ring generator: the coupling
    the expanded Hamiltonian inherits from the covariant dipole term."""
    return _s_dot_p_cross_e(ps).scale(_SO).scale(_G)


def g_minus_one_residual(ps):
    """g * assembled - (g-1) * covariant, the polynomial form of
    assembled = (g-1)/g * covariant, where assembled is the covariant
    coupling plus the potential shift.  In the ring generator g it is
    g * shift + covariant, zero iff the noncommutative shift converts
    the coupling g -> g - 1, one identity for every numeric g."""
    covariant = covariant_spin_orbit(ps)
    # (g - 1) * covariant as g * covariant - covariant: the Ops carry
    # the arithmetic, not the scalar g
    return ((covariant + potential_shift(ps)).scale(_G)
            - (covariant.scale(_G) - covariant))
