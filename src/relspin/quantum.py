"""Pauli-level operator realization of the reduced phase space.

Canonical (x, p, sigma) carry the standard commutators.  The physical
position acquires a spin shift,

    xhat_i = x_i - (hbar cinv^2 / 4 m^2) eps_{ijk} P_j sigma_k,

which reproduces the classical position noncommutativity at its leading
order; kinetic momentum is p - e cinv A(xhat), spin is hbar sigma / 2,
and the electric dipole follows the constraint-resolved classical form
D = 2 (P x S) / (m c).

The payoff assembled here: re-expanding e A^0(xhat) around the
canonical position produces, for a linear potential exactly,

    e A^0(xhat) = e A^0(x) - (e cinv^2 / 2 m^2) S.(P x E),

which interferes with the covariant g-proportional coupling of the
expanded Hamiltonian and leaves spin-orbit strength e (g-1) / 2 m^2 c^2.
The classical counterpart of the same mechanism is the primed chart of
the expansion module; the quantum ordering corrections vanish for the
Coulomb field as well (the epsilon contraction kills them), which is
used by the hydrogen module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .weyl import Op, _cleared_term, _pdiv_ihbar, commutator, cross, dot

EPS = {}
for _i in range(3):
    for _j in range(3):
        for _k in range(3):
            EPS[(_i, _j, _k)] = int((_i - _j) * (_j - _k) * (_k - _i) / 2)

FIELD_KINDS = ("free", "uniform-E", "uniform-B", "crossed")

# background parameters and the constants of the realization, as
# cleared pairs (polynomial dict, den) that Op.scalar and Op.scale take
# as they are: minv = 1/m
_B_FIELD = tuple(_cleared_term(**{name: 1}) for name in ("B1", "B2", "B3"))
_E_FIELD = tuple(_cleared_term(**{name: 1}) for name in ("E1", "E2", "E3"))
_NO_FIELD = (_cleared_term(0),) * 3
_HALF = _cleared_term(den=2)
_HBAR = _cleared_term(hbar=1)
_HALF_HBAR = _cleared_term(den=2, hbar=1)
_E = _cleared_term(e=1)
_E_CINV = _cleared_term(e=1, cinv=1)
_SHIFT = _cleared_term(den=4, hbar=1, cinv=2, minv=2)
_DIPOLE = _cleared_term(den=2, hbar=1, cinv=1, minv=1)
_XX = _cleared_term(den=2, hbar=1, cinv=2, minv=2)
_XS = _cleared_term(cinv=2, minv=2)
_SO = _cleared_term(den=2, e=1, cinv=2, minv=2)
# the coupling g as the ring generator, the default of the g - 1 assembly
_G = _cleared_term(g=1)


@dataclass(frozen=True)
class PauliSet:
    """Operator family for one uniform background; E and B are the field
    components as cleared pairs (polynomial dict, den), the generators
    E1..E3 and B1..B3 or zero.  The dipole operator Dhat is built on
    first read: no report reads it."""

    kind: str
    x: tuple
    p: tuple
    sigma: tuple
    S: tuple
    P0hat: tuple
    xhat: tuple
    Phat: tuple
    Shat: dict
    E: tuple
    B: tuple
    A0: Op
    A0_hat: Op

    @cached_property
    def Dhat(self):
        """D = (hbar cinv / 2 m) (Phat x sigma - sigma x Phat), symmetrized:
        A(xhat) inside Phat carries sigma, so the bare product would miss
        hermiticity at higher order."""
        return tuple((a - b).scale(_DIPOLE)
                     for a, b in zip(cross(self.Phat, self.sigma), cross(self.sigma, self.Phat)))


def _scalars(vec):
    return tuple(Op.scalar(v) for v in vec)


def _vector_potential(B, pos):
    """A = B x r / 2 componentwise on operator positions."""
    return tuple(a.scale(_HALF) for a in cross(_scalars(B), pos))


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

    A_at_x = _vector_potential(Bv, x)
    P0hat = tuple(p[i] - A_at_x[i].scale(_E_CINV) for i in range(3))

    shift = cross(P0hat, sig)
    xhat = tuple(x[i] - shift[i].scale(_SHIFT) for i in range(3))

    A_at_xhat = _vector_potential(Bv, xhat)
    Phat = tuple(p[i] - A_at_xhat[i].scale(_E_CINV) for i in range(3))

    Shat = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                k = 3 - i - j
                Shat[(i + 1, j + 1)] = sig[k].scale(_HBAR).scale(EPS[(i, j, k)])

    A0 = Op()
    A0_hat = Op()
    for i in range(3):
        if Ev[i][0]:
            A0 = A0 - x[i].scale(Ev[i])
            A0_hat = A0_hat - xhat[i].scale(Ev[i])

    return PauliSet(kind=kind, x=x, p=p, sigma=sig, S=S, P0hat=P0hat,
                    xhat=xhat, Phat=Phat, Shat=Shat,
                    E=Ev, B=Bv, A0=A0, A0_hat=A0_hat)


# ---------------------------------------------------------------------------
# correspondence with the expanded classical brackets


def _by_ihbar(op):
    """op / (i hbar), exact, with op's den kept; weyl.NotDivisible where
    a monomial carries no hbar."""
    return Op({k: tuple(map(_pdiv_ihbar, blk)) for k, blk in op.blocks.items()},
              op.den)


def _eps_sum(vec, i, j):
    """eps_{ijk} vec_k for 1-based i, j; the zero Op when i == j."""
    acc = Op()
    for k in range(3):
        if EPS[(i - 1, j - 1, k)]:
            acc = acc + vec[k].scale(EPS[(i - 1, j - 1, k)])
    return acc


def _target_xx(ps, i, j):
    return _eps_sum(ps.sigma, i, j).scale(_XX)


def _target_PP(ps, i, j):
    return _eps_sum(_scalars(ps.B), i, j).scale(_E_CINV)


def _target_xS(ps, i, j, s_dot_p):
    """(S_j P_i - delta_ij S.P) cinv^2/m^2, with s_dot_p = S.P."""
    out = ps.S[j - 1] * ps.Phat[i - 1]
    if i == j:
        out = out - s_dot_p
    return out.scale(_XS)


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

    s_dot_p = dot(ps.S, ps.Phat)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            keep("xP", _by_ihbar(commutator(ps.xhat[i - 1], ps.Phat[j - 1]))
                 - Op.scalar(1 if i == j else 0))
            keep("xS", _by_ihbar(commutator(ps.xhat[i - 1], ps.S[j - 1]))
                 - _target_xS(ps, i, j, s_dot_p))
            keep("PS", _by_ihbar(commutator(ps.Phat[i - 1], ps.S[j - 1])))
    for i, j in ((1, 2), (1, 3), (2, 3)):
        keep("xx", _by_ihbar(commutator(ps.xhat[i - 1], ps.xhat[j - 1]))
             - _target_xx(ps, i, j))
        keep("PP", _by_ihbar(commutator(ps.Phat[i - 1], ps.Phat[j - 1]))
             - _target_PP(ps, i, j))
        keep("SS", _by_ihbar(commutator(ps.S[i - 1], ps.S[j - 1]))
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
        order = None if op is None or op.is_zero() else op.min_cinv_order()
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


def covariant_spin_orbit(ps, g=_G):
    """(e g / 2 m^2 c^2) S.(P x E), the coupling the expanded
    Hamiltonian inherits from the covariant dipole term."""
    return _s_dot_p_cross_e(ps).scale(_SO).scale(g)


def g_minus_one_residual(ps, g=_G):
    """g * assembled - (g-1) * covariant, the polynomial form of
    assembled = (g-1)/g * covariant, where assembled is the covariant
    coupling plus the potential shift.  For g != 0 it is identically
    zero iff the noncommutative shift converts the coupling g -> g - 1.
    g is the ring generator g by default, or an int or cleared pair."""
    covariant = covariant_spin_orbit(ps, g)
    # (g - 1) * covariant as g * covariant - covariant: the Ops carry
    # the arithmetic, not the scalar g
    return ((covariant + potential_shift(ps)).scale(g)
            - (covariant.scale(g) - covariant))
