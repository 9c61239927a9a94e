"""Dirac brackets of the second-class pair (T3, T4).

Two independent routes are implemented and pinned against each other:

* the *direct* route builds {A, B}_D from exact gradients and the
  canonical bracket,

      {A,B}_D = {A,B} + ( {A,T3}{T4,B} - {A,T4}{T3,B} ) / {T3,T4},

  using nothing but the constraint definitions; it is the oracle.
  ``dirac_core`` evaluates the fields and the kernel ``phase._kernel``
  once per state, assembles the rows R = grad (calP^0, T3, T4) from the
  kernel's pieces with ``phase.t_rows``, applies J to grad T3 and
  grad T4 as the signed permutation ``phase.symplectic``, and takes
  {T3,T4} through ``phase._t3t4``, the floor check that
  ``dynamics.dirac_rhs`` shares.  ``DiracCore.flow`` maps grad B, one
  gradient or an (n, 16) stack, to {z, B}_D, so that {A,B}_D =
  grad A . flow(grad B) and the direct table of n rows is one matrix
  G flow(G)^T per state.  G is
  read from the core by ``row_gradients``: the (22, 16) gradients of the
  ROW_OBSERVABLES rows (x, calP, calP^0, omega, pi, S) and of H, of
  which every report, the ladder of ``expansion`` and the self test take
  their rows as slices; ``dirac_bracket`` pairs two ``phase.Observable``
  instead.  The right-hand side needs the flow of grad H alone and takes
  it from three symplectic pairings of the kernel's pieces, without rows
  or a core;

* the *closed-form* route evaluates the same tables from the
  coefficient blocks (a, u0, Delta, K, L, g_eff): ``closed_brackets``
  is the (12, 12) matrix of reduced brackets of the physical rows
  (x, calP, S), ``aux_table_entries`` the (3, 21) table of canonical
  brackets of (calP^0, T3, T4) against every row observable.

The core is the one per-state bundle (state, fields, calP, S, rows) that
both routes, the gradient matrix and ``expansion`` read, so a report
evaluates the fields and the kernel once per state, and the arrays the
closed forms read (F, F_low, FS, dsf) once, on first read.  Every report
builds one core and one matrix per route and state, compares them block
by block, and reduces over the states through ``max_over_states``.

The transcription of the closed forms carried defects that this
module adjudicates numerically against the direct route (see
``aux_table_report`` and the tests): in the energy row of the
auxiliary bracket table the gradient term carries g/4 (not g/8) and
the electric-dipole term carries g (the transcribed coefficient was
unreadable in one column and g/2 in the other); the candidate extra
additive term in Delta^{mu nu} is exactly zero; the L term of the
spin-position bracket enters with a minus sign; and the spin-spin
bracket carries the L block twice, mirrored, which is what keeps it
antisymmetric.  The tests assert both that the resolved forms match
the oracle and that the transcribed energy row and a flipped L sign
do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

import numpy as np

from .minkowski import ETA_DIAG, UPPER, EB_from_field, contract_2, field_tensor, lower2
from .phase import J, field_data, spin_tensor, symplectic, t_rows, _kernel, _t3t4

_MU, _NU = UPPER   # the spin rows' slots (mu, nu), in the order of F's six floats


@dataclass(frozen=True)
class DiracCore:
    """Per-state bundle shared by every Dirac evaluation at a fixed z."""

    z: object        # the PhaseState
    fields: tuple    # field_data at z, the float tuples (A, dA, F, dF)
    P: np.ndarray
    S: np.ndarray    # spin_tensor(z.w, z.pi)
    R: np.ndarray    # rows grad calP^0, grad T3, grad T4
    JR: np.ndarray   # J grad T3, J grad T4
    t34: float

    def flow(self, G):
        """{z^k, B}_D for G = grad B, one (16,) gradient or an (n, 16)
        stack, so that grad A . flow(grad B) = {A, B}_D:

            J grad B + ( {T4,B} J grad T3 - {T3,B} J grad T4 ) / {T3,T4},

        {T_a, B} = grad T_a . J grad B.  The second-class correction
        of any gradient; ``dynamics.dirac_rhs`` writes its value at
        grad H as three pairings of the kernel's pieces."""
        JG = G @ J.T
        h3 = JG @ self.R[1]
        h4 = JG @ self.R[2]
        return (JG + np.multiply.outer(h4 / self.t34, self.JR[0])
                - np.multiply.outer(h3 / self.t34, self.JR[1]))

    @cached_property
    def F(self):
        return field_tensor(self.fields[2])

    @cached_property
    def F_low(self):
        return lower2(self.F)

    @cached_property
    def FS(self):
        """(F eta S)^{mu nu} = F^mu_lam S^{lam nu}."""
        return self.F @ (ETA_DIAG[:, None] * self.S)

    @cached_property
    def dsf(self):
        """d_lam (F_{mu nu} S^{mu nu}) at fixed S, (4,); the backgrounds
        are stationary, so the time slot is zero."""
        dF = field_tensor(((0.0,) * 6, *self.fields[3]))
        return np.einsum("lmn,mn->l", lower2(dF), self.S)


def dirac_core(z, model):
    """The second-class data at z; raises where {T3,T4} is too small to invert."""
    vec = z.vec.tolist()
    fields = field_data(model, vec[:4])
    P, pieces = _kernel(vec, model, fields)
    rows = t_rows(vec, P, pieces)
    JR = [symplectic(r) for r in rows[1:]]
    return DiracCore(z=z, fields=fields, P=np.array(P), S=spin_tensor(z.w, z.pi),
                     R=np.array(rows), JR=np.array(JR),
                     t34=_t3t4(sum(map(mul, rows[1], JR[1])), model))


def dirac_bracket(A, B, core, model):
    """Direct {A, B}_D of two phase.Observable at the core's state."""
    return float(A.grad(core.z, model) @ core.flow(B.grad(core.z, model)))


# ---------------------------------------------------------------------------
# coefficient blocks of the reduced (closed-form) brackets


@dataclass(frozen=True)
class DiracCoefficients:
    """State-level blocks entering every closed-form reduced bracket.

    a      scalar, -2e / (4 m^2 c^3 - e (g+1) (SF))
    u0     scalar, calP^0 plus field-gradient and dipole corrections;
           ties the blocks to the oracle through {T3,T4} = e u0 / (2 c a calP^0)
    Delta  (4,4)   position noncommutativity, {x,x} = Delta/2
    K      (4,4)   field-gradient block
    L      (4,4,4) spin-transport block
    g_eff  (4,4)   eta + (momentum dyad)/(mass shell), free limit
                   eta^{mu nu} + P^mu P^nu / (m c)^2
    """

    a: float
    u0: float
    Delta: np.ndarray
    K: np.ndarray
    L: np.ndarray
    g_eff: np.ndarray


def dirac_coefficients(core, model):
    """The blocks at the core's state; ValueError at e = 0 (they divide by
    e u0) and at an a that is zero or not finite (they divide by a)."""
    e, c, g = model.e, model.c, model.g
    if e == 0.0:
        raise ValueError(f"the closed-form brackets divide by e u0: charge e must be "
                         f"nonzero, got {e}")
    P, S, dsf = core.P, core.S, core.dsf
    sf = contract_2(core.F, S)

    a = -2.0 * e / (4.0 * model.mc2 * c - e * (g + 1.0) * sf)
    if not 0.0 < abs(a) < np.inf:   # NaN fails this test too
        raise ValueError(f"the closed-form coefficient a = -2e / (4 m^2 c^3 - e (g+1) (SF)) "
                         f"is {a}, not a nonzero finite number: m = {model.m}, c = {c}")

    sfp0 = float(S[0, :] @ (core.F_low @ P))
    u0 = P[0] - 0.5 * (g - 2.0) * a * sfp0 + (g * a / 8.0) * float(S[0, :] @ dsf)

    pref = -2.0 * c * a / (e * u0)
    sym3 = P[0] * S + np.outer(P, S[:, 0]) + np.outer(S[0, :], P)
    Delta = pref * sym3

    # raised derivative d^nu(SF): time slot flips sign but is zero anyway
    dsf_up = ETA_DIAG * dsf
    K = -(g * c * a / (4.0 * e * u0)) * np.outer(S[0, :], dsf_up)

    fs_asym = core.FS - core.FS.T
    L = -(g * a / u0) * np.einsum("mn,a->mna", fs_asym, S[0, :])

    g_eff = np.diag(ETA_DIAG) - (2.0 * c * a * P[0] / (e * u0)) * np.outer(P, P)
    return DiracCoefficients(a=a, u0=u0, Delta=Delta, K=K, L=L, g_eff=g_eff)


def t3t4_closed(core, coef, model):
    """{T3, T4} through the closed coefficients, e u0 / (2 c a calP^0)."""
    return model.e * coef.u0 / (2.0 * model.c * coef.a * core.P[0])


# ---------------------------------------------------------------------------
# rows of the bracket tables: x^1..3, calP^1..3, calP^0, omega^mu, pi^mu,
# S^{mu nu}; the physical rows are x, calP and S


ROW_OBSERVABLES = (*(("x", i) for i in (1, 2, 3)), *(("P", i) for i in (1, 2, 3)),
                   ("P0", None), *(("omega", mu) for mu in range(4)),
                   *(("pi", mu) for mu in range(4)),
                   *(("S", pair) for pair in zip(_MU.tolist(), _NU.tolist())))

# the rows of each kind, in ROW_OBSERVABLES order; H is the row after them
_ROWS = {kind: [n for n, (k, _) in enumerate(ROW_OBSERVABLES) if k == kind]
         for kind, _ in ROW_OBSERVABLES}
_PHYSICAL = _ROWS["x"] + _ROWS["P"] + _ROWS["S"]

# the constant entries: the one of x^i, of calP^i in p^i, of omega^mu and
# of pi^mu, at the first slot of each block plus the index
_BLOCK = {"x": 0, "P": 4, "omega": 8, "pi": 12}
_CONSTANT = np.array([np.eye(16)[_BLOCK[kind] + i] if kind in _BLOCK else np.zeros(16)
                      for kind, i in (*ROW_OBSERVABLES, ("H", None))])


def row_gradients(core, model):
    """The gradients of the ROW_OBSERVABLES rows and of H at the core's
    state, a (22, 16) matrix read from the core: no field evaluation and
    no kernel call.

    The x, omega and pi rows are constant; calP^i = p^i - (e/c) A^i adds
    -(e/c) d A^i to the one in p^i; the calP^0 row is the core's
    grad calP^0; S^{mu nu} = 2 (omega^mu pi^nu - omega^nu pi^mu) reads
    omega and pi; H = c calP^0 + e A^0.  The backgrounds are stationary:
    the x^0 slot of d A^i is 0.0.
    """
    dA = core.fields[1]      # dA[mu] = (d_1, d_2, d_3) A^mu
    w, q = core.z.w, core.z.pi
    G = _CONSTANT.copy()
    G[_ROWS["P"], 0:4] = np.multiply(-model.e_c, [(0.0, *dA[i]) for i in (1, 2, 3)])
    G[_ROWS["P0"]] = core.R[0]
    spin = _ROWS["S"]
    # added onto the zeros, so that a product -0.0 is stored as 0.0
    G[spin, 8 + _MU] += 2.0 * q[_NU]
    G[spin, 8 + _NU] += -2.0 * q[_MU]
    G[spin, 12 + _NU] += 2.0 * w[_MU]
    G[spin, 12 + _MU] += -2.0 * w[_NU]
    G[-1] = model.c * core.R[0]
    G[-1, 1:4] += np.multiply(model.e, dA[0])
    return G


# the reduced-bracket families as blocks of the physical-row matrix
_X, _P, _S = slice(0, 3), slice(3, 6), slice(6, 12)
CLOSED_FAMILIES = {"xx": (_X, _X), "xP": (_X, _P), "PP": (_P, _P),
                   "Sx": (_S, _X), "SP": (_S, _P), "SS": (_S, _S)}


# ---------------------------------------------------------------------------
# closed-form reduced brackets of the physical pairs


def closed_brackets(core, coef, model):
    """{A_a, A_b}_D through the coefficient blocks, as the (12, 12)
    matrix over the physical rows x, calP and S of ROW_OBSERVABLES; the
    blocks below the diagonal follow by antisymmetry."""
    e, c = model.e, model.c
    if not c * c < np.inf:   # the PP block carries e^2 / (2 c^2)
        raise ValueError(f"c^2 is past the float range in the closed-form brackets: c = {c}")
    P, S, Delta, ge = core.P, core.S, coef.Delta, coef.g_eff
    F3 = core.F_low[1:, 1:]
    # G[mu, j] = Delta^{mu k} F_{k j} - K^{mu j} for spatial j
    G = Delta[:, 1:] @ F3 - coef.K[:, 1:]
    FK = F3 @ coef.K[1:, 1:]
    Lrow = coef.L[_MU, _NU]                       # L^{mu nu lam} per spin row

    xx = 0.5 * Delta[1:, 1:]
    xP = np.eye(3) - (e / (2.0 * c)) * G[1:]
    PP = e / c * F3 - (e**2 / (2.0 * c**2)) * (F3 @ Delta[1:, 1:] @ F3
                                              - (FK - FK.T))
    # the L term enters with a minus sign here (it is +1/2 L F in the
    # momentum row); fixed against the direct oracle and re-derived
    Sx = (P[_MU, None] * Delta[_NU, 1:] - P[_NU, None] * Delta[_MU, 1:]
          - 0.5 * Lrow[:, 1:])
    SP = (e / c) * (-P[_MU, None] * G[_NU] + P[_NU, None] * G[_MU]
                    + 0.5 * Lrow[:, 1:] @ F3)
    # SS[a, b] over spin rows a = (mu nu), b = (al be); gS = g_eff^{..} S^{..}
    gS = np.einsum("pq,rs->pqrs", ge, S)
    M, N, A, B = _MU[:, None], _NU[:, None], _MU, _NU
    # the spin-transport block appears twice, mirrored, so the bracket
    # stays antisymmetric under (mu nu) <-> (al be); a single L term
    # fails the direct oracle at O(field * spin / m^2 c^3)
    LP = Lrow[:, A] * P[B] - Lrow[:, B] * P[A]
    SS = 2.0 * (gS[M, A, N, B] - gS[M, B, N, A] - gS[N, A, M, B]
                + gS[N, B, M, A]) + LP - LP.T
    return np.block([[xx, xP, -Sx.T], [-xP.T, PP, -SP.T], [Sx, SP, SS]])


# ---------------------------------------------------------------------------
# auxiliary bracket table: canonical brackets of (calP^0, T3, T4) against
# the row observables, resolved closed expressions vs. the oracle


def aux_table_entries(core, model, energy_row_variant="resolved"):
    """The auxiliary table at the core's state as closed expressions, a
    (3, 21) array: rows calP^0, T3, T4, columns in ROW_OBSERVABLES order.

    energy_row_variant selects the coefficients of the
    { (T3|T4), calP^0 } entries: "resolved" uses (g/4, g) as fixed by
    the oracle; "transcribed" uses (g/8, g/2), the defective printed
    pair, and is kept so the adjudication stays reproducible.
    """
    e, c, g = model.e, model.c, model.g
    if energy_row_variant == "resolved":
        c_grad, c_dip = g / 4.0, g
    elif energy_row_variant == "transcribed":
        c_grad, c_dip = g / 8.0, g / 2.0
    else:
        raise ValueError(f"unknown energy_row_variant {energy_row_variant!r}")

    z, P, dsf = core.z, core.P, core.dsf
    P0 = P[0]
    E = np.array(EB_from_field(core.fields[2])[0])
    F3 = core.F_low[1:, 1:]
    k = e * g / (2.0 * P0 * c)

    p0_row = np.concatenate([
        -P[1:] / P0,
        -(e / (P0 * c)) * (F3 @ P[1:] + (g / 8.0) * dsf[1:]),
        [0.0],
        -k * (core.F @ (ETA_DIAG * z.w)),     # (F omega)^mu
        -k * (core.F @ (ETA_DIAG * z.pi)),
        -k * (core.FS - core.FS.T)[_MU, _NU]])

    def t_row(v, omega_part, pi_part):
        """T_v = -v^0 (calP^0 row) + its explicit part."""
        pfv = float(P[1:] @ (F3 @ v[1:]))
        grad_term = c_grad * float(v[1:] @ dsf[1:])
        dip_term = c_dip * float(E @ (P0 * v[1:] - v[0] * P[1:]))
        energy = (e / (2.0 * P0 * c)) * ((g - 2.0) * pfv + grad_term - dip_term)
        explicit = np.concatenate([
            -v[1:], -(e / c) * (F3 @ v[1:]), [energy], omega_part, pi_part,
            -2.0 * (P[_MU] * v[_NU] - P[_NU] * v[_MU])])
        return explicit - v[0] * p0_row

    zero = np.zeros(4)
    return np.array([p0_row, t_row(z.w, zero, P), t_row(z.pi, -P, zero)])


def aux_table_oracle(core, model):
    """The same table computed directly from the canonical bracket."""
    G = row_gradients(core, model)[:-1]
    return core.R @ (G @ J.T).T


# report groups "{T3,x}", ...: (label, table row, columns), sorted by label
_AUX_GROUPS = tuple((f"{{{con},{kind}}}", r, _ROWS[kind])
                   for r, con in enumerate(("P0", "T3", "T4"))
                   for kind in sorted(_ROWS))
_ENERGY_COLUMN = _ROWS["P0"][0]


# the adjudicated forms, the same in every report (shared, not rebuilt)
_AUX_FINDINGS = {
    "energy_row_coefficients": {"gradient_term": "g/4", "dipole_term": "g"},
    "resolved_forms": {
        "Delta": "-(2 c a / e u0) (P^0 S^{mu nu} + P^mu S^{nu 0}"
                 " + S^{0 mu} P^nu); no extra additive term survives"
                 " the oracle fit",
        "energy_row": "{T3|T4, P0} = (e / 2 P0 c) [(g-2) P.F.v"
                      " + (g/4) v.d(SF) - g E.(P0 v3 - v0 P3)],"
                      " v the respective auxiliary vector; fitted"
                      " coefficients g/4 and g, not the printed"
                      " g/8 and g/2",
    },
}


def relative_dev(closed, direct):
    """|closed - direct| / (1 + |direct|), elementwise."""
    return np.abs(closed - direct) / (1.0 + np.abs(direct))


def max_over_states(states, model, deviation):
    """The running elementwise maximum of deviation(dirac_core(z, model), model)
    over the states: np.maximum keeps a NaN, which must not read as agreement,
    and an empty batch, whose maximum would read as a pass, is refused."""
    worst = None
    for z in states:
        dev = deviation(dirac_core(z, model), model)
        worst = dev if worst is None else np.maximum(worst, dev)
    if worst is None:
        raise ValueError("no state given: a bracket report needs at least one state")
    return worst


def _aux_deviation(core, model):
    """The resolved and the transcribed table against the oracle, (2, 3, 21)."""
    tables = [aux_table_entries(core, model, v) for v in ("resolved", "transcribed")]
    return relative_dev(np.array(tables), aux_table_oracle(core, model))


def aux_table_report(states, model):
    """Adjudication of the auxiliary table over a batch of states.

    Returns per-row maximal deviations of the resolved expressions from
    the oracle, plus the deviation of the transcribed (defective)
    energy-row variant, which must be visibly nonzero in any background
    with field gradients or an electric component.
    """
    resolved, transcribed = max_over_states(states, model, _aux_deviation)
    return {
        "resolved_max_dev": {label: float(resolved[r, cols].max())
                             for label, r, cols in _AUX_GROUPS},
        "transcribed_energy_row_max_dev": float(transcribed[1:, _ENERGY_COLUMN].max()),
        **_AUX_FINDINGS,
    }


# ---------------------------------------------------------------------------
# whole-package verification report (drives the CLI `brackets` command)


def _closed_deviation(core, model):
    """The closed physical matrix against the direct one, then {T3,T4}, (145,)."""
    coef = dirac_coefficients(core, model)
    G = row_gradients(core, model)[_PHYSICAL]
    rel = relative_dev(closed_brackets(core, coef, model), G @ core.flow(G).T)
    return np.append(rel, relative_dev(t3t4_closed(core, coef, model), core.t34))


def closed_vs_direct_report(states, model):
    """Max relative deviation closed-form vs. direct oracle per family."""
    dev = max_over_states(states, model, _closed_deviation)
    rel = dev[:-1].reshape(len(_PHYSICAL), len(_PHYSICAL))
    return {**{fam: float(rel[block].max()) for fam, block in CLOSED_FAMILIES.items()},
            "T3T4": float(dev[-1])}


def _defining_deviation(core, model):
    """|{T_a, X}_D| / (1 + |{T_a, X}|) over the second-class pair and the
    rows of row_gradients, (2, 22): the canonical bracket
    {T_a, X} = -grad X . J grad T_a sets the size of the rounding, which
    grows with c."""
    G = row_gradients(core, model)
    return np.abs(core.R[1:] @ core.flow(G).T) / (1.0 + np.abs(G @ core.JR.T).T)


def defining_property_report(states, model):
    """Max |{T_a, X}_D| / (1 + |{T_a, X}|) over the states (_defining_deviation)."""
    return float(np.max(max_over_states(states, model, _defining_deviation)))
