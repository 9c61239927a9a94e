"""Dirac brackets of the second-class pair (T3, T4).

Two independent routes are implemented and pinned against each other:

* the *direct* route builds {A, B}_D from exact gradients and the
  canonical bracket,

      {A,B}_D = {A,B} + ( {A,T3}{T4,B} - {A,T4}{T3,B} ) / {T3,T4},

  using nothing but the constraint definitions; it is the oracle.  The
  correction lives in one place: ``dirac_core`` evaluates the fields,
  calP, grad calP^0, grad T3, grad T4 and {T3,T4} once per state, and
  ``DiracCore.flow`` maps grad B to {z, B}_D, so that {A,B}_D =
  grad A . flow(grad B).  ``dynamics.dirac_rhs`` is flow(grad H), and
  each report below reads one matrix G_A flow(G_B)^T per state;

* the *closed-form* route evaluates the reduced brackets of the
  physical pairs (x, calP, S) through the coefficient blocks
  (a, u0, Delta, K, L, g_eff).

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
the oracle and that the defective variants do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .minkowski import ETA_DIAG, contract_2
from .phase import (constraint_gradients, field_data, kinetic_momentum,
                    obs_coord, obs_energy, obs_hamiltonian, obs_kinetic,
                    obs_spin, pair_gradients, spin_tensor, symplectic_apply,
                    _p0_and_grad, _t34_grad)

SPIN_INDEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

H_OBS = obs_hamiltonian()


@dataclass(frozen=True)
class DiracCore:
    """Per-state bundle shared by every Dirac evaluation at a fixed z."""

    fd: object
    P: np.ndarray
    g_p0: np.ndarray
    g_t3: np.ndarray
    g_t4: np.ndarray
    t34: float

    def flow(self, G):
        """J G + ( {T4,B} J grad T3 - {T3,B} J grad T4 ) / {T3,T4}.

        G = grad B is one (16,) gradient or an (n, 16) stack of them;
        the result (same shape) holds {z^k, B}_D, so that
        grad A . flow(grad B) = {A, B}_D.
        """
        h3 = pair_gradients(self.g_t3, G)
        h4 = pair_gradients(self.g_t4, G)
        out = symplectic_apply(G)
        out += np.multiply.outer(h4 / self.t34, symplectic_apply(self.g_t3))
        out -= np.multiply.outer(h3 / self.t34, symplectic_apply(self.g_t4))
        return out


def dirac_core(z, model):
    """The second-class data at z; raises where {T3,T4} is too small to invert."""
    fd = field_data(model, z.x)
    P, g_p0 = _p0_and_grad(z, model, fd)
    g_t3 = _t34_grad(z, model, fd, P, g_p0, 8)
    g_t4 = _t34_grad(z, model, fd, P, g_p0, 12)
    t34 = pair_gradients(g_t3, g_t4)
    floor = 1e-10 * (1.0 + (model.m * model.c) ** 2)
    if abs(t34) < floor:
        raise ValueError(f"{{T3,T4}} = {t34} too close to zero; "
                         "second-class inversion breaks down at this state")
    return DiracCore(fd=fd, P=P, g_p0=g_p0, g_t3=g_t3, g_t4=g_t4, t34=t34)


def dirac_bracket(A, B, z, model, core=None):
    """Direct {A, B}_D from exact gradients; the package oracle."""
    core = core or dirac_core(z, model)
    return float(A.grad(z, model) @ core.flow(B.grad(z, model)))


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
    P: np.ndarray
    S: np.ndarray
    Delta: np.ndarray
    K: np.ndarray
    L: np.ndarray
    g_eff: np.ndarray
    sf: float
    dsf: np.ndarray


def dirac_coefficients(z, model, fd=None):
    fd = fd or field_data(model, z.x)
    e, c, m, g = model.e, model.c, model.m, model.g
    S = spin_tensor(z)
    P = kinetic_momentum(z, model, fd)
    sf = contract_2(fd.F, S)

    a = -2.0 * e / (4.0 * m**2 * c**3 - e * (g + 1.0) * sf)

    # d_mu (SF) at fixed S; stationary backgrounds have a vanishing time slot
    dsf = np.einsum("lmn,mn->l", fd.dF_low, S)
    sfp0 = float(S[0, :] @ (fd.F_low @ P))
    u0 = P[0] - 0.5 * (g - 2.0) * a * sfp0 + (g * a / 8.0) * float(S[0, :] @ dsf)

    pref = -2.0 * c * a / (e * u0)
    sym3 = P[0] * S + np.outer(P, S[:, 0]) + np.outer(S[0, :], P)
    Delta = pref * sym3

    # raised derivative d^nu(SF): time slot flips sign but is zero anyway
    dsf_up = ETA_DIAG * dsf
    K = -(g * c * a / (4.0 * e * u0)) * np.outer(S[0, :], dsf_up)

    mixed = fd.F @ (ETA_DIAG[:, None] * S)       # (FS)^{mu nu} = F^mu_lam S^{lam nu}
    fs_asym = mixed - mixed.T
    L = -(g * a / u0) * np.einsum("mn,a->mna", fs_asym, S[0, :])

    g_eff = np.diag(ETA_DIAG) - (2.0 * c * a * P[0] / (e * u0)) * np.outer(P, P)
    return DiracCoefficients(a=a, u0=u0, P=P, S=S, Delta=Delta, K=K, L=L,
                             g_eff=g_eff, sf=sf, dsf=dsf)


def t3t4_closed(z, model, coef=None):
    """{T3, T4} through the closed coefficients, e u0 / (2 c a calP^0)."""
    coef = coef or dirac_coefficients(z, model)
    return model.e * coef.u0 / (2.0 * model.c * coef.a * coef.P[0])


# ---------------------------------------------------------------------------
# closed-form reduced brackets of the physical pairs


def closed_xx(z, model, i, j, coef=None):
    coef = coef or dirac_coefficients(z, model)
    return 0.5 * coef.Delta[i, j]


def _gradient_block(coef, fd):
    """G[mu, j] = Delta^{mu k} F_{k j} - K^{mu j} for spatial j."""
    G = np.zeros((4, 4))
    G[:, 1:] = coef.Delta[:, 1:] @ fd.F_low[1:, 1:] - coef.K[:, 1:]
    return G


def closed_xP(z, model, i, j, coef=None, fd=None):
    fd = fd or field_data(model, z.x)
    coef = coef or dirac_coefficients(z, model, fd)
    e, c = model.e, model.c
    G = _gradient_block(coef, fd)
    return (1.0 if i == j else 0.0) - (e / (2.0 * c)) * G[i, j]


def closed_PP(z, model, i, j, coef=None, fd=None):
    fd = fd or field_data(model, z.x)
    coef = coef or dirac_coefficients(z, model, fd)
    e, c = model.e, model.c
    F3 = fd.F_low[1:, 1:]
    D3 = coef.Delta[1:, 1:]
    K3 = coef.K[1:, 1:]
    FK = F3 @ K3
    corr = F3 @ D3 @ F3 - (FK - FK.T)
    return e / c * F3[i - 1, j - 1] - (e**2 / (2.0 * c**2)) * corr[i - 1, j - 1]


def closed_Sx(z, model, munu, j, coef=None):
    # the L term enters with a minus sign here (it is +1/2 L F in the
    # momentum row); fixed against the direct oracle and re-derived
    coef = coef or dirac_coefficients(z, model)
    mu, nu = munu
    P = coef.P
    return (P[mu] * coef.Delta[nu, j] - P[nu] * coef.Delta[mu, j]
            - 0.5 * coef.L[mu, nu, j])


def closed_SP(z, model, munu, j, coef=None, fd=None):
    fd = fd or field_data(model, z.x)
    coef = coef or dirac_coefficients(z, model, fd)
    mu, nu = munu
    e, c = model.e, model.c
    P = coef.P
    G = _gradient_block(coef, fd)
    lf = float(coef.L[mu, nu, 1:] @ fd.F_low[1:, j])
    return (e / c) * (-P[mu] * G[nu, j] + P[nu] * G[mu, j] + 0.5 * lf)


def closed_SS(z, model, munu, albet, coef=None):
    # the spin-transport block appears twice, mirrored, so the bracket
    # stays antisymmetric under (mu nu) <-> (al be); a single L term
    # fails the direct oracle at O(field * spin / m^2 c^3)
    coef = coef or dirac_coefficients(z, model)
    mu, nu = munu
    al, be = albet
    ge, S, L, P = coef.g_eff, coef.S, coef.L, coef.P
    out = 2.0 * (ge[mu, al] * S[nu, be] - ge[mu, be] * S[nu, al]
                 - ge[nu, al] * S[mu, be] + ge[nu, be] * S[mu, al])
    out += L[mu, nu, al] * P[be] - L[mu, nu, be] * P[al]
    out -= L[al, be, mu] * P[nu] - L[al, be, nu] * P[mu]
    return out


# ---------------------------------------------------------------------------
# auxiliary bracket table: canonical brackets of (calP^0, T3, T4) against
# the elementary observables, resolved closed expressions vs. the oracle


def _aux_state_data(z, model):
    fd = field_data(model, z.x)
    P = kinetic_momentum(z, model, fd)
    S = spin_tensor(z)
    dsf = np.einsum("lmn,mn->l", fd.dF_low, S)
    E = fd.F[0, 1:]  # F^{0i}
    F3 = fd.F_low[1:, 1:]
    Fmix = fd.F @ (ETA_DIAG[:, None] * S)  # (FS)^{mu nu}
    Fw = fd.F @ (ETA_DIAG * z.w)           # (F omega)^mu
    Fpi = fd.F @ (ETA_DIAG * z.pi)
    return fd, P, S, dsf, E, F3, Fmix, Fw, Fpi


def aux_table_entries(z, model, energy_row_variant="resolved"):
    """All auxiliary-table entries as closed expressions.

    energy_row_variant selects the coefficients of the
    { (T3|T4), calP^0 } entries: "resolved" uses (g/4, g) as fixed by
    the oracle; "transcribed" uses (g/8, g/2), the defective printed
    pair, and is kept so the adjudication stays reproducible.
    """
    e, c, g = model.e, model.c, model.g
    fd, P, S, dsf, E, F3, Fmix, Fw, Fpi = _aux_state_data(z, model)
    P0 = P[0]
    w, pi = z.w, z.pi

    if energy_row_variant == "resolved":
        c_grad, c_dip = g / 4.0, g
    elif energy_row_variant == "transcribed":
        c_grad, c_dip = g / 8.0, g / 2.0
    else:
        raise ValueError(f"unknown energy_row_variant {energy_row_variant!r}")

    def fp_vec():
        return F3 @ P[1:]

    def energy_row(v):
        pfv = float(P[1:] @ (F3 @ v[1:]))
        grad_term = c_grad * float(v[1:] @ dsf[1:])
        dip_term = c_dip * float(E @ (P0 * v[1:] - v[0] * P[1:]))
        return (e / (2.0 * P0 * c)) * ((g - 2.0) * pfv + grad_term - dip_term)

    entries = {}
    for i in (1, 2, 3):
        entries[("P0", "x", i)] = -P[i] / P0
        entries[("T3", "x", i)] = -w[i] + w[0] * P[i] / P0
        entries[("T4", "x", i)] = -pi[i] + pi[0] * P[i] / P0

        gi = fp_vec()[i - 1] + (g / 8.0) * dsf[i]
        entries[("P0", "P", i)] = -(e / (P0 * c)) * gi
        entries[("T3", "P", i)] = (e * w[0] / (P0 * c)) * gi - (e / c) * (F3 @ w[1:])[i - 1]
        entries[("T4", "P", i)] = (e * pi[0] / (P0 * c)) * gi - (e / c) * (F3 @ pi[1:])[i - 1]

    entries[("P0", "P0", None)] = 0.0
    entries[("T3", "P0", None)] = energy_row(w)
    entries[("T4", "P0", None)] = energy_row(pi)

    for mu in range(4):
        entries[("P0", "omega", mu)] = -(e * g / (2.0 * P0 * c)) * Fw[mu]
        entries[("T3", "omega", mu)] = (w[0] * e * g / (2.0 * P0 * c)) * Fw[mu]
        entries[("T4", "omega", mu)] = -P[mu] + (pi[0] * e * g / (2.0 * P0 * c)) * Fw[mu]

        entries[("P0", "pi", mu)] = -(e * g / (2.0 * P0 * c)) * Fpi[mu]
        entries[("T3", "pi", mu)] = P[mu] + (w[0] * e * g / (2.0 * P0 * c)) * Fpi[mu]
        entries[("T4", "pi", mu)] = (pi[0] * e * g / (2.0 * P0 * c)) * Fpi[mu]

    fs_asym = Fmix - Fmix.T
    for mu, nu in SPIN_INDEX_PAIRS:
        pw = 2.0 * (P[mu] * w[nu] - P[nu] * w[mu])
        ppi = 2.0 * (P[mu] * pi[nu] - P[nu] * pi[mu])
        base = (e * g / (2.0 * P0 * c)) * fs_asym[mu, nu]
        entries[("P0", "S", (mu, nu))] = -base
        entries[("T3", "S", (mu, nu))] = w[0] * base - pw
        entries[("T4", "S", (mu, nu))] = pi[0] * base - ppi
    return entries


ROW_OBSERVABLES = {("x", i): obs_coord("x", i) for i in (1, 2, 3)}
ROW_OBSERVABLES.update({("P", i): obs_kinetic(i) for i in (1, 2, 3)})
ROW_OBSERVABLES[("P0", None)] = obs_energy()
ROW_OBSERVABLES.update({("omega", mu): obs_coord("omega", mu) for mu in range(4)})
ROW_OBSERVABLES.update({("pi", mu): obs_coord("pi", mu) for mu in range(4)})
ROW_OBSERVABLES.update({("S", pair): obs_spin(*pair) for pair in SPIN_INDEX_PAIRS})


def aux_table_oracle(z, model):
    """The same table computed directly from the canonical bracket."""
    g_p0, G = constraint_gradients(z, model)
    C = np.array([g_p0, G[1], G[2]])
    R = np.array([ob.grad(z, model) for ob in ROW_OBSERVABLES.values()])
    table = C @ symplectic_apply(R).T
    return {(ck, kind, idx): val
            for ck, row in zip(("P0", "T3", "T4"), table.tolist())
            for (kind, idx), val in zip(ROW_OBSERVABLES, row)}


def aux_table_report(states, model):
    """Adjudication of the auxiliary table over a batch of states.

    Returns per-row maximal deviations of the resolved expressions from
    the oracle, plus the deviation of the transcribed (defective)
    energy-row variant, which must be visibly nonzero in any background
    with field gradients or an electric component.
    """
    dev_resolved = {}
    dev_transcribed = 0.0
    for z in states:
        oracle = aux_table_oracle(z, model)
        resolved = aux_table_entries(z, model, "resolved")
        transcribed = aux_table_entries(z, model, "transcribed")
        for key, val in resolved.items():
            d = abs(val - oracle[key]) / (1.0 + abs(oracle[key]))
            row = (key[0], key[1])
            dev_resolved[row] = max(dev_resolved.get(row, 0.0), d)
        for col in ("T3", "T4"):
            key = (col, "P0", None)
            d = abs(transcribed[key] - oracle[key]) / (1.0 + abs(oracle[key]))
            dev_transcribed = max(dev_transcribed, d)
    return {
        "resolved_max_dev": {f"{{{c},{r}}}": v for (c, r), v in sorted(dev_resolved.items())},
        "transcribed_energy_row_max_dev": dev_transcribed,
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


# ---------------------------------------------------------------------------
# whole-package verification report (drives the CLI `brackets` command)


# rows of the per-state bracket matrix: x^1..3, calP^1..3, S^{mu nu}
PHYSICAL_OBSERVABLES = [ob for (kind, _), ob in ROW_OBSERVABLES.items()
                        if kind in ("x", "P", "S")]


def closed_vs_direct_report(states, model):
    """Max relative deviation closed-form vs. direct oracle per family."""
    dev = {k: 0.0 for k in ("xx", "xP", "PP", "Sx", "SP", "SS", "T3T4")}

    def upd(fam, closed, direct):
        d = float(abs(closed - direct) / (1.0 + abs(direct)))
        if d > dev[fam]:
            dev[fam] = d

    for z in states:
        core = dirac_core(z, model)
        fd = core.fd
        coef = dirac_coefficients(z, model, fd)
        G = np.array([ob.grad(z, model) for ob in PHYSICAL_OBSERVABLES])
        D = G @ core.flow(G).T
        xx, xP, PP = D[:3, :3], D[:3, 3:6], D[3:6, 3:6]
        Sx, SP, SS = D[6:, :3], D[6:, 3:6], D[6:, 6:]
        upd("T3T4", t3t4_closed(z, model, coef), core.t34)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                upd("xx", closed_xx(z, model, i, j, coef), xx[i - 1, j - 1])
                upd("xP", closed_xP(z, model, i, j, coef, fd), xP[i - 1, j - 1])
                upd("PP", closed_PP(z, model, i, j, coef, fd), PP[i - 1, j - 1])
        for a, munu in enumerate(SPIN_INDEX_PAIRS):
            for j in (1, 2, 3):
                upd("Sx", closed_Sx(z, model, munu, j, coef), Sx[a, j - 1])
                upd("SP", closed_SP(z, model, munu, j, coef, fd), SP[a, j - 1])
            for b, albet in enumerate(SPIN_INDEX_PAIRS):
                upd("SS", closed_SS(z, model, munu, albet, coef), SS[a, b])
    return dev


DEFINING_OBSERVABLES = [*ROW_OBSERVABLES.values(), H_OBS]


def defining_property_report(states, model):
    """Max |{T_a, X}_D| over the second-class pair and all observables."""
    worst = 0.0
    for z in states:
        core = dirac_core(z, model)
        G = np.array([ob.grad(z, model) for ob in DEFINING_OBSERVABLES])
        D = np.array([core.g_t3, core.g_t4]) @ core.flow(G).T
        worst = max(worst, float(np.max(np.abs(D))))
    return worst
