"""Test-only reference code for the Dirac-flow kernel, the phase-space
layer and the field layer.

* ``kinetic`` and ``values``, calP and the constraint values
  (T2, T3, T4, T5), and ``p0_and_grad`` and ``t34_grads``, the rows
  grad calP^0, grad T3 and grad T4, written with numpy arrays and
  matrix products on the lowered field tensors; the kernel
  ``phase._kernel`` (calP and the rows' pieces) and ``phase.t_values``
  (the values) write all of them on the components in float
  arithmetic, ``kernel_rows`` and ``kinetic_momentum`` give their
  outputs (the rows assembled by ``phase.t_rows``) as arrays, and the
  tests pin them to this form.
* The gradient oracle: the ``phase.Observable`` factories ``obs_coord``,
  ``obs_kinetic``, ``obs_energy``, ``obs_spin`` and ``obs_hamiltonian``,
  each evaluating the fields (and the kernel) on its own, and
  ``ROW_ORACLES``, one per row of ``brackets.row_gradients`` in its
  order (``PHYSICAL_ORACLES`` the x, calP and S rows).  The tests pin
  the factories by finite differences and dual numbers, and
  ``row_gradients``, read from one ``dirac_core``, to them bit for bit.
* The three-application form of the Dirac flow: the canonical structure
  applied block by block (``symplectic_apply``), the canonical bracket of
  two gradients written out (``pair_gradients``), and ``flow`` applying
  them to grad B, grad T3 and grad T4 separately.  ``phase.symplectic``
  writes J as a signed permutation; ``DiracCore.flow``, the stacked form
  of the correction, applies it once per gradient, and
  ``dynamics.dirac_rhs`` writes the flow of grad H as symplectic
  pairings of the kernel's pieces; the tests pin all three to this form.
* ``rk4_step``, the classical rk4 step written on numpy arrays;
  ``dynamics._rk4_step`` and its stage ``dynamics._stage`` write it out
  on the 16 floats of a list and the tests pin the two to the bit.
* ``integrate_dop853``, the reference integrator: scipy's adaptive
  DOP853 on the same right-hand side, grid and projection as
  ``dynamics.integrate``, which the rk4 runs are compared against, and
  ``record_rows``, the record rows of a run's states, each from its own
  field evaluation.
* ``FieldArrays``, the float tuples of ``phase.field_data`` as the
  arrays A, dA, F and dF and the lowered F and dF, which the forms
  above read; the package itself reads the tuples, and its closed forms
  build F and dF with ``minkowski.field_tensor``.  ``constraint_values``,
  calP and (T2, T3, T4, T5) of one kernel call and ``t_values`` as
  arrays.
* ``field_tensor_from_EB`` and ``extract_EB``, the (4, 4) array F^{mu nu}
  of E and B and its read-back, written with the Levi-Civita array;
  ``minkowski.field_from_EB`` and ``EB_from_field`` write the six floats
  above the diagonal, and the tests pin them to this form.
* ``uniform_at`` and ``coulomb_at``, the field evaluators written with
  numpy arrays; the backgrounds' ``at`` writes them in float arithmetic
  and returns nested tuples, and the tests pin it to this form.
* ``cyclotron_reference`` and ``larmor_reference``, the closed-form
  orbit of a spinless charge and the low-speed spin precession rate in a
  uniform B, which the dynamics tests compare runs with.
* ``with_gauge_shift``, a background with A^i -> A^i + d_i chi, for the
  gauge-invariance tests, and ``linear_background``, fields linear in x
  with a gradient in every slot, which no catalog kind has.
* Four-vector and tensor helpers, canonical brackets of observables,
  ``constraint_gradients`` (the values of T2..T5 with their (4, 16)
  gradient rows) and the T-observables built on it, which only the
  tests use.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.integrate import solve_ivp

from relspin.brackets import ROW_OBSERVABLES
from relspin.dynamics import Trajectory, _grid, _project, dirac_rhs
from relspin.fields import FieldBackground
from relspin.minkowski import EPS3, ETA_DIAG, field_from_EB, field_tensor, lower2, mdot
from relspin.phase import (CONSTRAINT_NAMES, J, Observable, _energy, _kernel,
                           field_data, hamiltonian, spin_tensor, t_rows, t_values)


class FieldArrays:
    """The float tuples (A, dA, F, dF) of field_data as arrays: A (4,), dA
    (4, 4) with dA[mu, nu] = d A^mu / d x^nu, F (4, 4) and dF (4, 4, 4)
    with dF[lam, mu, nu] = d F^{mu nu} / d x^lam, the x^0 slots 0.0, and
    F and dF lowered, F_low and dF_low."""

    def __init__(self, fields):
        A, dA, F, dF = fields
        self.A, self.dA = np.array(A), np.array([(0.0, *row) for row in dA])
        self.F, self.dF = field_tensor(F), field_tensor(((0.0,) * 6, *dF))
        self.F_low, self.dF_low = lower2(self.F), lower2(self.dF)


def constraint_values(z, model, fields=None):
    """calP and the values (T2, T3, T4, T5) at z, from one field evaluation,
    one kernel call and t_values; no row is assembled."""
    vec = z.vec.tolist()
    P, _ = _kernel(vec, model, fields or field_data(model, vec[:4]))
    return np.array(P), np.array(t_values(vec, P, model))


def kinetic(z, model, fd):
    """calP at z, fd the FieldArrays of the fields there: calP^i =
    p^i - (e/c) A^i, and calP^0 from the lowered field tensor contracted
    with the spin tensor."""
    P = np.empty(4)
    P[1:] = z.p[1:] - (model.e / model.c) * fd.A[1:]
    P[0] = _energy(P[1:] @ P[1:], float(np.sum(fd.F_low * spin_tensor(z.w, z.pi))), model)
    return P


def values(z, model, fd):
    """calP and (T2, T3, T4, T5) at z from Minkowski products; zero
    values for a spinless state."""
    P = kinetic(z, model, fd)
    if z.spinless:
        return P, np.zeros(4)
    w2 = mdot(z.w, z.w)
    if w2 == 0.0:
        raise ValueError("T5 undefined at omega^2 = 0")
    return P, np.array([mdot(z.w, z.pi), float(np.dot(ETA_DIAG * P, z.w)),
                        float(np.dot(ETA_DIAG * P, z.pi)),
                        mdot(z.pi, z.pi) - model.alpha / w2])


def p0_and_grad(z, model, fd):
    """calP and grad calP^0 at z, from one spin tensor and one calP^i.

    grad calP^0 = grad W / (2 calP^0), W = calP^0 ** 2 the energy radicand.
    """
    e, c, g = model.e, model.c, model.g
    S = spin_tensor(z.w, z.pi)
    P = kinetic(z, model, fd)
    gw = np.empty(16)
    # x block: chain rule through A^i and F
    gw[0:4] = -(2 * e / c) * (P[1:] @ fd.dA[1:, :])
    gw[0:4] += -(e * g / (4 * c)) * (fd.dF_low.reshape(4, 16) @ S.reshape(16))
    gw[4] = 0.0
    gw[5:8] = 2.0 * P[1:]
    gw[8:12] = -(e * g / c) * (fd.F_low @ z.pi)
    gw[12:16] = (e * g / c) * (fd.F_low @ z.w)
    return P, gw / (2.0 * P[0])


def t34_grads(z, model, fd, P, gP0):
    """(2, 16) gradients of T3 and T4, -calP^0 v^0 + calP^i v^i for
    v = omega and pi; P and gP0 as returned by p0_and_grad."""
    V = z.vec[8:16].reshape(2, 4)   # rows omega, pi
    out = np.multiply.outer(-V[:, 0], gP0)
    out[:, 0:4] += -(model.e / model.c) * (V[:, 1:] @ fd.dA[1:, :])
    out[:, 5:8] += V[:, 1:]
    P_low = ETA_DIAG * P
    out[0, 8:12] += P_low
    out[1, 12:16] += P_low
    return out


def kernel_rows(z, model, fields=None):
    """The kernel's calP and T and the assembled rows R at z as arrays of
    shapes (4,), (4,) and (3, 16)."""
    vec = z.vec.tolist()
    P, pieces = _kernel(vec, model, fields or field_data(model, vec[:4]))
    return np.array(P), np.array(t_values(vec, P, model)), np.array(t_rows(vec, P, pieces))


def kinetic_momentum(z, model, fields=None):
    """Four-vector (calP^0, calP^i) with calP^0 the energy function."""
    return constraint_values(z, model, fields)[0]


def symplectic_apply(gb):
    """J grad(B): {z^k, B} for all coordinates, row by row for an (n, 16) stack."""
    out = np.empty(np.shape(gb))
    out[..., 0:4] = ETA_DIAG * gb[..., 4:8]
    out[..., 4:8] = -ETA_DIAG * gb[..., 0:4]
    out[..., 8:12] = ETA_DIAG * gb[..., 12:16]
    out[..., 12:16] = -ETA_DIAG * gb[..., 8:12]
    return out


def pair_gradients(ga, gb):
    """{A, B} from grad A (16,) and grad B, a (16,) gradient or an (n, 16) stack."""
    ax, ap, aw, aq = ga[0:4], ga[4:8], ga[8:12], ga[12:16]
    bx, bp, bw, bq = gb[..., 0:4], gb[..., 4:8], gb[..., 8:12], gb[..., 12:16]
    return ((ETA_DIAG * bp) @ ax - (ETA_DIAG * bx) @ ap
            + (ETA_DIAG * bq) @ aw - (ETA_DIAG * bw) @ aq)


def flow(g_t3, g_t4, G):
    """J G + ( {T4,B} J grad T3 - {T3,B} J grad T4 ) / {T3,T4}, with J
    applied to G, grad T3 and grad T4 separately and {T3,T4} recomputed."""
    t34 = pair_gradients(g_t3, g_t4)
    h3 = pair_gradients(g_t3, G)
    h4 = pair_gradients(g_t4, G)
    out = symplectic_apply(G)
    out += np.multiply.outer(h4 / t34, symplectic_apply(g_t3))
    out -= np.multiply.outer(h3 / t34, symplectic_apply(g_t4))
    return out


def rk4_step(f, y, h):
    """One rk4 step of y' = f(y) on (16,) arrays."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_dop853(model, z0, t_final, dt, record_every=1, project=True,
                     rtol=1e-10, atol=1e-12):
    """The reference integrator: scipy's adaptive DOP853 on
    ``dynamics.dirac_rhs`` between the recording times of
    ``dynamics.integrate``'s grid (``dynamics._grid``, with its
    ValueErrors), and the projection ``dynamics._project`` at each of
    them.  Its records are the whole multiples of record_every dt, then
    t_final, with the rows of ``record_rows``.  A failed projection ends
    the run as in integrate, with the projection stats, "failed_step"
    (counting recording intervals) and "t" as exc.stats."""
    n_full, n_steps = _grid(t_final, dt, record_every)
    ts = [0.0]
    zs = [z0.vec.copy()]
    stats = {"projections": 0, "projection_steps": 0, "max_residual_before_projection": 0.0}

    def projected(y, step, t):
        try:
            return np.array(_project(y.tolist(), model, stats)[0])
        except (RuntimeError, ValueError) as exc:
            stats["failed_step"], stats["t"] = step, t
            exc.stats = stats
            raise

    t_eval = dt * record_every * np.arange(1, n_full // record_every + 1)
    # the last record falls short of t_final, in the direction of dt
    if n_steps and (len(t_eval) == 0 or (t_final - t_eval[-1]) * math.copysign(1.0, dt)
                    > 1e-12 * abs(t_final)):
        t_eval = np.append(t_eval, t_final)
    y = z0.vec.copy()
    t_prev = 0.0
    rhs = lambda t, y: dirac_rhs(y.tolist(), model)
    for n, t_next in enumerate(t_eval, 1):
        sol = solve_ivp(rhs, (t_prev, t_next), y, method="DOP853",
                        rtol=rtol, atol=atol, dense_output=False)
        if not sol.success:
            raise RuntimeError(f"dop853 failed at t={t_prev}: {sol.message}")
        y = sol.y[:, -1]
        if project:
            y = projected(y, n, float(t_next))
            stats["projections"] += 1
        ts.append(t_next)
        zs.append(y.copy())
        t_prev = t_next
    Z = np.array(zs)
    return Trajectory(t=np.array(ts), Z=Z, model=model, rows=record_rows(Z, model),
                      stats=stats)


def record_rows(Z, model):
    """The record rows (calP, T2..T5, H) of the states Z, each from its
    own field evaluation, kernel call and t_values: the rows that
    ``dynamics.integrate`` takes from the evaluations it hands on."""
    rows = []
    for vec in Z.tolist():
        fields = field_data(model, vec[:4])
        P, _ = _kernel(vec, model, fields)
        rows.append((*P, *t_values(vec, P, model), hamiltonian(P[0], fields, model)))
    return np.array(rows)


_EYE3 = np.eye(3)
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def field_tensor_from_EB(E, B):
    """Assemble upper-index F^{mu nu} from three-vectors E and B."""
    E = np.asarray(E, dtype=float)
    B = np.asarray(B, dtype=float)
    F = np.zeros((4, 4))
    F[0, 1:] = E
    F[1:, 0] = -E
    # F^{ij} = F_{ij} = eps_{ijk} B_k
    F[1:, 1:] = np.einsum("ijk,k->ij", EPS3, B)
    return F


def extract_EB(F):
    """Read (E, B) back from an upper-index field tensor."""
    E = F[0, 1:].copy()
    B = 0.5 * np.einsum("ijk,jk->i", EPS3, F[1:, 1:])
    return E, B


def uniform_at(E3, B3):
    """(A, dA, F, dF) arrays for constant E and B: A^0 = -E.x and the
    symmetric gauge A^i = (1/2)(B x r)^i."""
    E3 = np.asarray(E3, dtype=float)
    B3 = np.asarray(B3, dtype=float)
    F_const = field_tensor_from_EB(E3, B3)
    dA_const = np.zeros((4, 4))
    dA_const[0, 1:] = -E3
    dA_const[1:, 1:] = 0.5 * np.einsum("ikj,k->ij", EPS3, B3)
    # B x r written out: the same products and differences as np.cross
    B_l, B_r = B3[_NEXT], B3[_PREV]

    def at(x):
        r = x[1:]
        A = np.empty(4)
        # the float sum of fields._uniform_at, not E3 @ r: a BLAS dot may
        # fuse the multiply-adds, which moves the last bit by host
        A[0] = -(E3[0] * r[0] + E3[1] * r[1] + E3[2] * r[2])
        A[1:] = 0.5 * (B_l * r[_PREV] - B_r * r[_NEXT])
        return A, dA_const, F_const, np.zeros((4, 4, 4))

    return at


def coulomb_at(q, r_min):
    """(A, dA, F, dF) arrays of the potential A^0 = q/r, refusing r < r_min."""
    def at(x):
        r3 = x[1:]
        r = float(np.sqrt(r3 @ r3))
        if r < r_min:
            raise ValueError(
                f"coulomb background evaluated at r={r:.3e} < r_min={r_min:.3e}"
            )
        A = np.zeros(4)
        A[0] = q / r
        E = q * r3 / r**3
        dA = np.zeros((4, 4))
        dA[0, 1:] = -E
        F = np.zeros((4, 4))
        F[0, 1:] = E
        F[1:, 0] = -E
        # d_l E_i = q (delta_li r^2 - 3 x_l x_i) / r^5
        dE = q * (_EYE3 * r**2 - 3.0 * np.multiply.outer(r3, r3)) / r**5
        dF = np.zeros((4, 4, 4))
        dF[1:, 0, 1:] = dE
        dF[1:, 1:, 0] = -dE
        return A, dA, F, dF

    return at


def cyclotron_reference(model, p_perp, B):
    """Relativistic orbit radius and period for a spinless charge."""
    P0 = np.sqrt(p_perp**2 + (model.m * model.c) ** 2)
    omega = model.e * B / P0
    return {"radius": model.c * p_perp / (model.e * B),
            "period": 2.0 * np.pi / abs(omega), "P0": P0}


def larmor_reference(model, B):
    """Low-speed spin precession rate, g e B / (2 m c)."""
    return model.g * model.e * B / (2.0 * model.m * model.c)


def with_gauge_shift(bg, dchi, d2chi):
    """Wrap a background with A^i -> A^i + d_i chi for a static chi(r).

    dchi(x) -> (3,) gradient and d2chi(x) -> (3, 3) Hessian must be
    exact.  The field tensor is untouched, so every gauge-invariant
    output (trajectory of x, kinetic momentum, spin) must agree with
    the unwrapped background; only the canonical momentum shifts.
    """

    def at(x):
        A, dA, F, dF = bg.at(x)
        A = np.array(A)
        A[1:] += dchi(x)
        dA = np.array(dA)   # rows mu, columns d_1..d_3
        dA[1:] += d2chi(x)
        return tuple(A.tolist()), tuple(map(tuple, dA.tolist())), F, dF

    return dataclasses.replace(bg, at=at)


def linear_background(E0, K, B0, G, e=1.0, c=10.0):
    """A background with a gradient in every slot of the layout: E = E0 +
    K x with K symmetric, and B = B0 + G x with G symmetric and traceless
    (curl- and divergence-free), from A^0 = -E0.x - x.K x / 2 and A =
    B0 x x / 2 + (G x) x x / 3.  No catalog kind has a magnetic gradient
    or a nonzero d_i A^i, so the kernel's terms in them show only here."""
    E0, K, B0, G = (np.asarray(v, dtype=float) for v in (E0, K, B0, G))
    assert np.array_equal(K, K.T) and np.array_equal(G, G.T) and np.trace(G) == 0.0

    def at(x):
        r = np.asarray(x[1:], dtype=float)
        E, Gr = E0 + K @ r, G @ r
        A = np.concatenate([[-(E0 @ r) - 0.5 * (r @ K @ r)],
                            0.5 * np.cross(B0, r) + np.cross(Gr, r) / 3.0])
        # d_i A for i = 1..3, as the columns of the spatial rows of dA
        dvec = [0.5 * np.cross(B0, n) + (np.cross(G @ n, r) + np.cross(Gr, n)) / 3.0
                for n in _EYE3]
        dA = np.vstack([-E, np.transpose(dvec)])
        return (tuple(A.tolist()), tuple(map(tuple, dA.tolist())),
                field_from_EB(E.tolist(), (B0 + Gr).tolist()),
                tuple(field_from_EB(K[:, lam].tolist(), G[:, lam].tolist())
                      for lam in range(3)))

    return FieldBackground("linear", e, c, at)


# ---------------------------------------------------------------------------
# Minkowski helpers


def antisymmetrize(T):
    return 0.5 * (T - T.T)


def is_antisymmetric(T, tol=1e-12):
    return bool(np.max(np.abs(T + T.T)) <= tol * (1.0 + np.max(np.abs(T))))


def boost_vector(L, v):
    return L @ v


def boost_tensor(L, T):
    """T'^{mu nu} = L^mu_a L^nu_b T^{a b}."""
    return L @ T @ L.T


# ---------------------------------------------------------------------------
# phase-space helpers


def poisson_bracket(A, B, z, model):
    """Canonical bracket {A, B} = grad A . (J grad B) at z."""
    return float(A.grad(z, model) @ J @ B.grad(z, model))


def ssc_vector(z, model, fields=None):
    """S^{mu nu} calP_nu; vanishes when T3 = T4 = 0."""
    P = kinetic_momentum(z, model, fields)
    return spin_tensor(z.w, z.pi) @ (ETA_DIAG * P)


def constraint_gradients(z, model, fields=None):
    """The values (T2, T3, T4, T5) and their (4, 16) gradient rows at z,
    from one field evaluation and one kernel call, which gives the T3 and
    T4 rows; at a spinless state the T5 row reads zero, like its value."""
    _, T, R = kernel_rows(z, model, fields or field_data(model, z.x))
    G = np.zeros((4, 16))
    G[0, 8:12] = ETA_DIAG * z.pi
    G[0, 12:16] = ETA_DIAG * z.w
    G[1:3] = R[1:]
    ww = mdot(z.w, z.w)
    if ww != 0.0:   # ww = 0 only when spinless: at any other state the kernel raised
        G[3, 8:12] = 2.0 * model.alpha * (ETA_DIAG * z.w) / ww**2
    G[3, 12:16] = 2.0 * ETA_DIAG * z.pi
    return T, G


def _obs_constraint(a):
    """Constraint T_a as one row of constraint_values / constraint_gradients."""
    return Observable(CONSTRAINT_NAMES[a],
                      lambda z, model: constraint_values(z, model)[1][a],
                      lambda z, model: constraint_gradients(z, model)[1][a])


def obs_t2():
    return _obs_constraint(0)


def obs_t3():
    return _obs_constraint(1)


def obs_t4():
    return _obs_constraint(2)


def obs_t5():
    return _obs_constraint(3)


# ---------------------------------------------------------------------------
# the gradient oracle: one Observable per row, each evaluating on its own


BLOCKS = ("x", "p", "omega", "pi")


def obs_coord(block, mu):
    idx = 4 * BLOCKS.index(block) + mu
    one = np.zeros(16)
    one[idx] = 1.0
    return Observable(f"{block}^{mu}", lambda z, model: z.vec[idx], lambda z, model: one.copy())


def obs_kinetic(i):
    """calP^i for spatial i in 1..3."""
    if i not in (1, 2, 3):
        raise ValueError("kinetic momentum observable is spatial, i in 1..3")

    def f(z, model):
        return z.p[i] - (model.e / model.c) * field_data(model, z.x.tolist())[0][i]

    def grd(z, model):
        dA = field_data(model, z.x.tolist())[1]
        out = np.zeros(16)
        out[4 + i] = 1.0
        # the x^0 slot -(e/c) 0.0, as the product with a full row of dA
        out[0:4] = np.multiply(-(model.e / model.c), (0.0, *dA[i]))
        return out

    return Observable(f"calP^{i}", f, grd)


def obs_energy():
    """calP^0 as a phase-space function."""

    def f(z, model):
        return kinetic_momentum(z, model)[0]

    def grd(z, model):
        return kernel_rows(z, model)[2][0]

    return Observable("calP^0", f, grd)


def obs_spin(mu, nu):
    def f(z, model):
        return 2.0 * (z.w[mu] * z.pi[nu] - z.w[nu] * z.pi[mu])

    def grd(z, model):
        out = np.zeros(16)
        out[8 + mu] += 2.0 * z.pi[nu]
        out[8 + nu] += -2.0 * z.pi[mu]
        out[12 + nu] += 2.0 * z.w[mu]
        out[12 + mu] += -2.0 * z.w[nu]
        return out

    return Observable(f"S^{mu}{nu}", f, grd)


def obs_hamiltonian():
    """Covariant Hamiltonian H = c calP^0 + e A^0 (lab-time generator)."""

    def f(z, model):
        fields = field_data(model, z.x.tolist())
        return model.c * kinetic_momentum(z, model, fields)[0] + model.e * fields[0][0]

    def grd(z, model):
        fields = field_data(model, z.x.tolist())
        out = model.c * kernel_rows(z, model, fields)[2][0]
        out[1:4] += np.multiply(model.e, fields[1][0])
        return out

    return Observable("H", f, grd)


_ROW_FACTORIES = {"x": lambda i: obs_coord("x", i), "P": obs_kinetic,
                  "P0": lambda _: obs_energy(), "omega": lambda mu: obs_coord("omega", mu),
                  "pi": lambda mu: obs_coord("pi", mu), "S": lambda pair: obs_spin(*pair)}

# the rows of brackets.row_gradients: ROW_OBSERVABLES, then H
ROW_ORACLES = [*(_ROW_FACTORIES[kind](i) for kind, i in ROW_OBSERVABLES), obs_hamiltonian()]
PHYSICAL_ORACLES = [ob for (kind, _), ob in zip(ROW_OBSERVABLES, ROW_ORACLES)
                    if kind in ("x", "P", "S")]
