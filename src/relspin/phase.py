"""Phase space of the spinning particle.

Coordinates are the 16-tuple z = (x^mu, p^mu, omega^mu, pi^mu): position,
canonical momentum, and the internal vector pair whose antisymmetrized
product is the spin tensor

    S^{mu nu} = 2 (omega^mu pi^nu - omega^nu pi^mu).

The canonical Poisson structure is {x^mu, p_nu} = delta^mu_nu and
{omega^mu, pi_nu} = delta^mu_nu, i.e. with upper-index storage
{x^mu, p^nu} = eta^{mu nu}.  Gradients of scalar observables are stored
as flat (16,) arrays in the block order (x, p, omega, pi), each block
differentiated with respect to the upper-index components.

The kinetic momentum is calP^i = p^i - (e/c) A^i together with the
energy function

    calP^0 = sqrt( calP_i calP_i - (e g / 4 c) (F S) + m^2 c^2 ),

which is used *as a function of z* inside the second-class constraint
pair

    T3 = -calP^0 omega^0 + calP^i omega^i,
    T4 = -calP^0 pi^0    + calP^i pi^i,

and in the covariant Hamiltonian H = c calP^0 + e A^0.  The remaining
first-class pair is T2 = omega.pi and T5 = pi^2 - alpha/omega^2; on
T2 = T5 = 0 the spin magnitude is fixed, S_{mu nu} S^{mu nu} = 8 alpha.
From one field evaluation the kernel _kernel gives calP and the
pieces of the rows grad (calP^0, T3, T4) as Python floats, in float
arithmetic on the 16 components (at one state cheaper than numpy's
per-call overhead); t_rows assembles the rows, which
brackets.dirac_core holds as an array.  The right-hand side reads no
constraint value, so the kernel writes none: t_values writes the four,
once, from the state and the kernel's calP, for the projection, the
channels and constraint_residuals.  The kernel, t_values, t_rows and the
backgrounds' at(x) take plain float sequences; the readers that hold
a PhaseState convert its array once with tolist() at their call.  Every
reader of calP or a constraint at a state reads the kernel, whose
energy radicand check is _energy and which refuses omega^2 = 0 at a
state with spin; beside it, _t3t4 is the one {T3,T4}
floor check of brackets.dirac_core and dynamics.dirac_rhs.  init_state
computes calP^0 and checks m*^2 in its own fixed point, from the Model
constants, derived once per Model.  A state is its 16 numbers, spinless
when omega = pi = 0; spin_tensor is the one writer of S, of one omega
and pi or of stacks of them, and spin_readouts its one read-out.
field_data returns the compact float tuples of the background's at(x)
(fields.py), the one field layout, which the kernel, the float paths of
dynamics, init_state and brackets.dirac_core read as they are.  The canonical
structure, {z, B} = J grad B and {A, B} = grad A . J grad B, is a signed
permutation written once, in ``symplectic``; the constant matrix J is
built from it (grad B @ J.T, also for an (n, 16) stack).  An
Observable is a named scalar with its exact gradient, the form
brackets.dirac_bracket pairs; the package builds none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .fields import FieldBackground, finite
from .minkowski import ETA_DIAG, boost_matrix, contract_2, field_tensor, lower2

def symplectic(v):
    """J v = {z^k, B} for v = grad B, as a list of 16 numbers, where
    J[a, b] = {z^a, z^b}: {x^mu, p^nu} = {omega^mu, pi^nu} = eta^{mu nu}.
    v is 16 floats, or a (16, n) array holding n gradients as columns."""
    return [-v[4], v[5], v[6], v[7], v[0], -v[1], -v[2], -v[3],
            -v[12], v[13], v[14], v[15], v[8], -v[9], -v[10], -v[11]]


# the matrix of the permutation (+ 0.0 turns a negated zero into 0.0)
J = np.array(symplectic(np.eye(16))) + 0.0


@dataclass
class PhaseState:
    """One phase-space point; vec is the flat 16-vector (x, p, omega, pi),
    all of the state: it is spinless when omega = pi = 0."""

    vec: np.ndarray

    @classmethod
    def from_parts(cls, x, p, w, pi):
        vec = np.concatenate([np.asarray(b, dtype=float) for b in (x, p, w, pi)])
        if vec.shape != (16,):
            raise ValueError("each of x, p, omega, pi must have 4 components")
        return cls(vec=vec)

    @property
    def spinless(self):
        return not self.vec[8:16].any()

    # the four blocks of vec, 4 slots each
    x, p, w, pi = (property(lambda self, k=k: self.vec[k:k + 4]) for k in (0, 4, 8, 12))


@dataclass(frozen=True)
class Model:
    """Particle constants plus the background they move in, and what the
    kernel reads of them: e and c, e_c = e/c, eg_c = e g/c, eg_4c =
    e g/(4c), mc2 = (m c)^2 and t34_floor, the least |{T3,T4}| inverted."""

    background: FieldBackground
    m: float = 1.0
    g: float = 2.0
    hbar: float = 1.0
    alpha: float = None  # spin invariant; default 3 hbar^2 / 4 (spin one-half)

    def __post_init__(self):
        if self.alpha is None:
            object.__setattr__(self, "alpha", 0.75 * self.hbar**2)
        if not self.m > 0:   # NaN fails this test too
            raise ValueError(f"mass m must be positive, got {self.m}")
        if not math.isfinite(self.g):
            raise ValueError(f"g must be finite, got {self.g}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"spin invariant alpha must be finite and >= 0, got {self.alpha}")
        if not 0.0 < self.hbar < math.inf:   # NaN fails this test too
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        # once per model (dataclasses.replace runs this again)
        e, c, g = self.background.e, self.background.c, self.g
        vars(self).update(e=e, c=c, e_c=e / c, eg_c=e * g / c, eg_4c=e * g / (4 * c))

    @cached_property
    def mc2(self):
        # on first read, so a model past the float range is refused by
        # its first computation, as a state out of range is
        try:
            mc2 = (self.m * self.c) ** 2   # inf, not an OverflowError, at m c = inf
        except OverflowError:
            mc2 = math.inf
        if mc2 == math.inf:
            raise ValueError(f"(m c)^2 is past the float range: m = {self.m}, c = {self.c}")
        return mc2

    @cached_property
    def t34_floor(self):
        return 1e-10 * (1.0 + self.mc2)


def field_data(model, x4):
    """The fields at the point x4, a sequence of four floats, as the
    background's at(x) gives them: the tuples (A, dA, F, dF)."""
    return model.background.at(x4)


# ---------------------------------------------------------------------------
# spin tensor and constraint values


def spin_tensor(w, pi):
    """S^{mu nu} = 2 (omega^mu pi^nu - omega^nu pi^mu) of omega and pi, two
    arrays (4,) or two (n, 4) stacks, as (4, 4) or (n, 4, 4): the one
    writer of the convention."""
    wp = w[..., :, None] * pi[..., None, :]
    return 2.0 * (wp - np.swapaxes(wp, -1, -2))


def spin_readouts(S):
    """Spin three-vector S_k = S^{ij}/2 for (ij) = (23), (31), (12), dipole
    vector D^i = S^{i0} and S.S of a spin tensor (4, 4) or of a stack of
    them (n, 4, 4): the one read-out of the convention."""
    return (0.5 * S[..., [2, 3, 1], [3, 1, 2]], S[..., 1:, 0],
            np.sum(lower2(S) * S, axis=(-2, -1)))


def _energy(PP, fs, model):
    """calP^0 from calP_i calP^i and F_{mu nu} S^{mu nu}: the energy
    radicand and its one check, shared by calP and the constraint rows."""
    rad = PP - model.eg_4c * fs + model.mc2
    if not rad > 0.0:   # NaN fails this test too
        raise ValueError(f"energy radicand {rad} is not positive; state outside model range")
    return math.sqrt(rad)


def _t3t4(t34, model):
    """{T3,T4} as given, refused where it is too small to invert (below
    model.t34_floor in magnitude), NaN included; the one floor check of
    brackets.dirac_core and dynamics.dirac_rhs."""
    if not abs(t34) >= model.t34_floor:   # NaN fails this test too
        raise ValueError(f"{{T3,T4}} = {t34} too close to zero or undefined; "
                         "second-class inversion breaks down at this state")
    return t34


CONSTRAINT_NAMES = ("T2", "T3", "T4", "T5")


def constraint_residuals(z, model):
    """All constraint values at z (exact zeros define the surface), from
    one field evaluation, one kernel call and t_values; a spinless state
    carries no constraints."""
    if z.spinless:
        return dict.fromkeys((*CONSTRAINT_NAMES, "ssc", "spin2"), 0.0)
    vec = z.vec.tolist()
    P, _ = _kernel(vec, model, field_data(model, vec[:4]))
    S = spin_tensor(z.w, z.pi)
    return {**dict(zip(CONSTRAINT_NAMES, t_values(vec, P, model))),
            "ssc": float(np.max(np.abs(S @ (ETA_DIAG * np.array(P))))),
            "spin2": float(spin_readouts(S)[2]) - 8.0 * model.alpha}


# ---------------------------------------------------------------------------
# observables with exact gradients


class Observable:
    """Named scalar on phase space with an exact 16-gradient.

    grad returns d(obs)/dz as a flat (16,) array in block order
    (x, p, omega, pi); brackets.dirac_bracket pairs two of them.  The
    package builds none: the bracket reports read the gradient matrix
    brackets.row_gradients, and the observables that pin it, by finite
    differences and by dual numbers, are test oracles.
    """

    __slots__ = ("name", "_f", "_g")

    def __init__(self, name: str, f: Callable, g: Callable):
        self.name = name
        self._f = f
        self._g = g

    def __call__(self, z, model):
        return float(self._f(z, model))

    def grad(self, z, model):
        return self._g(z, model)


def _kernel(vec, model, fields):
    """calP and the pieces of the rows grad (calP^0, T3, T4) at the state
    vec, a sequence of 16 floats: the one evaluation of a state, as
    Python floats (a 4-tuple and the pieces (g0, ex3, ex4)); t_values
    writes the constraint values from vec and this calP.

    g0 = grad calP^0 is 16 floats; ex3 and ex4 are the x-parts of the
    explicit gradients e3 and e4, -(e/c) v^i d_lam A^i for v = omega and
    pi, 4 floats each.  With them grad T_v = -v^0 g0 + e_v, where e_v is
    (ex_v, (0, v^i), calP_low, 0) for v = omega and (ex_v, (0, v^i), 0,
    calP_low) for v = pi; t_rows assembles the rows, and
    dynamics.dirac_rhs pairs the pieces without assembling them.

    A spinless state (omega = pi = 0) carries no constraints; at any
    other omega^2 = 0, T5 is undefined and ValueError is raised.  Written
    on the components in float arithmetic: at one state numpy's per-call
    cost outweighs the arithmetic of four-vectors, so the state is
    unpacked as floats, the
    fields as the tuples of field_data (the spatial derivatives of A and
    the components of F and d_lam F above the diagonal), and the eta
    signs and the four contractions with S are written out on them.  The
    backgrounds are stationary and the layout has no x^0 derivative: the
    x^0 slots of g0, ex3 and ex4 are 0.0 and the x-parts are formed for
    lam = 1..3 only.
    grad calP^0 = grad W / (2 calP^0), W = calP^0 ** 2 the energy radicand.
    """
    k, h = model.e_c, model.eg_c   # W holds -(h / 4) F_{mu nu} S^{mu nu}
    _, _, _, _, _, p1, p2, p3, w0, w1, w2, w3, q0, q1, q2, q3 = vec
    # a_il = d_l A^i for i, l = 1..3; F (f) and d_lam F (u, v, y for
    # lam = 1, 2, 3) above the diagonal
    ((_, A1, A2, A3), (_, (a11, a12, a13), (a21, a22, a23), (a31, a32, a33)),
     (f01, f02, f03, f12, f13, f23), ((u01, u02, u03, u12, u13, u23),
                                      (v01, v02, v03, v12, v13, v23),
                                      (y01, y02, y03, y12, y13, y23))) = fields
    P1, P2, P3 = p1 - k * A1, p2 - k * A2, p3 - k * A3
    # S^{mu nu} = 2 (omega^mu pi^nu - omega^nu pi^mu) above the diagonal
    s01, s02, s03 = (2.0 * (w0 * q1 - w1 * q0), 2.0 * (w0 * q2 - w2 * q0),
                     2.0 * (w0 * q3 - w3 * q0))
    s12, s13, s23 = (2.0 * (w1 * q2 - w2 * q1), 2.0 * (w1 * q3 - w3 * q1),
                     2.0 * (w2 * q3 - w3 * q2))
    # contractions T_{mu nu} S^{mu nu} = 2 (T^{ij} S^{ij} - T^{0i} S^{0i})
    fs = 2.0 * (f12 * s12 + f13 * s13 + f23 * s23 - f01 * s01 - f02 * s02 - f03 * s03)
    fs1 = 2.0 * (u12 * s12 + u13 * s13 + u23 * s23 - u01 * s01 - u02 * s02 - u03 * s03)
    fs2 = 2.0 * (v12 * s12 + v13 * s13 + v23 * s23 - v01 * s01 - v02 * s02 - v03 * s03)
    fs3 = 2.0 * (y12 * s12 + y13 * s13 + y23 * s23 - y01 * s01 - y02 * s02 - y03 * s03)
    P0 = _energy(P1 * P1 + P2 * P2 + P3 * P3, fs, model)
    if w1 * w1 + w2 * w2 + w3 * w3 - w0 * w0 == 0.0 and any(vec[8:]):
        raise ValueError("T5 undefined at omega^2 = 0")
    d = 2.0 * P0
    # x block: chain rule through A^i and F; omega and pi blocks:
    # -+ h (F_{mu nu} v^nu) with v = pi and omega
    g0 = [0.0, (-2.0 * k * (P1 * a11 + P2 * a21 + P3 * a31) - 0.25 * h * fs1) / d,
          (-2.0 * k * (P1 * a12 + P2 * a22 + P3 * a32) - 0.25 * h * fs2) / d,
          (-2.0 * k * (P1 * a13 + P2 * a23 + P3 * a33) - 0.25 * h * fs3) / d,
          0.0, 2.0 * P1 / d, 2.0 * P2 / d, 2.0 * P3 / d,
          h * (f01 * q1 + f02 * q2 + f03 * q3) / d,
          -h * (f01 * q0 + f12 * q2 + f13 * q3) / d,
          -h * (f02 * q0 - f12 * q1 + f23 * q3) / d,
          -h * (f03 * q0 - f13 * q1 - f23 * q2) / d,
          -h * (f01 * w1 + f02 * w2 + f03 * w3) / d,
          h * (f01 * w0 + f12 * w2 + f13 * w3) / d,
          h * (f02 * w0 - f12 * w1 + f23 * w3) / d,
          h * (f03 * w0 - f13 * w1 - f23 * w2) / d]
    ex3 = [0.0, -k * (w1 * a11 + w2 * a21 + w3 * a31), -k * (w1 * a12 + w2 * a22 + w3 * a32),
           -k * (w1 * a13 + w2 * a23 + w3 * a33)]
    ex4 = [0.0, -k * (q1 * a11 + q2 * a21 + q3 * a31), -k * (q1 * a12 + q2 * a22 + q3 * a32),
           -k * (q1 * a13 + q2 * a23 + q3 * a33)]
    return (P0, P1, P2, P3), (g0, ex3, ex4)


def t_values(vec, P, model):
    """The values (T2, T3, T4, T5) at the state vec (16 floats) from the
    calP the kernel gave there, which has refused omega^2 = 0 at every
    state but a spinless one; a spinless state's values are zero."""
    P0, P1, P2, P3 = P
    w0, w1, w2, w3, q0, q1, q2, q3 = vec[8:]
    ww = w1 * w1 + w2 * w2 + w3 * w3 - w0 * w0
    if ww == 0.0:
        return (0.0, 0.0, 0.0, 0.0)
    return (w1 * q1 + w2 * q2 + w3 * q3 - w0 * q0,
            P1 * w1 + P2 * w2 + P3 * w3 - P0 * w0,
            P1 * q1 + P2 * q2 + P3 * q3 - P0 * q0,
            q1 * q1 + q2 * q2 + q3 * q3 - q0 * q0 - model.alpha / ww)


def t_rows(vec, P, pieces):
    """R = grad (calP^0, T3, T4) at the state vec (16 floats) as three
    lists of 16 floats, assembled from the kernel's calP and pieces."""
    g0, ex3, ex4 = pieces
    P_low = (-P[0], P[1], P[2], P[3])

    def t_row(v0, v1, v2, v3, ex, own):
        """grad (-calP^0 v^0 + calP^i v^i); own is the first slot of v."""
        row = [-v0 * gk + x for gk, x in zip(g0, ex)]
        row += [-v0 * g0[4], v1 - v0 * g0[5], v2 - v0 * g0[6], v3 - v0 * g0[7]]
        row += [-v0 * gk for gk in g0[8:]]
        for mu in range(4):
            row[own + mu] += P_low[mu]
        return row

    w0, w1, w2, w3, q0, q1, q2, q3 = vec[8:]
    return g0, t_row(w0, w1, w2, w3, ex3, 8), t_row(q0, q1, q2, q3, ex4, 12)


# ---------------------------------------------------------------------------
# constrained initial data


def _rest_spin_pair(spin_dir, alpha):
    """Unit omega and orthogonal pi with omega x pi = sqrt(alpha) spin_dir.

    Gauge choice |omega| = 1 (T5 then forces |pi|^2 = alpha).  The
    in-plane direction is the coordinate axis least aligned with
    spin_dir, orthonormalized, which keeps the construction
    deterministic.
    """
    n = np.asarray(spin_dir, dtype=float)
    big = np.abs(n).max()
    if big == 0.0:
        raise ValueError("spin_dir must be a nonzero three-vector")
    if not 1e-150 < big < 1e150:   # where |n|^2 would underflow or overflow
        n = n / big
    n = n / np.linalg.norm(n)
    axis = np.argmin(np.abs(n))
    a = np.zeros(3)
    a[axis] = 1.0
    a -= (a @ n) * n
    a /= np.linalg.norm(a)
    b = np.sqrt(alpha) * np.cross(n, a)
    return a, b


def init_state(model, x3, P3, spin_dir=(0, 0, 1.0)):
    """Constrained state at x^0 = 0 with given position, spatial kinetic momentum, spin.

    The internal pair is built in the rest frame (rest spin vector
    sqrt(alpha) spin_dir, |omega| = 1 gauge) and boosted with the pure
    boost that maps the rest momentum to (calP^0, P3).  Because the
    energy function feeds (F S) back into calP^0, the boost is solved
    by a short fixed-point iteration, which stops on a step within
    rounding of F S, or on one that no longer shrinks and lies within
    gamma^2 times that.  alpha = 0 returns a spinless
    state instead, omega = pi = 0.  ValueError, naming the argument,
    for an x3, P3 or spin_dir that is not three finite numbers, and a P3
    whose |P3|^2 + (m c)^2 is past the float range.
    """
    x3, P3, spin_dir = (finite(name, value, (3,)) for name, value
                        in (("x3", x3), ("P3", P3), ("spin_dir", spin_dir)))
    mc2 = model.mc2
    x4 = np.concatenate([[0.0], x3])
    with np.errstate(over="ignore"):   # refused below, with no warning
        PP = P3 @ P3
    if not float(PP) + mc2 < math.inf:
        raise ValueError(f"P3 = {P3.tolist()} is past the float range: |P3|^2 overflows")
    A, _, F6, _ = field_data(model, x4.tolist())

    fs = 0.0   # F S, zero for a spinless state, which keeps omega = pi = 0
    w = pi = np.zeros(4)
    if model.alpha != 0.0:
        F = field_tensor(F6)
        a3, b3 = _rest_spin_pair(spin_dir, model.alpha)
        w_rest = np.concatenate([[0.0], a3])
        pi_rest = np.concatenate([[0.0], b3])
        step = math.inf
        for _ in range(200):
            mstar2 = mc2 - model.eg_4c * fs
            if not mstar2 > 0.0:   # NaN fails this test too
                raise ValueError("field-spin coupling exceeds the mass shell at this point")
            P0 = np.sqrt(PP + mstar2)
            u = np.concatenate([[P0], P3]) / np.sqrt(mstar2)
            L = boost_matrix(u)
            w, pi = L @ w_rest, L @ pi_rest
            fs, fs_old, step_old = contract_2(F, spin_tensor(w, pi)), fs, step
            step = abs(fs - fs_old)
            if step <= 1e-15 * (1.0 + abs(fs)):
                break
            # a fast state's boost rounds F S to about gamma^2 = P0^2 / m*^2
            # times the bound above: a step that no longer shrinks within
            # that is the rounding, not the contraction
            if step_old <= step <= 1e-15 * (1.0 + abs(fs)) * (PP + mstar2) / mstar2:
                break
        else:
            raise RuntimeError("field-spin fixed point did not converge")

    mstar2 = mc2 - model.eg_4c * fs
    P0 = np.sqrt(PP + mstar2)
    p = np.concatenate([[P0], P3]) + model.e_c * np.array(A)
    z = PhaseState.from_parts(x4, p, w, pi)

    res = constraint_residuals(z, model)
    worst = max(abs(v) for v in res.values())
    # the rounding of the boosted pair grows as gamma^2 = P0^2 / m*^2
    if worst > 1e-10 * (1.0 + mc2) * (PP + mstar2) / mstar2:
        raise RuntimeError(f"init_state left residuals {res}")
    return z


SAMPLE_P_SCALE = 0.15   # spread of the sampled calP^i, in units of m c
SAMPLE_X_BOX = 1.0      # half-width of the sampled box of positions (non-Coulomb)


def random_constrained_state(model, rng):
    """Random exactly-constrained state, used by tests and selftests."""
    if model.background.kind == "coulomb":
        u = rng.normal(size=3)
        x3 = (1.5 + 2.0 * rng.random()) * u / np.linalg.norm(u)
    else:
        x3 = SAMPLE_X_BOX * (2.0 * rng.random(3) - 1.0)
    P3 = SAMPLE_P_SCALE * model.m * model.c * rng.normal(size=3)
    n = rng.normal(size=3)
    return init_state(model, x3, P3, spin_dir=n / np.linalg.norm(n))
