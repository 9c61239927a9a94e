"""Forward-mode dual numbers over the 16 phase-space directions.

A Dual carries a value and the full vector of first partials with
respect to (x, p, omega, pi).  Writing an observable once in ordinary
arithmetic then evaluating it on lifted coordinates yields its exact
gradient; this is the second, independent route to the gradients that
the bracket engine needs (the hot paths use hand-coded gradients, and
the two are pinned against each other in the test suite).

Field values are lifted through the analytic first derivatives that
every background supplies, so no symbolic machinery is involved.
"""

from __future__ import annotations

import numpy as np

from relspin.phase import Observable, field_data

from oracles import FieldArrays

N = 16


class Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b=None):
        self.a = float(a)
        self.b = np.zeros(N) if b is None else b

    @classmethod
    def seed(cls, a, k):
        b = np.zeros(N)
        b[k] = 1.0
        return cls(a, b)

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.a + o.a, self.b + o.b)
        return Dual(self.a + o, self.b)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.a * o.a, self.a * o.b + o.a * self.b)
        return Dual(self.a * o, self.b * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual):
            if o.a == 0.0:
                raise ZeroDivisionError("dual division by zero value")
            inv = 1.0 / o.a
            return Dual(self.a * inv, (self.b - self.a * inv * o.b) * inv)
        return Dual(self.a / o, self.b / o)

    def __rtruediv__(self, o):
        if self.a == 0.0:
            raise ZeroDivisionError("dual division by zero value")
        return Dual(o / self.a, -o * self.b / self.a**2)

    def __pow__(self, n):
        if not isinstance(n, (int, float)):
            raise TypeError("dual power must be a plain exponent")
        return Dual(self.a**n, n * self.a ** (n - 1) * self.b)

    def sqrt(self):
        if self.a <= 0.0:
            raise ValueError("dual sqrt of non-positive value")
        r = np.sqrt(self.a)
        return Dual(r, self.b / (2.0 * r))

    def __repr__(self):
        return f"Dual({self.a})"


def lift_state(z):
    """All 16 coordinates as seeded duals, in block order (x, p, omega, pi)."""
    return [Dual.seed(z.vec[k], k) for k in range(N)]


def lift_fields(model, z):
    """Background tensors at x as duals in the position directions.

    Returns (A, F_low) with A a list of 4 duals and F_low a 4x4 nested
    list of duals holding F_{mu nu}; first derivatives come from the
    background's analytic dA and dF.
    """
    fd = FieldArrays(field_data(model, z.x))
    A = []
    for mu in range(4):
        b = np.zeros(N)
        b[0:4] = fd.dA[mu, :]
        A.append(Dual(fd.A[mu], b))
    F_low = []
    for mu in range(4):
        row = []
        for nu in range(4):
            b = np.zeros(N)
            b[0:4] = fd.dF_low[:, mu, nu]
            row.append(Dual(fd.F_low[mu, nu], b))
        F_low.append(row)
    return A, F_low


def dual_observable(name, expr):
    """Observable from a dual-generic expression expr(coords, A, F_low, model).

    coords is the lifted 16-list; A and F_low are lifted background
    tensors at the state's position.  Evaluation wastes the partials,
    grad wastes the value; this path is for verification and ad-hoc
    observables, not for hot loops.
    """
    def run(z, model):
        return expr(lift_state(z), *lift_fields(model, z), model)

    return Observable(name, lambda z, model: run(z, model).a,
                      lambda z, model: run(z, model).b)


def energy_expr(coords, A, F_low, model):
    """Dual build of calP^0; mirrors the hand-coded version in phase.py."""
    e, c, m, g = model.e, model.c, model.m, model.g
    P3 = [coords[4 + i] - (e / c) * A[i] for i in (1, 2, 3)]
    w = coords[8:12]
    pi = coords[12:16]
    fs = Dual(0.0)
    for mu in range(4):
        for nu in range(4):
            s_upper = 2.0 * (w[mu] * pi[nu] - w[nu] * pi[mu])
            fs = fs + F_low[mu][nu] * s_upper
    rad = P3[0] * P3[0] + P3[1] * P3[1] + P3[2] * P3[2] \
        - (e * g / (4.0 * c)) * fs + (m * c) ** 2
    return rad.sqrt()


def t3_expr(coords, A, F_low, model):
    p0 = energy_expr(coords, A, F_low, model)
    e, c = model.e, model.c
    w = coords[8:12]
    out = -1.0 * p0 * w[0]
    for i in (1, 2, 3):
        out = out + (coords[4 + i] - (e / c) * A[i]) * w[i]
    return out


def t4_expr(coords, A, F_low, model):
    p0 = energy_expr(coords, A, F_low, model)
    e, c = model.e, model.c
    pi = coords[12:16]
    out = -1.0 * p0 * pi[0]
    for i in (1, 2, 3):
        out = out + (coords[4 + i] - (e / c) * A[i]) * pi[i]
    return out


def hamiltonian_expr(coords, A, F_low, model):
    return model.c * energy_expr(coords, A, F_low, model) + model.e * A[0]
