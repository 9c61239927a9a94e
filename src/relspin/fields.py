"""Stationary electromagnetic backgrounds with exact analytic derivatives.

A background supplies one evaluator at a spacetime point x (only the
spatial part matters, the fields are time independent):

    at(x) -> (A, dA, F, dF)

    A   (4,)       potential A^mu
    dA  (4, 4)     dA[mu, nu] = d A^mu / d x^nu
    F   (4, 4)     upper-index field tensor F^{mu nu}
    dF  (4, 4, 4)  dF[lam, mu, nu] = d F^{mu nu} / d x^lam

so a point's geometry (the coulomb radius and its r_min check) is
computed once for all four; A, dA, F and dF are views of it.  The
uniform kinds return their constant dA, F and dF arrays, which callers
must not modify.  Stationarity means dA[:, 0] == 0 and dF[0] == 0
identically.  F is antisymmetric, and so is dF in its last two indices;
the constraint rows of ``phase._rows`` read only the components above
the diagonal.  Lowered copies of F and dF are made by
``phase.FieldsAt`` only when a reader asks for them.  The electric field
of a static potential is
E_i = d_i A_0 = -d_i A^0.  Exact derivatives are part of the contract:
bracket and force evaluations chain-rule through these, finite
differences are used only as test oracles.

Catalog kinds: "zero", "uniform-E", "uniform-B", "crossed", "coulomb".
The probe charge e and light speed c ride along on the background so a
single object fixes the minimal coupling (e/c) A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .minkowski import EPS3, field_tensor_from_EB

KINDS = ("zero", "uniform-E", "uniform-B", "crossed", "coulomb")

_Z4 = np.zeros(4)
_Z44 = np.zeros((4, 4))
_Z444 = np.zeros((4, 4, 4))
_EYE3 = np.eye(3)
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


@dataclass(frozen=True)
class FieldBackground:
    kind: str
    e: float
    c: float
    params: dict
    gauge: str
    at: Callable = field(repr=False)   # x -> (A, dA, F, dF)

    def A(self, x):
        return self.at(x)[0]

    def dA(self, x):
        return self.at(x)[1]

    def F(self, x):
        return self.at(x)[2]

    def dF(self, x):
        return self.at(x)[3]


def _uniform_at(E3, B3):
    """Linear potentials for constant E and B (symmetric gauge for B)."""
    E3 = np.asarray(E3, dtype=float)
    B3 = np.asarray(B3, dtype=float)
    F_const = field_tensor_from_EB(E3, B3)
    # A^0 = -E.x so that E_i = -d_i A^0; A^i = (1/2)(B x r)^i
    dA_const = np.zeros((4, 4))
    dA_const[0, 1:] = -E3
    dA_const[1:, 1:] = 0.5 * np.einsum("ikj,k->ij", EPS3, B3)
    # B x r written out: the same products and differences as np.cross
    B_l, B_r = B3[_NEXT], B3[_PREV]

    def at(x):
        r = x[1:]
        A = np.empty(4)
        A[0] = -float(E3 @ r)
        A[1:] = 0.5 * (B_l * r[_PREV] - B_r * r[_NEXT])
        return A, dA_const, F_const, _Z444

    return at


def _coulomb_at(q, r_min):
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


def make_background(kind, e=1.0, c=10.0, **params):
    """Build a catalog background.

    Parameters by kind: uniform-E takes E=(3,), uniform-B takes B=(3,),
    crossed takes both, coulomb takes q and optional r_min (default
    1e-6, evaluations closer to the center are rejected).
    """
    if kind == "zero":
        at = lambda x: (_Z4, _Z44, _Z44, _Z444)
        gauge = "zero potential"
    elif kind == "uniform-E":
        at = _uniform_at(params.get("E", (0, 0, 0)), (0, 0, 0))
        gauge = "A0 = -E.x"
    elif kind == "uniform-B":
        at = _uniform_at((0, 0, 0), params.get("B", (0, 0, 0)))
        gauge = "symmetric, A = (1/2) B x r"
    elif kind == "crossed":
        at = _uniform_at(params.get("E", (0, 0, 0)), params.get("B", (0, 0, 0)))
        gauge = "A0 = -E.x with symmetric magnetic part"
    elif kind == "coulomb":
        if "q" not in params:
            raise ValueError("coulomb background requires the source charge q")
        at = _coulomb_at(float(params["q"]), float(params.get("r_min", 1e-6)))
        gauge = "A0 = q/r"
    else:
        raise ValueError(f"unknown background kind {kind!r}, expected one of {KINDS}")
    return FieldBackground(kind=kind, e=float(e), c=float(c), params=dict(params),
                           gauge=gauge, at=at)
