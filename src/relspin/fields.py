"""Stationary electromagnetic backgrounds with exact analytic derivatives.

A background supplies one evaluator at a spacetime point x, a sequence
of four Python floats (only the spatial part matters, the fields are
time independent):

    at(x) -> (A, dA, F, dF)

    A   (4,)       potential A^mu
    dA  (4, 4)     dA[mu][nu] = d A^mu / d x^nu
    F   (4, 4)     upper-index field tensor F^{mu nu}
    dF  (4, 4, 4)  dF[lam][mu][nu] = d F^{mu nu} / d x^lam

as nested tuples of Python floats, the form the float kernel
``phase._kernel`` reads; a point's geometry (the coulomb radius and its
r_min check) is computed once for all four, and the coulomb tuples are
written out inline.  The uniform kinds return constant dA, F and dF
tuples made once at construction, and tuples cannot be modified by a
caller.  numpy is imported only where a uniform
background, a parameter check or an array is built, so reading KINDS
loads neither numpy nor minkowski.  Arrays are built only on demand: by
``FieldBackground.A/dA/F/dF``, which take an array point and convert
it once with ``tolist()``, and by ``phase.FieldsAt``, which also lowers
F and dF when a reader asks.  Stationarity means dA[mu][0] == 0.0 and
dF[0] == 0.0 identically, in every background, a gauge-shifted one
included: the kernel relies on it and writes no x^0 derivative.  F is
antisymmetric, and so is dF in its last two indices; the kernel reads
only the components above the diagonal.  The electric field of a static potential is
E_i = d_i A_0 = -d_i A^0.  Exact derivatives are part of the contract:
bracket and force evaluations chain-rule through these, finite
differences are used only as test oracles.

Catalog kinds: "zero", "uniform-E", "uniform-B", "crossed", "coulomb".
The probe charge e and light speed c ride along on the background so a
single object fixes the minimal coupling (e/c) A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

KINDS = ("zero", "uniform-E", "uniform-B", "crossed", "coulomb")

_Z4 = (0.0, 0.0, 0.0, 0.0)
_Z44 = (_Z4,) * 4
_Z444 = (_Z44,) * 4


@dataclass(frozen=True)
class FieldBackground:
    kind: str
    e: float
    c: float
    params: dict
    gauge: str
    at: Callable = field(repr=False)   # x -> (A, dA, F, dF), nested float tuples

    def _array(self, x, i):
        import numpy as np

        return np.array(self.at(x.tolist())[i])

    def A(self, x):
        return self._array(x, 0)

    def dA(self, x):
        return self._array(x, 1)

    def F(self, x):
        return self._array(x, 2)

    def dF(self, x):
        return self._array(x, 3)


def _uniform_at(E3, B3):
    """Linear potentials for constant E and B (symmetric gauge for B)."""
    import numpy as np

    from .minkowski import EPS3, field_tensor_from_EB

    E3 = np.asarray(E3, dtype=float)
    B3 = np.asarray(B3, dtype=float)
    # A^0 = -E.x so that E_i = -d_i A^0; A^i = (1/2)(B x r)^i
    dA = np.zeros((4, 4))
    dA[0, 1:] = -E3
    dA[1:, 1:] = 0.5 * np.einsum("ikj,k->ij", EPS3, B3)
    dA, F = (tuple(map(tuple, t.tolist())) for t in (dA, field_tensor_from_EB(E3, B3)))
    e1, e2, e3 = E3.tolist()
    b1, b2, b3 = B3.tolist()

    def at(x):
        _, x1, x2, x3 = x
        # E.x as a float sum, not numpy's dot: whether its BLAS kernel
        # fuses the multiply-adds, and so the last bit, depends on the host
        return ((-(e1 * x1 + e2 * x2 + e3 * x3), 0.5 * (b2 * x3 - b3 * x2),
                 0.5 * (b3 * x1 - b1 * x3), 0.5 * (b1 * x2 - b2 * x1)), dA, F, _Z444)

    return at


def _coulomb_at(q, r_min):
    def at(x):
        _, x1, x2, x3 = x
        rr = x1 * x1 + x2 * x2 + x3 * x3
        r = math.sqrt(rr)
        if not r >= r_min:   # NaN fails this test too
            raise ValueError(
                f"coulomb background evaluated at r={r:.3e} < r_min={r_min:.3e}"
            )
        r3, r5 = r**3, r**5
        E1, E2, E3 = q * x1 / r3, q * x2 / r3, q * x3 / r3
        # d_l E_i = q (delta_li r^2 - 3 x_l x_i) / r^5
        d11, d22, d33 = (q * (rr - 3.0 * (x1 * x1)) / r5, q * (rr - 3.0 * (x2 * x2)) / r5,
                         q * (rr - 3.0 * (x3 * x3)) / r5)
        d12, d13, d23 = (q * (-3.0 * (x1 * x2)) / r5, q * (-3.0 * (x1 * x3)) / r5,
                         q * (-3.0 * (x2 * x3)) / r5)
        # F^{mu nu} of an electric field v, and d_l of it: v in row 0, -v in column 0
        return ((q / r, 0.0, 0.0, 0.0), ((0.0, -E1, -E2, -E3), _Z4, _Z4, _Z4),
                ((0.0, E1, E2, E3), (-E1, 0.0, 0.0, 0.0), (-E2, 0.0, 0.0, 0.0),
                 (-E3, 0.0, 0.0, 0.0)),
                (_Z44, ((0.0, d11, d12, d13), (-d11, 0.0, 0.0, 0.0), (-d12, 0.0, 0.0, 0.0),
                        (-d13, 0.0, 0.0, 0.0)),
                 ((0.0, d12, d22, d23), (-d12, 0.0, 0.0, 0.0), (-d22, 0.0, 0.0, 0.0),
                  (-d23, 0.0, 0.0, 0.0)),
                 ((0.0, d13, d23, d33), (-d13, 0.0, 0.0, 0.0), (-d23, 0.0, 0.0, 0.0),
                  (-d33, 0.0, 0.0, 0.0))))

    return at


def _finite(name, value):
    """value itself; ValueError naming the parameter when it, or a
    component of it, is not a finite number."""
    import numpy as np

    if not np.all(np.isfinite(np.asarray(value, dtype=float))):
        raise ValueError(f"background parameter {name} must be finite, got {value!r}")
    return value


def make_background(kind, e=1.0, c=10.0, **params):
    """Build a catalog background.

    Parameters by kind: uniform-E takes E=(3,), uniform-B takes B=(3,),
    crossed takes both, coulomb takes q and optional r_min (default
    1e-6, evaluations closer to the center are rejected).  ValueError,
    naming the parameter, for an E, B, q or r_min that is not finite and
    for an r_min that is not positive.
    """
    e, c = float(e), float(c)
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"light speed c must be finite and positive, got {c}")
    if not math.isfinite(e):
        raise ValueError(f"charge e must be finite, got {e}")
    if kind == "zero":
        at = lambda x: (_Z4, _Z44, _Z44, _Z444)
        gauge = "zero potential"
    elif kind == "uniform-E":
        at = _uniform_at(_finite("E", params.get("E", (0, 0, 0))), (0, 0, 0))
        gauge = "A0 = -E.x"
    elif kind == "uniform-B":
        at = _uniform_at((0, 0, 0), _finite("B", params.get("B", (0, 0, 0))))
        gauge = "symmetric, A = (1/2) B x r"
    elif kind == "crossed":
        at = _uniform_at(_finite("E", params.get("E", (0, 0, 0))),
                         _finite("B", params.get("B", (0, 0, 0))))
        gauge = "A0 = -E.x with symmetric magnetic part"
    elif kind == "coulomb":
        if "q" not in params:
            raise ValueError("coulomb background requires the source charge q")
        r_min = float(_finite("r_min", params.get("r_min", 1e-6)))
        if not r_min > 0:
            # at r_min <= 0 the center itself would pass the r_min check
            raise ValueError(f"background parameter r_min must be positive, got {r_min}")
        at = _coulomb_at(float(_finite("q", params["q"])), r_min)
        gauge = "A0 = q/r"
    else:
        raise ValueError(f"unknown background kind {kind!r}, expected one of {KINDS}")
    return FieldBackground(kind=kind, e=e, c=c, params=dict(params),
                           gauge=gauge, at=at)
