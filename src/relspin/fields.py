"""Stationary electromagnetic backgrounds with exact analytic derivatives.

A background supplies one evaluator at a spacetime point x, a sequence
of four Python floats (only the spatial part matters, the fields are
time independent):

    at(x) -> (A, dA, F, dF)

    A   4 floats      potential A^mu
    dA  4 rows of 3   dA[mu][i - 1] = d A^mu / d x^i, i = 1..3
    F   6 floats      F^{mu nu} above the diagonal, in the order
                      01, 02, 03, 12, 13, 23 (upper indices)
    dF  3 rows of 6   dF[lam - 1] = d F^{mu nu} / d x^lam, lam = 1..3,
                      in the order of F

as tuples of Python floats: what the float kernel ``phase._kernel``
reads, and nothing else.  Stationarity (no x^0 derivative) and the
antisymmetry of F and dF hold by construction: the layout has no slot
for an x^0 derivative or an entry on or below the diagonal.  A point's
geometry (the coulomb radius and its R_MIN check) is computed once for
all four, and the coulomb tuples are written out inline; the uniform
kinds return constant float tuples made once at construction, F by
minkowski.field_from_EB.  These tuples are the one field layout of the
package; the readers that need the (4, 4) array of F or of a row of dF
build it with minkowski.field_tensor.  numpy is used only in finite,
so reading KINDS or PARAMETERS loads neither numpy nor minkowski.  The
electric field of a static potential is E_i = d_i A_0 = -d_i A^0.
Exact derivatives are part of the contract: bracket and force
evaluations chain-rule through these, finite differences are used only
as test oracles.

Catalog kinds: "zero", "uniform-E", "uniform-B", "crossed", "coulomb".
PARAMETERS is the one table of the parameters each kind takes, which
``make_background`` and the CLI schema read.  The probe charge e and
light speed c ride along on the background so a single object fixes
the minimal coupling (e/c) A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

# the parameters each kind requires, name -> shape: () is a number and
# (3,) a three-vector
PARAMETERS = {
    "zero": {},
    "uniform-E": {"E": (3,)},
    "uniform-B": {"B": (3,)},
    "crossed": {"E": (3,), "B": (3,)},
    "coulomb": {"q": ()},
}
KINDS = tuple(PARAMETERS)
# coulomb evaluations closer to the center than R_MIN are refused
R_MIN = 1e-6

_Z3 = (0.0, 0.0, 0.0)
_Z6 = (0.0,) * 6
_ZERO = ((0.0,) * 4, (_Z3,) * 4, _Z6, (_Z6,) * 3)


@dataclass(frozen=True)
class FieldBackground:
    kind: str
    e: float
    c: float
    at: Callable = field(repr=False)   # x -> (A, dA, F, dF), float tuples


def _uniform_at(E3, B3):
    """Linear potentials for constant E and B (symmetric gauge for B)."""
    from .minkowski import field_from_EB

    e1, e2, e3 = E = tuple(map(float, E3))
    b1, b2, b3 = B = tuple(map(float, B3))
    # A^0 = -E.x so that E_i = -d_i A^0; A^i = (1/2)(B x r)^i, whose
    # gradient has 0.0 - h, as F has 0.0 - B2, so a zero stays +0.0
    h1, h2, h3 = 0.5 * b1, 0.5 * b2, 0.5 * b3
    dA = ((-e1, -e2, -e3), (0.0, 0.0 - h3, h2), (h3, 0.0, 0.0 - h1), (0.0 - h2, h1, 0.0))
    F, dF = field_from_EB(E, B), (_Z6,) * 3

    def at(x):
        _, x1, x2, x3 = x
        # E.x as a float sum: a BLAS dot's last bit depends on the host
        return ((-(e1 * x1 + e2 * x2 + e3 * x3), 0.5 * (b2 * x3 - b3 * x2),
                 0.5 * (b3 * x1 - b1 * x3), 0.5 * (b1 * x2 - b2 * x1)), dA, F, dF)

    return at


def _coulomb_at(q):
    def at(x):
        _, x1, x2, x3 = x
        rr = x1 * x1 + x2 * x2 + x3 * x3
        r = math.sqrt(rr)
        if not r >= R_MIN:   # NaN fails this test too
            raise ValueError(f"coulomb background evaluated at r={r:.3e} < r_min={R_MIN:.3e}")
        r3, r5 = r**3, r**5
        E1, E2, E3 = q * x1 / r3, q * x2 / r3, q * x3 / r3
        # d_l E_i = q (delta_li r^2 - 3 x_l x_i) / r^5
        d11, d22, d33 = (q * (rr - 3.0 * (x1 * x1)) / r5, q * (rr - 3.0 * (x2 * x2)) / r5,
                         q * (rr - 3.0 * (x3 * x3)) / r5)
        d12, d13, d23 = (q * (-3.0 * (x1 * x2)) / r5, q * (-3.0 * (x1 * x3)) / r5,
                         q * (-3.0 * (x2 * x3)) / r5)
        # F^{0i} = E_i and d_l F^{0i} = d_l E_i; no magnetic part
        return ((q / r, 0.0, 0.0, 0.0), ((-E1, -E2, -E3), _Z3, _Z3, _Z3),
                (E1, E2, E3, 0.0, 0.0, 0.0),
                ((d11, d12, d13, 0.0, 0.0, 0.0), (d12, d22, d23, 0.0, 0.0, 0.0),
                 (d13, d23, d33, 0.0, 0.0, 0.0)))

    return at


def finite(label, value, shape):
    """value as a finite float array of the given shape; else ValueError, by label."""
    import numpy as np

    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):   # not a number, or a ragged sequence
        array = np.array(math.nan)
    if not (array.shape == shape and np.all(np.isfinite(array))):
        raise ValueError(f"{label} must be finite, of shape {shape}, got {value!r}")
    return array


def make_background(kind, e=1.0, c=10.0, **params):
    """Build a catalog background.

    The parameters of each kind are those of PARAMETERS, all required:
    uniform-E takes E=(3,), uniform-B takes B=(3,), crossed takes both,
    coulomb takes q, and refuses an evaluation closer to the center than
    R_MIN.  ValueError, naming the parameter, for one the kind does not
    take, one left out, and one that is not finite or not of its shape;
    and, naming e or c, for one that is not a number or not finite, or a
    c that is not positive.
    """
    for name, value in (("charge e", e), ("light speed c", c)):
        try:
            float(value)
        except (TypeError, ValueError):   # a string, None, a sequence
            raise ValueError(f"{name} must be a number, got {value!r}") from None
    e, c = float(e), float(c)
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"light speed c must be finite and positive, got {c}")
    if not math.isfinite(e):
        raise ValueError(f"charge e must be finite, got {e}")
    if kind not in PARAMETERS:
        raise ValueError(f"unknown background kind {kind!r}, expected one of {KINDS}")
    table, values = PARAMETERS[kind], {}
    for name in params:
        if name not in table:
            raise ValueError(f"{kind} background takes no parameter {name}; "
                             f"it takes {tuple(table)}")
    for name, shape in table.items():
        if name not in params:
            raise ValueError(f"{kind} background requires the parameter {name}")
        values[name] = finite(f"background parameter {name}", params[name], shape)
    if kind == "zero":
        at = lambda x: _ZERO
    elif kind == "coulomb":
        at = _coulomb_at(float(values["q"]))
    else:
        at = _uniform_at(values.get("E", _Z3), values.get("B", _Z3))
    return FieldBackground(kind=kind, e=e, c=c, at=at)
