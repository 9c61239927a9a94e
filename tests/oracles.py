"""Test-only reference code for the Dirac-flow kernel and the field layer.

* The three-application form of the Dirac flow: the canonical structure
  applied block by block (``symplectic_apply``), the canonical bracket of
  two gradients written out (``pair_gradients``), and ``flow`` applying
  them to grad B, grad T3 and grad T4 separately.  ``DiracCore.flow``
  applies the constant matrix J once; the tests pin it to this form.
* ``with_gauge_shift``, a background with A^i -> A^i + d_i chi, for the
  gauge-invariance tests.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from relspin.minkowski import ETA_DIAG


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


def flow(core, G):
    """J G + ( {T4,B} J grad T3 - {T3,B} J grad T4 ) / {T3,T4}, with J
    applied to G, grad T3 and grad T4 separately and {T3,T4} recomputed."""
    t34 = pair_gradients(core.g_t3, core.g_t4)
    h3 = pair_gradients(core.g_t3, G)
    h4 = pair_gradients(core.g_t4, G)
    out = symplectic_apply(G)
    out += np.multiply.outer(h4 / t34, symplectic_apply(core.g_t3))
    out -= np.multiply.outer(h3 / t34, symplectic_apply(core.g_t4))
    return out


def with_gauge_shift(bg, dchi, d2chi):
    """Wrap a background with A^i -> A^i + d_i chi for a static chi(r).

    dchi(x) -> (3,) gradient and d2chi(x) -> (3, 3) Hessian must be
    exact.  The field tensor is untouched, so every gauge-invariant
    output (trajectory of x, kinetic momentum, spin) must agree with
    the unwrapped background; only the canonical momentum shifts.
    """

    def at(x):
        A, dA, F, dF = bg.at(x)
        A = A.copy()
        A[1:] += dchi(x)
        dA = dA.copy()
        dA[1:, 1:] += d2chi(x)
        return A, dA, F, dF

    return dataclasses.replace(bg, params=dict(bg.params),
                               gauge=bg.gauge + " + static gauge shift", at=at)
