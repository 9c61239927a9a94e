"""Minkowski four-vector and antisymmetric-tensor kernel.

Conventions (used by every module in this package; do not duplicate
them elsewhere, import from here):

* metric        eta = diag(-1, +1, +1, +1), index order (0, 1, 2, 3)
* storage       every four-vector and tensor component is stored with
                upper indices; lowering is always explicit via eta
* field tensor  F^{mu nu}, F^{0i} = E_i and F^{ij} = eps_{ijk} B_k (so
                F_{0i} = -E_i), stored above the diagonal as the six
                floats (01, 02, 03, 12, 13, 23) the kernel reads;
                field_from_EB writes them, EB_from_field reads them,
                and field_tensor is the one writer of the (4, 4) array
* spin tensor   S^{mu nu}; dipole part D^i = S^{i0}, spatial part
                S_{ij} = 2 eps_{ijk} S_k with S the spin three-vector

mdot is float arithmetic in the kernel's order, u1 v1 + u2 v2 + u3 v3 -
u0 v0, so the projection's last bit does not depend on whether a BLAS
dot fuses multiply-adds.  The other helpers take float64 ndarrays.
"""

from __future__ import annotations

import numpy as np

ETA_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])

# Levi-Civita on three spatial indices, eps3[i,j,k] with i,j,k in 0..2.
EPS3 = np.zeros((3, 3, 3))
EPS3[0, 1, 2] = EPS3[1, 2, 0] = EPS3[2, 0, 1] = 1.0
EPS3[0, 2, 1] = EPS3[2, 1, 0] = EPS3[1, 0, 2] = -1.0

_UPPER = np.triu_indices(4, 1)   # the slots 01, 02, 03, 12, 13, 23


def mdot(u, v):
    """Minkowski scalar product u_mu v^mu = -u0 v0 + u.v of four numbers each."""
    return u[1] * v[1] + u[2] * v[2] + u[3] * v[3] - u[0] * v[0]


def lower2(T):
    """Lower both indices of a rank-2 tensor: T_{mu nu}."""
    return ETA_DIAG[:, None] * T * ETA_DIAG[None, :]


def contract_2(F, S):
    """Full contraction F_{mu nu} S^{mu nu} of two rank-2 tensors.

    Both arguments are stored upper-index; the first is lowered with
    eta on both slots before contracting.
    """
    return float(np.sum(lower2(F) * S))


def field_from_EB(E, B):
    """F^{mu nu} above the diagonal, (E1, E2, E3, B3, -B2, B1), of E and B,
    three floats each; 0.0 - B2, not -B2, so a zero stays +0.0."""
    (e1, e2, e3), (b1, b2, b3) = E, B
    return (e1, e2, e3, b3, 0.0 - b2, b1)


def EB_from_field(F):
    """(E, B), three floats each, of the six floats field_from_EB writes."""
    e1, e2, e3, f12, f13, f23 = F
    return (e1, e2, e3), (f23, 0.0 - f13, f12)


def field_tensor(u):
    """The antisymmetric (4, 4) array with the six floats u above its
    diagonal, or the (n, 4, 4) stack of n of them; 0.0 - u below it, not
    -u, so a zero stays +0.0, as it does in the brackets built on it."""
    u, (i, j) = np.asarray(u, dtype=float), _UPPER
    T = np.zeros((*u.shape[:-1], 4, 4))
    T[..., i, j], T[..., j, i] = u, 0.0 - u
    return T


def boost_matrix(u):
    """Pure boost L with L e0 = u, for a unit timelike u (u.u = -1, u0 > 0).

    Standard form: L^0_0 = u0, L^i_0 = L^0_i = u^i,
    L^i_j = delta_ij + u^i u^j / (1 + u0).
    """
    u = np.asarray(u, dtype=float)
    n2 = mdot(u, u)
    if abs(n2 + 1.0) > 1e-9 or u[0] <= 0:
        raise ValueError(f"boost_matrix needs unit timelike future u, got u.u={n2}")
    L = np.zeros((4, 4))
    L[0, 0] = u[0]
    L[0, 1:] = u[1:]
    L[1:, 0] = u[1:]
    L[1:, 1:] = np.eye(3) + np.outer(u[1:], u[1:]) / (1.0 + u[0])
    return L
