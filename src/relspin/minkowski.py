"""Minkowski four-vector and antisymmetric-tensor kernel.

Conventions (used by every module in this package; do not duplicate
them elsewhere, import from here):

* metric        eta = diag(-1, +1, +1, +1), index order (0, 1, 2, 3)
* storage       every four-vector and tensor component is stored with
                upper indices; lowering is always explicit via eta
* field tensor  F[mu, nu] holds F^{mu nu}; with E and B the physical
                three-fields, the lower-index components are
                F_{0i} = -E_i and F_{ij} = eps_{ijk} B_k, hence in
                upper-index storage F^{0i} = +E_i and F^{ij} = F_{ij}
* spin tensor   S^{mu nu}; dipole part D^i = S^{i0}, spatial part
                S_{ij} = 2 eps_{ijk} S_k with S the spin three-vector

All arrays are plain float64 ndarrays; shapes are (4,), (4, 4) or
(4, 4, 4) and are validated only at construction helpers, not in the
hot arithmetic paths.
"""

from __future__ import annotations

import numpy as np

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
ETA_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])

# Levi-Civita on three spatial indices, eps3[i,j,k] with i,j,k in 0..2.
EPS3 = np.zeros((3, 3, 3))
EPS3[0, 1, 2] = EPS3[1, 2, 0] = EPS3[2, 0, 1] = 1.0
EPS3[0, 2, 1] = EPS3[2, 1, 0] = EPS3[1, 0, 2] = -1.0


def lower(v):
    """Lower the index of a four-vector: v_mu = eta_{mu nu} v^nu."""
    return ETA_DIAG * v


def mdot(u, v):
    """Minkowski scalar product u_mu v^mu = -u0 v0 + u.v."""
    return float(np.dot(ETA_DIAG * u, v))


def lower2(T):
    """Lower both indices of a rank-2 tensor: T_{mu nu}."""
    return ETA_DIAG[:, None] * T * ETA_DIAG[None, :]


def contract_2(F, S):
    """Full contraction F_{mu nu} S^{mu nu} of two rank-2 tensors.

    Both arguments are stored upper-index; the first is lowered with
    eta on both slots before contracting.
    """
    return float(np.sum(lower2(F) * S))


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
