import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relspin.minkowski import (ETA, ETA_DIAG, boost_matrix, contract_2,
                               extract_EB, field_tensor_from_EB, mdot)

from oracles import antisymmetrize, boost_tensor, boost_vector, is_antisymmetric

finite = st.floats(-10.0, 10.0, allow_nan=False)
vec4 = st.tuples(finite, finite, finite, finite).map(np.array)
vec3 = st.tuples(finite, finite, finite).map(np.array)


def test_signature():
    assert np.array_equal(np.diag(ETA), ETA_DIAG)
    assert ETA[0, 0] == -1.0 and ETA[1, 1] == 1.0


@given(vec4, vec4)
def test_mdot_symmetric(u, v):
    assert np.isclose(mdot(u, v), mdot(v, u))
    assert np.isclose(mdot(u, v), -u[0] * v[0] + u[1:] @ v[1:])


def test_field_tensor_layout():
    E = np.array([1.0, 2.0, 3.0])
    B = np.array([4.0, 5.0, 6.0])
    F = field_tensor_from_EB(E, B)
    assert is_antisymmetric(F)
    # F^{0i} = E_i, F^{ij} = eps_{ijk} B_k
    assert np.allclose(F[0, 1:], E)
    assert F[1, 2] == B[2] and F[2, 3] == B[0] and F[3, 1] == B[1]
    E2, B2 = extract_EB(F)
    assert np.allclose(E2, E) and np.allclose(B2, B)


@given(vec3, vec3)
def test_fs_contraction_identity(E, B):
    # (F S) = 4 B.Svec + 2 E.D for an antisymmetric S with
    # S^{ij} = 2 eps^{ijk} S_k and dipole D_i = S^{i0}
    F = field_tensor_from_EB(E, B)
    rng = np.random.default_rng(1)
    Svec = rng.normal(size=3)
    D = rng.normal(size=3)
    S = np.zeros((4, 4))
    S[1:, 0] = D
    S[0, 1:] = -D
    S[1, 2] = 2 * Svec[2]
    S[2, 1] = -2 * Svec[2]
    S[2, 3] = 2 * Svec[0]
    S[3, 2] = -2 * Svec[0]
    S[3, 1] = 2 * Svec[1]
    S[1, 3] = -2 * Svec[1]
    fs = contract_2(F, S)
    assert np.isclose(fs, 4 * B @ Svec + 2 * E @ D)


@given(vec4)
def test_antisymmetrize(v):
    T = np.outer(v, v) + np.arange(16.0).reshape(4, 4)
    A = antisymmetrize(T)
    assert is_antisymmetric(A)
    assert np.allclose(A, 0.5 * (T - T.T))


def _unit_timelike(v3):
    v3 = np.asarray(v3, dtype=float)
    gamma = 1.0 / np.sqrt(1.0 - v3 @ v3)
    return np.concatenate(([gamma], gamma * v3))


@settings(max_examples=30)
@given(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
                 st.floats(-0.5, 0.5)))
def test_boost_preserves_interval(v3):
    v3 = np.array(v3)
    if v3 @ v3 > 0.8:
        v3 = v3 * np.sqrt(0.8 / (v3 @ v3))
    L = boost_matrix(_unit_timelike(v3))
    v = np.array([1.3, 0.2, -0.7, 0.5])
    assert np.isclose(mdot(boost_vector(L, v), boost_vector(L, v)), mdot(v, v))
    # metric invariance as a matrix statement
    assert np.allclose(L.T @ ETA @ L, ETA, atol=1e-12)


def test_boost_tensor_consistency():
    L = boost_matrix(_unit_timelike([0.3, -0.2, 0.1]))
    F = field_tensor_from_EB(np.array([1.0, 0.0, 0.0]),
                             np.array([0.0, 0.0, 2.0]))
    FB = boost_tensor(L, F)
    assert is_antisymmetric(FB)
    # the invariant F.F survives any boost
    assert np.isclose(contract_2(F, F), contract_2(FB, FB))
