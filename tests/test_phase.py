"""Phase-space layer: constrained state construction, observables and
their exact gradients.  Gradients are pinned two independent ways, by
central finite differences and by the forward-mode dual-number route,
because every bracket downstream is assembled from them."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relspin import phase
from relspin.dynamics import dirac_rhs, project_state
from relspin.fields import make_background
from relspin.phase import (J, Model, PhaseState, _kernel, constraint_residuals, field_data,
                           init_state, random_constrained_state, spin_readouts,
                           spin_tensor, symplectic)
from relspin.minkowski import ETA_DIAG, contract_2, field_tensor, mdot

import duals
from conftest import (BACKGROUND_PARAMS, KERNEL_BACKGROUNDS, build_model, kernel_model,
                      state_batch)
import oracles
from oracles import (FieldArrays, constraint_values, kernel_rows, kinetic_momentum, obs_coord,
                     obs_energy, obs_hamiltonian, obs_kinetic, obs_spin, obs_t2, obs_t3, obs_t4,
                     obs_t5, p0_and_grad, poisson_bracket, ssc_vector, symplectic_apply,
                     t34_grads)


def _fd_grad16(obs, z, model, h=1e-6):
    out = np.empty(16)
    for k in range(16):
        vp, vm = z.vec.copy(), z.vec.copy()
        vp[k] += h
        vm[k] -= h
        out[k] = (obs(PhaseState(vec=vp), model)
                  - obs(PhaseState(vec=vm), model)) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# state construction


@pytest.mark.parametrize("kind", sorted(BACKGROUND_PARAMS))
def test_init_state_sits_on_surface(kind):
    model = build_model(kind)
    z = init_state(model, x3=(1.2, -0.4, 0.8), P3=(0.3, 0.2, -0.5),
                   spin_dir=(0.4, -1.0, 0.2))
    res = constraint_residuals(z, model)
    for key, val in res.items():
        assert abs(val) < 1e-11, (key, val)


@pytest.mark.parametrize("kind", sorted(BACKGROUND_PARAMS))
def test_random_states_sit_on_surface(kind):
    model = build_model(kind)
    for z in state_batch(model, 12, seed=5):
        res = constraint_residuals(z, model)
        for key, val in res.items():
            assert abs(val) < 1e-10, (key, val)


def test_rest_spin_length():
    # at rest the spin three-vector has length sqrt(alpha)
    model = build_model("zero", g=2.0)
    z = init_state(model, x3=(0, 0, 0), P3=(0, 0, 0), spin_dir=(0, 0, 1.0))
    S, D, SS = spin_readouts(spin_tensor(z.w, z.pi))
    assert np.allclose(S, [0, 0, np.sqrt(model.alpha)])
    assert np.isclose(SS, 8.0 * model.alpha)
    # dipole part vanishes at rest
    assert np.allclose(D, 0.0)


@pytest.mark.parametrize("alpha, hbar", [(-0.75, 1.0), (np.nan, 1.0), (np.inf, 1.0),
                                         (None, np.inf)],
                         ids=["negative", "nan", "inf", "hbar-inf"])
def test_model_refuses_a_negative_or_nan_alpha(alpha, hbar):
    """The spin invariant alpha is refused at construction, by name, with
    no numpy warning: past construction it reaches np.sqrt in init_state,
    whose NaN spin pair ends in a misleading non-convergence error, and
    an infinite one (also the default 3 hbar^2 / 4 at hbar = inf) in
    "field-spin coupling exceeds the mass shell".  alpha = 0 (spinless)
    is kept."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="alpha"):
            build_model("zero", alpha=alpha, hbar=hbar)
    assert init_state(build_model("zero", alpha=0.0), (0, 0, 0), (0.1, 0, 0)).spinless


@pytest.mark.parametrize("hbar, alpha", [(-1.0, None), (0.0, None), (-1.0, 0.75),
                                         (np.inf, 0.75)],
                         ids=["negative", "zero", "negative-given-alpha", "inf-given-alpha"])
def test_model_refuses_an_hbar_that_is_not_positive(hbar, alpha):
    """hbar = -1 would build with the default alpha 3 hbar^2 / 4 = 0.75,
    and hbar = 0 with alpha = 0, a spinless model; an hbar that is not
    positive and finite is refused by name, as the CLI schema refuses
    units.hbar <= 0.  A positive hbar builds, with alpha given or not."""
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        build_model("zero", hbar=hbar, alpha=alpha)
    assert build_model("zero", hbar=0.5, alpha=None).alpha == 0.75 * 0.25
    assert build_model("zero", hbar=2.0, alpha=0.0).alpha == 0.0


@pytest.mark.parametrize("name, value", [
    ("c", 0.0),          # ZeroDivisionError in the kernel
    ("c", -1.0),
    ("c", np.nan),       # "field-spin fixed point did not converge"
    ("c", np.inf),
    ("e", np.nan),
    ("e", np.inf),
    ("m", np.nan),       # nan <= 0 is False
    ("g", np.nan),       # "field-spin fixed point did not converge"
    ("g", np.inf),
], ids=["c-zero", "c-negative", "c-nan", "c-inf", "e-nan", "e-inf", "m-nan", "g-nan",
        "g-inf"])
def test_model_refuses_unphysical_parameters(name, value):
    """c must be finite and positive, e and g finite and m positive: each
    is refused at construction with a ValueError naming it, not later as
    a division by zero or a misleading non-convergence.  e = 0 is kept."""
    with pytest.raises(ValueError, match=rf"\b{name} must be"):
        build_model("crossed", **{name: value})
    assert build_model("crossed", e=0.0).e == 0.0


def test_a_replaced_model_derives_its_constants_afresh():
    """dataclasses.replace runs Model.__post_init__ again, so a model with
    a new g, and one with a new background (other e and c), read the
    constants of a model built fresh from the same arguments: the kernel
    and the right-hand side on each give the same bits as on the fresh
    one, and not those of the model it was replaced from."""
    base = build_model("coulomb", g=2.3)
    crossed = make_background("crossed", e=-0.7, c=6.0, **BACKGROUND_PARAMS["crossed"])
    for change in ({"g": 1.4}, {"background": crossed}):
        replaced = dataclasses.replace(base, **change)
        fresh = Model(**{"background": base.background, "m": base.m, "g": base.g,
                         "hbar": base.hbar, "alpha": base.alpha, **change})
        assert vars(replaced) == vars(fresh) != vars(base)
        for z in state_batch(fresh, 4, seed=3):
            vec = z.vec.tolist()
            fd = field_data(fresh, vec[:4])
            assert repr(_kernel(vec, replaced, fd)) == repr(_kernel(vec, fresh, fd))
            assert repr(_kernel(vec, base, fd)) != repr(_kernel(vec, fresh, fd))
            assert (np.array(dirac_rhs(vec, replaced)).tobytes()
                    == np.array(dirac_rhs(vec, fresh)).tobytes())


def test_kinetic_momentum_reads_the_kernel_once(monkeypatch):
    """calP comes from one kernel call and assembles no row."""
    model = build_model("crossed")
    z = state_batch(model, 1, seed=4)[0]
    seen, kernel, rows = [], phase._kernel, phase.t_rows
    for mod in (phase, oracles):
        monkeypatch.setattr(mod, "_kernel", lambda *a: seen.append("_kernel") or kernel(*a))
        monkeypatch.setattr(mod, "t_rows", lambda *a: seen.append("t_rows") or rows(*a))
    P = kinetic_momentum(z, model)
    assert seen == ["_kernel"]
    assert np.array_equal(P, constraint_values(z, model)[0])


def test_dipole_ssc_identity():
    # on the surface P_mu S^{mu nu} = 0 forces D = 2 (P x S) / P^0
    model = build_model("crossed")
    for z in state_batch(model, 8, seed=11):
        P = kinetic_momentum(z, model)
        S, D, _ = spin_readouts(spin_tensor(z.w, z.pi))
        assert np.allclose(D, 2.0 * np.cross(P[1:], S) / P[0], atol=1e-11)
        assert np.max(np.abs(ssc_vector(z, model))) < 1e-11


def test_spin_tensor_layout():
    model = build_model("zero")
    z = init_state(model, x3=(0, 0, 0), P3=(0.5, -0.2, 0.1),
                   spin_dir=(0.3, 0.7, -0.2))
    S = spin_tensor(z.w, z.pi)
    assert np.allclose(S, -S.T)
    Svec = spin_readouts(S)[0]
    # S^{ij} = 2 eps^{ijk} S_k
    assert np.isclose(S[1, 2], 2 * Svec[2])
    assert np.isclose(S[2, 3], 2 * Svec[0])
    assert np.isclose(S[3, 1], 2 * Svec[1])


def test_spin_tensor_of_stacks_is_the_per_state_tensor():
    """spin_tensor of (n, 4) stacks of omega and pi is, slice by slice
    and bit for bit, its value at each state."""
    zs = state_batch(build_model("crossed"), 5, seed=4)
    S = spin_tensor(np.array([z.w for z in zs]), np.array([z.pi for z in zs]))
    assert S.shape == (5, 4, 4)
    for k, z in enumerate(zs):
        assert np.array_equal(S[k], spin_tensor(z.w, z.pi))
        assert np.array_equal(S[k], -S[k].T)


@pytest.mark.parametrize("kind", list(BACKGROUND_PARAMS))
@pytest.mark.parametrize("alpha", [0.75, 0.0], ids=["spin", "spinless"])
@pytest.mark.parametrize("name, value", [
    ("x3", (np.nan, 0.0, 0.0)), ("x3", (0.0, np.inf, 0.0)),
    ("P3", (0.1, np.nan, 0.0)), ("P3", (-np.inf, 0.0, 0.0)),
    ("spin_dir", (np.nan, 0.0, 1.0)), ("spin_dir", (0.0, 0.0, np.inf)),
    ("x3", "abc"), ("P3", None),
    ("x3", (1.0, 2.0)), ("x3", (1.0, 2.0, 3.0, 4.0)), ("P3", (0.1, 0.2)),
    ("spin_dir", (0.0, 1.0)), ("x3", ((1.0, 2.0), 3.0, 4.0))])
def test_init_state_refuses_non_finite_arguments_by_name(kind, alpha, name, value):
    """A NaN or inf in P3 or spin_dir ran 200 fixed-point passes with
    RuntimeWarnings and then raised "field-spin fixed point did not
    converge"; a NaN x3 on zero and a NaN P3 at alpha = 0 returned a NaN
    state.  An x3, P3 or spin_dir of two or four numbers raised an
    unpacking, index or matmul error that named none of them, and a
    ragged x3 numpy's "setting an array element with a sequence"; a
    string or None is no number either.  Each is refused, naming the
    argument, before any arithmetic on it, by the check make_background
    shares (fields.finite)."""
    args = {"x3": (1.6, -0.8, 1.1), "P3": (0.4, 0.3, -0.2), "spin_dir": (0.3, -1.0, 0.5),
            name: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            init_state(build_model(kind, alpha=alpha), **args)


@pytest.mark.parametrize("kind", ["zero", "coulomb"])
@pytest.mark.parametrize("alpha", [0.75, 0.0], ids=["spin", "spinless"])
@pytest.mark.parametrize("P3", [(1e200, 0.0, 0.0), (-1e154, 1e154, 1e154)])
def test_init_state_refuses_a_momentum_whose_square_overflows(kind, alpha, P3):
    """From |P3| ~ 1.34e154 on, |P3|^2 is inf: a spinless model returned
    p^0 = inf, and a spinning one raised "field-spin coupling exceeds the
    mass shell", in the zero field too, after RuntimeWarnings.  P3 is
    refused by name before the fixed point, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^P3 = .* is past the float range"):
            init_state(build_model(kind, alpha=alpha), x3=(1.6, -0.8, 1.1), P3=P3)


@pytest.mark.parametrize("P1", [2e4, 5e4, 1e6])
@pytest.mark.parametrize("kind", ["zero", "coulomb"])
def test_init_state_builds_a_fast_state(kind, P1):
    """From gamma ~ 2000 at m c = 10 a spinning state raised "init_state
    left residuals" or "boost_matrix needs unit timelike future u": both
    bounds were absolute, while the rounding they meet grows as gamma^2.
    The state keeps P3, and its residuals stay below the rest frame's
    bound times gamma^2."""
    model = build_model(kind)
    z = init_state(model, x3=(1.6, -0.8, 1.1), P3=(P1, 0.0, 0.0), spin_dir=(0.3, -1.0, 0.5))
    assert np.allclose(oracles.kinetic_momentum(z, model)[1:], (P1, 0.0, 0.0), rtol=1e-12)
    gamma2 = 1.0 + P1**2 / model.mc2
    res = constraint_residuals(z, model)
    assert max(map(abs, res.values())) < 1e-10 * (1.0 + model.mc2) * gamma2, res


@pytest.mark.parametrize("P1", [1e5, 1e6])
def test_init_state_stops_the_fixed_point_in_a_fast_state_rounding(P1):
    """In coulomb at m c = 10, this state's F S settles to about -3804
    and then jitters by about 1e-9 (3e-13 relative) from pass to pass,
    above the unscaled stop test 1e-15 (1 + |F S|): the 200 passes ended
    in "field-spin fixed point did not converge".  A step that no longer
    shrinks and lies within gamma^2 times that bound ends the fixed
    point; the state keeps P3, and its residuals stay below the rest
    frame's bound times gamma^2."""
    model = Model(background=make_background("coulomb", e=1.0, c=10.0, q=1.0), g=2.0)
    z = init_state(model, x3=(1.2, -0.4, 0.8), P3=(P1, 0.0, 0.0), spin_dir=(0.4, -1.0, 0.2))
    assert np.allclose(oracles.kinetic_momentum(z, model)[1:], (P1, 0.0, 0.0), rtol=1e-12)
    gamma2 = 1.0 + P1**2 / model.mc2
    res = constraint_residuals(z, model)
    assert max(map(abs, res.values())) < 1e-10 * (1.0 + model.mc2) * gamma2, res


@pytest.mark.parametrize("spin_dir", [(1e-200, 1e-200, 0.0), (1e200, 1e200, 0.0)])
@pytest.mark.parametrize("kind", ["zero", "coulomb"])
def test_init_state_reads_the_direction_of_a_tiny_or_huge_spin_dir(kind, spin_dir):
    """|spin_dir|^2 underflowed to 0, refused as "spin_dir must be a
    nonzero three-vector", or overflowed to inf and ended in "init_state
    left residuals"; only the direction counts, and it gives the state
    of (1, 1, 0) byte for byte."""
    model = build_model(kind)
    args = {"x3": (1.2, -0.4, 0.8), "P3": (0.3, 0.2, -0.5)}
    want = init_state(model, spin_dir=(1.0, 1.0, 0.0), **args).vec.tobytes()
    assert init_state(model, spin_dir=spin_dir, **args).vec.tobytes() == want


@pytest.mark.parametrize("kind", ["zero", "coulomb"])
def test_init_state_refuses_a_zero_spin_dir(kind):
    """A zero spin_dir names no direction; it is refused by name before
    the rest pair divides by its norm."""
    with pytest.raises(ValueError, match="^spin_dir must be a nonzero three-vector$"):
        init_state(build_model(kind), x3=(1.2, -0.4, 0.8), P3=(0.3, 0.2, -0.5),
                   spin_dir=(0, 0, 0))


@pytest.mark.parametrize("block", ["x", "p", "w", "pi"])
def test_from_parts_refuses_a_block_of_three(block):
    """A block of three components would shift every later block and
    build a 15-vector; each block must have four."""
    parts = dict.fromkeys(("x", "p", "w", "pi"), (0.0, 0.1, 0.2, 0.3))
    parts[block] = (0.1, 0.2, 0.3)
    with pytest.raises(ValueError, match="^each of x, p, omega, pi must have 4 components$"):
        PhaseState.from_parts(**parts)


def test_energy_radicand_guard():
    model = build_model("coulomb")
    # close to the center, with a large dipole component along E, the
    # g (F S) term overwhelms (mc)^2 and the square root must refuse
    z = PhaseState.from_parts(x=(0.0, 1e-2, 0.0, 0.0), p=(0.0, 0.0, 0.0, 0.0),
                              w=(1.0, 0.0, 0.0, 0.0), pi=(0.0, -1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        kinetic_momentum(z, model)


def test_mass_shell_identity():
    # (P^0)^2 - P.P = (mc)^2 - (e g / 4c) (F S) by construction
    model = build_model("crossed", g=2.7)
    for z in state_batch(model, 6, seed=2):
        fields = field_data(model, z.x)
        P = kinetic_momentum(z, model, fields)
        fs = contract_2(field_tensor(fields[2]), spin_tensor(z.w, z.pi))
        lhs = P[0] ** 2 - P[1:] @ P[1:]
        rhs = (model.m * model.c) ** 2 - model.e * model.g / (4 * model.c) * fs
        assert np.isclose(lhs, rhs, rtol=1e-13)


# ---------------------------------------------------------------------------
# observable gradients: finite differences and duals


OBS_FACTORIES = [
    ("P1", lambda: obs_kinetic(1)),
    ("P0", lambda: obs_energy()),
    ("S01", lambda: obs_spin(0, 1)),
    ("S23", lambda: obs_spin(2, 3)),
    ("T2", lambda: obs_t2()),
    ("T3", lambda: obs_t3()),
    ("T4", lambda: obs_t4()),
    ("T5", lambda: obs_t5()),
    ("H", lambda: obs_hamiltonian()),
]


@pytest.mark.parametrize("name,make", OBS_FACTORIES)
@pytest.mark.parametrize("kind", ["crossed", "coulomb"])
def test_observable_gradients_match_fd(kind, name, make):
    model = build_model(kind, g=2.4)
    obs = make()
    for z in state_batch(model, 3, seed=7):
        g_exact = obs.grad(z, model)
        g_fd = _fd_grad16(obs, z, model)
        assert np.allclose(g_exact, g_fd, rtol=1e-6, atol=1e-7), name


DUAL_EXPRS = [
    ("P0", obs_energy, duals.energy_expr),
    ("T3", obs_t3, duals.t3_expr),
    ("T4", obs_t4, duals.t4_expr),
    ("H", obs_hamiltonian, duals.hamiltonian_expr),
]


@pytest.mark.parametrize("name,make,expr", DUAL_EXPRS)
@pytest.mark.parametrize("kind", ["uniform-B", "coulomb"])
def test_observable_gradients_match_duals(kind, name, make, expr):
    """Dual-number forward AD is the second, independent gradient route;
    agreement here is exact up to roundoff, no FD truncation error."""
    model = build_model(kind, g=2.4)
    hand = make()
    dual = duals.dual_observable(name, expr)
    for z in state_batch(model, 4, seed=13):
        assert np.isclose(hand(z, model), dual(z, model), rtol=1e-12)
        gh = hand.grad(z, model)
        gd = dual.grad(z, model)
        assert np.allclose(gh, gd, rtol=1e-11, atol=1e-13), name


# ---------------------------------------------------------------------------
# the float kernel of the constraint rows against the numpy reference

@pytest.mark.parametrize("spinless", [False, True], ids=["spin", "spinless"])
@pytest.mark.parametrize("name", sorted(KERNEL_BACKGROUNDS))
def test_rows_match_the_numpy_reference(name, spinless):
    """The kernel gives calP, (T2, T3, T4, T5) and grad (calP^0, T3, T4)
    of the numpy reference to 1e-15 relative, row by row, on 20 random states,
    on the surface and off it (omega and pi moved by noise); each value
    is compared relative to the largest of its terms.  A spinless
    state's values are zero."""
    model = kernel_model(name, spinless)
    rng = np.random.default_rng(29)
    for z in state_batch(model, 20, seed=17):
        assert z.spinless == spinless
        off = z.vec.copy()
        if not spinless:
            off[8:16] += 0.1 * rng.normal(size=8)
        for zz in (z, PhaseState(vec=off)):
            fields = field_data(model, zz.x)
            fd = FieldArrays(fields)
            P, T, R = kernel_rows(zz, model, fields)
            P_ref, g_ref = p0_and_grad(zz, model, fd)
            ref = np.vstack([g_ref, t34_grads(zz, model, fd, P_ref, g_ref)])
            assert np.max(np.abs(P - P_ref)) <= 1e-15 * np.max(np.abs(P_ref))
            scale = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.all(np.abs(R - ref) <= 1e-15 * scale), name
            T_ref = oracles.values(zz, model, fd)[1]
            if spinless:
                assert not T.any() and not T_ref.any()
                continue
            w, q, P_low = zz.w, zz.pi, ETA_DIAG * P_ref
            scale = [np.max(np.abs(w * q)), np.max(np.abs(P_low * w)),
                     np.max(np.abs(P_low * q)),
                     max(np.max(q * q), model.alpha / abs(mdot(w, w)))]
            assert np.all(np.abs(T - T_ref) <= 1e-15 * np.array(scale)), name


@pytest.mark.parametrize("name", sorted(KERNEL_BACKGROUNDS))
def test_spinless_constraint_gradients_carry_no_t5_row(name):
    """At a spinless state (omega = pi = 0) the T5 row of the gradient
    oracle reads zero like its value, without a 0/0 (numpy warnings are
    errors here), and the T3 and T4 rows are the kernel's."""
    model = kernel_model(name, spinless=True)
    for z in state_batch(model, 5, seed=23):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            T, G = oracles.constraint_gradients(z, model)
        assert not T.any() and not G[[0, 3]].any()
        assert np.array_equal(G[1:3], kernel_rows(z, model, field_data(model, z.x))[2][1:])


def _out_of_range_states():
    """A state with omega^2 = 0 and one whose energy radicand is NaN with
    finite components (inf - inf: calP_i calP_i and F S overflow)."""
    null = PhaseState.from_parts(x=(0.0, 0.3, 0.2, -0.1), p=(0.0, 0.4, 0.1, 0.2),
                                 w=(1.0, 1.0, 0.0, 0.0), pi=(0.0, 0.0, 1.0, 0.0))
    nan = PhaseState.from_parts(x=(0.0, 0.3, 0.2, -0.1), p=(0.0, 1e155, 0.0, 0.0),
                                w=(0.0, 1e155, 0.0, 0.0), pi=(0.0, 0.0, -1e155, 0.0))
    return {"omega^2 = 0": null, "radicand nan": nan}


@pytest.mark.parametrize("read", [kinetic_momentum, constraint_values, project_state],
                         ids=["kinetic_momentum", "constraint_values", "project_state"])
@pytest.mark.parametrize("case", sorted(_out_of_range_states()))
def test_kernel_readers_refuse_out_of_range_states(read, case):
    """Every reader of the kernel raises ValueError where T5 or calP^0 is
    undefined, NaN included, rather than return a non-finite value."""
    model = build_model("uniform-B")   # F^{12} = B^3 < 0 and S^{12} -> -inf
    with pytest.raises(ValueError, match=re.escape(case)):
        read(_out_of_range_states()[case], model)


# ---------------------------------------------------------------------------
# Poisson layer


def test_canonical_pairs():
    model = build_model("zero")
    z = state_batch(model, 1, seed=3)[0]
    x1 = obs_coord("x", 1)
    p1 = obs_coord("p", 1)
    w2 = obs_coord("omega", 2)
    pi2 = obs_coord("pi", 2)
    assert np.isclose(poisson_bracket(x1, p1, z, model), 1.0)
    assert np.isclose(poisson_bracket(w2, pi2, z, model), 1.0)
    assert np.isclose(poisson_bracket(x1, w2, z, model), 0.0)
    assert np.isclose(poisson_bracket(x1, x1, z, model), 0.0)
    # the signed permutation on 16 floats and on the columns of an
    # (16, n) array is the block-by-block form, and J is its matrix
    rng = np.random.default_rng(3)
    for v in rng.normal(size=(5, 16)):
        assert np.array_equal(symplectic(v.tolist()), symplectic_apply(v))
    G = rng.normal(size=(7, 16))
    assert np.array_equal(np.array(symplectic(G.T)).T, symplectic_apply(G))
    assert np.array_equal(J, np.array(symplectic(np.eye(16))))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3))
def test_spin_algebra_so31(a, b, c_, d):
    """{S^{ab}, S^{cd}} closes on the Lorentz algebra of spin tensors:
    2(eta^{ac} S^{bd} - eta^{bc} S^{ad} - eta^{ad} S^{bc} + eta^{bd} S^{ac}),
    the factor 2 coming from S = 2 (omega pi - pi omega)."""
    model = build_model("zero")
    z = state_batch(model, 1, seed=9)[0]
    S = spin_tensor(z.w, z.pi)
    eta = ETA_DIAG
    lhs = poisson_bracket(obs_spin(a, b), obs_spin(c_, d), z, model)
    rhs = 2.0 * ((eta[a] if a == c_ else 0.0) * S[b, d]
                 - (eta[b] if b == c_ else 0.0) * S[a, d]
                 - (eta[a] if a == d else 0.0) * S[b, c_]
                 + (eta[b] if b == d else 0.0) * S[a, c_])
    assert np.isclose(lhs, rhs, atol=1e-12)
