"""Trajectory layer: Lorentz-force limits, exact conservation laws,
projection behaviour, integrator cross-checks and gauge invariance."""

import dataclasses
import functools
import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relspin import brackets, cli, dynamics, fields, minkowski, phase
from relspin.brackets import defining_property_report, dirac_core
from relspin.dynamics import (dirac_rhs, integrate, linear_rate, project_state,
                              spin_plane_rate)
from relspin.fields import make_background
from relspin.minkowski import contract_2, field_tensor
from relspin.phase import (Model, PhaseState, constraint_residuals, field_data, init_state,
                           random_constrained_state, spin_readouts, spin_tensor)

import oracles
from conftest import (BACKGROUND_PARAMS, KERNEL_BACKGROUNDS, build_model, kernel_model,
                      state_batch)
from oracles import (FieldArrays, constraint_values, kinetic_momentum, obs_hamiltonian,
                     symplectic_apply, with_gauge_shift)

# the integrator and the reference that the method parametrizations run
INTEGRATORS = {"rk4": integrate, "dop853": oracles.integrate_dop853}


def _counting(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def counted(*args):
        calls[name] += 1
        return fn(*args)
    return counted


def _uniform_b_model(B=2.0, g=2.0, spinless_alpha=None):
    bg = make_background("uniform-B", e=1.0, c=10.0, B=(0.0, 0.0, B))
    return Model(background=bg, m=1.0, g=g,
                 alpha=0.75 if spinless_alpha is None else spinless_alpha)


def test_p0_is_frozen():
    model = build_model("crossed")
    z = init_state(model, x3=(0.5, -0.2, 0.1), P3=(0.4, 0.1, -0.3),
                   spin_dir=(0.2, 0.9, -0.1))
    zdot = dirac_rhs(z.vec, model)
    assert zdot[4] == 0.0
    assert zdot[0] == model.c


def test_rhs_raises_where_t3t4_vanishes():
    """With (SF) on the pole of a, 4 m^2 c^3 / (e (g+1)), {T3,T4} is
    zero to rounding and the second-class pair cannot be inverted; the
    right-hand side must refuse the state, not return a finite vector."""
    model = _uniform_b_model(B=1.0)
    z = init_state(model, x3=(0.0, 0.0, 0.0), P3=(0.0, 0.0, 0.0),
                   spin_dir=(0.0, 0.0, 1.0))
    sf = contract_2(field_tensor(field_data(model, z.x)[2]), spin_tensor(z.w, z.pi))
    pole = 4.0 * model.m**2 * model.c**3 / (model.e * (model.g + 1.0))
    vec = z.vec.copy()
    vec[12:16] *= pole / sf
    with pytest.raises(ValueError, match="T3,T4"):
        dirac_rhs(vec, model)


def test_nan_t3t4_does_not_pass_the_floor(monkeypatch):
    """NaN compares False against a bound either way round.  A NaN slot
    is refused by the energy radicand before the floor sees it, and a
    NaN {T3,T4} that does reach the floor (here the x-part of e3 set to
    NaN in the kernel's pieces, injected wherever the kernel is bound) is
    refused there; the core, the report and the right-hand side must
    refuse the state, not read or return NaN."""
    model = build_model("coulomb")
    vec = state_batch(model, 1)[0].vec.copy()
    calls = (lambda v: dirac_core(PhaseState(vec=v), model),
             lambda v: defining_property_report([PhaseState(vec=v)], model),
             lambda v: dirac_rhs(v, model))
    bad = vec.copy()
    bad[9] = np.nan
    for call in calls:
        with pytest.raises(ValueError, match="radicand nan"):
            call(bad)
    kernel = phase._kernel

    def nan_t3(*args):
        P, (g0, _, ex4) = kernel(*args)
        return P, (g0, [np.nan] * 4, ex4)

    for mod in (phase, brackets, dynamics):
        monkeypatch.setattr(mod, "_kernel", nan_t3)
    for call in calls:
        with pytest.raises(ValueError, match="T3,T4"):
            call(vec)


def test_integrate_ends_at_t_final():
    model = build_model("crossed")
    z0 = init_state(model, x3=(0.5, -0.2, 0.1), P3=(0.4, 0.1, -0.3),
                    spin_dir=(0.2, 0.9, -0.1))
    # ten steps of dt and a last step of 0.05; x^0 = c t counts its length
    traj = integrate(model, z0, 1.05, 0.1)
    assert traj.t[-1] == 1.05 and len(traj.t) == 12
    assert np.isclose(traj.Z[-1][0], model.c * 1.05, rtol=1e-14)
    # shorter than one step
    traj = integrate(model, z0, 0.04, 0.1)
    assert list(traj.t) == [0.0, 0.04]
    assert np.isclose(traj.Z[-1][0], model.c * 0.04, rtol=1e-14)
    # a whole number of steps keeps the times t0 + k dt
    assert list(integrate(model, z0, 0.3, 0.1).t) == [k * 0.1 for k in range(4)]


@pytest.mark.parametrize("args, kwargs, name", [
    ((-1.0, 0.1), {}, "dt"),            # returned z0 alone, with no error
    ((1.0, -0.1), {}, "dt"),
    ((1.0, 0.0), {}, "dt"),             # ZeroDivisionError
    ((1.0, np.nan), {}, "dt"),          # "cannot convert float NaN"
    ((1.0, np.inf), {}, "dt"),
    ((1.0, 1e-320), {}, "dt"),          # OverflowError: no finite step count
    ((np.inf, 0.1), {}, "t_final"),     # OverflowError
    ((np.nan, 0.1), {}, "t_final"),
    ((1.0, 0.1), {"record_every": 0}, "record_every"),   # ZeroDivisionError
    ((1.0, 0.1), {"record_every": -2}, "record_every"),
    ((1.0, 0.1), {"record_every": 2.5}, "record_every"),
    ((1.0, 0.1), {"record_every": True}, "record_every"),   # a bool is an Integral: 1
], ids=["away", "away-negative-dt", "dt-zero", "dt-nan", "dt-inf", "dt-subnormal",
        "t_final-inf", "t_final-nan", "record_every-zero",
        "record_every-negative", "record_every-float", "record_every-bool"])
@pytest.mark.parametrize("method", ["rk4", "dop853"])
def test_integrate_refuses_bad_arguments(args, kwargs, name, method):
    """A time grid that cannot reach t_final, or a bad record_every, is
    refused with a ValueError whose message starts with the argument's
    name, before any step; it used to return z0 alone or raise an
    unrelated ZeroDivisionError, OverflowError or NaN conversion error.
    The reference integrator reads the same grid and refuses the same."""
    model = build_model("crossed")
    z0 = state_batch(model, 1, seed=5)[0]
    with pytest.raises(ValueError, match=f"^{name} "):
        INTEGRATORS[method](model, z0, *args, **kwargs)



def test_a_dt_too_small_for_an_exact_step_count_is_refused_before_any_step(monkeypatch):
    """dt = 1e-300 from 0 to 1 asks for 1e300 steps: integrate used to
    start them and not return, its record list growing at
    record_every = 1.  Past 2**53 steps k dt is not exact, so such a dt
    is refused by name before any right-hand side, backward too; the
    grid takes 2**53 whole steps and refuses the next float up."""
    model = build_model("crossed")
    z0 = state_batch(model, 1, seed=5)[0]

    def never(*args):
        raise AssertionError("dirac_rhs was called")

    monkeypatch.setattr(dynamics, "dirac_rhs", never)
    for t_final, dt in ((1.0, 1e-300), (1.0, 2.0 ** -54), (-1.0, -1e-300)):
        with pytest.raises(ValueError, match=rf"^dt = {dt} is too small for a step count "
                                             r"of at most 2\*\*53"):
            integrate(model, z0, t_final, dt, record_every=1)
    assert dynamics._grid(2.0 ** 53, 1.0, 1) == (2 ** 53, 2 ** 53)
    with pytest.raises(ValueError, match="^dt = 1.0 is too small"):
        dynamics._grid(2.0 ** 53 + 2.0, 1.0, 1)

def test_integrate_runs_backward_and_records_z0_at_t0():
    """dt < 0 with t_final < 0 runs backward and ends at t_final, with a
    short last step as forward; running its end forward as long returns
    to the start, x^0 included; t_final == 0 records z0 alone."""
    model = build_model("crossed")
    z0 = state_batch(model, 1, seed=5)[0]
    traj = integrate(model, z0, -1.05, -0.1)
    assert traj.t[-1] == -1.05 and len(traj.t) == 12
    assert np.isclose(traj.Z[-1][0], model.c * -1.05, rtol=1e-14)
    back = integrate(model, PhaseState(vec=traj.Z[-1].copy()), 1.05, 0.05)
    assert back.t[-1] == 1.05
    assert np.allclose(back.Z[-1], z0.vec, rtol=0.0, atol=1e-9)
    still = integrate(model, z0, 0.0, 0.1)
    assert list(still.t) == [0.0] and np.array_equal(still.Z, [z0.vec])


def test_spinless_cyclotron_closure():
    # start at (-R, 0) moving +y: for e, B > 0 the magnetic force points
    # toward the origin there, so the orbit is the circle r = R about 0
    B, p = 2.0, 3.0
    model = _uniform_b_model(B=B)
    ref = oracles.cyclotron_reference(model, p, B)
    R = ref["radius"]
    z0 = init_state(model, x3=(-R, 0.0, 0.0), P3=(0.0, p, 0.0),
                    spin_dir=(0, 0, 1))
    vec = z0.vec.copy()
    vec[8:16] = 0.0
    z0 = PhaseState(vec=vec)
    traj = integrate(model, z0, ref["period"], 5e-3, record_every=50)
    ch = traj.channels()
    r = np.hypot(ch["x1"], ch["x2"])
    assert np.max(np.abs(r - R)) < 1e-7
    # clockwise circle, checked against the analytic phase at the end
    omega = model.e * B / ref["P0"]
    t_end = traj.t[-1]
    assert abs(ch["x1"][-1] - (-R * np.cos(omega * t_end))) < 1e-6
    assert abs(ch["x2"][-1] - R * np.sin(omega * t_end)) < 1e-6
    assert traj.energy_drift() < 1e-12


def test_energy_and_constraints_conserved_with_spin():
    model = build_model("crossed", g=2.3)
    z0 = init_state(model, x3=(0.4, 0.2, -0.1), P3=(0.5, -0.3, 0.2),
                    spin_dir=(0.3, -0.8, 0.5))
    traj = integrate(model, z0, 40.0, 0.02, record_every=20)
    assert traj.energy_drift() < 1e-10
    drift = traj.constraint_drift()
    for key, val in drift.items():
        assert abs(val) < 1e-9, (key, val)


def test_total_angular_momentum_holds_to_integrator_error():
    """J = x x p + S, p canonical and S the spin three-vector, is
    conserved by the flow in the rotation-invariant Coulomb field: its
    largest drift over the run falls at least 16x per halving of dt (rk4
    gives 32x), while x x p alone, and x x p + S/2, drift by the same
    amount at every dt.  t = 10 is the shortest run whose finest drift,
    4e-13, stays near three decades above the rounding of J (|J| eps,
    5e-16)."""
    bg = make_background("coulomb", e=-1.0, c=10.0, q=1.0)
    model = Model(background=bg, m=1.0, g=2.0)
    z0 = init_state(model, (4.0, 0.0, 0.0), (0.0, 0.45, 0.1), spin_dir=(1.0, 0.3, 0.5))
    drifts = []
    for dt in (0.2, 0.1, 0.05):
        Z = integrate(model, z0, 10.0, dt).Z
        L = np.cross(Z[:, 1:4], Z[:, 5:8])
        S = spin_readouts(spin_tensor(Z[:, 8:12], Z[:, 12:]))[0]
        drifts.append([float(np.max(np.abs(v - v[0]))) for v in (L + S, L, L + 0.5 * S)])
    (J0, L0, H0), (J1, L1, H1), (J2, L2, H2) = drifts
    assert J0 >= 16.0 * J1 and J1 >= 16.0 * J2, drifts
    for coarse, fine in ((L0, L2), (H0, H2)):
        assert fine > 0.5 * coarse and fine > 1e6 * J2, drifts


def test_spin_precession_rate_uniform_b():
    """Momentum along B: the orbit is a straight line and the lab
    precession rate is exactly g e B / (2 P^0); at g = 2 that is the
    cyclotron frequency e B / P^0 (helicity conservation), and its
    c -> infinity limit is the Larmor reference g e B / (2 m c)."""
    B, pz = 2.0, 1.5
    model = _uniform_b_model(B=B, g=2.0)
    z0 = init_state(model, x3=(0, 0, 0), P3=(0.0, 0.0, pz),
                    spin_dir=(1.0, 0.0, 0.0))
    P0 = np.sqrt(pz**2 + (model.m * model.c) ** 2)
    traj = integrate(model, z0, 70.0, 0.02, record_every=5)
    rate = spin_plane_rate(traj)
    assert abs(abs(rate) - model.e * B / P0) < 1e-8
    gamma = P0 / (model.m * model.c)
    assert np.isclose(abs(rate), oracles.larmor_reference(model, B) / gamma,
                      rtol=1e-12)


@pytest.mark.parametrize("t", [[], [1.0], [2.0, 2.0]], ids=["none", "one", "repeated"])
def test_linear_rate_refuses_times_that_fix_no_slope(t):
    """Fewer than two distinct times fix no slope; lstsq's minimum-norm
    answer (0.0 for one sample, 0.2 for t = (2, 2)) would read as a rate."""
    with pytest.raises(ValueError, match="two distinct times"):
        linear_rate(np.array(t), np.linspace(0.4, 0.6, len(t)))


def test_spin_plane_rate_refuses_a_run_of_one_record():
    model = _uniform_b_model()
    z0 = init_state(model, x3=(0, 0, 0), P3=(0.0, 0.0, 1.5), spin_dir=(1.0, 0.0, 0.0))
    traj = integrate(model, z0, 0.0, 0.02)
    assert len(traj.t) == 1
    with pytest.raises(ValueError, match="two distinct times"):
        spin_plane_rate(traj)
    # two distinct times fix the slope exactly
    assert linear_rate(np.array([1.0, 3.0]), np.array([0.5, 1.5])) == pytest.approx(0.5)


@pytest.mark.parametrize("alpha, spin_dir", [(0.75, (0.0, 0.0, 1.0)), (0.0, (1.0, 0.0, 0.0))],
                         ids=["along S3", "spinless"])
def test_spin_plane_rate_refuses_a_spin_with_no_in_plane_part(alpha, spin_dir):
    """A spin along B = 2 z keeps (S1, S2) = (0, 0) exactly, whose angle
    arctan2 reads as 0 or pi: the fit read -0.289 where the spin precesses
    at -0.198.  A spinless run read 0.0.  Both are refused, naming the
    first record."""
    model = _uniform_b_model(spinless_alpha=alpha)
    z0 = init_state(model, x3=(0, 0, 0), P3=(0.0, 0.0, 1.5), spin_dir=spin_dir)
    traj = integrate(model, z0, 10.0, 0.02, record_every=5)
    with pytest.raises(ValueError, match=r"^the spin at record 0 \(t = 0.0\) has no \(S1, S2\)"):
        spin_plane_rate(traj)


def test_spin_plane_rate_reads_a_spin_tilted_off_the_plane_normal():
    """A tilt of 1e-9 off S3 is far above rounding (0.1 to 2 eps of |S|
    for a rounded S3 direction) and reads the precession e B / calP^0."""
    model = _uniform_b_model()
    for tilt in (1e-9, 1e-6):
        z0 = init_state(model, x3=(0, 0, 0), P3=(0.0, 0.0, 1.5), spin_dir=(tilt, 0.0, 1.0))
        traj = integrate(model, z0, 10.0, 0.02, record_every=5)
        P0 = traj.channels()["P0"][0]
        assert abs(spin_plane_rate(traj) + model.e * 2.0 / P0) < 1e-10, tilt


def test_orbit_and_spin_lock_at_g2():
    # at g = 2 in a uniform field the spin and the momentum precess at
    # the same rate, so the projection of S on P is a constant of motion
    B, p = 2.0, 3.0
    model = _uniform_b_model(B=B, g=2.0)
    ref = oracles.cyclotron_reference(model, p, B)
    z0 = init_state(model, x3=(ref["radius"], 0.0, 0.0), P3=(0.0, p, 0.0),
                    spin_dir=(0.0, 1.0, 0.0))
    traj = integrate(model, z0, ref["period"], 0.01, record_every=20)
    ch = traj.channels()
    helicity = (ch["S1"] * ch["P1"] + ch["S2"] * ch["P2"]
                + ch["S3"] * ch["P3"])
    assert np.max(np.abs(helicity - helicity[0])) < 1e-8 * abs(helicity[0])


def test_rk4_vs_dop853():
    model = build_model("coulomb", g=2.0)
    z0 = init_state(model, x3=(3.0, 0.0, 0.5), P3=(0.0, 0.45, 0.1),
                    spin_dir=(0.5, 0.5, 0.7))
    t_final = 8.0
    t1 = integrate(model, z0, t_final, 2e-3, record_every=4000)
    t2 = oracles.integrate_dop853(model, z0, t_final, 0.5, record_every=1,
                                  rtol=1e-12, atol=1e-13)
    assert np.allclose(t1.Z[-1], t2.Z[-1], rtol=1e-8, atol=1e-9)


def test_projection_restores_surface():
    """A push off the surface is undone.  On 40 on-surface states of each
    background, a drift d of (omega, pi) (d = 1e-10, 1e-8 and 1e-6, in a
    random direction) moves (omega, pi) by at most 2 d in norm and every
    component of S by at most 2 d: the correction is the size of the
    drift, which keeps the integrator's order (GNI IV.4)."""
    model = build_model("uniform-B", g=2.0)
    z = init_state(model, x3=(1.0, 0.0, 0.0), P3=(0.3, 0.1, -0.2),
                   spin_dir=(0.2, -0.5, 0.8))
    vec = z.vec.copy()
    vec[8:16] *= 1.0 + 1e-6  # uniform off-surface push
    vec[8] += 3e-7
    zoff = PhaseState(vec=vec)
    zp = project_state(zoff, model)
    res = constraint_residuals(zp, model)
    for key, val in res.items():
        assert abs(val) < 1e-11, (key, val)
    for kind in sorted(BACKGROUND_PARAMS):
        model = build_model(kind)
        tol = dynamics.PROJECTION_TOL * (1.0 + (model.m * model.c) ** 2)
        for i, z in enumerate(state_batch(model, 40)):
            u = np.random.default_rng(i).normal(size=8)
            for d in (1e-10, 1e-8, 1e-6):
                vec = z.vec.copy()
                vec[8:16] += d * u / np.linalg.norm(u)
                zp = project_state(PhaseState(vec=vec), model)
                res = constraint_residuals(zp, model)
                assert max(abs(res[k]) for k in ("T2", "T3", "T4", "T5")) < tol
                assert np.linalg.norm(zp.vec[8:] - z.vec[8:]) <= 2.0 * d, (kind, i, d)
                moved = np.max(np.abs(spin_tensor(zp.w, zp.pi) - spin_tensor(z.w, z.pi)))
                assert moved <= 2.0 * d, (kind, i, d)
                assert np.array_equal(zp.vec[:8], z.vec[:8])


def test_projection_raises_when_it_cannot_converge(monkeypatch):
    """(omega, pi) pushed off the surface by N(0,1) noise, a state that
    Gauss-Newton could not bring back: the fixed point does.  It cannot
    where the spin returned would be rounding, omega parallel to calP or
    pi parallel to omega (S = 0), and refuses those with ValueError
    naming the vector; and where a pass does not shrink the residual
    (here constraint values that stay at 1), it raises RuntimeError
    naming the residuals rather than hand back an unimproved state."""
    model = build_model("uniform-B", g=2.0)
    z = init_state(model, x3=(1.0, 0.0, 0.0), P3=(0.3, 0.1, -0.2),
                   spin_dir=(0.2, -0.5, 0.8))
    vec = z.vec.copy()
    vec[8:16] += np.random.default_rng(8).normal(size=8)
    res = constraint_residuals(project_state(PhaseState(vec=vec), model), model)
    for key in ("T2", "T3", "T4", "T5"):
        assert abs(res[key]) <= 1e-12, (key, res[key])

    free = build_model("zero")   # calP does not depend on the spin
    vec = state_batch(free, 1)[0].vec.copy()
    vec[8:12] = kinetic_momentum(PhaseState(vec=vec), free)
    with pytest.raises(ValueError, match="omega is parallel to calP"):
        project_state(PhaseState(vec=vec), free)
    vec = z.vec.copy()
    vec[12:16] = 0.5 * vec[8:12]
    with pytest.raises(ValueError, match="pi lies in the plane of omega"):
        project_state(PhaseState(vec=vec), model)

    monkeypatch.setattr(dynamics, "t_values", lambda *args: (1.0,) * 4)
    with pytest.raises(RuntimeError, match="did not converge.*before.*at best"):
        project_state(z, model)


@pytest.mark.parametrize("method", ["rk4", "dop853"])
def test_a_failed_projection_tells_where_the_run_stopped(method, monkeypatch):
    """With PROJECTION_TOL at 0 no residual is small enough, so the
    passes go on until one no longer shrinks it: a forced stall.  The
    RuntimeError keeps its type and message; the projection records the
    residuals and passes in the run's stats, and integrate attaches them,
    with the failing step and time, to the error.  A refused state
    (ValueError) carries the same step and time.  The reference
    integrator reports its failures the same way."""
    model = build_model("uniform-B", g=2.0)
    z = init_state(model, x3=(1.0, 0.0, 0.0), P3=(0.3, 0.1, -0.2),
                   spin_dir=(0.2, -0.5, 0.8))
    monkeypatch.setattr(dynamics, "PROJECTION_TOL", 0.0)
    stats = {"projection_steps": 0, "max_residual_before_projection": 0.0}
    with pytest.raises(RuntimeError) as err:
        dynamics._project(z.vec.tolist(), model, stats)
    fail = stats["projection_failure"]
    assert set(fail) == {"residual", "best", "passes"}
    assert fail["passes"] >= 1 and 0.0 <= fail["best"] <= fail["residual"]
    assert f"pass {fail['passes']} no longer shrank" in str(err.value)
    assert f"max residual {fail['residual']:.3e} before" in str(err.value)

    with pytest.raises(RuntimeError, match="did not converge.*before.*at best") as err:
        INTEGRATORS[method](model, z, t_final=0.05, dt=0.01, record_every=2)
    assert type(err.value) is RuntimeError
    run = err.value.stats
    # the first projection: after rk4 step 2, at the end of the
    # reference's first recording interval
    assert (run["failed_step"], run["t"]) == ((2 if method == "rk4" else 1), 0.02)
    assert run["projections"] == 0
    fail = run["projection_failure"]
    assert f"pass {fail['passes']} no longer shrank" in str(err.value)

    # a state the projection refuses: omega along calP in a free field
    monkeypatch.undo()
    free = build_model("zero")
    vec = state_batch(free, 1)[0].vec.copy()
    vec[8:12] = kinetic_momentum(PhaseState(vec=vec), free)
    with pytest.raises(ValueError, match="omega is parallel to calP") as err:
        INTEGRATORS[method](free, PhaseState(vec=vec), t_final=0.05, dt=0.01)
    assert (err.value.stats["failed_step"], err.value.stats["t"]) == (1, 0.01)
    assert "projection_failure" not in err.value.stats


def test_a_right_hand_side_failing_just_after_a_projection_tells_where(monkeypatch):
    """The first stage after a projection pairs the evaluation of the
    projection's last pass.  Where that stage refuses the state (here the
    {T3,T4} floor made to refuse its ninth call, the first stage of step
    3, after the projection of step 2), the run reports it as when the
    stage evaluated the state itself: step 3 at t = 3 dt, after the 8
    right-hand sides of the two completed steps and 1 projection."""
    model = build_model("crossed")
    z0 = state_batch(model, 1, seed=5)[0]
    floor, calls = dynamics._t3t4, []

    def refusing(t34, model):
        calls.append(t34)
        if len(calls) == 9:
            raise ValueError("{T3,T4} refused here")
        return floor(t34, model)

    monkeypatch.setattr(dynamics, "_t3t4", refusing)
    with pytest.raises(ValueError, match="refused here") as err:
        integrate(model, z0, 1.05, 0.1, record_every=2)
    run = err.value.stats
    assert (run["failed_step"], run["t"]) == (3, 3 * 0.1)
    assert run["rhs_evals"] == 8 and run["projections"] == 1
    assert "projection_failure" not in run


def test_a_failed_right_hand_side_tells_where_the_run_stopped(monkeypatch):
    """An orbit that dips below the coulomb guard, fields.R_MIN raised to
    3.9, fails inside an rk4 stage of step 9, between projections.  The
    ValueError keeps its type and message and carries the run's stats as
    for a failed projection: the failing step and its end time, and the
    right-hand sides of the eight completed steps."""
    monkeypatch.setattr(fields, "R_MIN", 3.9)
    bg = make_background("coulomb", e=-1.0, c=10.0, q=1.0)
    model = Model(background=bg)
    z0 = init_state(model, x3=(4.0, 0.0, 0.0), P3=(0.0, 0.3, 0.0))
    with pytest.raises(ValueError, match=r"r=3.898e\+00 < r_min=3.900e\+00") as err:
        integrate(model, z0, 50.0, 0.25, record_every=5)
    run = err.value.stats
    assert (run["failed_step"], run["t"]) == (9, 2.25)
    assert run["rhs_evals"] == 4 * 8 and run["projections"] == 1
    assert "projection_failure" not in run



@pytest.mark.parametrize("name, nth, record_every, rhs_evals, projections", [
    ("_t3t4", 42, 2, 40, 5), ("_project", 11, 1, 44, 10)], ids=["rhs", "projection"])
def test_a_failure_on_the_short_last_step_tells_where(name, nth, record_every, rhs_evals,
                                                      projections, monkeypatch):
    """A run of 1.05 at dt = 0.1 ends with a short step 11 of 0.05.  A
    right-hand side refused in its second stage (the 42nd {T3,T4})
    reports step 11 at t = t_final after the 40 right-hand sides of the
    ten completed steps; a projection refused after its stages
    (record_every = 1 projects step 11) reports the same step and time
    after 44."""
    model = build_model("crossed")
    z0 = state_batch(model, 1, seed=5)[0]
    real, calls = getattr(dynamics, name), []

    def refusing(*args):
        calls.append(1)
        if len(calls) == nth:
            raise ValueError(f"{name} refused here")
        return real(*args)

    monkeypatch.setattr(dynamics, name, refusing)
    with pytest.raises(ValueError, match="refused here") as err:
        integrate(model, z0, 1.05, 0.1, record_every=record_every)
    run = err.value.stats
    assert run["failed_step"] == 11 and run["t"] == 1.05
    assert run["rhs_evals"] == rhs_evals and run["projections"] == projections


@pytest.mark.parametrize("nth, step, t, rhs_evals", [(1, 0, 0.0, 0), (3, 4, 0.4, 16),
                                                      (7, 11, 1.05, 44)],
                         ids=["z0", "step-4", "short-last-step"])
def test_a_state_its_record_evaluation_refuses_tells_where(nth, step, t, rhs_evals,
                                                           monkeypatch):
    """An unprojected run evaluates each record itself: z0 before the
    first step, then steps 2, 4, ..., 10 and the short last step 11.
    Where that evaluation refuses the state (here t_values made to refuse
    its nth call), the run ends as for any refused state: the error
    carries the stats, with the step of the record (0 for z0), its time
    and the right-hand sides of the steps that completed."""
    model = build_model("crossed")
    z0 = state_batch(model, 1, seed=5)[0]
    real, calls = dynamics.t_values, []

    def refusing(*args):
        calls.append(1)
        if len(calls) == nth:
            raise ValueError("t_values refused here")
        return real(*args)

    monkeypatch.setattr(dynamics, "t_values", refusing)
    with pytest.raises(ValueError, match="refused here") as err:
        integrate(model, z0, 1.05, 0.1, record_every=2, project=False)
    run = err.value.stats
    assert (run["failed_step"], run["t"], run["rhs_evals"]) == (step, t, rhs_evals)
    assert run["projections"] == 0 and "energy_drift" not in run


def test_channels_evaluate_nothing(monkeypatch):
    """Once integrate has returned, channels() and every diagnostic read
    from it (energy and constraint drift, the spin-plane rate, the orbit
    averages) run with field_data and the kernel made to raise, and
    leave stats as integrate wrote it."""
    model = build_model("coulomb")
    z0 = init_state(model, x3=(2.0, 0.0, 0.3), P3=(0.0, 0.6, 0.1), spin_dir=(0.3, 0.2, 0.9))
    traj = integrate(model, z0, 1.0, 0.05, record_every=4)
    before = dict(traj.stats)

    def refuse(*args):
        raise AssertionError("a state was evaluated")

    for name in ("field_data", "_kernel", "t_values"):
        monkeypatch.setattr(dynamics, name, refuse)
        monkeypatch.setattr(phase, name, refuse)
    traj.channels()
    traj.energy_drift(), traj.constraint_drift()
    spin_plane_rate(traj), dynamics.orbit_averages(traj)
    assert traj.stats == before

@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_projection_refuses_a_non_finite_state(value, capfd):
    """A NaN slot used to reach the least-squares solve, which raised
    LinAlgError and printed a LAPACK message on stderr; the projection
    must refuse the state with its own ValueError and print nothing."""
    model = build_model("coulomb")
    vec = state_batch(model, 1)[0].vec.copy()
    vec[9] = value
    with pytest.raises(ValueError, match="non-finite") as err:
        project_state(PhaseState(vec=vec), model)
    assert type(err.value) is ValueError
    assert capfd.readouterr().err == ""


def test_projection_fixed_point_on_rest_like_states():
    """Regression: states with spatial, mutually orthogonal omega and
    pi (any state built at low momentum) made the old reduced-variable
    projection singular.  The projection must leave an on-surface state
    untouched to machine precision."""
    bg = make_background("coulomb", e=-1.0, c=10.0, q=1.0)
    model = Model(background=bg, m=1.0, g=2.0, alpha=0.75)
    z = init_state(model, x3=(4.0, 0.0, 0.0), P3=(0.0, 0.5, 0.0),
                   spin_dir=(1.0, 0.0, 0.0))
    zp = project_state(z, model)
    assert np.max(np.abs(zp.vec - z.vec)) < 1e-12


def test_gauge_shift_invisible_in_gauge_invariants():
    """Adding grad(chi) to A changes canonical p but must not change
    the trajectory of x, P or S."""
    B = (0.0, 0.0, 2.0)
    bg = make_background("uniform-B", e=1.0, c=10.0, B=B)
    shifted = with_gauge_shift(
        bg,
        lambda x: np.array([0.7 * x[2], 0.7 * x[1], 0.0]),
        lambda x: np.array([[0.0, 0.7, 0.0], [0.7, 0.0, 0.0],
                            [0.0, 0.0, 0.0]]),
    )
    mA = Model(background=bg, m=1.0, g=2.3, alpha=0.75)
    mB = Model(background=shifted, m=1.0, g=2.3, alpha=0.75)
    kwargs = dict(x3=(1.5, 0.0, 0.2), P3=(0.0, 1.2, 0.3),
                  spin_dir=(0.3, 0.2, 0.9))
    zA = init_state(mA, **kwargs)
    zB = init_state(mB, **kwargs)
    tA = integrate(mA, zA, 5.0, 0.01, record_every=100)
    tB = integrate(mB, zB, 5.0, 0.01, record_every=100)
    cA, cB = tA.channels(), tB.channels()
    for name in ("x1", "x2", "x3", "P0", "P1", "P2", "P3",
                 "S1", "S2", "S3", "H"):
        assert np.allclose(cA[name], cB[name], atol=1e-9), name
    # canonical momentum itself does shift
    assert not np.allclose(tA.Z[-1][5:8], tB.Z[-1][5:8], atol=1e-6)


def orbit_plane_rate(traj, center=(0.0, 0.0), i=0, j=1):
    ch = traj.channels()
    names = ("x1", "x2", "x3")
    ang = np.unwrap(np.arctan2(ch[names[j]] - center[1], ch[names[i]] - center[0]))
    return linear_rate(traj.t, ang)


def test_circular_coulomb_orbit_stays_circular():
    bg = make_background("coulomb", e=-1.0, c=10.0, q=1.0)
    model = Model(background=bg, m=1.0, g=2.0, alpha=0.75)
    p_circ = 0.5003125975951672  # circular at r = 4 in the spinless limit
    z0 = init_state(model, x3=(4.0, 0.0, 0.0), P3=(0.0, p_circ, 0.0),
                    spin_dir=(0.0, 0.0, 1.0))
    traj = integrate(model, z0, 60.0, 0.02, record_every=50)
    ch = traj.channels()
    r = np.sqrt(ch["x1"] ** 2 + ch["x2"] ** 2 + ch["x3"] ** 2)
    # p_circ balances the spinless force law; with S || L the spin-orbit
    # force shifts the equilibrium, so r breathes at the 1e-2 level with
    # no secular trend
    assert np.max(np.abs(r - 4.0)) < 2.5e-2
    assert traj.energy_drift() < 1e-11
    # orbital angular rate matches the nonrelativistic v / r to the
    # expected beta^2 + spin-orbit accuracy
    om = orbit_plane_rate(traj)
    assert np.isclose(abs(om), 0.5 / 4.0, rtol=1e-2)


@pytest.mark.parametrize("kind", ["crossed", "coulomb"])
def test_an_unprojected_run_is_the_plain_rk4_loop(kind, tmp_path):
    """project=False, and simulate.project: false in a config, run the
    integrator with no projection: the stats read 0 projections and 0
    passes, and the records are, bit for bit, those of the numpy rk4 step
    of tests/oracles.py on dirac_rhs, the short last step included.  The
    command exits 0 and its --stats sidecar reads 0 projections."""
    model = build_model(kind)
    z0 = init_state(model, x3=(1.6, -0.8, 1.1), P3=(0.4, 0.3, -0.2))
    traj = integrate(model, z0, 1.05, 0.1, record_every=2, project=False)
    assert traj.stats["projections"] == traj.stats["projection_steps"] == 0
    y, want = z0.vec, [z0.vec]
    for k, h in enumerate([0.1] * 10 + [1.05 - (0.0 + 10 * 0.1)], 1):
        y = oracles.rk4_step(lambda v: np.array(dirac_rhs(v.tolist(), model)), y, h)
        if k % 2 == 0 or k == 11:
            want.append(y)
    assert traj.Z.tobytes() == np.array(want).tobytes()
    config = {"background": {"kind": kind, **{k: list(v) if isinstance(v, tuple) else v
                                              for k, v in BACKGROUND_PARAMS[kind].items()}},
              "model": {"g": 2.3},
              "simulate": {"x0": [1.6, -0.8, 1.1], "P0": [0.4, 0.3, -0.2], "t_final": 1.05,
                           "dt": 0.1, "record_every": 2, "project": False}}
    (tmp_path / "sim.yaml").write_text(json.dumps(config))   # JSON is YAML
    side = tmp_path / "stats.json"
    assert cli.main(["simulate", "--config", str(tmp_path / "sim.yaml"),
                     "--out", str(tmp_path / "out.csv"), "--stats", str(side)]) == 0
    stats = json.loads(side.read_text())
    assert stats["projections"] == stats["projection_steps"] == 0 and stats["n_steps"] == 11


@pytest.mark.parametrize("spinless", [False, True], ids=["spin", "spinless"])
@pytest.mark.parametrize("kind", ["coulomb", "crossed", "zero"])
def test_rhs_evaluates_the_fields_once(kind, spinless, monkeypatch):
    """One dirac_rhs call makes one field_data call, field_data one call
    of the background's evaluator, one kernel call and no dirac_core
    call, and no lowered field tensor is built."""
    model = build_model(kind, alpha=0.0 if spinless else 0.75)
    z = init_state(model, x3=(1.5, 0.3, -0.2), P3=(0.4, 0.1, 0.2))
    calls = dict.fromkeys(("field_data", "at", "_kernel", "dirac_core", "lower2"), 0)
    counting = functools.partial(_counting, calls)
    bg = dataclasses.replace(model.background, at=counting("at", model.background.at))
    model = Model(background=bg, m=model.m, g=model.g, alpha=model.alpha)
    field_data = counting("field_data", phase.field_data)
    kernel = counting("_kernel", phase._kernel)
    for mod in (phase, brackets, dynamics):
        monkeypatch.setattr(mod, "field_data", field_data)
        monkeypatch.setattr(mod, "_kernel", kernel)
    # dynamics binds dirac_core only if its right-hand side calls it
    core = counting("dirac_core", brackets.dirac_core)
    for mod in (brackets, dynamics):
        monkeypatch.setattr(mod, "dirac_core", core, raising=False)
    # the rows read F and dF; the lowered tensors are never built here
    lower2 = counting("lower2", minkowski.lower2)
    for mod in (phase, minkowski):
        monkeypatch.setattr(mod, "lower2", lower2)
    assert z.spinless == spinless
    dirac_rhs(z.vec, model)
    assert calls == {"field_data": 1, "at": 1, "_kernel": 1, "dirac_core": 0, "lower2": 0}


@pytest.mark.parametrize("name", sorted(KERNEL_BACKGROUNDS))
def test_rhs_matches_the_reference_rows_and_flow(name):
    """dirac_rhs equals the flow of grad H built from the numpy reference
    rows and the three-application form of the correction, to 1e-15
    relative, on 20 random constrained states and on the same states made
    spinless, in the catalog and in two fields with every F^{mu nu}
    component nonzero."""
    for spinless in (False, True):
        model = kernel_model(name, spinless)
        for z in state_batch(model, 20, seed=41):
            assert z.spinless == spinless
            fd = FieldArrays(field_data(model, z.x))
            P, g_p0 = oracles.p0_and_grad(z, model, fd)
            g_t3, g_t4 = oracles.t34_grads(z, model, fd, P, g_p0)
            gh = model.c * g_p0
            gh[0:4] += model.e * fd.dA[0]
            want = oracles.flow(g_t3, g_t4, gh)
            want[0], want[4] = model.c, 0.0
            got = dirac_rhs(z.vec, model)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), name


def test_run_reports_its_work(monkeypatch):
    """Trajectory.stats counts the right-hand sides, the fixed-point
    passes of every projection and the largest residual met before one.
    Each right-hand side, each iterate of a projection, the returned one
    included, and each record that was not projected reads one kernel
    call, except the first stage after a projection or a record, which
    reads the kernel call of that state's evaluation; channels() reads
    none."""
    model = build_model("crossed")
    z0 = init_state(model, x3=(0.5, -0.2, 0.1), P3=(0.4, 0.1, -0.3),
                    spin_dir=(0.2, 0.9, -0.1))
    seen = {"kernel": 0, "before": 0.0}
    project, kernel = dynamics._project, dynamics._kernel

    def projected(vec, model, stats):
        z = PhaseState(vec=np.array(vec))
        seen["before"] = max(seen["before"], np.max(np.abs(constraint_values(z, model)[1])))
        return project(vec, model, stats)

    def counted(*args):
        seen["kernel"] += 1
        return kernel(*args)

    monkeypatch.setattr(dynamics, "_project", projected)
    monkeypatch.setattr(dynamics, "_kernel", counted)
    traj = integrate(model, z0, 1.05, 0.1, record_every=2)
    stats = traj.stats
    assert stats["n_steps"] == 11 and stats["rhs_evals"] == 4 * 11
    assert stats["projections"] == 5
    # the records of z0 and of the short last step 11 are not projected;
    # z0's and the projections at steps 2, 4, ..., 10 give the first
    # stages of steps 1, 3, 5, ..., 11
    assert (stats["rhs_evals"] - 6 + 2 + stats["projections"] + stats["projection_steps"]
            == seen["kernel"])
    assert stats["projection_steps"] > 0
    assert stats["max_residual_before_projection"] == seen["before"] > 0.0
    seen["kernel"] = 0
    traj.channels()
    assert seen["kernel"] == 0


@pytest.mark.parametrize("kind", ["coulomb", "crossed"])
def test_run_evaluates_the_fields_once_per_rhs_projection_and_record(kind):
    """An rk4 run calls the background's evaluator once per right-hand
    side, once per projection and once per record that was not
    projected, less the first stages that a projection or a record has
    evaluated, and channels() never."""
    model = build_model(kind)
    z0 = state_batch(model, 1, seed=5)[0]
    calls, bg_at = [], model.background.at

    def at(x):
        calls.append(1)
        return bg_at(x)

    model = dataclasses.replace(model, background=dataclasses.replace(model.background, at=at))
    traj = integrate(model, z0, 1.05, 0.1, record_every=2)
    assert traj.stats["rhs_evals"] == 44 and traj.stats["projections"] == 5
    # the records of z0 and of the short last step 11 are not projected;
    # z0's and the projections at steps 2, 4, ..., 10 give the first
    # stages of steps 1, 3, 5, ..., 11
    assert len(calls) == traj.stats["rhs_evals"] - 6 + 2 + traj.stats["projections"]
    calls.clear()
    traj.channels()
    assert calls == []


@pytest.mark.parametrize("kind", ["coulomb", "crossed"])
def test_the_float_path_builds_no_field_array(kind, monkeypatch):
    """integrate and project_state read the fields as the float tuples
    of at(x): with minkowski.field_tensor, the one writer of a field
    array, made to raise, they run and give the same bytes, channels
    included, as without."""
    model = build_model(kind)
    z0 = state_batch(model, 1, seed=5)[0]
    off = z0.vec.copy()
    off[8:16] *= 1.0 + 1e-3 * np.arange(1, 9)

    def run():
        traj = integrate(model, z0, 1.05, 0.1, record_every=2)
        return [traj.Z.tobytes(), *(np.asarray(v).tobytes() for v in traj.channels().values()),
                project_state(PhaseState(vec=off), model).vec.tobytes()]

    want = run()

    def refuse(*args):
        raise AssertionError("a field array was built on the float path")

    for mod in (minkowski, phase, brackets):
        monkeypatch.setattr(mod, "field_tensor", refuse)
    assert run() == want


def test_run_times_stepping_and_channels():
    """integrate writes every stat: the wall time of the run and the
    energy drift of the H column of its rows, the value energy_drift()
    returns.  channels() reads the rows and writes nothing to stats."""
    model = build_model("crossed")
    traj = integrate(model, state_batch(model, 1, seed=5)[0], 0.5, 0.1)
    assert traj.stats["stepping_s"] > 0.0
    H = traj.rows[:, 8]
    drift = np.max(np.abs(H - H[0])) / abs(H[0])
    assert traj.stats["energy_drift"] == traj.energy_drift() == drift > 0.0
    before = dict(traj.stats)
    assert traj.channels()["H"].tobytes() == H.tobytes()
    assert traj.stats == before


@pytest.mark.parametrize("kind", ["coulomb", "crossed"])
def test_projection_reads_one_kernel_call_per_iterate(kind, monkeypatch):
    """project_state evaluates the fields once per call and reads calP
    and the residuals of each iterate, the returned one included, from
    one call of the kernel."""
    model = build_model(kind)
    z = state_batch(model, 1, seed=7)[0]
    vec = z.vec.copy()
    vec[8:16] *= 1.0 + 1e-3 * np.arange(1, 9)
    calls = {"field_data": 0, "_kernel": 0}
    counting = functools.partial(_counting, calls)
    monkeypatch.setattr(dynamics, "field_data", counting("field_data", dynamics.field_data))
    monkeypatch.setattr(dynamics, "_kernel", counting("_kernel", dynamics._kernel))
    stats = {"projection_steps": 0, "max_residual_before_projection": 0.0}
    dynamics._project(vec.tolist(), model, stats)
    assert stats["projection_steps"] > 0
    assert calls == {"field_data": 1, "_kernel": stats["projection_steps"] + 1}


# (model kind, alpha, t_final, project): a projected run, an unprojected
# one, a spinless one and a projected one with a short last step
RUNS = {"projected": ("coulomb", 0.75, 2.0, True), "unprojected": ("coulomb", 0.75, 2.0, False),
        "spinless": ("crossed", 0.0, 2.0, True), "short-last-step": ("crossed", 0.75, 1.05, True)}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_channels_of_a_run_are_those_of_its_records(run):
    """A run's records are rk4 steps of dirac_rhs and project_state bit
    for bit, as the numpy loop of tests/oracles.py with no evaluation
    reused gives them, and its rows, one per record, are those that an
    evaluation of each state alone gives (oracles.record_rows), so its
    channels equal, byte for byte and key for key, those of a
    Trajectory built from (t, Z) and those rows."""
    kind, alpha, t_final, project = RUNS[run]
    model = build_model(kind, alpha=alpha)
    z0 = init_state(model, x3=(1.6, -0.8, 1.1), P3=(0.4, 0.3, -0.2), spin_dir=(0.3, -1.0, 0.5))
    traj = integrate(model, z0, t_final, 0.1, record_every=2, project=project)
    n_full, n_steps = dynamics._grid(t_final, 0.1, 2)
    y, want = z0.vec, [z0.vec]
    for k in range(1, n_steps + 1):
        h = 0.1 if k <= n_full else t_final - n_full * 0.1
        y = oracles.rk4_step(lambda v: np.array(dirac_rhs(v.tolist(), model)), y, h)
        if project and (k % dynamics.PROJECT_EVERY == 0 or k % 2 == 0):
            y = project_state(PhaseState(vec=y), model).vec
        if k % 2 == 0 or k == n_steps:
            want.append(y)
    assert traj.Z.tobytes() == np.array(want).tobytes()
    rows = oracles.record_rows(traj.Z, model)
    assert traj.rows.shape == (len(traj.t), 9) and traj.rows.tobytes() == rows.tobytes()
    fresh = dynamics.Trajectory(t=traj.t, Z=traj.Z, model=model, rows=rows).channels()
    got = traj.channels()
    assert list(got) == list(fresh)
    assert all(got[key].tobytes() == fresh[key].tobytes() for key in got)


def _canonical_rhs(vec, model):
    """J grad H with x^0 slaved and p^0 frozen, J applied block by block."""
    want = symplectic_apply(obs_hamiltonian().grad(PhaseState(vec=vec), model))
    want[0], want[4] = model.c, 0.0
    return want


def test_spinless_rhs_is_the_canonical_flow():
    """At omega = pi = 0 the Dirac flow is zdot = J grad H with x^0
    slaved and p^0 frozen, equal to the block-by-block canonical
    structure of tests/oracles.py, in every background."""
    for kind in sorted(BACKGROUND_PARAMS):
        model = build_model(kind, alpha=0.0)
        z = init_state(model, x3=(0.5, -0.2, 0.1), P3=(0.4, 0.1, -0.3))
        assert z.spinless
        assert np.array_equal(dirac_rhs(z.vec, model),
                              _canonical_rhs(z.vec, model)), kind


def _bits(v):
    """The float64 bit patterns of v, so that -0.0 and 0.0 differ."""
    return np.asarray(v, dtype=float).view(np.int64)


def _stages(ks, seen, as_list):
    """f for one rk4 step returning the rows of ks in turn, as lists or
    arrays, and recording the stage states it is called with."""
    rows = iter(ks)

    def f(v):
        seen.append(_bits(v))
        k = next(rows)
        return k.tolist() if as_list else k.copy()
    return f


def test_rk4_step_on_a_list_is_the_numpy_step_to_the_bit():
    """_rk4_step on a list of floats equals the numpy form of
    tests/oracles.py bit for bit: its stage states and its result, on
    seeded random 16-vectors y and stage slopes k and random step sizes,
    the short last step of a 1.05 run at dt = 0.1 included; and three
    steps of the Dirac flow of a coulomb state."""
    rng = np.random.default_rng(43)
    for _ in range(100):
        y = rng.normal(scale=10.0, size=16) * 10.0 ** rng.integers(-3, 4, size=16)
        ks = rng.normal(scale=5.0, size=(4, 16))
        for h in (rng.uniform(-1.0, 1.0), 0.25, 1.05 - (0.0 + 10 * 0.1)):
            seen_list, seen_arr = [], []
            f = _stages(ks, seen_list, True)
            got = dynamics._rk4_step(f, y.tolist(), h, f(y.tolist()))
            want = oracles.rk4_step(_stages(ks, seen_arr, False), y, h)
            assert np.array_equal(_bits(got), _bits(want))
            assert np.array_equal(seen_list, seen_arr)
    model = build_model("coulomb")
    y_arr = state_batch(model, 1, seed=3)[0].vec
    y_list = y_arr.tolist()
    for h in (0.1, 0.1, 0.05):
        y_list = dynamics._rk4_step(lambda v: dirac_rhs(v, model), y_list, h,
                                    dirac_rhs(y_list, model))
        y_arr = oracles.rk4_step(lambda v: np.array(dirac_rhs(v.tolist(), model)), y_arr, h)
        assert np.array_equal(_bits(y_list), _bits(y_arr))



# finite floats of either sign whose rk4 sums stay below the float range
# at |h| <= 1e3: signed zeros, subnormals and magnitudes up to 1e300
_SLOTS = st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=16, max_size=16)
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e300, 1e300, 1.0,
          -1.0, 1e-310, -1e150, 3.0, -0.0, 0.0, 7e299, -2.5]


@settings(max_examples=300, deadline=None)
@given(y=_SLOTS, ks=st.lists(_SLOTS, min_size=4, max_size=4),
       h=st.one_of(st.floats(min_value=-1e3, max_value=1e3),
                   st.just(1.05 - (0.0 + 10 * 0.1))))
@example(y=_EDGES, ks=[_EDGES[::-1], [-0.0] * 16, _EDGES, [5e-324] * 16], h=-0.0)
@example(y=_EDGES, ks=[_EDGES, _EDGES[::-1], [1e300] * 16, _EDGES], h=-1e3)
@example(y=[-0.0] * 16, ks=[[0.0] * 16] * 4, h=1.05 - (0.0 + 10 * 0.1))
def test_written_out_stage_and_step_are_the_numpy_form_to_the_bit(y, ks, h):
    """_stage and _rk4_step, written out on the 16 slots, equal the
    numpy form of tests/oracles.py bit for bit on arbitrary floats:
    each stage state and the step."""
    k_arr = np.array(ks)
    for a, k in ((0.5 * h, ks[0]), (h, ks[2])):
        assert np.array_equal(_bits(dynamics._stage(y, a, k)),
                              _bits(np.array(y) + a * np.array(k)))
    seen_list, seen_arr = [], []
    f = _stages(k_arr, seen_list, True)
    got = dynamics._rk4_step(f, y, h, f(y))
    want = oracles.rk4_step(_stages(k_arr, seen_arr, False), np.array(y), h)
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(seen_list, seen_arr)


@pytest.mark.parametrize("n", [15, 17])
def test_a_state_of_another_length_is_refused_not_truncated(n):
    """The zip form stopped at the shorter input, so a state or slope of
    15 floats gave a 15-float step and one of 17 lost its last slot; the
    written-out forms unpack 16 names and raise ValueError."""
    other, full = [1.0] * n, [0.5] * 16
    for y, k in ((other, full), (full, other)):
        with pytest.raises(ValueError):
            dynamics._stage(y, 0.1, k)
        with pytest.raises(ValueError):
            dynamics._rk4_step(lambda v: list(full), y, 0.1, k)
    with pytest.raises(ValueError):   # a stage slope of the other length
        dynamics._rk4_step(lambda v: list(other), full, 0.1, full)

@pytest.mark.parametrize("kind", ["coulomb", "crossed", "zero"])
def test_rhs_and_step_return_lists_of_floats(kind):
    """Given a list of 16 floats, dirac_rhs and _rk4_step return lists of
    16 Python floats, at a spin state and at a spinless one."""
    for alpha in (0.75, 0.0):
        model = build_model(kind, alpha=alpha)
        v = state_batch(model, 1, seed=9)[0].vec.tolist()
        for out in (dirac_rhs(v, model),
                    dynamics._rk4_step(lambda u: dirac_rhs(u, model), v, 0.1,
                                       dirac_rhs(v, model))):
            assert type(out) is list and len(out) == 16
            assert all(type(x) is float for x in out), (kind, alpha)


class _NumpySpy:
    """Stands in for numpy in a module: records each attribute read."""

    def __init__(self, seen):
        self._seen = seen

    def __getattr__(self, name):
        self._seen.append(name)
        return getattr(np, name)


@pytest.mark.parametrize("kind", ["coulomb", "crossed"])
def test_no_array_inside_a_step_or_a_projection_pass(kind, monkeypatch):
    """An rk4 step on a list reads nothing of numpy in dynamics, phase,
    brackets or fields, and a projection of several passes reads it once,
    for the array of the state it returns.  fields binds no numpy at
    module level; an import of numpy inside a function, there or
    anywhere, reads sys.modules and so meets the spy too."""
    model = build_model(kind)
    z = state_batch(model, 1, seed=7)[0]
    seen = []
    spy = _NumpySpy(seen)
    for mod in (dynamics, phase, brackets):
        monkeypatch.setattr(mod, "np", spy)
    assert not hasattr(fields, "np")
    monkeypatch.setitem(sys.modules, "numpy", spy)
    y = z.vec.tolist()
    dynamics._rk4_step(lambda u: dirac_rhs(u, model), y, 0.1, dirac_rhs(y, model))
    assert seen == []
    vec = z.vec.copy()
    vec[8:16] *= 1.0 + 1e-3 * np.arange(1, 9)
    stats = {"projection_steps": 0, "max_residual_before_projection": 0.0}
    dynamics._project(vec.tolist(), model, stats)
    assert stats["projection_steps"] >= 2 and seen == []
    zp = project_state(PhaseState(vec=vec), model)
    assert seen == ["array"] and type(zp.vec) is np.ndarray


@pytest.mark.parametrize("kind", ["coulomb", "uniform-B"])
def test_spinless_trajectory_is_the_canonical_flow(kind):
    """A recorded spinless run is rk4 of the canonical flow, byte for
    byte: a spinless state is never projected, and it reads zero in
    every spin and constraint channel."""
    model = build_model(kind, alpha=0.75)
    z0 = init_state(model, x3=(1.6, -0.8, 1.1), P3=(0.4, 0.3, -0.2))
    z0 = PhaseState(vec=np.concatenate([z0.vec[:8], np.zeros(8)]))
    traj = integrate(model, z0, 1.0, 0.01, record_every=10)
    y, Z = z0.vec.copy(), [z0.vec.copy()]
    for k in range(1, 101):
        y = oracles.rk4_step(lambda v: _canonical_rhs(v, model), y, 0.01)
        if k % 10 == 0:
            Z.append(y.copy())
    assert np.array_equal(traj.Z, Z)
    assert traj.stats["projections"] == 12 and traj.stats["projection_steps"] == 0
    ch = traj.channels()
    for name in ("S1", "S2", "S3", "D1", "D2", "D3", "T2", "T3", "T4", "T5", "spin2"):
        assert not ch[name].any(), name
    for k in range(len(traj.t)):
        zk = PhaseState(vec=traj.Z[k].copy())
        assert np.array_equal([ch[f"P{mu}"][k] for mu in range(4)],
                              kinetic_momentum(zk, model))
        assert ch["H"][k] == obs_hamiltonian()(zk, model)


def test_channels_match_the_per_state_readouts(monkeypatch):
    """channels writes the spin tensors of all recorded states with one
    stacked spin_tensor call and reads them with one stacked
    spin_readouts call, with no per-state spin_tensor or spin_readouts
    call, and gives the same bytes as the public per-state read-outs."""
    model = build_model("coulomb")
    z = init_state(model, x3=(2.0, 0.0, 0.3), P3=(0.0, 0.6, 0.1),
                   spin_dir=(0.3, 0.2, 0.9))
    traj = integrate(model, z, 1.0, 0.05, record_every=4)
    built = []

    def recorded(name):
        fn = getattr(phase, name)
        return lambda *a: built.append((name, getattr(a[0], "shape", None))) or fn(*a)

    for name in ("spin_tensor", "spin_readouts"):
        wrapper = recorded(name)
        for mod in (phase, dynamics):
            monkeypatch.setattr(mod, name, wrapper, raising=False)
    ch = traj.channels()
    n = len(traj.t)
    assert built == [("spin_tensor", (n, 4)), ("spin_readouts", (n, 4, 4))] and n > 1
    monkeypatch.undo()
    for k in range(len(traj.t)):
        zk = PhaseState(vec=traj.Z[k].copy())
        P, T = constraint_values(zk, model)
        S = spin_tensor(zk.w, zk.pi)
        S3, D3, SS = spin_readouts(S)
        assert np.array_equal([ch[f"P{mu}"][k] for mu in range(4)], P)
        assert np.array_equal([ch[n][k] for n in ("T2", "T3", "T4", "T5")], T)
        assert np.array_equal([ch[n][k] for n in ("S1", "S2", "S3")], S3)
        assert np.array_equal([ch[n][k] for n in ("D1", "D2", "D3")], D3)
        assert ch["spin2"][k] == SS - 8.0 * model.alpha == contract_2(S, S) - 8.0 * model.alpha
        assert ch["H"][k] == obs_hamiltonian()(zk, model)


@functools.cache
def _family(kind):
    """40 states of kind (g = 2.3) with (omega, pi) replaced by N(0,1)
    noise, the i-th drawn from default_rng(i)."""
    model = build_model(kind)
    rng = np.random.default_rng(0)
    vecs = []
    for i in range(40):
        vec = random_constrained_state(model, rng).vec.copy()
        vec[8:16] = np.random.default_rng(i).normal(size=8)
        vecs.append(vec)
    return model, vecs


@pytest.mark.parametrize("kind, index", [(kind, i) for kind in sorted(BACKGROUND_PARAMS)
                                         for i in range(40)])
def test_projection_runs_on_while_the_residual_contracts(kind, index):
    """The 200 states of _family, far off the surface: the projection
    goes on while each pass shrinks the residual and must return a state
    on the surface, not raise.  A damped Gauss-Newton projection raised
    on 16 of them (indices 24, 28, 36 and 38), and on crossed 30 it had
    to check the iterate of its last permitted step before raising."""
    model, vecs = _family(kind)
    zp = project_state(PhaseState(vec=vecs[index]), model)
    res = constraint_residuals(zp, model)
    for key in ("T2", "T3", "T4", "T5"):
        assert abs(res[key]) <= 1e-12, (key, res[key])
