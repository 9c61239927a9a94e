"""Trajectory integration under the Dirac-bracket flow.

The generator is H = c P^0 + e A^0 and the flow of any phase function
is its Dirac bracket with H, so the raw equations of motion are

    zdot = J grad H + ( {T4,H} J grad T3 - {T3,H} J grad T4 ) / {T3,T4}

computed in one float pass per call (``dirac_rhs``, 16 floats in, a list
of 16 floats out): one field evaluation, one call of the kernel
``phase._kernel``, and three symplectic pairings of its pieces, which
give {T3,T4}, {T3,H} and {T4,H}; no constraint value, row,
``DiracCore`` or array is built, and this module does not import
``brackets``.  The stacked form of the correction,
``brackets.DiracCore.flow``, serves the bracket reports, and both are
pinned to one reference.  The energy radicand check and the {T3,T4}
floor that ``dirac_core`` shares (``phase._energy`` and
``phase._t3t4``) make it raise ValueError where the state is out of
range or the pair is not invertible, NaN included.  x^0 is slaved to
the evolution parameter (dx^0/dt = c) and p^0 a spectator equal to H/c,
exactly conserved in stationary backgrounds.

The continuous flow preserves all four constraints: T3 and T4 by
construction of the bracket, T2 and T5 because {T2,T3} = -T3 and its
three siblings vanish on the surface.  Numerical drift is removed by
``project_state``: the constraints solved for (omega, pi) at fixed calP,
repeated with the new calP, which keeps x and pins S.S = 8 alpha too (a
consequence of T2 = T5 = 0).  Where it refuses a state or stalls, its
ValueError or RuntimeError ends the run of ``integrate``.

Inside the rk4 loop of ``integrate`` the state is a list of 16 Python
floats, from ``z0.vec.tolist()`` on, and the right-hand side is a
closure that calls ``dirac_rhs(v, model)``: ``_rk4_step`` forms its
stages and the final combination elementwise, in the operation order of
the numpy form, so a step is the same to the bit; it projects with
``_project``, the list form of ``project_state``, whose passes take
their Minkowski products from ``minkowski.mdot``.  Each state is
evaluated once: a projection's last pass evaluates the state it
returns, which is the next step's first stage and, when recorded, the
state's channel row.  Arrays appear only where a state crosses the
``PhaseState`` boundary of ``project_state`` and in ``Trajectory.Z``.

``Trajectory.stats`` reports what a run did, apart from its results:
the right-hand-side evaluations (four per completed step), the
projections and their fixed-point passes, the largest constraint
residual met before a projection, the energy drift of the H channel,
``energy_drift`` (written by the first ``channels()`` call), and the
wall time (time.perf_counter spans) of the stepping, ``stepping_s``, and
of the first ``channels()`` call, ``channels_s``.  ``channels`` makes
one float pass per recorded state that no projection evaluated (one
field evaluation, one kernel call and ``phase.t_values`` give calP, the
constraint values and H) and takes the spin read-outs from the spin
tensors of all states, which one ``phase.spin_tensor`` call writes.

A spinless state is omega = pi = 0 of the same flow: there
{T3,T4} = calP.calP = -(m c)^2 and {T3,H} = {T4,H} = 0, so the flow
is J grad H, the plain Lorentz force; it carries no constraints.  The
closed-form cyclotron and Larmor rates are test oracles.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .minkowski import mdot
from .phase import (CONSTRAINT_NAMES, PhaseState, field_data, spin_readouts, spin_tensor,
                    t_values, _kernel, _t3t4)

# ---------------------------------------------------------------------------
# right-hand sides


def dirac_rhs(vec, model, evaluation=None):
    """d(vec)/dt for the 16-component state, a sequence of 16 floats, as
    a list of 16 floats; t is laboratory time.

    One field evaluation and one kernel call, or the evaluation (fields,
    calP, pieces) of vec when given, whose pieces g0 = grad calP^0
    and the explicit gradients e3, e4 (grad T_v = -v^0 g0 + e_v) enter
    through the symplectic pairing Omega(a, b) = {a, b} =
    <a_x, b_p> - <a_p, b_x> + <a_omega, b_pi> - <a_pi, b_omega>
    (Minkowski <,>), with Omega(g0, g0) = 0:

        A_v = Omega(e_v, g0),  {T3,T4} = omega^0 A4 - pi^0 A3 + Omega(e3, e4),
        {T_v, H} = c A_v + e (v^0 <g0_p, dA^0> - <v, dA^0>),

    and zdot = J (b g0 + e dA^0 + a4 e3 - a3 e4), a_v = {T_v, H}/{T3,T4}
    and b = c - a4 omega^0 + a3 pi^0, written out block by block.  The p^0
    slots of g0, e3 and e4 are zero, so no x^0 slot is read."""
    if evaluation is None:
        fields = field_data(model, vec[0:4])
        (P0, P1, P2, P3), (g0, ex3, ex4) = _kernel(vec, model, fields)
    else:
        fields, (P0, P1, P2, P3), (g0, ex3, ex4) = evaluation
    _, g1, g2, g3, _, g5, g6, g7, g8, g9, g10, g11, g12, g13, g14, g15 = g0
    _, x1, x2, x3 = ex3
    _, y1, y2, y3 = ex4
    w0, w1, w2, w3, q0, q1, q2, q3 = vec[8:]
    d1, d2, d3 = fields[1][0]   # d_i A^0
    c, e = model.c, model.e
    A3 = (x1 * g5 + x2 * g6 + x3 * g7 - (w1 * g1 + w2 * g2 + w3 * g3)
          + (P0 * g12 + P1 * g13 + P2 * g14 + P3 * g15))
    A4 = (y1 * g5 + y2 * g6 + y3 * g7 - (q1 * g1 + q2 * g2 + q3 * g3)
          - (P0 * g8 + P1 * g9 + P2 * g10 + P3 * g11))
    t34 = _t3t4(w0 * A4 - q0 * A3 + (x1 * q1 + x2 * q2 + x3 * q3)
                - (w1 * y1 + w2 * y2 + w3 * y3)
                + (P1 * P1 + P2 * P2 + P3 * P3 - P0 * P0), model)
    gd = g5 * d1 + g6 * d2 + g7 * d3
    a3 = (c * A3 + e * (w0 * gd - (w1 * d1 + w2 * d2 + w3 * d3))) / t34
    a4 = (c * A4 + e * (q0 * gd - (q1 * d1 + q2 * d2 + q3 * d3))) / t34
    b = c - a4 * w0 + a3 * q0
    # x^0 is slaved to t and p^0 is frozen
    return [
        c, b * g5 + a4 * w1 - a3 * q1, b * g6 + a4 * w2 - a3 * q2,
        b * g7 + a4 * w3 - a3 * q3,
        0.0, -(b * g1 + e * d1 + a4 * x1 - a3 * y1),
        -(b * g2 + e * d2 + a4 * x2 - a3 * y2), -(b * g3 + e * d3 + a4 * x3 - a3 * y3),
        -b * g12 - a3 * P0, b * g13 - a3 * P1, b * g14 - a3 * P2, b * g15 - a3 * P3,
        b * g8 - a4 * P0, -b * g9 - a4 * P1, -b * g10 - a4 * P2, -b * g11 - a4 * P3]


# ---------------------------------------------------------------------------
# constraint projection


PROJECTION_TOL = 1e-14   # largest residual returned, in units of 1 + (m c)^2
# smallest omega^2 (pi^2) a pass keeps, relative to the vector's squared
# Euclidean norm before it: rounding then sets its direction to sqrt(eps)
SPIN_FLOOR = 2.0 ** -52


def project_state(z, model, *, stats=None):
    """Put z back on T2 = T3 = T4 = T5 = 0, moving (omega, pi) alone.

    At fixed calP the constraints have an explicit solution, and each
    pass applies it in float arithmetic on the eight spin slots: remove
    the calP components of omega and pi (T3 = T4 = 0; calP is timelike,
    so both become spacelike), remove omega's component from pi
    (T2 = 0), and scale both by s = (alpha / (omega^2 pi^2))^(1/4)
    (T5 = 0).  calP depends on (omega, pi) only through (F S) in calP^0,
    so the passes repeat with the new calP, a fixed point contracting by
    about (e g / 4 c) |F| |S| / (m c)^2.  A call evaluates the fields
    once and each pass reads calP and the residuals from one kernel
    call and t_values, on the state as a list of 16 floats (``_project``;
    one tolist() here, and one array on return); the first iterate
    whose largest residual is below PROJECTION_TOL (1 + (m c)^2) is
    returned, a spinless state as it is.
    The projection is not orthogonal, and need not be: a correction the
    size of the drift keeps the integrator's order (Hairer, Lubich and
    Wanner, GNI IV.4).

    RuntimeError, naming the residual before and the best reached: a
    pass that does not shrink the largest residual.  ValueError: a
    non-finite component, or a projected omega^2 or pi^2 not above
    SPIN_FLOOR, where rounding would set the spin (omega parallel to
    calP; pi in the plane of omega and calP, S = 0 included).

    stats, when given, is a dict whose "projection_steps" grows by the
    passes made and whose "max_residual_before_projection" is raised to
    the largest residual before the first pass, each started at 0 when
    absent; before the RuntimeError, "projection_failure" is set to
    {"residual": the largest residual before the first pass, "best": the
    least reached, "passes": the passes made}.
    """
    vec, evaluation, _ = _project(z.vec.tolist(), model, stats)
    return z if evaluation is None else PhaseState(vec=np.array(vec))


def _project(vec, model, stats):
    """project_state on a list: the projected list, the evaluation
    (fields, calP, pieces) of its last pass and its values T, or the
    spinless list as it is, None and None."""
    if not any(vec[8:]):
        return vec, None, None
    if not all(map(math.isfinite, vec)):
        raise ValueError("cannot project a state with non-finite components in slots "
                         f"{[i for i, v in enumerate(vec) if not math.isfinite(v)]}")
    tol = PROJECTION_TOL * (1.0 + model.mc2)
    fields = field_data(model, vec[:4])
    head = vec[:8]
    errs = []
    while True:
        P, pieces = _kernel(vec, model, fields)
        T = t_values(vec, P, model)
        errs.append(max(map(abs, T)))
        if errs[-1] < tol:
            if stats is not None:
                stats["projection_steps"] = stats.get("projection_steps", 0) + len(errs) - 1
                stats["max_residual_before_projection"] = max(
                    stats.get("max_residual_before_projection", 0.0), errs[0])
            return vec, (fields, P, pieces), T
        if len(errs) > 1 and not errs[-1] < errs[-2]:
            break
        w, q = vec[8:12], vec[12:]
        pp = mdot(P, P)   # T3 = calP.omega, T4 = calP.pi
        w1 = [wi - T[1] / pp * Pi for wi, Pi in zip(w, P)]
        q1 = [qi - T[2] / pp * Pi for qi, Pi in zip(q, P)]
        ww = mdot(w1, w1)
        if not ww > SPIN_FLOOR * sum(v * v for v in w):
            raise ValueError(f"omega is parallel to calP to rounding (omega^2 = {ww:.3e} "
                             "after removing its calP component); cannot project")
        u = mdot(w1, q1) / ww
        q1 = [qi - u * wi for qi, wi in zip(q1, w1)]
        qq = mdot(q1, q1)
        if not qq > SPIN_FLOOR * sum(v * v for v in q):
            raise ValueError(f"pi lies in the plane of omega and calP to rounding "
                             f"(pi^2 = {qq:.3e} after removing both); cannot project")
        s = math.sqrt(math.sqrt(model.alpha / (ww * qq)))
        vec = head + [s * v for v in w1 + q1]
    if stats is not None:
        stats["projection_failure"] = {"residual": errs[0], "best": min(errs),
                                       "passes": len(errs) - 1}
    raise RuntimeError(f"constraint projection did not converge: pass {len(errs) - 1} "
                       f"no longer shrank the residual; max residual {errs[0]:.3e} "
                       f"before, {min(errs):.3e} at best, tolerance {tol:.1e}")


# ---------------------------------------------------------------------------
# integrator

PROJECT_EVERY = 25   # rk4 steps between projections, besides recording times


def _rk4_step(f, y, h, k1):
    """One classical rk4 step of y' = f(y) on a list of floats, returning
    a new list; k1 is f(y), which the caller makes.  The stages are
    y + (h/2) k and y + h k, and the step
    y + (h/6) (((k1 + 2 k2) + 2 k3) + k4), elementwise in the operation
    order of the numpy form (tests/oracles.rk4_step), so both give the
    same bits."""
    a = 0.5 * h
    k2 = f([u + a * k for u, k in zip(y, k1)])
    k3 = f([u + a * k for u, k in zip(y, k2)])
    k4 = f([u + h * k for u, k in zip(y, k3)])
    b = h / 6.0
    return [u + b * (((p + 2.0 * q) + 2.0 * r) + s)
            for u, p, q, r, s in zip(y, k1, k2, k3, k4)]


@dataclass
class Trajectory:
    t: np.ndarray
    Z: np.ndarray
    model: object
    stats: dict = field(default_factory=dict)
    rows: dict = field(default_factory=dict)   # record index -> row its projection made

    def state(self, k):
        return PhaseState(vec=self.Z[k].copy())

    def channels(self):
        """Named scalar time series for output and diagnostics (cached).

        A float pass over the recorded states not in self.rows gives
        calP, the constraint values and H from one field evaluation, one
        kernel call and t_values each (A^0 read from the field's float
        tuples); one spin_tensor call then writes the spin tensors of
        all states, and
        one spin_readouts call on the stack gives their spin read-outs.
        A spinless state reads zero in every spin and constraint channel.
        The first call also writes the energy drift of the H channel to
        stats["energy_drift"].  The keys, in their order, are the columns
        of the simulate command.
        """
        if getattr(self, "_channels", None) is not None:
            return self._channels
        start = time.perf_counter()
        model, Z = self.model, self.Z
        out = {"t": self.t, **dict(zip(("x1", "x2", "x3"), Z[:, 1:4].T))}
        rows = []
        for k, vec in enumerate(Z.tolist()):
            row = self.rows.get(k)
            if row is None:
                fields = field_data(model, vec[:4])
                P, _ = _kernel(vec, model, fields)
                row = _channel_row(model, fields, P, t_values(vec, P, model))
            rows.append(row)
        rows = np.array(rows)
        P, T, H = rows[:, :4], rows[:, 4:8], rows[:, 8]
        spin = Z[:, 8:].any(axis=1)
        S = np.where(spin[:, None, None], spin_tensor(Z[:, 8:12], Z[:, 12:]), 0.0)
        S3, D3, SS = spin_readouts(S)
        spin2 = np.where(spin, SS - 8.0 * model.alpha, 0.0)
        out.update(zip(("P0", "P1", "P2", "P3"), P.T))
        out.update(zip(("S1", "S2", "S3"), S3.T))
        out.update(zip(("D1", "D2", "D3"), D3.T))
        out["H"] = H
        out.update(zip(CONSTRAINT_NAMES, T.T))
        out["spin2"] = spin2
        self._channels = out
        self.stats["energy_drift"] = float(np.max(np.abs(H - H[0])) / abs(H[0]))
        self.stats["channels_s"] = time.perf_counter() - start
        return out

    def energy_drift(self):
        """Largest |H - H(t0)| / |H(t0)| over the recorded states."""
        self.channels()
        return self.stats["energy_drift"]

    def constraint_drift(self):
        ch = self.channels()
        return {k: float(np.max(np.abs(ch[k]))) for k in (*CONSTRAINT_NAMES, "spin2")}


def _channel_row(model, fields, P, T):
    """(calP, T, H = c calP^0 + e A^0) of one state in Trajectory.channels."""
    return (*P, *T, model.c * P[0] + model.e * fields[0][0])


def _grid(t0, t_final, dt, record_every):
    """(whole steps of dt, steps) from t0 to t_final; ValueError as in integrate."""
    for name, value in (("t0", t0), ("t_final", t_final), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    if not (isinstance(record_every, numbers.Integral) and not isinstance(record_every, bool)
            and record_every >= 1):
        raise ValueError(f"record_every must be a positive integer, got {record_every!r}")
    ratio = (t_final - t0) / dt
    if ratio < 0.0:
        raise ValueError(f"dt = {dt} points away from t_final = {t_final} (t0 = {t0})")
    if not math.isfinite(ratio):
        raise ValueError(f"dt = {dt} is too small for a finite step count "
                         f"from t0 = {t0} to t_final = {t_final}")
    n_full = int(round(ratio))
    short = abs(ratio - n_full) > 1e-9 * max(1.0, abs(ratio))
    if short:
        n_full = int(np.floor(ratio))
    return n_full, n_full + int(short)


def integrate(model, z0, t_final, dt, t0=0.0, record_every=1, project=True):
    """Advance z0 from t0 to t_final by rk4 steps of dt, recording every
    record_every steps and applying ``project_state`` at recording times
    and every PROJECT_EVERY steps.  stats["rhs_evals"] counts four per
    step, the first stages a projection evaluated included.

    A right-hand side or a projection that refuses the state
    (ValueError) or a projection that stalls (RuntimeError) ends the run;
    the error keeps its type and message and carries the run's stats, its
    "rhs_evals" those of the completed steps, as ``exc.stats``, with
    "failed_step" (counted from 1) and "t" (its end time) added, and
    "projection_failure" after a stall.  The run ends at t_final: when
    (t_final - t0)/dt is not an integer to rounding, it takes
    floor((t_final - t0)/dt) steps of dt and one shorter last step, which
    is always recorded.  dt < 0 runs backward to t_final < t0, and
    t_final == t0 records z0 alone.

    ValueError, naming the argument: a non-finite t0, t_final or dt, a
    zero dt, a dt that points away from t_final or is too small for a
    finite step count, and a record_every that is not a positive
    integer (a bool included).
    """
    start = time.perf_counter()
    n_full, n_steps = _grid(t0, t_final, dt, record_every)
    ts = [t0]
    zs = [z0.vec.copy()]
    stats = {"n_steps": n_steps, "projections": 0, "rhs_evals": 0,
             "projection_steps": 0, "max_residual_before_projection": 0.0}

    rows = {}
    rhs = lambda v: dirac_rhs(v, model)   # cheaper to call than functools.partial
    y = z0.vec.tolist()
    evaluation = None   # of y, when a projection pass has just made it
    for k in range(1, n_steps + 1):
        h = dt if k <= n_full else t_final - (t0 + n_full * dt)
        t = t0 + k * dt if k <= n_full else t_final
        try:
            y = _rk4_step(rhs, y, h, dirac_rhs(y, model, evaluation))
            stats["rhs_evals"] += 4
            evaluation = None
            if project and (k % PROJECT_EVERY == 0 or k % record_every == 0):
                y, evaluation, T = _project(y, model, stats)
                stats["projections"] += 1
        except (RuntimeError, ValueError) as exc:
            stats["failed_step"], stats["t"] = k, t
            exc.stats = stats
            raise
        if k % record_every == 0 or k == n_steps:
            if evaluation is not None:
                rows[len(zs)] = _channel_row(model, evaluation[0], evaluation[1], T)
            ts.append(t)
            zs.append(np.array(y))

    stats["stepping_s"] = time.perf_counter() - start
    return Trajectory(t=np.array(ts), Z=np.array(zs), model=model, stats=stats, rows=rows)


# ---------------------------------------------------------------------------
# diagnostics


def linear_rate(t, angle):
    """Least-squares slope; robust readout of a secular precession.
    Fewer than two distinct times fix no slope and are refused."""
    if np.unique(t).size < 2:
        raise ValueError(f"a rate needs two distinct times, got t = {np.unique(t).tolist()}")
    A = np.vstack([t, np.ones_like(t)]).T
    slope, _ = np.linalg.lstsq(A, angle, rcond=None)[0]
    return float(slope)


def spin_plane_rate(traj):
    """Secular rotation rate of the spin projection in the (S1, S2) plane.
    ValueError at the first record where that projection is at most
    1e-12 |S|: zero (no spin, or a spin on S3) or the rounding of a
    direction on S3 (0.1 to 2 eps of |S|), whose angle is noise; a tilt
    of 1e-9 off S3 reads its rate."""
    ch = traj.channels()
    inplane = np.hypot(ch["S1"], ch["S2"])
    norm = np.hypot(inplane, ch["S3"])
    flat = inplane <= 1e-12 * norm
    if flat.any():
        k = int(flat.argmax())   # the first flat record
        raise ValueError(f"the spin at record {k} (t = {traj.t[k]}) has no (S1, S2) part to "
                         f"turn: |(S1, S2)| = {inplane[k]:.3e} at |S| = {norm[k]:.3e}")
    return linear_rate(traj.t, np.unwrap(np.arctan2(ch["S2"], ch["S1"])))


def orbit_averages(traj):
    """Time-averaged 1/r^3 and L_z = (x cross P)_3 along the run."""
    ch = traj.channels()
    r = np.sqrt(ch["x1"] ** 2 + ch["x2"] ** 2 + ch["x3"] ** 2)
    Lz = ch["x1"] * ch["P2"] - ch["x2"] * ch["P1"]
    return {"inv_r3": float(np.mean(r ** -3)), "Lz": float(np.mean(Lz)),
            "r_min": float(np.min(r)), "r_max": float(np.max(r))}

