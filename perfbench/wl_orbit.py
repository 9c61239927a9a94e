"""orbit-ensemble: spinning Coulomb orbits, one rk4 integrate per item.

Each item integrates a circular orbit at beta ~ 0.05 for about two
revolutions with sparse recording and reads out the secular in-plane
spin precession rate.  g and the spin direction are drawn from the seed.
The ensemble gate fits rate/base against g: it must follow g - 1 (the
Thomas half), not g.
"""

from __future__ import annotations

import numpy as np

from relspin import dynamics
from relspin.fields import make_background
from relspin.phase import Model, init_state

CYCLE = 1
ENSEMBLE = 16                 # orbits built per seed; items cycle through them
P_CIRC = 0.5003125975951672   # circular at r = 4 for m = 1, c = 10, q = 1
R_ORB = 4.0
DT = 0.25                     # a power of two, so t_final is a whole step count
N_STEPS = 400                 # ~1.99 revolutions of period 50.3
RECORD_EVERY = 5
G_RANGE = (1.0, 3.0)

ENERGY_DRIFT_TOL = 1e-8
CONSTRAINT_DRIFT_TOL = 1e-9
SLOPE_TOL = 0.02


def build(seed):
    """One (g, model, initial state) per orbit of the seed's ensemble."""
    rng = np.random.default_rng(seed)
    bg = make_background("coulomb", e=-1.0, c=10.0, q=1.0)
    orbits = []
    lo, hi = G_RANGE
    for j in range(ENSEMBLE):
        # one g per stratum, visited with a stride coprime to ENSEMBLE so
        # that every prefix of the items spreads over the whole range
        k = (5 * j) % ENSEMBLE
        g = float(lo + (hi - lo) * (k + rng.random()) / ENSEMBLE)
        # tilt keeps an in-plane spin component to read the precession from
        theta = rng.uniform(0.25 * np.pi, 0.75 * np.pi)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        spin_dir = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                    np.cos(theta))
        model = Model(background=bg, m=1.0, g=g, alpha=0.75)
        z0 = init_state(model, x3=(R_ORB, 0.0, 0.0), P3=(0.0, P_CIRC, 0.0),
                        spin_dir=spin_dir)
        orbits.append((g, model, z0))
    return orbits


def run(orbits, i, tracer=None):
    g, model, z0 = orbits[i % len(orbits)]
    traj = dynamics.integrate(model, z0, N_STEPS * DT, DT,
                              record_every=RECORD_EVERY)
    av = dynamics.orbit_averages(traj)
    base = (abs(model.e) * abs(av["Lz"]) * av["inv_r3"]
            / (2.0 * model.m ** 2 * model.c ** 2))
    return {"g": g, "rate_over_base": dynamics.spin_plane_rate(traj) / base,
            "energy_drift": traj.energy_drift(),
            "constraint_drift": max(traj.constraint_drift().values()),
            "states": len(traj.t)}


def check(orbits, i, res, previous):
    if not res["energy_drift"] <= ENERGY_DRIFT_TOL:
        return f"energy drift {res['energy_drift']:.3e} > {ENERGY_DRIFT_TOL}"
    if not res["constraint_drift"] <= CONSTRAINT_DRIFT_TOL:
        return (f"constraint drift {res['constraint_drift']:.3e} > "
                f"{CONSTRAINT_DRIFT_TOL}")
    return None


def check_all(orbits, results, reference=lambda g: g - 1.0):
    """Fit rate/base = s g + b over the ensemble against reference(g).

    The fitted line must have the reference's slope within SLOPE_TOL and
    meet it within SLOPE_TOL at g = 2, so a g-weighted reference fails.
    """
    gs = np.array([r["g"] for r in results])
    if len(np.unique(gs)) < 3:
        return "fewer than three distinct g values in the ensemble"
    s, b = np.polyfit(gs, [r["rate_over_base"] for r in results], 1)
    s_ref = reference(3.0) - reference(2.0)
    if abs(s / s_ref - 1.0) > SLOPE_TOL:
        return f"slope of rate/base against g is {s:.4f}, reference {s_ref}"
    at2, ref2 = 2.0 * s + b, reference(2.0)
    if abs(at2 - ref2) > SLOPE_TOL * abs(ref2):
        return f"fitted rate/base at g = 2 is {at2:.4f}, reference {ref2}"
    return None


def probe(orbits, tracer):
    """Work counts of the seed's first orbit (run under tracer)."""
    res = run(orbits, 0)
    return {"rhs_evals": tracer.calls.get("dynamics.dirac_rhs", 0),
            "projections": tracer.calls.get("dynamics.project_state", 0),
            "states": res["states"]}
