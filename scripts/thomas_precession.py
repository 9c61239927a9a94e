"""Measure the Thomas factor on a circular Coulomb orbit.

For each g the spin is started in the orbital plane and the secular
rotation rate of its in-plane projection is fit over several orbits.
The per-unit-g reference rate is |e| <L_z> <1/r^3> / (2 m^2 c^2); the
measured rate should sit at (g - 1) times that, not g times.  At g = 1
the covariant coupling is fully eaten by the kinematic piece and the
secular rate collapses to ~0.
"""

import argparse
import sys

import numpy as np

from relspin.dynamics import integrate, orbit_averages, spin_plane_rate
from relspin.fields import make_background
from relspin.phase import Model, init_state

P_CIRC = 0.5003125975951672   # circular at r = 4 for m = 1, c = 10, q = 1
R_ORB = 4.0


def run(g, orbits, dt):
    bg = make_background("coulomb", e=-1.0, c=10.0, q=1.0)
    model = Model(background=bg, m=1.0, g=g, alpha=0.75)
    z0 = init_state(model, x3=(R_ORB, 0.0, 0.0), P3=(0.0, P_CIRC, 0.0),
                    spin_dir=(1.0, 0.0, 0.0))
    t_orb = 2.0 * np.pi * R_ORB / 0.5
    traj = integrate(model, z0, orbits * t_orb, dt, record_every=2)
    av = orbit_averages(traj)
    base = abs(model.e) * abs(av["Lz"]) * av["inv_r3"] / (2.0 * model.m**2
                                                          * model.c**2)
    om = spin_plane_rate(traj)
    drift = max(traj.constraint_drift().values())
    return om, base, traj.energy_drift(), drift


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--orbits", type=float, default=8.0)
    ap.add_argument("--dt", type=float, default=0.1)
    ap.add_argument("--g", type=float, nargs="+",
                    default=[1.0, 1.5, 2.0, 2.6])
    args = ap.parse_args()

    print(f"beta = {0.5 / 10.0:.3f}, r = {R_ORB}, {args.orbits:g} orbits, "
          f"dt = {args.dt}")
    print(f"{'g':>5} {'rate':>13} {'(g-1)*base':>13} {'g*base':>13} "
          f"{'rate/base':>10} {'E drift':>9} {'constr':>9}")
    for g in args.g:
        try:
            om, base, edrift, cdrift = run(g, args.orbits, args.dt)
        except ValueError as exc:   # e.g. a run too short to fit a rate over
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"{g:5.2f} {om:13.6e} {(g - 1.0) * base:13.6e} "
              f"{g * base:13.6e} {om / base:10.4f} {edrift:9.1e} "
              f"{cdrift:9.1e}")
    print("rate/base tracking g - 1 (not g) is the Thomas half")
    return 0


if __name__ == "__main__":
    sys.exit(main())
