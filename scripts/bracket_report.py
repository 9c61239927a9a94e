"""Bracket verification sweep over the background catalog."""

import argparse
import math

import numpy as np

from relspin.brackets import (aux_table_report, closed_vs_direct_report,
                              defining_property_report)
from relspin.cli import _int_at_least
from relspin.fields import make_background
from relspin.phase import Model, random_constrained_state

CATALOG = {
    "zero": {},
    "uniform-E": {"E": (0.3, -0.1, 0.2)},
    "uniform-B": {"B": (0.1, 0.4, -0.3)},
    "crossed": {"E": (0.2, 0.0, 0.1), "B": (0.0, 0.0, 1.0)},
    "coulomb": {"q": 1.0},
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--states", type=_int_at_least(1), default=50)
    ap.add_argument("--seed", type=_int_at_least(0), default=0)
    ap.add_argument("--g", type=float, default=2.3)
    args = ap.parse_args()
    if not math.isfinite(args.g):
        ap.error(f"argument --g: must be finite, got {args.g}")

    print(f"{args.states} random constrained states per background, "
          f"g = {args.g}")
    for kind, params in CATALOG.items():
        bg = make_background(kind, e=1.0, c=10.0, **params)
        model = Model(background=bg, m=1.0, g=args.g, alpha=0.75)
        rng = np.random.default_rng(args.seed)
        states = [random_constrained_state(model, rng)
                  for _ in range(args.states)]
        defining = defining_property_report(states, model)
        closed = closed_vs_direct_report(states, model)
        aux = aux_table_report(states, model)
        print(f"\n[{kind}]")
        print(f"  defining property  max |{{T_a, X}}_D| / (1 + |{{T_a, X}}|) = {defining:.3e}")
        worst_fam = list(closed)[np.argmax(list(closed.values()))]
        print(f"  closed vs direct   worst family {worst_fam} = "
              f"{closed[worst_fam]:.3e}")
        print(f"  aux table          resolved dev "
              f"{np.max(list(aux['resolved_max_dev'].values())):.3e}; defective "
              f"energy-row variant off by "
              f"{aux['transcribed_energy_row_max_dev']:.3e}")
    print("\nresolved energy-row coefficients: gradient g/4, dipole g")


if __name__ == "__main__":
    main()
