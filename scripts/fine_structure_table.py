"""Hydrogen fine structure with the realized (g-1) spin-orbit coupling.

Prints the alpha^4 shifts for n <= n_max next to the Sommerfeld closed
form, then the 2p doublet splitting and what a bare-g coupling would
have produced instead (a factor ~2 overshoot at g = 2).
"""

import argparse

from relspin.cli import _int_at_least
from relspin.hydrogen import (HydrogenModel, fine_structure_table,
                              p_level_splitting, p_level_splitting_naive)

# the spectroscopic letters of l = 0, 1, ...: alphabetical after f, skipping
# j and the letters already used, p and s
L_NAMES = "spdfghiklmnoqrtuvwxyz"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=_int_at_least(1), default=4)
    ap.add_argument("--g", type=float, default=2.0)
    args = ap.parse_args()
    if args.n_max > len(L_NAMES):
        ap.error(f"argument --n-max: must be at most {len(L_NAMES)} (l = {len(L_NAMES)} "
                 f"has no spectroscopic letter), got {args.n_max}")

    hm = HydrogenModel(g=args.g)
    print(f"g = {hm.g}, energies in eV; s rows carry no spin-orbit piece "
          f"and are not matched against the closed form")
    print(f"{'level':>8} {'kinetic':>13} {'spin-orbit':>13} {'total':>13} "
          f"{'closed form':>13} {'defect':>10}")
    for row in fine_structure_table(hm, n_max=args.n_max):
        tag = f"{row['n']}{L_NAMES[row['l']]}{int(2 * row['j'])}/2"
        somm = "" if row["sommerfeld"] is None else f"{row['sommerfeld']:13.6e}"
        defect = "" if row["defect"] is None else f"{row['defect']:10.1e}"
        print(f"{tag:>8} {row['kinetic']:13.6e} {row['spin_orbit']:13.6e} "
              f"{row['total']:13.6e} {somm:>13} {defect:>10}")

    split = p_level_splitting(hm, n=2)
    naive = p_level_splitting_naive(hm, n=2)
    print(f"\n2p3/2 - 2p1/2 = {split:.6e} eV "
          f"(measured fine structure ~4.53e-5 eV)")
    print(f"bare-g coupling would give {naive:.6e} eV, "
          f"ratio {naive / split:.3f}")


if __name__ == "__main__":
    main()
