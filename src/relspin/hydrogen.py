"""Hydrogen-like fine structure from the Pauli-level realization.

The level shifts carry two pieces at order alpha^4: the kinetic
p^4 correction and the spin-orbit coupling whose strength is
e (g - 1) / 2 m^2 c^2 after the noncommutative position shift has been
folded into the potential (module quantum).  For the Coulomb field the
symmetrized operator S.(P x E) reduces exactly to -(q/r^3) S.L, since
the epsilon contraction kills [P_j, E_k].  That the shift of A^0(xhat)
leaves this operator alone at cinv^2 is checked in quantum for linear
A^0 only; for the Coulomb potential it holds with A^0(xhat) Weyl-ordered,
which this module assumes (ROADMAP.md, "The operator identity on
non-uniform potentials").

At g = 2 the sum of both pieces collapses, for every j branch with
l >= 1, to the Sommerfeld form

    dE = -(m c^2 alpha^4 / 2 n^4) (n/(j+1/2) - 3/4),

which this module uses as the frozen oracle.  A covariant coupling
proportional to bare g instead of g - 1 would double the 2p splitting;
that comparison is exposed for the tests and the CLI.

s levels are excluded from the spin-orbit table: the vector model at
this order produces no contact (Darwin-like) term, so l = 0 shifts
carry the kinetic piece only and the Sommerfeld match is not claimed
there.

The shifts use closed-form radial matrix elements; the tests back them
with an independent Numerov integration of the radial equation (O(h^4),
uniform grid), which reproduces them to 1e-6 and backs the p^4
reduction <p^4> = 4 m^2 <(E-V)^2>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ALPHA_FS = 7.2973525693e-3
MC2_EV = 510998.95


@dataclass(frozen=True)
class HydrogenModel:
    alpha: float = ALPHA_FS
    mc2: float = MC2_EV   # rest energy in the output energy unit
    g: float = 2.0

    def __post_init__(self):
        if not math.isfinite(self.g):
            raise ValueError(f"g must be finite, got {self.g}")
        for name in ("alpha", "mc2"):
            if not (math.isfinite(value := getattr(self, name)) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        try:   # every shift is a multiple of mc2 alpha^4, which must be a number
            scale = self.mc2 * self.alpha**4
        except OverflowError:   # alpha**4 alone is past the float range
            scale = math.inf
        if scale == math.inf:
            raise ValueError(f"the energy scale mc2 * alpha^4 is past the float range: "
                             f"alpha = {self.alpha}, mc2 = {self.mc2}")
        # the prefactor grows with |coupling|: the larger of g - 1 and bare g
        if _so_prefactor(self, max(abs(self.g - 1.0), abs(self.g))) == math.inf:
            raise ValueError(f"g = {self.g} puts the spin-orbit prefactor past the float range")


# ---------------------------------------------------------------------------
# fine-structure shifts (all in the energy unit of HydrogenModel.mc2)


def _level(n, l):
    """ValueError unless (n, l) is a level, whole numbers n >= 1 and
    0 <= l <= n - 1; every shift refuses any other."""
    if not (n % 1 == 0 and l % 1 == 0 and n >= 1 and 0 <= l < n):
        raise ValueError(f"no level n={n}, l={l}: need whole numbers n >= 1 and 0 <= l <= n - 1")


def _alpha4(hm, n, k):
    """-(m c^2 alpha^4 / 2 n^4) (n / (k + 1/2) - 3/4): the kinetic shift at
    k = l and the Sommerfeld shift at k = j."""
    return -0.5 * hm.mc2 * hm.alpha**4 / n**4 * (n / (k + 0.5) - 0.75)


def kinetic_shift(hm, n, l):
    """-<p^4>/8m^3c^2 for level (n, l)."""
    _level(n, l)
    return _alpha4(hm, n, l)


def _so_prefactor(hm, coupling):
    """coupling mc2 alpha^4 / 2, the spin-orbit shift before its 1/n^3."""
    return coupling * 0.5 * hm.mc2 * hm.alpha**4


def _spin_orbit(hm, n, l, j, coupling):
    """Spin-orbit shift of level (n, l, j) for the coupling e (coupling) /
    2 m^2 c^2; zero for l = 0."""
    _level(n, l)
    if l == 0:
        return 0.0
    if not (abs(j - l) == 0.5 and j > 0):
        raise ValueError(f"j must be l +/- 1/2, got l={l}, j={j}")
    ls = 0.5 * (j * (j + 1) - l * (l + 1) - 0.75)
    pref = _so_prefactor(hm, coupling) / n**3
    return pref * ls / (l * (l + 0.5) * (l + 1))


def spin_orbit_shift(hm, n, l, j):
    """Spin-orbit shift with the realized e (g-1) coupling; l >= 1."""
    return _spin_orbit(hm, n, l, j, hm.g - 1.0)


def spin_orbit_shift_naive(hm, n, l, j):
    """The same shift if the covariant coupling kept bare g: what the
    spectrum would be without position noncommutativity."""
    return _spin_orbit(hm, n, l, j, hm.g)


def sommerfeld_shift(hm, n, j):
    """Frozen oracle for the total alpha^4 shift at g = 2, l >= 1."""
    return _alpha4(hm, n, j)


def _p_splitting(hm, coupling):
    kin = kinetic_shift(hm, 2, 1)
    return ((kin + _spin_orbit(hm, 2, 1, 1.5, coupling))
            - (kin + _spin_orbit(hm, 2, 1, 0.5, coupling)))


def p_level_splitting(hm):
    """E(2p_{3/2}) - E(2p_{1/2}); mc^2 alpha^4 / 32 at g = 2."""
    return _p_splitting(hm, hm.g - 1.0)


def p_level_splitting_naive(hm):
    """The same splitting with the bare-g coupling."""
    return _p_splitting(hm, hm.g)


def fine_structure_table(hm, n_max=3):
    """Rows (n, l, j): kinetic, spin-orbit, total, Sommerfeld, defect."""
    rows = []
    for n in range(1, n_max + 1):
        for l in range(0, n):
            js = (0.5,) if l == 0 else (l - 0.5, l + 0.5)
            for j in js:
                kin = kinetic_shift(hm, n, l)
                so = spin_orbit_shift(hm, n, l, j)
                row = {"n": n, "l": l, "j": j, "kinetic": kin,
                       "spin_orbit": so, "total": kin + so}
                if l >= 1:
                    somm = sommerfeld_shift(hm, n, j)
                    row["sommerfeld"] = somm
                    row["defect"] = kin + so - somm
                else:
                    row["sommerfeld"] = None
                    row["defect"] = None
                rows.append(row)
    return rows
