"""Hydrogen-like fine structure from the Pauli-level realization.

The level shifts carry two pieces at order alpha^4: the kinetic
p^4 correction and the spin-orbit coupling whose strength is
e (g - 1) / 2 m^2 c^2 after the noncommutative position shift has been
folded into the potential (module quantum).  For the Coulomb field the
symmetrized operator S.(P x E) reduces exactly to -(q/r^3) S.L; the
ordering corrections cancel in the epsilon contraction.

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

Radial matrix elements come from closed forms; an independent Numerov
integration of the radial equation (O(h^4), uniform grid) reproduces
them to 1e-6 and backs the p^4 reduction <p^4> = 4 m^2 <(E-V)^2>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHA_FS = 7.2973525693e-3
MC2_EV = 510998.95


@dataclass(frozen=True)
class HydrogenModel:
    alpha: float = ALPHA_FS
    mc2: float = MC2_EV   # rest energy in the output energy unit
    g: float = 2.0


# ---------------------------------------------------------------------------
# closed-form radial expectation values (Bohr units: a = 1, energies in
# units of hbar^2 / m a^2, so E_n = -1/2n^2)


def radial_expectations_closed(n, l):
    if not (0 <= l < n):
        raise ValueError(f"need 0 <= l < n, got n={n}, l={l}")
    out = {
        "inv_r": 1.0 / n**2,
        "inv_r2": 1.0 / ((l + 0.5) * n**3),
    }
    if l >= 1:
        out["inv_r3"] = 1.0 / (l * (l + 0.5) * (l + 1) * n**3)
    E = -0.5 / n**2
    out["p4"] = 4.0 * (E**2 + 2.0 * E * out["inv_r"] + out["inv_r2"])
    return out


# ---------------------------------------------------------------------------
# Numerov oracle


def _numerov_sweep(f, h, u0, u1):
    """March u'' = f u with the three-point O(h^4) recurrence."""
    u = np.empty_like(f)
    u[0], u[1] = u0, u1
    w = 1.0 - (h * h / 12.0) * f
    for k in range(1, len(f) - 1):
        u[k + 1] = ((12.0 - 10.0 * w[k]) * u[k] - w[k - 1] * u[k - 1]) / w[k + 1]
    return u


def radial_expectations_numerov(n, l, h=0.01, r_max=None):
    """Bound-state expectation values from a direct grid solution.

    The energy is the known eigenvalue; outward and inward sweeps are
    glued at the wavefunction peak region, so no shooting is needed.
    """
    if not (1 <= l < n):
        raise ValueError("the oracle covers l >= 1 (s states have no "
                         "spin-orbit row to check)")
    if r_max is None:
        r_max = max(60.0, 14.0 * n * n)
    E = -0.5 / n**2
    r = np.arange(h, r_max + h / 2, h)
    f = l * (l + 1) / r**2 - 2.0 / r - 2.0 * E

    m_idx = int(np.argmin(np.abs(r - n * n)))  # inside the classical region
    # series seeds u ~ r^{l+1} (1 - r/(l+1)) limit irregular admixture
    seed = lambda rr: rr ** (l + 1) * (1.0 - rr / (l + 1))
    u_out = _numerov_sweep(f[: m_idx + 2], h, seed(r[0]), seed(r[1]))

    fr = f[::-1]
    kappa = 1.0 / n
    u_in_rev = _numerov_sweep(fr[: len(r) - m_idx + 1], h,
                              np.exp(-kappa * r[-1]),
                              np.exp(-kappa * r[-2]))
    u_in = u_in_rev[::-1]

    # u_in[k] lives at original grid index m_idx - 1 + k
    scale = u_out[m_idx] / u_in[1]
    u = np.empty_like(r)
    u[: m_idx + 1] = u_out[: m_idx + 1]
    u[m_idx + 1:] = scale * u_in[2:]

    # prepend the origin: every integrand below vanishes there for l >= 1
    r0 = np.concatenate(([0.0], r))
    u0 = np.concatenate(([0.0], u))

    from scipy.integrate import simpson

    def moment(vals):
        return float(simpson(np.concatenate(([0.0], vals)), x=r0))

    u0 = u0 / np.sqrt(moment(u * u))
    u = u0[1:]

    out = {
        "inv_r": moment(u * u / r),
        "inv_r2": moment(u * u / r**2),
        "inv_r3": moment(u * u / r**3),
        "p4": moment(4.0 * (E + 1.0 / r) ** 2 * u * u),
    }
    return out


# ---------------------------------------------------------------------------
# fine-structure shifts (all in the energy unit of HydrogenModel.mc2)


def kinetic_shift(hm, n, l):
    """-<p^4>/8m^3c^2 for level (n, l)."""
    pref = -0.5 * hm.mc2 * hm.alpha**4 / n**4
    return pref * (n / (l + 0.5) - 0.75)


def spin_orbit_shift(hm, n, l, j):
    """Spin-orbit shift with the realized e (g-1) coupling; l >= 1."""
    if l == 0:
        return 0.0
    if not (abs(j - l) == 0.5 and j > 0):
        raise ValueError(f"j must be l +/- 1/2, got l={l}, j={j}")
    ls = 0.5 * (j * (j + 1) - l * (l + 1) - 0.75)
    pref = (hm.g - 1.0) * 0.5 * hm.mc2 * hm.alpha**4 / n**3
    return pref * ls / (l * (l + 0.5) * (l + 1))


def spin_orbit_shift_naive(hm, n, l, j):
    """The same shift if the covariant coupling kept bare g: what the
    spectrum would be without position noncommutativity."""
    if l == 0:
        return 0.0
    ls = 0.5 * (j * (j + 1) - l * (l + 1) - 0.75)
    pref = hm.g * 0.5 * hm.mc2 * hm.alpha**4 / n**3
    return pref * ls / (l * (l + 0.5) * (l + 1))


def level_shift(hm, n, l, j):
    return kinetic_shift(hm, n, l) + spin_orbit_shift(hm, n, l, j)


def sommerfeld_shift(hm, n, j):
    """Frozen oracle for the total alpha^4 shift at g = 2, l >= 1."""
    return -0.5 * hm.mc2 * hm.alpha**4 / n**4 * (n / (j + 0.5) - 0.75)


def p_level_splitting(hm, n=2):
    """E(n p_{3/2}) - E(n p_{1/2}); mc^2 alpha^4 / 32 at g = 2, n = 2."""
    return (level_shift(hm, n, 1, 1.5) - level_shift(hm, n, 1, 0.5))


def p_level_splitting_naive(hm, n=2):
    up = kinetic_shift(hm, n, 1) + spin_orbit_shift_naive(hm, n, 1, 1.5)
    dn = kinetic_shift(hm, n, 1) + spin_orbit_shift_naive(hm, n, 1, 0.5)
    return up - dn


def fine_structure_table(hm=None, n_max=3):
    """Rows (n, l, j): kinetic, spin-orbit, total, Sommerfeld, defect."""
    hm = hm or HydrogenModel()
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
