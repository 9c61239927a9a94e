"""Test-only radial expectation values of hydrogen: the closed forms and
an independent Numerov solution of the radial equation that checks them.

Bohr units: a = 1, energies in units of hbar^2 / m a^2, so E_n = -1/2n^2.
"""

import numpy as np
from scipy.integrate import simpson


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
