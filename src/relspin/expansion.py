"""Low-energy limit: expanded Hamiltonian, expanded brackets, and the
coordinate change that makes positions commute again.

Everything here is accurate through order 1/c^2 relative to the leading
term of each quantity.  The expanded bracket table is checked against
the exact Dirac brackets on a ladder of growing c with the physical
data (momentum, spin, fields) held fixed: each residual, multiplied by
the quoted power c^k, must still fall as c doubles, which pins the
order of the first neglected term.  The exact table is the direct one
of brackets, on its physical rows x, calP and S^{ij}, with the spin
three-vector S_k = S^{ij}/2 of phase.spin_readouts taken as exact
multiples of the S^{ij} rows.  The expanded Hamiltonian and table read
the rung's brackets.dirac_core, so a rung evaluates its state once.

The primed chart, with the shift built on the kinetic momentum,

    P = P' - (e/c) A(x'),   x = x' - (P x S')/(2 m^2 c^2),   S = S'

has canonically commuting positions at this order; its practical payoff
appears on the quantum side, where the same shift moves the spin-orbit
coupling strength from g to (g - 1).
"""

from __future__ import annotations

import numpy as np

from .fields import make_background
from .minkowski import EPS3, extract_EB
# field_data is read by no function here; it stays bound because the
# benchmark tracer (perfbench/tracer.py) wraps it in every module that
# names it, and its test expects this module among them
from .phase import Model, field_data, init_state, spin_readouts  # noqa: F401
from .brackets import PHYSICAL_OBSERVABLES, SPIN_INDEX_PAIRS, dirac_core

LADDER_ORDERS = {"xx": 2, "xP": 2, "xS": 1, "PP": 3, "PS": 2, "SS": 1}

# the table's rows among the physical rows of brackets, with exact
# factors: x, calP, and S_k = (S^{23}, -S^{13}, S^{12}) / 2
_LADDER_ROWS = (*range(6), *(6 + SPIN_INDEX_PAIRS.index(ij)
                             for ij in ((2, 3), (1, 3), (1, 2))))
_LADDER_FACTORS = np.array([1.0] * 6 + [0.5, -0.5, 0.5])[:, None]
_LADDER_BLOCKS = {"x": slice(0, 3), "P": slice(3, 6), "S": slice(6, 9)}


# ---------------------------------------------------------------------------
# expanded Hamiltonian


def hamiltonian_expanded(core, model):
    """Rest energy, kinetic terms, potential, and the spin couplings at
    the core's state.

    H = m c^2 + P^2/2m - P^4/8 m^3 c^2 + e A^0
        + (e g / 2 m c) [ S.(P x E)/(m c) - B.S ]
    """
    m, c, e, g = model.m, model.c, model.e, model.g
    P = core.P[1:]
    p2 = float(P @ P)
    E, B = extract_EB(core.fd.F)
    S = spin_readouts(core.S)[0]
    out = m * c**2 + p2 / (2 * m) - p2**2 / (8 * m**3 * c**2) + e * core.fd.A[0]
    out += (e * g / (2 * m * c)) * (float(S @ np.cross(P, E)) / (m * c)
                                    - float(B @ S))
    return float(out)


# ---------------------------------------------------------------------------
# expanded bracket table (leading order of each pair family)


def expanded_brackets(core, model):
    """Leading-order bracket table at the core's state: {family: 3x3} over
    LADDER_ORDERS, the entry [i-1, j-1] of family "ab" being {a_i, b_j}
    of the 3-vectors x, P and S (xS is {x_i, S_j}, PS is {P_i, S_j})."""
    m, c, e = model.m, model.c, model.e
    S = spin_readouts(core.S)[0]
    P = core.P[1:]
    _, B = extract_EB(core.fd.F)
    eps_S = EPS3 @ S
    return {"xx": eps_S / (m * c) ** 2,
            "xP": np.eye(3),
            "xS": (np.outer(P, S) - float(P @ S) * np.eye(3)) / (m * c) ** 2,
            "PP": (e / c) * (EPS3 @ B),
            "PS": np.zeros((3, 3)),
            "SS": eps_S}


def _ladder_state(c, background, m=1.0, g=2.0):
    if background == "crossed":
        bg = make_background("crossed", e=1.0, c=c, E=(0.2, 0.0, 0.1),
                             B=(0.0, 0.0, 1.0))
        x3 = (0.3, -0.2, 0.5)
    elif background == "coulomb":
        bg = make_background("coulomb", e=1.0, c=c, q=1.0)
        x3 = (1.6, -0.8, 1.1)
    else:
        raise ValueError(f"no ladder preset for background {background!r}")
    model = Model(background=bg, m=m, g=g)
    z = init_state(model, x3=x3, P3=(0.4, 0.3, -0.2), spin_dir=(0.3, -1.0, 0.5))
    return model, z


def bracket_ladder(background="crossed", cs=(10.0, 20.0, 40.0, 80.0)):
    """Residuals of the expanded table on a ladder of c values.

    Returns {family: {"residuals": [...], "scaled": [...], "order": k}}
    where scaled[n] = residual[n] * c_n^k must decrease strictly (down
    to a floating-point floor) if the table captures every term below
    order c^{-k}.
    """
    out = {fam: {"residuals": [], "order": k, "cs": list(cs)}
           for fam, k in LADDER_ORDERS.items()}
    h_res = []
    for c in cs:
        model, z = _ladder_state(c, background)
        core = dirac_core(z, model)
        G = _LADDER_FACTORS * np.array([PHYSICAL_OBSERVABLES[n].grad(z, model)
                                        for n in _LADDER_ROWS])
        D = G @ core.flow(G).T
        h_exact = model.c * core.P[0] + model.e * core.fd.A[0]
        h_res.append(abs(h_exact - hamiltonian_expanded(core, model)))
        for fam, approx in expanded_brackets(core, model).items():
            exact = D[_LADDER_BLOCKS[fam[0]], _LADDER_BLOCKS[fam[1]]]
            out[fam]["residuals"].append(float(np.max(np.abs(exact - approx))))
    for fam, k in LADDER_ORDERS.items():
        out[fam]["scaled"] = [r * c**k for r, c in zip(out[fam]["residuals"], cs)]
    out["H"] = {"residuals": h_res, "order": 2, "cs": list(cs),
                "scaled": [r * c**2 for r, c in zip(h_res, cs)]}
    return out


def ladder_decreasing(entry, floor=1e-12):
    """Strict decrease of the scaled residuals, with an absolute floor
    below which rounding noise is not adjudicated."""
    s = entry["scaled"]
    return all(b < a or (a < floor and b < floor) for a, b in zip(s, s[1:]))


# ---------------------------------------------------------------------------
# the commuting-coordinates chart


def from_primed(xp, Pp, Sp, model):
    """Map primed (canonical) data to physical (x, P, S).

    P is the kinetic momentum, P = P' - (e/c) A(x'), and the position
    shift is built on it, x = x' - (P x S')/(2 m^2 c^2), as the spin
    shift of quantum's xhat is built on p - e cinv A(x); spin is
    untouched.
    """
    xp = np.asarray(xp, float)
    Sp = np.asarray(Sp, float)
    m, c, e = model.m, model.c, model.e
    P = np.asarray(Pp, float) - (e / c) * model.background.A(np.array([0.0, *xp]))[1:]
    x = xp - np.cross(P, Sp) / (2.0 * m**2 * c**2)
    return x, P, Sp.copy()


def primed_shift_example(model, P3=(1.0, 0.0, 0.0), S3=(0.0, 0.0, np.sqrt(3) / 2)):
    """Reference displacement of the chart at momentum P and spin S.

    With P along x1 and S along x3 of length sqrt(3)/2 (so the 12 spin
    tensor component is sqrt(3)), at m = 1, c = 10 the second coordinate
    obeys x'_2 - x_2 = -sqrt(3)/400.
    """
    shift = -np.cross(np.asarray(P3, float), np.asarray(S3, float))
    shift /= 2.0 * model.m**2 * model.c**2
    # x = x' + shift  <=>  x' - x = -shift
    return {"x_minus_xprime": shift.tolist(),
            "xprime_minus_x": (-shift).tolist()}
