"""bracket-sweep: the three bracket reports on one random constrained state.

Items alternate between a Coulomb background (field gradients make every
closed-form coefficient block nontrivial) and crossed uniform fields.
This path runs brackets and Observable.grad and never touches the
integrator or the Weyl engine.
"""

from __future__ import annotations

import numpy as np

from relspin import brackets
from relspin.fields import make_background
from relspin.phase import Model, random_constrained_state

CYCLE = 1
POOL = 24                     # states built per background and seed
BACKGROUNDS = (("coulomb", {"q": 1.0}),
               ("crossed", {"E": (0.2, 0.0, 0.1), "B": (0.0, 0.0, 1.0)}))

DEFINING_TOL = 1e-10
CLOSED_TOL = 1e-8
AUX_TOL = 1e-8
# the defective transcribed energy row must stay visibly off the oracle
TRANSCRIBED_MIN_DEV = 1e-6


def build(seed):
    """(model, state) pairs, alternating backgrounds."""
    rng = np.random.default_rng(seed)
    per_bg = []
    for kind, params in BACKGROUNDS:
        bg = make_background(kind, e=1.0, c=10.0, **params)
        model = Model(background=bg, m=1.0, g=2.3, alpha=0.75)
        per_bg.append([(model, random_constrained_state(model, rng))
                       for _ in range(POOL)])
    return [pair for group in zip(*per_bg) for pair in group]


def run(items, i, tracer=None):
    model, z = items[i % len(items)]
    return {"defining": brackets.defining_property_report([z], model),
            "closed_vs_direct": brackets.closed_vs_direct_report([z], model),
            "aux": brackets.aux_table_report([z], model)}


def check_reports(defining, closed_vs_direct, aux):
    """The gate on the three reports, also applied to `relspin brackets`."""
    if not defining <= DEFINING_TOL:
        return f"defining property {defining:.3e} > {DEFINING_TOL}"
    worst = max(closed_vs_direct.values())
    if not worst <= CLOSED_TOL:
        return f"closed vs direct {worst:.3e} > {CLOSED_TOL}"
    resolved = max(aux["resolved_max_dev"].values())
    if not resolved <= AUX_TOL:
        return f"aux table resolved deviation {resolved:.3e} > {AUX_TOL}"
    bad = aux["transcribed_energy_row_max_dev"]
    if not bad >= TRANSCRIBED_MIN_DEV:
        return (f"transcribed energy row deviates only {bad:.3e}; the "
                "adjudication no longer separates it")
    return None


def check(items, i, res, previous):
    return check_reports(res["defining"], res["closed_vs_direct"], res["aux"])


def check_all(items, results):
    return None


def probe(items, tracer):
    """Work counts of the seed's first state (run under tracer)."""
    run(items, 0)
    return {"gradients": tracer.calls.get("phase.observable_grad", 0),
            "dirac_brackets": tracer.calls.get("brackets.dirac_bracket", 0),
            "states": 1}
