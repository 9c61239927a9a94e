import os
from pathlib import Path

import numpy as np
import pytest

from relspin.fields import make_background
from relspin.phase import Model, random_constrained_state

# one representative of every catalog background; field strengths kept
# moderate so the energy radicand stays well away from its floor
BACKGROUND_PARAMS = {
    "zero": {},
    "uniform-E": {"E": (0.3, -0.1, 0.2)},
    "uniform-B": {"B": (0.1, 0.4, -0.3)},
    "crossed": {"E": (0.2, 0.0, 0.1), "B": (0.0, 0.0, 1.0)},
    "coulomb": {"q": 1.0},
}


# the catalog plus two fields in which every F^{mu nu} component is
# nonzero, so that a sign slip in any one of them shows
KERNEL_BACKGROUNDS = {**{kind: (kind, params) for kind, params in BACKGROUND_PARAMS.items()},
                      "tilted uniform-B": ("uniform-B", {"B": (0.35, -0.5, 0.3)}),
                      "crossed, all components": ("crossed", {"E": (0.25, -0.3, 0.15),
                                                              "B": (-0.4, 0.2, 0.55)})}

# oracles.linear_background with every entry of E0, K, B0 and G nonzero;
# G's diagonal is of binary fractions, so its trace is exactly zero
LINEAR_FIELD = {"E0": (0.2, -0.1, 0.15),
                "K": ((0.1, 0.05, -0.03), (0.05, -0.08, 0.04), (-0.03, 0.04, 0.06)),
                "B0": (0.3, -0.2, 0.5),
                "G": ((0.25, 0.07, -0.05), (0.07, -0.125, 0.06), (-0.05, 0.06, -0.125))}


def kernel_model(name, spinless):
    """The model of KERNEL_BACKGROUNDS[name] at g = 2.3, spinless when alpha = 0."""
    kind, params = KERNEL_BACKGROUNDS[name]
    return Model(background=make_background(kind, e=1.0, c=10.0, **params),
                 m=1.0, g=2.3, alpha=0.0 if spinless else 0.75)


def build_model(kind, g=2.3, e=1.0, c=10.0, m=1.0, alpha=0.75):
    bg = make_background(kind, e=e, c=c, **BACKGROUND_PARAMS[kind])
    return Model(background=bg, m=m, g=g, alpha=alpha)


def state_batch(model, n, seed=0):
    rng = np.random.default_rng(seed)
    return [random_constrained_state(model, rng) for _ in range(n)]


@pytest.fixture(scope="session")
def catalog():
    # generic g so nothing cancels by accident
    return {kind: build_model(kind) for kind in BACKGROUND_PARAMS}


def src_env():
    """os.environ with the repository's src/ first on PYTHONPATH, for
    tests that start a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         *filter(None, [env.get("PYTHONPATH")])])
    return env
