"""operator-algebra: the Pauli-level operator checks, one call per item.

A cycle covers the commutator/bracket correspondence report for the four
uniform backgrounds and the two exact identities (criteria 6b and 7).
Its time goes to weyl.Op construction.  The items have no random input,
so the seed has no effect on this workload; runs always cover whole
cycles so that every run does the same work.
"""

from __future__ import annotations

from sympy.core.cache import clear_cache

from relspin import quantum

KINDS = ("free", "uniform-E", "uniform-B", "crossed")
# The two cheap reports run six times per cycle and each identity (faster
# still) once, so that the median item sits in the middle of the twelve
# cheap reports, with two items below and the two heavy reports above,
# instead of on the gap between groups.  The heavy reports take most of
# the cycle; the cheap ones come in three blocks around them, so that
# their median samples the host at the start, middle and end of the run.
CHEAP = ("free", "uniform-E") * 2
ITEMS = (CHEAP + ("g_minus_one", "uniform-B")
         + CHEAP + ("shift_identity", "crossed") + CHEAP)
CYCLE = len(ITEMS)


def build(seed):
    return ITEMS


def run(items, i, tracer=None):
    # sympy memoizes expressions process-wide; without a cleared cache a
    # repeated item would time cache hits instead of the work of one call
    clear_cache()
    item = items[i % len(items)]
    if item == "g_minus_one":
        return quantum.g_minus_one_residual(quantum.build_operators("uniform-E"))
    if item == "shift_identity":
        return quantum.shift_identity_residual(
            quantum.build_operators("uniform-E"))
    return quantum.correspondence_report(item)


def check(items, i, res, previous):
    item = items[i % len(items)]
    if item in KINDS:
        bad = sorted(fam for fam, row in res.items() if not row["ok"])
        return f"{item}: floors violated for {bad}" if bad else None
    return None if res.is_zero() else f"{item} residual is not exactly zero"


def check_all(items, results):
    return None


def probe(items, tracer):
    """Work counts of the free report and the g - 1 identity."""
    run(items, 0)
    run(items, ITEMS.index("g_minus_one"))
    return {"commutators": tracer.calls.get("weyl.commutator", 0),
            "op_inits": tracer.calls.get("weyl.op_init", 0)}
