"""Command line front end.

Subcommands
    simulate   integrate a trajectory, write channel series
    brackets   bracket verification report (closed forms vs. oracle)
    expand     low-energy ladder and commuting-chart report
    spectrum   hydrogen-like fine-structure table

All numeric output is deterministic: same config, same seed, same
bytes.  Exit codes: 0 success, 1 runtime failure, 2 config error (the
message names the offending field or YAML line; a key the subcommand
does not read is one) or an --out or --stats path that cannot be
written, refused before any computation.  SCHEMAS holds every key each
subcommand reads, with its kind, default and lower bound.

Each command imports the modules it runs when it runs: spectrum loads
no numpy, and no command but --selftest loads the operator ring.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import os
import sys
import time

import yaml

from . import hydrogen
from .fields import KINDS, PARAMETERS, make_background

class ConfigError(Exception):
    pass


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


# ---------------------------------------------------------------------------
# config schema


# Each table maps a key, section.name, to (kind, default, lower bound):
# kind is float, int, bool, "vec3" or a tuple of choices; the default is
# a value, REQUIRED, or a function of the keys before it; the bound is
# (">", 0), (">=", 1) or None.
REQUIRED = object()
_BOUNDS = {">": operator.gt, ">=": operator.ge}
_KIND_NAMES = {float: "a finite number", int: "an integer", bool: "a boolean",
               "vec3": "a list of three finite numbers"}

# units, model and background, shared by the commands that build a Model;
# hbar's one effect is alpha's default, the spin one-half value 3 hbar^2 / 4
MODEL_KEYS = {
    "units.c": (float, 10.0, (">", 0)),
    "units.hbar": (float, 1.0, (">", 0)),
    "background.kind": (KINDS, "zero", None),
    "model.e": (float, 1.0, None),
    "model.m": (float, 1.0, (">", 0)),
    "model.g": (float, 2.0, None),
    "model.alpha": (float, lambda cfg: 0.75 * (cfg["units.hbar"] * cfg["units.hbar"]),
                    (">=", 0)),
}

# the parameters each background kind requires, from the one table of fields
BACKGROUND_KEYS = {
    kind: {f"background.{name}": ("vec3" if shape else float, REQUIRED, None)
           for name, shape in params.items()}
    for kind, params in PARAMETERS.items()}

SCHEMAS = {
    "simulate": {
        **MODEL_KEYS,
        "simulate.x0": ("vec3", (0.0, 0.0, 0.0), None),
        "simulate.P0": ("vec3", (0.0, 0.0, 0.0), None),
        "simulate.spin_dir": ("vec3", (0.0, 0.0, 1.0), None),
        "simulate.t_final": (float, REQUIRED, (">", 0)),
        "simulate.dt": (float, REQUIRED, (">", 0)),
        "simulate.record_every": (int, 1, (">=", 1)),
        "simulate.method": (("rk4",), "rk4", None),
        "simulate.project": (bool, True, None),
    },
    "brackets": MODEL_KEYS,
    "expand": {"expand.background": (("crossed", "coulomb"), "crossed", None),
               **MODEL_KEYS},
    "spectrum": {
        "spectrum.alpha_fs": (float, hydrogen.ALPHA_FS, (">", 0)),
        "spectrum.mc2": (float, hydrogen.MC2_EV, (">", 0)),
        "spectrum.g": (float, 2.0, None),
        "spectrum.n_max": (int, 3, (">=", 1)),
    },
}


def _load_yaml(path):
    """The mapping in the YAML file at path; empty for path None."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark else ""
        raise ConfigError(f"config: YAML parse error{where}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a mapping")
    return data


def _is_kind(val, kind):
    if isinstance(kind, tuple):
        return isinstance(val, str) and val in kind
    if kind == "vec3":
        return (isinstance(val, (list, tuple)) and len(val) == 3
                and all(_is_kind(x, float) for x in val))
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            return False
        try:
            return math.isfinite(val)
        except OverflowError:  # an integer beyond the float range
            return False
    return isinstance(val, kind) and (kind is bool or not isinstance(val, bool))


def _value(data, key, spec, cfg):
    """The value of key in data, checked against its table entry spec; a
    default may read the keys already in cfg."""
    kind, default, bound = spec
    section, name = key.split(".")
    node = data.get(section, {})
    if name in node:
        val = node[name]
    elif default is REQUIRED:
        raise ConfigError(f"config: missing required field '{key}'")
    elif callable(default):
        val = default(cfg)
    else:
        val = default
    if not _is_kind(val, kind):
        what = (f"one of {kind}" if isinstance(kind, tuple)
                else _KIND_NAMES[kind])
        raise ConfigError(f"config: field '{key}' must be {what}, got {val!r}")
    if kind == "vec3":
        val = tuple(float(x) for x in val)
    elif kind is float:
        val = float(val)
    if bound and not _BOUNDS[bound[0]](val, bound[1]):
        raise ConfigError(f"config: field '{key}' must be {bound[0]} "
                          f"{bound[1]}, got {val!r}")
    return val


def read_config(path, command):
    """{key: value} for every key of SCHEMAS[command] and the background
    parameters its kind requires, defaults filled in; ConfigError names
    the first section or field that breaks the table."""
    data = _load_yaml(path)
    table = SCHEMAS[command]
    for section, node in data.items():
        if not any(key.startswith(f"{section}.") for key in table):
            raise ConfigError(f"config: unknown or unused field '{section}'")
        if not isinstance(node, dict):
            raise ConfigError(f"config: section '{section}' must be a "
                              f"mapping, got {node!r}")
    if "background.kind" in table:
        kind = _value(data, "background.kind", table["background.kind"], {})
        table = {**table, **BACKGROUND_KEYS[kind]}
    cfg = {}
    for key, spec in table.items():
        cfg[key] = _value(data, key, spec, cfg)
    unknown = [f"{section}.{name}" for section, node in data.items()
               for name in node if f"{section}.{name}" not in table]
    if unknown:
        raise ConfigError(f"config: unknown or unused field '{unknown[0]}'")
    return cfg


def model_from_config(cfg):
    from .phase import Model

    kind = cfg["background.kind"]
    params = {key.split(".")[1]: cfg[key] for key in BACKGROUND_KEYS[kind]}
    bg = make_background(kind, e=cfg["model.e"], c=cfg["units.c"], **params)
    return Model(background=bg, m=cfg["model.m"], g=cfg["model.g"],
                 alpha=cfg["model.alpha"])


# ---------------------------------------------------------------------------
# output


def write_report(args, payload, header, rows):
    """Write to args.out (stdout if unset) the payload as strict JSON for
    --format json, else a CSV of header and rows (cells through _fmt, None
    empty), built whole first: a NaN or infinity in JSON writes nothing."""
    if args.format == "json":
        text = json.dumps(payload, indent=1, allow_nan=False) + "\n"
    else:
        text = "".join(",".join("" if v is None else _fmt(v) for v in row) + "\n"
                       for row in (header, *rows))
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def write_stats(path, stats):
    """The run's stats as a strict JSON sidecar at path, apart from --out."""
    text = json.dumps(stats, indent=1, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def cmd_simulate(args):
    from .dynamics import integrate
    from .phase import init_state

    cfg = read_config(args.config, "simulate")
    model = model_from_config(cfg)
    z0 = init_state(model, x3=cfg["simulate.x0"], P3=cfg["simulate.P0"],
                    spin_dir=cfg["simulate.spin_dir"])
    try:
        traj = integrate(model, z0, cfg["simulate.t_final"], cfg["simulate.dt"],
                         record_every=cfg["simulate.record_every"],
                         project=cfg["simulate.project"])
    except (RuntimeError, ValueError) as exc:
        # a failed projection carries the stats of the run up to it
        if args.stats and hasattr(exc, "stats"):
            try:
                write_stats(args.stats, exc.stats)
            except ValueError as side:   # not strict JSON: the run's error stays
                exc.args = (f"{exc}; --stats not written: {side}",)
        raise
    channels = traj.channels()
    names = list(channels)
    columns = [[float(v) for v in channels[nm]] for nm in names]
    if args.format == "plot":
        # long format for plotting front ends; names[0] is t
        header = ("series", "t", "value")
        rows = ((nm, t, v) for nm, col in zip(names[1:], columns[1:])
                for t, v in zip(columns[0], col))
    else:
        header, rows = names, zip(*columns)
    write_report(args, dict(zip(names, columns)), header, rows)
    if args.stats:
        write_stats(args.stats, traj.stats)
    return 0


def cmd_brackets(args):
    import numpy as np

    from .brackets import (aux_table_report, closed_vs_direct_report,
                           defining_property_report)
    from .phase import random_constrained_state

    model = model_from_config(read_config(args.config, "brackets"))
    rng = np.random.default_rng(args.seed)
    states = [random_constrained_state(model, rng) for _ in range(args.states)]
    report = {
        "background": model.background.kind,
        "seed": args.seed,
        "n_states": args.states,
        "defining_property_max": defining_property_report(states, model),
        "closed_vs_direct_max_rel": closed_vs_direct_report(states, model),
        "aux_table": aux_table_report(states, model),
    }
    aux = report["aux_table"]
    rows = [("defining_property_max", report["defining_property_max"]),
            *((f"closed_vs_direct_{fam}", v)
              for fam, v in report["closed_vs_direct_max_rel"].items()),
            *((f"aux_resolved_{row}", v)
              for row, v in aux["resolved_max_dev"].items()),
            ("aux_transcribed_energy_row", aux["transcribed_energy_row_max_dev"])]
    write_report(args, report, ("quantity", "value"), rows)
    return 0


def cmd_expand(args):
    from . import expansion

    cfg = read_config(args.config, "expand")
    background = cfg["expand.background"]
    model = model_from_config(cfg)
    ladder = expansion.bracket_ladder(background)
    report = {
        "background": background,
        "ladder": {fam: {"cs": ent["cs"], "order": ent["order"],
                         "residuals": ent["residuals"],
                         "scaled": ent["scaled"],
                         "decreasing": expansion.ladder_decreasing(ent)}
                   for fam, ent in ladder.items()},
        "primed_shift_example": expansion.primed_shift_example(model),
    }
    rows = ((fam, float(c), float(r), float(s))
            for fam, ent in report["ladder"].items()
            for c, r, s in zip(ent["cs"], ent["residuals"], ent["scaled"]))
    write_report(args, report, ("family", "c", "residual", "scaled"), rows)
    return 0


def cmd_spectrum(args):
    cfg = read_config(args.config, "spectrum")
    hm = hydrogen.HydrogenModel(alpha=cfg["spectrum.alpha_fs"],
                                mc2=cfg["spectrum.mc2"], g=cfg["spectrum.g"])
    levels = hydrogen.fine_structure_table(hm, cfg["spectrum.n_max"])
    summary = {
        "p_splitting_n2": hydrogen.p_level_splitting(hm),
        "p_splitting_n2_bare_g": hydrogen.p_level_splitting_naive(hm),
    }
    columns = ("kinetic", "spin_orbit", "total", "sommerfeld", "defect")
    rows = ((row["n"], row["l"], float(row["j"]),
             *(None if row[k] is None else float(row[k]) for k in columns))
            for row in levels)
    write_report(args, {"levels": levels, "summary": summary},
                 ("n", "l", "j", *columns), rows)
    return 0


# ---------------------------------------------------------------------------
# self test


def run_selftest():
    """Run each check and print one line per check: PASS or FAIL, the
    name and the measured quantity against its tolerance; each check's
    wall time goes to a line of its own on stderr."""
    import numpy as np

    from . import expansion
    from .brackets import (closed_vs_direct_report, defining_property_report,
                           max_over_states, row_gradients)
    from .dynamics import dirac_rhs
    from .phase import Model, random_constrained_state
    from .quantum import (build_operators, correspondence_report,
                          g_minus_one_residual, shift_identity_residual)

    bg = make_background("coulomb", e=1.0, c=10.0, q=1.0)
    model = Model(background=bg, m=1.0, g=2.0)
    rng = np.random.default_rng(0)
    states = [random_constrained_state(model, rng) for _ in range(3)]
    hm = hydrogen.HydrogenModel()
    ps = build_operators("uniform-E")

    def fine_structure_dev():
        return np.max([abs(row["defect"]) for row in hydrogen.fine_structure_table(hm, 3)
                       if row["defect"] is not None])

    def rhs_dev(core, model):
        """dirac_rhs against DiracCore.flow of grad H, the last row of
        row_gradients, x^0 and p^0 set as in the right-hand side;
        relative to the largest component."""
        want = core.flow(row_gradients(core, model)[-1])
        want[0], want[4] = model.c, 0.0
        return (np.max(np.abs(dirac_rhs(core.z.vec.tolist(), model) - want))
                / np.max(np.abs(want)))

    def ladder_not_decreasing():
        lad = expansion.bracket_ladder("crossed", cs=(10.0, 20.0, 40.0))
        return sum(not expansion.ladder_decreasing(e) for e in lad.values())

    # name, measured quantity, measurement, bound (None: must be exactly 0)
    checks = (
        ("dirac bracket kills the second-class pair", "max_rel",
         lambda: defining_property_report(states, model), 1e-10),
        ("closed forms match the direct oracle", "max_rel",
         lambda: np.max(list(closed_vs_direct_report(states, model).values())), 1e-8),
        ("dirac rhs equals the stacked flow of H", "max_rel",
         lambda: max_over_states(states, model, rhs_dev), 1e-14),
        ("low-energy ladder decreases", "families_not_decreasing",
         ladder_not_decreasing, None),
        ("fine structure matches the frozen oracle", "max_dev",
         fine_structure_dev, 1e-18),
        ("potential shift identity is exact", "residual_terms",
         lambda: len(shift_identity_residual(ps).blocks), None),
        ("spin-orbit coupling carries g-1", "residual_terms",
         lambda: len(g_minus_one_residual(ps).blocks), None),
        ("operator correspondence floors hold", "families_below_floor",
         lambda: sum(not v["ok"]
                     for v in correspondence_report("free").values()), None),
    )

    ok = True
    for name, quantity, measure, bound in checks:
        t0 = time.perf_counter()
        value = measure()
        secs = time.perf_counter() - t0
        passed = value == 0 if bound is None else value < bound
        limit = "(exact)" if bound is None else f"< {bound:g}"
        print(f"{'PASS' if passed else 'FAIL'}  {name}  "
              f"{quantity}={value:.3g} {limit}")
        # wall time varies from run to run; stdout stays byte-identical
        print(f"{name}  {secs:.3f} s", file=sys.stderr)
        ok = ok and passed
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def _int_at_least(low):
    """An argparse type: the integer of its text, refused below low."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {text!r}")
        return n
    return parse


def _unwritable(args):
    """A message naming the first of --out and --stats whose path cannot
    be opened for writing (a directory, or a file in a directory that
    does not exist); None when both can.  Nothing is created."""
    for option in ("out", "stats"):
        path = getattr(args, option, None)
        if not path:
            continue
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            return f"--{option} {path}: is a directory"
        if not os.path.isdir(parent):
            return f"--{option} {path}: no directory {parent}"
    return None


def build_parser():
    ap = argparse.ArgumentParser(
        prog="relspin",
        description="Relativistic spinning particle in stationary "
                    "electromagnetic fields")
    ap.add_argument("--selftest", action="store_true",
                    help="run the built-in verification battery and exit")
    sub = ap.add_subparsers(dest="command")
    for name, fn in (("simulate", cmd_simulate), ("brackets", cmd_brackets),
                     ("expand", cmd_expand), ("spectrum", cmd_spectrum)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="YAML configuration file")
        p.add_argument("--out", help="output path (default stdout)")
        plot = ("plot",) if name == "simulate" else ()
        p.add_argument("--format", choices=("csv", "json", *plot),
                       default="csv" if plot else "json")
        if name == "simulate":
            p.add_argument("--stats", metavar="PATH",
                           help="write the run's stats (RHS evaluations, "
                                "projections, energy drift, wall times) as JSON "
                                "to PATH, also when a projection fails")
        if name == "brackets":
            p.add_argument("--seed", type=_int_at_least(0), default=0)
            p.add_argument("--states", type=_int_at_least(1), default=8,
                           help="random states for the report")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.selftest:
        return run_selftest()
    if not getattr(args, "fn", None):
        ap.print_help()
        return 2
    unwritable = _unwritable(args)
    if unwritable:
        print(f"error: {unwritable}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
