"""Command line front end.

Subcommands
    simulate   integrate a trajectory, write channel series
    brackets   bracket verification report (closed forms vs. oracle)
    expand     low-energy ladder and commuting-chart report
    spectrum   hydrogen-like fine-structure table

All numeric output is deterministic: same config, same seed, same
bytes.  Exit codes: 0 success, 1 runtime failure, 2 config error (the
message names the offending field or YAML line; a key the subcommand
does not read is one).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time

import numpy as np
import yaml

from . import expansion, hydrogen
from .brackets import (aux_table_report, closed_vs_direct_report,
                       defining_property_report)
from .dynamics import integrate
from .fields import KINDS, make_background
from .phase import Model, init_state, random_constrained_state

CHANNEL_ORDER = ("t", "x1", "x2", "x3", "P0", "P1", "P2", "P3",
                 "S1", "S2", "S3", "D1", "D2", "D3", "H",
                 "T2", "T3", "T4", "T5", "spin2")


class ConfigError(Exception):
    pass


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


# ---------------------------------------------------------------------------
# config handling


def load_config(path):
    """The Config read from the YAML file at path; empty for path None."""
    if path is None:
        return Config({})
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
    return Config(data)


# what a field of each kind must hold, as the error message names it
_FIELD_KINDS = {float: "a finite number", int: "an integer", str: "a string",
                bool: "a boolean", "vec3": "a list of three finite numbers"}


def _is_kind(val, kind):
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


class Config:
    """A YAML mapping that remembers which fields and sections were read."""

    def __init__(self, data):
        self.data = data
        self.read = set()

    def get(self, path, kind, default=None, required=False):
        cur = self.data
        parts = path.split(".")
        for n in range(1, len(parts)):
            section = ".".join(parts[:n])
            self.read.add(section)
            cur = cur.get(parts[n - 1], {})
            if not isinstance(cur, dict):
                raise ConfigError(f"config: section '{section}' must be a "
                                  f"mapping, got {cur!r}")
        self.read.add(path)
        if parts[-1] not in cur:
            if required:
                raise ConfigError(f"config: missing required field '{path}'")
            return default
        val = cur[parts[-1]]
        if not _is_kind(val, kind):
            raise ConfigError(f"config: field '{path}' must be "
                              f"{_FIELD_KINDS[kind]}, got {val!r}")
        if kind == "vec3":
            return tuple(float(x) for x in val)
        return float(val) if kind is float else val

    def reject_unread(self):
        """ConfigError naming the first key that no get() has read."""
        def walk(node, prefix):
            for key, val in node.items():
                path = f"{prefix}{key}"
                if path not in self.read:
                    raise ConfigError(f"config: unknown or unused field '{path}'")
                if isinstance(val, dict):
                    walk(val, path + ".")

        walk(self.data, "")


def model_from_config(cfg):
    c = cfg.get("units.c", float, 10.0)
    hbar = cfg.get("units.hbar", float, 1.0)
    if c <= 0 or hbar <= 0:
        raise ConfigError("config: units.c and units.hbar must be positive")
    kind = cfg.get("background.kind", str, "zero")
    if kind not in KINDS:
        raise ConfigError(f"config: background.kind must be one of {KINDS}, "
                          f"got {kind!r}")
    params = {}
    if kind in ("uniform-E", "crossed"):
        params["E"] = cfg.get("background.E", "vec3", required=True)
    if kind in ("uniform-B", "crossed"):
        params["B"] = cfg.get("background.B", "vec3", required=True)
    if kind == "coulomb":
        params["q"] = cfg.get("background.q", float, required=True)
    e = cfg.get("model.e", float, 1.0)
    bg = make_background(kind, e=e, c=c, **params)
    m = cfg.get("model.m", float, 1.0)
    if m <= 0:
        raise ConfigError("config: model.m must be positive")
    g = cfg.get("model.g", float, 2.0)
    alpha = cfg.get("model.alpha", float, 0.75 * hbar**2)
    if alpha < 0:
        raise ConfigError("config: model.alpha must be >= 0 "
                          "(0 switches spin off)")
    return Model(background=bg, m=m, g=g, hbar=hbar, alpha=alpha)


# ---------------------------------------------------------------------------
# output writers


@contextlib.contextmanager
def _output(path):
    """The file at path, opened for writing and closed after; stdout for None."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


def write_channels(channels, fmt, out_path):
    names = [n for n in CHANNEL_ORDER if n in channels]
    with _output(out_path) as fh:
        if fmt == "csv":
            fh.write(",".join(names) + "\n")
            n = len(channels["t"])
            for k in range(n):
                fh.write(",".join(_fmt(float(channels[nm][k])) for nm in names)
                         + "\n")
        elif fmt == "json":
            payload = {nm: [float(v) for v in channels[nm]] for nm in names}
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        elif fmt == "plot":
            # long format for plotting front ends
            fh.write("series,t,value\n")
            t = channels["t"]
            for nm in names:
                if nm == "t":
                    continue
                for k in range(len(t)):
                    fh.write(f"{nm},{_fmt(float(t[k]))},"
                             f"{_fmt(float(channels[nm][k]))}\n")
        else:
            raise AssertionError(fmt)


def write_json(payload, out_path):
    with _output(out_path) as fh:
        json.dump(payload, fh, indent=1, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args):
    cfg = load_config(args.config)
    model = model_from_config(cfg)
    x0 = cfg.get("simulate.x0", "vec3", (0.0, 0.0, 0.0))
    P0 = cfg.get("simulate.P0", "vec3", (0.0, 0.0, 0.0))
    spin_dir = cfg.get("simulate.spin_dir", "vec3", (0.0, 0.0, 1.0))
    t_final = cfg.get("simulate.t_final", float, required=True)
    dt = cfg.get("simulate.dt", float, required=True)
    if dt <= 0 or t_final <= 0:
        raise ConfigError("config: simulate.dt and simulate.t_final must be "
                          "positive")
    record_every = cfg.get("simulate.record_every", int, 1)
    if record_every < 1:
        raise ConfigError("config: field 'simulate.record_every' must be >= 1, "
                          f"got {record_every}")
    method = cfg.get("simulate.method", str, "rk4")
    if method not in ("rk4", "dop853"):
        raise ConfigError("config: simulate.method must be rk4 or dop853, "
                          f"got {method!r}")
    project = cfg.get("simulate.project", bool, True)
    cfg.reject_unread()
    z0 = init_state(model, x3=x0, P3=P0, spin_dir=spin_dir)
    traj = integrate(model, z0, t_final, dt, record_every=record_every,
                     method=method, project=project)
    write_channels(traj.channels(), args.format, args.out)
    return 0


def cmd_brackets(args):
    cfg = load_config(args.config)
    model = model_from_config(cfg)
    cfg.reject_unread()
    rng = np.random.default_rng(args.seed)
    n_states = args.states
    states = [random_constrained_state(model, rng) for _ in range(n_states)]
    report = {
        "background": model.background.kind,
        "seed": args.seed,
        "n_states": n_states,
        "defining_property_max": defining_property_report(states, model),
        "closed_vs_direct_max_rel": closed_vs_direct_report(states, model),
        "aux_table": aux_table_report(states, model),
    }
    if args.format == "csv":
        with _output(args.out) as fh:
            fh.write("quantity,value\n")
            fh.write(f"defining_property_max,"
                     f"{_fmt(report['defining_property_max'])}\n")
            for fam, v in report["closed_vs_direct_max_rel"].items():
                fh.write(f"closed_vs_direct_{fam},{_fmt(v)}\n")
            for row, v in report["aux_table"]["resolved_max_dev"].items():
                fh.write(f"aux_resolved_{row},{_fmt(v)}\n")
            fh.write(f"aux_transcribed_energy_row,"
                     f"{_fmt(report['aux_table']['transcribed_energy_row_max_dev'])}\n")
    else:
        write_json(report, args.out)
    return 0


def cmd_expand(args):
    cfg = load_config(args.config)
    background = cfg.get("expand.background", str, "crossed")
    if background not in ("crossed", "coulomb"):
        raise ConfigError("config: expand.background must be crossed or "
                          f"coulomb, got {background!r}")
    model = model_from_config(cfg)
    cfg.reject_unread()
    ladder = expansion.bracket_ladder(background)
    shift = expansion.primed_shift_example(model)
    report = {
        "background": background,
        "ladder": {fam: {"cs": ent["cs"], "order": ent["order"],
                         "residuals": ent["residuals"],
                         "scaled": ent["scaled"],
                         "decreasing": expansion.ladder_decreasing(ent)}
                   for fam, ent in ladder.items()},
        "primed_shift_example": shift,
    }
    if args.format == "csv":
        with _output(args.out) as fh:
            fh.write("family,c,residual,scaled\n")
            for fam, ent in report["ladder"].items():
                for c, r, s in zip(ent["cs"], ent["residuals"], ent["scaled"]):
                    fh.write(f"{fam},{_fmt(float(c))},{_fmt(float(r))},"
                             f"{_fmt(float(s))}\n")
    else:
        write_json(report, args.out)
    return 0


def cmd_spectrum(args):
    cfg = load_config(args.config)
    hm = hydrogen.HydrogenModel(
        alpha=cfg.get("spectrum.alpha_fs", float, hydrogen.ALPHA_FS),
        mc2=cfg.get("spectrum.mc2", float, hydrogen.MC2_EV),
        g=cfg.get("spectrum.g", float, 2.0),
    )
    n_max = cfg.get("spectrum.n_max", int, 3)
    if n_max < 1:
        raise ConfigError("config: spectrum.n_max must be >= 1")
    cfg.reject_unread()
    rows = hydrogen.fine_structure_table(hm, n_max)
    summary = {
        "p_splitting_n2": hydrogen.p_level_splitting(hm),
        "p_splitting_n2_bare_g": hydrogen.p_level_splitting_naive(hm),
    }
    if args.format == "csv":
        with _output(args.out) as fh:
            fh.write("n,l,j,kinetic,spin_orbit,total,sommerfeld,defect\n")
            for row in rows:
                cells = [str(row["n"]), str(row["l"]), _fmt(float(row["j"]))]
                for key in ("kinetic", "spin_orbit", "total", "sommerfeld",
                            "defect"):
                    v = row[key]
                    cells.append("" if v is None else _fmt(float(v)))
                fh.write(",".join(cells) + "\n")
    else:
        write_json({"levels": rows, "summary": summary}, args.out)
    return 0


# ---------------------------------------------------------------------------
# self test


def run_selftest():
    """Run each check and print one line per check: PASS or FAIL, the
    name and the measured quantity against its tolerance; each check's
    wall time goes to a line of its own on stderr."""
    from .quantum import (build_operators, correspondence_report,
                          g_minus_one_residual, shift_identity_residual)

    bg = make_background("coulomb", e=1.0, c=10.0, q=1.0)
    model = Model(background=bg, m=1.0, g=2.0)
    rng = np.random.default_rng(0)
    states = [random_constrained_state(model, rng) for _ in range(3)]
    hm = hydrogen.HydrogenModel()
    ps = build_operators("uniform-E")

    def fine_structure_dev():
        return max(abs(hydrogen.level_shift(hm, n, l, j)
                       - hydrogen.sommerfeld_shift(hm, n, j))
                   for n in (2, 3) for l in range(1, n)
                   for j in (l - 0.5, l + 0.5))

    def ladder_not_decreasing():
        lad = expansion.bracket_ladder("crossed", cs=(10.0, 20.0, 40.0))
        return sum(not expansion.ladder_decreasing(e) for e in lad.values())

    # name, measured quantity, measurement, bound (None: must be exactly 0)
    checks = (
        ("dirac bracket kills the second-class pair", "max_dev",
         lambda: defining_property_report(states, model), 1e-10),
        ("closed forms match the direct oracle", "max_rel",
         lambda: max(closed_vs_direct_report(states, model).values()), 1e-8),
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


def _positive_int(text):
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return n


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
        if name == "brackets":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--states", type=_positive_int, default=8,
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
