"""cli-mix: fresh `relspin` processes, one invocation per item.

A cycle runs simulate (dense-recording cyclotron) and --selftest twice
each and brackets, expand and spectrum four times each, every command's
runs in a row.  Each output is checked for its values, not only its
shape, and each repeat must write the same bytes as the run before.
Runs cover whole cycles so that every run does the same mix.  Every
item pays the CLI's import, so this workload shows import time and the
N = 1 path of the integrator.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

import relspin.cli  # noqa: F401  (set-up of cli-mix is the CLI's import)
from wl_brackets import check_reports

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench_state" / "cli"
CONFIGS = HERE / "configs"
ITEM_CPU_LIMIT_S = 120
SIMULATE_ROWS = 513           # 512 steps recorded every step, plus t = 0
BRACKET_STATES = 8
EXPAND_FAMILIES = {"xx", "xP", "xS", "PP", "PS", "SS", "H"}
SPECTRUM = yaml.safe_load((CONFIGS / "spectrum.yaml").read_text())["spectrum"]
RTOL = 1e-9                   # for values the output restates or derives
# runs per cycle: the light commands more often, so that the median item
# falls among them rather than on the gap between the two groups
RUNS = {"simulate": 2, "brackets": 4, "expand": 4, "spectrum": 4,
        "selftest": 2}
CYCLE = sum(RUNS.values())


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def build(seed):
    """(command, argument vector) of each item of one cycle; a command's
    runs are consecutive, and every run after its first must repeat its
    bytes."""
    rng = np.random.default_rng(seed)
    cfg = yaml.safe_load((CONFIGS / "simulate_dense.yaml").read_text())
    n = rng.normal(size=3)
    cfg["simulate"]["spin_dir"] = [float(v) for v in n / np.linalg.norm(n)]
    STATE.mkdir(parents=True, exist_ok=True)
    sim_cfg = STATE / f"simulate-{seed}.yaml"
    sim_cfg.write_text(yaml.safe_dump(cfg))
    commands = {
        "simulate": ["simulate", "--config", str(sim_cfg)],
        "brackets": ["brackets", "--config", str(CONFIGS / "brackets.yaml"),
                     "--seed", str(seed), "--states", str(BRACKET_STATES)],
        "expand": ["expand", "--config", str(CONFIGS / "expand.yaml")],
        "spectrum": ["spectrum", "--config", str(CONFIGS / "spectrum.yaml")],
        "selftest": ["--selftest"],
    }
    return [(name, argv) for name, argv in commands.items()
            for _ in range(RUNS[name])]


def _limit_cpu():
    # a runaway child is killed by the kernel (SIGXCPU) instead of
    # hanging the run
    resource.setrlimit(resource.RLIMIT_CPU, (ITEM_CPU_LIMIT_S,
                                             ITEM_CPU_LIMIT_S))


def invoke(argv, tracer=None):
    """Run one CLI process; (exit code, stdout bytes, stderr, peak RSS MB).

    Under a tracer the process runs through cli_child.py, which traces
    it from inside and leaves its span counts in a file to merge.
    """
    STATE.mkdir(parents=True, exist_ok=True)
    # named by this process, so that two runs in one checkout (the tests
    # beside a benchmark run) do not read each other's output
    tag = os.getpid()
    out_path = STATE / f"stdout-{tag}.bin"
    err_path = STATE / f"stderr-{tag}.txt"
    stats_path = STATE / f"child_trace-{tag}.json"
    if tracer is None:
        cmd = [sys.executable, "-m", "relspin.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(stats_path),
               *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=_child_env(), preexec_fn=_limit_cpu)
    # os.wait4 reaps the child and returns its own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if tracer is not None and proc.returncode == 0:
        tracer.merge(json.loads(stats_path.read_text()))
    out, err = out_path.read_bytes(), err_path.read_text(errors="replace")
    for path in (out_path, err_path, stats_path):
        path.unlink(missing_ok=True)
    return proc.returncode, out, err, usage.ru_maxrss / 1024.0


def run(commands, i, tracer=None):
    name, argv = commands[i % len(commands)]
    rc, out, err, rss = invoke(argv, tracer)
    return {"command": name, "rc": rc, "out": out, "err": err, "rss_mb": rss}


def _parse_error(name, out):
    text = out.decode()
    if name == "simulate":
        rows = text.splitlines()
        width = len(rows[0].split(",")) if rows else 0
        if not rows or not rows[0].startswith("t,x1,x2,x3,"):
            return "simulate: missing CSV header"
        if len(rows) != SIMULATE_ROWS + 1:
            return f"simulate: {len(rows) - 1} rows, expected {SIMULATE_ROWS}"
        for row in rows[1:]:
            cells = row.split(",")
            if len(cells) != width:
                return "simulate: ragged CSV row"
            if not np.all(np.isfinite([float(v) for v in cells])):
                return "simulate: non-finite value"
        return None
    if name == "selftest":
        lines = text.splitlines()
        if not lines or not all(ln.startswith("PASS") for ln in lines):
            return "selftest: not every check passed"
        return None
    report = json.loads(text)
    return {"brackets": _brackets_error, "expand": _expand_error,
            "spectrum": _spectrum_error}[name](report)


def _close(a, b):
    return abs(a - b) <= RTOL * abs(b)


def _brackets_error(report):
    if report["n_states"] != BRACKET_STATES:
        return f"brackets: {report['n_states']} states"
    problem = check_reports(report["defining_property_max"],
                            report["closed_vs_direct_max_rel"],
                            report["aux_table"])
    return problem and f"brackets: {problem}"


def _expand_error(report):
    ladder = report["ladder"]
    if set(ladder) != EXPAND_FAMILIES:
        return f"expand: ladder families {sorted(ladder)}"
    for fam, ent in ladder.items():
        if ent["decreasing"] is not True:
            return f"expand: {fam} ladder does not decrease"
        for c, r, s in zip(ent["cs"], ent["residuals"], ent["scaled"],
                           strict=True):
            if not (r > 0 and _close(s, r * c ** ent["order"])):
                return f"expand: {fam} residual {r} scaled to {s} at c = {c}"
    shift = report["primed_shift_example"]
    if not np.allclose(shift["x_minus_xprime"],
                       -np.asarray(shift["xprime_minus_x"]), rtol=RTOL):
        return "expand: primed shift is not antisymmetric"
    return None


def _spectrum_error(report):
    levels = report["levels"]
    n_max = SPECTRUM["n_max"]
    if len(levels) != n_max ** 2:       # 2n - 1 levels (l, j) for each n
        return f"spectrum: {len(levels)} levels, expected {n_max ** 2}"
    for row in levels:
        values = [row["kinetic"], row["spin_orbit"], row["total"]]
        if not np.all(np.isfinite(values)):
            return f"spectrum: non-finite level {row}"
        if row["sommerfeld"] is not None and not _close(row["total"],
                                                        row["sommerfeld"]):
            return (f"spectrum: n={row['n']} l={row['l']} j={row['j']} total "
                    f"{row['total']} is not Sommerfeld's {row['sommerfeld']}")
    # 2p3/2 - 2p1/2 at the config's g = 2 is mc^2 alpha^4 / 32
    dirac = SPECTRUM["mc2"] * SPECTRUM["alpha_fs"] ** 4 / 32.0
    split = report["summary"]["p_splitting_n2"]
    if not _close(split, dirac):
        return f"spectrum: n = 2 p splitting {split}, expected {dirac}"
    return None


def check(commands, i, res, previous):
    if res["rc"] != 0:
        return f"{res['command']}: exit code {res['rc']}: {res['err'][-300:]}"
    try:
        problem = _parse_error(res["command"], res["out"])
    except ValueError as exc:
        problem = f"{res['command']}: output does not parse: {exc}"
    if problem:
        return problem
    first = commands[i % len(commands) - 1][0] != res["command"]
    if not first and (previous is None or res["out"] != previous["out"]):
        return f"{res['command']}: repeat run wrote different bytes"
    return None


def check_all(commands, results):
    return None


def peak_rss_mb(results):
    return max(r["rss_mb"] for r in results)


def probe(commands, tracer):
    """Work counts of one traced simulate process."""
    res = run(commands, 0, tracer)
    return {"rhs_evals": tracer.calls.get("dynamics.dirac_rhs", 0),
            "projections": tracer.calls.get("dynamics.project_state", 0),
            "states": res["out"].count(b"\n") - 1,
            "out_bytes": len(res["out"])}
