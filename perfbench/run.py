"""relspin benchmark: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/relspin.  A single caller
runs the workload's items in a closed loop (each item starts when the
previous one has finished and been checked) for at least S seconds,
always ending on a whole cycle of the workload's item mix.  Every item's
output is checked; a failed check, an exception or a non-zero exit
counts as a failed item.

Item and set-up times are reported at reference speed (see speed.py):
wall time scaled by the host speed sampled around it, which keeps the
figures comparable on a host whose speed drifts.  The unscaled figures
are in the detail line.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs the loop twice, untraced and then traced, and prints the
per-layer metrics of the traced pass, the work counts and the tracing
overhead.  The last line of standard output is the result object; the
line before it holds details (tail percentile, sample counts, unscaled
times, work counts, versions).
"""

import os

# one BLAS thread, set before numpy loads; children inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"

WORKLOADS = {
    "orbit-ensemble": "wl_orbit",
    "bracket-sweep": "wl_brackets",
    "operator-algebra": "wl_operators",
    "cli-mix": "wl_cli",
}
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
TAIL_MIN_PCT = 90.0       # below this the "tail" would sit inside the body
CHILD_TIMEOUT_S = 120
WORK_COUNTS = ("rhs_evals", "projections", "states", "gradients",
               "dirac_brackets", "commutators", "op_inits", "out_bytes")
CLI_COMMANDS = ("simulate", "brackets", "expand", "spectrum", "selftest")

SETUP_CHILD = """\
import sys
sys.path[:0] = sys.argv[1:3]
import importlib
importlib.import_module(sys.argv[3]).build(int(sys.argv[4]))
"""
IMPORT_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import relspin.cli
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot produce a result (not an item failure)."""


def _child(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child process failed:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(sampler, module, seed):
    """Wall times of SETUP_REPEATS fresh processes that import the
    workload and build its inputs: (scaled, unscaled)."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        token = sampler.start()
        _child(SETUP_CHILD, SRC, HERE, module, seed)
        dt, t1 = sampler.stop(token)
        raw.append(dt)
        scaled.append(dt * sampler.factor(token[0], t1))
    return scaled, raw


def measure_cli_import():
    return statistics.median(float(_child(IMPORT_CHILD, SRC))
                             for _ in range(IMPORT_REPEATS))


def closed_loop(sampler, wl, inputs, seconds, tracer=None):
    """Run items back to back for >= seconds and whole cycles."""
    raw, spans, outputs, errors = [], [], [], []
    previous = None
    i = 0
    start = time.perf_counter()
    while True:
        token = sampler.start()
        try:
            res = wl.run(inputs, i, tracer)
            dt, t1 = sampler.stop(token)
            problem = wl.check(inputs, i, res, previous)
        except Exception:  # an item that raises is a failed item
            dt, t1 = sampler.stop(token)
            res, problem = None, traceback.format_exc(limit=4)
        raw.append(dt)
        spans.append((token[0], t1))
        outputs.append(None if problem else res)
        if problem:
            errors.append(f"item {i}: {problem}")
        previous = res
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and i % wl.CYCLE == 0:
            break
    results = [res for res in outputs if res is not None]
    try:
        problem = wl.check_all(inputs, results) if results else "no item passed"
    except Exception:
        problem = traceback.format_exc(limit=4)
    times = [dt * sampler.factor(*span) for dt, span in zip(raw, spans)]
    return {"times": times, "raw": raw, "outputs": outputs,
            "results": results, "errors": errors, "run_error": problem,
            "elapsed": elapsed}


def failed_items(loop):
    """Items that failed their own check, plus, when a run-level gate
    (the ensemble fit) failed, every item that gate used."""
    return len(loop["errors"]) + (len(loop["results"]) if loop["run_error"]
                                  else 0)


def tail(times):
    """(value, percentile, defined): the highest percentile with at least
    TAIL_BEYOND samples beyond it, when that is at least TAIL_MIN_PCT;
    with fewer samples the maximum, reported as not defined."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    pct = 100.0 * (k + 1) / n
    if pct < TAIL_MIN_PCT:
        return ordered[-1], 100.0, False
    return ordered[k], pct, True


def _fingerprint():
    """Hash of the program and the benchmark, keying stored work counts."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.rglob("*.py")) + sorted(
        HERE.rglob("*.yaml"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def work_counts(wl, inputs, workload, seed):
    """Exact work counts of the workload's probe, and any drift from an
    earlier run of the same code and seed in this checkout."""
    from tracer import Tracer

    with Tracer() as tracer:
        counts = wl.probe(inputs, tracer)
    store = STATE / "work_counts" / f"{workload}-{seed}-{_fingerprint()}.json"
    drift = None
    if store.is_file():
        before = json.loads(store.read_text())
        if before != counts:
            drift = f"work counts drifted: {before} -> {counts}"
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counts, sort_keys=True))
    return counts, drift


def versions():
    import numpy
    import scipy
    import sympy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "sympy": sympy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def end_to_end(wl, loop, setup, own_rss_mb):
    times, raw = loop["times"], loop["raw"]
    tail_v, tail_pct, tail_defined = tail(times)
    if hasattr(wl, "peak_rss_mb"):
        rss = wl.peak_rss_mb(loop["results"]) if loop["results"] else 0.0
    else:
        rss = own_rss_mb
    metrics = {
        "setup_s": (statistics.median(setup[0]), "s"),
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_ms_p50": (1e3 * statistics.median(times), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    # the tail is reported but not gated: on a shared host it follows
    # host hiccups more than the code (see README.md)
    detail = {"items": len(times), "item_ms_tail": 1e3 * tail_v,
              "tail_percentile": tail_pct, "tail_defined": tail_defined,
              "unscaled": {"setup_s": statistics.median(setup[1]),
                           "items_per_s": len(raw) / loop["elapsed"],
                           "item_ms_p50": 1e3 * statistics.median(raw),
                           "item_ms_tail": 1e3 * tail(raw)[0]}}
    return metrics, detail


def per_layer(untraced, traced, tracer, counts):
    metrics = dict(tracer.metrics())
    metrics["cli.import_s"] = (measure_cli_import(), "s")
    by_command = {name: [] for name in CLI_COMMANDS}
    out_bytes = 0
    for res, dt in zip(untraced["outputs"], untraced["times"]):
        if isinstance(res, dict) and res.get("command") in by_command:
            by_command[res["command"]].append(dt)
            out_bytes += len(res["out"])
    for name, times in by_command.items():
        metrics[f"cli.{name}.wall_s"] = (
            statistics.median(times) if times else 0.0, "s")
    metrics["cli.out_bytes"] = (out_bytes, "bytes")
    ips_u = len(untraced["times"]) / sum(untraced["times"])
    ips_t = len(traced["times"]) / sum(traced["times"])
    metrics["trace.items_per_s_untraced"] = (ips_u, "1/s")
    metrics["trace.items_per_s_traced"] = (ips_t, "1/s")
    metrics["trace.overhead"] = (ips_u / ips_t, "ratio")
    for name in WORK_COUNTS:
        metrics[f"work.{name}"] = (
            counts.get(name, 0), "bytes" if name.endswith("bytes") else "count")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "relspin" / "__init__.py").is_file():
        print(f"no relspin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # one CPU for this process and its children, so that the speed samples
    # come from the CPU that runs the measured work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from speed import Sampler
    from tracer import Tracer

    module = WORKLOADS[args.workload]
    try:
        wl = importlib.import_module(module)
        with Sampler() as sampler:
            if args.trace == 0:
                setup = measure_setup(sampler, module, args.seed)
            inputs = wl.build(args.seed)
            loops = [closed_loop(sampler, wl, inputs, args.seconds)]
            if args.trace == 1:
                with Tracer() as tracer:
                    loops.append(closed_loop(sampler, wl, inputs,
                                             args.seconds, tracer))
        # read before the work-count probe, whose tracer imports every
        # traced module (sympy too) whether the workload uses it or not
        own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        counts, drift = work_counts(wl, inputs, args.workload, args.seed)
    except (BenchError, ImportError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(lp["times"]) for lp in loops)
    failed = sum(failed_items(lp) for lp in loops)
    problems = [e for lp in loops for e in lp["errors"]]
    problems += [lp["run_error"] for lp in loops if lp["run_error"]]
    if drift:
        problems.append(drift)
    for p in problems[:5]:
        print(p, file=sys.stderr)

    if args.trace == 0:
        metrics, detail = end_to_end(wl, loops[0], setup, own_rss_mb)
        detail["setup_samples_s"] = setup[0]
    else:
        metrics = per_layer(loops[0], loops[1], tracer, counts)
        metrics["run.fail_frac"] = (failed / attempted, "ratio")
        detail = {"items": [len(lp["times"]) for lp in loops]}
    detail.update(workload=args.workload, seed=args.seed,
                  fail_frac=failed / attempted, work_counts=counts,
                  work_count_drift=drift, **versions())
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
