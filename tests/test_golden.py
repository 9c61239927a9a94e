"""Criterion 9 across commits: the SHA-256 of each committed output.

tests/golden/digests.json holds the digest of every output below, as
the code produced it when the file was written.  The test recomputes
them in process and names each output that moved.  A change that moves
an output on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

which prints the name of each digest it changes, with the old and new
hash prefixes; the change says why that output moved.  numpy's SIMD
transcendentals can differ between CPUs, so the digests hold for the
host class they were written on; on another, the test names the output.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from relspin import quantum
from relspin.cli import main

from ring_oracles import canonical_op

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"

# name -> (argv, output format); each command writes to --out
COMMANDS = {
    "simulate coulomb_orbit csv": (["simulate", "--config", "coulomb_orbit.yaml"], "csv"),
    "simulate cyclotron csv": (["simulate", "--config", "cyclotron.yaml"], "csv"),
    "simulate cyclotron json": (["simulate", "--config", "cyclotron.yaml"], "json"),
    "brackets seed 3 json": (["brackets", "--config", "brackets_coulomb.yaml",
                              "--seed", "3"], "json"),
    "expand json": (["expand", "--config", "expand_coulomb.yaml"], "json"),
    "spectrum csv": (["spectrum", "--config", "spectrum.yaml"], "csv"),
}


def _command_output(argv, fmt, tmp):
    argv = [str(CONFIGS / a) if a.endswith(".yaml") else a for a in argv]
    out = Path(tmp) / "out"
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0, argv
    return out.read_bytes()


def _selftest_stdout():
    stdout = io.StringIO()
    # stderr carries each check's wall time, which varies from run to run
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        main(["--selftest"])
    return stdout.getvalue().encode()


def _operator_dump():
    """Every correspondence report, kept residual and identity of the
    realization, kind by kind, as sorted JSON."""
    dump = {}
    for kind in quantum.FIELD_KINDS:
        ps = quantum.build_operators(kind)
        dump[kind] = {
            "report": quantum.correspondence_report(kind),
            "residuals": {fam: canonical_op(op) for fam, op
                          in quantum.correspondence_residuals(ps).items()},
            "shift_identity": canonical_op(quantum.shift_identity_residual(ps)),
            "g_minus_one": canonical_op(quantum.g_minus_one_residual(ps)),
        }
    return json.dumps(dump, sort_keys=True).encode()


def outputs():
    """{name: bytes} of every output the digests cover."""
    with tempfile.TemporaryDirectory() as tmp:
        out = {name: _command_output(argv, fmt, tmp)
               for name, (argv, fmt) in COMMANDS.items()}
    out["selftest stdout"] = _selftest_stdout()
    out["operator reports, residuals and identities"] = _operator_dump()
    return out


def digests():
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs().items()}


def test_outputs_match_the_committed_digests():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert set(got) == set(want)
    moved = sorted(name for name in want if got[name] != want[name])
    assert not moved, f"outputs moved: {moved}"


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = digests()
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            print(f"{name}: {old.get(name, '-')[:12]} -> {new.get(name, '-')[:12]}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
