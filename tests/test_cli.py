"""Command-line behavior: formats, exit codes, determinism."""

import contextlib
import copy
import io
import json
import math
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from relspin import brackets, cli, dynamics, expansion, hydrogen, phase
from relspin.cli import main

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
BENCH_CONFIGS = ROOT / "perfbench" / "configs"

SIM_CFG = """\
units: {c: 10.0, hbar: 1.0}
model: {m: 1.0, e: 1.0, g: 2.0, alpha: 0.75}
background:
  kind: uniform-B
  B: [0.0, 0.0, 2.0]
simulate:
  x0: [-15.0, 0.0, 0.0]
  P0: [0.0, 3.0, 0.0]
  spin_dir: [0.0, 0.0, 1.0]
  t_final: 2.0
  dt: 0.01
  record_every: 10
"""

BRK_CFG = """\
units: {c: 10.0, hbar: 1.0}
model: {m: 1.0, e: 1.0, g: 2.3, alpha: 0.75}
background:
  kind: crossed
  E: [0.2, 0.0, 0.1]
  B: [0.0, 0.0, 1.0]
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_simulate_csv_and_determinism(tmp_path):
    cfg = _write(tmp_path, "sim.yaml", SIM_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header.startswith("t,x1,x2,x3,P0,")
    assert "spin2" in header


def test_simulate_json_format(tmp_path):
    cfg = _write(tmp_path, "sim.yaml", SIM_CFG)
    out = tmp_path / "a.json"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    data = json.loads(out.read_text())
    assert len(data["t"]) == len(data["x1"])
    assert data["t"][0] == 0.0
    # the channels and nothing else: the run's stats (energy drift, wall
    # times) never reach --out
    assert tuple(data) == ("t", "x1", "x2", "x3", "P0", "P1", "P2", "P3",
                           "S1", "S2", "S3", "D1", "D2", "D3", "H",
                           "T2", "T3", "T4", "T5", "spin2")


def test_simulate_stats_sidecar_leaves_out_unchanged(tmp_path):
    """--stats writes Trajectory.stats to its own file; the --out bytes
    are the same with and without it (criterion 9)."""
    cfg = _write(tmp_path, "sim.yaml", SIM_CFG)
    plain, with_stats = tmp_path / "a.csv", tmp_path / "b.csv"
    side = tmp_path / "stats.json"
    assert main(["simulate", "--config", cfg, "--out", str(plain)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(with_stats),
                 "--stats", str(side)]) == 0
    assert plain.read_bytes() == with_stats.read_bytes()
    stats = json.loads(side.read_text())
    assert stats["n_steps"] == 200 and stats["rhs_evals"] == 800
    assert stats["projections"] == sum(
        k % 10 == 0 or k % dynamics.PROJECT_EVERY == 0 for k in range(1, 201))
    assert {"energy_drift", "stepping_s", "channels_s",
            "max_residual_before_projection"} <= set(stats)


def test_simulate_stats_sidecar_is_written_when_a_projection_fails(
        tmp_path, monkeypatch, capsys):
    """With PROJECTION_TOL at 0 the first projection stalls: the command
    exits 1, writes no --out, and the sidecar holds the stats of the run
    up to the failing step."""
    cfg = _write(tmp_path, "sim.yaml", SIM_CFG)
    out, side = tmp_path / "a.csv", tmp_path / "stats.json"
    monkeypatch.setattr(dynamics, "PROJECTION_TOL", 0.0)
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--stats", str(side)]) == 1
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()
    stats = json.loads(side.read_text())
    assert (stats["failed_step"], stats["t"]) == (10, 0.1)
    assert stats["projections"] == 0 and stats["rhs_evals"] == 40
    assert set(stats["projection_failure"]) == {"residual", "best", "passes"}


def test_simulate_stats_sidecar_is_written_when_a_right_hand_side_fails(tmp_path, capsys):
    """At c = 2 this Coulomb orbit falls in until the energy radicand of
    the right-hand side turns negative in step 68, a step with no
    projection: the command exits 1 as for any refused state, writes no
    --out, and the sidecar holds the stats of the 67 completed steps."""
    cfg = _write(tmp_path, "sim.yaml", SIM_CFG.replace("c: 10.0", "c: 2.0")
                 .replace("e: 1.0", "e: -1.0")
                 .replace("kind: uniform-B\n  B: [0.0, 0.0, 2.0]", "kind: coulomb\n  q: 1.0")
                 .replace("x0: [-15.0, 0.0, 0.0]", "x0: [2.0, 0.0, 0.0]")
                 .replace("P0: [0.0, 3.0, 0.0]", "P0: [0.0, 0.05, 0.0]")
                 .replace("spin_dir: [0.0, 0.0, 1.0]", "spin_dir: [1.0, 0.0, 0.0]")
                 .replace("t_final: 2.0\n  dt: 0.01", "t_final: 20.0\n  dt: 0.05"))
    out, side = tmp_path / "a.csv", tmp_path / "stats.json"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--stats", str(side)]) == 1
    assert "energy radicand" in capsys.readouterr().err
    assert not out.exists()
    stats = json.loads(side.read_text())
    assert stats["failed_step"] == 68 and math.isclose(stats["t"], 3.4)
    assert stats["rhs_evals"] == 4 * 67
    assert stats["projections"] == sum(
        k % 10 == 0 or k % dynamics.PROJECT_EVERY == 0 for k in range(1, 68))
    assert "projection_failure" not in stats


def test_simulate_plot_format(tmp_path):
    cfg = _write(tmp_path, "sim.yaml", SIM_CFG)
    out = tmp_path / "a.txt"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--format", "plot"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "series,t,value"
    assert any(line.startswith("x1,") for line in lines[1:])


@pytest.mark.parametrize("command, option", [("spectrum", "--out"), ("simulate", "--out"),
                                             ("simulate", "--stats")])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_output_path_exits_two_before_computing(tmp_path, monkeypatch, capsys,
                                                           command, option, where):
    """An --out or --stats path that is a directory, or a file in a
    directory that does not exist, exits 2 with one stderr line naming
    the option and the path, before any computation and creating no
    file."""
    for mod, name in FIRST_COMPUTATIONS:
        monkeypatch.setattr(mod, name, _reached)
    argv = [command]
    if command == "simulate":
        argv += ["--config", _write(tmp_path, "sim.yaml", SIM_CFG)]
    target = tmp_path / "target"
    target.mkdir()
    path = target if where == "directory" else target / "missing" / "a.json"
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + [option, str(path)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {option} {re.escape(str(path))}: [^\n]+\n", err), err
    assert sorted(tmp_path.rglob("*")) == before


def test_brackets_seeded_determinism(tmp_path):
    cfg = _write(tmp_path, "brk.yaml", BRK_CFG)
    out1, out2, out3 = (tmp_path / n for n in ("r1.json", "r2.json", "r3.json"))
    base = ["brackets", "--config", cfg, "--states", "4", "--format", "json"]
    assert main(base + ["--out", str(out1), "--seed", "5"]) == 0
    assert main(base + ["--out", str(out2), "--seed", "5"]) == 0
    assert main(base + ["--out", str(out3), "--seed", "6"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["defining_property_max"] < 1e-10
    assert max(rep["closed_vs_direct_max_rel"].values()) < 1e-8


def test_brackets_csv(tmp_path):
    cfg = _write(tmp_path, "brk.yaml", BRK_CFG)
    out = tmp_path / "r.csv"
    assert main(["brackets", "--config", cfg, "--states", "3",
                 "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,value"
    assert any(line.startswith("defining_property_max,") for line in lines)
    assert any(line.startswith("aux_transcribed_energy_row,") for line in lines)


def test_brackets_refuses_a_zero_charge(tmp_path, capsys):
    """The closed forms divide by e u0: at e = 0 the command exits 1 and
    writes no report; it used to exit 0 with NaN in every
    closed_vs_direct row."""
    cfg = _write(tmp_path, "brk.yaml", BRK_CFG.replace("e: 1.0", "e: 0.0"))
    out = tmp_path / "r.csv"
    assert main(["brackets", "--config", cfg, "--states", "2",
                 "--out", str(out), "--format", "csv"]) == 1
    assert re.fullmatch(r"error: .*charge e must be nonzero.*\n", capsys.readouterr().err)
    assert not out.exists()


def test_expand_json(tmp_path):
    out = tmp_path / "exp.json"
    assert main(["expand", "--out", str(out), "--format", "json"]) == 0
    rep = json.loads(out.read_text())
    assert rep["background"] == "crossed"
    for fam, ent in rep["ladder"].items():
        assert ent["decreasing"], fam
    assert rep["primed_shift_example"]["xprime_minus_x"][1] == pytest.approx(
        -3.0**0.5 / 400.0, abs=1e-16)


def test_spectrum_json_and_csv(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--out", str(out), "--format", "json"]) == 0
    rep = json.loads(out.read_text())
    assert rep["summary"]["p_splitting_n2"] == pytest.approx(4.53e-5, rel=5e-3)
    ratio = (rep["summary"]["p_splitting_n2_bare_g"]
             / rep["summary"]["p_splitting_n2"])
    assert ratio == pytest.approx(2.0, abs=1e-12)
    out_csv = tmp_path / "spec.csv"
    assert main(["spectrum", "--out", str(out_csv), "--format", "csv"]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("n,l,j,")
    # l = 0 rows leave the sommerfeld and defect cells empty
    first = lines[1].split(",")
    assert first[:2] == ["1", "0"] and first[-1] == ""


def test_exit_code_two_on_config_errors(tmp_path, capsys):
    # missing required field
    cfg = _write(tmp_path, "bad1.yaml", SIM_CFG.replace("  dt: 0.01\n", ""))
    assert main(["simulate", "--config", cfg]) == 2
    assert "simulate.dt" in capsys.readouterr().err
    # wrong type
    cfg = _write(tmp_path, "bad2.yaml",
                 SIM_CFG.replace("m: 1.0", "m: heavy"))
    assert main(["simulate", "--config", cfg]) == 2
    assert "model.m" in capsys.readouterr().err
    # YAML that does not parse
    cfg = _write(tmp_path, "bad3.yaml", "model: {m: 1.0\n")
    assert main(["simulate", "--config", cfg]) == 2
    # unknown background kind
    cfg = _write(tmp_path, "bad4.yaml",
                 BRK_CFG.replace("kind: crossed", "kind: dipole"))
    assert main(["brackets", "--config", cfg]) == 2
    assert "background.kind" in capsys.readouterr().err
    # non-finite numbers, an integer beyond the float range, a zero
    # recording stride, a section that is not a mapping and unread keys
    for old, new, field in (("t_final: 2.0", "t_final: .nan", "simulate.t_final"),
                            ("t_final: 2.0", "t_final: .inf", "simulate.t_final"),
                            ("[-15.0, 0.0, 0.0]", "[-15.0, .nan, 0.0]", "simulate.x0"),
                            ("m: 1.0", "m: " + "1" * 400, "model.m"),
                            ("record_every: 10", "record_every: 0",
                             "simulate.record_every"),
                            ("units: {c: 10.0, hbar: 1.0}", "units: 5", "units"),
                            # keys and sections the command does not read
                            ("model: {m: 1.0, e: 1.0, g: 2.0, alpha: 0.75}",
                             "model: {gee: 3.0}", "model.gee"),
                            ("record_every: 10", "record_evry: 10",
                             "simulate.record_evry"),
                            # rk4 is the one integrator
                            ("record_every: 10", "record_every: 10\n  method: dop853",
                             "simulate.method"),
                            ("simulate:", "spectrum: {g: 2.0}\nsimulate:",
                             "spectrum")):
        cfg = _write(tmp_path, "bad5.yaml", SIM_CFG.replace(old, new))
        assert main(["simulate", "--config", cfg]) == 2, new
        assert f"'{field}'" in capsys.readouterr().err
    # the fine-structure constant and the rest energy must be positive
    for text, field in (("spectrum: {alpha_fs: 0.0}", "spectrum.alpha_fs"),
                        ("spectrum: {alpha_fs: -0.01}", "spectrum.alpha_fs"),
                        ("spectrum: {mc2: -5.0}", "spectrum.mc2")):
        cfg = _write(tmp_path, "bad6.yaml", text + "\n")
        assert main(["spectrum", "--config", cfg]) == 2, text
        assert f"'{field}'" in capsys.readouterr().err
    # a huge hbar overflows the default alpha = 3 hbar^2 / 4
    cfg = _write(tmp_path, "bad7.yaml", "units: {hbar: 1.0e+300}\n")
    assert main(["brackets", "--config", cfg]) == 2
    assert "'model.alpha'" in capsys.readouterr().err


def test_background_keys_are_the_required_parameters_of_fields(tmp_path, capsys):
    """The background keys, built from fields.PARAMETERS, are the table
    the CLI has always read: every parameter of the kind, all required.
    r_min, now the constant fields.R_MIN, and any other key a kind does
    not take exit 2, naming it."""
    vec3, number = ("vec3", cli.REQUIRED, None), (float, cli.REQUIRED, None)
    assert cli.BACKGROUND_KEYS == {
        "zero": {},
        "uniform-E": {"background.E": vec3},
        "uniform-B": {"background.B": vec3},
        "crossed": {"background.E": vec3, "background.B": vec3},
        "coulomb": {"background.q": number},
    }
    assert list(cli.BACKGROUND_KEYS["crossed"]) == ["background.E", "background.B"]
    coulomb = BRK_CFG.replace("kind: crossed", "kind: coulomb").replace(
        "  E: [0.2, 0.0, 0.1]\n  B: [0.0, 0.0, 1.0]\n", "  q: 1.0\n")
    for text, field in ((coulomb + "  r_min: 0.5\n", "background.r_min"),
                        (coulomb + "  E: [0.2, 0.0, 0.1]\n", "background.E"),
                        (BRK_CFG + "  q: 1.0\n", "background.q"),
                        (BRK_CFG.replace("kind: crossed", "kind: uniform-B"), "background.E")):
        cfg = _write(tmp_path, "bg.yaml", text)
        assert main(["brackets", "--config", cfg, "--states", "1"]) == 2, text
        assert f"'{field}'" in capsys.readouterr().err
    cfg = _write(tmp_path, "bg.yaml", coulomb)
    assert main(["brackets", "--config", cfg, "--states", "1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command, text, m, c", [("simulate", SIM_CFG, 1.0, 1e300),
                                                 ("brackets", BRK_CFG, 1.0, 1e300),
                                                 ("simulate", SIM_CFG, 1e200, 1e200)],
                         ids=["simulate", "brackets", "simulate-inf-mc"])
def test_light_speed_past_the_float_range_is_one_error_line(tmp_path, command, text, m, c):
    """units.c = 1e300 passes the schema, and so do m = c = 1e200, and
    (m c)^2 is past the float range: the command exits 1 with one error
    line naming m and c, not an OverflowError traceback from init_state
    or a fixed-point failure after a RuntimeWarning."""
    # PyYAML reads a float with an exponent only when it has a dot
    cfg = _write(tmp_path, "c.yaml", text.replace("c: 10.0", f"c: {c:.1e}")
                 .replace("m: 1.0,", f"m: {m:.1e},"))
    proc = subprocess.run([sys.executable, "-m", "relspin.cli", command, "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and f"m = {m}, c = {c}" in line, line


class _Reached(Exception):
    """Raised in place of the first computation of a command."""


def _reached(*args, **kwargs):
    raise _Reached


# the first computation of each command, stubbed with _reached
FIRST_COMPUTATIONS = ((phase, "init_state"), (phase, "random_constrained_state"),
                      (expansion, "bracket_ladder"),
                      (hydrogen, "fine_structure_table"))
SHIPPED_CONFIGS = (sorted(CONFIGS.glob("*.yaml"))
                   + sorted(BENCH_CONFIGS.glob("*.yaml")))


def _command(sections):
    return next((c for c in ("simulate", "expand", "spectrum")
                 if c in sections), "brackets")


@pytest.mark.parametrize("path", SHIPPED_CONFIGS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_configs_pass_validation(path, monkeypatch):
    """Every shipped config holds only keys its command reads: the
    command gets past validation to its first computation."""
    for mod, name in FIRST_COMPUTATIONS:
        monkeypatch.setattr(mod, name, _reached)
    command = _command(yaml.safe_load(path.read_text()))
    with pytest.raises(_Reached):
        main([command, "--config", str(path)])


# values a mutated config may hold in place of a shipped one, drawn as
# copies: an "element" mutation writes into a list it finds in the config,
# and on the shared [1.0, 2.0] it changed the values later examples draw
ODD_VALUES = (math.nan, math.inf, -math.inf, -1.0, -3, 0, 1e300, -1e300,
              10**400, True, False, None, "text", [1.0, 2.0], {"a": 1.0})
odd_values = st.sampled_from(ODD_VALUES).map(copy.deepcopy)
NEW_NAMES = ("x_", "kind", "g", "alpha_fs", "record_evry", "model", "gee")


@st.composite
def mutated_configs(draw):
    """(command, config): a shipped config with one to three keys or
    sections dropped, renamed or given an odd value."""
    path = draw(st.sampled_from(SHIPPED_CONFIGS))
    data = yaml.safe_load(path.read_text())
    command = _command(data)
    for _ in range(draw(st.integers(1, 3))):
        keys = [(s,) for s in data] + [(s, n) for s, node in data.items()
                                       if isinstance(node, dict) for n in node]
        if not keys:
            break
        *parent, name = draw(st.sampled_from(keys))
        node = data[parent[0]] if parent else data
        action = draw(st.sampled_from(("drop", "rename", "value", "element")))
        value = node.pop(name)
        if action == "rename":
            node[draw(st.sampled_from(NEW_NAMES))] = value
        elif action == "value":
            node[name] = draw(odd_values)
        elif action == "element":
            node[name] = value
            if isinstance(value, list) and value:
                k = draw(st.integers(0, len(value) - 1))
                value[k] = draw(odd_values)
    return command, data


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
def test_mutated_configs_exit_two_or_reach_the_computation(tmp_path_factory,
                                                           case):
    """A mutated config either exits 2 with a config: message naming a
    field or section, or passes validation; nothing else escapes."""
    command, data = case
    path = tmp_path_factory.mktemp("fuzz") / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        for mod, name in FIRST_COMPUTATIONS:
            mp.setattr(mod, name, _reached)
        try:
            rc = main([command, "--config", str(path)])
        except _Reached:
            return
    assert rc == 2, err.getvalue()
    named = re.fullmatch(r"config: .*?'([^']+)'.*\n", err.getvalue(), re.S)
    assert named, err.getvalue()
    fields = {*cli.SCHEMAS[command], *data,
              *(k for keys in cli.BACKGROUND_KEYS.values() for k in keys),
              *(f"{s}.{n}" for s, node in data.items()
                if isinstance(node, dict) for n in node)}
    assert named.group(1) in fields, err.getvalue()


def _readme_config_table():
    """{key: (kind, default, bound, subcommands)} from the README table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) == 5 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = (*cells[1:4], cells[4].split(", "))
    return rows


def test_readme_config_table_matches_schemas():
    """The README lists every key each subcommand reads, with the
    bound SCHEMAS gives it, and no other key."""
    rows = _readme_config_table()
    background = {k: v for keys in cli.BACKGROUND_KEYS.values()
                  for k, v in keys.items()}
    for command, table in cli.SCHEMAS.items():
        if "background.kind" in table:
            table = {**table, **background}
        assert {k for k, row in rows.items() if command in row[3]} == set(table)
        for key, (_, _, bound) in table.items():
            assert rows[key][2] == ("" if bound is None else
                                    f"{bound[0]} {bound[1]}"), key


@pytest.mark.parametrize("argv", (["spectrum", "--seed", "1"],
                                  ["expand", "--states", "3"],
                                  ["brackets", "--format", "plot"],
                                  ["brackets", "--states", "0"],
                                  ["brackets", "--states", "-3"],
                                  ["brackets", "--seed", "-1"]))
def test_options_belong_to_their_subcommand(argv, capsys):
    # --seed and --states feed only the brackets report; plot output
    # is a time-series layout, offered only by simulate; an empty
    # report would read as a perfect verification; a seed is a
    # non-negative integer
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


def test_exit_code_without_subcommand(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_selftest_passes(capsys):
    assert main(["--selftest"]) == 0
    captured = capsys.readouterr()
    out = captured.out
    assert "PASS" in out
    assert "FAIL" not in out
    # stdout: verdict, name, measured value against its tolerance
    result = re.compile(r"PASS  (\S.*\S)  \w+=\S+ (\(exact\)|< \S+)")
    names = [result.fullmatch(text).group(1) for text in out.splitlines()]
    assert len(names) == 8
    assert names[2] == "dirac rhs equals the stacked flow of H"
    assert "spin-orbit coupling carries g-1  residual_terms=0 (exact)" in out
    # stderr: the wall time of each check, in the same order
    timing = re.compile(r"(\S.*\S)  \d+\.\d{3} s")
    assert [timing.fullmatch(text).group(1)
            for text in captured.err.splitlines()] == names


def _nan_rhs(monkeypatch):
    monkeypatch.setattr(dynamics, "dirac_rhs", lambda vec, model: [math.nan] * 16)


def _nan_ss_block(monkeypatch):
    """NaN in the spin-spin block, the last family of the report."""
    original = brackets.closed_brackets

    def closed(*args):
        C = original(*args)
        C[brackets.CLOSED_FAMILIES["SS"]] = math.nan
        return C
    monkeypatch.setattr(brackets, "closed_brackets", closed)


def _nan_sommerfeld_at_n3(monkeypatch):
    original = hydrogen.sommerfeld_shift
    monkeypatch.setattr(hydrogen, "sommerfeld_shift",
                        lambda hm, n, j: math.nan if n == 3 else original(hm, n, j))


@pytest.mark.parametrize("patch, check", [
    (_nan_rhs, "dirac rhs equals the stacked flow of H"),
    (_nan_ss_block, "closed forms match the direct oracle"),
    (_nan_sommerfeld_at_n3, "fine structure matches the frozen oracle"),
], ids=["dirac_rhs", "closed_brackets", "sommerfeld_shift"])
def test_selftest_fails_on_a_nan_measurement(patch, check, monkeypatch, capsys):
    """A NaN measurement reads FAIL and the self test exits 1.  Each
    check reduced with Python's max, which drops a NaN that comes after
    a number, and printed PASS."""
    patch(monkeypatch)
    assert main(["--selftest"]) == 1
    out = capsys.readouterr().out
    assert re.search(rf"^FAIL  {re.escape(check)}  \w+=nan ", out, re.M), out


# each command imports what it runs and nothing more: spectrum is pure
# math, --selftest runs the operator ring, and sympy and scipy serve the
# tests alone
HEAVY_MODULES = ("numpy", "sympy", "scipy", "relspin.brackets", "relspin.weyl",
                 "relspin.quantum")


def _loaded_after(statement):
    """The HEAVY_MODULES in sys.modules of a fresh interpreter after
    running statement (one or more lines), whose own stdout is
    discarded."""
    probe = ("import contextlib, io, sys\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"{textwrap.indent(statement, '    ')}\n"
             f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _loaded_by(argv):
    return _loaded_after(f"import relspin.cli; assert relspin.cli.main({argv!r}) == 0")


def test_importing_the_cli_leaves_sympy_scipy_and_the_ring_unloaded(tmp_path):
    assert _loaded_after("import relspin.cli") == []
    assert _loaded_after("import relspin.quantum") == ["relspin.weyl", "relspin.quantum"]
    assert _loaded_by(["spectrum"]) == []
    assert _loaded_by(["--selftest"]) == ["numpy", "relspin.brackets", "relspin.weyl",
                                          "relspin.quantum"]
    sim, brk = _write(tmp_path, "sim.yaml", SIM_CFG), _write(tmp_path, "brk.yaml", BRK_CFG)
    # the orbit path reads the {T3,T4} floor from phase, not from brackets
    assert _loaded_by(["simulate", "--config", sim]) == ["numpy"]
    for argv in (["brackets", "--config", brk, "--states", "1"], ["expand"]):
        assert _loaded_by(argv) == ["numpy", "relspin.brackets"], argv
    # the ring writes an Op, and a failed division by i hbar, without sympy
    assert _loaded_after("from relspin import weyl; repr(weyl.Op.x(1))") == ["relspin.weyl"]
    failed_division = ("from relspin import weyl\n"
                       "try:\n"
                       "    weyl.div_ihbar(weyl.Op.x(1))\n"
                       "except weyl.NotDivisible as exc:\n"
                       "    print(exc)\n"
                       "else:\n"
                       "    sys.exit('the division did not fail')")
    assert _loaded_after(failed_division) == ["relspin.weyl"]
    # positive control: the probe sees sympy once it is imported
    assert "sympy" in _loaded_after("import sympy")
