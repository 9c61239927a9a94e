"""Command-line behavior: formats, exit codes, determinism."""

import json
import re
from pathlib import Path

import pytest
import yaml

from relspin import cli, expansion, hydrogen
from relspin.cli import main

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


def test_simulate_plot_format(tmp_path):
    cfg = _write(tmp_path, "sim.yaml", SIM_CFG)
    out = tmp_path / "a.txt"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--format", "plot"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "series,t,value"
    assert any(line.startswith("x1,") for line in lines[1:])


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
                            ("simulate:", "spectrum: {g: 2.0}\nsimulate:",
                             "spectrum")):
        cfg = _write(tmp_path, "bad5.yaml", SIM_CFG.replace(old, new))
        assert main(["simulate", "--config", cfg]) == 2, new
        assert f"'{field}'" in capsys.readouterr().err


class _Reached(Exception):
    """Raised in place of the first computation of a command."""


def _reached(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml"))
                         + sorted(BENCH_CONFIGS.glob("*.yaml")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_configs_pass_validation(path, monkeypatch):
    """Every shipped config holds only keys its command reads: the
    command gets past validation to its first computation."""
    for mod, name in ((cli, "init_state"), (cli, "random_constrained_state"),
                      (expansion, "bracket_ladder"),
                      (hydrogen, "fine_structure_table")):
        monkeypatch.setattr(mod, name, _reached)
    sections = yaml.safe_load(path.read_text())
    command = next((c for c in ("simulate", "expand", "spectrum")
                    if c in sections), "brackets")
    with pytest.raises(_Reached):
        main([command, "--config", str(path)])


@pytest.mark.parametrize("argv", (["spectrum", "--seed", "1"],
                                  ["expand", "--states", "3"],
                                  ["brackets", "--format", "plot"],
                                  ["brackets", "--states", "0"],
                                  ["brackets", "--states", "-3"]))
def test_options_belong_to_their_subcommand(argv, capsys):
    # --seed and --states feed only the brackets report; plot output
    # is a time-series layout, offered only by simulate; an empty
    # report would read as a perfect verification
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
    assert len(names) == 7
    assert "spin-orbit coupling carries g-1  residual_terms=0 (exact)" in out
    # stderr: the wall time of each check, in the same order
    timing = re.compile(r"(\S.*\S)  \d+\.\d{3} s")
    assert [timing.fullmatch(text).group(1)
            for text in captured.err.splitlines()] == names
