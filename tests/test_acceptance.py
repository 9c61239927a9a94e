"""Acceptance gate: the nine headline checks at their quoted tolerances.

One criterion per test, so `pytest -v` emits exactly one pass/fail line
for each; every test also prints its measured numbers for the record.
Runtime is dominated by the long orbit integrations (criteria 5 and 6a)
and the uniform-B / crossed operator algebra (criterion 7).
"""

import numpy as np

from conftest import BACKGROUND_PARAMS, build_model, state_batch
from relspin.brackets import (aux_table_report, closed_vs_direct_report,
                              defining_property_report, dirac_bracket,
                              dirac_core)
from relspin.cli import main
from relspin.dynamics import integrate, orbit_averages, spin_plane_rate
from relspin.expansion import LADDER_ORDERS, bracket_ladder, ladder_decreasing
from relspin.fields import make_background
from relspin.hydrogen import (HydrogenModel, fine_structure_table,
                              p_level_splitting, p_level_splitting_naive)
from relspin.phase import Model, PhaseState, field_data, init_state, spin_tensor
from relspin.quantum import (CORRESPONDENCE_FLOORS, build_operators,
                             correspondence_report, correspondence_residuals,
                             g_minus_one_residual)
from oracles import cyclotron_reference, kinetic_momentum, obs_coord
from ring_oracles import cinv_orders


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_defining_property():
    worst = 0.0
    for kind in BACKGROUND_PARAMS:
        model = build_model(kind)
        states = state_batch(model, 50, seed=101)
        worst = max(worst, defining_property_report(states, model))
    _verdict(1, worst < 1e-10,
             f"max |{{T3|T4, X}}_D| = {worst:.2e} over 50 states in each of "
             f"5 backgrounds (tol 1e-10)")


def test_criterion_2_closed_form_fidelity():
    worst = 0.0
    resolved_bad = []
    transcribed_seen = 0.0
    documented = True
    for kind in BACKGROUND_PARAMS:
        model = build_model(kind)
        states = state_batch(model, 50, seed=202)
        rep = closed_vs_direct_report(states, model)
        worst = max(worst, max(rep.values()))
        aux = aux_table_report(states, model)
        if max(aux["resolved_max_dev"].values()) >= 1e-8:
            resolved_bad.append(kind)
        transcribed_seen = max(transcribed_seen,
                               aux["transcribed_energy_row_max_dev"])
        documented = documented and (
            aux["energy_row_coefficients"] == {"gradient_term": "g/4",
                                               "dipole_term": "g"}
            and "Delta" in aux["resolved_forms"]
            and "energy_row" in aux["resolved_forms"])
    ok = (worst < 1e-8 and not resolved_bad and documented
          and transcribed_seen > 1e-3)
    _verdict(2, ok,
             f"closed vs direct max rel dev = {worst:.2e} over 50 states per "
             f"background (tol 1e-8); defective energy-row variant deviates "
             f"by {transcribed_seen:.2e}; resolved forms documented")


def test_criterion_3_free_theory_exact():
    bg = make_background("zero", e=1.0, c=10.0)
    model = Model(background=bg, m=1.0, g=2.0, alpha=0.75, hbar=1.0)
    z = init_state(model, x3=(0.0, 0.0, 0.0), P3=(0.0, 0.0, 0.0),
                   spin_dir=(0.0, 0.0, 1.0))
    core = dirac_core(z, model)
    S = spin_tensor(z.w, z.pi)
    P0 = kinetic_momentum(z, model, field_data(model, z.x))[0]
    worst = 0.0
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            val = dirac_bracket(obs_coord("x", i), obs_coord("x", j), core, model)
            worst = max(worst,
                        abs(val - S[i, j] / (2 * model.m * model.c * P0)))
    x12 = dirac_bracket(obs_coord("x", 1), obs_coord("x", 2), core, model)
    ref = np.sqrt(3.0) / 200.0
    ok = worst < 1e-10 and abs(x12 - ref) < 1e-12
    _verdict(3, ok,
             f"|{{x_i, x_j}}_D - S^ij / 2 m c P0| = {worst:.2e} at rest "
             f"(tol 1e-10); {{x1, x2}}_D = {x12:.15f} vs sqrt(3)/200 = "
             f"{ref:.15f}")


def test_criterion_4_expansion_orders():
    failures = []
    for background in ("crossed", "coulomb"):
        lad = bracket_ladder(background, cs=(10.0, 20.0, 40.0, 80.0))
        for fam in list(LADDER_ORDERS) + ["H"]:
            if not ladder_decreasing(lad[fam]):
                failures.append(f"{background}:{fam}")
    _verdict(4, not failures,
             "residual * c^k strictly decreasing along c = 10, 20, 40, 80 "
             "for every bracket family and H in both ladder backgrounds"
             + (f"; failures: {failures}" if failures else ""))


def test_criterion_5_dynamics_sanity():
    # (a) spinless cyclotron radius, rk4 at dt = 1e-3 over one period
    B, p = 2.0, 3.0
    bg = make_background("uniform-B", e=1.0, c=10.0, B=(0.0, 0.0, B))
    model = Model(background=bg, m=1.0, g=2.0, alpha=0.75)
    ref = cyclotron_reference(model, p, B)
    z0 = init_state(model, x3=(-ref["radius"], 0.0, 0.0), P3=(0.0, p, 0.0),
                    spin_dir=(0.0, 0.0, 1.0))
    vec = z0.vec.copy()
    vec[8:16] = 0.0
    z0 = PhaseState(vec=vec)
    traj = integrate(model, z0, ref["period"], 1e-3, record_every=100)
    ch = traj.channels()
    r = np.hypot(ch["x1"], ch["x2"])
    rad_dev = float(np.max(np.abs(r - ref["radius"])))

    # (b, c) energy and constraint drift over 1e4 spin steps per background
    e_worst, c_worst = 0.0, 0.0
    for kind in BACKGROUND_PARAMS:
        m2 = build_model(kind, g=2.0)
        z = init_state(m2, x3=(1.6, -0.8, 1.1), P3=(0.4, 0.3, -0.2),
                       spin_dir=(0.3, -1.0, 0.5))
        tr = integrate(m2, z, 10.0, 1e-3, record_every=100, project=True)
        e_worst = max(e_worst, tr.energy_drift())
        c_worst = max(c_worst, max(tr.constraint_drift().values()))
    ok = rad_dev < 1e-6 and e_worst < 1e-8 and c_worst < 1e-9
    _verdict(5, ok,
             f"cyclotron radius dev {rad_dev:.2e} (tol 1e-6); worst energy "
             f"drift {e_worst:.2e} over 1e4 steps (tol 1e-8); worst "
             f"constraint drift {c_worst:.2e} with projection (tol 1e-9)")


def test_criterion_6a_thomas_factor_classical():
    # circular Coulomb orbit at beta ~ 0.05 with in-plane spin; secular
    # in-plane spin rotation against the (g-1)-weighted prediction
    bg = make_background("coulomb", e=-1.0, c=10.0, q=1.0)
    model = Model(background=bg, m=1.0, g=2.0, alpha=0.75)
    p_circ = 0.5003125975951672
    z0 = init_state(model, x3=(4.0, 0.0, 0.0), P3=(0.0, p_circ, 0.0),
                    spin_dir=(1.0, 0.0, 0.0))
    t_orb = 2.0 * np.pi * 4.0 / 0.5
    traj = integrate(model, z0, 8.0 * t_orb, 0.1, record_every=2)
    om_fit = spin_plane_rate(traj)
    av = orbit_averages(traj)
    base = (abs(model.e) * abs(av["Lz"]) * av["inv_r3"]
            / (2.0 * model.m**2 * model.c**2))
    predicted = (model.g - 1.0) * base
    naive = model.g * base
    rel = abs(om_fit - predicted) / abs(predicted)
    ok = rel < 0.02
    _verdict("6a", ok,
             f"spin precession rate {om_fit:.6e} vs (g-1) prediction "
             f"{predicted:.6e} (dev {100 * rel:.2f}%, tol 2%); naive "
             f"g-weighted rate {naive:.6e} is off by a factor ~2")


def test_criterion_6b_thomas_factor_quantum():
    ps = build_operators("uniform-E")
    res = g_minus_one_residual(ps)
    ok = res.is_zero()
    _verdict("6b", ok,
             "assembled spin-orbit operator equals the e (g-1) / 2 m^2 c^2 "
             "coupling identically (symbolic residual zero)" if ok
             else "symbolic residual operator is nonzero")


def test_criterion_7_commutator_bracket_correspondence():
    issues = []
    for kind in CORRESPONDENCE_FLOORS:
        rep = correspondence_report(kind)
        for fam, row in rep.items():
            if not row["ok"]:
                issues.append((kind, fam, row))
    res = correspondence_residuals(build_operators("free"))
    pure4 = cinv_orders(res["xx"]) == {4}
    exact = all(res[f] is None or res[f].is_zero()
                for f in ("xP", "PP", "PS", "SS"))
    ok = not issues and pure4 and exact
    _verdict(7, ok,
             "every pair family at or beyond its floor in all 4 operator "
             "backgrounds; free xx residual purely c^-4; xP, PP, PS, SS "
             "residuals identically zero" if ok
             else f"issues={issues}, pure4={pure4}, exact={exact}")


def test_criterion_8_hydrogen_fine_structure():
    hm = HydrogenModel(g=2.0)
    worst = 0.0
    for row in fine_structure_table(hm, n_max=4):
        if row["l"] >= 1:
            worst = max(worst, abs(row["defect"]) / abs(row["sommerfeld"]))
    split = p_level_splitting(hm, n=2)
    split_dev = abs(split - 4.53e-5) / 4.53e-5
    ratio = p_level_splitting_naive(hm, n=2) / split
    ok = worst < 1e-10 and split_dev < 5e-3 and abs(ratio - 2.0) < 1e-12
    _verdict(8, ok,
             f"worst Sommerfeld defect {worst:.2e} for n <= 4, l >= 1 "
             f"(tol 1e-10); 2p splitting {split:.6e} eV, "
             f"{100 * split_dev:.2f}% from 4.53e-5 (tol 0.5%); bare-g "
             f"coupling doubles it (ratio {ratio:.12f})")


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


def test_criterion_9_determinism(tmp_path):
    sim_cfg = tmp_path / "sim.yaml"
    sim_cfg.write_text(SIM_CFG)
    brk_cfg = tmp_path / "brk.yaml"
    brk_cfg.write_text(BRK_CFG)
    pairs = []
    for tag, args in (("simulate", ["simulate", "--config", str(sim_cfg)]),
                      ("brackets", ["brackets", "--config", str(brk_cfg),
                                    "--states", "8", "--seed", "3",
                                    "--format", "json"])):
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{tag}_{rep}.out"
            assert main(args + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        pairs.append((tag, outs[0] == outs[1]))
    ok = all(same for _, same in pairs)
    _verdict(9, ok,
             "repeated runs with identical config are byte-identical for "
             + " and ".join(tag for tag, _ in pairs))
