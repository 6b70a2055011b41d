"""End-to-end acceptance battery.

Each test covers one headline claim of the package and prints a single
PASS/FAIL line (run with ``pytest -s`` or ``-v`` to see them live):

  1. certified ground states across an omega sweep
  2. the three-term identity for d2s and the positive-energy implication
  3. signs of the scalar inequality functions h, g1, g2, g3
  4. the key estimate Q/2 <= S(v) - S(phi) over filtered random states
  5. standing-wave fidelity and Strang order of the integrator
  6. the virial identity on pre-blowup windows, plus free propagation
  7. gradient-threshold blowup from compressed data, with audits
  8. byte-identical seeded CLI reruns

Numerical regime throughout: N = 1, a = b = 1, p = 3, q = 7.
"""

import json

import numpy as np
import pytest

from dpnls.params import ComplexField, Params, PeriodicGrid, PreconditionError
from dpnls.functionals import at_scale, functionals, report_from_norms
from dpnls.groundstate import first_integral_amplitude, solve_ground_state
from dpnls.stability import (
    _embed,
    blowup_sweep,
    classify,
    make_scaled_data,
    remark13_decomposition,
)
from dpnls.evolution import (
    EvolutionConfig,
    evolve,
    uniform_prefix,
    variance_third_difference,
    virial_check,
)
from dpnls import lemma_lab
from dpnls.cli import main as cli_main

from conftest import BASE

SWEEP_OMEGAS = (0.5, 1.0, 2.0, 10.0, 50.0)


def _verdict(label: str, ok: bool):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


@pytest.fixture(scope="module")
def sweep(gs_half, gs1, gs10):
    states = {0.5: gs_half, 1.0: gs1, 10.0: gs10}
    for w in (2.0, 50.0):
        states[w] = solve_ground_state(Params(omega=w, **BASE))
    return states


def test_criterion_1_ground_state_certification(sweep):
    ok = True
    for w in SWEEP_OMEGAS:
        gs = sweep[w]
        rep = gs.report
        ok &= gs.residual <= 1e-8
        ok &= abs(rep.nehari) <= 1e-6 * abs(rep.action)
        ok &= abs(rep.virial) <= 1e-6 * abs(rep.action)
        oracle = first_integral_amplitude(gs.params)
        ok &= abs(gs.amplitude - oracle) <= 1e-5 * oracle
    _verdict("criterion 1: certified ground states at "
             f"omega in {SWEEP_OMEGAS}", ok)


def test_criterion_2_decomposition_identity(sweep):
    ok = True
    for w in SWEEP_OMEGAS:
        gs = sweep[w]
        rep = classify(gs)
        parts = remark13_decomposition(gs.report, gs.params)
        scale = max(1.0, abs(gs.report.d2s))
        ok &= abs(sum(parts) - gs.report.d2s) <= 1e-8 * scale
        if rep.energy > 0:
            ok &= rep.d2s < 0
    _verdict("criterion 2: three-term d2s identity and "
             "positive-energy implication", ok)


def test_criterion_3_sign_suite():
    rng = np.random.default_rng(2024)
    pairs = lemma_lab.sample_exponent_pairs(rng, 120)
    rows = lemma_lab.sign_suite(pairs, 10000)
    slack = 1e-9
    ok = all(r["h_min"] >= -slack and r["g1_min"] >= -slack
             and r["g2_max"] <= slack and r["g3_min"] >= -slack
             for r in rows)
    _verdict(f"criterion 3: sign suite over {len(rows)} exponent pairs", ok)


def test_criterion_4_key_estimate(gs1):
    rng = np.random.default_rng(99)
    reports = [at_scale(gs1.report, gs1.params, lam)
               for lam in rng.uniform(1.0 + 1e-6, 3.0, size=80)]
    # amplitude multiples mostly fail the mass hypothesis and get
    # filtered; bump perturbations supply the rest
    r = gs1.report
    for mu in rng.uniform(0.9, 1.2, size=40):
        reports.append(report_from_norms(
            mu ** 2 * r.mass, mu ** 2 * r.grad,
            mu ** 4 * r.lp, mu ** 8 * r.lq, gs1.params))
    profs = lemma_lab.perturbed_profiles(gs1, rng, 600)
    reports.extend(functionals(p, gs1.params) for p in profs)

    kept = 0
    ok = True
    for rep in reports:
        try:
            chk = lemma_lab.key_estimate_check(rep, gs1)
        except PreconditionError:
            continue
        kept += 1
        ok &= chk.margin >= -1e-8 * abs(chk.rhs)
    ok &= kept >= 200
    _verdict(f"criterion 4: key estimate on {kept} filtered states", ok)


def test_criterion_5_standing_wave_fidelity(gs_half):
    grid = PeriodicGrid(72.0, 2048)
    u0 = _embed(gs_half, 1.0, grid)
    t_max = 10.0 / gs_half.params.omega
    cfg = EvolutionConfig(dt=2e-3, t_max=t_max, record_every=500)
    verdict = evolve(u0, gs_half.params, cfg)
    sup_dev = np.max(np.abs(np.abs(verdict.final.values)
                            - np.abs(u0.values)))
    m0, e0 = verdict.trace[0].mass, verdict.trace[0].energy
    mass_drift = max(abs(rec.mass - m0) for rec in verdict.trace) / m0
    energy_drift = max(abs(rec.energy - e0)
                       for rec in verdict.trace) / abs(e0)

    def final_at(dt):
        c = EvolutionConfig(dt=dt, t_max=1.0, record_every=10 ** 9)
        return evolve(u0, gs_half.params, c).final.values

    ref = final_at(5e-4)
    order = np.log2(np.max(np.abs(final_at(8e-3) - ref))
                    / np.max(np.abs(final_at(4e-3) - ref)))

    ok = (not verdict.blew_up and sup_dev < 1e-4
          and mass_drift < 1e-10 and energy_drift < 1e-6
          and abs(order - 2.0) < 0.35)
    _verdict("criterion 5: standing-wave fidelity "
             f"(sup {sup_dev:.1e}, mass {mass_drift:.1e}, "
             f"energy {energy_drift:.1e}, order {order:.2f})", ok)


def test_criterion_6_virial_identity(gs1):
    grid = PeriodicGrid(32.0, 65536)
    u0 = make_scaled_data(gs1, 1.2, grid)
    cfg = EvolutionConfig(dt=5e-4, t_max=0.8, record_every=10)
    verdict = evolve(u0, gs1.params, cfg)
    window = uniform_prefix(verdict.trace)
    mismatch = virial_check(window)

    free = Params.relaxed(N=1, a=0.0, b=0.0, p=3.0, q=7.0, omega=1.0)
    fgrid = PeriodicGrid(80.0, 4096)
    fu0 = ComplexField(fgrid, np.exp(-fgrid.x ** 2 / 2).astype(complex))
    fcfg = EvolutionConfig(dt=1e-3, t_max=1.0, record_every=50)
    third = variance_third_difference(evolve(fu0, free, fcfg).trace)

    ok = mismatch <= 1e-2 and third < 1e-6
    _verdict("criterion 6: virial identity "
             f"(mismatch {mismatch:.1e}, free third-diff {third:.1e})", ok)


def test_criterion_7_blowup(gs1):
    grid = PeriodicGrid(32.0, 65536)
    cfg = EvolutionConfig(dt=5e-4, t_max=60.0, record_every=100)
    ok = True
    times = []
    # each row carries the invariance audit and the concavity audit of the
    # run's uniformly recorded prefix; an error row has neither
    for row, _ in blowup_sweep(gs1, (1.05, 1.2, 1.5), grid, cfg):
        ok &= (row.get("blew_up") is True and row["reason"] == "gradient"
               and row["invariance_audit"] is True
               and row["concavity_audit"] is True)
        times.append(row.get("t_detect"))
    # closer to the ground state means a later detection time
    ok &= times[0] > times[1] > times[2]
    _verdict("criterion 7: blowup from compressed data "
             f"(t_detect {[f'{t:.2f}' for t in times]})", ok)


def test_criterion_8_deterministic_cli(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "params": {"N": 1, "a": 1.0, "b": 1.0, "p": 3.0, "q": 7.0,
                   "omega": 1.0},
        "lemma": {"pairs": 30, "lambda_points": 2000, "samples": 30},
    }))
    digests = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main(["verify-lemma", "--config", str(config),
                         "--out", str(out), "--seed", "42",
                         "--no-timestamp"])
        assert code == 0
        digests.append(tuple(
            (out / f).read_bytes()
            for f in ("sign_suite.csv", "key_estimate.csv",
                      "lemma_summary.json")))
    ok = digests[0] == digests[1]
    _verdict("criterion 8: seeded verify-lemma reruns are byte-identical",
             ok)
