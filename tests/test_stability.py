"""Instability classification and blowup-set membership tests.

Frozen regime facts for N = 1, a = b = 1, p = 3, q = 7 (from resolved
ground-state solves, cross-checked against the closed-form scaling
curve): the criterion d2s <= 0 holds at omega = 1 and omega = 10, fails
at omega = 0.5, and the omega = 10 state has positive energy.
"""

import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy.optimize import brentq

from dpnls.params import MembershipError, PeriodicGrid, ResolutionError
from dpnls.evolution import EvolutionConfig, in_blowup_set
from dpnls.functionals import FunctionalReport, at_scale, functionals
from dpnls.groundstate import first_integral_report
from dpnls import stability
from dpnls.stability import (
    _embed,
    blowup_run,
    blowup_sweep,
    classify,
    make_scaled_data,
    omega_sweep,
    remark13_decomposition,
)

from conftest import h1_distance


GRID = PeriodicGrid(40.0, 8192)


class TestClassification:
    def test_criterion_met_at_omega_one(self, gs1):
        rep = classify(gs1)
        assert rep.criterion_met
        assert gs1.report.d2s == pytest.approx(-0.1429, abs=2e-3)
        assert gs1.report.energy < 0
        assert rep.remark13_consistent

    def test_criterion_fails_at_small_omega(self, gs_half):
        rep = classify(gs_half)
        assert not rep.criterion_met
        assert gs_half.report.d2s > 0
        assert rep.remark13_consistent

    def test_positive_energy_forces_criterion(self, gs10):
        rep = classify(gs10)
        assert gs10.report.energy > 0
        assert rep.criterion_met and gs10.report.d2s < 0
        assert rep.remark13_consistent

    def test_band_scales_with_the_state(self, gs10):
        # d2s of the wrong sign at E > 0 breaks both remark-13 checks; the
        # one band is relative to |S|, so every norm times 1e-30 (|S| far
        # below 1) changes no verdict
        flipped = replace(gs10.report, d2s=-gs10.report.d2s)
        tiny = FunctionalReport(*(1e-30 * x for x in astuple(flipped)))
        reps = [classify(replace(gs10, report=r)) for r in (flipped, tiny)]
        assert [(r.criterion_met, r.remark13_consistent) for r in reps] == [
            (False, False), (False, False)]

    def test_decomposition_sums_to_d2s(self, gs1):
        parts = remark13_decomposition(gs1.report, gs1.params)
        assert sum(parts) == pytest.approx(gs1.report.d2s, abs=1e-8)

    def test_decomposition_zero_state(self, params1):
        from dpnls.functionals import report_from_norms
        rep = report_from_norms(0.0, 0.0, 0.0, 0.0, params1)
        assert remark13_decomposition(rep, params1) == (0.0, 0.0, 0.0)

    def test_sweep_rows_shape(self, gs1, gs_half, monkeypatch):
        solved = {0.5: gs_half, 1.0: gs1}
        monkeypatch.setattr(stability, "solve_ground_state",
                            lambda params: solved[params.omega])
        rows = omega_sweep(gs1.params, [0.5, 1.0])
        assert [r["omega"] for r in rows] == [0.5, 1.0]
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert rows[1]["criterion_met"] and not rows[0]["criterion_met"]
        assert rows[1]["amplitude"] == gs1.amplitude


    def test_nan_omega_is_an_error_row(self, params1):
        # NaN fails "omega > 0"; no solve is attempted
        (row,) = omega_sweep(params1, [float("nan")])
        assert row["status"] == "error: omega must be positive: omega=nan"
        assert np.isnan(row["d2s"]) and row["criterion_met"] is False


class TestFirstIntegralOracle:
    """The sweep against the quadrature oracle, which shares no code with
    shooting or collocation."""

    def test_sweep_d2s_matches_oracle(self, params1):
        omegas = [0.5, 1.0, 2.0, 10.0, 50.0]
        for row in omega_sweep(params1, omegas):
            want = first_integral_report(
                replace(params1, omega=row["omega"])).d2s
            assert row["status"] == "ok"
            assert abs(row["d2s"] - want) <= 1e-9 * abs(want), row["omega"]

    def test_criterion_at_threshold(self, params1):
        d2s = lambda w: first_integral_report(replace(params1, omega=w)).d2s
        w_star = brentq(d2s, 0.5, 1.0, xtol=1e-12)
        assert w_star == pytest.approx(0.7487, abs=1e-4)
        rows = omega_sweep(params1, [w_star - 1e-2, w_star + 1e-2])
        assert [row["status"] for row in rows] == ["ok", "ok"]
        assert [row["criterion_met"] for row in rows] == [
            d2s(row["omega"]) <= 0 for row in rows] == [False, True]


class TestMembership:
    def test_scaled_state_inside(self, gs1):
        u0 = make_scaled_data(gs1, 1.2, GRID)
        rep = functionals(u0, gs1.params)
        assert in_blowup_set(rep, gs1.report, 0.0)
        assert rep.action < gs1.report.action and rep.nehari < 0
        assert rep.virial < 0
        assert abs(rep.mass - gs1.report.mass) <= 1e-6 * gs1.report.mass

    def test_ground_state_on_boundary(self, gs1):
        u0 = _embed(gs1, 1.0, GRID)
        # phi sits on the boundary: S, K, Q margins all vanish
        assert not in_blowup_set(functionals(u0, gs1.params), gs1.report, 0.0)

    def test_zero_not_inside(self, gs1):
        from dpnls.params import ComplexField
        zero = ComplexField(GRID, np.zeros(GRID.m, dtype=complex))
        assert not in_blowup_set(functionals(zero, gs1.params), gs1.report,
                                 0.0)

    def test_nehari_negative_along_scaling(self, gs1):
        # K(phi^lam) < 0 for every lam > 1, by the closed-form curve
        for lam in (1.05, 1.2, 1.5, 2.0, 3.0):
            assert at_scale(gs1.report, gs1.params, lam).nehari < 0


class TestScaledData:
    def test_rejects_lambda_at_most_one(self, gs1):
        # NaN fails the range check, and inf too, before any embedding
        for lam in (1.0, 0.8, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=re.escape(
                    f"lambda must be finite and exceed 1, got {lam!r}")):
                make_scaled_data(gs1, lam, GRID)

    def test_mass_preserved(self, gs1):
        u0 = make_scaled_data(gs1, 1.5, GRID)
        assert functionals(u0, gs1.params).mass == pytest.approx(
            gs1.report.mass, rel=1e-6
        )

    def test_matches_closed_form_scaling(self, gs1):
        # the embedded phi^lam on the line carries the functionals the
        # closed-form scaling laws give for phi^lam
        for lam in (1.05, 1.2, 1.5, 2.0):
            got = functionals(make_scaled_data(gs1, lam, GRID), gs1.params)
            want = at_scale(gs1.report, gs1.params, lam)
            for name in ("mass", "grad", "lp", "lq", "action", "nehari",
                         "virial"):
                assert getattr(got, name) == pytest.approx(
                    getattr(want, name), rel=1e-6), (lam, name)

    def test_distance_shrinks_toward_lambda_one(self, gs1):
        phi = _embed(gs1, 1.0, GRID)
        dists = [
            h1_distance(make_scaled_data(gs1, lam, GRID), phi, gs1.params)
            for lam in (1.5, 1.2, 1.05)
        ]
        assert dists[0] > dists[1] > dists[2] > 0

    def test_under_resolved_grid_rejected(self, gs1):
        with pytest.raises(ResolutionError, match="spectral tail"):
            make_scaled_data(gs1, 50.0, PeriodicGrid(40.0, 256))

    def test_membership_error_when_not_in_set(self, gs_half):
        # at omega = 0.5 the scaling direction initially raises S, so a
        # slightly compressed state fails the strict S(v) < S(phi) check
        with pytest.raises(MembershipError):
            make_scaled_data(gs_half, 1.01, GRID)


class TestBlowupRun:
    def test_under_resolved_run_says_so(self, gs1):
        # too coarse a grid for lambda = 1.5: the run stops for resolution
        # and must say so, not report that nothing happened
        row, verdict = blowup_run(gs1, 1.5, PeriodicGrid(32.0, 8192),
                                  EvolutionConfig(dt=5e-4, t_max=2.0))
        assert row["status"] == "inconclusive"
        assert row["reason"] == "resolution"
        assert row["blew_up"] is False
        assert verdict.inconclusive and verdict.trace[-1].t < 2.0


class TestBlowupSweep:
    LAMBDAS = (1.1, 1.2, 1.3)

    def stub(self, monkeypatch, run):
        monkeypatch.setattr(stability, "blowup_run",
                            lambda gs, lam, grid, cfg: run(lam))

    def test_matches_serial_runs(self, gs1):
        grid = PeriodicGrid(32.0, 8192)
        cfg = EvolutionConfig(dt=1e-3, t_max=0.2, record_every=10)
        lambdas = (1.2, 1.5, 2.0)
        swept = blowup_sweep(gs1, lambdas, grid, cfg)
        assert [row["lambda"] for row, _ in swept] == list(lambdas)
        for lam, (row, verdict) in zip(lambdas, swept):
            want_row, want = blowup_run(gs1, lam, grid, cfg)
            assert row == want_row
            assert verdict.trace == want.trace
            assert np.array_equal(verdict.final.values, want.final.values)

    def test_under_resolved_embedding_is_an_error_row(self, gs1):
        # phi^2 on 512 nodes has a spectral tail of about 1.4e-8: the bound
        # that would stop the run at t = 0 rejects the data, so the row is
        # an error that names the cause, not a run with no steps
        ((row, verdict),) = blowup_sweep(gs1, [2.0], PeriodicGrid(32.0, 512),
                                         EvolutionConfig(dt=1e-3, t_max=1.0))
        assert row["status"].startswith("error: ")
        assert "spectral tail" in row["status"]
        assert verdict is None

    def test_error_becomes_row(self, monkeypatch):
        def run(lam):
            if lam == 1.2:
                raise MembershipError("outside the set")
            return {"lambda": lam, "status": "ok"}, lam

        self.stub(monkeypatch, run)
        swept = blowup_sweep(None, self.LAMBDAS, None, None)
        assert swept == [
            ({"lambda": 1.1, "status": "ok"}, 1.1),
            ({"lambda": 1.2, "status": "error: outside the set"}, None),
            ({"lambda": 1.3, "status": "ok"}, 1.3)]

    def test_fault_propagates_and_stops_the_sweep(self, monkeypatch):
        # an exception outside the package's ERRORS at the second lambda
        # ends the sweep: the third lambda never runs
        ran = []

        def run(lam):
            ran.append(lam)
            if lam == self.LAMBDAS[1]:
                raise TypeError("broken run")
            return {"lambda": lam}, lam

        self.stub(monkeypatch, run)
        with pytest.raises(TypeError, match="broken run"):
            blowup_sweep(None, self.LAMBDAS, None, None)
        assert ran == list(self.LAMBDAS[:2])
