"""Time-stepping tests: conservation, fidelity, order, and audits.

The standing-wave fidelity checks run at omega = 0.5, where the wave is
orbitally stable; at criterion-met omegas the wave is genuinely unstable
and discretization noise grows exponentially, which would test the PDE,
not the integrator.
"""

import numpy as np
import pytest

from dpnls.params import ComplexField, Params, PeriodicGrid
from dpnls.functionals import functionals
from dpnls.stability import embed_on_line, make_scaled_data
from dpnls.evolution import (
    EvolutionConfig,
    b_omega_invariance_audit,
    concavity_audit,
    evolve,
    uniform_prefix,
    variance_third_difference,
    virial_check,
)

from conftest import BASE


def standing_error(gs, grid, dt, t_max):
    """Sup deviation of |u| from phi after evolving the embedded wave."""
    u0 = embed_on_line(gs, grid)
    cfg = EvolutionConfig(dt=dt, t_max=t_max, record_every=10 ** 9)
    verdict = evolve(u0, gs.params, cfg)
    assert not verdict.blew_up
    return float(np.max(np.abs(np.abs(verdict.final.values)
                               - np.abs(u0.values))))


class TestBasics:
    def test_zero_data_stays_zero(self, params1):
        grid = PeriodicGrid(20.0, 256)
        u0 = ComplexField(grid, np.zeros(grid.m, dtype=complex))
        verdict = evolve(u0, params1, EvolutionConfig(dt=1e-2, t_max=0.1))
        assert not verdict.blew_up
        assert np.all(verdict.final.values == 0)

    def test_mass_conserved_to_roundoff(self, gs_half):
        grid = PeriodicGrid(72.0, 2048)
        u0 = embed_on_line(gs_half, grid)
        cfg = EvolutionConfig(dt=2e-3, t_max=2.0, record_every=100)
        verdict = evolve(u0, gs_half.params, cfg)
        m0 = verdict.trace[0].mass
        for rec in verdict.trace:
            assert rec.mass == pytest.approx(m0, rel=1e-12)


class TestStandingWave:
    def test_profile_preserved(self, gs_half):
        err = standing_error(gs_half, PeriodicGrid(72.0, 2048), 2e-3, 5.0)
        assert err < 1e-4

    def test_strang_second_order(self, gs_half):
        grid = PeriodicGrid(72.0, 2048)
        u0 = embed_on_line(gs_half, grid)

        def final_state(dt):
            cfg = EvolutionConfig(dt=dt, t_max=1.0, record_every=10 ** 9)
            return evolve(u0, gs_half.params, cfg).final.values

        ref = final_state(5e-4)
        e1 = np.max(np.abs(final_state(8e-3) - ref))
        e2 = np.max(np.abs(final_state(4e-3) - ref))
        order = np.log2(e1 / e2)
        assert order == pytest.approx(2.0, abs=0.35)

    def test_virial_stays_flat(self, gs_half):
        grid = PeriodicGrid(72.0, 2048)
        u0 = embed_on_line(gs_half, grid)
        cfg = EvolutionConfig(dt=2e-3, t_max=2.0, record_every=20)
        verdict = evolve(u0, gs_half.params, cfg)
        # Q(phi) = 0, so the variance should be nearly quadratic-free
        assert virial_check(uniform_prefix(verdict.trace)) < 1e-3


class TestFreePropagation:
    def test_variance_exactly_quadratic(self):
        # with a = b = 0 the variance of a free wave packet is a quadratic
        # polynomial in time, so its third differences vanish
        params = Params.relaxed(N=1, a=0.0, b=0.0, p=3.0, q=7.0, omega=1.0)
        grid = PeriodicGrid(80.0, 4096)
        u0 = ComplexField(grid, np.exp(-grid.x ** 2 / 2).astype(complex))
        cfg = EvolutionConfig(dt=1e-3, t_max=1.0, record_every=50)
        verdict = evolve(u0, params, cfg)
        assert variance_third_difference(verdict.trace) < 1e-6


@pytest.fixture(scope="module")
def blowup_run(gs1):
    grid = PeriodicGrid(32.0, 65536)
    u0 = make_scaled_data(gs1, 1.5, grid)
    cfg = EvolutionConfig(dt=5e-4, t_max=10.0, record_every=20)
    return u0, evolve(u0, gs1.params, cfg)


class TestBlowup:

    def test_detects_gradient_blowup(self, blowup_run):
        _, verdict = blowup_run
        assert verdict.blew_up
        assert verdict.reason == "gradient"
        assert verdict.t_detect is not None and verdict.t_detect > 0
        assert not verdict.inconclusive

    def test_invariance_audit(self, blowup_run, gs1):
        _, verdict = blowup_run
        assert b_omega_invariance_audit(verdict, gs1)

    def test_concavity_audit(self, blowup_run, gs1):
        _, verdict = blowup_run
        assert concavity_audit(uniform_prefix(verdict.trace), gs1)

    def test_under_resolved_run_is_inconclusive(self, gs1):
        grid = PeriodicGrid(32.0, 512)
        u0 = make_scaled_data(gs1, 1.2, grid)
        cfg = EvolutionConfig(dt=1e-3, t_max=10.0)
        verdict = evolve(u0, gs1.params, cfg)
        assert verdict.reason in ("resolution", "numerical")
        assert verdict.inconclusive


class TestConfigValidation:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.0, t_max=1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(dt=1e-3, t_max=-1.0)
