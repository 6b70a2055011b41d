"""Time-stepping tests: conservation, fidelity, order, and audits.

The standing-wave fidelity checks run at omega = 0.5, where the wave is
orbitally stable; at criterion-met omegas the wave is genuinely unstable
and discretization noise grows exponentially, which would test the PDE,
not the integrator.
"""

import re
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpnls.params import (
    ComplexField, MembershipError, Params, PeriodicGrid, PreconditionError)
from dpnls.functionals import FunctionalReport, _line_spectrum, functionals
from dpnls.stability import _embed, make_scaled_data
from dpnls import evolution, stability
from dpnls.evolution import (
    INVARIANCE_DRIFT,
    BlowupVerdict,
    EvolutionConfig,
    TraceRecord,
    audit_window,
    b_omega_invariance_audit,
    blowup_time_bound,
    concavity_audit,
    evolve,
    variance_rate,
    variance_third_difference,
    virial_check,
)

from conftest import BASE


def standing_error(gs, grid, dt, t_max):
    """Sup deviation of |u| from phi after evolving the embedded wave."""
    u0 = _embed(gs, 1.0, grid)
    cfg = EvolutionConfig(dt=dt, t_max=t_max, record_every=10 ** 9)
    verdict = evolve(u0, gs.params, cfg)
    assert not verdict.blew_up
    return float(np.max(np.abs(np.abs(verdict.final.values)
                               - np.abs(u0.values))))


def unfused_final(u0, params, dt, t_max):
    """Final state and step count of the unfused Strang loop: two phase
    evaluations per step and numpy transforms, at fixed dt."""
    k2 = u0.grid.wavenumbers ** 2
    u = np.array(u0.values, dtype=complex)

    def nonlinear_half(u, dt):
        m = np.abs(u)
        phase = params.a * m ** (params.p - 1) + params.b * m ** (params.q - 1)
        return u * np.exp(0.5j * dt * phase)

    t, steps = 0.0, 0
    while t < t_max - 1e-12:
        dt_eff = min(dt, t_max - t)
        u = nonlinear_half(u, dt_eff)
        u = np.fft.ifft(np.exp(-1j * k2 * dt_eff) * np.fft.fft(u))
        u = nonlinear_half(u, dt_eff)
        t += dt_eff
        steps += 1
    return u, steps


class TestBasics:
    def test_zero_data_stays_zero(self, params1):
        grid = PeriodicGrid(20.0, 256)
        u0 = ComplexField(grid, np.zeros(grid.m, dtype=complex))
        verdict = evolve(u0, params1, EvolutionConfig(dt=1e-2, t_max=0.1,
                                                       record_every=20))
        assert not verdict.blew_up
        assert np.all(verdict.final.values == 0)

    def test_mass_conserved_to_roundoff(self, gs_half):
        grid = PeriodicGrid(72.0, 2048)
        u0 = _embed(gs_half, 1.0, grid)
        cfg = EvolutionConfig(dt=2e-3, t_max=2.0, record_every=100)
        verdict = evolve(u0, gs_half.params, cfg)
        m0 = verdict.trace[0].mass
        for rec in verdict.trace:
            assert rec.mass == pytest.approx(m0, rel=1e-12)

    def test_fused_loop_matches_unfused_reference(self, gs_half):
        grid = PeriodicGrid(72.0, 2048)
        u0 = _embed(gs_half, 1.0, grid)
        # t_max is not a multiple of dt: the shorter last step rebuilds the
        # rotation
        dt, t_max = 2e-3, 0.5013
        verdict = evolve(u0, gs_half.params,
                         EvolutionConfig(dt=dt, t_max=t_max, record_every=20))
        # the run never leaves its start grid; the reference steps there too
        ((m0, _),) = verdict.grids
        stride = grid.m // m0
        start = ComplexField(PeriodicGrid(grid.length, m0), u0.values[::stride])
        ref, steps = unfused_final(start, gs_half.params, dt, t_max)
        assert verdict.dt_reductions == 0 and verdict.steps == steps
        sup = np.max(np.abs(u0.values))
        assert np.max(np.abs(verdict.final.values[::stride] - ref)) <= 1e-12 * sup

    def test_step_budget_is_inconclusive(self, params1, monkeypatch):
        monkeypatch.setattr(evolution, "MAX_STEPS", 7)
        grid = PeriodicGrid(20.0, 256)
        u0 = ComplexField(grid, 0.5 * np.exp(-grid.x ** 2 / 2).astype(complex))
        cfg = EvolutionConfig(dt=1e-3, t_max=1.0, record_every=5)
        verdict = evolve(u0, params1, cfg)
        assert verdict.reason == "budget"
        assert verdict.inconclusive and not verdict.blew_up
        assert verdict.steps == 7
        assert verdict.t_detect == pytest.approx(7e-3)
        assert [rec.t for rec in verdict.trace] == pytest.approx(
            [0.0, 5e-3, 7e-3])

    def test_non_finite_step_is_inconclusive(self, params1, monkeypatch):
        # the third step returns NaN samples: the run stops there, and its
        # last record, of NaN functionals, lies outside the audit window
        step = evolution._SpectralStepper.step
        calls = []

        def failing_step(self, u, dt):
            calls.append(dt)
            if len(calls) == 3:
                return np.full_like(u, np.nan), np.nan
            return step(self, u, dt)

        monkeypatch.setattr(evolution._SpectralStepper, "step", failing_step)
        grid = PeriodicGrid(20.0, 256)
        u0 = ComplexField(grid, 0.5 * np.exp(-grid.x ** 2 / 2).astype(complex))
        verdict = evolve(u0, params1, EvolutionConfig(dt=1e-3, t_max=1.0,
                                                      record_every=1))
        assert verdict.reason == "numerical"
        assert verdict.inconclusive and verdict.final is None
        assert verdict.steps == 3 and len(verdict.trace) == 4
        last = verdict.trace[-1]
        assert last.t == verdict.t_detect
        assert all(np.isnan(getattr(last, f.name))
                   for f in fields(FunctionalReport))
        assert np.isnan(last.variance) and last.sup_amp == np.inf
        assert audit_window(verdict) == verdict.trace[:-1]


class TestSpectralMonitor:
    @pytest.mark.parametrize("m", [5, 8, 10, 17, 512, 65536])
    def test_tail_band_is_the_upper_sixteenth(self, m):
        # a spike of power 1/4 beside the peak at k = 0 shows in the tail
        # exactly when its index lies in the band |k| >= 7/16 of the
        # sampling rate (empty at m = 5); the band is one slice, so on the
        # largest grid its edges and the Nyquist mode settle the whole band
        band = np.abs(np.fft.fftfreq(m)) >= 7.0 / 16.0
        edges = np.flatnonzero(np.diff(band)) + np.array([[-1], [0], [1], [2]])
        indices = range(m) if m <= 512 else sorted(
            {*edges.ravel().tolist(), m // 2})
        grid = PeriodicGrid(1.0, m)
        for j in indices:
            spec = np.zeros(m, dtype=complex)
            spec[0] += 1.0
            spec[j] += 0.5
            tail = _line_spectrum(np.fft.ifft(spec), grid)[1]
            assert (tail > 0.25) == band[j], (m, j, tail)

    def test_trace_and_monitor_read_one_gradient_norm(self, gs1):
        grid = PeriodicGrid(32.0, 65536)
        u0 = make_scaled_data(gs1, 1.2, grid)
        verdict = evolve(u0, gs1.params,
                         EvolutionConfig(dt=1e-3, t_max=1e-3))
        ((m0, _),) = verdict.grids
        start = PeriodicGrid(grid.length, m0)
        u = np.array(u0.values[::grid.m // m0], dtype=complex)
        first = verdict.trace[0]
        assert first.grad == _line_spectrum(u, start)[0]
        # a record is its state's report, field for field
        want = asdict(functionals(ComplexField(start, u), gs1.params))
        assert {name: getattr(first, name) for name in want} == want


class TestProlongation:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([8, 64, 512]),
           factor=st.sampled_from([2, 4]))
    def test_restriction_undoes_prolongation(self, params1, seed, m, factor):
        # a random state on m nodes whose spectrum sits below half the
        # Nyquist wavenumber: zero-padding it keeps its samples, its mass
        # and its gradient norm
        rng = np.random.default_rng(seed)
        spec = rng.normal(size=m) + 1j * rng.normal(size=m)
        spec[np.abs(np.fft.fftfreq(m)) >= 0.25] = 0.0
        coarse = ComplexField(PeriodicGrid(20.0, m), np.fft.ifft(spec))
        fine_values = evolution._prolong(coarse.values, factor * m)
        fine = ComplexField(PeriodicGrid(20.0, factor * m), fine_values)
        sup = np.max(np.abs(coarse.values))
        assert np.max(np.abs(fine.values[::factor] - coarse.values)) <= 1e-14 * sup
        want, got = functionals(coarse, params1), functionals(fine, params1)
        assert got.mass == pytest.approx(want.mass, rel=1e-12)
        assert got.grad == pytest.approx(want.grad, rel=1e-12)

    def test_nyquist_mode_split_evenly(self):
        # a real state with a full spectrum: splitting its Nyquist mode
        # evenly between +k and -k keeps the prolonged state real, and
        # restriction still gives the state back
        u = np.random.default_rng(3).normal(size=16)
        fine = evolution._prolong(u, 32)
        assert np.max(np.abs(fine.imag)) <= 1e-14 * np.max(np.abs(u))
        assert np.max(np.abs(fine[::2] - u)) <= 1e-14 * np.max(np.abs(u))


class TestStandingWave:
    def test_profile_preserved(self, gs_half):
        err = standing_error(gs_half, PeriodicGrid(72.0, 2048), 2e-3, 5.0)
        assert err < 1e-4

    def test_strang_second_order(self, gs_half):
        grid = PeriodicGrid(72.0, 2048)
        u0 = _embed(gs_half, 1.0, grid)

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
        u0 = _embed(gs_half, 1.0, grid)
        cfg = EvolutionConfig(dt=2e-3, t_max=2.0, record_every=20)
        verdict = evolve(u0, gs_half.params, cfg)
        # Q(phi) = 0, so the variance should be nearly quadratic-free
        assert virial_check(audit_window(verdict)) < 1e-3


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
        assert verdict.steps > 0 and verdict.dt_reductions >= 1

    def test_amplitude_bounded_by_gradient(self, blowup_run):
        # the 1D Gagliardo-Nirenberg inequality sup|u|^2 <= ||u|| ||grad u||,
        # on which the gradient proxy's standing as the one detector rests
        _, verdict = blowup_run
        for rec in verdict.trace:
            bound = np.sqrt(rec.mass * rec.grad)
            assert rec.sup_amp ** 2 <= (1 + 1e-12) * bound, rec.t

    def test_invariance_audit(self, blowup_run, gs1):
        _, verdict = blowup_run
        assert b_omega_invariance_audit(verdict, gs1.report)

    def test_concavity_audit(self, blowup_run, gs1):
        u0, verdict = blowup_run
        assert concavity_audit(verdict, gs1.report, variance_rate(u0))

    def test_audit_window_spans_every_record_before_detection(
            self, blowup_run, gs1):
        # the dt control changes the record spacing before detection; the
        # window keeps the records past that change, the envelope reads each
        # of them at its own time, and the virial check by divided
        # differences
        u0, verdict = blowup_run
        window = audit_window(verdict)
        assert verdict.trace[-1].t == verdict.t_detect
        assert window == verdict.trace[:-1]
        spacings = np.diff([rec.t for rec in window])
        assert spacings.max() > 1.5 * spacings.min()
        assert concavity_audit(verdict, gs1.report, variance_rate(u0))
        assert np.isfinite(virial_check(window))

    @pytest.mark.parametrize("every", [100, 20, 7, 1])
    def test_audit_is_cadence_free(self, blowup_run, gs1, every):
        # the record cadence changes neither the run nor the envelope's
        # verdict, and detection comes before Glassey's bound T*
        _, reference = blowup_run
        row, verdict = stability.blowup_run(
            gs1, 1.5, PeriodicGrid(32.0, 65536),
            EvolutionConfig(dt=5e-4, t_max=10.0, record_every=every))
        assert (verdict.t_detect, verdict.steps) == (reference.t_detect,
                                                     reference.steps)
        assert row["concavity_audit"] is True
        assert 0.0 < row["t_detect"] < row["t_bound"]

    def test_grid_ladder(self, blowup_run):
        u0, verdict = blowup_run
        sizes = [m for m, _ in verdict.grids]
        steps = [step for _, step in verdict.grids]
        assert steps[0] == 0 and steps == sorted(steps)
        assert steps[-1] <= verdict.steps
        assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= u0.grid.m and sizes[0] < u0.grid.m

    def test_final_on_initial_grid(self, blowup_run):
        u0, verdict = blowup_run
        assert verdict.final.grid == u0.grid
        assert verdict.final.values.shape == u0.values.shape

    def test_invariance_audit_rejects_start_outside_the_set(self, gs_half):
        # at omega = 0.5 a slightly compressed state has S(v) > S(phi)
        u0 = _embed(gs_half, 1.01, PeriodicGrid(40.0, 8192))
        verdict = evolve(u0, gs_half.params,
                         EvolutionConfig(dt=1e-3, t_max=5e-3, record_every=1))
        assert verdict.trace[0].action > gs_half.report.action
        with pytest.raises(MembershipError, match="did not start inside"):
            b_omega_invariance_audit(verdict, gs_half.report)

    def test_under_resolved_run_is_inconclusive(self, gs1):
        grid = PeriodicGrid(32.0, 512)
        u0 = make_scaled_data(gs1, 1.2, grid)
        cfg = EvolutionConfig(dt=1e-3, t_max=10.0, record_every=20)
        verdict = evolve(u0, gs1.params, cfg)
        assert verdict.reason in ("resolution", "numerical")
        assert verdict.inconclusive


def synthetic_reference(action):
    """A reference report of unit mass and the given action S(phi)."""
    return FunctionalReport(1.0, 1.0, 1.0, 1.0, 0.0, action, 0.0, 0.0, 0.0,
                            0.0)


def synthetic_record(t, action, variance=0.0):
    """A trace record of unit mass with K < 0 and Q < 0, 8 Q far below any
    virial bound the tests use."""
    report = replace(synthetic_reference(action), nehari=-1.0, virial=-1.0)
    return TraceRecord(**asdict(report), t=t, variance=variance, sup_amp=1.0)


def synthetic_run(times, action, variance, t_detect=None):
    """A verdict whose records at ``times`` have S(u0) = ``action`` and the
    variance V(t) given by the callable ``variance``."""
    trace = [synthetic_record(t, action, variance=variance(t)) for t in times]
    return BlowupVerdict(t_detect, None if t_detect is None else "gradient",
                         trace, None, 1, 0, 1.0, [])


class TestAuditBands:
    """The audit slacks are relative to the bound, action or variance they
    guard, so each audit fails on a violation smaller than 1 in absolute
    terms.  The envelope tests give V(0) > 0, so that T* > 0."""

    def test_concavity_rejects_convex_variance_below_unit_bound(self):
        # V(t) = 1 + 0.0025 t^2 is convex; c = 16 (S(phi) - S(u0)) = 3.2e-3,
        # so it rises above the envelope 1 - 1.6e-3 t^2 by 4.1e-3 at t = 1,
        # while the last record, t = 6, is before T* = 25
        run = synthetic_run(range(7), 0.0, lambda t: 1.0 + 0.0025 * t ** 2)
        ref = synthetic_reference(2e-4)
        assert blowup_time_bound(run.trace[0], ref, 0.0) == pytest.approx(
            (3.2e-3, 25.0), rel=1e-12)
        assert not concavity_audit(run, ref, 0.0)

    #: uneven record times, as a dt control that halves the step makes them
    UNEVEN = (0.0, 1.0, 2.0, 2.5, 3.0, 3.25, 3.5)

    @pytest.mark.parametrize("k", [-0.01, 0.01])
    def test_audits_read_uneven_records_exactly(self, k):
        # V(t) = 1 + k t^2 with 8 Q = 2 k: second divided differences are
        # exact at any spacing, so the virial mismatch is rounding; the
        # envelope is 1 - 8e-4 t^2, T* = 35.4, past every record
        trace = [replace(synthetic_record(t, 0.9e-3, 1.0 + k * t ** 2),
                         virial=k / 4.0) for t in self.UNEVEN]
        assert virial_check(trace) <= 1e-12
        run = BlowupVerdict(None, None, trace, None, 1, 0, 1.0, [])
        assert concavity_audit(run, synthetic_reference(1e-3), 0.0) == (k < 0)

    def test_concavity_rejects_a_record_just_above_the_envelope(self):
        # V lies on the envelope V(0) + V'(0) t - c t^2 / 2 with V(0) = 4,
        # V'(0) = 0.05 and c = 1.6e-3; one record moved up by
        # 2 INVARIANCE_DRIFT V(0) = 8e-6 exceeds the slack 4e-6
        ref, rate0 = synthetic_reference(1e-3), 0.05
        inside = synthetic_run(self.UNEVEN, 0.9e-3,
                               lambda t: 4.0 + rate0 * t - 8e-4 * t ** 2)
        assert concavity_audit(inside, ref, rate0)
        moved = list(inside.trace)
        moved[3] = replace(moved[3], variance=moved[3].variance
                           + 2.0 * INVARIANCE_DRIFT * 4.0)
        assert not concavity_audit(replace(inside, trace=moved), ref, rate0)

    @pytest.mark.parametrize("last, passes", [
        (0.99, True), (1.0, False), (1.01, False)])
    def test_concavity_rejects_a_run_that_outlives_the_bound(
            self, last, passes):
        # V(t) = 1 - 8e-4 t^2 lies on the envelope, whose root is
        # T* = sqrt(2 / 1.6e-3) = 35.36; the last record, at detection, is
        # outside the window, so only its time against T* decides
        ref = synthetic_reference(1e-3)
        t_bound = blowup_time_bound(synthetic_record(0.0, 0.9e-3, 1.0),
                                    ref, 0.0)[1]
        assert t_bound == pytest.approx(np.sqrt(1250.0), rel=1e-12)
        t_end = last * t_bound
        run = synthetic_run((0.0, 10.0, 20.0, 30.0, t_end), 0.9e-3,
                            lambda t: 1.0 - 8e-4 * t ** 2, t_detect=t_end)
        assert concavity_audit(run, ref, 0.0) == passes

    @pytest.mark.parametrize("action", [1e-3, 1.1e-3])
    def test_concavity_needs_action_below_the_ground_state(self, action):
        # c = 16 (S(phi) - S(u0)) <= 0 gives no envelope and no T*
        run = synthetic_run(self.UNEVEN, action, lambda t: 1.0)
        with pytest.raises(MembershipError,
                           match=re.escape("is not below S(phi)")):
            concavity_audit(run, synthetic_reference(1e-3), 0.0)

    def test_variance_rate_of_a_moving_gaussian(self):
        # u = exp(-(x - x0)^2 / 2 + i v x): Im(conj(u) u_x) = v |u|^2, so
        # V' = 4 v int x exp(-(x - x0)^2) dx = 4 v x0 sqrt(pi)
        x0, v = 1.5, 0.7
        grid = PeriodicGrid(40.0, 1024)
        u = ComplexField(grid,
                         np.exp(-(grid.x - x0) ** 2 / 2 + 1j * v * grid.x))
        assert variance_rate(u) == pytest.approx(4.0 * v * x0 * np.sqrt(np.pi),
                                                 rel=1e-10)

    @pytest.mark.parametrize("cubic", [0.0, 0.7])
    def test_third_difference_reads_uneven_records(self, cubic):
        # V(t) = cubic t^3 - 0.3 t^2 has third derivative 6 cubic
        trace = [synthetic_record(t, 0.0, variance=cubic * t ** 3 - 0.3 * t ** 2)
                 for t in self.UNEVEN]
        assert variance_third_difference(trace) == pytest.approx(
            6.0 * cubic, abs=1e-12)

    @pytest.mark.parametrize("times, message", [
        ((0.0, 1.0), "need at least 3 records, got 2"),
        ((0.0, 1.0, 1.0, 2.0, 3.0), "strictly increasing times over the 5"),
    ])
    def test_variance_audits_need_increasing_records(self, times, message):
        trace = [synthetic_record(t, 0.0) for t in times]
        with pytest.raises(PreconditionError, match=message):
            virial_check(trace)

    def test_invariance_rejects_action_above_small_ground_state(self):
        # S(phi) = 1e-3: the second record leaves the blowup set by
        # S(u) - S(phi) = +5e-7, 500 times the slack 1e-6 |S(phi)|
        ref = synthetic_reference(1e-3)
        trace = [synthetic_record(0.0, 0.9e-3),
                 synthetic_record(1.0, 1e-3 + 5e-7)]
        verdict = BlowupVerdict(None, None, trace, None, 1, 0, 1.0, [])
        assert not b_omega_invariance_audit(verdict, ref)

    @pytest.mark.parametrize("field, value", [
        # S(u) - S(phi) = 1.5e-9 against the slack 1e-6 |S(phi)| = 1e-9
        ("action", 1e-3 * (1.0 + 1.5e-6)),
        # mass(u) - mass(phi) = 2.5e-6 against (MASS_BAND + 1e-6) mass(phi)
        ("mass", 1.0 + 2.5e-6),
        ("nehari", 0.0),
        # Q = 0 also breaks the virial bound, which is negative whenever
        # the run starts inside the set
        ("virial", 0.0),
        # Q < 0, but 8 Q = bound + 8e-9 against the slack 1e-6 |bound|
        ("virial", -2e-4 + 1e-9),
    ])
    def test_invariance_rejects_each_condition_just_past_its_band(
            self, field, value):
        # S(u0) = 0.9e-3 below S(phi) = 1e-3, so the virial bound
        # 16 (S(u0) - S(phi)) is -1.6e-3; one field of the second record
        # is moved just out of the blowup set
        ref = synthetic_reference(1e-3)
        first, second = (synthetic_record(t, 0.9e-3) for t in (0.0, 1.0))
        inside = BlowupVerdict(None, None, [first, second], None, 1, 0, 1.0, [])
        assert b_omega_invariance_audit(inside, ref)
        moved = replace(inside, trace=[first, replace(second, **{field: value})])
        assert not b_omega_invariance_audit(moved, ref)


class TestConfigValidation:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.0, t_max=1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(dt=1e-3, t_max=-1.0)
        with pytest.raises(ValueError, match=r"\(dt=nan, t_max=1\.0,"):
            EvolutionConfig(dt=float("nan"), t_max=1.0)
        with pytest.raises(ValueError, match=r"\(dt=0\.001, t_max=nan,"):
            EvolutionConfig(dt=1e-3, t_max=float("nan"))
        with pytest.raises(ValueError, match=r"\(dt=inf, t_max=1\.0,"):
            EvolutionConfig(dt=float("inf"), t_max=1.0)
        with pytest.raises(ValueError, match=r"\(dt=0\.001, t_max=inf,"):
            EvolutionConfig(dt=1e-3, t_max=float("inf"))
        # a record count is a whole number: not a float, inf or a bool
        for every in (2.5, float("inf"), True, 0, np.int64(0)):
            with pytest.raises(PreconditionError,
                               match=re.escape(f"at least 1, got {every!r}")):
                EvolutionConfig(dt=1e-3, t_max=0.01, record_every=every)
        assert EvolutionConfig(dt=1e-3, t_max=0.01,
                               record_every=np.int64(2)).record_every == 2
