"""Ground-state solver tests.

The main oracle is the single-power soliton: with a = 0 the stationary
equation on the line has the closed form

    phi(x) = A sech(s x)^{2/(q-1)},  A = ((q+1) omega / (2 b))^{1/(q-1)},
    s = (q-1) sqrt(omega) / 2,

which we evaluate through Params.relaxed (the exponent window check would
reject a = 0 as a double-power problem).  For the full double-power
equation the first integral at the origin pins the amplitude to machine
precision, and the Nehari / virial certificates are checked directly.
"""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import ode, solve_ivp
from scipy.interpolate import CubicSpline

from dpnls import groundstate
from dpnls.params import (
    ERRORS,
    CertificationError,
    ConvergenceError,
    NoBracketError,
    Params,
    RadialGrid,
    RadialProfile,
    ResolutionError,
)
from dpnls.functionals import functionals
from dpnls.groundstate import (
    BISECTION_WIDTH,
    DOMAIN_LENGTH,
    IDENTITY_RTOL,
    NODES_PER_WIDTH,
    RESIDUAL_TOL,
    SHOT_RTOL,
    amplitude_floor,
    find_bracket,
    first_integral_amplitude,
    first_integral_report,
    residual_norm,
    shoot_classify,
    solve_ground_state,
)

from conftest import BASE, gaussian_profile, rescale_to_nehari


def sech_soliton(params, grid):
    """Closed-form single-power (a=0) soliton profile with derivative."""
    q, b, om = params.q, params.b, params.omega
    amp = ((q + 1.0) * om / (2.0 * b)) ** (1.0 / (q - 1.0))
    s = (q - 1.0) * np.sqrt(om) / 2.0
    r = grid.r
    sech = 1.0 / np.cosh(s * r)
    vals = amp * sech ** (2.0 / (q - 1.0))
    der = vals * (-2.0 * s / (q - 1.0)) * np.tanh(s * r)
    return RadialProfile(grid, vals, der)


class TestAmplitudeOracle:
    def test_first_integral_value(self, params1):
        # omega phi0^2 = (2a/(p+1)) phi0^4 + (2b/(q+1)) phi0^8 with a=b=1:
        # y^3 + 2y - 4 = 0 for y = phi0^2 (after clearing denominators).
        phi0 = first_integral_amplitude(params1)
        y = phi0 ** 2
        assert y ** 3 / 4.0 + y / 2.0 - 1.0 == pytest.approx(0.0, abs=1e-14)
        assert phi0 == pytest.approx(1.086052, abs=1e-5)

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 10.0, 50.0])
    def test_solver_matches_first_integral(self, omega):
        # the bisection only brackets φ(0) to 1e-3: the polish sets the
        # rest of its digits, and they must agree with the oracle
        params = Params(omega=omega, **BASE)
        gs = solve_ground_state(params)
        assert gs.amplitude == pytest.approx(
            first_integral_amplitude(params), rel=1e-10
        )

    def test_floor_below_amplitude(self, params1, gs1):
        floor = amplitude_floor(params1)
        assert floor < gs1.amplitude
        # below the floor a shot undershoots
        assert not shoot_classify(params1, floor * (1 - 1e-3))[0]


class TestFirstIntegralReport:
    """The quadrature oracle for the functionals of the 1D ground state."""

    def test_sech_closed_form(self):
        # a = 0, b = 1, q = 3, omega = 1: phi = sqrt(2) sech x, so
        # mass = 4, grad = 4/3 and ||phi||_4^4 = 16/3
        params = Params.relaxed(N=1, a=0.0, b=1.0, p=3.0, q=3.0, omega=1.0)
        rep = first_integral_report(params)
        assert rep.mass == pytest.approx(4.0, rel=1e-12)
        assert rep.grad == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert rep.lq == pytest.approx(16.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 10.0, 50.0])
    def test_identities_vanish(self, omega):
        rep = first_integral_report(Params(omega=omega, **BASE))
        assert abs(rep.nehari) <= 1e-10 * abs(rep.action)
        assert abs(rep.virial) <= 1e-10 * abs(rep.action)

    def test_only_on_the_line(self):
        with pytest.raises(ValueError, match="one dimension"):
            first_integral_report(
                Params(N=2, a=1.0, b=1.0, p=2.0, q=4.0, omega=1.0))

    def test_amplitude_search_is_capped(self):
        # with both powers repulsive the first integral has no turning
        # amplitude, so the search must stop at its upper end s = 1e8
        params = Params.relaxed(N=1, a=-1.0, b=-1.0, p=3.0, q=7.0,
                                omega=1.0)
        f = 1.0 + 2.0 / 4.0 * 1e8 ** 2 + 2.0 / 8.0 * 1e8 ** 6
        with pytest.raises(NoBracketError, match=re.escape(
                f"no positive zero of the first integral at ω = 1: it is "
                f"still {f:.3g} > 0 at s = 1e+08")):
            first_integral_amplitude(params)


class TestTinyAmplitude:
    """States far below any absolute scale of the solver: at p near 1 and
    small ω the amplitude floor (ω/a)^{1/(p-1)} is tiny."""

    # at q = 9.5 the floor is 1e-40 and c′ = b s0^{8.5}/ω underflows to 0
    CASES = [(1.05, 7.0, 0.1, 1.638616e-20, 1.975),
             (1.2, 7.0, 1e-3, 1.610510e-15, 1.900),
             (1.05, 9.5, 0.01, 1.638616e-40, 1.975)]

    @pytest.fixture(scope="class", params=CASES,
                    ids=["p1.05-w0.1", "p1.2-w1e-3", "p1.05-q9.5-w0.01"])
    def case(self, request):
        p, q, omega, amp, d2s_rel = request.param
        params = Params(N=1, a=1.0, b=1.0, p=p, q=q, omega=omega)
        return solve_ground_state(params), amp, d2s_rel

    def test_certified(self, case):
        gs, _, _ = case
        s0 = amplitude_floor(gs.params)
        scale = abs(gs.report.action)
        # the gate holds the normalised residual too, which the r-residual
        # undercuts by ω s0; the result keeps both
        assert gs.unit_residual <= RESIDUAL_TOL
        assert gs.residual == pytest.approx(
            gs.params.omega * s0 * gs.unit_residual, rel=1e-12)
        assert abs(gs.report.nehari) <= IDENTITY_RTOL * scale
        assert abs(gs.report.virial) <= IDENTITY_RTOL * scale

    def test_gate_reads_the_normalised_residual(self, monkeypatch):
        # at a gate of 1e-20 the r-residual, about 1e-27, passes and the
        # normalised one, about 1e-9, does not
        monkeypatch.setattr(groundstate, "RESIDUAL_TOL", 1e-20)
        with pytest.raises(ConvergenceError,
                           match=r"e-2\d \(normalised .*e-\d\d\) above 1e-20"):
            solve_ground_state(Params(N=1, a=1.0, b=1.0, p=1.2, q=7.0,
                                      omega=1e-3))

    def test_underflowing_coefficient_is_not_a_precondition(self):
        # c′ underflows to 0 here too; the state is too wide for the
        # extended domain, and the error says so
        with pytest.raises(ResolutionError, match="domain too short"):
            solve_ground_state(Params(N=1, a=1.0, b=1.0, p=1.03, q=9.0,
                                      omega=0.01))

    def test_matches_first_integral(self, case):
        gs, amp, d2s_rel = case
        rep = first_integral_report(gs.params)
        assert gs.amplitude == pytest.approx(
            first_integral_amplitude(gs.params), rel=1e-9)
        assert gs.report.action == pytest.approx(rep.action, rel=1e-9)
        assert gs.report.d2s == pytest.approx(rep.d2s, rel=1e-9)
        assert gs.amplitude == pytest.approx(amp, rel=1e-6)
        assert gs.report.d2s / abs(gs.report.action) == pytest.approx(
            d2s_rel, abs=1e-3)


class TestScalingLaw:
    """φ(r) = s0 u(√ω r) maps the ground state at (a, b, ω) onto the one at
    (c, c′, 1); every functional but the mass scales by
    κ = ω^{1-N/2} s0², the mass by ω^{-N/2} s0²."""

    SCALED = ("grad", "energy", "action", "bigf", "d2s")

    @staticmethod
    def factors(params):
        """(c, c′, 1) as parameters, κ and the mass factor."""
        s0, w, N = amplitude_floor(params), params.omega, params.N
        unit = Params(N, params.a * s0 ** (params.p - 1) / w,
                      params.b * s0 ** (params.q - 1) / w, params.p, params.q, 1.0)
        return unit, w ** (1 - N / 2) * s0 ** 2, w ** (-N / 2) * s0 ** 2

    def assert_scaled(self, rep, unit_rep, kappa, mass_factor, rel):
        for name in self.SCALED:
            assert getattr(rep, name) == pytest.approx(
                kappa * getattr(unit_rep, name), rel=rel), name
        assert rep.mass == pytest.approx(mass_factor * unit_rep.mass, rel=rel)
        for name in ("nehari", "virial"):
            assert abs(getattr(rep, name) - kappa * getattr(unit_rep, name)) \
                <= rel * abs(rep.action), name

    def test_first_integral_report_scales(self):
        params = Params(omega=50.0, **BASE)
        unit, kappa, mass_factor = self.factors(params)
        self.assert_scaled(first_integral_report(params),
                           first_integral_report(unit), kappa, mass_factor,
                           rel=1e-12)

    def test_solve_scales(self):
        params = Params(N=2, a=1.0, b=1.0, p=2.9, q=7.9, omega=30.0)
        unit, kappa, mass_factor = self.factors(params)
        self.assert_scaled(solve_ground_state(params).report,
                           solve_ground_state(unit).report, kappa,
                           mass_factor, rel=1e-12)


class TestDiagnostics:
    @pytest.fixture(scope="class")
    def sweep_states(self, gs_half, gs1, gs10):
        states = [gs_half, gs1, gs10]
        states += [solve_ground_state(Params(omega=w, **BASE))
                   for w in (2.0, 50.0)]
        return states

    def test_default_domain_suffices_across_sweep(self, sweep_states):
        # the omega-sweep points, omega = 50 included
        for gs in sweep_states:
            assert gs.diagnostics.extensions == 0

    def test_shot_counts(self, params1, gs1):
        diag = gs1.diagnostics
        # the bracket closes at the first doubling of the floor that overshoots
        lo, hi = gs1.bracket
        assert hi == amplitude_floor(params1) * 2 ** diag.bracket_shots
        # each bisection shot halves the bracket down to the stop width
        width = (hi - lo) / 2 ** diag.bisection_shots
        assert width <= BISECTION_WIDTH * lo < 2 * width


class TestCertificates:
    def test_nehari_and_virial_vanish(self, gs1):
        scale = abs(gs1.report.action)
        assert abs(gs1.report.nehari) <= 1e-6 * scale
        assert abs(gs1.report.virial) <= 1e-6 * scale

    def test_residual_small(self, gs1):
        assert gs1.residual <= 1e-8

    def test_failure_states_ratio_gate_and_action(self, gs1):
        # a result certifies itself on construction, a replaced one too
        action = abs(gs1.report.action)
        report = replace(gs1.report, nehari=2e-6 * action)
        with pytest.raises(CertificationError) as err:
            replace(gs1, report=report)
        assert str(err.value) == (
            "|nehari| / |S| = 2.00e-06 exceeds IDENTITY_RTOL = 1e-06 "
            f"(|S| = {action:.6g})")

    def test_replaced_residual_fails_the_gate(self, gs1):
        with pytest.raises(ConvergenceError, match=re.escape(
                f"stationary residual 2.00e-08 (normalised "
                f"{gs1.unit_residual:.2e}) above 1e-08")):
            replace(gs1, residual=2e-8)

    def test_bracket_straddles_amplitude(self, gs1):
        lo, hi = gs1.bracket
        assert lo < gs1.amplitude < hi

    # between the solve grid's nodes, which are collocation nodes of the
    # polish, the r-residual is above the gate at large ω: ROADMAP item 2
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="midpoint residual about 1e-7 at N = 1, "
                              "omega = 50")
    def test_residual_between_grid_nodes(self):
        params = Params(omega=50.0, **BASE)
        s0, unit = groundstate._normalised(params)
        grid = RadialGrid(DOMAIN_LENGTH,
                          int(DOMAIN_LENGTH * NODES_PER_WIDTH) + 1)
        shot = groundstate._shoot_amplitude(unit)[0]
        sol = groundstate._bvp_polish(unit, shot, grid.rmax)[0]
        mid = 0.5 * (grid.r[1:] + grid.r[:-1])
        mid = mid[mid < 0.8 * grid.rmax]
        # at N = 1 the residual's formula at the first node is the interior
        # one; the r-residual is ω s0 times the normalised one
        residual = groundstate._equation_residual(sol, unit, mid)
        assert params.omega * s0 * residual <= RESIDUAL_TOL


class TestSechOracle:
    """Residual of the exact single-power soliton under the FD residual."""

    def params(self):
        return Params.relaxed(N=1, a=0.0, b=1.0, p=3.0, q=3.0, omega=1.0)

    def test_residual_second_order(self):
        params = self.params()
        norms = []
        for n in (501, 1001, 2001):
            prof = sech_soliton(params, RadialGrid(20.0, n))
            norms.append(residual_norm(prof, params))
        # halving h should cut the FD residual by ~4
        assert norms[0] / norms[1] == pytest.approx(4.0, rel=0.2)
        assert norms[1] / norms[2] == pytest.approx(4.0, rel=0.2)

    def test_gaussian_not_a_solution(self):
        params = self.params()
        prof = gaussian_profile(rmax=20.0, n=2001)
        assert residual_norm(prof, params) > 1e-2

    def test_too_few_nodes_named(self):
        params = self.params()
        with pytest.raises(ValueError, match="at least 5 nodes, got 4"):
            residual_norm(sech_soliton(params, RadialGrid(20.0, 4)), params)


def separatrix(N, p, q):
    """(normalised parameters, separatrix) of a = b = 1, ω = 1 at (N, p, q):
    the separatrix is the polished amplitude φ(0)/s0 of the solve, since
    the bisection only brackets it to 1e-3."""
    params = Params(N=N, a=1.0, b=1.0, p=p, q=q, omega=1.0)
    s0, unit = groundstate._normalised(params)
    return unit, solve_ground_state(params).amplitude / s0


class TestShooting:
    def test_classification_monotone(self, params1):
        # every shot decides, on the wide state at p = 1.05 too, whose
        # shots run past the end ξ = 25 of the polish's domain
        wide = Params(N=1, a=1.0, b=1.0, p=1.05, q=7.0, omega=0.1)
        for params in (params1, wide):
            unit = groundstate._normalised(params)[1]
            lo, hi, _ = find_bracket(unit)
            assert lo == 1.0
            amps = np.linspace(0.5 * lo, 1.5 * hi, 25)
            overshoots = [shoot_classify(unit, a)[0] for a in amps]
            # undershoots below the bracket, overshoots above, one switch
            assert all(type(o) is bool for o in overshoots)
            assert not overshoots[0] and overshoots[-1]
            assert sum(o != n for o, n in zip(overshoots, overshoots[1:])) == 1

    @staticmethod
    def dense_events(params, amplitude, rmax):
        """Reference verdict: solve_ivp's DOP853 towards rmax with terminal
        events at the first zero of φ (+1) and the first turn of φ' to
        positive values (-1); 0 if neither happens before rmax."""

        def cross(r, y):
            return y[0]
        cross.terminal, cross.direction = True, -1

        def turn(r, y):
            return y[1]
        turn.terminal, turn.direction = True, 1

        shot = solve_ivp(groundstate._radial_rhs(params), (1e-12, rmax),
                         [amplitude, 0.0], method="DOP853", rtol=SHOT_RTOL,
                         atol=1e-16, events=(cross, turn))
        return 1 if shot.t_events[0].size else -1 if shot.t_events[1].size else 0

    @pytest.mark.parametrize("N, p, q", [(1, 3.0, 7.0), (2, 1.5, 4.0),
                                         (3, 1.5, 3.0)])
    def test_compiled_shot_matches_dense_events(self, N, p, q):
        # the compiled classification against the events of a solve_ivp
        # shot, on both sides of the separatrix and down to 1e-11 from it
        unit, amp = separatrix(N, p, q)
        for delta in (1e-3, 1e-8, 1e-11, 0.3, 0.5):
            for side in (-1, 1):
                shot = amp * (1 + side * delta)
                events = self.dense_events(unit, shot, DOMAIN_LENGTH)
                overshoots = shoot_classify(unit, shot)[0]
                assert events == side, (side, delta)
                assert overshoots is (side == 1), (side, delta)

    FORCE_CASES = [(1, 3.0, 7.0), (2, 1.5, 4.0), (3, 1.171, 4.015)]

    @pytest.mark.parametrize("N, p, q", FORCE_CASES)
    @pytest.mark.parametrize("phi", [-0.3, 1e-9, 0.7, 2.4])
    def test_force_on_floats_matches_arrays(self, N, p, q, phi):
        # the one force formula gives the same bits on a Python float (the
        # shots) as on an ndarray (the polish and the residuals)
        params = Params(N=N, a=1.0, b=1.0, p=p, q=q, omega=1.3)
        force = groundstate._forcing(params)
        on_float = force(phi)
        assert type(on_float) is float
        assert on_float == force(np.array([phi]))[0]
        r, dphi = 0.37, -0.21
        got = groundstate._radial_rhs(params)(r, np.array([phi, dphi]))
        want = -(N - 1) / r * np.array([dphi]) - force(np.array([phi]))
        assert [type(v) for v in got] == [float, float]
        assert got == [dphi, want[0]]

    @staticmethod
    def numpy_scalar_shot(params, amplitude):
        """Reference record (r, y) of ``shoot_classify``: the same DOP853 settings
        and stopping rule, with no horizon, and the force evaluated in
        numpy-scalar arithmetic on the unpacked ndarray y."""

        def rhs(r, y):
            phi, dphi = y
            m = np.abs(phi)
            force = (params.a * m ** (params.p - 1) * phi
                     + params.b * m ** (params.q - 1) * phi
                     - params.omega * phi)
            return [dphi, -(params.N - 1) / r * dphi - force]

        steps = []

        def decide(r, y):
            steps.append((r, y[0], y[1]))
            return -1 if y[0] < 0.0 or y[1] > 0.0 else 0

        shot = ode(rhs).set_integrator("dop853", rtol=SHOT_RTOL, atol=1e-16,
                                       nsteps=groundstate.MAX_SHOT_STEPS)
        shot.set_solout(decide)
        shot.set_initial_value([amplitude, 0.0], 1e-12)
        shot.integrate(np.inf)
        record = np.array(steps)
        return record[:, 0], record[:, 1:]

    @pytest.mark.parametrize("N, p, q", FORCE_CASES)
    def test_shot_record_matches_numpy_scalar_reference(self, N, p, q):
        # the float shot must reproduce every accepted step of the numpy
        # scalar one bit for bit, on both sides of the separatrix; a change
        # of the force's operation order moves the last bits and fails here
        unit, amp = separatrix(N, p, q)
        for side in (-1, 1):
            shot = amp * (1 + side * 1e-11)
            overshoots, r, y = shoot_classify(unit, shot)
            ref_r, ref_y = self.numpy_scalar_shot(unit, shot)
            assert overshoots is (side == 1)
            assert r.size > 10
            np.testing.assert_array_equal(r, ref_r)
            np.testing.assert_array_equal(y, ref_y)

    # the wide states at p near 1 decide far out (ξ = 45 at p = 1.02); a
    # shot that stopped undecided at ξ = 25 left them up to 2.6e-5 off
    @pytest.mark.parametrize("p, q, omega", [
        (3.0, 7.0, 0.5), (3.0, 7.0, 1.0), (3.0, 7.0, 10.0), (3.0, 7.0, 50.0),
        (1.05, 7.0, 0.1), (1.02, 6.0, 1.0), (1.05, 7.0, 1.0), (1.08, 5.5, 0.3),
    ], ids=["0.5", "1.0", "10.0", "50.0", "p1.05-q7-w0.1", "p1.02-q6-w1",
            "p1.05-q7-w1", "p1.08-q5.5-w0.3"])
    def test_seed_shot_keeps_first_integral(self, p, q, omega):
        # the polish seed is the record of the last bisection shot up to the
        # step before the deciding one; it starts at (1e-12, u(0), 0) with
        # u(0) inside the bracket and s0 u(0) at the first-integral amplitude
        # to the bisection width, and the record keeps the line's first
        # integral on its own level set, u'² - G(u) = -G(u(0)) with
        # G(u) = u² - 2c/(p+1) u^{p+1} - 2c′/(q+1) u^{q+1}
        params = Params(N=1, a=1.0, b=1.0, p=p, q=q, omega=omega)
        s0, unit = groundstate._normalised(params)
        (x, y), (lo, hi), _, _ = groundstate._shoot_amplitude(unit)
        amp = y[0, 0]
        assert (x[0], y[0, 1]) == (1e-12, 0.0)
        assert lo < amp < hi
        assert s0 * amp == pytest.approx(first_integral_amplitude(params),
                                         rel=BISECTION_WIDTH)
        assert np.all(np.diff(x) > 0)
        c, c1, p, q = unit.a, unit.b, unit.p, unit.q

        def G(u):
            return (u ** 2 - 2 * c / (p + 1) * u ** (p + 1)
                    - 2 * c1 / (q + 1) * u ** (q + 1))

        u, du = y[:-1].T
        level = du ** 2 - G(u)
        assert np.max(np.abs(level + G(amp))) <= 1e-10 * amp ** 2

    def test_solve_integrates_only_its_shots(self, monkeypatch):
        # the polish is seeded from the last bisection shot's record, so a
        # solve whose domain is extended once builds one integrator per
        # bracket or bisection shot and none for its two polish attempts;
        # the shots are the doublings of the floor 1 to the bracket, then
        # ten halvings inside it, and none is made at the floor itself
        built, shots = [], []

        def counted_ode(*args, **kwargs):
            built.append(args)
            return ode(*args, **kwargs)

        def spied_shot(params, amplitude):
            shots.append(amplitude)
            return shoot_classify(params, amplitude)

        monkeypatch.setattr(groundstate, "ode", counted_ode)
        monkeypatch.setattr(groundstate, "shoot_classify", spied_shot)
        gs = solve_ground_state(Params(N=1, a=1.0, b=1.0, p=1.1, q=7.0,
                                       omega=1.0))
        diag = gs.diagnostics
        assert diag.extensions == 1
        assert diag.bisection_shots == 10
        assert len(built) == len(shots) == (diag.bracket_shots
                                            + diag.bisection_shots)
        doublings, halvings = (shots[:diag.bracket_shots],
                               shots[diag.bracket_shots:])
        assert doublings == [2.0 ** k for k in
                             range(1, diag.bracket_shots + 1)]
        lo, hi = ([1.0] + doublings)[-2:]
        assert all(lo < a < hi for a in halvings)
        assert all(a > 1.0 for a in shots)

    def test_step_budget_raises(self, params1, monkeypatch):
        monkeypatch.setattr(groundstate, "MAX_SHOT_STEPS", 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError,
                               match=r"amplitude 1\.5 .* code -2 "
                                     r"\(more than 5 steps\)"):
                shoot_classify(params1, 1.5)

    def test_no_bracket_for_defocusing_signs(self):
        # with both powers repulsive there is no turning amplitude at all,
        # so the solve stops at the normalisation
        params = Params.relaxed(
            N=1, a=-1.0, b=-1.0, p=3.0, q=7.0, omega=1.0
        )
        # ω - a s^2 - b s^6 at the upper end s = 1e8 of the floor search
        f = 1.0 + 1e8 ** 2 + 1e8 ** 6
        with pytest.raises(NoBracketError, match=re.escape(
                f"no positive zero of the potential force at ω = 1: it is "
                f"still {f:.3g} > 0 at s = 1e+08")):
            solve_ground_state(params)


class TestDomain:
    def test_short_domain_names_the_tail(self, params1, monkeypatch):
        # e^{-18} is far above the tail threshold, so three solves on
        # rmax = 8, 12, 18 (at ω = 1, ξ = r) all leave a heavy tail at the
        # boundary; the first grid has 1281 nodes
        monkeypatch.setattr(groundstate, "DOMAIN_LENGTH", 8.0)
        with pytest.raises(ResolutionError, match=re.escape(
                "domain too short: the profile at rmax = 18 is still")):
            solve_ground_state(params1)

    @pytest.mark.parametrize("sign, shown", [(-1.0, "-1"), (0.0, "0")])
    def test_collapsed_polish_names_u0(self, params1, monkeypatch, sign,
                                       shown):
        # a polish that lands on u = -e^{-ξ} or u = 0 is no ground state: the
        # solve stops at its amplitude instead of cutting the profile there
        def collapsed(unit, shot, rmax):
            def sol(x, nu=0):
                return sign * (-1.0) ** nu * np.array([np.exp(-x), -np.exp(-x)])
            return sol, 2001, 1

        monkeypatch.setattr(groundstate, "_bvp_polish", collapsed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=re.escape(
                    f"BVP polish collapsed: u(0) = {shown} is not above")):
                solve_ground_state(params1)


class TestHigherDimension:
    @staticmethod
    def assert_certified(gs):
        scale = abs(gs.report.action)
        assert gs.residual <= 1e-8
        assert abs(gs.report.nehari) <= 1e-6 * scale
        assert abs(gs.report.virial) <= 1e-6 * scale

    def test_planar_ground_state_certified(self):
        params = Params(N=2, a=1.0, b=1.0, p=2.0, q=4.0, omega=1.0)
        gs = solve_ground_state(params)
        self.assert_certified(gs)

    @pytest.mark.parametrize("N, p, q, omega", [
        (2, 1.5, 4.0, 1.0),
        (2, 2.0, 5.0, 1.0),
        # amplitude 4.5x its floor: three doublings to the bracket
        (3, 1.5, 3.0, 1.0),
        # its default domain is extended once
        (3, 1.2, 2.5, 0.5),
        # a polish at tol 1e-10 runs out of its 60000 nodes here
        (3, 1.5, 4.5, 1.0),
        # p < 2 < q < 3; |K|/|S| needs the h^4 end term of the N = 4 rule
        (4, 1.5, 2.5, 1.0),
    ])
    def test_certified_on_default_grid(self, N, p, q, omega):
        self.assert_certified(solve_ground_state(
            Params(N=N, a=1.0, b=1.0, p=p, q=q, omega=omega)))

    # near the top of the admissible q range at large ω; |K|/|S| is about
    # 7e-9 with the h^4 end term of the N = 2 quadrature, 1.1e-6 without
    @pytest.mark.parametrize("p", [2.9, 1.2])
    def test_high_q_large_omega_certifies(self, p):
        self.assert_certified(solve_ground_state(
            Params(N=2, a=1.0, b=1.0, p=p, q=7.9, omega=30.0)))

    # at N = 4 with q near its Sobolev bound 3 and large ω; the normalised
    # polish certifies these on about 5800 nodes
    @pytest.mark.parametrize("p, omega", [(1.9, 30.0), (1.1, 10.0)])
    def test_four_dimensional_large_omega_certifies(self, p, omega):
        self.assert_certified(solve_ground_state(
            Params(N=4, a=1.0, b=1.0, p=p, q=2.9, omega=omega)))

    # at p = 1.5 the collocation polish still runs out of its node budget
    # (46362 nodes here): ROADMAP item 2
    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="polish exceeds its node budget at N = 4, "
                              "p = 1.5, q = 2.9, omega = 30")
    def test_four_dimensional_node_budget(self):
        solve_ground_state(Params(N=4, a=1.0, b=1.0, p=1.5, q=2.9, omega=30.0))


@st.composite
def admissible_params(draw):
    """N <= 3, a = b = 1, p and q 0.1 inside their windows around the
    critical power 1 + 4/N (q also below 1 + 4/N + 5 and, for N = 3, below
    the Sobolev power 5) and ω log-uniform on [0.3, 30]."""
    N = draw(st.sampled_from((1, 2, 3)))
    critical = 1.0 + 4.0 / N
    q_top = min(critical + 5.0, 1.0 + 4.0 / (N - 2)) if N > 2 else critical + 5.0
    p = draw(st.floats(1.1, critical - 0.1))
    q = draw(st.floats(critical + 0.1, q_top - 0.1))
    omega = float(np.exp(draw(st.floats(np.log(0.3), np.log(30.0)))))
    return Params(N=N, a=1.0, b=1.0, p=p, q=q, omega=omega)


class TestAdmissibleParameters:
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(admissible_params())
    def test_certified_or_package_error(self, params):
        try:
            gs = solve_ground_state(params)
        except CertificationError:
            raise   # an uncertified state is a defect, not an allowed outcome
        except ERRORS:
            return
        scale = abs(gs.report.action)
        assert gs.residual <= RESIDUAL_TOL
        assert abs(gs.report.nehari) <= IDENTITY_RTOL * scale
        assert abs(gs.report.virial) <= IDENTITY_RTOL * scale


class TestResample:
    @pytest.mark.parametrize("lam", [1.0, 1.3, 2.9])
    def test_matches_fresh_splines(self, gs1, lam):
        grid = gs1.profile.grid
        r = lam * grid.r
        phi = gs1.resample(r)
        inside = r <= grid.rmax
        want = CubicSpline(grid.r, gs1.profile.values)(np.clip(r, 0.0, grid.rmax))
        assert np.array_equal(phi[inside], want[inside])
        assert np.all(phi[~inside] == 0.0)
        assert np.any(~inside) == (lam > 1.0)

    def test_results_do_not_share_a_spline(self, gs1):
        prof = gs1.profile
        doubled = replace(gs1, profile=RadialProfile(
            prof.grid, 2.0 * prof.values, 2.0 * prof.deriv))
        r = 1.3 * prof.grid.r
        phi = gs1.resample(r)
        assert np.array_equal(doubled.resample(r), 2.0 * phi)
        assert np.array_equal(gs1.resample(r), phi)


class TestGridConsistency:
    def test_refinement_agrees(self, params1, gs1, monkeypatch):
        # twice the nodes per width: 8001 on the ξ-domain, which at ω = 1
        # is the r-domain
        monkeypatch.setattr(groundstate, "NODES_PER_WIDTH", 320)
        fine = solve_ground_state(params1)
        assert fine.profile.grid.n > 2 * gs1.profile.grid.n - 2
        assert fine.amplitude == pytest.approx(gs1.amplitude, rel=1e-8)
        assert fine.report.action == pytest.approx(
            gs1.report.action, rel=1e-6
        )


class TestMinimality:
    """S(phi) should undercut S of competing Nehari states."""

    def test_gaussians_lie_above(self, params1, gs1):
        s_phi = gs1.report.action
        for width in (0.5, 1.0, 2.0):
            prof = gaussian_profile(width=width)
            mu, rep = rescale_to_nehari(prof, params1)
            assert mu > 0
            assert rep.action > s_phi - 1e-10
