import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpnls.params import (
    ComplexField,
    InvalidStateError,
    Params,
    PeriodicGrid,
    PreconditionError,
    RadialGrid,
    RadialProfile,
)
from dpnls.functionals import (
    at_scale,
    functionals,
    radial_rule,
    report_from_norms,
    sphere_area,
)
from dpnls.evolution import EvolutionConfig
from dpnls.lemma_lab import ExponentPair
from conftest import gaussian_field, h1_distance

SQRT_PI = np.sqrt(np.pi)


def gauss_integral(k):
    """Closed-form oracle: integral of exp(-k x^2) over the line."""
    return np.sqrt(np.pi / k)


@pytest.mark.parametrize("build, error, message", [
    (lambda: RadialGrid(np.nan, 10), ValueError,
     "rmax must be positive, got nan"),
    (lambda: PeriodicGrid(np.nan, 16), ValueError,
     "length must be positive, got nan"),
    (lambda: Params(np.nan, 1.0, 1.0, 3.0, 7.0, 1.0), PreconditionError,
     "N must be a positive integer, got nan"),
    (lambda: Params(np.inf, 1.0, 1.0, 3.0, 7.0, 1.0), PreconditionError,
     "N must be a positive integer, got inf"),
    (lambda: RadialGrid(np.inf, 10), ValueError,
     "rmax must be positive, got inf"),
    (lambda: PeriodicGrid(np.inf, 16), ValueError,
     "length must be positive, got inf"),
    (lambda: Params(1, 1.0, 1.0, 3.0, 7.0, np.inf), PreconditionError,
     "omega must be positive: omega=inf"),
    (lambda: Params(1, np.inf, 1.0, 3.0, 7.0, 1.0), PreconditionError,
     "a, b must be positive: a=inf, b=1.0"),
    (lambda: Params(1, 1.0, np.inf, 3.0, 7.0, 1.0), PreconditionError,
     "a, b must be positive: a=1.0, b=inf"),
    (lambda: Params(1, 1.0, 1.0, 3.0, np.inf, 1.0), PreconditionError,
     "need 1 < p < 5.0 < q < inf, got p=3.0, q=inf"),
    # N and the node counts are whole numbers: not a float, inf or a bool
    (lambda: Params(True, 1.0, 1.0, 3.0, 7.0, 1.0), PreconditionError,
     "N must be a positive integer, got True"),
    (lambda: Params(1.0, 1.0, 1.0, 3.0, 7.0, 1.0), PreconditionError,
     "N must be a positive integer, got 1.0"),
    (lambda: RadialGrid(10.0, 10.5), PreconditionError,
     "need an integer count of at least 2 nodes, got 10.5"),
    (lambda: RadialGrid(10.0, np.inf), PreconditionError,
     "need an integer count of at least 2 nodes, got inf"),
    (lambda: PeriodicGrid(32.0, 64.5), PreconditionError,
     "need an integer count of at least 2 nodes, got 64.5"),
    (lambda: PeriodicGrid(32.0, True), PreconditionError,
     "need an integer count of at least 2 nodes, got True"),
    (lambda: PeriodicGrid(32.0, np.int64(1)), PreconditionError,
     "need an integer count of at least 2 nodes, got np.int64(1)"),
    # a real value is an int or a float, not a bool or a string
    (lambda: Params(1, True, 1, 3, 7, 1), PreconditionError,
     "a, b must be positive: a=True, b=1"),
    (lambda: Params(1, 1, 1, 3, 7, True), PreconditionError,
     "omega must be positive: omega=True"),
    (lambda: Params(1, "1", 1, 3, 7, 1), PreconditionError,
     "a, b must be positive: a=1, b=1"),
    (lambda: Params(1, 1, 1, "3", 7, 1), PreconditionError,
     "need 1 < p < 5.0 < q < inf, got p=3, q=7"),
    (lambda: PeriodicGrid(True, 16), PreconditionError,
     "length must be positive, got True"),
    (lambda: RadialGrid(True, 10), PreconditionError,
     "rmax must be positive, got True"),
    (lambda: RadialGrid("10", 10), PreconditionError,
     "rmax must be positive, got '10'"),
    (lambda: EvolutionConfig(dt=True, t_max=1.0), PreconditionError,
     "dt and t_max must be positive"),
    (lambda: ExponentPair(True, 3.0), PreconditionError,
     "need 0 < alpha < 2 < beta"),
])
def test_non_finite_sizes_are_rejected(build, error, message):
    # NaN and inf fail each range check, a node count must be an integer,
    # and the message names the value
    with pytest.raises(error, match=re.escape(message)):
        build()


class TestQuadrature:
    def test_constant_on_periodic_grid(self, params1):
        grid = PeriodicGrid(7.5, 64)
        f = ComplexField(grid, np.ones(64, dtype=complex))
        assert functionals(f, params1).mass == pytest.approx(7.5, abs=1e-14)

    def test_radial_gaussian_full_line(self):
        # symmetry factor 2 recovers the full-line Gaussian integral
        grid = RadialGrid(15.0, 3001)
        assert radial_rule(grid, 1)(np.exp(-grid.r ** 2)) == pytest.approx(
            SQRT_PI, abs=1e-8)

    def test_planar_gaussian_end_term(self):
        # at N = 2 the integrand r e^{-r^2} has slope 1 at the origin; the
        # plain trapezoid rule errs by -1.3e-5 here
        grid = RadialGrid(15.0, 3001)
        assert radial_rule(grid, 2)(np.exp(-grid.r ** 2)) == pytest.approx(
            np.pi, abs=1e-9)

    def test_planar_gaussian_h4_end_term(self):
        # the h^4 end term cancels the O(h^4) error of the N = 2 rule: the
        # error falls by about 64 from 41 to 81 nodes (16 without it)
        grid = RadialGrid(8.0, 81)
        assert radial_rule(grid, 2)(np.exp(-grid.r ** 2)) == pytest.approx(
            np.pi, rel=5e-8)

    def test_four_dimensional_gaussian_h4_end_term(self):
        # at N = 4 the integrand r^3 e^{-r^2} has f'''(0) = 6; without its
        # h^4 end term the rule errs by 1.7e-6 here
        grid = RadialGrid(8.0, 81)
        assert radial_rule(grid, 4)(np.exp(-grid.r ** 2)) == pytest.approx(
            np.pi ** 2, rel=1e-9)

    def test_rule_returns_python_float(self):
        # an np.float64 would reach the CSV writers as its repr; the grid's
        # rmax is a numpy float, as in the profiles of ``solve_ground_state``
        grid = RadialGrid(np.float64(8.0), 81)
        for N in (1, 2, 3, 4):
            assert type(radial_rule(grid, N)(np.exp(-grid.r ** 2))) is float

    def test_zero_profile(self):
        grid = RadialGrid(5.0, 101)
        assert radial_rule(grid, 1)(np.zeros(101)) == 0.0

    def test_nonfinite_rejected(self):
        grid = RadialGrid(5.0, 101)
        vals = np.zeros(101)
        vals[3] = np.inf
        with pytest.raises(InvalidStateError):
            RadialProfile(grid, vals, np.zeros(101))

    def test_refinement_convergence(self):
        # composite trapezoid: error drops at least at second order
        exact = SQRT_PI
        errs = []
        for n in (51, 101, 201):
            grid = RadialGrid(15.0, n)
            errs.append(abs(radial_rule(grid, 1)(np.exp(-grid.r ** 2))
                            - exact))
        assert errs[1] <= errs[0] / 3.5 + 1e-14
        assert errs[2] <= errs[1] / 3.5 + 1e-14

    def test_sphere_area_values(self):
        assert sphere_area(1) == pytest.approx(2.0)
        assert sphere_area(2) == pytest.approx(2 * np.pi)
        assert sphere_area(3) == pytest.approx(4 * np.pi)


@pytest.fixture(scope="module")
def report(params1):
    """Report of the Gaussian exp(-x^2/2) at N=1, a=b=1, p=3, q=7, omega=1."""
    return functionals(gaussian_field(), params1)


class TestFunctionals:

    def test_mass_and_grad(self, report):
        assert report.mass == pytest.approx(gauss_integral(1.0), rel=1e-8)
        assert report.grad == pytest.approx(gauss_integral(1.0) / 2, rel=1e-8)

    def test_energy(self, report):
        expected = (0.5 * SQRT_PI / 2 - 0.25 * gauss_integral(2.0)
                    - 0.125 * gauss_integral(4.0))
        assert report.energy == pytest.approx(expected, rel=1e-8)
        assert report.energy == pytest.approx(0.019006, abs=1e-5)

    def test_virial_and_d2s(self, report):
        # alpha = 1, beta = 3 for p = 3, q = 7 at N = 1
        q_exp = SQRT_PI / 2 - 0.25 * gauss_integral(2.0) - 0.375 * gauss_integral(4.0)
        d2s_exp = SQRT_PI / 2 - 0.75 * gauss_integral(4.0)
        assert report.virial == pytest.approx(q_exp, rel=1e-8)
        assert report.virial == pytest.approx(0.240563, abs=1e-5)
        assert report.d2s == pytest.approx(d2s_exp, rel=1e-8)
        assert report.d2s == pytest.approx(0.221557, abs=1e-5)

    def test_zero_state(self, params1):
        grid = PeriodicGrid(10.0, 128)
        rep = functionals(ComplexField(grid, np.zeros(128, dtype=complex)), params1)
        assert all(v == 0.0 for v in asdict(rep).values())

    def test_action_identity(self, report, params1):
        assert report.action == pytest.approx(
            report.energy + 0.5 * params1.omega * report.mass, rel=1e-14)

    def test_action_nehari_bigf_identity(self, report):
        assert report.action == pytest.approx(
            0.5 * report.nehari + 0.5 * report.bigf, rel=1e-12)


@given(mass=st.floats(1e-6, 1e3), grad=st.floats(1e-6, 1e3),
       lp=st.floats(1e-6, 1e3), lq=st.floats(1e-6, 1e3),
       omega=st.floats(0.01, 100.0),
       lam1=st.floats(0.1, 10.0), lam2=st.floats(0.1, 10.0))
def test_report_identities_hold_for_any_norms(mass, grad, lp, lq, omega,
                                              lam1, lam2):
    params = Params(1, 1.0, 2.0, 3.0, 7.0, omega)
    rep = report_from_norms(mass, grad, lp, lq, params)
    scale = max(abs(rep.action), 1.0)
    assert abs(rep.action - 0.5 * rep.nehari - 0.5 * rep.bigf) < 1e-12 * scale
    assert abs(rep.action - rep.energy - 0.5 * omega * mass) < 1e-12 * scale

    # the scaling family is a group action that fixes the mass
    assert at_scale(rep, params, 1.0) == rep
    assert at_scale(rep, params, lam1).mass == mass
    twice = asdict(at_scale(at_scale(rep, params, lam1), params, lam2))
    once = asdict(at_scale(rep, params, lam1 * lam2))
    # derived fields can cancel to near zero: measure against the norms
    size = sum(abs(once[k]) for k in ("mass", "grad", "lp", "lq"))
    for name, value in once.items():
        assert twice[name] == pytest.approx(value, rel=1e-12, abs=1e-12 * size)


class TestScalingCurve:
    def test_nonpositive_lambda(self, report, params1):
        for lam, smallest in ((0.0, "0.0"), ([-1.0, 2.0], "-1.0"),
                              ([2.0, np.nan], "nan")):
            with pytest.raises(ValueError, match=re.escape(
                    f"lambda must be positive, got smallest {smallest}")):
                at_scale(report, params1, lam)

    def test_small_lambda_limit(self, params1):
        rep = functionals(gaussian_field(), params1)
        s = at_scale(rep, params1, 1e-9).action
        assert s == pytest.approx(0.5 * params1.omega * rep.mass, rel=1e-8)

    def test_matches_direct_closed_form(self, params1):
        rep = functionals(gaussian_field(), params1)
        lam = 2.0
        scaled = at_scale(rep, params1, lam)
        s, q = scaled.action, scaled.virial
        s_direct = (0.5 * lam ** 2 * rep.grad + 0.5 * rep.mass
                    - lam / 4.0 * rep.lp - lam ** 3 / 8.0 * rep.lq)
        assert s == pytest.approx(s_direct, rel=1e-12)
        assert q == pytest.approx(lam * (lam * rep.grad - rep.lp / 4.0
                                         - 3.0 * lam ** 2 / 8.0 * rep.lq), rel=1e-12)

    def test_virial_is_lambda_ds_dlambda(self, params1):
        rep = functionals(gaussian_field(), params1)
        h = 1e-7
        s_m, s_p = at_scale(rep, params1, [1 - h, 1 + h]).action
        fd = (s_p - s_m) / (2 * h)
        assert rep.virial == pytest.approx(fd, rel=1e-7)

    def test_d2s_matches_finite_difference(self, params1):
        rep = functionals(gaussian_field(), params1)
        h = 1e-4
        vals = at_scale(rep, params1, [1 - h, 1.0, 1 + h]).action
        fd = (vals[0] - 2 * vals[1] + vals[2]) / h ** 2
        assert rep.d2s == pytest.approx(fd, rel=1e-5)


def test_h1_distance_zero_for_identical(params1):
    f = gaussian_field()
    assert h1_distance(f, f, params1) == 0.0


def test_complex_field_lives_on_the_line():
    with pytest.raises(InvalidStateError):
        ComplexField(RadialGrid(5.0, 101), np.zeros(101, dtype=complex))


def test_h1_distance_positive(params1):
    f = gaussian_field()
    g = ComplexField(f.grid, 1.1 * np.asarray(f.values))
    assert h1_distance(f, g, params1) > 0
