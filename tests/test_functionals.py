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
    ResolutionError,
)
from dpnls.functionals import (
    action_at_scale,
    functionals,
    h1_distance,
    quadrature,
    report_from_norms,
    s_along_scaling,
    scale_field,
    sphere_area,
)
from conftest import gaussian_field, gaussian_profile

SQRT_PI = np.sqrt(np.pi)


def gauss_integral(k):
    """Closed-form oracle: integral of exp(-k x^2) over the line."""
    return np.sqrt(np.pi / k)


class TestQuadrature:
    def test_constant_on_periodic_grid(self):
        grid = PeriodicGrid(7.5, 64)
        f = ComplexField(grid, np.ones(64, dtype=complex))
        assert quadrature(f) == pytest.approx(7.5, abs=1e-14)

    def test_radial_gaussian_full_line(self):
        # symmetry factor 2 recovers the full-line Gaussian integral
        grid = RadialGrid(15.0, 3001)
        prof = RadialProfile(grid, np.exp(-grid.r ** 2))
        assert quadrature(prof, N=1) == pytest.approx(SQRT_PI, abs=1e-8)

    def test_zero_profile(self):
        grid = RadialGrid(5.0, 101)
        assert quadrature(RadialProfile(grid, np.zeros(101)), N=1) == 0.0

    def test_radial_needs_dimension(self):
        grid = RadialGrid(5.0, 101)
        with pytest.raises(PreconditionError):
            quadrature(RadialProfile(grid, np.ones(101)))

    def test_nonfinite_rejected(self):
        grid = RadialGrid(5.0, 101)
        vals = np.zeros(101)
        vals[3] = np.inf
        with pytest.raises(InvalidStateError):
            RadialProfile(grid, vals)

    def test_refinement_convergence(self):
        # composite trapezoid: error drops at least at second order
        exact = SQRT_PI
        errs = []
        for n in (51, 101, 201):
            grid = RadialGrid(15.0, n)
            prof = RadialProfile(grid, np.exp(-grid.r ** 2))
            errs.append(abs(quadrature(prof, N=1) - exact))
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
        assert all(v == 0.0 for v in rep.as_record().values())

    def test_action_identity(self, report, params1):
        assert report.action == pytest.approx(
            report.energy + 0.5 * params1.omega * report.mass, rel=1e-14)

    def test_action_nehari_bigf_identity(self, report):
        assert report.action == pytest.approx(
            0.5 * report.nehari + 0.5 * report.bigf, rel=1e-12)


@given(mass=st.floats(1e-6, 1e3), grad=st.floats(1e-6, 1e3),
       lp=st.floats(1e-6, 1e3), lq=st.floats(1e-6, 1e3),
       omega=st.floats(0.01, 100.0))
def test_report_identities_hold_for_any_norms(mass, grad, lp, lq, omega):
    params = Params(1, 1.0, 2.0, 3.0, 7.0, omega)
    rep = report_from_norms(mass, grad, lp, lq, params)
    scale = max(abs(rep.action), 1.0)
    assert abs(rep.action - 0.5 * rep.nehari - 0.5 * rep.bigf) < 1e-12 * scale
    assert abs(rep.action - rep.energy - 0.5 * omega * mass) < 1e-12 * scale


class TestScaleField:
    def test_identity_at_lambda_one(self, params1):
        f = gaussian_field()
        assert scale_field(f, 1.0) is f

    def test_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            scale_field(gaussian_field(), 0.0)
        with pytest.raises(ValueError):
            scale_field(gaussian_field(), -2.0)

    @pytest.mark.parametrize("lam", [0.5, 0.8, 1.3, 2.0])
    def test_mass_preserved(self, params1, lam):
        f = gaussian_field(m=8192)
        m0 = functionals(f, params1).mass
        m1 = functionals(scale_field(f, lam), params1).mass
        assert m1 == pytest.approx(m0, rel=1e-6)

    def test_grad_scales_quadratically(self, params1):
        f = gaussian_field(m=8192)
        g0 = functionals(f, params1).grad
        g1 = functionals(scale_field(f, 2.0), params1).grad
        assert g1 == pytest.approx(4.0 * g0, rel=1e-6)

    def test_unresolvable_lambda(self, params1):
        f = gaussian_field(length=40.0, m=256)
        with pytest.raises(ResolutionError):
            scale_field(f, 30.0)

    def test_radial_profile_scaling(self, params1):
        prof = gaussian_profile()
        m0 = functionals(prof, params1).mass
        scaled = scale_field(prof, 1.5, params1)
        assert functionals(scaled, params1).mass == pytest.approx(m0, rel=1e-6)

    def test_radial_profile_needs_params(self):
        with pytest.raises(PreconditionError):
            scale_field(gaussian_profile(), 1.5)


class TestScalingCurve:
    def test_empty_lambda_list(self, params1):
        with pytest.raises(ValueError):
            s_along_scaling(gaussian_field(), params1, [])

    def test_small_lambda_limit(self, params1):
        rep = functionals(gaussian_field(), params1)
        (_, s, _), = s_along_scaling(rep, params1, [1e-9])
        assert s == pytest.approx(0.5 * params1.omega * rep.mass, rel=1e-8)

    def test_matches_direct_closed_form(self, params1):
        rep = functionals(gaussian_field(), params1)
        (_, s, q), = s_along_scaling(rep, params1, [2.0])
        lam = 2.0
        s_direct = (0.5 * lam ** 2 * rep.grad + 0.5 * rep.mass
                    - lam / 4.0 * rep.lp - lam ** 3 / 8.0 * rep.lq)
        assert s == pytest.approx(s_direct, rel=1e-12)
        assert q == pytest.approx(lam * (lam * rep.grad - rep.lp / 4.0
                                         - 3.0 * lam ** 2 / 8.0 * rep.lq), rel=1e-12)

    def test_virial_is_lambda_ds_dlambda(self, params1):
        rep = functionals(gaussian_field(), params1)
        h = 1e-7
        s_m, s_p = (action_at_scale(rep, params1, lam) for lam in (1 - h, 1 + h))
        fd = (s_p - s_m) / (2 * h)
        assert rep.virial == pytest.approx(fd, rel=1e-7)

    def test_d2s_matches_finite_difference(self, params1):
        rep = functionals(gaussian_field(), params1)
        h = 1e-4
        vals = action_at_scale(rep, params1, np.array([1 - h, 1.0, 1 + h]))
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
