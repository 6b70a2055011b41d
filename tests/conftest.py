import numpy as np
import pytest
from scipy.optimize import brentq

from dpnls.params import (
    ComplexField,
    InvalidStateError,
    NoBracketError,
    Params,
    PeriodicGrid,
    RadialGrid,
    RadialProfile,
)
from dpnls.functionals import (
    FunctionalReport,
    functionals,
    raw_norms,
    report_from_norms,
)
from dpnls.groundstate import solve_ground_state

BASE = dict(N=1, a=1.0, b=1.0, p=3.0, q=7.0)


@pytest.fixture(scope="session")
def params1():
    return Params(omega=1.0, **BASE)


@pytest.fixture(scope="session")
def params_half():
    return Params(omega=0.5, **BASE)


@pytest.fixture(scope="session")
def gs1(params1):
    return solve_ground_state(params1)


@pytest.fixture(scope="session")
def gs_half(params_half):
    return solve_ground_state(params_half)


@pytest.fixture(scope="session")
def gs10():
    return solve_ground_state(Params(omega=10.0, **BASE))


def gaussian_profile(rmax=20.0, n=4001, width=1.0):
    """exp(-r^2 / (2 width^2)) with exact derivative samples."""
    grid = RadialGrid(rmax, n)
    r = grid.r
    vals = np.exp(-r ** 2 / (2.0 * width ** 2))
    der = -r / width ** 2 * vals
    return RadialProfile(grid, vals, der)


def gaussian_field(length=40.0, m=4096, width=1.0):
    grid = PeriodicGrid(length, m)
    x = grid.x
    return ComplexField(grid, np.exp(-x ** 2 / (2.0 * width ** 2)).astype(complex))


def h1_distance(u, v, params):
    """H^1 distance sqrt(||u-v||_{L2}^2 + ||grad(u-v)||_{L2}^2)."""
    if u.grid != v.grid:
        raise InvalidStateError("grids differ")
    if isinstance(u, RadialProfile):
        diff = RadialProfile(u.grid, u.values - v.values, u.deriv - v.deriv)
    else:
        diff = ComplexField(u.grid, u.values - v.values)
    m, g, _, _ = raw_norms(diff, params)
    return float(np.sqrt(m + g))


def rescale_to_nehari(v, params):
    """Amplitude mu > 0 with K(mu v) = 0; returns (mu, report of mu*v).

    K(mu v)/mu^2 is strictly decreasing in mu, so the crossing is unique.
    The bracket search is capped at mu = 1e8 above and 1e-8 below.
    """
    report = v if isinstance(v, FunctionalReport) else functionals(v, params)
    if report.mass <= 0:
        raise ValueError("cannot rescale the zero state")
    if report.lp <= 0 or report.lq <= 0:
        raise ValueError("state needs nonvanishing power norms")
    p, q, a, b = params.p, params.q, params.a, params.b
    quad = report.grad + params.omega * report.mass

    def k_over_mu2(mu):
        return quad - a * mu ** (p - 1) * report.lp - b * mu ** (q - 1) * report.lq

    hi = 1.0
    while k_over_mu2(hi) > 0:
        hi *= 2.0
        if hi > 1e8:
            raise NoBracketError("K(mu v) stays positive up to mu = 1e8")
    lo = hi / 2.0
    while k_over_mu2(lo) < 0:
        lo *= 0.5
        if lo < 1e-8:
            raise NoBracketError("K(mu v) stays negative down to mu = 1e-8")
    mu = float(brentq(k_over_mu2, lo, hi, xtol=1e-14, rtol=8.9e-16))
    return mu, report_from_norms(mu ** 2 * report.mass, mu ** 2 * report.grad,
                                 mu ** (p + 1) * report.lp,
                                 mu ** (q + 1) * report.lq, params)
