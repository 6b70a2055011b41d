"""Scalar functionals of a state: mass, energy, action, Nehari, virial.

All functionals are integrals over R^N.  Radial states are integrated with
the weight sigma_N r^{N-1}; periodic 1D states with uniform weights, except
the gradient norm, which ``_line_spectrum`` reads off the spectrum.  The
scaling family v^lambda(x) = lambda^{N/2} v(lambda x) leaves the mass
invariant and acts on the other norms by closed-form powers of lambda,
which is what ``at_scale`` evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi

import numpy as np
import scipy.fft
from scipy.special import bernoulli

from .params import (
    ComplexField,
    InvalidStateError,
    Params,
    PeriodicGrid,
    PreconditionError,
    RadialGrid,
    RadialProfile,
)

State = RadialProfile | ComplexField


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere in R^N (2 for N = 1)."""
    return 2.0 * pi ** (N / 2.0) / gamma(N / 2.0)


def radial_rule(grid: RadialGrid, N: int):
    """The quadrature samples -> sigma_N * trapezoid of samples * r^{N-1}
    over [0, rmax]; sigma_N and r^{N-1} are computed once per rule.  At
    even N the integrand f = r^{N-1} g(r) of an even g has
    f^(N-1)(0) = (N-1)! g(0) and f^(N+1)(0) = (N+1)!/2 g''(0), with
    g''(0)/2 ~ (g(h) - g(0)) / h^2, so the rule adds the Euler-Maclaurin
    end terms h^N (B_N/N g(0) + B_{N+2}/(N+2) (g(h) - g(0))), B_k the
    Bernoulli numbers; at N = 2 that is h^2/120 (11 g(0) - g(h)).  At odd N
    f is even and has none."""
    sigma, weight, dx = sphere_area(N), grid.r ** (N - 1), float(grid.spacing)
    if N % 2:
        return lambda samples: sigma * float(np.trapezoid(samples * weight, dx=dx))
    bern = bernoulli(N + 2)
    c0 = float(dx ** N * bern[N] / N)
    c1 = float(dx ** N * bern[N + 2] / (N + 2))
    return lambda samples: sigma * (
        float(np.trapezoid(samples * weight, dx=dx))
        + float(c0 * samples[0] + c1 * (samples[1] - samples[0])))


@dataclass(frozen=True)
class FunctionalReport:
    """Every scalar functional of one state for fixed parameters."""

    mass: float      # ||v||_{L2}^2
    grad: float      # ||grad v||_{L2}^2
    lp: float        # ||v||_{L^{p+1}}^{p+1}
    lq: float        # ||v||_{L^{q+1}}^{q+1}
    energy: float
    action: float
    nehari: float
    virial: float
    bigf: float
    d2s: float       # second lambda-derivative of the action along v^lambda


def _line_spectrum(u: np.ndarray, grid: PeriodicGrid) -> tuple[float, float]:
    """(||grad u||^2, spectral-tail fraction) of samples u on a periodic grid
    from one transform u_k: sum k^2 |u_k|^2 L/m^2 by Parseval, and the line's
    one resolution rule, sqrt(max |u_k|^2 on the band / max |u_k|^2), the band
    |k| >= 7/16 of the sampling rate being the slice ceil(7m/16)..floor(9m/16)."""
    m = grid.m
    uh = scipy.fft.fft(u)
    power = uh.real ** 2 + uh.imag ** 2
    grad_sq = float(np.sum(grid.wavenumbers ** 2 * power) * grid.length / m ** 2)
    peak = np.max(power)
    band = power[-(-7 * m // 16):9 * m // 16 + 1]
    tail = float(np.sqrt(np.max(band, initial=0.0) / peak)) if peak > 0 else 0.0
    return grad_sq, tail


def raw_norms(state: State, params: Params) -> tuple[float, float, float, float]:
    """(mass, grad, lp, lq) of a state under the given parameters."""
    mod = np.abs(np.asarray(state.values))
    if not np.all(np.isfinite(mod)):
        raise InvalidStateError("non-finite samples")
    if isinstance(state, RadialProfile):
        integ = radial_rule(state.grid, params.N)
        grad = integ(state.deriv ** 2)
    else:
        dx = state.grid.spacing
        integ = lambda samples: float(np.sum(samples) * dx)
        grad = _line_spectrum(state.values, state.grid)[0]

    mass = integ(mod ** 2)
    lp = integ(mod ** (params.p + 1))
    lq = integ(mod ** (params.q + 1))
    for name, val in (("mass", mass), ("grad", grad), ("lp", lp), ("lq", lq)):
        if not np.isfinite(val):
            raise InvalidStateError(f"non-finite {name}")
    return mass, grad, lp, lq


def report_from_norms(mass, grad, lp, lq, params: Params) -> FunctionalReport:
    a, b, p, q, w = params.a, params.b, params.p, params.q, params.omega
    al, be = params.alpha, params.beta
    energy = 0.5 * grad - a / (p + 1) * lp - b / (q + 1) * lq
    action = energy + 0.5 * w * mass
    nehari = grad + w * mass - a * lp - b * lq
    virial = grad - a * al / (p + 1) * lp - b * be / (q + 1) * lq
    bigf = a * (p - 1) / (p + 1) * lp + b * (q - 1) / (q + 1) * lq
    d2s = grad - a * al * (al - 1) / (p + 1) * lp - b * be * (be - 1) / (q + 1) * lq
    return FunctionalReport(mass, grad, lp, lq, energy, action, nehari,
                            virial, bigf, d2s)


def functionals(state: State, params: Params) -> FunctionalReport:
    """Compute the full functional report of a state."""
    return report_from_norms(*raw_norms(state, params), params)


def at_scale(report: FunctionalReport, params: Params, lam) -> FunctionalReport:
    """Report of v^lambda from the report of v, with no re-gridding.

    The mass is invariant; grad, lp and lq scale as lambda^2, lambda^alpha
    and lambda^beta.  An array ``lam`` gives array-valued fields.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise PreconditionError(f"lambda must be positive, got smallest "
                         f"{float(np.min(lam))!r}")
    return report_from_norms(report.mass, lam ** 2 * report.grad,
                             lam ** params.alpha * report.lp,
                             lam ** params.beta * report.lq, params)
