"""Scalar functionals of a state: mass, energy, action, Nehari, virial.

All functionals are integrals over R^N.  Radial states are integrated with
the weight sigma_N r^{N-1}; periodic 1D states with uniform weights.  The
scaling family v^lambda(x) = lambda^{N/2} v(lambda x) leaves the mass
invariant and acts on the other norms by closed-form powers of lambda,
which is what ``at_scale`` evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi

import numpy as np

from .params import (
    ComplexField,
    InvalidStateError,
    Params,
    RadialGrid,
    RadialProfile,
    ResolutionError,
)

State = RadialProfile | ComplexField

#: Minimum number of nodes across the half-width after rescaling.
MIN_NODES_ACROSS_WIDTH = 16


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere in R^N (2 for N = 1)."""
    return 2.0 * pi ** (N / 2.0) / gamma(N / 2.0)


def radial_rule(grid: RadialGrid, N: int):
    """The quadrature samples -> sigma_N * trapezoid of samples * r^{N-1}
    over [0, rmax]; sigma_N and r^{N-1} are computed once per rule.  At
    N = 2 the integrand f = r g(r) of an even g has f'(0) = g(0) and
    f^(3)(0) = 3 g''(0) ~ 6 (g(h) - g(0)) / h^2, so the rule adds the
    Euler-Maclaurin end terms h^2/12 f'(0) - h^4/720 f^(3)(0), which is
    h^2/120 (11 g(0) - g(h)).  At odd N f is even and has none; at N = 4
    the rule omits the h^4 term of f^(3)(0) = 6 g(0)."""
    sigma, weight, dx = sphere_area(N), grid.r ** (N - 1), grid.spacing
    end = dx ** 2 / 120.0 if N == 2 else 0.0
    return lambda samples: sigma * (float(np.trapezoid(samples * weight, dx=dx))
                                    + end * float(11.0 * samples[0] - samples[1]))


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


def _grad_sq_samples(state: State) -> np.ndarray:
    """|grad v|^2 samples on the state's grid."""
    if isinstance(state, RadialProfile):
        return state.deriv ** 2
    k = state.grid.wavenumbers
    du = np.fft.ifft(1j * k * np.fft.fft(state.values))
    return np.abs(du) ** 2


def raw_norms(state: State, params: Params) -> tuple[float, float, float, float]:
    """(mass, grad, lp, lq) of a state under the given parameters."""
    mod = np.abs(np.asarray(state.values))
    if not np.all(np.isfinite(mod)):
        raise InvalidStateError("non-finite samples")
    if isinstance(state, RadialProfile):
        integ = radial_rule(state.grid, params.N)
    else:
        dx = state.grid.spacing
        integ = lambda samples: float(np.sum(samples) * dx)

    mass = integ(mod ** 2)
    grad = integ(_grad_sq_samples(state))
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
    if np.any(lam <= 0):
        raise ValueError("lambda must be positive")
    return report_from_norms(report.mass, lam ** 2 * report.grad,
                             lam ** params.alpha * report.lp,
                             lam ** params.beta * report.lq, params)


def _check_resolved(values: np.ndarray):
    """Raise ResolutionError unless MIN_NODES_ACROSS_WIDTH nodes sit at or
    above half the peak of |values|."""
    mod = np.abs(values)
    peak = np.max(mod)
    nodes = np.count_nonzero(mod >= peak / 2.0)
    if peak > 0 and nodes < MIN_NODES_ACROSS_WIDTH:
        raise ResolutionError(
            f"state carried by {nodes} nodes across its "
            f"half-width (need {MIN_NODES_ACROSS_WIDTH})")
