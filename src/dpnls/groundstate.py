"""Radial positive ground states of -Δφ + ωφ = a φ^p + b φ^q.

The solver shoots on the central amplitude φ(0) with bisection (overshoot =
the trajectory crosses zero, undershoot = φ' turns positive at positive φ),
then polishes the trajectory with a collocation BVP using the asymptotic
Robin condition φ' + sqrt(ω) φ = 0 at the truncation radius.  Accepted
states are certified by the exact identities K_ω(φ) = 0 and Q(φ) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_bvp, solve_ivp
from scipy.optimize import brentq

from .params import (
    CertificationError,
    ConvergenceError,
    NoBracketError,
    Params,
    RadialGrid,
    RadialProfile,
    ResolutionError,
    TailError,
)
from .functionals import FunctionalReport, _spline_resample, functionals

#: Profile values are truncated where they fall below this fraction of the peak.
TAIL_FRACTION = 1e-10
#: Relative tolerance for certifying |K| and |Q| against the action.
IDENTITY_RTOL = 1e-6


@dataclass(frozen=True)
class GroundStateResult:
    """Certified ground state with its functional report and diagnostics."""

    profile: RadialProfile
    params: Params
    report: FunctionalReport
    residual: float
    decay_rate: float
    amplitude: float            # φ(0)
    bracket: tuple[float, float]  # shooting amplitude bracket used

    def resample(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(φ, φ') at arbitrary radii, zero beyond the stored grid."""
        nodes = self.profile.grid.r
        return (_spline_resample(nodes, self.profile.values, r),
                _spline_resample(nodes, self.profile.deriv, r))


def _force(phi, params: Params):
    """a|φ|^{p-1}φ + b|φ|^{q-1}φ - ωφ (sign-safe for negative excursions)."""
    m = np.abs(phi)
    return (params.a * m ** (params.p - 1) * phi
            + params.b * m ** (params.q - 1) * phi
            - params.omega * phi)


def amplitude_ceiling(params: Params) -> float:
    """4x the positive zero of ω s - a s^p - b s^q (shooting upper bound)."""
    f = lambda s: params.omega - params.a * s ** (params.p - 1) \
        - params.b * s ** (params.q - 1)
    hi = 1.0
    while f(hi) > 0:
        hi *= 2.0
        if hi > 1e8:
            raise NoBracketError("no positive zero of the potential force")
    root = brentq(f, 1e-12, hi, xtol=1e-12)
    return 4.0 * root


def _shoot(params: Params, amplitude: float, rmax: float, rtol: float,
           atol: float, dense_output: bool):
    """RK45 trajectory from φ(0) = amplitude, φ'(0) = 0 towards rmax.

    It stops at the first zero crossing of φ (event 0) or the first turn of
    φ' to positive values (event 1).
    """

    def rhs(r, y):
        phi, dphi = y
        sing = 0.0 if r == 0.0 else (params.N - 1) / r * dphi
        return [dphi, -sing - _force(phi, params)]

    def cross(r, y):
        return y[0]
    cross.terminal = True
    cross.direction = -1

    def turn(r, y):
        return y[1]
    turn.terminal = True
    turn.direction = 1

    return solve_ivp(rhs, (1e-12, rmax), [amplitude, 0.0], method="RK45",
                     rtol=rtol, atol=atol, events=(cross, turn),
                     dense_output=dense_output)


def shoot_classify(params: Params, amplitude: float, rmax: float) -> int:
    """+1 if the trajectory crosses zero (amplitude too large), -1 if it
    turns back up at positive value (too small), 0 if neither event fires."""
    sol = _shoot(params, amplitude, rmax, 1e-10, 1e-14, dense_output=False)
    if sol.t_events[0].size:
        return 1
    if sol.t_events[1].size:
        return -1
    return 0


def find_bracket(params: Params, rmax: float) -> tuple[float, float]:
    """Amplitude bracket (lo undershoots, hi overshoots)."""
    ceiling = amplitude_ceiling(params)
    amps = np.linspace(ceiling / 64.0, ceiling, 64)
    signs = [shoot_classify(params, float(s), rmax) for s in amps]
    lo = hi = None
    for s, c in zip(amps, signs):
        if c < 0:
            lo = float(s)
        elif c > 0 and lo is not None:
            hi = float(s)
            break
    if lo is None or hi is None:
        raise NoBracketError(
            f"no undershoot/overshoot sign change in (0, {ceiling:.3g}]")
    return lo, hi


def _shoot_amplitude(params: Params, rmax: float,
                     max_iter: int = 200) -> tuple[float, tuple[float, float]]:
    lo, hi = find_bracket(params, rmax)
    bracket = (lo, hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        c = shoot_classify(params, mid, rmax)
        if c > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), bracket


def _bvp_polish(params: Params, amplitude: float, rmax: float, tol: float):
    """Collocation solve with φ'(0) = 0 and Robin decay at rmax."""
    sw = np.sqrt(params.omega)

    def rhs(r, y):
        return np.vstack([y[1], -_force(y[0], params)])

    def bc(ya, yb):
        return np.array([ya[1], yb[1] + sw * yb[0]])

    S = None
    if params.N > 1:
        # singular term (N-1)/r * d/dr enters through S y / r
        S = np.array([[0.0, 0.0], [0.0, -(params.N - 1.0)]])

    r0 = np.linspace(0.0, rmax, 2001)
    # shooting trajectory as initial guess, with an asymptotic tail past the
    # radius where bisection noise takes over
    ivp = _shoot(params, amplitude, rmax, 1e-12, 1e-16, dense_output=True)
    # splice an exponential tail where the bisected trajectory drops below
    # 1e-6 of the amplitude (still accurate there; garbage further out)
    rr = np.linspace(0.0, ivp.t[-1], 10000)
    ph = ivp.sol(rr)[0]
    low = np.nonzero(ph < 1e-6 * amplitude)[0]
    r_m = rr[low[0]] if low.size else ivp.t[-1]
    y0 = np.empty((2, r0.size))
    inside = r0 <= r_m
    y0[:, inside] = ivp.sol(r0[inside])
    if not np.all(inside):
        phi_m = max(float(ivp.sol(r_m)[0]), 1e-300)
        y0[0, ~inside] = phi_m * np.exp(-sw * (r0[~inside] - r_m))
        y0[1, ~inside] = -sw * y0[0, ~inside]
    # roundoff in the exponential tail can defeat the strictest tolerance,
    # so walk a short ladder and keep the first mesh that converges
    res = None
    for bvp_tol in (min(tol, 1e-10), 1e-9, 3e-9):
        res = solve_bvp(rhs, bc, r0, y0, S=S, tol=bvp_tol,
                        max_nodes=60000, verbose=0)
        if res.success:
            return res
    raise ConvergenceError(f"BVP polish failed: {res.message}")


def _equation_residual(sol, params: Params, r: np.ndarray) -> float:
    """Sup-norm of the stationary equation on interior nodes via the
    collocation interpolant's derivatives."""
    y = sol.sol(r)
    dy = sol.sol(r, 1)
    phi, dphi = y[0], y[1]
    d2phi = dy[1]
    ri = r[1:-1]
    res = -d2phi[1:-1] - (params.N - 1) / ri * dphi[1:-1] - _force(phi[1:-1], params)
    res0 = -params.N * d2phi[0] - _force(phi[0], params)
    return float(max(np.max(np.abs(res)), abs(res0)))


def _check_identities(report: FunctionalReport):
    """Raise CertificationError unless |K| and |Q| are within IDENTITY_RTOL
    of the action."""
    for name, val in (("nehari", report.nehari), ("virial", report.virial)):
        if abs(val) > IDENTITY_RTOL * abs(report.action):
            raise CertificationError(
                f"|{name}| = {abs(val):.2e} exceeds {IDENTITY_RTOL:.0e} * action")


def default_grid(params: Params, nodes_per_unit: float = 160.0) -> RadialGrid:
    """Truncation at 25/sqrt(ω) with spacing resolving the width 1/sqrt(ω)."""
    sw = np.sqrt(params.omega)
    rmax = 25.0 / sw
    n = int(np.ceil(nodes_per_unit * 25.0)) + 1
    return RadialGrid(rmax, n)


def solve_ground_state(params: Params, grid: RadialGrid | None = None,
                       tol: float = 1e-8) -> GroundStateResult:
    """Shoot + polish + certify a positive decaying ground state."""
    if grid is None:
        grid = default_grid(params)
    rmax = grid.rmax
    amp, bracket = _shoot_amplitude(params, rmax)

    for extension in range(3):
        if extension:
            rmax *= 1.5
            grid = RadialGrid(rmax, int(grid.n * 1.5))
        sol = _bvp_polish(params, amp, rmax, tol)
        tail = abs(sol.sol(rmax)[0]) / sol.sol(0.0)[0]
        if tail < TAIL_FRACTION:
            break
    else:
        raise ResolutionError(
            f"domain too short: the profile at rmax = {rmax:.4g} is still "
            f"{tail:.2e} of its peak (need < {TAIL_FRACTION:.0e}) after "
            f"{extension} domain extensions")

    r = grid.r
    y = sol.sol(r)
    phi, dphi = y[0], y[1]
    # truncate to the positive, decreasing part above the decay floor
    floor = TAIL_FRACTION * phi[0]
    bad = np.where((phi <= floor) | (np.diff(phi, prepend=2 * phi[0]) >= 0))[0]
    cut = int(bad[0]) if bad.size else r.size
    if cut < r.size:
        grid = RadialGrid(r[cut - 1], cut)
        phi, dphi = phi[:cut], dphi[:cut]
    profile = RadialProfile(grid, phi, dphi)

    residual = _equation_residual(sol, params, grid.r)
    if residual > max(tol, 1e-8):
        raise ConvergenceError(f"stationary residual {residual:.2e} above tol")

    report = functionals(profile, params)
    _check_identities(report)

    rate = decay_fit(profile, params.omega)
    if rate <= 0:
        raise CertificationError("fitted decay rate is not positive")

    return GroundStateResult(profile, params, report, residual, rate,
                             float(phi[0]), bracket)


def residual_norm(profile: RadialProfile, params: Params) -> float:
    """Finite-difference sup-norm of the stationary equation residual."""
    g = profile.grid
    if g.n < 5:
        raise ValueError("need at least 5 nodes")
    phi = profile.values
    h = g.spacing
    d2 = (phi[:-2] - 2 * phi[1:-1] + phi[2:]) / h ** 2
    d1 = (phi[2:] - phi[:-2]) / (2 * h)
    ri = g.r[1:-1]
    res = -d2 - (params.N - 1) / ri * d1 - _force(phi[1:-1], params)
    d2_0 = 2.0 * (phi[1] - phi[0]) / h ** 2   # φ'(0) = 0 ghost node
    res0 = -params.N * d2_0 - _force(phi[0], params)
    return float(max(np.max(np.abs(res)), abs(res0)))


def decay_fit(profile: RadialProfile, omega: float) -> float:
    """Negated least-squares slope of log φ over the tail window (≈ sqrt(ω))."""
    n = profile.grid.n
    window = slice(max(0, n - max(n // 5, 3)), n)
    vals = profile.values[window]
    if np.any(vals <= 0):
        raise TailError("nonpositive values in the tail window")
    r = profile.grid.r[window]
    slope = np.polyfit(r, np.log(vals), 1)[0]
    if slope >= 0:
        raise TailError("tail window is not decaying")
    return float(-slope)


def first_integral_amplitude(params: Params) -> float:
    """1D oracle: φ(0) from ωs² = 2a/(p+1) s^{p+1} + 2b/(q+1) s^{q+1}."""
    if params.N != 1:
        raise ValueError("first integral closes only in one dimension")
    a, b, p, q, w = params.a, params.b, params.p, params.q, params.omega
    f = lambda s: w - 2 * a / (p + 1) * s ** (p - 1) - 2 * b / (q + 1) * s ** (q - 1)
    hi = 1.0
    while f(hi) > 0:
        hi *= 2.0
    return float(brentq(f, 1e-12, hi, xtol=1e-14, rtol=8.9e-16))
