"""Radial positive ground states of -Δφ + ωφ = a φ^p + b φ^q.

The solver shoots on the central amplitude φ(0) with bisection (overshoot =
the trajectory crosses zero, undershoot = φ' turns positive at positive φ),
then polishes the trajectory with a collocation BVP using the asymptotic
Robin condition φ' + sqrt(ω) φ = 0 at the truncation radius, solved in
ξ = sqrt(ω) r so that its scale does not depend on ω.  Accepted
states are certified by the exact identities K_ω(φ) = 0 and Q(φ) = 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ode, quad, solve_bvp
from scipy.interpolate import CubicHermiteSpline, CubicSpline
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
from .functionals import FunctionalReport, functionals, report_from_norms

#: Profile values are truncated where they fall below this fraction of the peak.
TAIL_FRACTION = 1e-10
#: Relative tolerance for certifying |K| and |Q| against the action.
IDENTITY_RTOL = 1e-6
#: The polish guess follows the shooting trajectory down to this fraction of
#: the amplitude and continues it with the asymptotic tail beyond.
SPLICE_LEVEL = 1e-6
#: Relative width of the amplitude bracket at which bisection stops.  A
#: trajectory from the bracket midpoint, at most half the width off the
#: separatrix, departs from it like (width/2) e^{√ω r} while the profile
#: decays like e^{-√ω r}.  At the splice radius e^{√ω r} = 1/SPLICE_LEVEL,
#: so with this width the departure there equals the splice level.  A shot
#: may decide before it falls to that level (at N = 1, p = 3, q = 7, ω = 10
#: it turns at 1.24e-6 of the amplitude); the polish seed then has no
#: splice cut, and its exponential tail starts at the deciding step.
BISECTION_WIDTH = 2.0 * SPLICE_LEVEL ** 2
#: Relative tolerance of every shot: a shot must tell apart amplitudes half
#: the stop width from the separatrix.
SHOT_RTOL = BISECTION_WIDTH / 2.0
#: Step budget of one classifying shot.  The worst admissible shot measured,
#: at (N, p, q, ω) = (3, 1.825, 4.419, 25.378), takes about 250 steps, half
#: of scipy's default budget of 500; 5000 leaves a factor of 20.
MAX_SHOT_STEPS = 5000
#: Tolerance of the collocation polish.
POLISH_TOL = 1e-9
#: Sup-norm of the stationary equation residual above which a solve fails.
RESIDUAL_TOL = 1e-8
#: Nodes of the default grid per ground-state width 1/sqrt(ω).
NODES_PER_WIDTH = 160


@dataclass(frozen=True)
class SolveDiagnostics:
    """What one solve did; no wall-clock time, so reruns stay identical."""

    bracket_shots: int      # doublings of the amplitude floor to the bracket
    bisection_shots: int
    mesh_nodes: int         # collocation nodes of the accepted polish
    extensions: int         # times the domain was lengthened


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
    diagnostics: SolveDiagnostics

    def resample(self, r: np.ndarray) -> np.ndarray:
        """φ at arbitrary radii, zero outside [0, rmax], from a cubic spline
        of the profile values built on each call."""
        grid = self.profile.grid
        r = np.asarray(r, dtype=float)
        phi = CubicSpline(grid.r, self.profile.values)(np.clip(r, 0.0, grid.rmax))
        return np.where((r >= 0.0) & (r <= grid.rmax), phi, 0.0)


def _force(phi, params: Params):
    """a|φ|^{p-1}φ + b|φ|^{q-1}φ - ωφ (sign-safe for negative excursions)."""
    m = np.abs(phi)
    return (params.a * m ** (params.p - 1) * phi
            + params.b * m ** (params.q - 1) * phi
            - params.omega * phi)


def amplitude_floor(params: Params) -> float:
    """s0, the positive zero of ω - a s^{p-1} - b s^{q-1}.  Below s0 a shot
    starts with φ''(0) = -force(φ(0))/N > 0 and undershoots, and s0 is the
    constant solution, so the ground state's amplitude lies above s0."""
    f = lambda s: params.omega - params.a * s ** (params.p - 1) \
        - params.b * s ** (params.q - 1)
    hi = 1.0
    while f(hi) > 0:
        hi *= 2.0
        if hi > 1e8:
            raise NoBracketError("no positive zero of the potential force")
    return brentq(f, 1e-12, hi, xtol=1e-12)


def _radial_rhs(params: Params):
    """(φ, φ') ↦ (φ', φ'') of the radial equation, the one right-hand side
    of every shot."""

    def rhs(r, y):
        phi, dphi = y
        return [dphi, -(params.N - 1) / r * dphi - _force(phi, params)]

    return rhs


def _shot(params: Params, amplitude: float, rmax: float):
    """(verdict, r, y): one DOP853 shot from φ(0) = amplitude, φ'(0) = 0
    towards rmax, with its accepted steps r and (φ, φ') at each.

    The shot runs the compiled DOP853 of ``scipy.integrate.ode`` and stops
    at the first accepted step that decides it: +1 if that step ends with
    φ < 0 (amplitude too large), else -1 if it ends with φ' > 0 (too
    small); 0 if neither happens before rmax.
    """
    verdict = 0
    steps = []

    def decide(r, y):
        nonlocal verdict
        steps.append((r, y[0], y[1]))
        verdict = 1 if y[0] < 0.0 else -1 if y[1] > 0.0 else 0
        return -1 if verdict else 0

    shot = ode(_radial_rhs(params)).set_integrator(
        "dop853", rtol=SHOT_RTOL, atol=1e-16, nsteps=MAX_SHOT_STEPS)
    shot.set_solout(decide)
    shot.set_initial_value([amplitude, 0.0], 1e-12)
    with warnings.catch_warnings():
        # a failed shot warns and stops; its return code raises below
        warnings.filterwarnings("ignore", "dop853: ", UserWarning)
        shot.integrate(rmax)
    code = shot.get_return_code()
    if code < 0:
        cause = {-2: f"more than {MAX_SHOT_STEPS} steps",
                 -3: "step size too small",
                 -4: "problem probably stiff"}.get(code, "inconsistent input")
        raise ConvergenceError(
            f"shot from amplitude {amplitude!r} failed with DOP853 code "
            f"{code} ({cause})")
    record = np.array(steps)
    # scipy keeps ``decide`` alive after the shot, and with it this list
    steps.clear()
    return verdict, record[:, 0], record[:, 1:]


def shoot_classify(params: Params, amplitude: float, rmax: float) -> int:
    """+1 if the trajectory crosses zero (amplitude too large), -1 if it
    turns back up at positive value (too small), 0 if neither happens
    before rmax."""
    return _shot(params, amplitude, rmax)[0]


def find_bracket(params: Params, rmax: float) -> tuple[float, float, int]:
    """Amplitude bracket (lo undershoots, hi overshoots) and the doublings
    it took: from the floor s0, which undershoots, the amplitude doubles up
    to the first overshoot."""
    floor = lo = hi = amplitude_floor(params)
    doublings = 0
    while True:
        hi *= 2.0
        doublings += 1
        if hi > 1e8:
            raise NoBracketError(
                f"no overshoot in amplitudes from {floor:.3g} doubled up to 1e8")
        if shoot_classify(params, hi, rmax) > 0:
            return lo, hi, doublings
        lo = hi


def _shoot_amplitude(params: Params, rmax: float):
    """(amplitude, bracket, bracket shots, bisection shots)."""
    lo, hi, doublings = find_bracket(params, rmax)
    bracket = (lo, hi)
    # halvings that take the width below BISECTION_WIDTH * lo <= that * hi
    halvings = max(0, int(np.ceil(np.log2((hi - lo) / (BISECTION_WIDTH * lo)))))
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        if shoot_classify(params, mid, rmax) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), bracket, doublings, halvings


def _in_r(sol_xi, sw: float):
    """Read an interpolant of (u, u_ξ) in ξ = √ω r as (φ, φ_r) in r, with
    the ``nu``-th r-derivative of both on request."""

    def sol(r, nu=0):
        y = sol_xi(sw * np.asarray(r, dtype=float), nu)
        y[1] *= sw
        return y * sw ** nu

    return sol


def _bvp_polish(params: Params, amplitude: float, rmax: float):
    """Collocation solve with φ'(0) = 0 and Robin decay at rmax.

    The problem is solved in ξ = √ω r, where u_ξξ + (N-1)/ξ u_ξ =
    -force(u)/ω and the Robin condition is u_ξ + u = 0, so its scale does
    not change with ω.  Returns the solution read in r and the mesh size.
    """
    sw = np.sqrt(params.omega)

    def rhs(x, y):
        return np.vstack([y[1], -_force(y[0], params) / params.omega])

    def bc(ya, yb):
        return np.array([ya[1], yb[1] + yb[0]])

    S = None
    if params.N > 1:
        # singular term (N-1)/ξ d/dξ enters through S y / ξ
        S = np.array([[0.0, 0.0], [0.0, -(params.N - 1.0)]])

    x0 = np.linspace(0.0, sw * rmax, 2001)
    # the shot of the bisected amplitude as initial guess, up to its first
    # step below SPLICE_LEVEL of the amplitude (still accurate there;
    # bisection noise takes over further out), then an exponential tail
    _, r, y = _shot(params, amplitude, rmax)
    low = np.nonzero(y[:, 0] < SPLICE_LEVEL * amplitude)[0]
    if low.size:
        r, y = r[:low[0] + 1], y[:low[0] + 1]
    seed = CubicHermiteSpline(r, y, np.array(_radial_rhs(params)(r, y.T)).T)
    y0 = np.empty((2, x0.size))
    inside = x0 <= sw * r[-1]
    y0[:, inside] = seed(x0[inside] / sw).T
    y0[1, inside] /= sw
    if not np.all(inside):
        phi_m = max(float(y[-1, 0]), 1e-300)
        y0[0, ~inside] = phi_m * np.exp(-(x0[~inside] - sw * r[-1]))
        y0[1, ~inside] = -y0[0, ~inside]
    res = solve_bvp(rhs, bc, x0, y0, S=S, tol=POLISH_TOL,
                    max_nodes=60000, verbose=0)
    if not res.success:
        raise ConvergenceError(
            f"BVP polish at tol {POLISH_TOL:.0e} failed on {res.x.size} "
            f"nodes: {res.message}")
    return _in_r(res.sol, sw), res.x.size


def _equation_residual(sol, params: Params, r: np.ndarray) -> float:
    """Sup-norm of the stationary equation on interior nodes via the
    collocation interpolant's r-derivatives."""
    y = sol(r)
    dy = sol(r, 1)
    phi, dphi = y[0], y[1]
    d2phi = dy[1]
    ri = r[1:-1]
    res = -d2phi[1:-1] - (params.N - 1) / ri * dphi[1:-1] - _force(phi[1:-1], params)
    res0 = -params.N * d2phi[0] - _force(phi[0], params)
    return float(max(np.max(np.abs(res)), abs(res0)))


def _check_identities(report: FunctionalReport):
    """Raise CertificationError unless |K| and |Q| are within IDENTITY_RTOL
    of |S|, the absolute action."""
    action = abs(report.action)
    for name, val in (("nehari", report.nehari), ("virial", report.virial)):
        if abs(val) > IDENTITY_RTOL * action:
            raise CertificationError(
                f"|{name}| / |S| = {abs(val) / action:.2e} exceeds "
                f"IDENTITY_RTOL = {IDENTITY_RTOL:.0e} (|S| = {action:.6g})")


def default_grid(params: Params) -> RadialGrid:
    """Truncation at 25/sqrt(ω) with spacing resolving the width 1/sqrt(ω)."""
    return RadialGrid(25.0 / np.sqrt(params.omega), 25 * NODES_PER_WIDTH + 1)


def solve_ground_state(params: Params,
                       grid: RadialGrid | None = None) -> GroundStateResult:
    """Shoot + polish + certify a positive decaying ground state."""
    if grid is None:
        grid = default_grid(params)
    rmax = grid.rmax
    amp, bracket, bracket_shots, bisection_shots = _shoot_amplitude(params, rmax)

    for extension in range(3):
        if extension:
            rmax *= 1.5
            grid = RadialGrid(rmax, int(grid.n * 1.5))
        sol, nodes = _bvp_polish(params, amp, rmax)
        tail = abs(sol(rmax)[0]) / sol(0.0)[0]
        if tail < TAIL_FRACTION:
            break
    else:
        raise ResolutionError(
            f"domain too short: the profile at rmax = {rmax:.4g} is still "
            f"{tail:.2e} of its peak (need < {TAIL_FRACTION:.0e}) after "
            f"{extension} domain extensions")

    r = grid.r
    y = sol(r)
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
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"stationary residual {residual:.2e} above {RESIDUAL_TOL:.0e}")

    report = functionals(profile, params)
    _check_identities(report)

    rate = decay_fit(profile, params.omega)
    if rate <= 0:
        raise CertificationError("fitted decay rate is not positive")

    diagnostics = SolveDiagnostics(bracket_shots, bisection_shots, nodes,
                                   extension)
    return GroundStateResult(profile, params, report, residual, rate,
                             float(phi[0]), bracket, diagnostics)


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
        if hi > 1e8:
            raise NoBracketError("no positive zero of the first integral")
    return float(brentq(f, 1e-12, hi, xtol=1e-14, rtol=8.9e-16))


def first_integral_report(params: Params) -> FunctionalReport:
    """1D oracle: the functional report of the ground state by quadrature
    over its amplitude, with no profile.

    On the line φ'² = G(s) = s² g(s) with
    g(s) = ω - 2a/(p+1) s^{p-1} - 2b/(q+1) s^{q-1}, so
    ∫ f(φ) dx = 2∫₀^{φ(0)} f(s)/√G(s) ds and ‖φ'‖² = 2∫₀^{φ(0)} √G(s) ds.
    The substitution s = φ(0)(1 - t²) removes the endpoint singularity, and
    g(s) = g(s) - g(φ(0)) is summed in the form φ(0)^k - s^k, which keeps
    it accurate where it vanishes.
    """
    amp = first_integral_amplitude(params)
    a, b, p, q = params.a, params.b, params.p, params.q

    def g(t):
        shrink = np.log1p(-t * t)      # log(s / φ(0))
        return -(2 * a / (p + 1) * amp ** (p - 1) * np.expm1((p - 1) * shrink)
                 + 2 * b / (q + 1) * amp ** (q - 1) * np.expm1((q - 1) * shrink))

    def integral(integrand):
        # ds = -2 φ(0) t dt, so 2∫₀^{φ(0)} ... ds = 4 φ(0) ∫₀^1 ... t dt;
        # the integrand is read at s and √g(s) = √G(s) / s
        val, _ = quad(lambda t: integrand(amp * (1 - t * t), np.sqrt(g(t))) * t,
                      0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
        return 4.0 * amp * val

    mass, lp, lq = (integral(lambda s, root_g, k=k: s ** (k - 1) / root_g)
                    for k in (2.0, p + 1, q + 1))
    grad = integral(lambda s, root_g: s * root_g)
    return report_from_norms(mass, grad, lp, lq, params)
