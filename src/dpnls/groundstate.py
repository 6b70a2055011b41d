"""Radial positive ground states of -Δφ + ωφ = a φ^p + b φ^q.

Every solve runs in normalised unknowns free of ω.  With s₀ the zero of
ω - a s^{p-1} - b s^{q-1}, u(ξ) = φ(ξ/√ω)/s₀ solves -Δu + u = c u^p + c′ u^q
with c = a s₀^{p-1}/ω and c′ = b s₀^{q-1}/ω: its amplitude floor is 1 and
its width is 1 at every (a, b, ω).  The solver shoots on u(0) with bisection
(overshoot = the trajectory crosses zero, undershoot = u' turns positive at
positive u).  A shot has no horizon: it runs until it decides, so the
bisection's stop width holds on every state.  The record of the last shot
seeds a collocation BVP with the asymptotic Robin condition u' + u = 0 at
the truncation point, on one fixed ξ-grid; the polish alone knows the
domain.  The accepted profile is mapped back to r once and certified there
by the exact identities K_ω(φ) = 0 and Q(φ) = 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import ode, quad, solve_bvp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .params import (
    CertificationError,
    ConvergenceError,
    NoBracketError,
    Params,
    RadialGrid,
    RadialProfile,
    ResolutionError,
)
from .functionals import FunctionalReport, functionals, report_from_norms

#: Profile values are truncated where they fall below this fraction of the peak.
TAIL_FRACTION = 1e-10
#: Relative tolerance for certifying |K| and |Q| against the action.
IDENTITY_RTOL = 1e-6
#: Relative width of the amplitude bracket at which bisection stops: it
#: sets the 39 halvings of the bracket (s, 2s) and ``SHOT_RTOL``.
BISECTION_WIDTH = 2e-12
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
#: Length of the ξ-domain of every solve, in ground-state widths.
DOMAIN_LENGTH = 25.0
#: Nodes of the ξ-grid per ground-state width.
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
    """Ground state with its functional report and diagnostics, certified
    when built, by the solver or by ``dataclasses.replace``: both residuals
    within RESIDUAL_TOL, |K| and |Q| within IDENTITY_RTOL of |S|."""

    profile: RadialProfile
    params: Params
    report: FunctionalReport
    residual: float             # stationary residual of φ in r
    unit_residual: float        # the same of u in ξ: residual / (ω s0)
    bracket: tuple[float, float]  # shooting amplitude bracket used
    diagnostics: SolveDiagnostics

    def __post_init__(self):
        if not (self.residual <= RESIDUAL_TOL
                and self.unit_residual <= RESIDUAL_TOL):
            raise ConvergenceError(
                f"stationary residual {self.residual:.2e} (normalised "
                f"{self.unit_residual:.2e}) above {RESIDUAL_TOL:.0e}")
        action = abs(self.report.action)
        for name in ("nehari", "virial"):
            val = abs(getattr(self.report, name))
            if not val <= IDENTITY_RTOL * action:
                raise CertificationError(
                    f"|{name}| / |S| = {val / action:.2e} exceeds "
                    f"IDENTITY_RTOL = {IDENTITY_RTOL:.0e} (|S| = {action:.6g})")

    @property
    def amplitude(self) -> float:
        """φ(0), read from the profile, as a Python float."""
        return float(self.profile.values[0])

    def resample(self, r: np.ndarray) -> np.ndarray:
        """φ at arbitrary radii, zero outside [0, rmax], from a cubic spline
        of the profile values built on each call."""
        grid = self.profile.grid
        r = np.asarray(r, dtype=float)
        phi = CubicSpline(grid.r, self.profile.values)(np.clip(r, 0.0, grid.rmax))
        return np.where((r >= 0.0) & (r <= grid.rmax), phi, 0.0)


def _forcing(params: Params):
    """a|φ|^{p-1}φ + b|φ|^{q-1}φ - ωφ with the coefficients read once: the one
    formula of the force, sign-safe; builtin ``abs`` takes floats and arrays."""
    a, b, pm, qm, w = params.a, params.b, params.p - 1, params.q - 1, params.omega

    def force(phi):
        m = abs(phi)
        return a * m ** pm * phi + b * m ** qm * phi - w * phi

    return force


def amplitude_floor(params: Params) -> float:
    """s0, the positive zero of ω - a s^{p-1} - b s^{q-1}.  Below s0 a shot
    starts with φ''(0) = -force(φ(0))/N > 0 and undershoots, and s0 is the
    constant solution, so the ground state's amplitude lies above s0."""
    return _log_root(lambda s: params.omega - params.a * s ** (params.p - 1)
                     - params.b * s ** (params.q - 1),
                     "the potential force", params.omega)


def _log_root(f, what: str, omega: float) -> float:
    """The zero of f, positive below it, found in log s between the smallest
    s whose square is a normal float and s = 1e8."""
    lo, hi = float(np.sqrt(np.finfo(float).tiny)), 1e8
    if (low := f(lo)) <= 0:
        raise NoBracketError(
            f"no positive zero of {what} above s = {lo:.3g} at ω = {omega:g}: "
            f"it is already {low:.3g} <= 0 there")
    if (high := f(hi)) > 0:
        raise NoBracketError(
            f"no positive zero of {what} at ω = {omega:g}: it is still "
            f"{high:.3g} > 0 at s = {hi:g}")
    t = brentq(lambda t: f(np.exp(t)), np.log(lo), np.log(hi),
               xtol=1e-15, rtol=8.9e-16)
    return float(np.exp(t))


def _normalised(params: Params) -> tuple[float, Params]:
    """(s0, parameters of u = φ/s0 in ξ = √ω r): a and b become
    c = a s0^{p-1}/ω and c′ = b s0^{q-1}/ω and ω becomes 1.  Each is
    computed as written: c + c′ = 1, but 1 - c can round c′ away.  They
    derive from validated parameters and are not validated again: c and c′
    are >= 0 by construction, and c′ underflows to 0 at tiny s0."""
    s0, w = amplitude_floor(params), params.omega
    return s0, replace(params, a=params.a * s0 ** (params.p - 1) / w,
                       b=params.b * s0 ** (params.q - 1) / w, omega=1.0,
                       _validate=False)


def _radial_rhs(params: Params):
    """(φ, φ') ↦ (φ', φ'') of the radial equation, the one right-hand side
    of every shot; it reads the ndarray y as two Python floats."""
    force, k = _forcing(params), params.N - 1

    def rhs(r, y):
        phi, dphi = y.tolist()
        return [dphi, -k / r * dphi - force(phi)]

    return rhs


def shoot_classify(params: Params, amplitude: float):
    """(overshoots, r, y): one DOP853 shot from φ(0) = amplitude, φ'(0) = 0,
    with its accepted steps r and (φ, φ') at each.

    The shot runs the compiled DOP853 of ``scipy.integrate.ode`` with no
    horizon and stops at the first accepted step that decides it: that step
    overshoots if it ends with φ < 0 (amplitude too large), else it ends
    with φ' > 0 (too small).  Only the ``MAX_SHOT_STEPS`` budget stops it
    before, and a shot that fails raises ``ConvergenceError``.
    """
    steps = []

    def decide(r, y):
        steps.append((r, y[0], y[1]))
        return -1 if y[0] < 0.0 or y[1] > 0.0 else 0

    shot = ode(_radial_rhs(params)).set_integrator(
        "dop853", rtol=SHOT_RTOL, atol=1e-16, nsteps=MAX_SHOT_STEPS)
    shot.set_solout(decide)
    shot.set_initial_value([amplitude, 0.0], 1e-12)
    with warnings.catch_warnings():
        # a failed shot warns and stops; its return code raises below
        warnings.filterwarnings("ignore", "dop853: ", UserWarning)
        shot.integrate(np.inf)
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
    return bool(record[-1, 1] < 0.0), record[:, 0], record[:, 1:]


def find_bracket(params: Params) -> tuple[float, float, int]:
    """Amplitude bracket (lo undershoots, hi overshoots) of the normalised
    parameters ``params`` and the doublings it took: from their floor 1,
    which undershoots, the amplitude doubles up to the first overshoot."""
    lo = hi = 1.0
    doublings = 0
    while True:
        hi *= 2.0
        doublings += 1
        if hi > 1e8:
            raise NoBracketError(
                "no overshoot in normalised amplitudes from the floor 1 "
                "doubled up to 1e8")
        if shoot_classify(params, hi)[0]:
            return lo, hi, doublings
        lo = hi


def _shoot_amplitude(params: Params):
    """(last shot, bracket, bracket shots, bisection shots) of the
    normalised parameters ``params``: bisection of the bracket down to its
    stop width, with the record (ξ, y) of its last shot, which seeds the
    polish.  Every shot decides, so the last one lies within the stop width
    of the separatrix."""
    lo, hi, doublings = find_bracket(params)
    bracket = (lo, hi)
    # the bracket is (s, 2s), so 39 halvings reach its stop width
    halvings = int(np.ceil(-np.log2(BISECTION_WIDTH)))
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        overshoots, r, y = shoot_classify(params, mid)
        lo, hi = (lo, mid) if overshoots else (mid, hi)
    return (r, y), bracket, doublings, halvings


def _bvp_polish(params: Params, shot, rmax: float):
    """Collocation solve of the normalised parameters ``params`` (ω = 1)
    with u'(0) = 0 and the Robin decay u' + u = 0 at rmax.  Returns the
    solution's interpolant and the mesh size."""
    force = _forcing(params)

    def rhs(x, y):
        return np.vstack([y[1], -force(y[0])])

    def bc(ya, yb):
        return np.array([ya[1], yb[1] + yb[0]])

    S = None
    if params.N > 1:
        # singular term (N-1)/ξ d/dξ enters through S y / ξ
        S = np.array([[0.0, 0.0], [0.0, -(params.N - 1.0)]])

    # on the default domain every profile-grid node is a node or an interval
    # midpoint of this mesh, where the collocation residual vanishes by
    # construction; the residual gate reads about 1e-13 only because of
    # that, so the domain extensions cannot give way to one long domain
    # until the residual is read between the nodes (ROADMAP item 2)
    x0 = np.linspace(0.0, rmax, 2001)
    # the shot record (ξ, y) as initial guess, up to the step before the
    # one that decides it, where u >= 0, then an exponential tail; a record
    # past rmax is clipped by ``np.interp``
    xi, y = shot
    x, u, du = xi[:-1], y[:-1, 0], y[:-1, 1]
    y0 = np.array([np.interp(x0, x, u), np.interp(x0, x, du)])
    tail = x0 > x[-1]
    y0[0, tail] = u[-1] * np.exp(-(x0[tail] - x[-1]))
    y0[1, tail] = -y0[0, tail]
    res = solve_bvp(rhs, bc, x0, y0, S=S, tol=POLISH_TOL,
                    max_nodes=60000, verbose=0)
    if not res.success:
        raise ConvergenceError(
            f"BVP polish at tol {POLISH_TOL:.0e} failed on {res.x.size} "
            f"nodes: {res.message}")
    return res.sol, res.x.size


def _equation_residual(sol, params: Params, r: np.ndarray) -> float:
    """Sup-norm of the stationary equation on interior nodes via the
    collocation interpolant's derivatives."""
    (phi, dphi), d2phi = sol(r), sol(r, 1)[1]
    ri, force = r[1:-1], _forcing(params)
    res = -d2phi[1:-1] - (params.N - 1) / ri * dphi[1:-1] - force(phi[1:-1])
    res0 = -params.N * d2phi[0] - force(phi[0])
    return float(max(np.max(np.abs(res)), abs(res0)))


def solve_ground_state(params: Params) -> GroundStateResult:
    """Shoot + polish + certify a positive decaying ground state.

    The shots and the polish solve for u = φ/s0 in ξ = √ω r.  The shots run
    until they decide; the polish alone has a domain, the ξ-grid, and every
    domain attempt polishes the same last bisection shot.  The truncated
    profile is mapped back to r once, where the result certifies itself."""
    s0, unit = _normalised(params)
    grid = RadialGrid(DOMAIN_LENGTH, int(DOMAIN_LENGTH * NODES_PER_WIDTH) + 1)
    sw = np.sqrt(params.omega)
    shot, (lo, hi), bracket_shots, bisection_shots = _shoot_amplitude(unit)

    for extension in range(3):
        if extension:
            grid = RadialGrid(1.5 * grid.rmax, int(grid.n * 1.5))
        sol, nodes = _bvp_polish(unit, shot, grid.rmax)
        u, du = sol(grid.r)
        if not u[0] > 1.0:
            raise ConvergenceError(
                f"BVP polish collapsed: u(0) = {u[0]:.6g} is not above the "
                f"normalised amplitude floor 1")
        # the profile is cut at the first node at or below the decay floor
        # or where it stops falling (argmax is 0, above the floor, if none);
        # the attempt stands if the cut node is below the floor
        floor = TAIL_FRACTION * u[0]
        cut = int(np.argmax((u <= floor) | (np.diff(u, prepend=2 * u[0]) >= 0)))
        if u[cut] <= floor:
            break
    else:
        raise ResolutionError(
            f"domain too short: the profile at rmax = {grid.rmax / sw:.4g} is "
            f"still {abs(u[-1]) / u[0]:.2e} of its peak (need < "
            f"{TAIL_FRACTION:.0e}) after {extension} domain extensions")

    unit_residual = _equation_residual(sol, unit, grid.r[:cut])
    profile = RadialProfile(RadialGrid(grid.r[cut - 1] / sw, cut),
                            s0 * u[:cut], s0 * sw * du[:cut])
    diagnostics = SolveDiagnostics(bracket_shots, bisection_shots, nodes,
                                   extension)
    return GroundStateResult(profile, params, functionals(profile, params),
                             params.omega * s0 * unit_residual, unit_residual,
                             (s0 * lo, s0 * hi), diagnostics)


def residual_norm(profile: RadialProfile, params: Params) -> float:
    """Finite-difference sup-norm of the stationary equation residual."""
    g = profile.grid
    if g.n < 5:
        raise ValueError(f"need at least 5 nodes, got {g.n}")
    phi = profile.values
    h = g.spacing
    d2 = (phi[:-2] - 2 * phi[1:-1] + phi[2:]) / h ** 2
    d1 = (phi[2:] - phi[:-2]) / (2 * h)
    ri, force = g.r[1:-1], _forcing(params)
    res = -d2 - (params.N - 1) / ri * d1 - force(phi[1:-1])
    d2_0 = 2.0 * (phi[1] - phi[0]) / h ** 2   # φ'(0) = 0 ghost node
    res0 = -params.N * d2_0 - force(phi[0])
    return float(max(np.max(np.abs(res)), abs(res0)))


def first_integral_amplitude(params: Params) -> float:
    """1D oracle: φ(0) from ωs² = 2a/(p+1) s^{p+1} + 2b/(q+1) s^{q+1}."""
    if params.N != 1:
        raise ValueError("first integral closes only in one dimension")
    a, b, p, q, w = params.a, params.b, params.p, params.q, params.omega
    f = lambda s: w - 2 * a / (p + 1) * s ** (p - 1) - 2 * b / (q + 1) * s ** (q - 1)
    return _log_root(f, "the first integral", w)


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
