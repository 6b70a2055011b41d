"""Time evolution of the double-power NLS on the line and blowup detection.

Evolution runs on a periodic 1D grid only; ground states of any dimension
N come from ``groundstate``, and ``stability`` embeds N = 1 profiles on the
line.  Strang splitting N(h) L(dt) N(h), h = dt/2: the nonlinear flow N(h)
multiplies by exp(i h theta) with theta = a|u|^{p-1} + b|u|^{q-1}, and the
linear step L(dt) is the exact spectral propagator exp(-i k^2 dt).  N
leaves |u| unchanged, so that substep is exact; L is unitary, so mass is
conserved to roundoff.

Because N leaves |u| unchanged, the closing half-step of one step and the
opening half-step of the next rotate by the same theta.  Each step
therefore evaluates theta once, from the post-linear state w, and reuses
the closing rotation to open the next step; the rotation is rebuilt from
the stored theta only when h changes (a dt reduction or the shorter last
step).  A step costs three transforms: the propagator's forward/inverse
pair and one forward transform of u_{n+1} in ``functionals._line_spectrum``,
which gives the gradient norm and the spectral tail to the monitors, the
trace and the embedding of the data alike.  Every monitor reads the full
step's state u_{n+1}; the amplitude sup|u_{n+1}| = sqrt(max |w|^2) comes
from the same |w|^2 as theta.

A run starts on the coarsest grid m/2^k that resolves u0 and doubles m,
zero-padding the spectrum, whenever the tail passes ``REFINE_TAIL``, up to
u0's own grid.  Even data peak on the node x = 0 of every grid, so sup|u|,
which the dt control reads, is the same on each.

Finite-time blowup cannot be followed to T_max; it is detected by one
proxy, growth of the gradient norm by ``BLOWUP_GRAD_FACTOR``, with a
resolution monitor that declares a run inconclusive instead of mistaking
aliasing noise for a singularity.  The gradient bounds the amplitude: by
the 1D Gagliardo-Nirenberg inequality sup|u|^2 <= ||u||_2 ||grad u||_2 and
mass conservation, sup|u| cannot grow much before ||grad u|| does.  A run
that takes ``MAX_STEPS`` steps before t_max stops as inconclusive too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .params import ComplexField, MembershipError, Params, PeriodicGrid
from .functionals import (
    FunctionalReport, _line_spectrum, raw_norms, report_from_norms)

#: Floor of the adaptive step size.
DT_MIN = 1e-9
#: Steps after which a run that has not reached t_max stops ("budget").
MAX_STEPS = 10 ** 6
#: Spectral-tail fraction above which a state counts as under-resolved.
MAX_TAIL_FRACTION = 1e-8
#: Spectral-tail fraction above which a run doubles its grid; below
#: ``MAX_TAIL_FRACTION``, so a run refines before it stops for resolution.
REFINE_TAIL = 1e-10
#: Growth of ||grad u|| over its initial value that counts as blowup.
BLOWUP_GRAD_FACTOR = 50.0
#: Factor by which dt shrinks when sup|u| grows by more than 2 % in a step.
CFL_SHRINK = 0.5
#: Relative slack of the conserved quantities and the virial bound in
#: ``b_omega_invariance_audit``: of |S(phi)|, mass(phi) and |bound|, with
#: no absolute floor, so the audit binds on a state of small action too.
INVARIANCE_DRIFT = 1e-6
#: Relative band within which mass(v) <= mass(phi) holds in blowup-set
#: membership: the resampling error at the scale the scaling family
#: preserves the mass.
MASS_BAND = 1e-6
#: Relative slack of the variance-curvature bound in ``concavity_audit``:
#: of |bound|, with no absolute floor, so a convex variance fails however
#: small the bound.
CONCAVITY_SLACK = 1e-2
#: Fewest uniformly spaced trace records on which ``stability.blowup_run``
#: runs the concavity and virial audits, which read variance curvature.
AUDIT_MIN_RECORDS = 5


def in_blowup_set(values: tuple[float, float, float, float],
                  ref: FunctionalReport, slack: float) -> bool:
    """The one statement of the blowup set B_omega = {S < S(phi),
    mass <= mass(phi), K < 0, Q < 0}, phi the ground state with report
    ``ref``: true when values = (S, mass, K, Q) has S - S(phi) below
    slack * |S(phi)|, mass - mass(phi) at most (``MASS_BAND`` + slack) *
    mass(phi), and K, Q strictly negative."""
    action, mass, nehari, virial = values
    return bool(action - ref.action < slack * abs(ref.action)
                and mass - ref.mass <= (MASS_BAND + slack) * ref.mass
                and nehari < 0 and virial < 0)


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    t_max: float
    record_every: int = 100

    def __post_init__(self):
        if not (0 < self.dt < np.inf and 0 < self.t_max < np.inf):
            raise ValueError(f"dt and t_max must be positive, got {self}")
        if not self.record_every >= 1:
            raise ValueError(f"record_every must be at least 1, got {self}")


@dataclass(frozen=True)
class TraceRecord:
    t: float
    mass: float
    energy: float
    action: float
    nehari: float
    virial_q: float
    grad_norm_sq: float
    variance: float
    sup_amp: float


@dataclass(frozen=True)
class BlowupVerdict:
    t_detect: float | None
    reason: str | None   # "gradient", "numerical", "resolution", "budget"
    trace: list[TraceRecord]
    final: ComplexField | None
    steps: int
    dt_reductions: int
    dt_min: float   # smallest step size the control reached
    grids: list[tuple[int, int]]   # (m, first step) of each grid used

    @property
    def blew_up(self) -> bool:
        return self.reason == "gradient"

    @property
    def inconclusive(self) -> bool:
        return self.reason in ("resolution", "numerical", "budget")


def _record(t: float, u: np.ndarray, grid: PeriodicGrid,
            params: Params) -> TraceRecord:
    fld = ComplexField(grid, u)
    var = float(np.sum(grid.x ** 2 * np.abs(u) ** 2) * grid.spacing)
    rep = report_from_norms(*raw_norms(fld, params), params)
    return TraceRecord(t, rep.mass, rep.energy, rep.action, rep.nehari,
                       rep.virial, rep.grad, var, float(np.max(np.abs(u))))


class _SpectralStepper:
    """The Strang step N(h) L(2h) N(h) with one theta per step."""

    def __init__(self, grid: PeriodicGrid, params: Params, u: np.ndarray):
        self.grid = grid
        self.params = params
        self.k2 = grid.wavenumbers ** 2
        self._dt = None
        self.rot = np.empty(grid.m, dtype=complex)
        self._phase(u)

    def _phase(self, w: np.ndarray) -> np.ndarray:
        """Store theta(|w|^2) and return |w|^2."""
        prm = self.params
        m2 = w.real ** 2 + w.imag ** 2
        self.theta = (prm.a * m2 ** (0.5 * (prm.p - 1.0))
                      + prm.b * m2 ** (0.5 * (prm.q - 1.0)))
        self._h = None
        return m2

    def _rotation(self, h: float) -> np.ndarray:
        """exp(i h theta), rebuilt only when theta or h changed."""
        if h != self._h:
            arg = h * self.theta
            np.cos(arg, out=self.rot.real)
            np.sin(arg, out=self.rot.imag)
            self._h = h
        return self.rot

    def step(self, u: np.ndarray, dt: float) -> tuple[np.ndarray, float]:
        """u_{n+1} (u is overwritten) and its sup norm."""
        h = 0.5 * dt
        u *= self._rotation(h)
        if dt != self._dt:
            self._prop = np.exp(-1j * self.k2 * dt)
            self._dt = dt
        w = scipy.fft.fft(u, overwrite_x=True)
        w *= self._prop
        w = scipy.fft.ifft(w, overwrite_x=True)
        m2 = self._phase(w)
        w *= self._rotation(h)
        return w, float(np.sqrt(np.max(m2)))


def _prolong(u: np.ndarray, n: int) -> np.ndarray:
    """u on n > u.size nodes: the spectrum zero-padded, its Nyquist mode
    split evenly between +k and -k."""
    h = u.size // 2
    uh = scipy.fft.fft(u)
    wide = np.zeros(n, dtype=complex)
    wide[:h], wide[-h:] = uh[:h], uh[h:]
    wide[h] = wide[-h] = 0.5 * uh[h]
    return n / u.size * scipy.fft.ifft(wide, overwrite_x=True)


def _start(u0: ComplexField) -> PeriodicGrid:
    """The coarsest grid m/2^k, m/2^k even, whose samples u0.values[::2^k]
    keep the spectral tail of ``functionals._line_spectrum`` <= REFINE_TAIL."""
    grid = u0.grid
    while grid.m % 4 == 0:
        coarse = PeriodicGrid(grid.length, grid.m // 2)
        v = u0.values[::u0.grid.m // coarse.m]
        if _line_spectrum(v, coarse)[1] > REFINE_TAIL:
            break
        grid = coarse
    return grid


def evolve(u0: ComplexField, params: Params, cfg: EvolutionConfig) -> BlowupVerdict:
    """Advance the NLS from u0, recording a trace and watching for blowup;
    the run refines its grid up to u0's, where ``final`` lies."""
    grid = _start(u0)
    u = np.array(u0.values[::u0.grid.m // grid.m], dtype=complex)
    stepper = _SpectralStepper(grid, params, u)
    grids = [(grid.m, 0)]
    t = 0.0
    dt = cfg.dt
    step = reductions = 0
    trace = [_record(t, u, stepper.grid, params)]
    grad_sq, tail = _line_spectrum(u, stepper.grid)
    grad0 = max(np.sqrt(grad_sq), 1e-300)
    amp = trace[0].sup_amp

    reason = "resolution" if tail > MAX_TAIL_FRACTION else None
    while reason is None and t < cfg.t_max - 1e-12:
        if step == MAX_STEPS:
            reason = "budget"
            break
        dt_eff = min(dt, cfg.t_max - t)
        prev_amp = amp
        u, amp = stepper.step(u, dt_eff)
        t += dt_eff
        step += 1
        grad_sq, tail = _line_spectrum(u, stepper.grid)

        # a non-finite sample of u makes every Fourier coefficient non-finite
        if not (np.isfinite(amp) and np.isfinite(grad_sq)):
            trace.append(TraceRecord(t, np.nan, np.nan, np.nan, np.nan,
                                     np.nan, np.nan, np.nan, np.inf))
            return BlowupVerdict(t, "numerical", trace, None,
                                 step, reductions, dt, grids)

        if tail > REFINE_TAIL and u.size < u0.grid.m:
            u = _prolong(u, 2 * u.size)
            stepper = _SpectralStepper(
                PeriodicGrid(u0.grid.length, u.size), params, u)
            grids.append((u.size, step))
            grad_sq, tail = _line_spectrum(u, stepper.grid)

        if step % cfg.record_every == 0:
            trace.append(_record(t, u, stepper.grid, params))

        if np.sqrt(grad_sq) > BLOWUP_GRAD_FACTOR * grad0:
            reason = "gradient"
        elif tail > MAX_TAIL_FRACTION:
            reason = "resolution"
        elif amp > 1.02 * prev_amp and dt > DT_MIN:
            dt = max(dt * CFL_SHRINK, DT_MIN)
            reductions += 1

    if trace[-1].t < t - 1e-12:
        trace.append(_record(t, u, stepper.grid, params))
    if u.size < u0.grid.m:
        u = _prolong(u, u0.grid.m)
    return BlowupVerdict(None if reason is None else t, reason, trace,
                         ComplexField(u0.grid, u), step, reductions, dt, grids)


def _before_detection(verdict: BlowupVerdict) -> list[TraceRecord]:
    """The records before detection.  The record at detection time is past
    the step-size control; conservation there reflects integrator
    breakdown, not the flow."""
    stop = verdict.t_detect if verdict.t_detect is not None else np.inf
    return [rec for rec in verdict.trace if rec.t < stop - 1e-12]


def conservation_drift(verdict: BlowupVerdict) -> tuple[float, float]:
    """Largest relative drift of mass and of energy from the first record,
    over the records before detection; energy relative to max(1, |E(u0)|).

    The energy floor stays until the stepper conserves energy up to
    detection: the records just before detection lose energy of the order
    of |E(u0)| (14 |E(u0)| at lambda = 1.05), so without the floor this
    number would measure that known loss, not the run."""
    first = verdict.trace[0]
    kept = _before_detection(verdict)
    mass = max((abs(rec.mass - first.mass) for rec in kept), default=0.0)
    energy = max((abs(rec.energy - first.energy) for rec in kept), default=0.0)
    return (mass / max(abs(first.mass), 1e-300),
            energy / max(1.0, abs(first.energy)))


def _off_cadence(dts: np.ndarray) -> np.ndarray:
    """Which record spacings differ from the first: the one rule of a
    uniform cadence, read by ``uniform_prefix`` and the audits."""
    return np.abs(dts - dts[0]) > 1e-9 * dts[0] + 1e-14


def uniform_prefix(trace: list[TraceRecord]) -> list[TraceRecord]:
    """Longest leading sub-trace with uniform cadence (adaptive stepping
    makes the tail of a blowup trace nonuniform)."""
    if len(trace) < 2:
        return list(trace)
    times = np.array([rec.t for rec in trace])
    dts = np.diff(times)
    cut = np.nonzero(_off_cadence(dts))[0]
    end = int(cut[0]) + 1 if cut.size else len(trace)
    return list(trace[:end])


def _variance_series(trace: list[TraceRecord],
                     min_records: int) -> tuple[float, np.ndarray]:
    """(record spacing, variance samples) of a uniformly recorded trace."""
    if len(trace) < min_records:
        raise ValueError(f"need at least {min_records} records")
    dts = np.diff(np.array([rec.t for rec in trace]))
    if np.any(dts <= 0):
        raise ValueError("need increasing record times")
    if np.any(_off_cadence(dts)):
        raise ValueError("trace cadence is not uniform")
    return float(dts[0]), np.array([rec.variance for rec in trace])


def _variance_d2(trace: list[TraceRecord]) -> np.ndarray:
    """d^2/dt^2 of the variance by central second differences."""
    dt, var = _variance_series(trace, AUDIT_MIN_RECORDS)
    return (var[:-2] - 2 * var[1:-1] + var[2:]) / dt ** 2


def virial_check(trace: list[TraceRecord]) -> float:
    """Worst normalized mismatch between d^2/dt^2 ||xu||^2 and 8 Q(u),
    relative to max(1, |8 Q(u)|).  The floor stays: Q vanishes on a ground
    state, so on a standing wave a relative denominator would divide the
    finite-difference error by a number near zero."""
    d2 = _variance_d2(trace)
    q8 = 8.0 * np.array([rec.virial_q for rec in trace])
    denom = np.maximum(1.0, np.abs(q8[1:-1]))
    return float(np.max(np.abs(d2 - q8[1:-1]) / denom))


def variance_third_difference(trace: list[TraceRecord]) -> float:
    """Max |third finite difference of variance| / dt^3 (0 for quadratic)."""
    dt, var = _variance_series(trace, 4)
    d3 = np.diff(var, n=3) / dt ** 3
    return float(np.max(np.abs(d3)))


def b_omega_invariance_audit(verdict: BlowupVerdict,
                             ref: FunctionalReport) -> bool:
    """All records before detection stay in the blowup set of the ground
    state with report ``ref`` and obey the virial bound
    8 Q(u(t)) <= 16 (S(u0) - S(phi)).  S(u(t)) is bounded from above only,
    so a breakdown of conservation shows in the run's energy drift
    (``conservation_drift``), not in this audit."""
    def values(rec: TraceRecord):
        return rec.action, rec.mass, rec.nehari, rec.virial_q

    first = verdict.trace[0]
    if not in_blowup_set(values(first), ref, 0.0):
        raise MembershipError("run did not start inside the blowup set")
    bound = 16.0 * (first.action - ref.action)
    return all(
        in_blowup_set(values(rec), ref, INVARIANCE_DRIFT)
        and 8.0 * rec.virial_q <= bound + INVARIANCE_DRIFT * abs(bound)
        for rec in _before_detection(verdict))


def concavity_audit(trace: list[TraceRecord], ref: FunctionalReport) -> bool:
    """Second difference of the variance stays below 16 (S(u0) - S(phi)),
    S(phi) the action of ``ref``."""
    d2 = _variance_d2(trace)
    bound = 16.0 * (trace[0].action - ref.action)
    return bool(np.all(d2 <= bound + CONCAVITY_SLACK * abs(bound)))
