"""Time evolution of the double-power NLS on the line and blowup detection.

Evolution runs on a periodic 1D grid only; ground states of any dimension
N come from ``groundstate``, and ``stability`` embeds N = 1 profiles on the
line.  Strang splitting: half-step exact nonlinear phase rotation, full
linear step by the exact spectral propagator exp(-i k^2 dt), half-step
nonlinear.  The modulus is invariant under the nonlinear flow, so that
substep is exact; the linear step is unitary, so mass is conserved to
roundoff.

Finite-time blowup cannot be followed to T_max; it is detected by proxy
thresholds (gradient-norm growth, amplitude growth) with a resolution
monitor that declares a run inconclusive instead of mistaking aliasing
noise for a singularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .params import ComplexField, MembershipError, Params, PeriodicGrid
from .functionals import raw_norms, report_from_norms
from .groundstate import GroundStateResult

#: Floor of the adaptive step size.
DT_MIN = 1e-9
#: Spectral-tail fraction above which a state counts as under-resolved.
MAX_TAIL_FRACTION = 1e-8


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    t_max: float
    blowup_grad_factor: float = 50.0
    blowup_amp_factor: float = 20.0
    cfl_shrink: float = 0.5
    record_every: int = 20

    def __post_init__(self):
        if self.dt <= 0 or self.t_max <= 0:
            raise ValueError("dt and t_max must be positive")
        if self.blowup_grad_factor <= 1 or self.blowup_amp_factor <= 1:
            raise ValueError("blowup thresholds must exceed 1")
        if not (0 < self.cfl_shrink < 1):
            raise ValueError("cfl_shrink must lie in (0, 1)")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


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

    def as_record(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BlowupVerdict:
    blew_up: bool
    t_detect: float | None
    reason: str | None        # "gradient", "amplitude", "numerical", "resolution"
    trace: list[TraceRecord] = field(default_factory=list)
    final: ComplexField | None = None

    @property
    def inconclusive(self) -> bool:
        return self.reason in ("resolution", "numerical")


def _record(t: float, u: np.ndarray, grid: PeriodicGrid,
            params: Params) -> TraceRecord:
    fld = ComplexField(grid, u)
    x = grid.x
    var = float(np.sum(x ** 2 * np.abs(u) ** 2) * grid.spacing)
    rep = report_from_norms(*raw_norms(fld, params), params)
    return TraceRecord(t, rep.mass, rep.energy, rep.action, rep.nehari,
                       rep.virial, rep.grad, var, float(np.max(np.abs(u))))


def _nonlinear_half(u: np.ndarray, params: Params, dt: float) -> np.ndarray:
    m = np.abs(u)
    phase = params.a * m ** (params.p - 1) + params.b * m ** (params.q - 1)
    return u * np.exp(0.5j * dt * phase)


class _SpectralStepper:
    """Exact periodic linear propagator exp(-i k^2 dt)."""

    def __init__(self, grid: PeriodicGrid):
        self.grid = grid
        self.k2 = grid.wavenumbers ** 2
        self._dt = None
        self._prop = None

    def linear(self, u, dt):
        if dt != self._dt:
            self._prop = np.exp(-1j * self.k2 * dt)
            self._dt = dt
        return np.fft.ifft(self._prop * np.fft.fft(u))

    def grad_sq(self, u):
        uh = np.fft.fft(u)
        return float(np.sum(self.k2 * np.abs(uh) ** 2)
                     * self.grid.length / self.grid.m ** 2)

    def tail_fraction(self, u):
        uh = np.abs(np.fft.fft(u))
        m = self.grid.m
        band = np.abs(np.fft.fftfreq(m)) >= 7.0 / 16.0
        peak = np.max(uh)
        return float(np.max(uh[band]) / peak) if peak > 0 else 0.0


def evolve(u0: ComplexField, params: Params, cfg: EvolutionConfig) -> BlowupVerdict:
    """Advance the NLS from u0, recording a trace and watching for blowup."""
    grid = u0.grid
    stepper = _SpectralStepper(grid)

    u = np.array(u0.values, dtype=complex)
    t = 0.0
    dt = cfg.dt
    trace = [_record(t, u, grid, params)]
    grad0 = max(np.sqrt(trace[0].grad_norm_sq), 1e-300)
    amp0 = max(trace[0].sup_amp, 1e-300)
    if stepper.tail_fraction(u) > MAX_TAIL_FRACTION:
        return BlowupVerdict(False, 0.0, "resolution", trace, ComplexField(grid, u))

    step = 0
    while t < cfg.t_max - 1e-12:
        dt_eff = min(dt, cfg.t_max - t)
        prev_amp = float(np.max(np.abs(u)))
        u = _nonlinear_half(u, params, dt_eff)
        u = stepper.linear(u, dt_eff)
        u = _nonlinear_half(u, params, dt_eff)
        t += dt_eff
        step += 1
        amp = float(np.max(np.abs(u)))

        if not np.all(np.isfinite(u)):
            trace.append(TraceRecord(t, np.nan, np.nan, np.nan, np.nan,
                                     np.nan, np.nan, np.nan, np.inf))
            return BlowupVerdict(False, t, "numerical", trace, None)

        if step % cfg.record_every == 0:
            trace.append(_record(t, u, grid, params))

        if amp > cfg.blowup_amp_factor * amp0:
            reason = "amplitude"
        elif np.sqrt(stepper.grad_sq(u)) > cfg.blowup_grad_factor * grad0:
            reason = "gradient"
        elif stepper.tail_fraction(u) > MAX_TAIL_FRACTION:
            reason = "resolution"
        else:
            reason = None
        if reason is not None:
            if step % cfg.record_every != 0:
                trace.append(_record(t, u, grid, params))
            return BlowupVerdict(reason != "resolution", t, reason, trace,
                                 ComplexField(grid, u))

        if amp > 1.02 * prev_amp:
            dt = max(dt * cfg.cfl_shrink, DT_MIN)

    if trace[-1].t < t - 1e-12:
        trace.append(_record(t, u, grid, params))
    return BlowupVerdict(False, None, None, trace, ComplexField(grid, u))


def uniform_prefix(trace: list[TraceRecord]) -> list[TraceRecord]:
    """Longest leading sub-trace with uniform cadence (adaptive stepping
    makes the tail of a blowup trace nonuniform)."""
    if len(trace) < 2:
        return list(trace)
    times = np.array([rec.t for rec in trace])
    dts = np.diff(times)
    cut = np.nonzero(np.abs(dts - dts[0]) > 1e-9 * dts[0] + 1e-14)[0]
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
    if np.max(np.abs(dts - dts[0])) > 1e-9 * dts[0] + 1e-14:
        raise ValueError("trace cadence is not uniform")
    return float(dts[0]), np.array([rec.variance for rec in trace])


def _variance_d2(trace: list[TraceRecord]) -> np.ndarray:
    """d^2/dt^2 of the variance by central second differences."""
    dt, var = _variance_series(trace, 5)
    return (var[:-2] - 2 * var[1:-1] + var[2:]) / dt ** 2


def virial_check(trace: list[TraceRecord]) -> float:
    """Worst normalized mismatch between d^2/dt^2 ||xu||^2 and 8 Q(u)."""
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
                             gs: GroundStateResult,
                             drift_tol: float = 1e-6) -> bool:
    """All recorded states stay in the blowup set and obey the virial bound
    8 Q(u(t)) <= 16 (S(u0) - S(phi)) up to detection."""
    if not verdict.trace:
        return False
    first = verdict.trace[0]
    ref = gs.report
    u0_checks = (first.action - ref.action, first.mass - ref.mass,
                 first.nehari, first.virial_q)
    if not (u0_checks[0] < 0 and u0_checks[1] <= 1e-6 * ref.mass
            and u0_checks[2] < 0 and u0_checks[3] < 0):
        raise MembershipError("run did not start inside the blowup set")
    bound = 16.0 * (first.action - ref.action)
    scale = max(1.0, abs(ref.action))
    for rec in verdict.trace:
        # the record at detection time itself is past the step-size control
        # horizon; conservation there reflects integrator breakdown, not flow
        if verdict.t_detect is not None and rec.t >= verdict.t_detect - 1e-12:
            break
        ok = (rec.action - ref.action < drift_tol * scale
              and rec.mass - ref.mass <= 1e-6 * ref.mass + drift_tol * ref.mass
              and rec.nehari < 0
              and rec.virial_q < 0
              and 8.0 * rec.virial_q <= bound + drift_tol * max(1.0, abs(bound)))
        if not ok:
            return False
    return True


def concavity_audit(trace: list[TraceRecord], gs: GroundStateResult,
                    tol: float = 1e-2) -> bool:
    """Second difference of the variance stays below 16 (S(u0) - S(phi))."""
    d2 = _variance_d2(trace)
    bound = 16.0 * (trace[0].action - gs.report.action)
    return bool(np.all(d2 <= bound + tol * max(1.0, abs(bound))))
