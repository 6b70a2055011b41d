"""Instability classification and the scaled initial data for blowup runs.

A ground state is classified by the concavity of the action along the
mass-preserving scaling curve at lambda = 1: d2s <= 0 is the sufficient
condition for strong instability.  ``make_scaled_data`` checks that the
embedded phi^lambda lies in the invariant blowup set {S < S(phi),
mass <= mass(phi), K < 0, Q < 0} by ``evolution.in_blowup_set``, the one
statement of that set.  ``omega_sweep`` is the one loop that solves and
classifies across omega, ``blowup_run`` the one evolution and audit of
lambda-compressed data, and ``blowup_sweep`` the one loop over lambda,
which runs them in lambda order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .params import (
    ERRORS,
    ComplexField,
    MembershipError,
    Params,
    PeriodicGrid,
    PreconditionError,
    ResolutionError,
)
from .functionals import FunctionalReport, _line_spectrum, functionals
from .groundstate import GroundStateResult, SolveDiagnostics, solve_ground_state
from .evolution import (
    MAX_TAIL_FRACTION, BlowupVerdict, EvolutionConfig, audit_window,
    b_omega_invariance_audit, blowup_time_bound, concavity_audit,
    conservation_drift, evolve, in_blowup_set, variance_rate)

#: ``classify``'s one band: a value within CRITERION_BAND * |S| of 0 is 0.
CRITERION_BAND = 1e-8


@dataclass(frozen=True)
class StabilityReport:
    """What ``classify`` decides; the values it reads stay in the ground
    state's report."""

    criterion_met: bool
    remark13_consistent: bool


def remark13_decomposition(report: FunctionalReport,
                           params: Params) -> tuple[float, float, float]:
    """Three summands that add up to d2s for every report: (alpha+1) Q,
    -2 alpha E, and the q-power term, which is negative since
    alpha < 2 < beta.  Q(phi) = 0 at a ground state, so there E > 0
    forces d2s < 0."""
    al, be = params.alpha, params.beta
    t1 = (al + 1.0) * report.virial
    t2 = -2.0 * al * report.energy
    t3 = -params.b * (be - 2.0) * (be - al) / (params.q + 1.0) * report.lq
    return (t1, t2, t3)


def classify(gs: GroundStateResult) -> StabilityReport:
    """The criterion d2s <= band and the remark-13 checks (E > band forces
    d2s < -band; the parts sum to d2s), one band = CRITERION_BAND * |S|.
    ``gs`` certified itself when it was built."""
    r, params = gs.report, gs.params
    band = CRITERION_BAND * abs(r.action)
    consistent = (not (r.energy > band and r.d2s >= -band)
                  and abs(sum(remark13_decomposition(r, params)) - r.d2s) <= band)
    return StabilityReport(r.d2s <= band, consistent)


def _embed(gs: GroundStateResult, lam: float,
           grid: PeriodicGrid) -> ComplexField:
    """phi^lambda on the line by even reflection; ResolutionError when its
    spectral tail passes MAX_TAIL_FRACTION, where ``evolve`` stops a run."""
    if gs.params.N != 1:
        raise PreconditionError("line embedding is defined for N = 1 profiles")
    vals = gs.resample(lam * np.abs(grid.x))
    u = np.sqrt(lam) * vals.astype(complex)
    tail = _line_spectrum(u, grid)[1]
    if tail > MAX_TAIL_FRACTION:
        raise ResolutionError(
            f"phi^lambda at lambda = {lam:g} on {grid.m} nodes has spectral "
            f"tail {tail:.3g}, above MAX_TAIL_FRACTION = {MAX_TAIL_FRACTION:g}")
    return ComplexField(grid, u)


def make_scaled_data(gs: GroundStateResult, lam: float,
                     grid: PeriodicGrid) -> ComplexField:
    """phi^lambda embedded on the evolution grid by even reflection (N = 1).

    Verifies resolution and then blowup-set membership before returning.
    """
    if not 1.0 < lam < np.inf:
        raise PreconditionError(f"lambda must be finite and exceed 1, got {lam!r}")
    u0 = _embed(gs, lam, grid)
    rv, rg = functionals(u0, gs.params), gs.report
    if not in_blowup_set(rv, rg, 0.0):
        margins = (rv.action - rg.action, rv.mass - rg.mass, rv.nehari,
                   rv.virial)
        raise MembershipError(f"embedded state not in the blowup set: "
                              f"margins {margins}")
    return u0


def blowup_run(gs: GroundStateResult, lam: float, grid: PeriodicGrid,
               cfg: EvolutionConfig) -> tuple[dict, BlowupVerdict]:
    """Evolve phi^lambda from ``grid``, audit the run and sum it up in a row.

    Status is "ok" or "inconclusive".  Every audit reads one window, the
    records before detection (``evolution.audit_window``); the concavity
    audit tests Glassey's envelope there, with V'(0) from phi^lambda, and
    the run's end against ``t_bound``, the envelope's root T*.  The row
    also counts the steps taken and the dt reductions, and gives the
    smallest dt, the largest relative mass and energy drift over the
    window, the time of its last record over the run's time span
    (``audited_fraction``), and the (m, first step) of each grid the run
    used.  Raises the package's ``ERRORS``.
    """
    u0 = make_scaled_data(gs, lam, grid)
    verdict = evolve(u0, gs.params, cfg)
    rate0 = variance_rate(u0)
    window = audit_window(verdict)
    mass_drift, energy_drift = conservation_drift(verdict)
    t_end = verdict.trace[-1].t
    row = {
        "lambda": lam,
        "status": "inconclusive" if verdict.inconclusive else "ok",
        "blew_up": verdict.blew_up,
        "t_detect": verdict.t_detect,
        "reason": verdict.reason or "",
        "invariance_audit": b_omega_invariance_audit(verdict, gs.report),
        "concavity_audit": concavity_audit(verdict, gs.report, rate0),
        "t_bound": blowup_time_bound(verdict.trace[0], gs.report, rate0)[1],
        "steps": verdict.steps,
        "dt_reductions": verdict.dt_reductions,
        "dt_min": verdict.dt_min,
        "mass_drift": mass_drift,
        "energy_drift": energy_drift,
        "audited_fraction": window[-1].t / t_end if t_end > 0 else 0.0,
        "grids": verdict.grids,
    }
    return row, verdict


def blowup_sweep(gs: GroundStateResult, lambdas, grid: PeriodicGrid,
                 cfg: EvolutionConfig) -> list[tuple[dict, BlowupVerdict | None]]:
    """``blowup_run`` at each lambda, in order.

    A lambda whose run raises one of the package's ``ERRORS`` gets the row
    {"lambda", "status": "error: ..."} and the verdict None, and the sweep
    goes on; any other exception ends the sweep.
    """
    results = []
    for lam in lambdas:
        try:
            results.append(blowup_run(gs, lam, grid, cfg))
        except ERRORS as exc:
            results.append(({"lambda": lam, "status": f"error: {exc}"}, None))
    return results


def omega_sweep(params: Params, omegas) -> list[dict]:
    """Solve and classify the ground state of ``params`` at each omega.

    One row per omega with omega, amplitude, action, energy, d2s,
    criterion_met, the solver's diagnostics (bracket_shots,
    bisection_shots, mesh_nodes, extensions) and status: "ok",
    "identity-check-failed", or "error: <message>" when the solve or the
    classification raised one of the package's ``ERRORS``; such a row holds
    NaN in place of every computed value, and the sweep goes on past it.
    """
    nan = float("nan")
    rows = []
    for w in omegas:
        row = {"omega": w, "amplitude": nan, "action": nan, "energy": nan,
               "d2s": nan, "criterion_met": False,
               **{f.name: nan for f in fields(SolveDiagnostics)},
               "status": "ok"}
        try:
            gs = solve_ground_state(replace(params, omega=w))
            rep = classify(gs)
        except ERRORS as exc:
            row["status"] = f"error: {exc}"
        else:
            row.update(amplitude=gs.amplitude, action=gs.report.action,
                       energy=gs.report.energy, d2s=gs.report.d2s,
                       criterion_met=rep.criterion_met,
                       **asdict(gs.diagnostics))
            if not rep.remark13_consistent:
                row["status"] = "identity-check-failed"
        rows.append(row)
    return rows
