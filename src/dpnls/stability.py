"""Instability classification and the scaled initial data for blowup runs.

A ground state is classified by the concavity of the action along the
mass-preserving scaling curve at lambda = 1: d2s <= 0 is the sufficient
condition for strong instability.  ``in_b_omega`` tests membership in the
invariant blowup set {S < S(phi), mass <= mass(phi), K < 0, Q < 0}.
``omega_sweep`` is the one loop that solves and classifies across omega,
``blowup_run`` the one evolution and audit of lambda-compressed data, and
``blowup_sweep`` the one loop over lambda, which runs them in lambda
order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .params import (
    ERRORS,
    ComplexField,
    MembershipError,
    Params,
    PeriodicGrid,
    PreconditionError,
)
from .functionals import FunctionalReport, _check_resolved, functionals
from .groundstate import (
    GroundStateResult, SolveDiagnostics, _check_identities, solve_ground_state)
from .evolution import (
    BlowupVerdict, EvolutionConfig, b_omega_invariance_audit, concavity_audit,
    conservation_drift, evolve, in_blowup_set, uniform_prefix, virial_check)

#: d2s <= CRITERION_BAND * S counts as "<= 0" (equality is admissible).
CRITERION_BAND = 1e-8


@dataclass(frozen=True)
class StabilityReport:
    omega: float
    d2s: float
    energy: float
    criterion_met: bool
    remark13_consistent: bool


@dataclass(frozen=True)
class BOmegaVerdict:
    """Membership verdict with the raw margins of the four conditions.

    checks = (S(v) - S(phi), mass(v) - mass(phi), K(v), Q(v)), read by
    ``evolution.in_blowup_set``.
    """

    in_set: bool
    checks: tuple[float, float, float, float]


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
    """Evaluate the instability criterion and the positive-energy check."""
    _check_identities(gs.report)
    r, params = gs.report, gs.params
    d2s = r.d2s
    met = d2s <= CRITERION_BAND * abs(r.action)
    tol = CRITERION_BAND * max(1.0, abs(r.action))
    consistent = True
    if r.energy > tol and not (d2s < -tol):
        consistent = False
    parts = remark13_decomposition(r, params)
    if abs(sum(parts) - d2s) > 1e-8 * max(1.0, abs(d2s)):
        consistent = False
    return StabilityReport(params.omega, d2s, r.energy, met, consistent)


def in_b_omega(v, gs: GroundStateResult) -> BOmegaVerdict:
    """Test the four defining inequalities of the blowup set."""
    rv = functionals(v, gs.params)
    rg = gs.report
    checks = (rv.action - rg.action, rv.mass - rg.mass, rv.nehari, rv.virial)
    return BOmegaVerdict(in_blowup_set(checks, rg.mass), checks)


def _embed(gs: GroundStateResult, lam: float,
           grid: PeriodicGrid) -> ComplexField:
    """phi^lambda on the line by even reflection, checked for resolution."""
    if gs.params.N != 1:
        raise PreconditionError("line embedding is defined for N = 1 profiles")
    vals = gs.resample(lam * np.abs(grid.x))
    u = np.sqrt(lam) * vals.astype(complex)
    _check_resolved(u)
    return ComplexField(grid, u)


def make_scaled_data(gs: GroundStateResult, lam: float,
                     grid: PeriodicGrid) -> ComplexField:
    """phi^lambda embedded on the evolution grid by even reflection (N = 1).

    Verifies blowup-set membership of the embedded state before returning.
    """
    if lam <= 1.0:
        raise PreconditionError("lambda must exceed 1")
    u0 = _embed(gs, lam, grid)
    verdict = in_b_omega(u0, gs)
    if not verdict.in_set:
        raise MembershipError(f"embedded state not in the blowup set: "
                              f"margins {verdict.checks}")
    return u0


def blowup_run(gs: GroundStateResult, lam: float, grid: PeriodicGrid,
               cfg: EvolutionConfig) -> tuple[dict, BlowupVerdict]:
    """Evolve phi^lambda from ``grid``, audit the run and sum it up in a row.

    Status is "ok" or "inconclusive"; the concavity and virial audits are
    None when the uniformly recorded prefix of the trace has fewer than 5
    records.  The row also counts the steps taken and the dt reductions,
    and gives the smallest dt, the largest relative mass and energy drift
    before detection, the fraction of the run's time span that the
    uniform prefix, which the audits see, covers, and the (m, first step)
    of each grid the run used.  Raises the package's ``ERRORS``.
    """
    verdict = evolve(make_scaled_data(gs, lam, grid), gs.params, cfg)
    uni = uniform_prefix(verdict.trace)
    audited = len(uni) >= 5
    mass_drift, energy_drift = conservation_drift(verdict)
    t_end = verdict.trace[-1].t
    row = {
        "lambda": lam,
        "status": "inconclusive" if verdict.inconclusive else "ok",
        "blew_up": verdict.blew_up,
        "t_detect": verdict.t_detect,
        "reason": verdict.reason or "",
        "invariance_audit": b_omega_invariance_audit(verdict, gs),
        "concavity_audit": concavity_audit(uni, gs) if audited else None,
        "virial_mismatch": virial_check(uni) if audited else None,
        "steps": verdict.steps,
        "dt_reductions": verdict.dt_reductions,
        "dt_min": verdict.dt_min,
        "mass_drift": mass_drift,
        "energy_drift": energy_drift,
        "uniform_fraction": uni[-1].t / t_end if t_end > 0 else 0.0,
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
            gs = solve_ground_state(params.with_omega(w))
            rep = classify(gs)
        except ERRORS as exc:
            row["status"] = f"error: {exc}"
        else:
            row.update(amplitude=gs.amplitude, action=gs.report.action,
                       energy=rep.energy, d2s=rep.d2s,
                       criterion_met=rep.criterion_met,
                       **asdict(gs.diagnostics))
            if not rep.remark13_consistent:
                row["status"] = "identity-check-failed"
        rows.append(row)
    return rows
