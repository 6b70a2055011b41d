"""Inequality machinery behind the key estimate Q/2 <= S - S(phi).

The estimate is proved through a chain of scalar inequalities in the
exponents (alpha, beta) and a rescaling parameter lambda in (0, 1]:
h >= 0, g2 <= 0, g3 >= 0 and g1 >= 0.  This module evaluates each of them
as a combination of lambda^k - 1 = expm1(k log lambda), all read from one
log lambda, so each vanishes at lambda = 1 by construction and keeps its
sign next to it; g1 and the aim inequality share one ratio.  It also
constructs the Nehari-crossing lambda_0 for a given state and checks the
estimate itself on sampled states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .params import (Params, PreconditionError, RadialGrid, RadialProfile,
                     is_count, is_real)
from .functionals import (
    FunctionalReport,
    at_scale,
    functionals,
)
from .groundstate import GroundStateResult


#: Relative slack of both chain steps of the key estimate and of its margin.
CHAIN_RTOL = 1e-8
#: Below this |log lambda| the ratio shared by g1 and the aim inequality
#: comes from its first-order expansion.  At the switch, for alpha in
#: [0.05, 1.95] and beta in [2.05, 6], the expansion's truncation error and
#: the rounding of the differences are each below 2e-9 relative, under
#: CHAIN_RTOL.
AIM_SERIES_LOG = 1e-5
#: Largest relative bump height of a ``perturbed_profiles`` candidate.
MAX_BUMP = 0.1


@dataclass(frozen=True)
class ExponentPair:
    """Admissible scaling exponents: 0 < alpha < 2 < beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (is_real(self.alpha) and is_real(self.beta)
                and 0.0 < self.alpha < 2.0 < self.beta):
            raise PreconditionError(f"need 0 < alpha < 2 < beta, got {self}")


@dataclass(frozen=True)
class KeyEstimateCheck:
    lambda0: float
    lhs: float     # Q(v)/2
    rhs: float     # S(v) - S(phi)
    margin: float  # rhs - lhs


def _check_lam(lam):
    """log lambda; PreconditionError unless every lambda lies in (0, 1]."""
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam > 0.0) & (lam <= 1.0)):
        raise PreconditionError(f"lambda must lie in (0, 1], got smallest "
                                f"{float(np.min(lam))!r}, largest {float(np.max(lam))!r}")
    return np.log(lam)


def _aim_ratio(ell, al, be):
    """(2 lam^be - be lam^2 - 2 + be) / (al lam^2 - 2 lam^al - al + 2) at
    log lambda = ``ell``, the ratio of g1 and of the aim inequality.

    Both terms vanish to second order at lambda = 1.  Within AIM_SERIES_LOG
    of it the ratio is its expansion L (1 + (be - al) ell / 3), whose limit
    L = be (be - 2) / (al (2 - al)) is the value at lambda = 1.
    """
    near = np.abs(ell) < AIM_SERIES_LOG
    sq = np.expm1(2 * ell)
    num = 2 * np.expm1(be * ell) - be * sq
    den = np.where(near, 1.0, al * sq - 2 * np.expm1(al * ell))
    series = be * (be - 2) / (al * (2 - al)) * (1 + (be - al) * ell / 3)
    return np.where(near, series, num / den)


def h_fn(lam, ep: ExponentPair):
    """(2-a)(b-2) - 2b lam^-a + (ab - 2a + 4) lam^-2; >= 0 on (0, 1]."""
    ell, al, be = _check_lam(lam), ep.alpha, ep.beta
    return -2 * be * np.expm1(-al * ell) + (al * be - 2 * al + 4) * np.expm1(-2 * ell)


def g2_fn(lam, ep: ExponentPair):
    """2a(2-a) lam^b - ab(b-a) lam^2 + 2b(b-2) lam^a - (2-a)(b-2)(b-a) <= 0."""
    ell, al, be = _check_lam(lam), ep.alpha, ep.beta
    return (2 * al * (2 - al) * np.expm1(be * ell)
            - al * be * (be - al) * np.expm1(2 * ell)
            + 2 * be * (be - 2) * np.expm1(al * ell))


def g3_fn(lam, ep: ExponentPair):
    """(2-a) lam^(b-a) - (b-a) lam^(2-a) + b - 2; >= 0 on (0, 1]."""
    ell, al, be = _check_lam(lam), ep.alpha, ep.beta
    return (2 - al) * np.expm1((be - al) * ell) - (be - al) * np.expm1((2 - al) * ell)


def g1_fn(lam, ep: ExponentPair):
    """a R c lam^(a-b) - b(2b - ab - 4) - a b^2 lam^(2-b) >= 0, with R the
    ratio ``_aim_ratio`` and c = ab + 4 - 2a - ab lam^(2-a).  Since
    a R(1) c(1) = 2b(b-2) cancels the constants, it is evaluated as
    a (R c lam^(a-b) - R(1) c(1)) - a b^2 (lam^(2-b) - 1)."""
    ell, al, be = _check_lam(lam), ep.alpha, ep.beta
    c1 = 2 * (2 - al)
    rc = _aim_ratio(ell, al, be) * (c1 - al * be * np.expm1((2 - al) * ell))
    return (al * (rc * np.exp((al - be) * ell) - _aim_ratio(0.0, al, be) * c1)
            - al * be ** 2 * np.expm1((2 - be) * ell))


def sample_exponent_pairs(rng: np.random.Generator, count: int) -> list[ExponentPair]:
    """``count`` >= 1 random admissible pairs, alpha in (0.05, 1.95), beta
    in (2.05, 6)."""
    if not is_count(count, 1):
        raise PreconditionError(f"need at least 1 exponent pair, got {count!r}")
    al = rng.uniform(0.05, 1.95, size=count)
    be = rng.uniform(2.05, 6.0, size=count)
    return [ExponentPair(float(a), float(b)) for a, b in zip(al, be)]


def sign_suite(pairs, points: int) -> list[dict]:
    """Worst-case values of h, g1, g2, g3 over a grid of ``points`` >= 2
    lambdas per pair, for at least one pair.

    The grid stays 1e-6 away from both endpoints; all four vanish at 1.
    """
    if not is_count(len(pairs), 1):
        raise PreconditionError(f"need at least 1 exponent pair, got {len(pairs)}")
    if not is_count(points, 2):
        raise PreconditionError(f"need at least 2 lambda points, got {points!r}")
    lam_grid = np.linspace(1e-6, 1.0 - 1e-6, points)
    rows = []
    for ep in pairs:
        hv = h_fn(lam_grid, ep)
        g1 = g1_fn(lam_grid, ep)
        g2 = g2_fn(lam_grid, ep)
        g3 = g3_fn(lam_grid, ep)
        rows.append({
            "alpha": ep.alpha, "beta": ep.beta,
            "h_min": float(np.min(hv)), "g1_min": float(np.min(g1)),
            "g2_max": float(np.max(g2)), "g3_min": float(np.min(g3)),
            "g1_max_increase": float(np.max(np.diff(g1))),
            "g3_max_increase": float(np.max(np.diff(g3))),
        })
    return rows


def signs_hold(rows) -> bool:
    """h >= 0, g1 >= 0, g2 <= 0 and g3 >= 0 on every ``sign_suite`` row,
    exactly, with no slack: each is read from expm1 terms that vanish at
    lambda = 1 by construction, so a wrong sign next to 1 is not rounding.
    No row certifies nothing."""
    return bool(rows) and all(r["h_min"] >= 0 and r["g1_min"] >= 0
               and r["g2_max"] <= 0 and r["g3_min"] >= 0 for r in rows)


def find_lambda0(report: FunctionalReport, params: Params) -> float:
    """lambda_0 in (0, 1] with K(v^lambda_0) = 0 for the state v of
    ``report``, by root-finding on the closed-form lambda-dependence
    (K -> omega * mass > 0 as lambda -> 0)."""
    if report.mass <= 0:
        raise PreconditionError(f"zero state has no Nehari crossing: mass(v) = "
                         f"{report.mass:.6g} <= 0")
    if report.nehari > 0:
        raise PreconditionError(f"K(v) must be <= 0, got {report.nehari:.6g}")
    k = lambda lam: float(at_scale(report, params, lam).nehari)
    lo = 0.5
    while k(lo) <= 0:
        lo *= 0.5
        if lo < 1e-12:
            raise PreconditionError(f"no sign change of K on (0, 1): K = {k(2 * lo):.3g}"
                                    f" <= 0 at lambda = {2 * lo:.3g}, the last above 1e-12")
    lam0 = brentq(k, lo, 1.0, xtol=1e-14, rtol=8.9e-16)
    return float(lam0)


def check_hypotheses(report: FunctionalReport, gs: GroundStateResult) -> None:
    """Raise PreconditionError naming the first failing Lemma hypothesis."""
    if report.mass <= 0:
        raise PreconditionError(f"v = 0: mass(v) = {report.mass:.6g} <= 0")
    if report.mass > gs.report.mass * (1 + 1e-12):
        ratio = report.mass / gs.report.mass
        raise PreconditionError(f"mass(v)/mass(phi) = {ratio:.15g} > 1 + 1e-12")
    if report.nehari > 0:
        raise PreconditionError(f"K(v) > 0: K(v) = {report.nehari:.6g}")
    if report.virial > 0:
        raise PreconditionError(f"Q(v) > 0: Q(v) = {report.virial:.6g}")


def key_estimate_check(report: FunctionalReport,
                       gs: GroundStateResult) -> KeyEstimateCheck:
    """Evaluate Q(v)/2 <= S(v) - S(phi) for the state v of ``report``,
    which must meet the hypotheses.

    Also verifies two intermediate steps of the inequality chain: the aim
    inequality at lambda_0 and S(phi) <= S(v^lambda_0).
    """
    check_hypotheses(report, gs)
    params = gs.params
    lam0 = find_lambda0(report, params)
    lhs = report.virial / 2.0
    rhs = report.action - gs.report.action
    aim = aim_inequality_margin(report, params, lam0)
    if aim < -CHAIN_RTOL * abs(params.a / (params.p + 1) * report.lp):
        raise PreconditionError(
            f"chain step violated: aim inequality margin {aim:.6g} < 0 "
            f"at lambda_0 = {lam0:.6g}")
    s_at_lam0 = float(at_scale(report, params, lam0).action)
    scale = max(abs(gs.report.action), abs(s_at_lam0))
    if gs.report.action > s_at_lam0 + CHAIN_RTOL * scale:
        raise PreconditionError(
            f"chain step violated: S(phi) = {gs.report.action:.6g} > "
            f"S(v^lam0) = {s_at_lam0:.6g}")
    return KeyEstimateCheck(lam0, float(lhs), float(rhs), float(rhs - lhs))


def aim_inequality_margin(report: FunctionalReport, params: Params,
                          lam0: float) -> float:
    """Margin of the lambda_0 comparison between the two power norms:
    b/(q+1) * lq * num/den - a/(p+1) * lp >= 0, with
    num = 2 lam0^be - be lam0^2 - 2 + be and
    den = al lam0^2 - 2 lam0^al - al + 2.

    The ratio num/den is ``_aim_ratio``, the one g1 reads; its limit at
    lam0 = 1 is be (be - 2) / (al (2 - al)).
    """
    ratio = float(_aim_ratio(np.log(lam0), params.alpha, params.beta))
    lhs = params.a / (params.p + 1) * report.lp
    rhs = params.b / (params.q + 1) * ratio * report.lq
    return float(rhs - lhs)


def perturbed_profiles(gs: GroundStateResult, rng: np.random.Generator,
                       count: int):
    """Candidate states (1 + eps*bump) * phi^lam with analytic derivatives.

    Each candidate is sampled on the ground state's grid scaled by 1/lam,
    where phi^lam(r_j / lam) = lam^{N/2} phi(r_j) needs no interpolation.
    Callers filter the RadialProfile candidates through the Lemma
    hypotheses before use.
    """
    g = gs.profile.grid
    phi, dphi = gs.profile.values, gs.profile.deriv
    out = []
    for _ in range(count):
        lam = rng.uniform(1.0, 3.0)
        eps = rng.uniform(-MAX_BUMP, MAX_BUMP)
        r0 = rng.uniform(0.0, g.rmax / 4.0)
        w = rng.uniform(0.5, 3.0) / np.sqrt(gs.params.omega)
        scaled = RadialGrid(g.rmax / lam, g.n)
        r = scaled.r
        amp = lam ** (gs.params.N / 2.0)
        bump = np.exp(-((r - r0) / w) ** 2)
        dbump = bump * (-2.0 * (r - r0) / w ** 2)
        vals = amp * phi * (1.0 + eps * bump)
        der = amp * (lam * dphi * (1.0 + eps * bump) + phi * eps * dbump)
        out.append(RadialProfile(scaled, vals, der))
    return out


def key_estimate_audit(gs: GroundStateResult, rng: np.random.Generator,
                       samples: int) -> tuple[list[KeyEstimateCheck], bool]:
    """Check the key estimate on the first ``samples`` of at most 3 * samples
    perturbed states, drawn one at a time, that meet the Lemma hypotheses.

    A kept state that fails a step of the proof's chain raises
    PreconditionError; ``ok`` means ``samples`` states were kept and every
    margin is >= -CHAIN_RTOL |rhs|, relative to the estimate's own size.
    ``samples`` must be at least 1.
    """
    if not is_count(samples, 1):
        raise PreconditionError(
            f"need at least 1 key-estimate sample, got {samples!r}")
    checks = []
    for _ in range(3 * samples):
        (prof,) = perturbed_profiles(gs, rng, 1)
        report = functionals(prof, gs.params)
        try:
            check_hypotheses(report, gs)
        except PreconditionError:
            continue
        checks.append(key_estimate_check(report, gs))
        if len(checks) == samples:
            break
    ok = len(checks) == samples and all(
        c.margin >= -CHAIN_RTOL * abs(c.rhs) for c in checks)
    return checks, ok
