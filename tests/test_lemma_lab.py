"""Variational-inequality machinery tests.

Hand-checked values at (alpha, beta) = (1, 3), lambda = 1/2:

    h   = (2-1)(3-2) - 2*3*2 + (3-2+4)*4          = 9
    g2  = 2*0.125 - 6*0.25 + 6*0.5 - 2            = -1/4
    g3  = 1*0.25 - 2*0.5 + 1                      = 1/4

and h, g1, g2, g3 all vanish at lambda = 1 by construction.
"""

import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpnls.params import Params, PreconditionError
from dpnls.functionals import at_scale, functionals, report_from_norms
from dpnls.groundstate import solve_ground_state
from dpnls import lemma_lab
from dpnls.lemma_lab import (
    ExponentPair,
    aim_inequality_margin,
    check_hypotheses,
    find_lambda0,
    g1_fn,
    g2_fn,
    g3_fn,
    h_fn,
    key_estimate_audit,
    key_estimate_check,
    perturbed_profiles,
    sample_exponent_pairs,
    sign_suite,
    signs_hold,
)

from conftest import gaussian_profile, rescale_to_nehari

EP13 = ExponentPair(1.0, 3.0)


def chain_reference(lam, ep):
    """h, g1, g2, g3 at ``lam`` from the raw formulas in 50-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, x = Decimal(ep.alpha), Decimal(ep.beta), Decimal(lam)
        ln = x.ln()
        pw = lambda k: (k * ln).exp()
        h = (2 - a) * (b - 2) - 2 * b * pw(-a) + (a * b - 2 * a + 4) * pw(-2)
        g2 = (2 * a * (2 - a) * pw(b) - a * b * (b - a) * pw(2)
              + 2 * b * (b - 2) * pw(a) - (2 - a) * (b - 2) * (b - a))
        g3 = (2 - a) * pw(b - a) - (b - a) * pw(2 - a) + b - 2
        ratio = (2 * pw(b) - b * pw(2) - 2 + b) / (a * pw(2) - 2 * pw(a) - a + 2)
        c = a * b + 4 - 2 * a - a * b * pw(2 - a)
        g1 = (a * ratio * c / pw(b - a) - b * (2 * b - a * b - 4)
              - a * b * b / pw(b - 2))
        return float(h), float(g1), float(g2), float(g3)


class TestScalarFunctions:
    def test_values_at_half(self):
        assert h_fn(0.5, EP13) == pytest.approx(9.0, abs=1e-12)
        assert g2_fn(0.5, EP13) == pytest.approx(-0.25, abs=1e-12)
        assert g3_fn(0.5, EP13) == pytest.approx(0.25, abs=1e-12)

    def test_zeros_at_one(self):
        assert h_fn(1.0, EP13) == pytest.approx(0.0, abs=1e-12)
        assert g2_fn(1.0, EP13) == pytest.approx(0.0, abs=1e-12)
        assert g3_fn(1.0, EP13) == pytest.approx(0.0, abs=1e-12)
        assert g1_fn(1.0, EP13) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("ep", [EP13, ExponentPair(1.929, 5.038)])
    @pytest.mark.parametrize("lam", [1.0 - 1e-6, 1.0 - 1e-4])
    def test_chain_near_one_matches_decimal(self, ep, lam):
        # every function vanishes at 1, so its raw form cancels to rounding
        # noise next to it; g2 vanishes to third order and keeps only its sign
        h, g1, g2, g3 = chain_reference(lam, ep)
        assert h_fn(lam, ep) == pytest.approx(h, rel=1e-10, abs=0.0)
        assert g1_fn(lam, ep) == pytest.approx(g1, rel=1e-5, abs=0.0)
        assert g3_fn(lam, ep) == pytest.approx(g3, rel=1e-7, abs=0.0)
        assert g2 < 0 and g2_fn(lam, ep) == pytest.approx(g2, rel=0.5, abs=0.0)

    def test_g1_finite_near_one(self):
        # the raw formula is 0/0 at lambda = 1; the stabilized form must
        # stay bounded approaching the endpoint
        val = g1_fn(1.0 - 1e-6, EP13)
        assert np.isfinite(val)
        assert abs(val) < 1e-3

    def test_domain_checks(self):
        for fn in (h_fn, g2_fn, g3_fn):
            with pytest.raises(ValueError):
                fn(0.0, EP13)
            with pytest.raises(ValueError):
                fn(1.5, EP13)

    def test_domain_messages_name_the_extremes(self):
        with pytest.raises(ValueError, match=re.escape(
                "lambda must lie in (0, 1], got smallest 0.0, largest 0.5")):
            h_fn(np.array([0.5, 0.0]), EP13)
        with pytest.raises(ValueError, match=re.escape(
                "lambda must lie in (0, 1], got smallest 0.2, largest 1.5")):
            g2_fn(np.array([0.2, 1.5]), EP13)
        with pytest.raises(ValueError, match=re.escape(
                "lambda must lie in (0, 1], got smallest 0.25, largest 1.5")):
            g1_fn(np.array([0.25, 1.5]), EP13)
        for fn in (h_fn, g1_fn, g2_fn, g3_fn):
            with pytest.raises(ValueError, match=re.escape(
                    "lambda must lie in (0, 1], got smallest nan, largest nan")):
                fn(np.array([0.5, np.nan]), EP13)

    def test_exponent_pair_validation(self):
        with pytest.raises(ValueError):
            ExponentPair(2.5, 3.0)
        with pytest.raises(ValueError):
            ExponentPair(1.0, 1.5)

    def test_chain_errors_are_precondition_errors(self, params1):
        zero = report_from_norms(0.0, 0.0, 0.0, 0.0, params1)
        for call in (lambda: h_fn(0.0, EP13), lambda: g1_fn(1.5, EP13),
                     lambda: ExponentPair(2.5, 3.0),
                     lambda: find_lambda0(zero, params1),
                     lambda: at_scale(zero, params1, 0.0)):
            with pytest.raises(PreconditionError):
                call()


class TestSignSuite:
    def test_signs_over_random_pairs(self):
        rng = np.random.default_rng(7)
        rows = sign_suite(sample_exponent_pairs(rng, 100), 10000)
        for row in rows:
            assert row["h_min"] >= 0
            assert row["g1_min"] >= 0
            assert row["g2_max"] <= 0
            assert row["g3_min"] >= 0
            # monotonicity observed on the sampling grid
            assert row["g1_max_increase"] <= 1e-9
            assert row["g3_max_increase"] <= 1e-9

    def test_audit_pairs_hold_without_slack(self):
        # the verify-lemma pairs of seed 0; every extreme sits at the last
        # node 1 - 1e-6, where each function is read from lambda^k - 1
        pairs = sample_exponent_pairs(np.random.default_rng(0), 400)
        for row in sign_suite(pairs, 10000):
            assert row["h_min"] >= 0 and row["g1_min"] >= 0
            assert row["g2_max"] <= 0 and row["g3_min"] >= 0

    def test_signs_hold_without_slack(self):
        row = {"h_min": 0.0, "g1_min": 0.0, "g2_max": 0.0, "g3_min": 0.0}
        assert signs_hold([row])
        assert not signs_hold([dict(row, g2_max=1e-12)])
        # no row certifies nothing
        assert not signs_hold([])

    def test_points_set_the_grid(self):
        (row,) = sign_suite([EP13], 3)
        lam = np.linspace(1e-6, 1.0 - 1e-6, 3)
        assert row["h_min"] == float(np.min(h_fn(lam, EP13)))
        assert row["g2_max"] == float(np.max(g2_fn(lam, EP13)))

    @settings(max_examples=40, deadline=None)
    @given(
        al=st.floats(0.05, 1.95),
        be=st.floats(2.05, 6.0),
        lam=st.floats(1e-5, 1.0 - 1e-5),
    )
    def test_pointwise_signs_property(self, al, be, lam):
        ep = ExponentPair(al, be)
        assert h_fn(lam, ep) >= -1e-9
        assert g2_fn(lam, ep) <= 1e-9
        assert g3_fn(lam, ep) >= -1e-9


class TestLambdaZero:
    def test_ground_state_crossing_is_one(self, gs1):
        assert find_lambda0(gs1.report, gs1.params) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_zero_nehari_crossing_is_one(self, params1):
        # K = 0 exactly: the root-finder returns the endpoint 1 itself
        rep = report_from_norms(1.0, 1.0, 1.0, 1.0, params1)
        assert rep.nehari == 0.0
        assert find_lambda0(rep, params1) == 1.0

    def test_scaled_state_crossing(self, gs1):
        # K(phi^lam) < 0 for lam > 1, and the first crossing going down in
        # scale must land back at lam0 * lam = 1
        rep = at_scale(gs1.report, gs1.params, 1.5)
        lam0 = find_lambda0(rep, gs1.params)
        assert lam0 * 1.5 == pytest.approx(1.0, rel=1e-6)

    def test_residual_at_crossing(self, gs1, params1):
        rep = at_scale(gs1.report, gs1.params, 2.0)
        lam0 = find_lambda0(rep, params1)
        k = at_scale(rep, params1, lam0).nehari
        assert abs(k) < 1e-10 * params1.omega * rep.mass

    def test_rejects_positive_nehari(self, gs1, params1):
        prof = gaussian_profile(width=0.2)
        rep = functionals(prof, params1)
        assert rep.nehari > 0
        with pytest.raises(PreconditionError, match=re.escape(
                f"K(v) must be <= 0, got {rep.nehari:.6g}")):
            find_lambda0(rep, params1)

    def test_zero_state_names_the_mass(self, params1):
        rep = report_from_norms(0.0, 0.0, 0.0, 0.0, params1)
        with pytest.raises(ValueError, match=re.escape(
                "zero state has no Nehari crossing: mass(v) = 0 <= 0")):
            find_lambda0(rep, params1)

    def test_no_crossing_names_the_last_lambda(self):
        # with omega near 0 and no gradient, K(v^lam) = omega mass
        # - lam lp - lam^3 lq stays negative down to the 1e-12 floor
        params = Params(N=1, a=1.0, b=1.0, p=3.0, q=7.0, omega=1e-30)
        rep = report_from_norms(1.0, 0.0, 1.0, 1.0, params)
        lam = 2.0 ** -39    # the last halving of 1/2 above 1e-12
        k = at_scale(rep, params, lam).nehari
        assert k < 0
        with pytest.raises(PreconditionError, match=re.escape(
                f"no sign change of K on (0, 1): K = {k:.3g} <= 0 at "
                f"lambda = {lam:.3g}, the last above 1e-12")):
            find_lambda0(rep, params)


class TestFCurve:
    def test_derivative_vanishes_at_one_for_ground_state(self, gs1):
        # f(lam) = S(phi^lam) - lam^2/2 * Q(phi): d/dlam [S(phi^lam)] =
        # Q(phi^lam)/lam and Q(phi) = 0, so f is stationary at lam = 1
        rep, params = gs1.report, gs1.params
        h = 1e-5
        lam = np.array([1.0 - h, 1.0 + h])
        f = at_scale(rep, params, lam).action - 0.5 * lam ** 2 * rep.virial
        assert abs((f[1] - f[0]) / (2 * h)) < 1e-6


class TestRescaleToNehari:
    def test_ground_state_is_fixed(self, gs1):
        mu, rep = rescale_to_nehari(gs1.report, gs1.params)
        assert mu == pytest.approx(1.0, rel=1e-6)
        assert abs(rep.nehari) < 1e-10

    def test_doubled_state_shrinks(self, gs1):
        r = gs1.report
        doubled = report_from_norms(
            4 * r.mass, 4 * r.grad, 16 * r.lp, 256 * r.lq, gs1.params
        )
        mu, rep = rescale_to_nehari(doubled, gs1.params)
        assert 0 < mu < 1
        assert abs(rep.nehari) < 1e-9 * max(1.0, rep.action)

    def test_minimality_against_gaussians(self, gs1, params1):
        # S = K/2 + F/2 on the Nehari manifold, so F/2 of any rescaled
        # competitor bounds S(phi) from above
        for width in (0.7, 1.0, 1.5):
            _, rep = rescale_to_nehari(gaussian_profile(width=width), params1)
            assert rep.bigf / 2.0 >= gs1.report.action - 1e-10


class TestKeyEstimate:
    @pytest.mark.parametrize("lam", [1.1, 1.5, 2.0, 3.0])
    def test_margin_nonnegative_along_scaling(self, gs1, lam):
        rep = at_scale(gs1.report, gs1.params, lam)
        chk = key_estimate_check(rep, gs1)
        assert chk.lhs < 0  # Q(phi^lam) < 0 in this regime
        assert chk.margin >= -1e-12 * abs(chk.rhs)
        assert 0 < chk.lambda0 < 1

    def test_equality_at_lambda_one(self, gs1):
        chk = key_estimate_check(gs1.report, gs1)
        assert chk.lambda0 == pytest.approx(1.0, abs=1e-10)
        assert chk.lhs == pytest.approx(0.0, abs=1e-10)
        assert chk.rhs == pytest.approx(0.0, abs=1e-10)

    def test_perturbed_states(self, gs1):
        rng = np.random.default_rng(11)
        kept = 0
        for prof in perturbed_profiles(gs1, rng, 60):
            rep = functionals(prof, gs1.params)
            try:
                chk = key_estimate_check(rep, gs1)
            except PreconditionError:
                continue
            kept += 1
            assert chk.margin >= -1e-8 * abs(chk.rhs)
        assert kept >= 10

    @pytest.mark.parametrize("N, p, q", [(1, 3.0, 7.0), (2, 2.0, 4.0),
                                         (3, 1.5, 3.0)])
    def test_unbumped_candidates_scale_exactly(self, monkeypatch, N, p, q):
        # with no bump a candidate is phi^lam sampled on the scaled grid, so
        # its discrete norms are the ground state's scaled in closed form
        monkeypatch.setattr(lemma_lab, "MAX_BUMP", 0.0)
        params = Params(N=N, a=1.0, b=1.0, p=p, q=q, omega=1.0)
        gs = solve_ground_state(params)
        replay = np.random.default_rng(3)
        for prof in perturbed_profiles(gs, np.random.default_rng(3), 8):
            lam = replay.uniform(1.0, 3.0)
            replay.uniform(size=3)      # eps, r0 and w
            got = functionals(prof, params)
            want = at_scale(gs.report, params, lam)
            for name in ("mass", "grad", "lp", "lq"):
                assert getattr(got, name) == pytest.approx(
                    getattr(want, name), rel=1e-13, abs=0.0)

    def test_hypothesis_violations_named(self, gs1, params1):
        rep = functionals(gaussian_profile(width=0.2), params1)
        with pytest.raises(PreconditionError,
                           match=re.escape(f"K(v) > 0: K(v) = {rep.nehari:.6g}")):
            key_estimate_check(rep, gs1)

    def test_hypothesis_messages_state_value_and_limit(self, gs1, params1):
        mass = gs1.report.mass
        heavy = report_from_norms(2.0 * mass, 1.0, 1.0, 1.0, params1)
        with pytest.raises(PreconditionError, match=re.escape(
                "mass(v)/mass(phi) = 2 > 1 + 1e-12")):
            check_hypotheses(heavy, gs1)
        # K = grad + omega mass - lp - lq < 0 while Q = grad - lp/4 > 0
        wide = report_from_norms(0.5 * mass, 10.0, 20.0, 0.0, params1)
        assert wide.nehari < 0
        with pytest.raises(PreconditionError,
                           match=re.escape(f"Q(v) > 0: Q(v) = {wide.virial:.6g}")):
            check_hypotheses(wide, gs1)
        empty = report_from_norms(0.0, 0.0, 0.0, 0.0, params1)
        with pytest.raises(PreconditionError, match=re.escape(
                "v = 0: mass(v) = 0 <= 0")):
            check_hypotheses(empty, gs1)

    @pytest.mark.parametrize("call, message", [
        (lambda gs: sample_exponent_pairs(np.random.default_rng(0), 0),
         "need at least 1 exponent pair, got 0"),
        (lambda gs: sign_suite([], 10), "need at least 1 exponent pair, got 0"),
        (lambda gs: sign_suite([EP13], 1), "need at least 2 lambda points, got 1"),
        (lambda gs: key_estimate_audit(gs, np.random.default_rng(0), 0),
         "need at least 1 key-estimate sample, got 0"),
    ])
    def test_empty_verdicts_are_rejected(self, gs1, call, message):
        # a sample of nothing cannot certify the lemma
        with pytest.raises(PreconditionError, match=re.escape(message)):
            call(gs1)

    def test_audit_short_of_samples_fails(self, gs1, monkeypatch):
        # fewer kept states than requested is not a pass, even with no
        # failing margin among them
        def reject(report, gs):
            raise PreconditionError("rejected")
        monkeypatch.setattr(lemma_lab, "check_hypotheses", reject)
        checks, ok = key_estimate_audit(gs1, np.random.default_rng(0), 2)
        assert checks == [] and ok is False

    def test_audit_band_is_relative_to_rhs(self, gs1, monkeypatch):
        # margin -1e-11 on rhs = -1e-5 is a millionth of |rhs|, 100 times
        # the band 1e-8 |rhs|
        monkeypatch.setattr(lemma_lab, "check_hypotheses",
                            lambda report, gs: None)
        monkeypatch.setattr(lemma_lab, "key_estimate_check",
                            lambda report, gs: lemma_lab.KeyEstimateCheck(
                                0.5, -1e-5 + 1e-11, -1e-5, -1e-11))
        checks, ok = key_estimate_audit(gs1, np.random.default_rng(0), 2)
        assert len(checks) == 2 and ok is False


class TestAimInequality:
    @pytest.mark.parametrize("lam", [1.2, 1.8, 2.5])
    def test_nonnegative_for_scaled_states(self, gs1, lam):
        rep = at_scale(gs1.report, gs1.params, lam)
        lam0 = find_lambda0(rep, gs1.params)
        assert aim_inequality_margin(rep, gs1.params, lam0) >= -1e-10

    def test_limit_at_lambda_one(self, gs1):
        # num/den is 0/0 at lambda_0 = 1; the margin takes its limit
        # be (be - 2) / (al (2 - al)) there and is continuous across the
        # switch to the series
        params, rep = gs1.params, gs1.report
        al, be = params.alpha, params.beta
        limit = be * (be - 2) / (al * (2 - al))
        want = (params.b / (params.q + 1) * limit * rep.lq
                - params.a / (params.p + 1) * rep.lp)
        assert aim_inequality_margin(rep, params, 1.0) == pytest.approx(
            want, rel=1e-14)
        for ell in (1e-8, 0.99e-5, 1.01e-5, 1e-4):
            got = aim_inequality_margin(rep, params, float(np.exp(-ell)))
            assert got == pytest.approx(want, rel=2 * ell * be)

    def test_negative_margin_raises(self, gs1):
        # norms that meet the Lemma hypotheses but carry almost no L^{q+1}
        # norm against the L^{p+1} norm: the aim inequality fails
        r = gs1.report
        skewed = report_from_norms(r.mass, r.grad, 3.0 * r.lp, 1e-6 * r.lq,
                                   gs1.params)
        lam0 = find_lambda0(skewed, gs1.params)
        assert aim_inequality_margin(skewed, gs1.params, lam0) < 0
        with pytest.raises(PreconditionError, match="aim inequality"):
            key_estimate_check(skewed, gs1)
