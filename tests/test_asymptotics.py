import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neckflow import (BranchError, FitError, GeometryError, Regime,
                      blowup_scale, extrapolate_flux, extrapolated_window_rows,
                      fit_ugap_limit, gap_constant,
                      lower_bound_region, neck_integral, neck_integral_limit,
                      predict_expansion)
from neckflow.asymptotics import (CRITICAL, SUB, SUPER, _aitken,
                                  _separable_fit)


class TestRegime:
    def test_branches_exact(self):
        assert Regime(2.0, 2).branch == SUPER
        assert Regime(1.5, 2).branch == CRITICAL
        assert Regime(1.3, 2).branch == SUB
        assert Regime(2.0, 3).branch == CRITICAL
        assert Regime(2.5, 4).branch == CRITICAL
        assert Regime(2.0, 4).branch == SUB

    @settings(max_examples=80, deadline=None)
    @given(p=st.floats(1.01, 6.0), n=st.integers(2, 5))
    def test_branch_consistency(self, p, n):
        b = Regime(p, n).branch
        if 2 * p > n + 1:
            assert b == SUPER
        elif 2 * p == n + 1:
            assert b == CRITICAL
        else:
            assert b == SUB

    def test_super_exponent_vanishes_at_critical(self):
        # the separation power tends to 0 as p decreases to (n+1)/2
        for n in (2, 3, 4):
            p = (n + 1) / 2 + 1e-9
            assert abs(Regime(p, n).super_exponent) < 1e-8

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Regime(1.0, 2)
        with pytest.raises(ValueError):
            Regime(2.0, 1)


class TestBlowupScale:
    def test_super_n2_p2(self):
        assert blowup_scale(1e-4, Regime(2.0, 2)) == pytest.approx(1e-2)

    def test_critical_n3_p2(self):
        assert blowup_scale(math.exp(-10), Regime(2.0, 3)) == pytest.approx(0.1)

    def test_sub_is_one(self):
        for eps in (1e-1, 1e-4, 1e-9):
            assert blowup_scale(eps, Regime(1.3, 2)) == 1.0

    def test_domain(self):
        for bad in (0.0, 1.0, 2.0, -1e-3):
            with pytest.raises(GeometryError):
                blowup_scale(bad, Regime(2.0, 2))


class TestGapConstant:
    def test_n2_p2(self):
        # sqrt(2) Gamma(1) / (sqrt(2 pi) Gamma(1/2)) = 1/pi
        assert gap_constant([[2.0]], Regime(2.0, 2)) == pytest.approx(
            1 / math.pi, rel=1e-13)

    def test_n3_p2_critical(self):
        assert gap_constant(2 * np.eye(2), Regime(2.0, 3)) == pytest.approx(
            1 / math.pi, rel=1e-13)

    def test_n2_p3(self):
        # sqrt(2) Gamma(2) / (sqrt(2 pi) Gamma(3/2)) = 2/pi
        assert gap_constant([[2.0]], Regime(3.0, 2)) == pytest.approx(
            2 / math.pi, rel=1e-13)

    def test_scaling_covariance(self):
        # doubling the gap curvature multiplies the constant by sqrt(2) (n=2)
        r = Regime(2.0, 2)
        assert gap_constant([[2.0]], r) / gap_constant([[1.0]], r) == \
            pytest.approx(math.sqrt(2.0), rel=1e-13)

    def test_sub_branch_unsupported(self):
        with pytest.raises(BranchError):
            gap_constant([[1.0]], Regime(1.3, 2))

    def test_nonpd_hessian_rejected(self):
        with pytest.raises(GeometryError):
            gap_constant([[-1.0]], Regime(2.0, 2))
        with pytest.raises(GeometryError):
            gap_constant([[1.0, 2.0], [2.0, 1.0]], Regime(2.0, 3))
        with pytest.raises(GeometryError):
            gap_constant([[1.0]], Regime(2.0, 3))  # wrong shape


class TestNeckIntegral:
    def test_arctan_closed_form(self):
        # n=2, p=2, H=(2): integral = 2 arctan(radius/sqrt(eps))
        r22 = Regime(2.0, 2)
        for radius, eps in ((0.1, 1e-8), (0.2, 1e-4), (0.05, 1e-6)):
            val = neck_integral(r22, [[2.0]], radius, eps)
            assert val == pytest.approx(2 * math.atan(radius / math.sqrt(eps)),
                                        rel=1e-9)

    def test_spec_point_value(self):
        val = neck_integral(Regime(2.0, 2), [[2.0]], 0.1, 1e-8)
        assert val == pytest.approx(3.1395926542, rel=1e-9)
        assert abs(val - math.pi) / math.pi < 7e-4

    def test_critical_n3_limit_is_pi(self):
        lim = neck_integral_limit(Regime(2.0, 3), 2 * np.eye(2))
        assert lim == pytest.approx(math.pi, rel=1e-3)

    def test_oracle_equivalence_matrix(self):
        # every SUPER/CRITICAL fixture with n in {2,3,4}, p in {2,3,(n+1)/2}
        for n in (2, 3, 4):
            for p in (2.0, 3.0, (n + 1) / 2):
                reg = Regime(p, n)
                if reg.branch == SUB:
                    continue
                H = 2 * np.eye(n - 1)
                lim = neck_integral_limit(reg, H)
                K = gap_constant(H, reg)
                assert abs(lim * K - 1.0) <= 1e-2, (n, p)

    def test_anisotropic_hessian(self):
        # closed form for H = diag(2, 8): angular average still exact
        reg = Regime(3.0, 3)  # SUPER for n=3
        H = np.diag([2.0, 8.0])
        lim = neck_integral_limit(reg, H)
        assert lim * gap_constant(H, reg) == pytest.approx(1.0, rel=1e-4)

    def test_domain_errors(self):
        with pytest.raises(BranchError):
            neck_integral(Regime(1.3, 2), [[1.0]], 0.1, 1e-6)
        with pytest.raises(GeometryError):
            neck_integral(Regime(2.0, 2), [[1.0]], -0.1, 1e-6)


class TestPredictExpansion:
    def test_zero_flux_flagged(self):
        pred = predict_expansion(0.0, Regime(2.0, 2), 1e-4, [[1.0]])
        assert pred.zero_leading
        assert pred.leading_coeff == 0.0

    def test_super_composition(self):
        pred = predict_expansion(1.0, Regime(2.0, 2), 1e-4, [[2.0]])
        assert pred.predicted_dn(1e-4) == pytest.approx(100.0 / math.pi,
                                                        rel=1e-12)

    def test_sub_formula(self):
        pred = predict_expansion(0.3, Regime(1.3, 2), 1e-4)
        assert pred.predicted_dn(0.01) == pytest.approx(30.0)

    def test_sign_convention(self):
        pred = predict_expansion(-2.0, Regime(2.0, 2), 1e-4, [[1.0]])
        assert pred.leading_coeff < 0

    @settings(max_examples=40, deadline=None)
    @given(f1=st.floats(0.0, 50.0), df=st.floats(0.0, 50.0),
           p=st.floats(1.51, 4.0))
    def test_monotone_in_flux(self, f1, df, p):
        reg = Regime(p, 2)
        a = predict_expansion(f1, reg, 1e-4, [[1.0]]).leading_coeff
        b = predict_expansion(f1 + df, reg, 1e-4, [[1.0]]).leading_coeff
        assert b >= a - 1e-12


class TestUGapFit:
    def test_exact_model_recovered(self):
        reg = Regime(2.0, 2)
        c = 3.7
        rows = [(e, c * blowup_scale(e, reg)) for e in (1e-3, 1e-4, 1e-5)]
        fit = fit_ugap_limit(rows, reg, [[1.0]])
        assert fit.limit == pytest.approx(c, rel=1e-12)
        K = gap_constant([[1.0]], reg)
        assert fit.flux_implied == pytest.approx(c / K, rel=1e-12)
        assert fit.extrapolated

    def test_slow_correction_extrapolates(self):
        reg = Regime(2.0, 2)
        c = 2.0
        rows = [(e, c * blowup_scale(e, reg) * (1 + e**0.2))
                for e in (1e-3, 1e-4, 1e-5)]
        fit = fit_ugap_limit(rows, reg, [[1.0]])
        assert fit.limit == pytest.approx(c, rel=1e-2)

    def test_non_monotone_warns(self, caplog):
        reg = Regime(2.0, 2)
        rows = [(e, g * blowup_scale(e, reg))
                for e, g in [(1e-3, 3.0), (1e-4, 1.0), (1e-5, 2.0)]]
        with caplog.at_level(logging.WARNING, logger="neckflow"):
            fit = fit_ugap_limit(rows, reg, [[1.0]])
        assert not fit.extrapolated
        assert fit.warning != ""
        assert [r.getMessage() for r in caplog.records] == \
            [f"fit_ugap_limit: {fit.warning}"]

    def test_sub_branch_limit_of_the_gap(self):
        reg = Regime(1.3, 2)
        gaps = [2.0 + e**0.5 for e in (1e-2, 1e-3, 1e-4)]
        fit = fit_ugap_limit(zip((1e-2, 1e-3, 1e-4), gaps), reg, [[1.0]])
        assert fit.limit == _aitken(gaps)
        assert fit.limit == pytest.approx(2.0, abs=2e-3)
        assert fit.ratios == tuple(gaps)
        assert math.isnan(fit.flux_implied)
        assert fit.extrapolated and fit.warning == ""

    def test_sub_branch_non_monotone_warns(self, caplog):
        rows = [(1e-2, 3.0), (1e-3, 1.0), (1e-4, 2.0)]
        with caplog.at_level(logging.WARNING, logger="neckflow"):
            fit = fit_ugap_limit(rows, Regime(1.3, 2), [[1.0]])
        assert not fit.extrapolated and fit.limit == 2.0
        assert math.isnan(fit.flux_implied)
        assert [r.getMessage() for r in caplog.records] == \
            [f"fit_ugap_limit: {fit.warning}"]

    def test_input_validation(self):
        reg = Regime(2.0, 2)
        with pytest.raises(FitError):
            fit_ugap_limit([(1e-3, 1.0), (1e-4, 0.9)], reg, [[1.0]])
        with pytest.raises(FitError):
            fit_ugap_limit([(1e-3, 1.0), (1e-3, 0.9), (1e-4, 0.8)], reg,
                           [[1.0]])


class TestFluxExtrapolation:
    def test_exact_exponential_model(self):
        for F, A, B in ((2.0, 1.0, 5.0), (25.6, -12.9, 0.56)):
            radii = (0.5, 0.3, 0.2, 0.1)
            fx = extrapolate_flux([(r, F + A * math.exp(-B / r))
                                   for r in radii])
            assert not fx.fallback
            assert (fx.value, fx.amplitude, fx.rate) == \
                pytest.approx((F, A, B), rel=1e-8)

    @pytest.mark.parametrize("eps, s0, c, q", [
        ((1e-2, 3e-3, 1e-3, 3e-4, 1e-4), 4.0, 3.0, 0.4),
        ((1e-2, 3e-3, 1e-3), -1.0, 2.0, 1.5),     # q at its upper bound
    ])
    def test_exact_power_model(self, eps, s0, c, q):
        x = np.array(eps)
        *got, at_end = _separable_fit(x, s0 + c * x**q, np.power, 0.1, 1.5,
                                      log=False)
        assert got == pytest.approx((s0, c, q), rel=1e-8)
        assert at_end == (q == 1.5)

    def test_fallback_on_insufficient_rows(self):
        fx = extrapolate_flux([(0.2, 1.0), (0.1, 0.8)])
        assert fx.fallback
        assert fx.value == 0.8

    def test_fallback_when_no_fit_is_adequate(self):
        # alternating in r: every F_inf + A exp(-B/r) is monotone in r and
        # misses some row by more than 0.2 of the largest |flux|
        rows = [(0.5, 1.0), (0.4, -1.0), (0.3, 1.0), (0.2, -1.0), (0.1, 1.0)]
        fx = extrapolate_flux(rows)
        assert fx.fallback
        assert (fx.value, fx.amplitude, fx.rate) == (1.0, 0.0, 0.0)
        assert extrapolate_flux([(0.5, 2.1), (0.3, math.nan),
                                 (0.2, 2.0)]).fallback

    def test_three_rows_fit_exactly(self):
        rows = [(0.5, 2.1), (0.3, 2.05), (0.2, 2.0)]
        fx = extrapolate_flux(rows)
        assert not fx.fallback and 1e-6 < fx.rate < 1e3
        for r, f in rows:
            assert fx.value + fx.amplitude * math.exp(-fx.rate / r) == \
                pytest.approx(f, rel=1e-10)

    def test_leave_one_out_range(self):
        # each refit drops one radius; dropping the perturbed row recovers
        # the exact model, and three rows give no range
        F, A, B = 25.6, -12.9, 0.56
        rows = [(r, F + A * math.exp(-B / r)) for r in (0.5, 0.3, 0.2, 0.1)]
        assert extrapolate_flux(rows).loo_range == pytest.approx((F, F),
                                                                 rel=1e-8)
        rows[1] = (0.3, rows[1][1] + 0.05)
        refits = [extrapolate_flux(rows[:i] + rows[i + 1:]) for i in range(4)]
        assert all(f.loo_range is None and not f.fallback for f in refits)
        values = [f.value for f in refits]
        assert extrapolate_flux(rows).loo_range == (min(values), max(values))
        assert values[1] == pytest.approx(F, rel=1e-8)
        assert max(values) - min(values) > 1e-3
        # refits that fall back are left out, and with them all, the range
        alternating = [(0.5, 1.0), (0.4, -1.0), (0.3, 1.0), (0.2, -1.0),
                       (0.1, 1.0)]
        assert extrapolate_flux(alternating).loo_range is None

    def test_rate_at_its_range_end_is_no_fit(self):
        # p=2 window fluxes of a two-row canonical sweep: without r=0.2 the
        # increments grow as r shrinks, B sits at its 1e-6 floor and F_inf
        # and A trade off without bound (F_inf 1.5e6 before such a refit
        # fell back)
        rows = [(0.4, 22.4172), (0.3, 23.4686), (0.25, 24.7084),
                (0.2, 24.8785)]
        *_, at_end = _separable_fit(np.array([0.4, 0.3, 0.25]),
                                    np.array([22.4172, 23.4686, 24.7084]),
                                    lambda rr, bb: np.exp(-bb / rr),
                                    1e-6, 1e3, log=True)
        assert at_end
        assert extrapolate_flux(rows[:3]).fallback
        fx = extrapolate_flux(rows)
        assert not fx.fallback and 1e-6 < fx.rate < 1e3
        refits = [extrapolate_flux(rows[:i] + rows[i + 1:]) for i in range(3)]
        assert not any(f.fallback for f in refits)
        values = [f.value for f in refits]
        assert fx.loo_range == (min(values), max(values))
        assert 24 < fx.loo_range[0] < fx.loo_range[1] < 27

    def test_window_row_extrapolation(self):
        # synthetic table S(r, eps) = (F + A e^(-B/r)) (1 + c eps^0.4)
        F, Aa, B, c = 4.0, -1.5, 2.0, 3.0
        radii = (0.4, 0.3, 0.2, 0.15)
        eps_list = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
        tables = {e: {r: (F + Aa * math.exp(-B / r)) * (1 + c * e**0.4)
                      for r in radii} for e in eps_list}
        rows = extrapolated_window_rows(tables, Regime(2.0, 2))
        assert len(rows) >= 3
        fx = extrapolate_flux(rows)
        assert fx.value == pytest.approx(F, rel=0.05)

    def test_window_rows_sub_branch_uses_raw(self):
        eps_list = (1e-3, 1e-4)
        tables = {e: {0.4: 1.0 + e, 0.3: 0.9 + e} for e in eps_list}
        rows = extrapolated_window_rows(tables, Regime(1.3, 2))
        assert rows == [(0.4, 1.0 + 1e-4), (0.3, 0.9 + 1e-4)]

    def test_window_rows_per_radius(self):
        # eps <= r^2 / 25 qualifies: 4, 4, 3 and 2 separations for the radii
        radii = (0.4, 0.3, 0.2, 0.1)
        eps_list = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
        tables = {e: {r: r * (1 + e**0.4) for r in radii} for e in eps_list}
        rows = extrapolated_window_rows(tables, Regime(2.0, 2))
        # too few qualifying separations: radius 0.1 is dropped
        assert [r for r, _ in rows] == list(radii[:3])
        assert [s for _, s in rows] == pytest.approx(radii[:3], rel=1e-8)
        # raw rows on the SUB branch are not fits and need no minimum count
        rows = extrapolated_window_rows(tables, Regime(1.3, 2))
        assert rows == [(r, r * (1 + 1e-4**0.4)) for r in radii]


class TestLowerBoundRegion:
    def test_super(self):
        assert lower_bound_region(Regime(2.0, 2), math.exp(-10)) == \
            pytest.approx(0.1)

    def test_critical(self):
        val5 = lower_bound_region(Regime(2.0, 3), math.exp(-math.exp(5)))
        assert val5 == pytest.approx(0.02)

    def test_sub_constant(self):
        for eps in (0.5, 1e-2, 1e-6):
            assert lower_bound_region(Regime(1.3, 2), eps) == 0.1

    def test_domain_errors(self):
        with pytest.raises(GeometryError):
            lower_bound_region(Regime(2.0, 2), 1.5)
        with pytest.raises(GeometryError):
            lower_bound_region(Regime(2.0, 3), 0.5)  # too large for log-log
