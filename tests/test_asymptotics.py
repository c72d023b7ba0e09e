"""Regime estimators, Laplace-exponent diagnostics, and the uniform bound."""

import math

import numpy as np
import pytest

from latgreen import (
    DomainError,
    GreenParams,
    REGIME_I,
    REGIME_II,
    REGIME_III,
    REGIME_IV,
    a_norm,
    critical_estimate,
    gbar_curve,
    gbar_d2,
    green_bessel,
    green_d1_closed,
    log_scaled_bessel_i,
    mass,
    norm_context,
    oz_constant,
    oz_estimate,
    oz_isotropic_estimate,
    oz_limit_constant,
    uniform_bound_check,
    uniform_bound_rhs,
)


class TestOzConstant:
    def test_limit_values(self):
        assert oz_limit_constant(3, 1.0) == pytest.approx(
            3.0 / (2.0 * math.pi), rel=1e-14
        )
        assert oz_limit_constant(1, 1.0) == 1.0

    def test_requires_unit_direction(self):
        with pytest.raises(DomainError):
            oz_constant(2, 1.0, 0.5, [1.0, 1.0])

    def test_small_killing_limit(self):
        d, q = 3, 1.0
        c0 = oz_limit_constant(d, q)
        grid = np.geomspace(1e-3, 1e-1, 9)
        devs = []
        for a in grid:
            x = np.array([1.0, 1.0, 0.5])
            x_hat = x / a_norm(x, d, a)
            devs.append(abs(oz_constant(d, q, a, x_hat) / c0 - 1.0))
        # quadratic approach, coefficient ~0.74 for this direction (frozen)
        assert np.all(np.array(devs) <= 1.0 * grid**2)
        slope = np.polyfit(np.log(grid), np.log(devs), 1)[0]
        assert abs(slope - 2.0) < 0.1

    def test_direction_dependence_vanishes_with_killing(self):
        # constants for different directions share the same limit
        d, q = 3, 1.0
        gaps = []
        for a in (0.3, 0.03, 0.003):
            cs = []
            for x in (np.array([1.0, 0, 0]), np.array([1.0, 1.0, 1.0])):
                x_hat = x / a_norm(x, d, a)
                cs.append(oz_constant(d, q, a, x_hat))
            gaps.append(abs(cs[0] / cs[1] - 1.0))
        assert gaps[-1] < 1e-4
        assert gaps == sorted(gaps, reverse=True)


class TestRegimeI:
    def test_d1_unit_exponent_is_exact(self):
        # in one dimension with unit exponent the amplitude algebra
        # collapses so the estimate reproduces the closed form identically
        p = GreenParams(1, 0.7, 1.0)
        for n in (1, 5, 40):
            est = oz_estimate(p, [1], n)
            exact = green_d1_closed(0.7, 1, n)
            assert math.exp(exact.log_value - est.log_value) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_factored_fields_consistent(self):
        p = GreenParams(3, 0.5, 1.0)
        est = oz_estimate(p, [1, 0, 0], 7)
        assert est.regime == REGIME_I
        assert est.exp_exponent == pytest.approx(
            -mass(3, 0.5) * 7.0 * 1.0, rel=1e-12
        )
        assert est.value == pytest.approx(
            est.amplitude * est.power_factor * math.exp(est.exp_exponent),
            rel=1e-12,
        )

    def test_calibrated_convergence_point(self):
        # frozen calibration: ratio 1.0129 at n = 30 for this geometry
        p = GreenParams(3, 0.5, 1.0)
        gb = green_bessel(p, [30, 0, 0])
        est = oz_estimate(p, [1, 0, 0], 30)
        assert math.exp(gb.log_value - est.log_value) == pytest.approx(
            1.0, abs=0.02
        )

    def test_convergence_trend_over_grid(self):
        # error decays like 1/n; final n chosen per dimension so the worst
        # combination lands within 2%
        final_n = {1: 256, 2: 64, 3: 64}
        for d in (1, 2, 3):
            for q in (1.0, 2.0):
                for a in (0.3, 1.0):
                    p = GreenParams(d, a, q)
                    x = [1] * d
                    errs = []
                    n = 4
                    while n <= final_n[d]:
                        gb = green_bessel(p, [n] * d)
                        est = oz_estimate(p, x, n)
                        errs.append(abs(math.exp(gb.log_value - est.log_value) - 1.0))
                        n *= 2
                    assert errs[-1] < 0.02, (d, q, a, errs)
                    for e0, e1 in zip(errs, errs[1:]):
                        assert e1 <= e0 * 1.05 + 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            oz_estimate(GreenParams(2, 0.0, 1.0), [1, 0], 4)
        with pytest.raises(DomainError):
            oz_estimate(GreenParams(2, 0.5, 1.0), [0, 0], 4)


class TestRegimeII:
    def test_tracks_regime_one_when_killing_vanishes(self):
        # a_n = n^{-1/2} keeps a^3 n -> 0; frozen point: 0.23% at n = 1e4
        d, q, x = 2, 1.0, [1, 1]
        for n, tol in ((10**3, 0.01), (10**4, 0.01)):
            a = n ** -0.5
            p = GreenParams(d, a, q)
            e_aniso = oz_estimate(p, x, n)
            e_iso = oz_isotropic_estimate(p, x, n)
            assert math.exp(e_iso.log_value - e_aniso.log_value) == pytest.approx(
                1.0, abs=tol
            ), n

    def test_exponent_gap_at_fixed_killing(self):
        # per unit distance the exponents differ by a bounded amount, so the
        # two estimates cannot track each other when the killing is fixed
        a = 0.5
        for d, x in ((2, (1, 1)), (3, (1, 1, 1)), (3, (2, 1, 0))):
            m = mass(d, a)
            nrm = a_norm(np.asarray(x, float), d, a)
            gap = m * nrm - math.sqrt(2.0 * d) * a * np.linalg.norm(x)
            assert abs(gap) > 0.02

    def test_one_dimensional_isotropic_tracking(self):
        # frozen calibration: the neglected a^2-order exponent error gives
        # ratio 1.0292 here (a^3 n = 0.25 is not yet deep in the regime)
        est = oz_isotropic_estimate(GreenParams(1, 0.05, 1.0), [1], 2000)
        exact = green_d1_closed(0.05, 1, 2000)
        ratio = math.exp(exact.log_value - est.log_value)
        assert ratio == pytest.approx(1.0, abs=0.035)
        assert est.regime == REGIME_II


class TestCriticalRegime:
    @pytest.mark.parametrize(
        "d,q,s", [(3, 1.0, 0.0), (3, 1.0, 1.0), (1, 1.0, 1.0), (5, 2.0, 0.0)]
    )
    def test_calibrated_convergence(self, d, q, s):
        n = 50
        x = [1] + [0] * (d - 1)
        p = GreenParams(d, s / n, q)
        gb = green_bessel(p, [n] + [0] * (d - 1))
        est = critical_estimate(p, x, n, s)
        assert math.exp(gb.log_value - est.log_value) == pytest.approx(1.0, abs=0.01)
        assert est.regime == (REGIME_III if s > 0 else REGIME_IV)

    def test_d1_exact_target(self):
        # the exact closed form approaches n exp(-sqrt(2))/sqrt(2)
        n = 200
        lhs = green_d1_closed(1.0 / n, 1, n).value / n
        assert lhs == pytest.approx(
            math.exp(-math.sqrt(2.0)) / math.sqrt(2.0), rel=1e-3
        )

    def test_small_mass_continuity(self):
        # frozen calibration: 2.4% at s = 0.01 (the decay factor
        # exp(-sqrt(6) s |x|) is already visible at unit distance)
        e0 = critical_estimate(GreenParams(3, 0.0, 1.0), [1, 0, 0], 10, 0.0)
        e1 = critical_estimate(GreenParams(3, 0.001, 1.0), [1, 0, 0], 10, 0.01)
        assert e1.value / e0.value == pytest.approx(1.0, abs=0.03)

    def test_divergent_massless_case(self):
        with pytest.raises(DomainError):
            critical_estimate(GreenParams(1, 0.0, 1.0), [1], 10, 0.0)


class TestGbarDiagnostics:
    def test_minimum_value_is_mass_times_norm(self):
        for d, a, x in ((1, 1.0, [1.0]), (2, 0.4, [2.0, 1.0]), (3, 2.0, [1, 1, 1])):
            ctx = norm_context(np.asarray(x, float), d, a)
            rows = gbar_curve(d, a, x, [1.0])
            assert rows[0].gbar == pytest.approx(
                ctx.m_a * ctx.norm, rel=1e-12, abs=1e-12
            )

    def test_one_dimensional_minimum(self):
        rows = gbar_curve(1, 1.0, [1.0], [1.0])
        assert rows[0].gbar == pytest.approx(math.acosh(2.0), rel=1e-12)

    def test_minimum_near_one_and_convex(self):
        y = np.linspace(0.4, 2.5, 43)
        for a, x in ((0.25, [1.0]), (1.0, [2.0, 1.0])):
            d = len(x)
            rows = gbar_curve(d, a, x, y)
            vals = np.array([r.gbar for r in rows])
            assert abs(y[np.argmin(vals)] - 1.0) <= (y[1] - y[0]) / 2 + 1e-12
            assert np.all(np.diff(vals, 2) >= -1e-10)

    def test_scaling_in_distance(self):
        # gbar for x equals |x|_a times gbar for the normalized direction
        d, a = 2, 0.7
        x = np.array([3.0, 1.0])
        nrm = a_norm(x, d, a)
        y = [0.6, 1.0, 1.7]
        rows_x = gbar_curve(d, a, x, y)
        rows_hat = gbar_curve(d, a, x / nrm, y)
        for rx, rh in zip(rows_x, rows_hat):
            assert rx.gbar == pytest.approx(nrm * rh.gbar, rel=1e-10)

    @pytest.mark.parametrize("y", [0.6, 1.0, 1.9])
    def test_analytic_derivatives_match_differences(self, y):
        d, a, x = 2, 0.8, [2.0, 1.0]

        def g(yy):
            return gbar_curve(d, a, x, [yy])[0].gbar

        h = 1e-2 * y
        f = [g(y + k * h) for k in range(-3, 4)]
        d2 = (-f[5] + 16 * f[4] - 30 * f[3] + 16 * f[2] - f[1]) / (12 * h**2)
        assert gbar_d2(d, a, x, y) == pytest.approx(d2, rel=1e-6)
        d3 = (f[0] - 8 * f[1] + 13 * f[2] - 13 * f[4] + 8 * f[5] - f[6]) / (
            8 * h**3
        )
        # closed form of the third derivative
        ctx = norm_context(np.asarray(x), d, a)
        xh2, u2 = ctx.x_hat ** 2, ctx.u_hat ** 2
        num = 3.0 * xh2 * y ** -4.0 + 2.0 * u2 * xh2 ** 2 * y ** -6.0
        want3 = -ctx.norm * ctx.u_hat * np.sum(num / (1.0 + u2 * xh2 * y ** -2.0) ** 1.5)
        assert want3 == pytest.approx(d3, rel=1e-6)

    def test_curvature_scales_linearly_in_killing(self):
        x = np.array([2.0, 1.0, 1.0])
        grid = np.geomspace(1e-3, 1e-1, 9)
        vals = []
        for a in grid:
            x_hat = x / a_norm(x, 3, a)
            vals.append(gbar_d2(3, a, x_hat, 1.0))
        slope = np.polyfit(np.log(grid), np.log(vals), 1)[0]
        assert abs(slope - 1.0) < 0.1

    def test_prefactor_with_flat_coordinates(self):
        # x with zeros exercises the flat-direction factor y^(-1/2), the
        # large-n limit of sqrt(2 pi n / u) ibar(0, n y / u); the pre-limit
        # form at n = 4000 is within 1% of it
        d, a, x, n = 3, 0.6, [2.0, 1.0, 0.0], 4000
        ctx = norm_context(np.asarray(x), d, a)
        for row in gbar_curve(d, a, x, [0.8, 1.0, 1.3]):
            log_pre = (
                0.5 * math.log(2.0 * math.pi * n / ctx.u)
                + log_scaled_bessel_i(0, n * row.y / ctx.u)
                - 0.25 * np.sum(np.log(row.y ** 2 + ctx.u_hat ** 2 * ctx.x_hat[:2] ** 2))
            )
            assert math.exp(log_pre) == pytest.approx(row.hbar, rel=1e-2)

    def test_domain(self):
        with pytest.raises(DomainError):
            gbar_curve(2, 1.0, [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(DomainError):
            gbar_curve(2, 1.0, [0.0, 0.0], [1.0])


class TestUniformBound:
    def test_rhs_at_zero_killing_is_power_law(self):
        got = uniform_bound_rhs(3, 1, 0.0, [3, 4, 0], 0.6, 0.5)
        assert got == pytest.approx(0.6 / 5.0, rel=1e-13)

    def test_bound_holds_with_frozen_constants(self):
        # frozen fit: kappa1 = 0.6 at kappa = 0.5 (measured headroom 0.86)
        report = uniform_bound_check(3, 1, 0.5, 0.6, [0.0, 0.25, 1.0], 4)
        assert report.holds
        assert report.worst_ratio < 1.0

    def test_bound_falsifiable(self):
        report = uniform_bound_check(3, 1, 0.5, 0.01, [0.25], 2)
        assert not report.holds
        assert report.worst_ratio > 1.0

    def test_higher_exponent_power(self):
        # d = 5, q = 2 gives power d - 2q = 1 (frozen fit headroom at 0.9)
        got = uniform_bound_rhs(5, 2, 0.0, [2, 0, 0, 0, 0], 0.9, 0.5)
        assert got == pytest.approx(0.45, rel=1e-13)
        report = uniform_bound_check(5, 2, 0.5, 0.9, [0.0, 0.25, 1.0], 2)
        assert report.holds

    def test_tight_exponent_fails_with_small_amplitude(self):
        # pushing kappa toward 1 with a small amplitude must break: the
        # bound's power law differs from the anisotropic-regime power law
        report = uniform_bound_check(3, 1, 0.999, 0.35, [1.0], 3)
        assert not report.holds

    def test_domain(self):
        for kappa in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                uniform_bound_rhs(3, 1, 0.5, [1, 0, 0], 0.6, kappa)
        with pytest.raises(DomainError):
            uniform_bound_rhs(2, 1, 0.5, [1, 0], 0.6, 0.5)
        with pytest.raises(DomainError):
            uniform_bound_rhs(3, 1, 0.5, [0, 0, 0], 0.6, 0.5)


class TestNoUniformOzBound:
    def test_witness_ratio_diverges(self):
        # for d = 1, q = 2 the anisotropic-regime shape underestimates the
        # true value by an unbounded factor as the killing vanishes
        x = 1
        ratios = []
        for a in (1.0, 0.3, 0.1, 0.03, 0.01, 1e-3):
            m = mass(1, a)
            shape = abs(x) * math.exp(-m * abs(x)) / math.sinh(m) ** 2
            ratios.append(green_d1_closed(a, 2, x).value / shape)
        assert max(ratios) > 10.0
        assert ratios == sorted(ratios)

