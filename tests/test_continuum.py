"""Continuum Green functions and route equivalence."""

import math

import numpy as np
import pytest

from latgreen import (
    ContinuumParams,
    DivergenceError,
    DomainError,
    green_continuum,
    green_continuum_time_integral,
    log_green_continuum,
)


def random_rotation(rng, d):
    m = rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


class TestGreenContinuum:
    def test_massless_d3_coefficient(self):
        got = green_continuum(ContinuumParams(3, 1.0, 0.0), [1.0, 0.0, 0.0])
        assert got == pytest.approx(3.0 / (2.0 * math.pi), rel=1e-12)

    def test_massive_d1_closed_form(self):
        # half-order Bessel-K collapses: G_s(x) = exp(-sqrt(2) s |x|)/(sqrt(2) s)
        for s in (0.5, 1.0, 2.0):
            for r in (0.25, 1.0, 3.0):
                got = green_continuum(ContinuumParams(1, 1.0, s), [r])
                want = math.exp(-math.sqrt(2.0) * s * r) / (math.sqrt(2.0) * s)
                assert got == pytest.approx(want, rel=1e-11)
        assert green_continuum(ContinuumParams(1, 1.0, 1.0), [1.0]) == pytest.approx(
            0.1719094915, rel=1e-9
        )

    def test_scaling_relation(self):
        rng = np.random.default_rng(8)
        for d, q in ((1, 1.0), (2, 0.5), (3, 1.0), (3, 2.0)):
            x = rng.normal(size=d)
            base = green_continuum(ContinuumParams(d, q, 1.0), x)
            for s in (0.5, 2.0):
                lhs = green_continuum(ContinuumParams(d, q, s), x)
                rhs = s ** (d - 2.0 * q) * green_continuum(
                    ContinuumParams(d, q, 1.0), s * x
                )
                assert lhs == pytest.approx(rhs, rel=1e-12)
        assert base > 0.0

    def test_rotational_invariance(self):
        rng = np.random.default_rng(12)
        x = np.array([1.2, -0.4, 0.9])
        p = ContinuumParams(3, 1.0, 0.7)
        base = green_continuum(p, x)
        for _ in range(5):
            r = random_rotation(rng, 3)
            assert green_continuum(p, r @ x) == pytest.approx(base, rel=1e-12)

    def test_massless_limit_continuity(self):
        p0 = ContinuumParams(3, 1.0, 0.0)
        want = green_continuum(p0, [1.0, 0.0, 0.0])
        got = green_continuum(ContinuumParams(3, 1.0, 1e-5), [1.0, 0.0, 0.0])
        assert got == pytest.approx(want, rel=1e-4)

    def test_short_distance_power(self):
        # G_s |x|^(d-2q) approaches the massless coefficient as |x| -> 0
        coeff = green_continuum(ContinuumParams(3, 1.0, 0.0), [1.0, 0.0, 0.0])
        r = 1e-4
        got = green_continuum(ContinuumParams(3, 1.0, 1.0), [r, 0.0, 0.0]) * r
        assert got == pytest.approx(coeff, rel=1e-3)

    def test_long_distance_log_growth(self):
        s, d, q = 1.0, 3, 1.0
        drift = []
        for r in (10.0, 100.0):
            lg = log_green_continuum(ContinuumParams(d, q, s), [r, 0.0, 0.0])
            drift.append(lg + math.sqrt(2.0 * d) * s * r)
        assert abs(drift[1] - drift[0]) <= 3.0 * math.log(10.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            green_continuum(ContinuumParams(3, 1.0, 1.0), [0.0, 0.0, 0.0])
        with pytest.raises(DivergenceError):
            green_continuum(ContinuumParams(2, 1.0, 0.0), [1.0, 0.0])


class TestRouteEquivalence:
    def test_massless_d3_value(self):
        got = green_continuum_time_integral(
            ContinuumParams(3, 1.0, 0.0), [2.0, 0.0, 0.0]
        )
        assert got == pytest.approx(3.0 / (4.0 * math.pi), rel=1e-10)

    def test_fractional_exponent(self):
        p = ContinuumParams(2, 0.5, 1.0)
        a = green_continuum(p, [1.0, 0.0])
        b = green_continuum_time_integral(p, [1.0, 0.0])
        assert b == pytest.approx(a, rel=1e-9)

    def test_d1_value(self):
        got = green_continuum_time_integral(ContinuumParams(1, 1.0, 1.0), [1.0])
        assert got == pytest.approx(0.171909491538, rel=1e-9)

    def test_grid(self):
        for d in (1, 2, 3):
            for q in (0.5, 1.0, 2.0):
                for s in (0.0, 0.5, 2.0):
                    if s == 0.0 and d <= 2.0 * q:
                        continue
                    p = ContinuumParams(d, q, s)
                    for r in (0.5, 1.0, 5.0):
                        x = np.zeros(d)
                        x[0] = r
                        a = green_continuum(p, x)
                        b = green_continuum_time_integral(p, x)
                        assert b == pytest.approx(a, rel=1e-9), (d, q, s, r)
