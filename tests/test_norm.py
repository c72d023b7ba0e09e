"""Mass, implicit scale, anisotropic norm, and unit-ball geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgreen import (
    DomainError,
    a_norm,
    a_norm_batch,
    mass,
    norm_context,
    u_scale,
    u_scale_batch,
    unit_ball_boundary,
    unit_ball_rows,
)


class TestMass:
    def test_zero_killing(self):
        for d in (1, 2, 3, 7):
            assert mass(d, 0.0) == 0.0

    def test_closed_form_values(self):
        assert mass(1, 1.0) == pytest.approx(math.log(2.0 + math.sqrt(3.0)), rel=1e-14)
        assert mass(3, 0.5) == pytest.approx(math.acosh(1.75), rel=1e-14)

    def test_defining_identity(self):
        for d in (1, 2, 3):
            for a in (1e-8, 1e-3, 0.3, 1.0, 10.0, 1e3):
                assert math.cosh(mass(d, a)) == pytest.approx(
                    1.0 + d * a * a, rel=1e-13
                )

    def test_strictly_increasing(self):
        grid = np.geomspace(1e-4, 1e3, 40)
        vals = [mass(3, a) for a in grid]
        assert np.all(np.diff(vals) > 0.0)

    def test_small_killing_rate(self):
        for d in (1, 2, 3):
            a = 1e-6
            assert mass(d, a) / (math.sqrt(2.0 * d) * a) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            mass(2, -0.1)
        with pytest.raises(DomainError):
            mass(0, 1.0)

    @pytest.mark.parametrize("d, a", [(3, 1e300), (3, 1e154), (1, 1e150)])
    def test_overflowing_killing(self, d, a):
        # d a^2 (or d a^2 (2 + d a^2)) overflows; the mass would read inf
        with pytest.raises(DomainError, match="too large"):
            mass(d, a)


class TestUScale:
    def test_unit_vectors_hit_sinh_mass(self):
        for d in (1, 2, 3):
            for a in (0.1, 1.0, 10.0):
                e = np.zeros(d)
                e[d - 1] = 1.0
                assert u_scale(e, d, a) == pytest.approx(
                    math.sinh(mass(d, a)), rel=1e-13
                )

    def test_closed_form_examples(self):
        assert u_scale([1.0], 1, 1.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)
        # equal coordinates collapse the implicit equation
        assert u_scale([1.0, 1.0], 2, 0.5) == pytest.approx(0.75, rel=1e-14)

    def test_residual_of_defining_equation(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            pts = rng.uniform(-10, 10, size=(200, d))
            pts = pts[np.any(pts != 0.0, axis=1)]
            for a in (1e-3, 0.5, 7.0):
                from latgreen import u_scale_batch

                u = u_scale_batch(pts, d, a)
                lhs = np.mean(np.sqrt(1.0 + pts**2 * u[:, None] ** 2), axis=1)
                assert np.max(np.abs(lhs - (1.0 + a * a)) / (1.0 + a * a)) < 1e-13

    def test_within_ulps_of_multiprecision_root(self):
        # the per-row rescaling must not cost ordinary points accuracy
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = np.random.default_rng(7)
        for d in (1, 2, 3):
            pts = rng.integers(-30, 31, size=(12, d)).astype(float)
            pts = pts[np.any(pts != 0.0, axis=1)]
            for a in (0.05, 0.5, 7.0):
                for x, u in zip(pts, u_scale_batch(pts, d, a)):
                    target = 1 + mp.mpf(a) ** 2
                    ref = float(mp.findroot(
                        lambda v: sum(mp.sqrt(1 + mp.mpf(xi) ** 2 * v**2) for xi in x) / d
                        - target,
                        mp.mpf(u),
                    ))
                    assert abs(u - ref) <= 2 * np.spacing(ref), (d, a, x)

    @given(
        lam=st.floats(min_value=1e-3, max_value=1e3),
        a=st.floats(min_value=1e-2, max_value=1e2),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling(self, lam, a):
        x = np.array([1.3, -0.4, 2.0])
        assert u_scale(lam * x, 3, a) == pytest.approx(
            u_scale(x, 3, a) / lam, rel=1e-11
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            u_scale([0.0, 0.0], 2, 1.0)
        with pytest.raises(DomainError):
            u_scale([1.0, 0.0], 2, 0.0)
        with pytest.raises(DomainError):
            u_scale([1.0, 0.0], 2, -1.0)

    @pytest.mark.parametrize("point", [[1e200, 1.0, 0.0], [1e-200, 0.0, 0.0]])
    def test_extreme_point_is_homogeneous(self, point):
        # x_i^2 u^2 of the raw coordinates overflows or underflows; the
        # solve works on the row scaled to a largest coordinate of 1
        x = np.array(point)
        s = x.max()
        u = u_scale_batch(np.array([point]), 3, 0.5)[0]
        assert np.isfinite(u) and u > 0.0
        assert u * s == pytest.approx(u_scale(x / s, 3, 0.5), rel=1e-15)
        assert np.isfinite(a_norm(x, 3, 0.5))

    def test_huge_killing(self):
        # stays finite and accurate far into the l1 regime
        u = u_scale([3.0, 4.0], 2, 1e12)
        lhs = 0.5 * (math.sqrt(1 + 9 * u * u) + math.sqrt(1 + 16 * u * u))
        assert lhs == pytest.approx(1.0 + 1e24, rel=1e-13)


class TestANorm:
    def test_zero_vector(self):
        assert a_norm([0.0, 0.0], 2, 1.0) == 0.0

    def test_unit_vectors(self):
        for d in (1, 2, 3):
            for a in (0.1, 1.0, 10.0):
                for j in range(d):
                    e = np.zeros(d)
                    e[j] = 1.0
                    assert abs(a_norm(e, d, a) - 1.0) < 1e-12

    def test_euclidean_limit(self):
        assert a_norm([3.0, 4.0], 2, 0.01) == pytest.approx(5.0, abs=1e-3)

    def test_l1_limit(self):
        # convergence toward the l1 norm is logarithmic in a; the frozen
        # value at a = 100 sits 6.4% below |x|_1 and a = 1e15 is within 1%
        assert a_norm([3.0, 4.0], 2, 100.0) == pytest.approx(
            6.548914882920477, rel=1e-12
        )
        assert a_norm([3.0, 4.0], 2, 1e15) == pytest.approx(7.0, rel=1e-2)

    @given(
        lam=st.floats(min_value=-100.0, max_value=100.0).filter(
            lambda v: abs(v) > 1e-3
        ),
        a=st.floats(min_value=1e-2, max_value=1e2),
    )
    @settings(max_examples=40, deadline=None)
    def test_homogeneous(self, lam, a):
        x = np.array([0.7, -2.1, 1.1])
        assert a_norm(lam * x, 3, a) == pytest.approx(
            abs(lam) * a_norm(x, 3, a), rel=1e-11
        )

    @given(a=st.floats(min_value=1e-2, max_value=1e2))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, a):
        x = np.array([1.5, -2.0, 0.25])
        base = a_norm(x, 3, a)
        assert a_norm(x[::-1], 3, a) == pytest.approx(base, rel=1e-12)
        assert a_norm(-x, 3, a) == pytest.approx(base, rel=1e-12)
        assert a_norm(np.abs(x), 3, a) == pytest.approx(base, rel=1e-12)

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(2718)
        n = 10_000
        for d in (1, 2, 3):
            xs = rng.uniform(-10.0, 10.0, size=(n, d))
            ys = rng.uniform(-10.0, 10.0, size=(n, d))
            for a in (0.1, 1.0, 10.0):
                nx = a_norm_batch(xs, d, a)
                ny = a_norm_batch(ys, d, a)
                nxy = a_norm_batch(xs + ys, d, a)
                assert np.all(nxy <= nx + ny + 1e-10)

    def test_monotone_in_killing(self):
        rng = np.random.default_rng(9001)
        xs = rng.uniform(-10.0, 10.0, size=(1000, 3))
        grid = [0.01, 0.1, 0.5, 1.0, 5.0, 50.0]
        values = np.stack([a_norm_batch(xs, 3, a) for a in grid])
        assert np.all(np.diff(values, axis=0) >= -1e-12)

    def test_norm_sandwich(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 3):
            xs = rng.uniform(-10.0, 10.0, size=(500, d))
            l2 = np.linalg.norm(xs, axis=1)
            l1 = np.abs(xs).sum(axis=1)
            for a in (0.05, 1.0, 30.0):
                nn = a_norm_batch(xs, d, a)
                assert np.all(nn >= l2 - 1e-12)
                assert np.all(nn <= l1 + 1e-12)

    def test_small_killing_rate_fit(self):
        # |x|_a approaches |x|_2 at quadratic rate; fitted exponent 2 +- 0.1
        for x in (np.array([3.0, 4.0]), np.array([1.0, 2.0, 2.0])):
            d = len(x)
            grid = np.geomspace(1e-3, 1e-1, 9)
            dev = np.array([a_norm(x, d, a) - np.linalg.norm(x) for a in grid])
            slope = np.polyfit(np.log(grid), np.log(dev), 1)[0]
            assert abs(slope - 2.0) < 0.1

    def test_context_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            x = rng.uniform(-5.0, 5.0, size=d)
            if not np.any(x):
                continue
            a = float(rng.uniform(0.05, 5.0))
            ctx = norm_context(x, d, a)
            assert math.cosh(ctx.m_a) == pytest.approx(1.0 + d * a * a, rel=1e-13)
            lhs = np.mean(np.sqrt(1.0 + x**2 * ctx.u**2))
            assert lhs == pytest.approx(1.0 + a * a, rel=1e-13)
            assert ctx.u_hat == pytest.approx(ctx.norm * ctx.u, rel=1e-14)
            assert np.linalg.norm(ctx.x_hat) <= 1.0 + 1e-12
            assert a_norm(ctx.x_hat, d, a) == pytest.approx(1.0, rel=1e-12)

    def test_scaled_direction_rate(self):
        # u_hat * |x_hat|_2 / (sqrt(2d) a) -> 1 uniformly over directions
        rng = np.random.default_rng(31)
        dirs = rng.normal(size=(20, 3))
        a = 1e-4
        for v in dirs:
            ctx = norm_context(v, 3, a)
            ratio = ctx.u_hat * np.linalg.norm(ctx.x_hat) / (math.sqrt(6.0) * a)
            assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            a_norm([1.0], 1, 0.0)
        with pytest.raises(DomainError):
            a_norm([1.0, 2.0], 3, 1.0)
        with pytest.raises(DomainError):
            norm_context([0.0, 0.0], 2, 1.0)


class TestUnitBall:
    def test_points_lie_on_unit_sphere_of_norm(self):
        for d, a in ((2, 0.3), (2, 5.0), (3, 1.0)):
            pts = unit_ball_boundary(d, a, 32)
            for y in pts:
                assert abs(a_norm(y, d, a) - 1.0) < 1e-10

    def test_axis_points_have_radius_one(self):
        for d in (2, 3):
            rows = list(unit_ball_rows(d, 2.0, 16))
            best = max(np.abs(p[0]) for _, p in rows)
            assert best == pytest.approx(1.0, abs=1e-12)

    def test_between_l1_and_l2_balls(self):
        for d, a in ((2, 0.5), (3, 2.0)):
            for y in unit_ball_boundary(d, a, 24):
                assert np.linalg.norm(y) <= 1.0 + 1e-10
                assert np.abs(y).sum() >= 1.0 - 1e-10

    def test_small_killing_is_round(self):
        radii = [np.linalg.norm(y) for y in unit_ball_boundary(2, 0.05, 360)]
        assert max(abs(r - 1.0) for r in radii) < 1e-2

    def test_large_killing_diagonal_point(self):
        # closed form for equal coordinates: u = sqrt((1+a^2)^2 - 1) and
        # |(1,1)|_a = 2 arcsinh(u)/m, so the 45-degree boundary radius is
        # sqrt(2)/|(1,1)|_a (0.7802... at a = 20, still 10% above the l1
        # limit 1/sqrt(2): the l1 approach is logarithmic)
        a = 20.0
        u = math.sqrt((1.0 + a * a) ** 2 - 1.0)
        m = mass(2, a)
        want_radius = math.sqrt(2.0) / (2.0 * math.asinh(u) / m)
        rows = list(unit_ball_rows(2, a, 360))
        theta, point = rows[45]
        assert theta[0] == pytest.approx(math.pi / 4.0, abs=1e-12)
        assert np.linalg.norm(point) == pytest.approx(want_radius, rel=1e-12)
        assert point[0] == pytest.approx(0.5517339321273533, rel=1e-10)

    def test_ordering_and_counts(self):
        rows = list(unit_ball_rows(2, 1.0, 36))
        assert len(rows) == 36
        thetas = [ang[0] for ang, _ in rows]
        assert np.all(np.diff(thetas) > 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            unit_ball_boundary(1, 1.0, 16)
        with pytest.raises(DomainError):
            unit_ball_boundary(2, 1.0, 4)
