"""Lattice Green function: Bessel route, Fourier oracle, d = 1 closed form."""

import itertools
import math

import numpy as np
import pytest

from scipy.special import gammaln

from latgreen import (
    AccuracyError,
    ConfigError,
    DivergenceError,
    DomainError,
    GreenParams,
    LatticeGreenError,
    UnsupportedError,
    green_bessel,
    green_d1_closed,
    green_fourier_oracle,
    mass,
)

# pinned during development from the agreement of the Bessel and Fourier
# routes (they match to ~1e-9; the Bessel route alone is stable to ~1e-14)
WATSON_D3 = 1.5163860591519778


def sorted_box_points(d, box):
    pts = set()
    for c in itertools.product(range(-box, box + 1), repeat=d):
        pts.add(tuple(sorted(abs(v) for v in c)))
    return sorted(pts)


class TestGreenParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            GreenParams(0, 1.0, 1.0)
        with pytest.raises(DomainError):
            GreenParams(2, -0.5, 1.0)
        with pytest.raises(DomainError):
            GreenParams(2, 1.0, 0.0)

    def test_divergence_gate(self):
        with pytest.raises(DivergenceError):
            GreenParams(2, 0.0, 1.0).check_finite()
        with pytest.raises(DivergenceError):
            GreenParams(3, 0.0, 1.5).check_finite()
        GreenParams(3, 0.0, 1.0).check_finite()


class TestGreenBessel:
    def test_d1_origin(self):
        gv = green_bessel(GreenParams(1, 1.0, 1.0), [0])
        assert gv.value == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-11)

    def test_d1_offset(self):
        gv = green_bessel(GreenParams(1, 1.0, 1.0), [2])
        want = (2.0 + math.sqrt(3.0)) ** -2 / math.sqrt(3.0)
        assert gv.value == pytest.approx(want, rel=1e-11)

    def test_massless_d3_origin(self):
        gv = green_bessel(GreenParams(3, 0.0, 1.0), [0, 0, 0])
        assert gv.value == pytest.approx(WATSON_D3, rel=1e-9)

    def test_symmetry_is_exact(self):
        p = GreenParams(3, 0.7, 1.5)
        a = green_bessel(p, (2, 1, 0))
        b = green_bessel(p, (0, -1, -2))
        assert a.value == b.value
        assert a.log_value == b.log_value

    def test_log_value_consistency(self):
        gv = green_bessel(GreenParams(2, 0.4, 1.0), [3, 1])
        assert math.exp(gv.log_value) == pytest.approx(gv.value, rel=1e-12)

    def test_error_estimate_within_tolerance(self):
        gv = green_bessel(GreenParams(3, 0.5, 1.0), [2, 1, 1], rel_tol=1e-9)
        assert gv.est_error <= 1e-9 * gv.value

    def test_deep_decay_stays_in_log_space(self):
        gv = green_bessel(GreenParams(1, 2.0, 1.0), [400])
        m = mass(1, 2.0)
        assert gv.value == 0.0  # below the linear floor
        assert gv.log_value == pytest.approx(
            -m * 400 - math.log(math.sinh(m)), rel=1e-11
        )

    def test_divergent_parameters_raise(self):
        with pytest.raises(DivergenceError):
            green_bessel(GreenParams(2, 0.0, 1.0), [1, 0])

    def test_huge_orders_refused_or_within_estimate(self, monkeypatch):
        # the node doubling's rounding floor once accepted a log 2e7 off at
        # x = 1e15; the value underflows, so the relative estimate is taken
        # from the quadrature
        import latgreen.lattice as lat

        inner, rel = lat.log_integral_semi_infinite, []

        def spy(*args, **kwargs):
            out = inner(*args, **kwargs)
            rel.append(out[1])
            return out

        monkeypatch.setattr(lat, "log_integral_semi_infinite", spy)
        p = GreenParams(1, 1.0, 1.0)
        for x in [10**k for k in range(6, 16)] + [2**53 - 1]:
            try:
                gv = green_bessel(p, [x])
            except AccuracyError:
                continue
            dev = abs(gv.log_value - green_d1_closed(1.0, 1, x).log_value)
            assert dev <= rel[-1], x

    def test_non_integer_point_rejected(self):
        with pytest.raises(DomainError):
            green_bessel(GreenParams(2, 1.0, 1.0), [0.5, 1.0])

    def test_monotone_decreasing_in_killing(self):
        for x in ([0, 0], [2, 1]):
            vals = [
                green_bessel(GreenParams(2, a, 1.0), x).value
                for a in (0.1, 0.3, 0.8, 2.0)
            ]
            assert np.all(np.diff(vals) < 0.0)


class TestCoordinateBound:
    @pytest.mark.parametrize(
        "x", [2**53, -(2**53), 2**63, -(2**63), 2**64, np.uint64(2**63), math.inf]
    )
    def test_refused_before_any_cast(self, x):
        p = GreenParams(1, 1.0, 1.0)
        for route in (
            lambda: green_bessel(p, [x]),
            lambda: green_fourier_oracle(p, [x]),
            lambda: green_d1_closed(1.0, 2, x),
        ):
            with pytest.raises(DomainError, match="2\\*\\*53"):
                route()

    def test_largest_coordinate_accepted(self):
        # q = 1: G = exp(-m x) / sinh(m)
        x, m = 2**53 - 1, mass(1, 1.0)
        gv = green_d1_closed(1.0, 1, x)
        assert gv.value == 0.0
        assert gv.log_value == pytest.approx(-m * x - math.log(math.sinh(m)), rel=1e-15)


class TestClosedFormD1:
    def test_overflowing_value_is_refused(self):
        # the mass of a = 1e-300 is 1.4e-300, so G ~ m^-3 lies past exp(709.8)
        with pytest.raises(AccuracyError, match="overflows"):
            green_d1_closed(1e-300, 2, 2)
        with pytest.raises(AccuracyError, match="overflows"):
            green_bessel(GreenParams(1, 1e-60, 4), [0])

    def test_first_exponent(self):
        gv = green_d1_closed(1.0, 1, 0)
        assert gv.value == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
        m = mass(1, 0.7)
        gv = green_d1_closed(0.7, 1, 5)
        assert gv.value == pytest.approx(
            math.exp(-5.0 * m) / math.sinh(m), rel=1e-13
        )

    def test_second_exponent_origin(self):
        # (1/3)(1 + (2 - sqrt(3))/sqrt(3)) at unit killing
        gv = green_d1_closed(1.0, 2, 0)
        want = (1.0 + (2.0 - math.sqrt(3.0)) / math.sqrt(3.0)) / 3.0
        assert gv.value == pytest.approx(want, rel=1e-14)
        assert gv.value == pytest.approx(0.3849002, rel=1e-7)

    def test_second_exponent_matches_formula(self):
        a, x = 0.6, 7
        m = mass(1, a)
        sh = math.sinh(m)
        want = (
            x
            * math.exp(-m * x)
            / sh**2
            * (1.0 + (1.0 + math.exp(-m) / sh) / x)
        )
        assert green_d1_closed(a, 2, x).value == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0])
    def test_matches_bessel_route(self, q, a):
        for x in (0, 1, 3, 11, 20):
            gb = green_bessel(GreenParams(1, a, q), [x])
            gc = green_d1_closed(a, q, x)
            assert gb.value == pytest.approx(gc.value, rel=1e-10)

    def test_rejects_non_integer_exponent(self):
        with pytest.raises(UnsupportedError):
            green_d1_closed(1.0, 1.5, 0)
        with pytest.raises(DomainError):
            green_d1_closed(0.0, 1, 0)

    @pytest.mark.parametrize("q", [1, 2, 3, 7, 40])
    @pytest.mark.parametrize("a", [0.01, 0.5, 2.0])
    def test_matches_exact_binomial_sum(self, q, a):
        # reference: exact integer binomials, summed in floating point
        m = mass(1, a)
        sh = math.sinh(m)
        ratio = math.exp(-m) / (2.0 * sh)
        for x in (0, 3, 20, 20000):
            total = sum(
                math.comb(x + q - 1, q - 1 - ell) * math.comb(q - 1 + ell, ell)
                * ratio**ell
                for ell in range(q)
            )
            want = -m * x - q * math.log(sh) + math.log(total)
            got = green_d1_closed(a, q, x).log_value
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14), x

    def test_large_exponent(self):
        # the binomials of q = 1000 overflow a float
        gc = green_d1_closed(1.0, 1000, 5)
        gb = green_bessel(GreenParams(1, 1.0, 1000.0), [5])
        assert math.isfinite(gc.log_value)
        assert gc.log_value == pytest.approx(gb.log_value, rel=1e-12)

    def test_exponent_cap(self):
        from latgreen.lattice import _D1_CLOSED_MAX_Q

        assert math.isfinite(green_d1_closed(1.0, _D1_CLOSED_MAX_Q, 0).log_value)
        for q in (_D1_CLOSED_MAX_Q + 1, 1e300):
            with pytest.raises(DomainError):
                green_d1_closed(1.0, q, 0)


class TestFourierOracle:
    def test_origin_d2(self):
        p = GreenParams(2, 1.0, 1.0)
        gb = green_bessel(p, [0, 0])
        gf = green_fourier_oracle(p, [0, 0])
        assert gf.value == pytest.approx(gb.value, rel=1e-8)

    def test_d1_second_exponent_closed_form(self):
        gf = green_fourier_oracle(GreenParams(1, 0.5, 2.0), [3])
        gc = green_d1_closed(0.5, 2, 3)
        assert gf.value == pytest.approx(gc.value, rel=1e-10)

    def test_non_integer_exponent_d3(self):
        p = GreenParams(3, 0.3, 1.5)
        gb = green_bessel(p, [1, 1, 0])
        gf = green_fourier_oracle(p, [1, 1, 0])
        assert gf.value == pytest.approx(gb.value, rel=1e-8)

    def test_massless_watson(self):
        gf = green_fourier_oracle(GreenParams(3, 0.0, 1.0), [0, 0, 0])
        assert gf.value == pytest.approx(WATSON_D3, rel=1e-6)

    def test_far_point_deep_decay(self):
        # the shifted-contour path: value ~ 1e-11, still 1e-8-accurate
        p = GreenParams(3, 1.0, 0.5)
        gb = green_bessel(p, [5, 5, 5])
        gf = green_fourier_oracle(p, [5, 5, 5])
        assert gf.value == pytest.approx(gb.value, rel=1e-8)

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedError):
            green_fourier_oracle(GreenParams(4, 1.0, 1.0), [0, 0, 0, 0])

    def test_divergent_parameters(self):
        with pytest.raises(DivergenceError):
            green_fourier_oracle(GreenParams(2, 0.0, 1.0), [1, 0])


class TestFourierBudget:
    @pytest.fixture
    def grids(self, monkeypatch):
        """Record each torus grid built; fail on one over the budget."""
        import latgreen.lattice as lat

        seen = []
        inner = lat._torus_sum

        def spy(d, *args, **kwargs):
            n = args[4]  # grid size, after d, a, q, x_abs and theta
            assert n**d * 16 <= lat._FOURIER_GRID_BYTES
            seen.append(n)
            return inner(d, *args, **kwargs)

        monkeypatch.setattr(lat, "_torus_sum", spy)
        return seen

    def test_real_budget_refuses_huge_grid(self, grids):
        # auto grid 512^3, 1024^3 on the shifted retry: about 2 and 16 GiB
        with pytest.raises(AccuracyError) as exc:
            green_fourier_oracle(GreenParams(3, 0.05, 1.0), [40, 0, 0])
        assert exc.value.best is None
        assert grids == []

    def test_retry_over_budget_keeps_first_attempt(self, grids, monkeypatch):
        import latgreen.lattice as lat

        p, x = GreenParams(1, 0.5, 1.0), [20]  # shifted contour
        monkeypatch.setattr(lat, "_FOURIER_REL_TOL", 1e-30)
        with pytest.raises(AccuracyError) as full:
            green_fourier_oracle(p, x)
        first = max(grids[:3])
        assert max(grids) == 2 * first  # the retry at double size ran
        grids.clear()
        monkeypatch.setattr(lat, "_FOURIER_GRID_BYTES", 16 * first)
        with pytest.raises(AccuracyError) as capped:
            green_fourier_oracle(p, x)
        assert max(grids) == first
        assert "budget" in str(capped.value)
        assert np.isfinite(capped.value.best) and capped.value.best > 0.0
        assert capped.value.est_error > 0.0
        assert capped.value.best != full.value.best


def _full_grid_weights(d, a, q, n):
    """Reference: the integrand weights on the whole n^d torus grid."""
    import latgreen.lattice as lat

    k = 2.0 * np.pi * np.arange(n) / n
    axes = np.meshgrid(*[k] * d, indexing="ij")
    denom = a * a + 1.0 - sum(np.cos(kj) for kj in axes) / d
    if a > 0.0:
        return denom ** -q
    wrapped = [np.where(kj > np.pi, kj - 2.0 * np.pi, kj) for kj in axes]
    factor = 1.0 - lat._smooth_window(np.sqrt(sum(kj**2 for kj in wrapped)))
    denom.flat[0] = 1.0
    return factor / denom**q


class TestFourierReducedGrids:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.0, 0.2, 1.0])
    def test_orthant_matches_full_grid(self, d, a):
        import latgreen.lattice as lat

        n, q = 64, 1.0
        k = 2.0 * np.pi * np.arange(n) / n
        weight = _full_grid_weights(d, a, q, n)
        for x in ((0, 0, 0), (1, 0, 0), (2, 1, 1), (3, 2, 0)):
            x = np.array(x[:d])
            phase = np.ones([1] * d)
            for axis, xj in enumerate(x):
                shape = [1] * d
                shape[axis] = n
                phase = phase * np.cos(k * xj).reshape(shape)
            want = float(np.sum(weight * phase)) / n**d
            got, scale = lat._torus_sum(d, a, q, x, np.zeros(d), n)
            assert got == pytest.approx(want, rel=1e-14), x
            assert scale == pytest.approx(weight.mean(), rel=1e-14)

    @pytest.mark.parametrize(
        "d, x", [(1, (7,)), (2, (5, 0)), (2, (4, 3)), (3, (6, 0, 0)), (3, (5, 2, 0)), (3, (3, 3, 3))]
    )
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.7])
    def test_folded_shifted_sum_matches_full_grid(self, d, x, q):
        import latgreen.lattice as lat

        x = np.array(x)
        theta = np.where(x > 0, 0.4, 0.0)
        folded, _ = lat._torus_sum(d, 1.0, q, x, theta, 32)
        full, _ = lat._torus_sum(d, 1.0, q, x, theta, 32, check_imag=True)
        assert folded == pytest.approx(full.real, rel=1e-13)

    @pytest.mark.parametrize(
        "d, x", [(1, (3,)), (2, (4, 0)), (2, (3, 2)), (3, (4, 0, 0)), (3, (3, 2, 0)), (3, (2, 2, 1))]
    )
    @pytest.mark.parametrize("a, shift", [(0.0, 0.0), (1.0, 0.0), (1.0, 0.4)])
    def test_check_grid_matches_folded_sum(self, d, x, a, shift):
        # the full-grid check sum, periodic and shifted, against the folded sum
        import latgreen.lattice as lat

        x = np.array(x)
        theta = np.where(x > 0, shift, 0.0)
        folded, _ = lat._torus_sum(d, a, 1.0, x, theta, 32)
        full, scale = lat._torus_sum(d, a, 1.0, x, theta, 32, check_imag=True)
        assert full.real == pytest.approx(folded, rel=1e-13)
        assert abs(full.imag) < 1e-12 * scale

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 3.0, 8.5, 2.7, 9.0])
    def test_inverse_power(self, q):
        import latgreen.lattice as lat

        rng = np.random.default_rng(3)
        z = 0.1 + rng.random(50) + 1j * (rng.random(50) - 0.5)
        assert np.allclose(lat._inv_power(z, q), z**-q, rtol=1e-14, atol=0.0)
        assert np.allclose(lat._inv_power(z.real, q), z.real**-q, rtol=1e-14, atol=0.0)


class TestFourierErrorHonesty:
    def test_grid_deviation_within_estimates(self):
        # the acceptance-02 grid: each route's est_error must cover the gap
        bad = []
        for d in (1, 2, 3):
            pts = sorted_box_points(d, 5)
            for q in (0.5, 1.0, 2.0):
                for a in (0.0, 0.2, 1.0):
                    if a == 0.0 and d <= 2.0 * q:
                        continue
                    p = GreenParams(d, a, q)
                    for x in pts:
                        gb = green_bessel(p, x)
                        gf = green_fourier_oracle(p, x)
                        dev = abs(gf.log_value - gb.log_value)
                        est = gf.est_error / gf.value + gb.est_error / gb.value
                        if dev > est:
                            bad.append((d, q, a, x, dev, est))
        assert bad == []

    def test_small_killing_within_estimates(self):
        # off the acceptance grid, where the periodic orthant has n up to
        # 32768 and the symbol is near a^2 at the peak: each pair agrees
        # within the combined estimate, or one route refuses with a typed error
        rng = np.random.default_rng(2024)
        bad = []
        for _ in range(60):
            d = int(rng.integers(1, 3))
            a = float(np.exp(rng.uniform(np.log(1e-3 if d == 1 else 1e-2), np.log(0.05))))
            q = float(rng.choice([0.5, 1.0, 2.0]))
            x = rng.integers(-40, 41, size=d)
            p = GreenParams(d, a, q)
            try:
                gb = green_bessel(p, x)
                gf = green_fourier_oracle(p, x)
            except LatticeGreenError:
                continue
            dev = abs(math.expm1(gf.log_value - gb.log_value))
            est = gf.est_error / gf.value + gb.est_error / gb.value
            if dev > est:
                bad.append((d, a, q, tuple(x), dev / est))
        assert bad == []

    def test_small_killing_periodic_pin(self):
        # the difference form 1 + a^2 - cos k put 3.3e-11 into this log
        p = GreenParams(1, 1.06e-3, 1.0)
        gb = green_bessel(p, [27])
        gf = green_fourier_oracle(p, [27])
        dev = abs(gf.log_value - gb.log_value)
        assert dev <= gf.est_error / gf.value + gb.est_error / gb.value

    # log G by mpmath quadrature of the Bessel representation,
    # mp.quad(t^(q-1) e^(-a^2 t) prod_j e^(-t/d) I_|x_j|(t/d), [0, 1, 10, 100, inf])
    # / Gamma(q), at 40 digits (a 30-digit run agrees to 4e-17).  Pinned: the
    # quadrature takes about 1 s per point.
    @pytest.mark.parametrize(
        "d,a,q,x,want",
        [
            (2, 0.0, 0.5, (3, 4), "-2.760556571920863300565603297"),
            (3, 0.2, 0.5, (4, 4, 4), "-8.470076021550449348715225924"),
        ],
    )
    def test_against_multiprecision_quadrature(self, d, a, q, x, want):
        gf = green_fourier_oracle(GreenParams(d, a, q), list(x))
        err = abs(gf.log_value - float(want))
        assert err <= gf.est_error / gf.value
        assert err <= 1e-11

    def test_one_dimensional_massless(self):
        # d = 1 needs q < 1/2; the polar part runs on the two-point sphere
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        q, x = 0.25, 3
        nodes = [mp.pi * j / (2 * x) for j in range(2 * x + 1)]
        want = mp.log(
            mp.quad(lambda k: mp.cos(k * x) * (2 * mp.sin(k / 2) ** 2) ** -q, nodes) / mp.pi
        )
        gf = green_fourier_oracle(GreenParams(1, 0.0, q), [x])
        err = abs(gf.log_value - float(want))
        assert err <= gf.est_error / gf.value
        assert err <= 1e-10


class TestCrossOracle:
    @pytest.mark.parametrize("d", [1, 2])
    def test_low_dimensions(self, d):
        pts = sorted_box_points(d, 5)
        for q in (0.5, 1.0, 2.0):
            for a in (0.0, 0.2, 1.0):
                if a == 0.0 and d <= 2.0 * q:
                    continue
                p = GreenParams(d, a, q)
                for x in pts:
                    gb = green_bessel(p, x)
                    gf = green_fourier_oracle(p, x)
                    assert gf.value == pytest.approx(gb.value, rel=1e-8), (
                        d, q, a, x,
                    )

    def test_three_dimensional_sample(self):
        # the full box-5 grid runs in the acceptance suite; spot-check here
        pts = [(0, 0, 0), (1, 0, 0), (2, 1, 1), (3, 3, 0), (5, 4, 2)]
        for q, a in ((0.5, 0.2), (1.0, 1.0), (2.0, 0.2), (1.0, 0.0)):
            p = GreenParams(3, a, q)
            for x in pts:
                gb = green_bessel(p, x)
                gf = green_fourier_oracle(p, x)
                assert gf.value == pytest.approx(gb.value, rel=1e-8)


class TestStructuralIdentities:
    def test_convolution_identity(self):
        # the second power is the lattice self-convolution of the first
        a = 0.5
        ys = np.arange(-200, 201)
        for x in (0, 2, 7):
            total = sum(
                green_d1_closed(a, 1, abs(y)).value
                * green_d1_closed(a, 1, abs(x - y)).value
                for y in ys
            )
            assert green_d1_closed(a, 2, x).value == pytest.approx(total, rel=1e-9)

    @pytest.mark.parametrize(
        "d,a", [(1, 0.2), (1, 1.0), (2, 0.2), (2, 1.0), (3, 0.2), (3, 1.0), (3, 0.0)]
    )
    def test_submultiplicative_across_points(self, d, a):
        box = 4
        cache = {}

        def val(pt):
            key = tuple(sorted(abs(int(c)) for c in pt))
            if key not in cache:
                cache[key] = green_bessel(GreenParams(d, a, 1.0), key).value
            return cache[key]

        origin = val((0,) * d)
        pts = list(itertools.product(range(-box, box + 1), repeat=d))
        rng = np.random.default_rng(17)
        if d >= 3:  # full pair set is ~0.5M; a fixed random subset suffices
            idx = rng.integers(0, len(pts), size=(4000, 2))
            pairs = [(pts[i], pts[j]) for i, j in idx]
        else:
            pairs = [(x, y) for x in pts for y in pts]
        for x, y in pairs:
            lhs = origin * val(x)
            rhs = val(y) * val(tuple(np.subtract(x, y)))
            assert lhs >= rhs * (1.0 - 1e-9)


class TestQuadratureFailure:
    def test_node_budget_exhaustion_carries_best_estimate(self, monkeypatch):
        import latgreen.quadrature as quad_mod

        monkeypatch.setattr(quad_mod, "_MAX_NODES", 64)
        with pytest.raises(AccuracyError) as exc:
            green_bessel(GreenParams(3, 0.5, 1.0), [2, 1, 1], rel_tol=1e-12)
        assert "nodes" in str(exc.value)

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-12, math.nan, math.inf, 1e-3])
    def test_rel_tol_out_of_range_rejected(self, rel_tol):
        with pytest.raises(ConfigError, match=r"rel_tol must lie in \(0, 1e-6\]"):
            green_bessel(GreenParams(2, 0.6, 1.5), [2, 1], rel_tol=rel_tol)


class TestTransformChoice:
    def test_transforms_agree(self):
        # both maps of the half line are valid for the Bessel-route
        # integrand; results must agree to quadrature tolerance
        from latgreen.quadrature import log_integral_semi_infinite
        from latgreen.special import log_scaled_bessel_i

        # green_bessel's integrand at d = 2, a = 0.6, q = 1.5, x = (2, 1)
        def log_f(t):
            td = t / 2.0
            return (
                0.5 * np.log(t) - 0.36 * t - gammaln(1.5)
                + log_scaled_bessel_i(2, td) + log_scaled_bessel_i(1, td)
            )

        a, _ = log_integral_semi_infinite(log_f, 1e-11)
        b, _ = log_integral_semi_infinite(log_f, 1e-11, double_exponential=True)
        assert math.exp(b) == pytest.approx(math.exp(a), rel=1e-9)
        assert a == green_bessel(GreenParams(2, 0.6, 1.5), [2, 1]).log_value

    @staticmethod
    def _spy_quadrature(monkeypatch):
        """Record each call's map flag and the integrand's node count."""
        import latgreen.lattice as lat

        inner, calls = lat.log_integral_semi_infinite, []

        def spy(log_f, rel_tol, double_exponential=False):
            call = {"double_exponential": double_exponential, "nodes": 0}
            calls.append(call)

            def counted(t):
                call["nodes"] += np.size(t)
                return log_f(t)

            return inner(counted, rel_tol, double_exponential=double_exponential)

        monkeypatch.setattr(lat, "log_integral_semi_infinite", spy)
        return calls

    @pytest.mark.parametrize(
        "d, a, q, x",
        [(3, 0.0, 1.0, (10, 0, 0)), (4, 0.0, 1.5, (3, 2, 1, 0)), (1, 0.0, 0.25, (5,)),
         (3, 0.2, 1.0, (10, 0, 0)), (3, 1e-300, 1.0, (4, 1, 0)), (1, 1.0, 1.0, (0,))],
    )
    def test_double_exponential_map_exactly_when_massless(self, monkeypatch, d, a, q, x):
        # a power-law tail (a = 0) falls off double-exponentially on the
        # t = exp(2 sinh v) map; massive integrands take fewer nodes on t = e^v
        calls = self._spy_quadrature(monkeypatch)
        green_bessel(GreenParams(d, a, q), x)
        assert [c["double_exponential"] for c in calls] == [a == 0.0]

    def test_massless_node_count(self, monkeypatch):
        # the t = e^v map takes 1263 integrand nodes here (each one a Bessel
        # evaluation per distinct order), the double-exponential map 516
        calls = self._spy_quadrature(monkeypatch)
        green_bessel(GreenParams(3, 0.0, 1.0), (10, 0, 0))
        assert calls[0]["nodes"] <= 800


class TestTinyKilling:
    # Below a ~ 1.5e-154, a^2 underflows to 0 and the integrand is the
    # massless one.  Where that diverges (d <= 2q) the finite value needs
    # t ~ 1/a^2, past float range, so the route refuses; a = 1e-151 is the
    # smallest power of ten it still resolves.
    @pytest.mark.parametrize("a", [1e-300, 1e-160])
    def test_divergent_massless_limit_is_refused(self, a):
        with pytest.raises(AccuracyError, match="200000 nodes"):
            green_bessel(GreenParams(2, a, 1.0), [4, 1])

    def test_resolved_down_to_1e_151(self):
        # G grows like (2/pi) log(1/a) at d = 2, q = 1
        fine = green_bessel(GreenParams(2, 1e-151, 1.0), [4, 1])
        coarse = green_bessel(GreenParams(2, 1e-150, 1.0), [4, 1])
        gap = fine.value - coarse.value - 2.0 / math.pi * math.log(10.0)
        assert abs(gap) <= fine.est_error + coarse.est_error

    def test_convergent_massless_limit_matches_a_zero(self):
        tiny = green_bessel(GreenParams(3, 1e-300, 1.0), [4, 1, 0])
        zero = green_bessel(GreenParams(3, 0.0, 1.0), [4, 1, 0])
        assert abs(tiny.value - zero.value) <= tiny.est_error + zero.est_error


class TestSymmetryProperties:
    @pytest.mark.parametrize("perm", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_permutation_invariance(self, perm):
        p = GreenParams(3, 0.4, 1.0)
        x = [3, 1, 0]
        base = green_bessel(p, x)
        permuted = green_bessel(p, [x[i] for i in perm])
        assert permuted.value == base.value

    def test_sign_flip_invariance_fourier(self):
        p = GreenParams(2, 0.5, 1.0)
        a = green_fourier_oracle(p, [2, -1])
        b = green_fourier_oracle(p, [-2, 1])
        assert a.value == b.value


class TestHighPrecisionReferee:
    @pytest.mark.parametrize(
        "d,a,q,x",
        [
            (2, 0.5, 1.5, (1, 1)),
            (3, 0.0, 1.0, (0, 0, 0)),
            (5, 0.0, 2.0, (1, 0, 0, 0, 0)),
        ],
    )
    def test_against_multiprecision_quadrature(self, d, a, q, x):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30

        def integrand(t):
            acc = t ** (q - 1) * mp.exp(-a * a * t)
            for xj in x:
                acc *= mp.besseli(abs(xj), t / mp.mpf(d)) * mp.exp(-t / mp.mpf(d))
            return acc

        want = float(mp.quad(integrand, [0, 1, 10, 100, mp.inf]) / mp.gamma(q))
        got = green_bessel(GreenParams(d, a, q), list(x)).value
        assert got == pytest.approx(want, rel=1e-12)
