"""Scaled Bessel-I, Bessel-K, and large-order asymptotics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ive, kv

import latgreen.special as special_mod
from latgreen import (
    AccuracyError,
    DomainError,
    GreenParams,
    green_bessel,
    green_d1_closed,
    log_bessel_k,
    log_scaled_bessel_i,
    log_uniform_l,
    psi,
)
from latgreen.quadrature import log_integral_semi_infinite


def ibar_quadrature(nu, t):
    """Brute-force oracle: (1/pi) int_0^pi exp(-t(1-cos u)) cos(nu u) du."""
    import warnings

    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        # quad warns about roundoff on mildly oscillatory integrands even
        # when the returned accuracy (checked by the assertions) is ample
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda u: math.exp(-t * (1.0 - math.cos(u))) * math.cos(nu * u),
            0.0,
            math.pi,
            limit=200,
            epsabs=1e-15,
            epsrel=1e-13,
        )
    return val / math.pi


def bessel_k_quadrature(alpha, z):
    """Brute-force oracle for the symmetric K integral representation."""
    val, _ = quad(
        lambda t: t ** (-alpha - 1.0) * math.exp(-t - z * z / (4.0 * t)),
        0.0,
        np.inf,
        limit=400,
        epsabs=1e-16,
        epsrel=1e-13,
    )
    return 0.5 * (z / 2.0) ** alpha * val


def ibar(nu, t):
    """``exp(-t) I_nu(t)`` as the exponential of the library's log form."""
    return np.exp(log_scaled_bessel_i(nu, t))


def bessel_k(alpha, z):
    """``K_alpha(z)`` as the exponential of the library's log form."""
    return np.exp(log_bessel_k(alpha, z))


class TestScaledBesselI:
    def test_at_zero_argument(self):
        assert ibar(0, 0.0) == 1.0
        assert ibar(3, 0.0) == 0.0

    def test_large_argument_flat(self):
        # ibar(0, t) ~ (2 pi t)^(-1/2) for huge t
        want = (2.0 * math.pi * 1e6) ** -0.5
        assert ibar(0, 1e6) == pytest.approx(want, rel=1e-6)

    def test_against_integral_oracle(self):
        got = ibar(5, 7.0)
        want = ibar_quadrature(5, 7.0)
        assert got == pytest.approx(want, rel=1e-10)

    # pairs kept above ~1e-9 so the oscillatory oracle can resolve them
    @pytest.mark.parametrize(
        "nu,t",
        [(0, 0.05), (0, 1.0), (1, 0.05), (1, 12.5), (2, 1.0), (2, 40.0),
         (7, 5.0), (7, 12.5), (13, 12.5), (13, 40.0)],
    )
    def test_oracle_grid(self, nu, t):
        assert ibar(nu, t) == pytest.approx(
            ibar_quadrature(nu, t), rel=1e-10
        )

    def test_bounded_by_one_and_positive(self):
        for nu in (0, 1, 10, 400):
            for t in (1e-12, 0.5, 30.0, 1e4, 1e12):
                v = ibar(nu, t)
                assert 0.0 <= v <= 1.0
                if t > 0 and v > 0:
                    assert v > 0.0

    @given(
        nu=st.integers(min_value=0, max_value=300),
        t=st.floats(min_value=1e-3, max_value=1e5),
    )
    @settings(max_examples=60, deadline=None)
    def test_order_monotonicity(self, nu, t):
        assert log_scaled_bessel_i(nu + 1, t) < log_scaled_bessel_i(nu, t)

    @given(
        nu=st.integers(min_value=0, max_value=80),
        t=st.floats(min_value=1e-2, max_value=200.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_log_matches_linear(self, nu, t):
        lin = ive(nu, t)
        if lin > 1e-280:
            assert math.exp(log_scaled_bessel_i(nu, t)) == pytest.approx(
                lin, rel=1e-12
            )

    def test_branch_overlap(self):
        # the fallback regions (series, Hankel and Debye all occur on this
        # grid) agree with ive where ive is representable
        ts = np.array([31.0, 80.0, 1300.0, 4000.0])
        for nu in (0, 3, 12, 60, 140):
            want = np.log(ive(nu, ts))
            assert np.all(want > math.log(1e-300))
            got = special_mod._region_log_ibar(float(nu), ts)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_vectorized_matches_scalar(self):
        ts = np.array([0.0, 0.3, 35.0, 900.0])
        vec = log_scaled_bessel_i(4, ts)
        assert vec.shape == ts.shape
        for t, v in zip(ts, vec):
            assert v == log_scaled_bessel_i(4, float(t))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ibar(0, float("nan"))
        with pytest.raises(DomainError):
            ibar(0, float("inf"))
        with pytest.raises(DomainError):
            ibar(0, -1.0)
        with pytest.raises(DomainError):
            ibar(-2, 1.0)

    @pytest.mark.parametrize("x", [300000, 1000000])
    def test_orders_past_series_reach_match_closed_form(self, x):
        # order >= 2.4e5: the fallback nodes of order >= 50 below the Hankel
        # band take Debye; the series there would need more than 60 000 terms
        gb = green_bessel(GreenParams(1, 1.0, 1.0), [x])
        gc = green_d1_closed(1.0, 1, x)
        assert abs(gb.log_value - gc.log_value) <= 1e-15 * abs(gc.log_value)


def log_ibar_masked(nu, t):
    """The masked body ``log_scaled_bessel_i`` had before its one-pass checks."""
    nu = float(nu)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    out = np.empty_like(t_arr)
    zero = t_arr == 0.0
    out[zero] = 0.0 if nu == 0.0 else -np.inf
    live = ~zero
    tv = t_arr[live]
    with np.errstate(divide="ignore"):
        res = np.log(ive(nu, tv))
    rest = ~(res > special_mod._IVE_LOG_FLOOR)
    if np.any(rest):
        res[rest] = special_mod._region_log_ibar(nu, tv[rest])
    out[live] = res
    return float(out[0]) if scalar else out


class TestLogScaledBesselIContract:
    ORDERS = (0, 0.5, 1, 3, 12, 49, 50, 60, 140, 1000, 20000, 300000)
    ARGS = np.concatenate([
        [5e-324, 1e-310, 1e-300, 1e-8, 0.3, 1.0, 31.0, 80.0, 1300.0, 4000.0],
        np.geomspace(1e-6, 1e30, 73),
        [1e9, 2e9, 1e15, 1e26, 1e300],
    ])

    def test_empty_argument(self):
        for nu in (0, 3):
            got = log_scaled_bessel_i(nu, np.array([]))
            assert isinstance(got, np.ndarray)
            assert got.shape == (0,) and got.dtype == float

    def test_scalar_in_float_out(self):
        for t in (0.0, 2.5, np.float64(2.5), 1e20):
            assert type(log_scaled_bessel_i(3, t)) is float
        assert type(log_scaled_bessel_i(0, 0)) is float

    def test_zero_argument(self):
        assert log_scaled_bessel_i(0, 0.0) == 0.0
        assert log_scaled_bessel_i(2.5, 0.0) == -math.inf
        ts = np.array([0.0, 1.0, 0.0, 1e12, -0.0])
        for nu in (0, 4):
            got = log_scaled_bessel_i(nu, ts)
            assert got[[0, 2, 4]].tolist() == [0.0 if nu == 0 else -math.inf] * 3
            assert got[1] == log_scaled_bessel_i(nu, 1.0)
            assert got[3] == log_scaled_bessel_i(nu, 1e12)

    @pytest.mark.parametrize(
        "t, message",
        [(math.nan, "t must be finite"), (math.inf, "t must be finite"),
         (-math.inf, "t must be finite"), (-1.0, "t must be nonnegative"),
         (-5e-324, "t must be nonnegative"), ([1.0, math.nan, -1.0], "t must be finite"),
         ([0.0, 2.0, math.inf], "t must be finite"), ([3.0, -2.0], "t must be nonnegative")],
    )
    def test_domain_messages(self, t, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            log_scaled_bessel_i(1, t)

    def test_bits_match_masked_body(self):
        # the grid reaches every branch: ive, and in the fallback the Hankel,
        # Debye and series regions
        seen = set()
        for nu in self.ORDERS:
            ts = np.concatenate([[0.0], self.ARGS, [0.0]])
            got = log_scaled_bessel_i(nu, ts)
            want = log_ibar_masked(nu, ts)
            assert got.tobytes() == want.tobytes(), nu
            for t in self.ARGS:
                assert log_scaled_bessel_i(nu, t) == log_ibar_masked(nu, t)
            with np.errstate(divide="ignore"):
                ok = np.log(ive(nu, self.ARGS)) > special_mod._IVE_LOG_FLOOR
            if ok.any():
                seen.add("ive")
            for t in self.ARGS[~ok]:
                if t > 30.0 and t >= 0.5 * nu * nu:
                    seen.add("hankel")
                elif nu >= 50.0 and t >= np.finfo(float).tiny * nu:
                    seen.add("debye")
                else:
                    seen.add("series")
        assert seen == {"ive", "hankel", "debye", "series"}


def log_ibar_mpmath(nu, t):
    """40-digit referee for log(exp(-t) I_nu(t))."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        t = mp.mpf(float(t))
        return float(mp.log(mp.besseli(nu, t, maxterms=10**6)) - t)


def assert_log_close(got, want):
    # error of the log, normalised by max(1, |log ibar|)
    assert abs(got - want) <= 3e-14 * max(1.0, abs(want)), (got, want)


class TestDispatchReferee:
    @pytest.mark.parametrize(
        "nu", [0, 1, 3, 12, 30, 49, 50, 64, 100, 128, 200, 400, 1000]
    )
    def test_against_mpmath(self, nu):
        ts = np.geomspace(1e-3, 3e5, 61)
        for t, got in zip(ts, log_scaled_bessel_i(nu, ts)):
            assert_log_close(got, log_ibar_mpmath(nu, t))

    def test_switch_band(self):
        # log ibar in (-720, -680): ive serves the nodes above the floor, the
        # fallback regions those below it
        sides = set()
        for nu in (1, 3, 12, 50, 200, 1000, 3000):
            ts = np.geomspace(1e-305, 1e4, 3000)
            vals = log_scaled_bessel_i(nu, ts)
            band = (vals > -720.0) & (vals < -680.0)
            for t, got in zip(ts[band][::5], vals[band][::5]):
                with np.errstate(divide="ignore"):
                    sides.add(bool(np.log(ive(nu, t)) > -700.0))
                assert_log_close(got, log_ibar_mpmath(nu, t))
        assert sides == {False, True}

    # 40-digit mpmath values of log ibar, pinned: mpmath takes seconds at the
    # largest orders.  Every point has log ive < -700, so the fallback serves it.
    @pytest.mark.parametrize(
        "nu, t, want",
        [
            (50, 1e-300, -34721.911520890455),
            (50, 1e-8, -1104.1691631873887),
            (64, 1e-300, -44459.16340452415),
            (64, 1e-8, -1428.453186661429),
            (1000, 1e-300, -697380.8032572619),
            (1000, 1e-8, -25025.956103010474),
            (1000, 1.0, -6606.27510929789),
            (1000, 100.0, -2097.6107728110014),
            (300000, 1e-300, -210924071.07443127),
            (300000, 1e-8, -9217616.928152893),
            (300000, 1.0, -3691413.7049663393),
            (300000, 30000.0, -627977.8436510265),
        ],
    )
    def test_debye_band_against_pinned_mpmath(self, nu, t, want):
        with np.errstate(divide="ignore"):
            assert np.log(ive(nu, t)) < -700.0
        got = log_scaled_bessel_i(nu, t)
        assert abs(got - want) <= 1e-15 * abs(want), (got, want)

    @pytest.mark.parametrize(
        "nu, t, want",
        [(50, 1e-323, -37370.48136302084), (1e4, 1e-310, -7227054.187923956)],
    )
    def test_subnormal_order_ratio_takes_series(self, nu, t, want):
        # t / nu is 0 or subnormal here, where Debye would fail or lose bits;
        # the values are 40-digit mpmath
        got = log_scaled_bessel_i(nu, t)
        assert abs(got - want) <= 1e-15 * abs(want), (got, want)

    @pytest.mark.parametrize(
        "nu, want", [(1, -745.1332191019412), (60, -44896.621319540144)]
    )
    def test_smallest_subnormal_argument(self, nu, want):
        # t / 2 rounds to 0 at t = 5e-324, so the series must not take its
        # log; the values are 40-digit mpmath
        got = log_scaled_bessel_i(nu, 5e-324)
        assert abs(got - want) <= 1e-15 * abs(want), (got, want)

    @pytest.mark.parametrize("t", [1e10, 1e15, 1e26, 1e300])
    def test_half_integer_closed_forms_past_ive_range(self, t):
        # I_{1/2} = sqrt(2/(pi t)) sinh t, I_{3/2} = sqrt(2/(pi t)) (cosh t -
        # sinh t / t); at these t the exp(-2t) terms vanish
        assert np.isnan(ive(0.5, t))
        base = -0.5 * math.log(2.0 * math.pi * t)
        assert_log_close(log_scaled_bessel_i(0.5, t), base)
        assert_log_close(log_scaled_bessel_i(1.5, t), base + math.log1p(-1.0 / t))

    def test_large_order_green_bessel_matches_closed_form(self):
        # order 20000: left-tail nodes where ive underflows take Debye (the
        # series would need thousands of terms), the right tail past t ~ 1e9
        # takes Hankel
        gb = green_bessel(GreenParams(1, 0.01, 1), [20000])
        gc = green_d1_closed(0.01, 1, 20000)
        assert gb.log_value == pytest.approx(gc.log_value, rel=1e-12)


class TestBesselK:
    def test_half_order_closed_form(self):
        want = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        assert bessel_k(0.5, 1.0) == pytest.approx(want, rel=1e-12)

    def test_order_symmetry(self):
        assert bessel_k(-0.5, 1.0) == pytest.approx(bessel_k(0.5, 1.0), rel=1e-12)

    def test_against_quadrature_oracle(self):
        assert bessel_k(1.0, 2.5) == pytest.approx(
            bessel_k_quadrature(1.0, 2.5), rel=1e-10
        )

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
    def test_oracle_grid(self, alpha, z):
        assert bessel_k(alpha, z) == pytest.approx(
            bessel_k_quadrature(alpha, z), rel=1e-10
        )

    def test_small_argument_growth(self):
        for alpha in (0.5, 1.0, 2.0):
            z = 1e-4
            want = math.gamma(alpha) * 2.0 ** (alpha - 1.0)
            assert bessel_k(alpha, z) * z ** alpha == pytest.approx(want, rel=1e-3)

    def test_large_argument_decay(self):
        # leading correction is (4 alpha^2 - 1)/(8z), so z = 50 resolves the
        # limit to 1e-3 only for |alpha| near 1/2; use z = 5000 for the rest
        z = 5000.0
        for alpha in (0.0, 0.5, 2.5):
            got = math.exp(log_bessel_k(alpha, z) + z + 0.5 * math.log(z))
            assert got == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-3)
        got50 = bessel_k(0.5, 50.0) * math.exp(50.0) * math.sqrt(50.0)
        assert got50 == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-3)

    def test_log_variant(self):
        assert math.exp(log_bessel_k(2.5, 3.0)) == pytest.approx(
            kv(2.5, 3.0), rel=1e-12
        )
        # far in the exponential tail the log variant keeps working
        assert log_bessel_k(0.5, 800.0) == pytest.approx(
            0.5 * math.log(math.pi / 1600.0) - 800.0, rel=1e-10
        )

    @pytest.mark.parametrize(
        "alpha, z, fallback",
        [
            (0.5, 1.0, False),
            (0.25, 1e-3, False),
            (2.5, 300.0, False),
            (-1.0, 20.0, False),
            (200.0, 1e-3, True),  # kve overflows
            (-300.0, 1.0, True),
        ],
    )
    def test_against_mpmath(self, alpha, z, fallback, monkeypatch):
        # kve where it is finite and positive, the DE quadrature elsewhere
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        calls = []

        def spy(log_f, *args, **kwargs):
            calls.append((args, kwargs))
            return log_integral_semi_infinite(log_f, *args, **kwargs)

        monkeypatch.setattr(special_mod, "log_integral_semi_infinite", spy)
        got = log_bessel_k(alpha, z)
        assert bool(calls) == fallback
        want = float(mp.log(mp.besselk(alpha, z)))
        assert got == pytest.approx(want, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("z", [3e9, 1e12, 1e15])
    def test_past_kve_range_is_refused(self, z):
        # the quadrature fails there too, and from 1e15 on it returned a log
        # off by 3.7e8 instead of failing
        with pytest.raises(AccuracyError, match="range of kve"):
            log_bessel_k(0.5, z)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_k(0.5, 0.0)
        with pytest.raises(DomainError):
            bessel_k(0.5, -2.0)


class TestPsi:
    def test_value_at_one(self):
        want = -1.0 + math.sqrt(2.0) + math.log(1.0 / (1.0 + math.sqrt(2.0)))
        assert psi(1.0) == pytest.approx(want, rel=1e-14)

    def test_negative_and_vanishing(self):
        ts = np.geomspace(1e-6, 1e6, 40)
        vals = psi(ts)
        assert np.all(vals < 0.0)
        assert abs(psi(1e9)) < 1e-9

    def test_derivative_signs(self):
        # the k-th divided difference is psi^(k)(xi) / k! for some xi in its
        # span, so psi' > 0, psi'' < 0 and psi''' > 0 show in their signs
        ts = np.geomspace(1e-3, 1e3, 25)
        dd = psi(ts)
        for k, sign in ((1, 1.0), (2, -1.0), (3, 1.0)):
            dd = np.diff(dd) / (ts[k:] - ts[:-k])
            assert np.all(sign * dd > 0.0), k

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_derivatives_match_finite_differences(self, t):
        # fourth-order central stencils of psi against the closed forms of
        # psi'' and psi'''; h balances truncation vs roundoff
        h = 1e-2 * t
        f = [psi(t + k * h) for k in range(-3, 4)]
        d2 = (-f[5] + 16 * f[4] - 30 * f[3] + 16 * f[2] - f[1]) / (12 * h**2)
        want2 = -(t ** -3.0) / math.sqrt(1.0 + t ** -2.0)
        assert want2 == pytest.approx(d2, rel=1e-6)
        d3 = (f[0] - 8 * f[1] + 13 * f[2] - 13 * f[4] + 8 * f[5] - f[6]) / (
            8 * h**3
        )
        want3 = (2.0 * t ** -6.0 + 3.0 * t ** -4.0) / (1.0 + t ** -2.0) ** 1.5
        assert want3 == pytest.approx(d3, rel=1e-6)

    @pytest.mark.parametrize(
        "t, want", [(1e-310, -713.4945260087142), (5e-324, -744.1332191019412)]
    )
    def test_below_reciprocal_overflow(self, t, want):
        # 1/t overflows here; the values are 40-digit mpmath
        assert psi(t) == pytest.approx(want, rel=1e-15)
        assert psi(np.array([t, 1.0]))[0] == psi(t)

    def test_domain(self):
        with pytest.raises(DomainError):
            psi(0.0)
        with pytest.raises(DomainError):
            psi(-1.0)


class TestLargeOrderScaling:
    def test_log_form_is_exact(self):
        nu, t = 37.0, 2.2
        want = (
            nu * psi(t)
            - 0.5 * math.log(2.0 * math.pi * nu)
            - 0.25 * math.log(1.0 + t * t)
        )
        assert log_uniform_l(nu, t) == want

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_scaled_bessel_converges_to_amplitude(self, t):
        # 1% by order 200 (comfortably; measured deviation < 5e-4)
        nu = 200
        ratio = math.exp(log_scaled_bessel_i(nu, nu * t) - log_uniform_l(nu, t))
        assert ratio == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_quadratic_argument_limit(self, s):
        # nu * ibar(nu, nu^2 s) -> exp(-1/2s)/sqrt(2 pi s); 1% by order 100
        nu = 100
        got = nu * math.exp(log_scaled_bessel_i(nu, nu * nu * s))
        want = math.exp(-0.5 / s) / math.sqrt(2.0 * math.pi * s)
        assert got == pytest.approx(want, rel=1e-2)

    def test_two_region_upper_bound(self):
        # frozen fit: C = 1.0, delta = 0.4 hold for orders >= 50
        # (measured: min decay rate 0.839 in the small-s region, log-margin
        # -0.92 in the large-s region)
        big_c, delta = 1.0, 0.4
        nus = np.unique(np.round(np.geomspace(50, 500, 20)).astype(int))
        ss = np.geomspace(1e-3, 1e2, 41)
        for nu in nus:
            lv = log_scaled_bessel_i(float(nu), nu * nu * ss)
            small = 2.0 * nu * ss < 1.0
            bound = np.where(
                small,
                math.log(big_c) - delta * nu,
                math.log(big_c) - np.log(nu) - 0.5 * np.log(ss) - delta / ss,
            )
            assert np.all(lv <= bound + 1e-12)

    def test_linear_variant(self):
        # L_nu(t) = exp(nu psi(t)) / (sqrt(2 pi nu) (1 + t^2)^(1/4))
        nu, t = 60.0, 3.0
        want = math.exp(nu * psi(t)) / math.sqrt(2.0 * math.pi * nu)
        want /= (1.0 + t * t) ** 0.25
        assert math.exp(log_uniform_l(nu, t)) == pytest.approx(want, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_uniform_l(0.0, 1.0)
        with pytest.raises(DomainError):
            log_uniform_l(1.0, 0.0)
