"""Semi-infinite log-space trapezoid rule: closed forms, node reuse, budget."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammaln, kv, logsumexp

import latgreen.lattice as lattice_mod
import latgreen.quadrature as quadrature_mod
from latgreen import AccuracyError, GreenParams, green_bessel, log_bessel_k
from latgreen.quadrature import _log_sum_exp, log_integral_semi_infinite


class CountingIntegrand:
    """Wrap a log-integrand, recording every batch of ``t`` it is called on."""

    def __init__(self, log_f):
        self.log_f = log_f
        self.batches = []

    def __call__(self, t):
        self.batches.append(np.array(t, copy=True))
        return self.log_f(t)

    @property
    def nodes(self):
        return np.concatenate(self.batches)


def log_gamma_integrand(s, log_lam):
    """log of ``t^(s-1) exp(-lambda t)`` with ``lambda = exp(log_lam)``."""

    def log_f(t):
        return (s - 1.0) * np.log(t) - np.exp(log_lam + np.log(t))

    return log_f


@pytest.mark.parametrize(
    "s, log_lam",
    [
        (1.0, 0.0),  # peak inside the first scan window
        (2.0, 500.0),  # value exp(-1000), peak at v = -500
        (1.5, -200.0),  # peak near v = +199, far outside the first window
        (0.08, 0.0),  # left tail still above the cut-off at v = -v_cap
    ],
)
def test_gamma_closed_form(s, log_lam):
    f = CountingIntegrand(log_gamma_integrand(s, log_lam))
    log_val, est = log_integral_semi_infinite(f)
    want = gammaln(s) - s * log_lam
    assert log_val == pytest.approx(want, abs=1e-11 * max(1.0, abs(want)))
    assert est <= 1e-11 * max(1.0, abs(want))
    nodes = f.nodes
    assert np.unique(nodes).size == nodes.size, "a node was evaluated twice"


def test_tail_clipped_at_v_cap():
    f = CountingIntegrand(log_gamma_integrand(0.08, 0.0))
    log_integral_semi_infinite(f)
    # t = exp(v): the cut-off would sit near v = -754, so the grid stops at
    # exactly v = -700
    assert np.log(f.nodes.min()) == pytest.approx(-700.0, abs=1e-12)


def test_far_peak_extends_scan_grid():
    f = CountingIntegrand(log_gamma_integrand(1.5, -200.0))
    log_integral_semi_infinite(f)
    v = np.log(f.batches[0])
    assert v.min() == pytest.approx(-60.0) and v.max() == pytest.approx(60.0)
    # two one-sided blocks reach the peak near v = 199 and its right tail
    assert np.log(f.nodes.max()) > 200.0
    assert len(f.batches) <= 8


@pytest.mark.parametrize(
    "alpha, z",
    [(0.0, 1e-3), (0.5, 1.0), (1.0, 2.5), (2.5, 10.0), (7.0, 3.0), (1.0, 100.0)],
)
def test_double_exponential_bessel_k_against_scipy(alpha, z):
    assert log_bessel_k(alpha, z) == pytest.approx(np.log(kv(alpha, z)), abs=1e-11)


def test_regime_point_evaluates_each_node_once(monkeypatch):
    seen = []

    def counting_quadrature(log_f, *args, **kwargs):
        f = CountingIntegrand(log_f)
        seen.append(f)
        return log_integral_semi_infinite(f, *args, **kwargs)

    monkeypatch.setattr(lattice_mod, "log_integral_semi_infinite", counting_quadrature)
    green_bessel(GreenParams(3, 0.5, 1.0), [8, 4, 4])
    (f,) = seen
    assert len(f.batches) <= 8
    nodes = f.nodes
    assert np.unique(nodes).size == nodes.size


def test_node_budget_keeps_best_and_error(monkeypatch):
    # levels hold 65, 129, 257 nodes; the budget stops before the third,
    # and h = 1/2 is not yet within 1e-12 of h = 1
    monkeypatch.setattr(quadrature_mod, "_MAX_NODES", 200)
    with pytest.raises(AccuracyError) as exc:
        log_integral_semi_infinite(log_gamma_integrand(1.0, 0.0), 1e-12)
    best, est = exc.value.best, exc.value.est_error
    assert best is not None and np.isfinite(est)
    assert 0.25e-12 < est < 1e-3
    assert abs(best - 0.0) <= est


@pytest.mark.parametrize(
    "double_exponential", [False, True], ids=["log_substitution", "double_exponential"]
)
def test_peak_at_cut_off_raises(double_exponential):
    # log t^(1/2): the transformed integrand rises all the way to +v_cap
    with pytest.raises(AccuracyError, match="cut-off"):
        log_integral_semi_infinite(
            lambda t: 0.5 * np.log(t), double_exponential=double_exponential
        )


@pytest.mark.parametrize(
    "d, q, x", [(1, 1.0, [1]), (3, 2.0, [1, 0, 0])]
)
def test_underflowing_killing_peaks_at_cut_off(d, q, x):
    # a^2 underflows to 0 for a = 1e-300, so these divergent massless
    # integrands are still rising at t = exp(700)
    with pytest.raises(AccuracyError, match="cut-off"):
        green_bessel(GreenParams(d, 1e-300, q), x)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all((got == want) | (np.isnan(got) & np.isnan(want))), (got, want)


_LOGS = st.one_of(
    st.floats(min_value=-800.0, max_value=800.0),
    st.sampled_from([-np.inf, 0.0, 1.0, -745.5]),  # ties and padding
)


@given(a=arrays(np.float64, st.integers(min_value=1, max_value=600), elements=_LOGS))
@settings(max_examples=200, deadline=None)
def test_log_sum_exp_is_scipy_bit_for_bit(a):
    assert_same_bits(_log_sum_exp(a), logsumexp(a))


@given(
    a=arrays(
        np.float64,
        st.tuples(st.integers(1, 30), st.integers(1, 40)),
        elements=_LOGS,
    )
)
@settings(max_examples=100, deadline=None)
def test_log_sum_exp_axis0_is_scipy_bit_for_bit(a):
    assert_same_bits(_log_sum_exp(a, axis=0), logsumexp(a, axis=0))


@pytest.mark.parametrize(
    "a",
    [
        [0.0],
        [3.0, 3.0, 3.0],
        [-np.inf, -np.inf],
        [-np.inf, 2.0, -np.inf],
        [np.inf, 1.0],
        [np.inf, -np.inf],
        [np.inf, np.inf],
        [np.nan, 1.0],
        [-np.inf, np.nan],
        np.r_[np.linspace(-50.0, 20.0, 513), np.full(100, -np.inf)],
    ],
)
def test_log_sum_exp_edge_cases(a):
    a = np.asarray(a, dtype=float)
    assert_same_bits(_log_sum_exp(a), logsumexp(a))
    # the same column twice, summed down axis 0
    cols = np.stack([a, a[::-1]], axis=1)
    assert_same_bits(_log_sum_exp(cols, axis=0), logsumexp(cols, axis=0))
