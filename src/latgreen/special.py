"""Scaled modified Bessel functions and their large-order asymptotics.

The workhorse is the exponentially scaled modified Bessel function of the
first kind,

    ibar(nu, t) = exp(-t) * I_nu(t),

which stays in [0, 1] for every order and argument and therefore survives the
huge arguments produced by the Green-function quadratures.  A log variant is
provided because products of many scaled factors with orders up to ~1e3
underflow in linear space.

Evaluation strategy: every node first gets ``log(ive(nu, t))`` from scipy's
exponentially scaled ``ive`` (Amos, ACM TOMS 12 (1986) 265, Algorithm 644),
which costs well under a microsecond per node.  That value is kept wherever it
lies above ``_IVE_LOG_FLOOR``.  The other nodes (``ive`` underflows for ``t``
small against ``nu``, and returns nan past ``t ~ 1e9``) go to a region
dispatch that works in log space and covers every ``(nu, t)`` on its own:

* the large-argument (Hankel) expansion takes ``t >= nu**2 / 2`` with
  ``t > 30``;
* below that, orders ``nu >= 50`` take the large-order uniform (Debye)
  expansion with the standard polynomials ``u_k`` through fifth order, which
  is uniform in ``t`` (DLMF 10.41(ii); Olver, Phil. Trans. A 247 (1954) 328),
  and smaller orders take the power series, which needs at most about 1000
  terms there (``t < 1250``).

Also here: the modified Bessel function of the second kind ``K_alpha`` from
scipy's scaled ``kve``, with its symmetric integral representation
(double-exponential quadrature to ``rel_tol = 1e-13``, valid for all real
orders) wherever ``kve`` overflows or underflows, and the exponent/amplitude
pair ``psi`` / ``uniform_l`` of the large-order scaling form for ``ibar``.
"""

import numpy as np
from scipy.special import gammaln, ive, kve

from .errors import AccuracyError, DomainError
from .quadrature import _log_sum_exp, log_integral_semi_infinite

__all__ = [
    "scaled_bessel_i",
    "log_scaled_bessel_i",
    "bessel_k",
    "log_bessel_k",
    "psi",
    "psi_d1",
    "psi_d2",
    "psi_d3",
    "uniform_l",
    "log_uniform_l",
]


# log(ive) is kept above this.  ive returns 0 below about exp(-700.9), the
# underflow limit of the Amos code, so the floor keeps only values clear of
# that limit; the other nodes go to the log-space region dispatch.
_IVE_LOG_FLOOR = -700.0

# The Hankel expansion serves t >= nu**2 / 2 with t > _HANKEL_MIN_ARG in the
# fallback; below it, orders >= _UNIFORM_MIN_ORDER take the Debye expansion
# and smaller ones the power series.
_HANKEL_MIN_ARG = 30.0
_UNIFORM_MIN_ORDER = 50.0

# psi(t) takes arcsinh(1/t) in a form that cannot overflow below this t.
_PSI_SMALL_T = 1e-300

# Smallest normal float; Debye takes t / nu down to it, and the series
# takes log(t / 2) as log(t) - log(2) where t / 2 is below it.
_TINY = np.finfo(float).tiny
_LOG_2 = float(np.log(2.0))

# Debye polynomials u_k, coefficients highest degree first over one common
# denominator (standard recurrence u_{k+1} = t^2(1-t^2)u_k'/2 +
# int_0^t (1-5s^2) u_k(s) ds / 8).
_DEBYE_U = (
    (np.array([1.0]), 1.0),
    (np.array([-5.0, 0.0, 3.0, 0.0]), 24.0),
    (np.array([385.0, 0.0, -462.0, 0.0, 81.0, 0.0, 0.0]), 1152.0),
    (
        np.array([-425425.0, 0.0, 765765.0, 0.0, -369603.0, 0.0, 30375.0, 0, 0, 0]),
        414720.0,
    ),
    (
        np.array(
            [185910725.0, 0, -446185740.0, 0, 349922430.0, 0, -94121676.0, 0,
             4465125.0, 0, 0, 0, 0]
        ),
        39813120.0,
    ),
    (
        np.array(
            [-188699385875.0, 0, 566098157625.0, 0, -614135872350.0, 0,
             284499769554.0, 0, -49286948607.0, 0, 1519035525.0, 0, 0, 0, 0, 0]
        ),
        6688604160.0,
    ),
)


def psi(t):
    """Exponent of the large-order scaling of the scaled Bessel function.

    ``psi(t) = -t + sqrt(1+t^2) + log(t / (1 + sqrt(1+t^2)))``, evaluated in
    the cancellation-free form ``1/(t + sqrt(1+t^2)) - arcsinh(1/t)``, with
    ``arcsinh(1/t) = log1p(sqrt(1+t^2)) - log(t)`` below ``t = 1e-300``,
    where ``1/t`` would overflow.  Negative for all t > 0 and tends to 0 from
    below as t -> infinity.
    """
    t = _check_positive(t, "t")
    root = np.sqrt(1.0 + t * t)
    small = t < _PSI_SMALL_T
    asinh_inv = np.arcsinh(1.0 / np.where(small, 1.0, t))
    if np.any(small):
        asinh_inv = np.where(small, np.log1p(root) - np.log(t), asinh_inv)[()]
    return 1.0 / (t + root) - asinh_inv


def psi_d1(t):
    """First derivative of :func:`psi`: ``-1 + sqrt(1 + t^-2)`` (positive)."""
    t = _check_positive(t, "t")
    # expm1/log1p form avoids the cancellation of sqrt(1+s) - 1 for large t.
    return np.expm1(0.5 * np.log1p(t ** -2.0))


def psi_d2(t):
    """Second derivative of :func:`psi` (negative for t > 0)."""
    t = _check_positive(t, "t")
    return -(t ** -3.0) / np.sqrt(1.0 + t ** -2.0)


def psi_d3(t):
    """Third derivative of :func:`psi` (positive for t > 0)."""
    t = _check_positive(t, "t")
    return (2.0 * t ** -6.0 + 3.0 * t ** -4.0) / (1.0 + t ** -2.0) ** 1.5


def log_uniform_l(nu, t):
    """log of the large-order amplitude ``L_nu(t)``.

    Exactly ``nu*psi(t) - log(2*pi*nu)/2 - log(1+t^2)/4``; the scaled Bessel
    function ``ibar(nu, nu*t)`` converges to ``L_nu(t)`` uniformly in t as the
    order grows.
    """
    nu = _check_positive(nu, "nu")
    t = _check_positive(t, "t")
    return nu * psi(t) - 0.5 * np.log(2.0 * np.pi * nu) - 0.25 * np.log1p(t * t)


def uniform_l(nu, t):
    """Linear-space variant of :func:`log_uniform_l`."""
    return np.exp(log_uniform_l(nu, t))


def _check_positive(x, name):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{name} must be finite")
    if np.any(x <= 0.0):
        raise DomainError(f"{name} must be positive")
    return x


def _series_log_ibar(nu, t):
    """Log-space power series for ibar; exact for any (nu, t), cost O(t+nu)."""
    out = np.empty_like(t)
    tmax = float(t.max())
    k_peak = 0.5 * (np.hypot(nu, tmax) - nu)
    n_terms = int(k_peak + 12.0 * np.sqrt(k_peak + 1.0) + 25.0)
    k = np.arange(n_terms, dtype=float)
    log_fact = gammaln(k + 1.0) + gammaln(k + nu + 1.0)
    # Chunk to keep the (n_terms, len(t)) matrix small.
    chunk = max(1, int(4e6) // n_terms)
    for start in range(0, len(t), chunk):
        ts = t[start : start + chunk]
        half_t = 0.5 * ts
        # a subnormal t / 2 drops bits of t (all of them at 5e-324)
        sub = half_t < _TINY
        log_half_t = np.log(np.where(sub, ts, half_t))
        log_half_t[sub] -= _LOG_2
        terms = (2.0 * k[:, None] + nu) * log_half_t[None, :] - log_fact[:, None]
        out[start : start + chunk] = _log_sum_exp(terms, axis=0) - ts
    return out


def _hankel_log_ibar(nu, t):
    """Large-argument expansion; requires t >= max(30, nu^2/2)."""
    s = np.ones_like(t)
    term = np.ones_like(t)
    four_nu2 = 4.0 * nu * nu
    prev = np.inf
    for k in range(1, 64):
        term = -term * (four_nu2 - (2.0 * k - 1.0) ** 2) / (8.0 * k * t)
        mag = float(np.max(np.abs(term)))
        if mag > prev:
            break
        s += term
        prev = mag
        if mag < 1e-17:
            break
    else:
        raise AccuracyError("large-argument Bessel expansion did not converge")
    if np.any(s <= 0.0):
        raise AccuracyError("large-argument Bessel expansion lost accuracy")
    return -0.5 * np.log(2.0 * np.pi * t) + np.log(s)


def _uniform_log_ibar(nu, t):
    """Large-order (Debye) expansion with u_0..u_5; requires nu >= 50."""
    z = t / nu
    p = 1.0 / np.sqrt(1.0 + z * z)
    series = np.zeros_like(t)
    for k, (coeffs, den) in enumerate(_DEBYE_U):
        series += np.polyval(coeffs, p) / (den * nu ** k)
    return (
        nu * psi(z)
        - 0.5 * np.log(2.0 * np.pi * nu)
        - 0.25 * np.log1p(z * z)
        + np.log(series)
    )


def log_scaled_bessel_i(nu, t):
    """log of ``exp(-t) * I_nu(t)`` without overflow or underflow.

    Each node takes ``log(ive(nu, t))`` from scipy where that lies above
    ``_IVE_LOG_FLOOR``.  Nodes where ``ive`` underflows (``t`` small against
    ``nu``) or returns nan (``t`` past ~1e9) fall back to the log-space
    regions: the Hankel expansion for ``t >= nu**2 / 2`` (and ``t > 30``),
    and below it the Debye expansion for ``nu >= 50`` and the power series
    for smaller orders.

    Parameters
    ----------
    nu : float
        Order, >= 0 (integer orders are what the lattice representation
        consumes; real orders are accepted).
    t : float or ndarray
        Argument(s), >= 0.

    Returns
    -------
    float or ndarray
        ``log(ibar)``; ``-inf`` where the value is exactly zero
        (``t = 0`` with ``nu > 0``).
    """
    if not np.isscalar(nu) or not np.isfinite(nu) or nu < 0:
        raise DomainError("nu must be a finite nonnegative scalar")
    nu = float(nu)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if t_arr.size == 0:
        return t_arr.copy()
    # one min/max pair checks the domain: nan propagates into both, and
    # +-inf shows as an infinite end
    t_min, t_max = t_arr.min(), t_arr.max()
    if not (np.isfinite(t_min) and np.isfinite(t_max)):
        raise DomainError("t must be finite")
    if t_min < 0.0:
        raise DomainError("t must be nonnegative")

    if t_min == 0.0:
        out = np.empty_like(t_arr)
        zero = t_arr == 0.0
        out[zero] = 0.0 if nu == 0.0 else -np.inf
        live = ~zero
        out[live] = _live_log_ibar(nu, t_arr[live])
    else:
        out = _live_log_ibar(nu, t_arr)
    return float(out[0]) if scalar else out


def _live_log_ibar(nu, tv):
    """``log(ibar)`` at positive arguments: ``ive`` first, then the regions."""
    with np.errstate(divide="ignore"):
        res = np.log(ive(nu, tv))
    # nan compares false, so out-of-range nodes join the underflowed ones
    rest = ~(res > _IVE_LOG_FLOOR)
    if rest.any():
        res[rest] = _region_log_ibar(nu, tv[rest])
    return res


def _region_log_ibar(nu, tv):
    """Hankel/Debye/series dispatch for positive arguments ``tv``.

    Debye also needs ``z = t / nu`` to be a normal float; the nodes below
    that take the series, which needs a few dozen terms there.
    """
    res = np.empty_like(tv)
    m_hankel = (tv > _HANKEL_MIN_ARG) & (tv >= 0.5 * nu * nu)
    m_uniform = ~m_hankel & (nu >= _UNIFORM_MIN_ORDER) & (tv >= _TINY * nu)
    m_series = ~(m_hankel | m_uniform)
    if np.any(m_series):
        res[m_series] = _series_log_ibar(nu, tv[m_series])
    if np.any(m_hankel):
        res[m_hankel] = _hankel_log_ibar(nu, tv[m_hankel])
    if np.any(m_uniform):
        res[m_uniform] = _uniform_log_ibar(nu, tv[m_uniform])
    return res


def scaled_bessel_i(nu, t):
    """``exp(-t) * I_nu(t)``, always in [0, 1].

    See :func:`log_scaled_bessel_i` for the evaluation strategy; this is its
    exponential and underflows to 0.0 once the log drops below ~-745.
    """
    return np.exp(log_scaled_bessel_i(nu, t))


def log_bessel_k(alpha, z):
    """log of the modified Bessel function of the second kind.

    Takes ``log(kve(|alpha|, z)) - z`` from scipy's exponentially scaled
    ``kve`` (Amos, Algorithm 644) wherever that is finite and positive.  Where
    ``kve`` overflows or underflows (``z`` small against ``|alpha|``) it falls
    back to the symmetric integral
    ``K_alpha(z) = (1/2) (z/2)^alpha  int_0^inf t^(-alpha-1) e^(-t - z^2/4t) dt``
    (valid for every real ``alpha``, with ``K_{-alpha} = K_alpha``), evaluated
    by quadrature on the double-exponential map ``t = exp(2 sinh v)`` to
    ``rel_tol = 1e-13``.  No recurrences are involved, so the fallback's
    accuracy is uniform in the order.  Past ``kve``'s range (``z``
    above about 1e9, where it returns nan) the quadrature fails or drifts as
    well, so that raises ``AccuracyError``.
    """
    if not np.isfinite(alpha):
        raise DomainError("alpha must be finite")
    z = float(z)
    if not np.isfinite(z) or z <= 0.0:
        raise DomainError("z must be positive")
    alpha = float(alpha)
    k = kve(abs(alpha), z)
    if 0.0 < k < np.inf:
        return np.log(k) - z
    if np.isnan(k):
        raise AccuracyError(f"z = {z!r} is past the range of kve")
    quarter_z2 = 0.25 * z * z

    def log_f(t):
        return -(alpha + 1.0) * np.log(t) - t - quarter_z2 / t

    log_i, _ = log_integral_semi_infinite(log_f, 1e-13, double_exponential=True)
    return np.log(0.5) + alpha * np.log(0.5 * z) + log_i


def bessel_k(alpha, z):
    """Modified Bessel function of the second kind, positive real order/argument.

    Linear-space variant of :func:`log_bessel_k`.
    """
    return np.exp(log_bessel_k(alpha, z))
