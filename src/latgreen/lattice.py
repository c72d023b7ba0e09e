"""Lattice Green function on Z^d by three independent routes.

``green_bessel``
    The production route: a one-dimensional integral of a power, an
    exponential killing factor, and a product of scaled modified Bessel
    functions, integrated in log space so values down to ``exp(-1000)``
    retain full relative accuracy.

``green_fourier_oracle``
    Direct tensor-product quadrature of the defining Fourier integral over
    the torus (trapezoid rule, spectrally accurate for positive killing), by
    one driver on the contour ``k + i theta``: ``theta = 0`` is the periodic
    sum, and far points shift it into the complex plane.  The sum runs on
    the part of the grid its symmetries leave.  The massless case subtracts
    a smoothly windowed copy of the singular part and integrates it in polar
    coordinates, with its own radial-rule error term.  Restricted to d <= 3;
    exists purely as a cross-check.

``green_d1_closed``
    Exact finite sum for d = 1 and integer exponent.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, roots_jacobi, roots_legendre

from .errors import AccuracyError, DomainError, UnsupportedError
from .norm import mass, u_scale
from .quadrature import _LOOSEST_REL_TOL, _log_sum_exp, log_integral_semi_infinite
from .records import GreenParams, GreenValue
from .special import log_scaled_bessel_i


# Coordinates must stay below 2**53: past it an integer is no longer exact
# as a float (the Bessel order), and past 2**63 it no longer fits an int64.
_MAX_COORDINATE = 2**53


def _check_coordinate_size(x):
    """Refuse ``|x_j| >= 2**53`` in the array ``x``, before any cast; the
    comparison is on Python numbers, so no int64 wraps first."""
    if any(abs(c) >= _MAX_COORDINATE for c in x.ravel().tolist()):
        raise DomainError("lattice coordinates must satisfy |x_j| < 2**53")


def _check_lattice_point(x, d):
    x = np.asarray(x)
    if x.ndim == 0:
        x = x[None]
    if x.shape != (d,):
        raise DomainError(f"x must be a length-{d} vector, got shape {x.shape}")
    _check_coordinate_size(x)
    if not np.all(x == np.round(x)):
        raise DomainError("x must have integer coordinates")
    return np.abs(x.astype(np.int64))


def green_bessel(p, x, rel_tol=1e-11):
    """Lattice Green function via the scaled-Bessel integral representation.

    The integrand ``t^(q-1) exp(-a^2 t) prod_j ibar(|x_j|, t/d) / Gamma(q)``
    is positive, so the integral is accumulated by log-sum-exp; the product
    over coordinates is a plain sum of log factors, one Bessel evaluation
    per distinct order.  For ``a > 0`` the map is ``t = exp(v)``.  At
    ``a = 0`` the integrand falls off only as ``t^(q-1-d/2)``, so the map
    is ``t = exp(2 sinh v)``, on which that tail falls off
    double-exponentially (1005 Bessel evaluations per point against 2306
    on the benchmark's 165 massless reference points).

    Parameters
    ----------
    p : GreenParams
    x : sequence of int
        Lattice point, length ``p.d``, each ``|x_j| < 2**53``.  Only ``|x_j|``
        matters.
    rel_tol : float
        Target relative error, in (0, 1e-6]; ``ConfigError`` otherwise.

    Returns
    -------
    GreenValue
        ``method="bessel_rep"``; ``est_error <= max(rel_tol, 8 eps |log_value|)
        * value``: a log cannot resolve differences below its own rounding,
        so past ``|log_value|`` of about 5.6e3 that floor sets the estimate.
        Where it exceeds 1e-6, the loosest ``rel_tol`` (``|log_value|`` past
        about 5.6e8), the node doubling is not trusted: ``AccuracyError``.
    """
    p.check_finite()
    orders = _check_lattice_point(x, p.d)
    a2 = p.a * p.a
    qm1 = p.q - 1.0
    lg_q = gammaln(p.q)
    d = float(p.d)
    unique_orders, multiplicity = np.unique(orders, return_counts=True)
    counts = dict(zip(unique_orders.tolist(), multiplicity.tolist()))

    def log_f(t):
        acc = qm1 * np.log(t) - a2 * t - lg_q
        td = t / d
        for nu, c in counts.items():
            acc = acc + c * log_scaled_bessel_i(nu, td)
        return acc

    log_val, rel_err = log_integral_semi_infinite(
        log_f, rel_tol, double_exponential=p.a == 0.0
    )
    if rel_err > _LOOSEST_REL_TOL:
        raise AccuracyError(f"log value {log_val:.6g} is too large to resolve "
                            f"(estimate {rel_err:.3g})", best=log_val, est_error=rel_err)
    return GreenValue.from_log(log_val, rel_err, "bessel_rep")


# Largest exponent the d = 1 closed form accepts: its sum has q terms.
_D1_CLOSED_MAX_Q = 10_000


def green_d1_closed(a, q, x):
    """Exact d = 1 lattice Green function for integer exponent q >= 1.

    Finite sum of q terms with binomial coefficients; exact up to floating
    point.  For q = 1 it collapses to ``exp(-m|x|)/sinh(m)`` with
    ``m = arccosh(1+a^2)``.  The terms are summed in log space, each binomial
    as a running sum of the logs of its factor ratios, so neither large q
    nor large |x| overflows.  q above ``_D1_CLOSED_MAX_Q`` and
    ``|x| >= 2**53`` are refused with ``DomainError``.
    """
    if not np.isfinite(a) or a <= 0.0:
        raise DomainError("a must be finite and > 0")
    if not float(q).is_integer() or q < 1:
        raise UnsupportedError("closed form requires integer q >= 1")
    if q > _D1_CLOSED_MAX_Q:
        raise DomainError(f"closed form sums q terms; q must be <= {_D1_CLOSED_MAX_Q}")
    q = int(q)
    x = np.asarray(x)
    _check_coordinate_size(x)
    x = int(abs(x.item()))
    m = mass(1, a)
    log_sinh = m + math.log(-math.expm1(-2.0 * m)) - math.log(2.0)
    # term ell: C(x+q-1, q-1-ell) C(q-1+ell, ell) (exp(-m) / (2 sinh m))^ell
    i = np.arange(1, q)
    log_c1 = np.concatenate(([0.0], np.cumsum(np.log((x + q - i) / i))))
    log_c2 = np.concatenate(([0.0], np.cumsum(np.log((q - 1 + i) / i))))
    ell = np.arange(q)
    log_terms = log_c1[::-1] + log_c2 + ell * (-m - math.log(2.0) - log_sinh)
    log_val = -m * x - q * log_sinh + _log_sum_exp(log_terms)
    return GreenValue.from_log(log_val, 0.0, "closed_d1")


# ---------------------------------------------------------------------------
# Fourier oracle
# ---------------------------------------------------------------------------

# Massless-case window: identically 1 inside _WINDOW_INNER, identically 0
# outside _WINDOW_OUTER (both well inside the Brillouin zone).
_WINDOW_INNER = 0.75
_WINDOW_OUTER = 2.25
_RADIAL_NODES = 90
_SPHERE_POLAR = 60
_SPHERE_AZIMUTH = 120
# Largest n^d grid, as bytes of complex128, that the oracle may build.  The
# arrays `_torus_sum` actually builds (the orthant or reduced weights, and
# the full n/4 check grid) are smaller than this bound; the acceptance grid
# needs at most n = 256 in d = 3.
_FOURIER_GRID_BYTES = 2 ** 29
# Relative error the oracle's estimate must meet.
_FOURIER_REL_TOL = 1e-8


def _smooth_window(r):
    """C-infinity bump: 1 on [0, inner], 0 on [outer, inf)."""
    s = (r - _WINDOW_INNER) / (_WINDOW_OUTER - _WINDOW_INNER)
    s = np.clip(s, 0.0, 1.0)
    out = np.empty_like(s)
    lo = s <= 0.0
    hi = s >= 1.0
    mid = ~(lo | hi)
    out[lo] = 1.0
    out[hi] = 0.0
    sm = s[mid]
    a = np.exp(-1.0 / (1.0 - sm))
    b = np.exp(-1.0 / sm)
    out[mid] = a / (a + b)
    return out


def _inv_power(z, q):
    """``z ** -q`` for real or complex z with positive real part.

    When q is a small integer or half-integer this is one reciprocal, a few
    products and at most one square root, several times cheaper than the
    general complex power and equal to it to rounding.
    """
    whole, frac = divmod(q, 1.0)
    if frac not in (0.0, 0.5) or whole > 8:
        return z ** -q
    acc = np.sqrt(z) if frac else z
    for _ in range(int(whole) - (0 if frac else 1)):
        acc = acc * z
    return 1.0 / acc


def _half_range(n):
    """Nodes ``2 pi j / n``, ``j = 0 .. n // 2``, and their multiplicities.

    A function even in k sums over all n nodes as these nodes, each counted
    for itself and its mirror ``n - j``: once at k = 0 and k = pi, twice
    elsewhere.
    """
    j = np.arange(n // 2 + 1)
    mult = np.full(j.size, 2.0)
    mult[0] = 1.0
    if n % 2 == 0:
        mult[-1] = 1.0
    return 2.0 * np.pi * j / n, mult


def _sphere_rule(d):
    """Unit-sphere surface rule folded onto the closed positive orthant.

    The azimuth rule (a multiple of four points) and the even-order
    Gauss-Legendre polar rule are closed under coordinate sign flips, and
    ``cos(k . x)`` summed over the sign-flip orbit of a node is the orbit
    size times ``prod_j cos(k_j x_j)``.  So only the nodes with nonnegative
    coordinates are kept, each weighted by its orbit size.

    Returns the node coordinates, one array per axis, and the weights, on a
    (polar, azimuth) grid for d = 3 and an azimuth grid for d = 2; for d = 1
    the sphere is the two points +-1.  The last coordinate of a d = 3 node
    depends on its polar angle only, so it is kept with a broadcast azimuth
    axis of length 1.
    """
    if d == 1:
        return [np.ones(1)], np.full(1, 2.0)
    quarter = _SPHERE_AZIMUTH // 4
    theta = 2.0 * np.pi * np.arange(quarter + 1) / _SPHERE_AZIMUTH
    w = np.full(quarter + 1, 4.0 * 2.0 * np.pi / _SPHERE_AZIMUTH)
    w[[0, -1]] *= 0.5  # on an axis: orbit of 2, not 4
    if d == 2:
        return [np.cos(theta), np.sin(theta)], w
    c, wc = roots_legendre(_SPHERE_POLAR)
    c, wc = c[c > 0.0], 2.0 * wc[c > 0.0]  # no node at c = 0: orbit of 2
    sin_phi = np.sqrt(1.0 - c ** 2)
    coords = [np.outer(sin_phi, np.cos(theta)), np.outer(sin_phi, np.sin(theta)), c[:, None]]
    return coords, np.outer(wc, w)


@lru_cache(maxsize=8)
def _torus_weight(d, a, q, n):
    """Integrand weights on the ``(n//2 + 1)^d`` orthant of the n^d torus grid.

    The weights are even in every axis, so the orthant of nodes ``2 pi j/n``
    with ``j <= n/2`` determines them; `_half_range` gives the
    multiplicities.  Also returns the mean weight over the whole grid, which
    is the sum of the weights' magnitudes (they are positive) over n^d.

    For a = 0 the smooth window factor ``1 - w(|k|)`` is already applied; the
    windowed part is added back by `_window_polar_integral`.
    """
    k, mult = _half_range(n)
    axes = np.meshgrid(*[k] * d, indexing="ij", sparse=True)
    denom = a * a + 1.0 - sum(np.cos(kj) for kj in axes) / d
    if a == 0.0:
        factor = 1.0 - _smooth_window(np.sqrt(sum(kj ** 2 for kj in axes)))
        denom.flat[0] = 1.0  # excluded point; its window factor is exactly 0
        weight = factor * _inv_power(denom, q)
    else:
        weight = _inv_power(denom, q)
    total = weight
    for _ in range(d):
        total = total @ mult
    return weight, float(total) / n ** d


def _torus_sum(d, a, q, x_abs, theta, n, check_imag=False):
    """Trapezoid sum of the defining integrand on the n^d contour ``k + i theta``.

    Shifting an axis extracts the decay ``exp(-theta_j x_j)`` analytically, so
    the sum S has moderate cancellation even when the Green function is tiny;
    ``theta = 0`` is the periodic sum.  The shifted symbol keeps a positive
    real part while ``mean_j cosh(theta_j) < 1 + a^2``, which the caller
    guarantees by undershooting the saddle shift.

    The sum runs on the part of the grid its symmetries leave.  An axis with
    ``theta_j = 0`` is even: it runs on its half range with phase
    ``mult * cos(k x_j)``.  The summand is Hermitian under ``k -> -k``, so the
    first shifted axis runs on its half range too and only the real part is
    kept; every other shifted axis, and with ``check_imag`` every axis, runs
    on the full grid with phase ``exp(i k x_j)``.  Without a shifted axis the
    weights are the cached orthant of `_torus_weight`, mirrored onto the full
    grid for the check; otherwise they are built per axis.

    Returns (S, scale): the value is ``exp(-theta . x) * Re S``, with S
    complex under ``check_imag``, else real.  scale is the mean weight
    magnitude over the whole grid, None for a shifted sum without the check.
    """
    shifted = [j for j in range(d) if theta[j] != 0.0]
    half, mult = _half_range(n)
    k = 2.0 * np.pi * np.arange(n) / n if check_imag or len(shifted) > 1 else None
    axes, phases = [], []
    for axis, xj in enumerate(x_abs):
        if check_imag or axis in shifted[1:]:
            axes.append(k)
            phases.append(np.exp(1j * k * xj))
        else:
            axes.append(half)
            phases.append(mult * (np.exp(1j * half * xj) if theta[axis] else np.cos(half * xj)))
    if shifted:
        denom = a * a + 1.0
        parts = [np.cosh(t) * np.cos(nodes) - 1j * np.sinh(t) * np.sin(nodes)
                 for t, nodes in zip(theta, axes)]
        for part in np.ix_(*parts):
            denom = denom - part / d
        weight = _inv_power(denom, q)
        scale = float(np.mean(np.abs(weight))) if check_imag else None
    else:
        weight, scale = _torus_weight(d, a, q, n)
        if check_imag:
            j = np.arange(n)
            weight = weight[np.ix_(*[np.minimum(j, n - j)] * d)]
    acc = weight
    for phase in reversed(phases):
        acc = acc @ phase
    s = acc / n ** d
    return (complex(s) if check_imag else float(s.real)), scale


@lru_cache(maxsize=8)
def _polar_geometry(d, q, n_radial):
    """Polar nodes on the closed positive orthant and their combined weights.

    Returns the node coordinates, one array per axis, and the weights, each
    with a leading radial axis followed by the directions of `_sphere_rule`
    (the coordinates broadcast against the weights).  The radial integrand
    is ``r^(d-1-2q)`` times a smooth function, handled by Gauss-Jacobi nodes
    with weight exponent ``d-1-2q``.
    """
    gamma = d - 1.0 - 2.0 * q
    nodes, wr = roots_jacobi(n_radial, 0.0, gamma)
    r = _WINDOW_OUTER * 0.5 * (nodes + 1.0)
    omega, wo = _sphere_rule(d)
    r = r.reshape((-1,) + (1,) * wo.ndim)
    kk = [r * omega_j for omega_j in omega]
    # 1 - mean_j cos(k_j) as a sum of squares: the nodes crowd towards r = 0,
    # where the difference form cancels
    ratio = sum(2.0 * np.sin(0.5 * kj) ** 2 for kj in kk) / (d * r ** 2)
    base = ratio ** (-q) * _smooth_window(r) * wr.reshape(r.shape) * wo
    scale = (0.5 * _WINDOW_OUTER) ** (gamma + 1.0) / (2.0 * np.pi) ** d
    return kk, scale * base


def _window_polar_integral(d, q, x):
    """Integral of the windowed singular part in polar coordinates.

    Returns (value, error).  The value takes ``2 * _RADIAL_NODES`` radial
    nodes.  The window is smooth but not analytic, so the radial rule
    converges more slowly than geometrically.  The error is the gap to
    ``_RADIAL_NODES`` nodes, summed in magnitude over the sphere directions
    the two rules share, so that gaps of opposite sign do not cancel.
    """
    radial = []
    for n_radial in (2 * _RADIAL_NODES, _RADIAL_NODES):
        kk, acc = _polar_geometry(d, q, n_radial)
        for kj, xj in zip(kk, x):
            if xj:
                acc = acc * np.cos(kj * xj)
        radial.append(acc.sum(axis=0))
    fine, coarse = radial
    return float(fine.sum()), float(np.abs(fine - coarse).sum())


def green_fourier_oracle(p, x):
    """Lattice Green function by direct Fourier quadrature (oracle route).

    For ``a > 0`` the integrand is smooth and periodic, so the trapezoid sum
    converges geometrically in the grid size.  Two refinements keep the
    oracle honest over the whole grid:

    * ``a = 0`` (requires ``d > 2q``): the singular part is removed with a
      smooth radial window and integrated separately in polar coordinates,
      once per point, on the sign-flip orbits of one orthant of the polar
      rule;
    * exponentially small values (``m_a |x|_a`` large): the contour is
      shifted to ``k + i theta`` with ``theta`` just short of the saddle
      shift, extracting the exponential decay analytically instead of
      letting it emerge from float cancellation.

    Both cases run through `_torus_sum`, with ``theta = 0`` when the
    contour is not shifted, and it does only the work the symmetries leave.
    The trapezoid sum is formed at n/4, n/2 and n; at n/4 it is formed on
    the full grid with complex phases, and its imaginary part is verified to
    be below 1e-12 (relative to the mean weight magnitude) before being
    discarded.

    The error estimate is the sum of three terms: the trapezoid error
    extrapolated from the three grid sizes, a rounding floor of a few eps
    times the mean weight magnitude (not the value, which cancellation can
    make far smaller), and for ``a = 0`` the radial-rule error of the polar
    part (see `_window_polar_integral`).  It must meet ``_FOURIER_REL_TOL``
    (1e-8) relative to the value, else ``AccuracyError`` is raised.

    The grid size is set from the decay rate for ``a > 0`` (fixed per d for
    ``a = 0``); the shifted-contour path retries once at double size if the
    estimate misses the tolerance.  A grid over ``_FOURIER_GRID_BYTES`` is
    never built: the oracle raises ``AccuracyError`` instead, carrying the
    previous size's ``best`` and ``est_error`` if one was tried.

    Parameters
    ----------
    p : GreenParams
    x : sequence of int

    Returns
    -------
    GreenValue with ``method="fourier"``.
    """
    p.check_finite()
    if p.d > 3:
        raise UnsupportedError("Fourier oracle supports d <= 3 only")
    xv = np.asarray(x)
    x_abs = _check_lattice_point(xv, p.d)

    theta = np.zeros(p.d)
    if p.a > 0.0:
        m = mass(p.d, p.a)
        if np.any(x_abs != 0):
            u = u_scale(x_abs.astype(float), p.d, p.a)
            saddle = np.arcsinh(x_abs * u)
            exponent = float(saddle @ x_abs)  # equals m_a |x|_a
            if exponent > 4.0:
                delta = min(0.5, 3.0 / exponent)
                theta = (1.0 - delta) * saddle
        # image terms decay like exp(-m (n - 2 |x|_inf))
        need = (-math.log(max(_FOURIER_REL_TOL, 1e-15)) + 8.0) / m + 2.0 * np.max(x_abs)
        auto = int(2 ** math.ceil(math.log2(max(need, 64.0))))
        sizes = (auto, 2 * auto) if theta.any() else (auto,)
    else:
        sizes = ({1: 4096, 2: 1024, 3: 192}[p.d],)
    log_prefactor = -float(theta @ x_abs)

    # The windowed singular part does not depend on n: integrate it once and
    # add its own error to the trapezoid estimate.
    polar, polar_err = (
        _window_polar_integral(p.d, p.q, x_abs) if p.a == 0.0 else (0.0, 0.0)
    )

    failure = None
    for n in sizes:
        if n ** p.d * 16 > _FOURIER_GRID_BYTES:
            raise AccuracyError(
                f"Fourier grid {n}^{p.d} is over the "
                f"{_FOURIER_GRID_BYTES}-byte budget",
                best=failure.best if failure else None,
                est_error=failure.est_error if failure else float("nan"),
            )
        s, scale = _torus_sum(p.d, p.a, p.q, x_abs, theta, n // 4, check_imag=True)
        coarse2, im = s.real + polar, abs(s.imag)
        if im > 1e-12 * (scale + abs(coarse2)):
            raise AccuracyError(f"imaginary part {im} too large", best=coarse2)
        coarse1 = _torus_sum(p.d, p.a, p.q, x_abs, theta, n // 2)[0] + polar
        val = _torus_sum(p.d, p.a, p.q, x_abs, theta, n)[0] + polar
        if val <= 0.0:
            failure = AccuracyError(
                "Fourier sum returned a nonpositive value", best=val
            )
            continue
        # The trapezoid error decays like exp(-c n), so the error at the
        # full grid is roughly the squared doubling-difference ratio applied
        # once more; the raw |val - coarse1| tracks the error of the *half*
        # grid and wildly overestimates the full one.  The image terms behind
        # that error carry an algebraic factor r^(q - (d+1)/2) as well, which
        # makes the extrapolation short by up to 2^((d+1)/2 - q) < 4 for
        # d <= 3.  Rounding is relative to the summed weight magnitudes, not
        # to the value, which can be far smaller after cancellation.
        diff1 = abs(val - coarse1)
        diff0 = abs(coarse1 - coarse2)
        floor = 4.0 * np.finfo(float).eps * max(scale, abs(val))
        if diff0 > 0.0 and diff1 < diff0:
            est = max(4.0 * diff1 * (diff1 / diff0) ** 2, floor)
        else:
            est = max(diff1, floor)
        est += polar_err
        if est <= _FOURIER_REL_TOL * abs(val):
            log_val = math.log(val) + log_prefactor
            value = math.exp(log_val)
            return GreenValue(
                value=value,
                log_value=log_val,
                est_error=float(est / abs(val)) * value,
                method="fourier",
            )
        failure = AccuracyError(
            f"Fourier grid {n} too coarse (est {est:.3e}, "
            f"half-grid diff {diff1:.3e})",
            best=val * math.exp(log_prefactor),
            est_error=est / abs(val),
        )
    raise failure
