"""Lattice Green function on Z^d by three independent routes.

``green_bessel``
    The production route: a one-dimensional integral of a power, an
    exponential killing factor, and a product of scaled modified Bessel
    functions, integrated in log space so values down to ``exp(-1000)``
    retain full relative accuracy.

``green_fourier_oracle``
    Direct tensor-product quadrature of the defining Fourier integral over
    the torus (periodic trapezoid rule, spectrally accurate for positive
    killing).  The massless case subtracts a smoothly windowed copy of the
    singular part and integrates it in polar coordinates.  Restricted to
    d <= 3; exists purely as a cross-check.

``green_d1_closed``
    Exact finite sum for d = 1 and integer exponent.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, roots_jacobi, roots_legendre

from .errors import AccuracyError, DivergenceError, DomainError, UnsupportedError
from .norm import mass, u_scale
from .quadrature import DEFAULT_QUADRATURE, log_integral_semi_infinite
from .special import DEFAULT_BESSEL_CONFIG, log_scaled_bessel_i

__all__ = [
    "GreenParams",
    "GreenValue",
    "green_bessel",
    "green_fourier_oracle",
    "green_d1_closed",
]


@dataclass(frozen=True)
class GreenParams:
    """Dimension, killing strength, and resolvent exponent."""

    d: int
    a: float
    q: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise DomainError("d must be an integer >= 1")
        if not np.isfinite(self.a) or self.a < 0.0:
            raise DomainError("a must be finite and >= 0")
        if not np.isfinite(self.q) or self.q <= 0.0:
            raise DomainError("q must be finite and > 0")

    def check_finite(self):
        """Raise if the Green function diverges for these parameters."""
        if self.a == 0.0 and self.d <= 2.0 * self.q:
            raise DivergenceError(
                f"massless Green function diverges for d={self.d} <= 2q={2 * self.q}"
            )


@dataclass(frozen=True)
class GreenValue:
    """A Green-function evaluation with its log-space twin and error estimate.

    ``value`` is ``exp(log_value)`` (0.0 once the log drops below the
    representable floor); ``est_error`` is an absolute error estimate on the
    same scale as ``value``.
    """

    value: float
    log_value: float
    est_error: float
    method: str

    @classmethod
    def from_log(cls, log_value, rel_error, method, abs_floor=1e-300):
        log_value = float(log_value)
        value = math.exp(log_value) if log_value > math.log(abs_floor) else 0.0
        return cls(
            value=value,
            log_value=log_value,
            est_error=float(abs(rel_error)) * value,
            method=method,
        )


def _check_lattice_point(x, d):
    x = np.asarray(x)
    if x.ndim == 0:
        x = x[None]
    if x.shape != (d,):
        raise DomainError(f"x must be a length-{d} vector, got shape {x.shape}")
    if not np.all(x == np.round(x)):
        raise DomainError("x must have integer coordinates")
    return np.abs(x.astype(np.int64))


def green_bessel(
    p,
    x,
    cfg=DEFAULT_QUADRATURE,
    bessel_config=DEFAULT_BESSEL_CONFIG,
):
    """Lattice Green function via the scaled-Bessel integral representation.

    The integrand ``t^(q-1) exp(-a^2 t) prod_j ibar(|x_j|, t/d) / Gamma(q)``
    is positive, so the integral is accumulated by log-sum-exp under the
    transform selected in ``cfg`` (log substitution by default); the product
    over coordinates is a plain sum of log factors.

    Parameters
    ----------
    p : GreenParams
    x : sequence of int
        Lattice point, length ``p.d``.  Only ``|x_j|`` matters.
    cfg : QuadratureConfig

    Returns
    -------
    GreenValue
        ``method="bessel_rep"``; ``est_error <= cfg.rel_tol * value``.
    """
    p.check_finite()
    orders = _check_lattice_point(x, p.d)
    a2 = p.a * p.a
    qm1 = p.q - 1.0
    lg_q = gammaln(p.q)
    d = float(p.d)
    unique_orders = np.unique(orders)
    counts = {int(nu): int(np.sum(orders == nu)) for nu in unique_orders}

    def log_f(t):
        acc = qm1 * np.log(t) - a2 * t - lg_q
        td = t / d
        for nu, c in counts.items():
            acc = acc + c * log_scaled_bessel_i(nu, td, bessel_config)
        return acc

    log_val, rel_err = log_integral_semi_infinite(log_f, cfg)
    return GreenValue.from_log(log_val, rel_err, "bessel_rep", cfg.abs_floor)


def green_d1_closed(a, q, x):
    """Exact d = 1 lattice Green function for integer exponent q >= 1.

    Finite sum with binomial coefficients; exact up to floating point.  For
    q = 1 it collapses to ``exp(-m|x|)/sinh(m)`` with ``m = arccosh(1+a^2)``.
    """
    if not np.isfinite(a) or a <= 0.0:
        raise DomainError("a must be finite and > 0")
    if not float(q).is_integer() or q < 1:
        raise UnsupportedError("closed form requires integer q >= 1")
    q = int(q)
    x = int(abs(np.asarray(x).item()))
    m = mass(1, a)
    sinh_m = math.sinh(m)
    if sinh_m == 0.0:
        raise AccuracyError(f"a = {a!r} too small: a^2 underflows and the mass is 0")
    ratio = math.exp(-m) / (2.0 * sinh_m)
    total = 0.0
    for ell in range(q):
        total += (
            math.comb(x + q - 1, q - 1 - ell)
            * math.comb(q - 1 + ell, ell)
            * ratio ** ell
        )
    log_val = -m * x - q * math.log(sinh_m) + math.log(total)
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
# acceptance grid needs at most 256^3 (256 MiB); one evaluation holds a few
# such arrays at once.
_FOURIER_GRID_BYTES = 2 ** 29


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


def _sphere_rule(d):
    """Quadrature nodes/weights for the unit sphere surface measure."""
    if d == 2:
        theta = 2.0 * np.pi * np.arange(_SPHERE_AZIMUTH) / _SPHERE_AZIMUTH
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        w = np.full(_SPHERE_AZIMUTH, 2.0 * np.pi / _SPHERE_AZIMUTH)
        return pts, w
    c, wc = roots_legendre(_SPHERE_POLAR)
    theta = 2.0 * np.pi * np.arange(_SPHERE_AZIMUTH) / _SPHERE_AZIMUTH
    sin_phi = np.sqrt(1.0 - c ** 2)
    pts = np.stack(
        [
            np.outer(sin_phi, np.cos(theta)).ravel(),
            np.outer(sin_phi, np.sin(theta)).ravel(),
            np.repeat(c, _SPHERE_AZIMUTH),
        ],
        axis=1,
    )
    w = np.repeat(wc, _SPHERE_AZIMUTH) * (2.0 * np.pi / _SPHERE_AZIMUTH)
    return pts, w


@lru_cache(maxsize=8)
def _torus_weight(d, a, q, n):
    """Integrand weights on the n^d torus grid (flattened singular point = 0).

    For a = 0 the smooth window factor ``1 - w(|k|)`` is already applied; the
    windowed part is added back by `_window_polar_integral`.
    """
    k = 2.0 * np.pi * np.arange(n) / n
    cos_k = np.cos(k)
    shape = [1] * d
    dhat = np.zeros([n] * d)
    for axis in range(d):
        shape_axis = shape.copy()
        shape_axis[axis] = n
        dhat = dhat + cos_k.reshape(shape_axis)
    denom = a * a + 1.0 - dhat / d
    if a == 0.0:
        k_wrapped = np.where(k > np.pi, k - 2.0 * np.pi, k)
        r2 = np.zeros([n] * d)
        for axis in range(d):
            shape_axis = shape.copy()
            shape_axis[axis] = n
            r2 = r2 + (k_wrapped ** 2).reshape(shape_axis)
        factor = 1.0 - _smooth_window(np.sqrt(r2))
        denom.flat[0] = 1.0  # excluded point; its window factor is exactly 0
        return factor / denom ** q
    return 1.0 / denom ** q


def _torus_sum_shifted(d, a, q, x_abs, theta, n):
    """Trapezoid sum along the shifted contour ``k -> k + i theta``.

    Shifting each axis into the complex plane extracts the exponential decay
    ``exp(-sum_j theta_j x_j)`` analytically, so the returned sum S has
    moderate cancellation even when the Green function itself is tiny.  The
    real part of the shifted symbol stays positive as long as
    ``mean_j cosh(theta_j) < 1 + a^2``, which the caller guarantees by
    undershooting the saddle shift.

    Returns (S, imag_scale) with S complex; the value is
    ``exp(-theta . x) * Re S``.
    """
    k = 2.0 * np.pi * np.arange(n) / n
    shape = [1] * d
    denom = np.zeros([n] * d, dtype=complex)
    for axis in range(d):
        shape_axis = shape.copy()
        shape_axis[axis] = n
        part = np.cosh(theta[axis]) * np.cos(k) - 1j * np.sinh(theta[axis]) * np.sin(k)
        denom = denom + part.reshape(shape_axis)
    denom = (a * a + 1.0) - denom / d
    weight = denom ** (-q)
    scale = float(np.mean(np.abs(weight)))
    acc = weight
    for xj in reversed(list(x_abs)):
        acc = acc @ np.exp(1j * k * xj)
    return acc / n ** d, scale


def _torus_sum(d, a, q, x, n, check_imag=False):
    """Periodic trapezoid sum of the defining integrand on an n^d grid.

    The weights are even in every axis, so the sum is real; it is computed by
    contracting the weight tensor with per-axis cosine vectors.  With
    ``check_imag`` the full complex-phase sum is formed instead and the
    imaginary part returned for verification.
    """
    weight = _torus_weight(d, a, q, n)
    k = 2.0 * np.pi * np.arange(n) / n
    if check_imag:
        total = weight.astype(complex)
        shape = [1] * d
        for axis, xj in enumerate(x):
            shape_axis = shape.copy()
            shape_axis[axis] = n
            total = total * np.exp(1j * k * xj).reshape(shape_axis)
        s = total.sum() / n ** d
        return float(s.real), float(abs(s.imag))
    acc = weight
    for xj in reversed(list(x)):
        acc = acc @ np.cos(k * xj)
    return float(acc) / n ** d, 0.0


@lru_cache(maxsize=8)
def _polar_geometry(d, q):
    """Flattened polar nodes and combined weights for the windowed part.

    The radial integrand is ``r^(d-1-2q)`` times a smooth function, handled
    exactly by Gauss-Jacobi nodes with weight exponent ``d-1-2q``.
    """
    gamma = d - 1.0 - 2.0 * q
    nodes, wr = roots_jacobi(_RADIAL_NODES, 0.0, gamma)
    r = _WINDOW_OUTER * 0.5 * (nodes + 1.0)
    omega, wo = _sphere_rule(d)
    kk = r[:, None, None] * omega[None, :, :]  # (nr, ns, d)
    dhat = np.mean(np.cos(kk), axis=2)
    ratio = (1.0 - dhat) / (r ** 2)[:, None]  # smooth, -> 1/(2d) at r=0
    base = ratio ** (-q) * (_smooth_window(r) * wr)[:, None] * wo[None, :]
    scale = (0.5 * _WINDOW_OUTER) ** (gamma + 1.0) / (2.0 * np.pi) ** d
    return kk.reshape(-1, d), (scale * base).ravel()


def _window_polar_integral(d, q, x):
    """Integral of the windowed singular part in polar coordinates."""
    kk, base = _polar_geometry(d, q)
    return float(base @ np.cos(kk @ np.asarray(x, dtype=float)))


def green_fourier_oracle(p, x, grid_n=None, rel_tol=1e-8):
    """Lattice Green function by direct Fourier quadrature (oracle route).

    For ``a > 0`` the integrand is smooth and periodic, so the trapezoid sum
    converges geometrically in the grid size.  Two refinements keep the
    oracle honest over the whole grid:

    * ``a = 0`` (requires ``d > 2q``): the singular part is removed with a
      smooth radial window and integrated separately in polar coordinates;
    * exponentially small values (``m_a |x|_a`` large): the contour is
      shifted to ``k + i theta`` with ``theta`` just short of the saddle
      shift, extracting the exponential decay analytically instead of
      letting it emerge from float cancellation.

    The imaginary part of the trapezoid sum is verified to be below 1e-12
    (relative to the summed weight magnitude) before being discarded.

    Parameters
    ----------
    p : GreenParams
    x : sequence of int
    grid_n : int, optional
        Nodes per axis (>= 64).  Default sizes the grid from the decay rate;
        the shifted-contour path retries once at double size if the error
        estimate misses ``rel_tol``.  A grid over the byte budget is never
        built: the oracle raises ``AccuracyError`` instead, carrying the
        previous size's ``best`` and ``est_error`` if one was tried.

    Returns
    -------
    GreenValue with ``method="fourier"``.
    """
    p.check_finite()
    if p.d > 3:
        raise UnsupportedError("Fourier oracle supports d <= 3 only")
    xv = np.asarray(x)
    x_abs = _check_lattice_point(xv, p.d)

    theta = None
    log_prefactor = 0.0
    if p.a > 0.0:
        m = mass(p.d, p.a)
        if np.any(x_abs != 0):
            u = u_scale(x_abs.astype(float), p.d, p.a)
            saddle = np.arcsinh(x_abs * u)
            exponent = float(saddle @ x_abs)  # equals m_a |x|_a
            if exponent > 4.0:
                delta = min(0.5, 3.0 / exponent)
                theta = (1.0 - delta) * saddle
                log_prefactor = -float(theta @ x_abs)

    if grid_n is None:
        if p.a > 0.0:
            m = mass(p.d, p.a)
            # image terms decay like exp(-m (n - 2 |x|_inf))
            need = (-math.log(max(rel_tol, 1e-15)) + 8.0) / m + 2.0 * np.max(x_abs)
            auto = int(2 ** math.ceil(math.log2(max(need, 64.0))))
            sizes = (auto, 2 * auto) if theta is not None else (auto,)
        else:
            sizes = ({1: 4096, 2: 1024, 3: 192}[p.d],)
    else:
        if grid_n < 64:
            raise DomainError("grid_n must be >= 64")
        sizes = (int(grid_n),)

    def evaluate(n, check_imag=False):
        if theta is not None:
            s, scale = _torus_sum_shifted(p.d, p.a, p.q, x_abs, theta, n)
            return float(s.real), (float(abs(s.imag)), scale)
        val, im = _torus_sum(p.d, p.a, p.q, x_abs, n, check_imag=check_imag)
        if p.a == 0.0:
            val += _window_polar_integral(p.d, p.q, x_abs)
        return val, (im, 1.0)

    failure = None
    for n in sizes:
        if n ** p.d * 16 > _FOURIER_GRID_BYTES:
            raise AccuracyError(
                f"Fourier grid {n}^{p.d} is over the "
                f"{_FOURIER_GRID_BYTES}-byte budget",
                best=failure.best if failure else None,
                est_error=failure.est_error if failure else float("nan"),
            )
        coarse2, (im, scale) = evaluate(n // 4, check_imag=True)
        if abs(im) > 1e-12 * (scale + abs(coarse2)):
            raise AccuracyError(f"imaginary part {im} too large", best=coarse2)
        coarse1, _ = evaluate(n // 2)
        val, _ = evaluate(n)
        if val <= 0.0:
            failure = AccuracyError(
                "Fourier sum returned a nonpositive value", best=val
            )
            continue
        # The trapezoid error decays like exp(-c n), so the error at the
        # full grid is roughly the squared doubling-difference ratio applied
        # once more; the raw |val - coarse1| tracks the error of the *half*
        # grid and wildly overestimates the full one.
        diff1 = abs(val - coarse1)
        diff0 = abs(coarse1 - coarse2)
        floor = 4.0 * np.finfo(float).eps * abs(val)
        if diff0 > 0.0 and diff1 < diff0:
            est = max(diff1 * (diff1 / diff0) ** 2, floor)
        else:
            est = max(diff1, floor)
        if est <= rel_tol * abs(val):
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
