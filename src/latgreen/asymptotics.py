"""Asymptotic decay estimators for the lattice Green function.

Four regimes are covered, each exposed as a factored estimate
(amplitude x power factor x exponential) so ratio diagnostics can see which
piece drives convergence:

I   anisotropic Ornstein-Zernike   fixed killing a > 0, distance -> infinity
II  isotropic Ornstein-Zernike     a -> 0 with a*n -> infinity, a^3 n -> 0
III massive continuum              a = s/n, s > 0
IV  massless continuum             a = 0 (needs d > 2q)

Also here: the convexity diagnostics of the Laplace exponent underlying
regime I (``gbar_curve``, ``gbar_d2``), the direction-dependent amplitude
constant, and the uniform power-times-exponential upper bound with
caller-supplied constants.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .continuum import ContinuumParams, log_green_continuum
from .errors import DomainError
from .lattice import green_bessel
from .norm import a_norm, mass, norm_context
from .records import GreenParams
from .special import psi


REGIME_I = "I_anisotropic_OZ"
REGIME_II = "II_isotropic_OZ"
REGIME_III = "III_massive_continuum"
REGIME_IV = "IV_massless_continuum"


@dataclass(frozen=True)
class RegimeEstimate:
    """Factored asymptotic estimate: ``value = amplitude * power_factor *
    exp(exp_exponent)``, with a log-space twin for deep-decay sweeps."""

    regime: str
    amplitude: float
    power_factor: float
    exp_exponent: float
    value: float
    log_value: float


def _estimate(regime, log_amplitude, log_power, exp_exponent):
    log_amplitude = float(log_amplitude)
    log_power = float(log_power)
    exp_exponent = float(exp_exponent)
    log_value = log_amplitude + log_power + exp_exponent
    return RegimeEstimate(
        regime=regime,
        amplitude=math.exp(log_amplitude),
        power_factor=math.exp(log_power),
        exp_exponent=exp_exponent,
        value=math.exp(log_value) if log_value > -745.0 else 0.0,
        log_value=log_value,
    )


def oz_limit_constant(d, q):
    """Direction-independent small-killing limit of the OZ amplitude:
    ``d^q / ((2 pi)^((d-1)/2) Gamma(q))``."""
    if int(d) != d or d < 1:
        raise DomainError("d must be an integer >= 1")
    if q <= 0.0:
        raise DomainError("q must be > 0")
    return math.exp(
        q * math.log(d) - 0.5 * (d - 1.0) * math.log(2.0 * math.pi) - gammaln(q)
    )


def _direction_factor(x_hat, u_hat):
    """Curvature factor of the OZ amplitude for a unit-norm direction."""
    x2 = np.asarray(x_hat, dtype=float) ** 2
    cross = np.sqrt(1.0 + u_hat * u_hat * x2)
    total = float(np.sum(x2 * np.prod(cross) / cross))
    return 1.0 / math.sqrt(total)


def _log_oz_constant(d, q, ctx):
    """log of the OZ amplitude constant for the direction of ``ctx``."""
    beta = 0.5 * (d - 1.0 - 2.0 * q)
    return (
        math.log(oz_limit_constant(d, q))
        + math.log(_direction_factor(ctx.x_hat, ctx.u_hat))
        + beta * (math.log(ctx.u_hat) - math.log(ctx.m_a))
    )


def oz_constant(d, q, a, x_hat):
    """Direction-dependent OZ amplitude constant.

    ``x_hat`` must be normalized in the anisotropic norm (``|x_hat|_a = 1``
    within 1e-10).  Tends to :func:`oz_limit_constant` as ``a -> 0``.
    """
    if a <= 0.0:
        raise DomainError("a must be > 0")
    ctx = norm_context(x_hat, d, a)
    if abs(ctx.norm - 1.0) > 1e-10:
        raise DomainError(f"x_hat must have unit anisotropic norm, got {ctx.norm}")
    return math.exp(_log_oz_constant(d, q, ctx))


def oz_estimate(p, x, n):
    """Regime-I (anisotropic OZ) estimate of the Green function at ``n x``.

    All pieces are exposed: ``amplitude`` carries the direction constant and
    the mass power, ``power_factor`` the distance power, ``exp_exponent``
    equals ``-m_a n |x|_a``.
    """
    if p.a <= 0.0:
        raise DomainError("regime I needs a > 0")
    if n < 1:
        raise DomainError("n must be >= 1")
    ctx = norm_context(np.asarray(x, dtype=float), p.d, p.a)
    beta = 0.5 * (p.d - 1.0 - 2.0 * p.q)
    gamma = 0.5 * (p.d + 1.0 - 2.0 * p.q)
    log_amplitude = _log_oz_constant(p.d, p.q, ctx) + beta * math.log(ctx.m_a)
    log_power = -gamma * math.log(n * ctx.norm)
    return _estimate(REGIME_I, log_amplitude, log_power, -ctx.m_a * n * ctx.norm)


def oz_isotropic_estimate(p, x, n):
    """Regime-II (isotropic OZ) estimate: Euclidean norm and limit constant.

    Valid when the killing vanishes slowly (``a n -> infinity``) but fast
    enough that ``a^3 n -> 0``; otherwise the neglected ``O(a^2)`` relative
    error in the exponent is visible.
    """
    if p.a <= 0.0:
        raise DomainError("regime II needs a > 0")
    if n < 1:
        raise DomainError("n must be >= 1")
    r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    if r == 0.0:
        raise DomainError("x must be nonzero")
    root = math.sqrt(2.0 * p.d) * p.a
    beta = 0.5 * (p.d - 1.0 - 2.0 * p.q)
    gamma = 0.5 * (p.d + 1.0 - 2.0 * p.q)
    log_amplitude = math.log(oz_limit_constant(p.d, p.q)) + beta * math.log(root)
    log_power = -gamma * math.log(n * r)
    return _estimate(REGIME_II, log_amplitude, log_power, -root * n * r)


def critical_estimate(p, x, n, s):
    """Regime-III/IV estimate ``n^(2q-d) G_s(x)`` for killing ``a = s/n``."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if s < 0.0:
        raise DomainError("s must be >= 0")
    cp = ContinuumParams(p.d, p.q, s)
    log_g = log_green_continuum(cp, x)
    regime = REGIME_III if s > 0.0 else REGIME_IV
    return _estimate(regime, log_g, -(p.d - 2.0 * p.q) * math.log(n), 0.0)


# ---------------------------------------------------------------------------
# Laplace-exponent diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GbarDiagnostics:
    """One sample of the rescaled Laplace exponent and its companions.

    ``gbar`` is convex with its minimum exactly at ``y = 1`` where it equals
    ``m_a |x|_a``; ``gbar_d2_at_1`` is the analytic second derivative there;
    ``hbar`` is the smooth prefactor of the rescaled integrand.
    """

    y: float
    gbar: float
    gbar_d2_at_1: float
    hbar: float


def _gbar_context(d, a, x):
    x = np.abs(np.asarray(x, dtype=float))
    if np.all(x == 0.0):
        raise DomainError("x must be nonzero")
    return norm_context(x, d, a), x[x > 0.0]


def _gbar_value(ctx, nonzero, d, a, y):
    v = y / ctx.u
    return d * a * a * v - float(np.sum(nonzero * psi(v / nonzero)))


def gbar_d2(d, a, x, y):
    """Analytic second derivative of the rescaled Laplace exponent."""
    ctx, _ = _gbar_context(d, a, x)
    xh2 = ctx.x_hat ** 2
    terms = xh2 * y ** -3.0 / np.sqrt(1.0 + ctx.u_hat ** 2 * xh2 * y ** -2.0)
    return ctx.norm * ctx.u_hat * float(np.sum(terms))


def gbar_curve(d, a, x, y_grid):
    """Sample the rescaled Laplace exponent along a positive grid.

    The prefactor ``hbar`` is that of ``q = 1`` in the large-distance limit:
    ``y^(-1/2)`` per flat (zero) coordinate of ``x``, where the scaled
    Bessel factor of order 0 tends to its limit, times
    ``(y^2 + u_hat^2 x_hat_j^2)^(-1/4)`` per nonzero coordinate.

    Parameters
    ----------
    d, a, x : geometry, with ``a > 0`` and ``x`` nonzero.
    y_grid : positive rescaled integration variable values.

    Returns
    -------
    list of GbarDiagnostics
    """
    ctx, nonzero = _gbar_context(d, a, x)
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.size == 0:
        raise DomainError("y_grid must be nonempty")
    if np.any(y_grid <= 0.0) or not np.all(np.isfinite(y_grid)):
        raise DomainError("y values must be positive")
    r = len(nonzero)
    flat = d - r
    d2 = gbar_d2(d, a, x, 1.0)
    xh_nonzero = nonzero * ctx.u / ctx.u_hat  # nonzero coords of x_hat
    out = []
    for y in y_grid:
        lg_h = -0.5 * flat * math.log(y) - 0.25 * float(
            np.sum(np.log(y * y + ctx.u_hat ** 2 * xh_nonzero ** 2))
        )
        out.append(
            GbarDiagnostics(
                y=float(y),
                gbar=_gbar_value(ctx, nonzero, d, a, float(y)),
                gbar_d2_at_1=d2,
                hbar=math.exp(lg_h),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Uniform bound
# ---------------------------------------------------------------------------


def uniform_bound_rhs(d, q, a, x, kappa1, kappa):
    """Uniform-in-``a`` upper bound ``kappa1 |x|_a^-(d-2q) exp(-kappa m|x|_a)``.

    At ``a = 0`` the norm degenerates to the Euclidean norm and the mass to
    zero, leaving the pure power law.  The constants are supplied by the
    caller (they exist but are not pinned analytically); ``kappa`` must lie
    in (0, 1).
    """
    if not (0.0 < kappa < 1.0):
        raise DomainError("kappa must lie in (0, 1)")
    if not kappa1 > 0.0:  # nan-safe
        raise DomainError("kappa1 must be positive")
    if int(d) != d or d <= 2:
        raise DomainError("d must be an integer > 2")
    if int(q) != q or q < 1 or d <= 2 * q:
        raise DomainError("q must be a positive integer with d > 2q")
    if a < 0.0:
        raise DomainError("a must be >= 0")
    xv = np.asarray(x, dtype=float)
    if np.all(xv == 0.0):
        raise DomainError("x must be nonzero")
    if a == 0.0:
        nrm = float(np.linalg.norm(xv))
        m = 0.0
    else:
        nrm = a_norm(xv, d, a)
        m = mass(d, a)
    return kappa1 * nrm ** -(d - 2.0 * q) * math.exp(-kappa * m * nrm)


@dataclass(frozen=True)
class BoundReport:
    """Worst-case ratio of the Green function to the bound over a sweep."""

    holds: bool
    worst_ratio: float
    worst_a: float
    worst_x: tuple
    n_checked: int


def uniform_bound_check(d, q, kappa, kappa1, a_values, box):
    """Sweep ``a`` and the box and report the max of value / bound.

    Exploits permutation and sign symmetry: only sorted nonnegative points
    are evaluated.
    """
    if int(d) != d or d < 1:
        raise DomainError("d must be an integer >= 1")
    if box < 1:
        raise DomainError("box must be >= 1")
    tasks = [
        (float(a), x) for a in a_values for x in _sorted_box_points(d, box)
    ]

    worst = -math.inf
    arg = (float("nan"), ())
    for a, x in tasks:
        val = green_bessel(GreenParams(d, a, q), x)
        ratio = val.value / uniform_bound_rhs(d, q, a, x, kappa1, kappa)
        if ratio > worst:
            worst = ratio
            arg = (a, tuple(int(c) for c in x))
    return BoundReport(
        holds=worst <= 1.0,
        worst_ratio=worst,
        worst_a=arg[0],
        worst_x=arg[1],
        n_checked=len(tasks),
    )


def _sorted_box_points(d, box):
    """Nonzero lattice points with sorted nonnegative coordinates <= box."""
    pts = []

    def rec(prefix, lo):
        if len(prefix) == d:
            if any(prefix):
                pts.append(tuple(prefix))
            return
        for c in range(lo, box + 1):
            rec(prefix + [c], c)

    rec([], 0)
    return pts

