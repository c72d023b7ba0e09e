"""Continuum Green functions on R^d.

The mass-``s`` Green function of the normalized continuum Laplacian admits
two independent evaluation routes:

* a closed form in terms of the modified Bessel function of the second kind
  (the production route, no quadrature beyond the K integral itself);
* the time integral of the heat kernel weighted by ``t^(q-1) exp(-s^2 t)``
  (kept as a cross-validation route).

Both are implemented in log space; the massless case is a pure power law.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DivergenceError, DomainError
from .quadrature import log_integral_semi_infinite
from .special import log_bessel_k


@dataclass(frozen=True)
class ContinuumParams:
    """Dimension, exponent, and continuum mass."""

    d: int
    q: float
    s: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise DomainError("d must be an integer >= 1")
        if not np.isfinite(self.q) or self.q <= 0.0:
            raise DomainError("q must be finite and > 0")
        if not np.isfinite(self.s) or self.s < 0.0:
            raise DomainError("s must be finite and >= 0")

    def check_finite(self):
        if self.s == 0.0 and self.d <= 2.0 * self.q:
            raise DivergenceError(
                f"massless continuum Green function diverges for "
                f"d={self.d} <= 2q={2 * self.q}"
            )


def _radius(x, d):
    xv = np.asarray(x, dtype=float)
    if xv.ndim == 0:
        xv = xv[None]
    if xv.shape != (d,):
        raise DomainError(f"x must be a length-{d} vector")
    if not np.all(np.isfinite(xv)):
        raise DomainError("x must be finite")
    return float(np.linalg.norm(xv))


def log_green_continuum(p, x):
    """log of the continuum Green function (see :func:`green_continuum`)."""
    p.check_finite()
    r = _radius(x, p.d)
    if r == 0.0:
        raise DomainError("continuum Green function is singular at x = 0")
    d, q, s = float(p.d), p.q, p.s
    if s == 0.0:
        return float(
            q * math.log(d)
            + gammaln((d - 2.0 * q) / 2.0)
            - q * math.log(2.0)
            - 0.5 * d * math.log(math.pi)
            - gammaln(q)
            - (d - 2.0 * q) * math.log(r)
        )
    # scaling relation onto the unit-mass closed form
    z = math.sqrt(2.0 * d) * s * r
    half = (d - 2.0 * q) / 2.0
    return float(
        math.log(2.0)
        + q * math.log(d)
        - gammaln(q)
        - 0.5 * d * math.log(2.0 * math.pi)
        + (d - 2.0 * q) * math.log(s)
        + half * (0.5 * math.log(2.0 * d) - math.log(s * r))
        + log_bessel_k(half, z)
    )


def green_continuum(p, x):
    """Continuum Green function, massive or massless.

    Massive (``s > 0``): closed form through the modified Bessel function of
    the second kind, valid in every dimension and for every ``q > 0``.
    Massless (``s = 0``, needs ``d > 2q``): the exact power law in ``|x|_2``.
    Rotationally invariant by construction, continuous in ``s`` at 0.
    """
    return math.exp(log_green_continuum(p, x))


def green_continuum_time_integral(p, x):
    """Cross-validation route: heat-kernel time integral.

    Evaluates ``int_0^inf t^(q-1) exp(-s^2 t) p_t(x) dt / Gamma(q)`` with the
    log-space trapezoid engine; independent of the Bessel-K closed form used
    by :func:`green_continuum`.
    """
    p.check_finite()
    r = _radius(x, p.d)
    if r == 0.0:
        raise DomainError("continuum Green function is singular at x = 0")
    d, q, s2 = float(p.d), p.q, p.s * p.s
    lg_q = gammaln(q)
    half_d = 0.5 * d
    c = half_d * math.log(d / (2.0 * math.pi))
    dr2 = 0.5 * d * r * r

    def log_f(t):
        return (q - 1.0) * np.log(t) - s2 * t + c - half_d * np.log(t) - dr2 / t - lg_q

    log_val, _ = log_integral_semi_infinite(log_f)
    return math.exp(log_val)
