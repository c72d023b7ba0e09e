"""The killing-dependent anisotropic norm and its geometry.

For killing strength ``a`` the exponential decay of the lattice Green
function is governed by a norm ``|x|_a`` that interpolates between the
Euclidean norm (small ``a``) and the l1 norm (large ``a``):

* ``mass(d, a)``: decay rate ``arccosh(1 + d a^2)``;
* ``u_scale(x, d, a)``: the implicit scale ``u`` solving
  ``mean_i sqrt(1 + x_i^2 u^2) = 1 + a^2``;
* ``a_norm(x, d, a)``: ``sum_i x_i arcsinh(x_i u) / mass``.

The scale solver is a bracketed, safeguarded Newton iteration on a convex
increasing function, vectorized over batches of points because the property
tests sweep tens of thousands of vectors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "NormContext",
    "mass",
    "u_scale",
    "a_norm",
    "a_norm_batch",
    "u_scale_batch",
    "norm_context",
    "unit_ball_boundary",
    "unit_ball_rows",
]


@dataclass(frozen=True)
class NormContext:
    """Derived quantities of the anisotropic norm for a fixed (d, a, x).

    ``u_hat = norm * u`` is the scale of the normalized direction
    ``x_hat = x / norm``; it is what the decay-amplitude formulas consume.
    """

    d: int
    a: float
    m_a: float
    x: np.ndarray
    u: float
    norm: float
    x_hat: np.ndarray
    u_hat: float


def mass(d, a):
    """Inverse correlation length ``arccosh(1 + d a^2)``.

    Zero exactly at ``a = 0`` and strictly increasing in ``a``; evaluated via
    ``log1p`` so the small-``a`` behaviour ``sqrt(2d) a`` keeps full relative
    precision.  Raises ``DomainError`` once ``d a^2`` is too large for the
    formula (about 1e154) to stay finite.
    """
    if int(d) != d or d < 1:
        raise DomainError("d must be an integer >= 1")
    if not np.isfinite(a) or a < 0.0:
        raise DomainError("a must be finite and >= 0")
    eps = d * a * a
    m = math.log1p(eps + math.sqrt(eps * (2.0 + eps)))
    if not math.isfinite(m):
        raise DomainError(f"a = {a!r} too large: the mass overflows for d = {d}")
    return m


def _as_points(x, d):
    pts = np.asarray(x, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != d:
        raise DomainError(f"x must have {d} coordinates, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("x must be finite")
    return pts, squeeze


def u_scale_batch(points, d, a):
    """Vectorized implicit-scale solve; ``points`` is an (n, d) array.

    Newton from the provable upper bracket ``sinh(m_a)/max_i |x_i|`` (the
    target function is convex and increasing, so the iteration decreases
    monotonically onto the root); the lower bracket ``sqrt(2d) a / |x|_2``
    guards the safeguard clip.  Each row is divided by its largest
    coordinate first and the root rescaled after (``u(t x) = u(x)/|t|``), so
    squares of huge or tiny coordinates neither overflow nor underflow.
    """
    if not np.isfinite(a) or a <= 0.0:
        raise DomainError("a must be finite and > 0")
    pts = np.abs(np.asarray(points, dtype=float))
    if np.any(np.all(pts == 0.0, axis=1)):
        raise DomainError("u is undefined at x = 0")
    row_max = pts.max(axis=1)
    pts = pts / row_max[:, None]
    da2 = d * a * a
    sinh_m = math.sinh(mass(d, a))
    lo = math.sqrt(2.0 * d) * a / np.linalg.norm(pts, axis=1)
    u = np.full(len(pts), sinh_m)
    x2 = pts * pts

    def residual(uv):
        # sum_i (sqrt(1 + x_i^2 u^2) - 1) - d a^2, cancellation-free
        y = x2 * uv[:, None] ** 2
        return np.sum(y / (1.0 + np.sqrt(1.0 + y)), axis=1) - da2

    for _ in range(80):
        y = x2 * u[:, None] ** 2
        root = np.sqrt(1.0 + y)
        f = np.sum(y / (1.0 + root), axis=1) - da2
        fp = np.sum(x2 * u[:, None] / root, axis=1)
        step = f / fp
        u_new = np.maximum(u - step, lo)
        done = np.abs(step) <= 1e-16 * u
        u = u_new
        if np.all(done):
            break
    else:
        res = np.abs(residual(u)) / (d * (1.0 + a * a))
        if not np.max(res) <= 1e-13:  # nan-safe
            raise AccuracyError(
                "implicit-scale Newton did not converge", best=u / row_max
            )
    return u / row_max


def u_scale(x, d, a):
    """Implicit scale ``u_a(x)`` for one nonzero point.

    Unique root of ``mean_i sqrt(1 + x_i^2 u^2) = 1 + a^2`` (the left side is
    strictly increasing in ``u``).  Scales like ``u_a(t x) = u_a(x)/|t|``.
    """
    pts, _ = _as_points(x, d)
    return float(u_scale_batch(pts, d, a)[0])


def a_norm_batch(points, d, a):
    """Anisotropic norms of an (n, d) batch; rows of zeros map to 0."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros(len(pts))
    nonzero = ~np.all(pts == 0.0, axis=1)
    if np.any(nonzero):
        live = pts[nonzero]
        u = u_scale_batch(live, d, a)
        m = mass(d, a)
        out[nonzero] = np.sum(live * np.arcsinh(live * u[:, None]), axis=1) / m
    return out


def a_norm(x, d, a):
    """Anisotropic norm ``|x|_a``; homogeneous, permutation/sign symmetric.

    Satisfies ``|x|_2 <= |x|_a <= |x|_1`` with equality approached as
    ``a -> 0`` and ``a -> infinity`` respectively, and ``|e_j|_a = 1``.
    """
    if not np.isfinite(a) or a <= 0.0:
        raise DomainError("a must be finite and > 0")
    pts, _ = _as_points(x, d)
    return float(a_norm_batch(pts, d, a)[0])


def norm_context(x, d, a):
    """Bundle (mass, scale, norm, direction) for a nonzero point."""
    pts, _ = _as_points(x, d)
    vec = pts[0]
    if np.all(vec == 0.0):
        raise DomainError("norm context is undefined at x = 0")
    m = mass(d, a)
    u = float(u_scale_batch(pts, d, a)[0])
    nrm = float(np.sum(vec * np.arcsinh(vec * u)) / m)
    return NormContext(
        d=d,
        a=float(a),
        m_a=m,
        x=vec.copy(),
        u=u,
        norm=nrm,
        x_hat=vec / nrm,
        u_hat=nrm * u,
    )


def unit_ball_rows(d, a, n_points):
    """Yield (angles, boundary point) pairs sweeping the unit sphere.

    Radii come from homogeneity: the boundary point along direction ``w`` is
    ``w / |w|_a``.  d = 2 sweeps ``theta`` uniformly on [0, 2pi); d = 3 adds
    a polar sweep with both poles and the equator included.
    """
    if d not in (2, 3):
        raise DomainError("unit ball export supports d in {2, 3}")
    if n_points < 8:
        raise DomainError("n_points must be >= 8")
    if d == 2:
        thetas = 2.0 * np.pi * np.arange(n_points) / n_points
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        radii = 1.0 / a_norm_batch(dirs, d, a)
        for theta, w, r in zip(thetas, dirs, radii):
            yield (theta,), r * w
        return
    n_phi = n_points // 2 + 1
    if n_phi % 2 == 0:
        n_phi += 1  # keep the equator on the grid
    phis = np.linspace(0.0, np.pi, n_phi)
    thetas = 2.0 * np.pi * np.arange(n_points) / n_points
    tt, pp = np.meshgrid(thetas, phis)
    tt, pp = tt.ravel(), pp.ravel()
    dirs = np.stack(
        [np.sin(pp) * np.cos(tt), np.sin(pp) * np.sin(tt), np.cos(pp)], axis=1
    )
    radii = 1.0 / a_norm_batch(dirs, d, a)
    for theta, phi, w, r in zip(tt, pp, dirs, radii):
        yield (theta, phi), r * w


def unit_ball_boundary(d, a, n_points):
    """Boundary points of the unit ball of the norm, ordered for plotting."""
    return [point for _, point in unit_ball_rows(d, a, n_points)]
