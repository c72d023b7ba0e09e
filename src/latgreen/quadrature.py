"""Log-space trapezoidal quadrature on the half line (0, infinity).

All integrands handled here are positive, smooth, and decay at least
exponentially after a change of variables, so the composite trapezoid rule in
the transformed variable converges geometrically.  Two maps are provided:

``t = exp(v)`` (the default)
    Integrands that decay polynomially near 0 and exponentially (or
    polynomially, for the critical cases) near infinity become
    doubly-exponentially / exponentially decaying in ``v``.

``t = exp(2 sinh v)`` (``double_exponential=True``)
    Forces double-exponential decay for integrands with an essential
    singularity at 0 (e.g. ``exp(-c/t)``) or a power-law tail at infinity
    (Takahasi & Mori, Publ. RIMS 9 (1974) 721); the ``log_bessel_k``
    fallback and the massless (``a = 0``) ``green_bessel`` use it.

Each node of the transformed integrand ``g(v)`` is evaluated at most once per
integral.  A fixed-step scan grid locates the peak, and each tail ends at the
first scan node at or below ``max g - _TAIL_DROP``; while a tail runs off the
grid, the grid is extended on that side by one vectorised block, clipped to
exactly ``+-v_cap``.  The trapezoid rule on ``[v_lo, v_hi]`` then halves ``h``
until two levels agree (the h-vs-2h difference is the error estimate; see
Trefethen & Weideman, SIAM Rev. 56 (2014) 385).  Each level keeps the previous
one at its even indices and evaluates only its odd nodes, reusing the scanned
value where a node lands on the scan grid.

Every level is summed by ``_log_sum_exp``, a max-shifted log-sum-exp, so
integrals as small as ``exp(-1000)`` keep full relative accuracy.  It computes
exactly what ``scipy.special.logsumexp`` computes, bit for bit, in plain numpy:
scipy's array-API wrapper costs several times the sum itself on vectors of a
few hundred nodes, and the quadrature sums one such vector per level.
"""

import numpy as np

from .errors import AccuracyError, ConfigError

# March this far below the running maximum before truncating a tail; exp(-60)
# per node is negligible against rel_tol >= 1e-13 even for ~1e4 nodes.
_TAIL_DROP = 60.0

# Largest trapezoid level; a refinement past it raises AccuracyError.
_MAX_NODES = 200_000

# Loosest relative tolerance a caller may ask for.
_LOOSEST_REL_TOL = 1e-6


def _check_rel_tol(rel_tol):
    """Raise ``ConfigError`` unless ``rel_tol`` lies in (0, 1e-6]."""
    if not (0.0 < rel_tol <= _LOOSEST_REL_TOL):
        raise ConfigError("rel_tol must lie in (0, 1e-6]")


def _log_sum_exp(a, axis=None):
    """``log(sum(exp(a)))`` over ``axis`` (None or 0), as ``scipy.special.logsumexp``.

    Same operations in the same order, so the same bits: the ``m`` entries
    equal to the maximum are counted, not summed, giving
    ``log1p(s/m) + log(m) + max`` with ``s`` the shifted sum of the others.
    Where that is not finite (all ``-inf``, any ``+inf`` or nan) the plain
    ``log(sum(exp(a)))`` is returned, as scipy does.  (``s/m`` equals scipy's
    ``s if s == 0 else s/m``: ``m`` is 0 only under a nan maximum, where ``s``
    is nan too.)
    """
    a_max = a.max(axis=axis)
    tied = a == a_max
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = np.exp(a - a_max)
        shifted[tied] = 0.0
        m = np.count_nonzero(tied, axis=axis)
        out = np.log1p(shifted.sum(axis=axis) / m) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out = np.where(bad, np.log(np.sum(np.exp(a), axis=axis)), out)[()]
    return out


def _log_weighted(log_integrand, double_exponential):
    """Return g(v) = log integrand(t(v)) + log |dt/dv| for the map."""
    if not double_exponential:

        def g(v):
            return log_integrand(np.exp(v)) + v

        return g, 700.0, 1.0, 60.0

    def g(v):
        s = 2.0 * np.sinh(v)
        return log_integrand(np.exp(s)) + s + np.log(2.0 * np.cosh(v))

    return g, 6.55, 0.05, 6.5


def log_integral_semi_infinite(log_integrand, rel_tol=1e-11, double_exponential=False):
    """Integrate a positive integrand over (0, inf), returning logs.

    Parameters
    ----------
    log_integrand : callable
        Vectorized map from an ndarray of ``t > 0`` to the natural log of the
        integrand (``-inf`` allowed).
    rel_tol : float
        Target relative error, in (0, 1e-6]; ``ConfigError`` otherwise.
    double_exponential : bool
        Use the map ``t = exp(2 sinh v)`` instead of ``t = exp(v)``.

    Returns
    -------
    log_value : float
        ``log`` of the integral.
    est_rel_error : float
        Node-doubling difference of the last refinement, a conservative
        relative error estimate.

    Raises
    ------
    AccuracyError
        If the node budget is exhausted before the doubling difference meets
        ``rel_tol`` (the error carries the best log-estimate), or if the
        transformed integrand peaks at the cut-off ``+-v_cap``.
    """
    _check_rel_tol(rel_tol)
    g, v_cap, scan_step, scan_half = _log_weighted(log_integrand, double_exponential)

    # Scan for the peak; a tail ends at the first node at or below the cut-off,
    # or at the cap, and the grid grows by one block while a tail runs off it.
    grid = np.arange(-scan_half, scan_half + scan_step / 2, scan_step)
    vals = g(grid)
    while True:
        if not np.any(np.isfinite(vals)):
            raise AccuracyError("integrand is zero everywhere scanned", best=-np.inf)
        imax = int(np.nanargmax(vals))
        stop = ~(vals > vals[imax] - _TAIL_DROP)
        stop[imax] = False  # even where the cut-off rounds to the peak value
        stop |= np.abs(grid) >= v_cap
        left, right = np.flatnonzero(stop[: imax + 1]), imax + np.flatnonzero(stop[imax:])
        if left.size == 0:
            edge = max(grid[0] - 2 * scan_half, -v_cap)
            new = np.arange(edge, grid[0] - scan_step / 2, scan_step)
            grid, vals = np.r_[new, grid], np.r_[g(new), vals]
        elif right.size == 0:
            edge = min(grid[-1] + 2 * scan_half, v_cap)
            new = np.arange(edge, grid[-1] + scan_step / 2, -scan_step)[::-1]
            grid, vals = np.r_[grid, new], np.r_[vals, g(new)]
        else:
            break
    if abs(grid[imax]) >= v_cap:
        # still rising at the cut-off: the mass beyond it is unknown
        name = "double_exponential" if double_exponential else "log_substitution"
        raise AccuracyError(
            f"integrand peaks at the cut-off v = {grid[imax]:+g} of the {name} transform"
        )
    v_lo, v_hi = grid[left[-1]], grid[right[0]]

    span = v_hi - v_lo
    h = span / max(64, int(np.ceil(span / (8.0 * scan_step))))
    level = grid[:0]
    log_prev = None
    est = np.inf
    best = None
    while True:
        n = int(np.floor(span / h)) + 1
        if n > _MAX_NODES:
            raise AccuracyError(
                f"quadrature needs more than {_MAX_NODES} nodes",
                best=best,
                est_error=est,
            )
        # the previous level fills the even indices (none on the first level)
        idx = np.arange(n)
        fresh = idx[(idx % 2 == 1) | (idx >= 2 * level.size)]
        prev, level = level, np.empty(n)
        level[: 2 * prev.size : 2] = prev
        v = v_lo + h * fresh
        pos = np.minimum(np.searchsorted(grid, v), grid.size - 1)
        scanned = grid[pos] == v
        level[fresh[scanned]] = vals[pos[scanned]]
        if not scanned.all():
            level[fresh[~scanned]] = g(v[~scanned])
        log_i = _log_sum_exp(level) + np.log(h)
        if log_prev is not None:
            est = abs(log_i - log_prev)
            best = log_i
            # a log of magnitude |L| cannot resolve differences below its
            # own ulp, which caps the achievable relative accuracy
            floor = 8.0 * np.finfo(float).eps * max(1.0, abs(log_i))
            if est <= max(0.25 * rel_tol, floor):
                return log_i, max(est, floor)
        log_prev = log_i
        h /= 2.0
