"""Generate the frozen reference pool the benchmark checks against.

Run once from the repository root, then commit the result:

    PYTHONPATH=src python3 perfbench/make_references.py

Every reference comes from a route independent of the one the benchmark
checks with it:

* lattice points with d <= 3 in box 5: the Fourier oracle, or the exact
  closed form for d = 1 with integer q;
* deep, far and d = 5 points of the regime sweeps: an mpmath quadrature of
  the scaled-Bessel integral at 30 digits;
* regime estimates, norms and Laplace-exponent curves: the closed formulas
  re-evaluated in mpmath.

The generator asserts, at the benchmark's own tolerances, that the library
agrees with every reference before it writes ``references.json``.
"""

import itertools
import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import latgreen as lg  # noqa: E402

mp.mp.dps = 30

OUT = Path(__file__).resolve().parent / "references.json"

# Acceptance tolerances (criteria 01 and 02).
TOL = 1e-8
TOL_D1 = 1e-10

ORACLE_BOX = 5
ORACLE_Q = (0.5, 1.0, 2.0)
ORACLE_A = (0.0, 0.2, 1.0)

MC_A = (0.3, 1.0)
MC_BOX = 3
MC_WIDE_BOX = 6

BOUND = {"d": 3, "q": 1, "kappa": 0.5, "kappa1": 0.6,
         "a_grid": [0.0, 0.25, 1.0, 4.0], "box": 3}

SWEEP_N = [1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64]
# (name, d, q, kind, param, xhat, estimates). kind "a": fixed killing a;
# "sqrt": a = n^-1/2; "s": a = s/n.
SWEEPS = [
    ("I.d3.deep", 3, 1.0, "a", 3.8, (2, 1, 1), ("oz", "iso")),
    ("I.d2", 2, 1.0, "a", 0.5, (1, 1), ("oz", "iso")),
    ("I.d1", 1, 1.0, "a", 0.5, (1,), ("oz", "iso")),
    ("II.d2", 2, 1.0, "sqrt", None, (1, 1), ("iso",)),
    ("II.d3", 3, 1.0, "sqrt", None, (1, 0, 0), ("iso",)),
    ("III.d3", 3, 1.0, "s", 1.0, (1, 0, 0), ("critical",)),
    ("III.d1", 1, 1.0, "s", 1.0, (1,), ("critical",)),
    ("IV.d3", 3, 1.0, "s", 0.0, (1, 0, 0), ("critical",)),
    ("IV.d5", 5, 2.0, "s", 0.0, (1, 0, 0, 0, 0), ("critical",)),
]

NORM_A = (0.2, 1.0)
GBAR = {"d": 3, "a_list": [0.2, 1.0], "y_range": [0.5, 2.0], "y_steps": 31,
        "box": 3}


def sorted_box_points(d, box, include_origin=True):
    pts = {tuple(sorted(abs(v) for v in c))
           for c in itertools.product(range(-box, box + 1), repeat=d)}
    return sorted(p for p in pts if include_origin or any(p))


def rel_gap(log_a, log_b):
    return abs(math.expm1(log_a - log_b))


# ---------------------------------------------------------------------------
# mpmath routes
# ---------------------------------------------------------------------------


def mp_log_green(d, a, q, x):
    """log of the lattice Green function by mpmath quadrature of the
    scaled-Bessel integral, split around the integrand's peak."""
    a2 = mp.mpf(a) ** 2
    q = mp.mpf(q)
    dd = mp.mpf(d)

    def log_f(t):
        s = (q - 1) * mp.log(t) - a2 * t
        for nu in x:
            s += mp.log(mp.besseli(abs(nu), t / dd)) - t / dd
        return s

    peak_log, peak_t = max(
        (log_f(mp.e ** (mp.mpf(k) / 10)), mp.e ** (mp.mpf(k) / 10))
        for k in range(-40, 141)
    )
    breaks = [0] + [peak_t * mp.mpf(2) ** k for k in range(-8, 9)] + [mp.inf]
    total = mp.quad(lambda t: mp.e ** (log_f(t) - peak_log), breaks)
    return float(mp.log(total) + peak_log - mp.loggamma(q))


def mp_mass(d, a):
    return mp.acosh(1 + d * mp.mpf(a) ** 2)


def mp_u(x, d, a):
    """Root u of mean_i sqrt(1 + x_i^2 u^2) = 1 + a^2 by bisection."""
    xs = [mp.mpf(abs(c)) for c in x]
    target = d * (1 + mp.mpf(a) ** 2)

    def f(u):
        return mp.fsum(mp.sqrt(1 + (c * u) ** 2) for c in xs) - target

    lo, hi = mp.mpf(0), mp.mpf(1)
    while f(hi) < 0:
        hi *= 2
    for _ in range(120):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def mp_norm(x, d, a):
    if not any(x):
        return mp.mpf(0), None
    u = mp_u(x, d, a)
    nrm = mp.fsum(abs(c) * mp.asinh(abs(c) * u) for c in x) / mp_mass(d, a)
    return nrm, u


def mp_log_oz_limit(d, q):
    return q * mp.log(d) - (d - 1) * mp.log(2 * mp.pi) / 2 - mp.loggamma(q)


def mp_log_oz(d, q, a, x, n):
    nrm, u = mp_norm(x, d, a)
    m = mp_mass(d, a)
    u_hat = nrm * u
    x_hat = [mp.mpf(c) / nrm for c in x]
    cross = [mp.sqrt(1 + u_hat ** 2 * c ** 2) for c in x_hat]
    prod = mp.fprod(cross)
    kappa = 1 / mp.sqrt(mp.fsum(c ** 2 * prod / r for c, r in zip(x_hat, cross)))
    beta = (d - 1 - 2 * mp.mpf(q)) / 2
    gamma = (d + 1 - 2 * mp.mpf(q)) / 2
    log_amp = mp_log_oz_limit(d, q) + mp.log(kappa) + beta * mp.log(u_hat)
    return float(log_amp - gamma * mp.log(n * nrm) - m * n * nrm)


def mp_log_oz_isotropic(d, q, a, x, n):
    r = mp.sqrt(mp.fsum(mp.mpf(c) ** 2 for c in x))
    root = mp.sqrt(2 * d) * a
    beta = (d - 1 - 2 * mp.mpf(q)) / 2
    gamma = (d + 1 - 2 * mp.mpf(q)) / 2
    return float(mp_log_oz_limit(d, q) + beta * mp.log(root)
                 - gamma * mp.log(n * r) - root * n * r)


def mp_log_critical(d, q, s, x, n):
    r = mp.sqrt(mp.fsum(mp.mpf(c) ** 2 for c in x))
    q = mp.mpf(q)
    s = mp.mpf(s)
    if s == 0:
        log_g = (q * mp.log(d) + mp.loggamma((d - 2 * q) / 2) - q * mp.log(2)
                 - d * mp.log(mp.pi) / 2 - mp.loggamma(q) - (d - 2 * q) * mp.log(r))
    else:
        z = mp.sqrt(2 * d) * s * r
        half = (d - 2 * q) / 2
        log_g = (mp.log(2) + q * mp.log(d) - mp.loggamma(q)
                 - d * mp.log(2 * mp.pi) / 2 + (d - 2 * q) * mp.log(s)
                 + half * (mp.log(2 * d) / 2 - mp.log(s * r))
                 + mp.log(mp.besselk(half, z)))
    return float(log_g - (d - 2 * q) * mp.log(n))


def mp_psi(t):
    return 1 / (t + mp.sqrt(1 + t * t)) - mp.asinh(1 / t)


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------


def fourier_or_closed(d, a, q, x):
    """Independent reference for a box point: closed form or Fourier."""
    if d == 1 and a > 0 and float(q).is_integer():
        return lg.green_d1_closed(a, int(q), x[0]).log_value, "closed_d1"
    return lg.green_fourier_oracle(lg.GreenParams(d, a, q), x).log_value, "fourier"


def fourier_path(d, a, x):
    """Which Fourier-oracle path a point takes (mirrors its documented
    selection: a = 0 windows the singularity; a decay exponent
    m_a |x|_a above 4 shifts the contour)."""
    if a == 0.0:
        return "massless"
    if any(x) and lg.mass(d, a) * lg.a_norm(np.asarray(x, float), d, a) > 4.0:
        return "shifted"
    return "periodic"


def check_point(d, a, q, x, log_ref, source):
    gb = lg.green_bessel(lg.GreenParams(d, a, q), x)
    tol = TOL_D1 if source == "closed_d1" else TOL
    assert rel_gap(gb.log_value, log_ref) <= tol, (d, a, q, x, gb.log_value, log_ref)


def oracle_pool():
    pool = []
    for d in (1, 2, 3):
        for a in ORACLE_A:
            for q in ORACLE_Q:
                if a == 0.0 and d <= 2 * q:
                    continue
                for x in sorted_box_points(d, ORACLE_BOX):
                    log_ref, source = fourier_or_closed(d, a, q, x)
                    check_point(d, a, q, x, log_ref, source)
                    if source == "closed_d1":
                        gf = lg.green_fourier_oracle(lg.GreenParams(d, a, q), x)
                        assert rel_gap(gf.log_value, log_ref) <= TOL
                    pool.append({"d": d, "a": a, "q": q, "x": list(x),
                                 "log_ref": log_ref, "source": source,
                                 "path": fourier_path(d, a, x)})
    return pool


def mc_pool():
    pool = []
    for d in (1, 2, 3):
        for a in MC_A:
            box = MC_WIDE_BOX if (d, a) == (3, 0.3) else MC_BOX
            for x in sorted_box_points(d, box):
                log_ref, source = fourier_or_closed(d, a, 1.0, x)
                check_point(d, a, 1.0, x, log_ref, source)
                pool.append({"d": d, "a": a, "x": list(x), "log_ref": log_ref,
                             "source": source})
    return pool


def bound_reference():
    d, q = BOUND["d"], BOUND["q"]
    worst, worst_at, count = -math.inf, None, 0
    for a in BOUND["a_grid"]:
        for x in sorted_box_points(d, BOUND["box"], include_origin=False):
            log_ref, _ = fourier_or_closed(d, a, q, x)
            check_point(d, a, q, x, log_ref, "fourier")
            if a == 0.0:
                nrm, m = mp.sqrt(sum(mp.mpf(c) ** 2 for c in x)), 0
            else:
                nrm, m = mp_norm(x, d, a)[0], mp_mass(d, a)
            log_rhs = (mp.log(BOUND["kappa1"]) - (d - 2 * q) * mp.log(nrm)
                       - BOUND["kappa"] * m * nrm)
            ratio = float(mp.e ** (log_ref - log_rhs))
            count += 1
            if ratio > worst:
                worst, worst_at = ratio, (a, list(x))
    return dict(BOUND, holds=worst <= 1.0, worst_ratio=worst,
                worst_a=worst_at[0], worst_x=worst_at[1], n_checked=count)


def regime_pool():
    sweeps = []
    for name, d, q, kind, param, xhat, estimates in SWEEPS:
        points = []
        for n in SWEEP_N:
            if kind == "a":
                a = param
            elif kind == "sqrt":
                a = n ** -0.5
            else:
                a = param / n
            x = [c * n for c in xhat]
            if d == 1 and a > 0:
                log_ref, source = fourier_or_closed(1, a, q, x)
            else:
                log_ref, source = mp_log_green(d, a, q, x), "mpmath"
            check_point(d, a, q, x, log_ref, source)
            est = {}
            for kind_est in estimates:
                if kind_est == "oz":
                    est["oz"] = mp_log_oz(d, q, a, xhat, n)
                    got = lg.oz_estimate(lg.GreenParams(d, a, q), xhat, n)
                elif kind_est == "iso":
                    est["iso"] = mp_log_oz_isotropic(d, q, a, xhat, n)
                    got = lg.oz_isotropic_estimate(lg.GreenParams(d, a, q), xhat, n)
                else:
                    est["critical"] = mp_log_critical(d, q, param, xhat, n)
                    got = lg.critical_estimate(lg.GreenParams(d, a, q), xhat, n, param)
                assert rel_gap(got.log_value, est[kind_est]) <= 1e-10, (name, n, kind_est)
            points.append({"n": n, "a": a, "x": x, "log_ref": log_ref,
                           "source": source, "estimates": est})
            print(f"  {name} n={n} log={log_ref:.6f} ({source})", flush=True)
        sweeps.append({"name": name, "d": d, "q": q, "kind": kind,
                       "param": param, "xhat": list(xhat), "points": points})
    return sweeps


def norm_pool():
    pool = []
    for a in NORM_A:
        for x in sorted_box_points(3, ORACLE_BOX):
            nrm, u = mp_norm(x, 3, a)
            pool.append({"d": 3, "a": a, "x": list(x), "m": float(mp_mass(3, a)),
                         "u": None if u is None else float(u), "norm": float(nrm)})
            assert abs(lg.a_norm(np.asarray(x, float), 3, a) - float(nrm)) <= 1e-10 * max(1.0, float(nrm))
    return pool


def gbar_pool():
    d = GBAR["d"]
    ys = [float(y) for y in np.linspace(*GBAR["y_range"], GBAR["y_steps"])]
    pool = []
    for x in sorted_box_points(d, GBAR["box"], include_origin=False):
        for a in GBAR["a_list"]:
            nrm, u = mp_norm(x, d, a)
            u_hat = nrm * u
            nonzero = [mp.mpf(c) for c in x if c]
            flat = d - len(nonzero)
            xh2 = [(mp.mpf(c) / nrm) ** 2 for c in x]
            d2 = nrm * u_hat * mp.fsum(c / mp.sqrt(1 + u_hat ** 2 * c) for c in xh2)
            rows = []
            for y in ys:
                ym = mp.mpf(y)
                v = ym / u
                gbar = d * a * a * v - mp.fsum(c * mp_psi(v / c) for c in nonzero)
                log_h = -flat * mp.log(ym) / 2 - mp.fsum(
                    mp.log(ym ** 2 + (u_hat * c / nrm) ** 2) for c in nonzero) / 4
                rows.append([y, float(gbar), float(mp.e ** log_h)])
            lib = lg.gbar_curve(d, a, x, ys)
            for r, want in zip(lib, rows):
                assert abs(r.gbar - want[1]) <= 1e-10 * max(1.0, abs(want[1]))
                assert abs(r.hbar - want[2]) <= 1e-10 * want[2]
            pool.append({"d": d, "a": a, "x": list(x), "gbar_d2_at_1": float(d2),
                         "rows": rows})
    return dict(GBAR, curves=pool)


def main():
    refs = {}
    print("oracle pool", flush=True)
    refs["oracle"] = oracle_pool()
    print("mc pool", flush=True)
    refs["mc"] = mc_pool()
    print("bound", flush=True)
    refs["bound"] = bound_reference()
    print("norm pool", flush=True)
    refs["norm"] = norm_pool()
    print("gbar pool", flush=True)
    refs["gbar"] = gbar_pool()
    print("regime sweeps", flush=True)
    refs["regime"] = regime_pool()
    OUT.write_text(json.dumps(refs, indent=None, separators=(",", ":")) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
