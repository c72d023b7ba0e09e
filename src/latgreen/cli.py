"""Command-line harness.

Subcommands:

* ``eval``   evaluate the lattice Green function by a chosen method
* ``norm``   mass, implicit scale, and anisotropic norm of a point
* ``ball``   unit-ball boundary of the norm as plot-ready CSV
* ``asy``    exact-vs-estimate sweep across the decay regimes
* ``gbar``   rescaled Laplace-exponent curves (figure data)
* ``bound``  uniform power-times-exponential bound sweep

Every command is a thin adapter over the library: numeric output equals the
library results bit for bit.  Exit codes: 0 ok, 1 bound violated, 2 domain
error, 3 accuracy error, 64 usage error.  Output is CSV (with a leading
``# schema=1`` line) or JSON lines with ``--json``, to stdout or ``--out``.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import walk
from .asymptotics import (
    critical_estimate,
    gbar_curve,
    oz_estimate,
    oz_isotropic_estimate,
    uniform_bound_check,
)
from .errors import AccuracyError, DomainError, LatticeGreenError
from .lattice import (
    GreenParams, GreenValue, green_bessel, green_d1_closed, green_fourier_oracle
)
from .norm import a_norm, mass, u_scale, unit_ball_rows
from .quadrature import _check_rel_tol
from .records import CSV_SCHEMA_COMMENT, OutputRecord, _fmt
from .walk import WalkConfig, estimate_green

EXIT_OK = 0
EXIT_BOUND_VIOLATED = 1
EXIT_DOMAIN = 2
EXIT_ACCURACY = 3
EXIT_USAGE = 64

_REL_TOL_ENV = "LATGREEN_REL_TOL"


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _floats(text):
    return tuple(float(c) for c in text.split(","))


def _y_range(text):
    lo, hi = (float(c) for c in text.split(":"))
    return lo, hi


def _ints(text):
    return tuple(int(c) for c in text.split(","))


def _rel_tol(args, parser):
    """Checked tolerance from --rel-tol, else $LATGREEN_REL_TOL, else 1e-11."""
    rel_tol, raw = args.rel_tol, os.environ.get(_REL_TOL_ENV)
    if rel_tol is None:
        try:
            rel_tol = float(raw) if raw else 1e-11
        except ValueError:
            msg = f"{parser.prog}: error: {_REL_TOL_ENV}={raw!r} is not a number\n"
            parser.exit(EXIT_USAGE, msg)
    _check_rel_tol(rel_tol)
    return rel_tol


class _Output:
    """Buffered table writer emitting CSV or JSON lines."""

    def __init__(self, args):
        self.json = getattr(args, "json", False)
        self.path = getattr(args, "out", None)
        self.rows = []
        self.header = None

    def add_record(self, record):
        self.header = OutputRecord.csv_header()
        self.rows.append(record)

    def add_row(self, header, row):
        self.header = header
        self.rows.append(row)

    def emit(self):
        try:
            stream = open(self.path, "w", newline="") if self.path else sys.stdout
        except OSError as exc:
            print(f"latgreen: error: --out: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        try:
            if self.json:
                for row in self.rows:
                    if isinstance(row, OutputRecord):
                        stream.write(row.to_json() + "\n")
                    else:
                        stream.write(json.dumps(dict(zip(self.header, row))) + "\n")
            else:
                stream.write(CSV_SCHEMA_COMMENT + "\n")
                writer = csv.writer(stream, lineterminator="\n")
                writer.writerow(self.header)
                for row in self.rows:
                    if isinstance(row, OutputRecord):
                        writer.writerow(row.to_csv_row())
                    else:
                        writer.writerow([_fmt(v) for v in row])
        finally:
            if self.path:
                stream.close()


def _cmd_eval(args, parser):
    if args.method == "closed-d1" and args.d != 1:
        parser.error("--method closed-d1 requires --d 1")
    if args.method == "closed-d1" and not args.q.is_integer():
        parser.error("--method closed-d1 requires integer --q")
    if args.method == "mc" and args.q != 1:
        parser.error("--method mc requires --q 1")
    if args.method == "mc" and args.a <= 0:
        parser.error("--method mc requires --a > 0")
    out = _Output(args)
    rel_tol = _rel_tol(args, parser)
    for xs in args.x:
        if len(xs) != args.d:
            parser.error(f"--x {xs} does not have {args.d} coordinates")
    if args.method == "mc":
        # one ensemble for every point: the draws do not depend on the window
        box = max(3, max(abs(c) for xs in args.x for c in xs))
        wcfg = WalkConfig(
            d=args.d, a=args.a, n_walks=args.walks, seed=args.seed, max_box=box
        )
        tallies = walk.run_killed_walks(wcfg)
    for xs in args.x:
        if args.method == "bessel":
            gv = green_bessel(GreenParams(args.d, args.a, args.q), xs, rel_tol)
        elif args.method == "fourier":
            gv = green_fourier_oracle(GreenParams(args.d, args.a, args.q), xs)
        elif args.method == "closed-d1":
            gv = green_d1_closed(args.a, int(args.q), xs[0])
        else:
            est_v = estimate_green(wcfg, xs, tallies)
            log_mean = math.log(est_v.mean) if est_v.mean > 0 else -math.inf
            gv = GreenValue(est_v.mean, log_mean, est_v.std_err, "monte_carlo")
        out.add_record(
            OutputRecord(
                method=gv.method,
                d=args.d,
                a=args.a,
                q=args.q,
                s=None,
                n=None,
                x=tuple(int(c) for c in xs),
                value=gv.value,
                log_value=gv.log_value,
                est_error=gv.est_error,
            )
        )
    out.emit()
    return EXIT_OK


def _cmd_norm(args, parser):
    out = _Output(args)
    header = ["d", "a", "x", "m_a", "u", "norm", "l2", "l1", "sandwich_ok"]
    for xs in args.x:
        if len(xs) != args.d:
            parser.error(f"--x {xs} does not have {args.d} coordinates")
        vec = np.asarray(xs, dtype=float)
        m = mass(args.d, args.a)
        nrm = a_norm(vec, args.d, args.a)
        u = u_scale(vec, args.d, args.a) if np.any(vec != 0.0) else None
        l2 = math.hypot(*vec)
        l1 = float(np.sum(np.abs(vec)))
        ok = l2 * (1.0 - 1e-12) <= nrm <= l1 * (1.0 + 1e-12)
        out.add_row(
            header,
            [args.d, args.a, ",".join(repr(c) for c in xs), m, u, nrm, l2, l1, ok],
        )
    out.emit()
    return EXIT_OK


def _cmd_ball(args, parser):
    out = _Output(args)
    if args.d == 2:
        header = ["theta", "x1", "x2"]
    else:
        header = ["theta", "phi", "x1", "x2", "x3"]
    for angles, point in unit_ball_rows(args.d, args.a, args.points):
        out.add_row(header, [*(float(t) for t in angles), *(float(c) for c in point)])
    out.emit()
    return EXIT_OK


def _cmd_asy(args, parser):
    if (args.a is None) == (args.s is None):
        parser.error("exactly one of --a (regimes I/II) or --s (III/IV) is required")
    out = _Output(args)
    header = [
        "d", "q", "a", "s", "n", "x",
        "exact", "exact_log", "estimate", "estimate_log", "ratio", "regime",
    ]
    xs = args.x
    if len(xs) != args.d:
        parser.error(f"--x {xs} does not have {args.d} coordinates")
    rel_tol = _rel_tol(args, parser)
    x_label = ",".join(str(int(c)) for c in xs)
    for n in args.n_list:
        if n < 1:
            raise DomainError("n must be >= 1")
        a_n = args.a if args.a is not None else args.s / n
        p = GreenParams(args.d, a_n, args.q)
        nx = [int(c) * n for c in xs]
        if args.d == 1 and args.q.is_integer() and a_n > 0:
            exact = green_d1_closed(a_n, int(args.q), nx[0])
        else:
            exact = green_bessel(p, nx, rel_tol)
        estimates = []
        if args.a is not None:
            estimates.append(oz_estimate(p, xs, n))
            estimates.append(oz_isotropic_estimate(p, xs, n))
        else:
            estimates.append(critical_estimate(p, xs, n, args.s))
        for est in estimates:
            ratio = math.exp(exact.log_value - est.log_value)
            out.add_row(
                header,
                [
                    args.d, args.q, args.a, args.s, n, x_label,
                    exact.value, exact.log_value, est.value, est.log_value,
                    ratio, est.regime,
                ],
            )
    out.emit()
    return EXIT_OK


def _cmd_gbar(args, parser):
    lo, hi = args.y_range
    if args.y_steps < 2 or hi <= lo or lo <= 0:
        parser.error("need --y-range lo:hi with 0 < lo < hi and --y-steps >= 2")
    if not args.a_list:
        parser.error("--a-list must be nonempty")
    if len(args.x) != args.d:
        parser.error(f"--x does not have {args.d} coordinates")
    out = _Output(args)
    header = [
        "a", "y", "gbar", "hbar", "gbar_d2_at_1",
        "curve_min_y", "curve_min_value", "curve_convex",
    ]
    y_grid = np.linspace(lo, hi, args.y_steps)
    for a in args.a_list:
        rows = gbar_curve(args.d, a, args.x, y_grid)
        values = np.array([r.gbar for r in rows])
        i_min = int(np.argmin(values))
        convex = bool(np.all(np.diff(values, 2) >= -1e-12))
        for r in rows:
            out.add_row(
                header,
                [
                    a, r.y, r.gbar, r.hbar, r.gbar_d2_at_1,
                    float(y_grid[i_min]), float(values[i_min]), convex,
                ],
            )
    out.emit()
    return EXIT_OK


def _cmd_bound(args, parser):
    if not (0.0 < args.kappa < 1.0):
        parser.error("--kappa must lie in (0, 1)")
    report = uniform_bound_check(
        args.d, args.q, args.kappa, args.kappa1, args.a_grid, args.box
    )
    out = _Output(args)
    header = ["holds", "worst_ratio", "worst_a", "worst_x", "n_checked"]
    out.add_row(
        header,
        [
            report.holds,
            report.worst_ratio,
            report.worst_a,
            ",".join(str(c) for c in report.worst_x),
            report.n_checked,
        ],
    )
    out.emit()
    return EXIT_OK if report.holds else EXIT_BOUND_VIOLATED


def _build_parser():
    parser = _Parser(prog="latgreen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON lines")
        p.add_argument("--out", help="write to this path instead of stdout")

    p_eval = sub.add_parser("eval", help="evaluate the lattice Green function")
    p_eval.add_argument("--d", type=int, required=True)
    p_eval.add_argument("--a", type=float, required=True)
    p_eval.add_argument("--q", type=float, required=True)
    p_eval.add_argument("--x", type=_ints, action="append", required=True,
                        help="comma-separated integers; repeatable")
    p_eval.add_argument("--method", required=True,
                        choices=["bessel", "fourier", "closed-d1", "mc"])
    p_eval.add_argument("--rel-tol", type=float,
                        help=f"default: ${_REL_TOL_ENV}, else 1e-11")
    p_eval.add_argument("--seed", type=int, default=2024)
    p_eval.add_argument("--walks", type=int, default=100_000)
    common(p_eval)

    p_norm = sub.add_parser("norm", help="anisotropic norm quantities")
    p_norm.add_argument("--d", type=int, required=True)
    p_norm.add_argument("--a", type=float, required=True)
    p_norm.add_argument("--x", type=_floats, action="append", required=True)
    common(p_norm)

    p_ball = sub.add_parser("ball", help="unit-ball boundary export")
    p_ball.add_argument("--d", type=int, required=True, choices=[2, 3])
    p_ball.add_argument("--a", type=float, required=True)
    p_ball.add_argument("--points", type=int, required=True)
    common(p_ball)

    p_asy = sub.add_parser("asy", help="regime-estimate comparison sweep")
    p_asy.add_argument("--d", type=int, required=True)
    p_asy.add_argument("--q", type=float, required=True)
    p_asy.add_argument("--x", type=_ints, required=True)
    p_asy.add_argument("--a", type=float)
    p_asy.add_argument("--s", type=float)
    p_asy.add_argument("--n-list", type=_ints, required=True)
    p_asy.add_argument("--rel-tol", type=float,
                        help=f"default: ${_REL_TOL_ENV}, else 1e-11")
    common(p_asy)

    p_gbar = sub.add_parser("gbar", help="Laplace-exponent curve export")
    p_gbar.add_argument("--d", type=int, required=True)
    p_gbar.add_argument("--x", type=_floats, required=True)
    p_gbar.add_argument("--a-list", type=_floats, required=True)
    p_gbar.add_argument("--y-range", type=_y_range, required=True)
    p_gbar.add_argument("--y-steps", type=int, required=True)
    common(p_gbar)

    p_bound = sub.add_parser("bound", help="uniform bound verification sweep")
    p_bound.add_argument("--d", type=int, required=True)
    p_bound.add_argument("--q", type=int, required=True)
    p_bound.add_argument("--kappa", type=float, required=True)
    p_bound.add_argument("--kappa1", type=float, required=True)
    p_bound.add_argument("--a-grid", type=_floats, required=True)
    p_bound.add_argument("--box", type=int, required=True)
    common(p_bound)

    return parser


_COMMANDS = {
    "eval": _cmd_eval,
    "norm": _cmd_norm,
    "ball": _cmd_ball,
    "asy": _cmd_asy,
    "gbar": _cmd_gbar,
    "bound": _cmd_bound,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except AccuracyError as exc:
        print(f"latgreen: accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except LatticeGreenError as exc:
        print(f"latgreen: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
