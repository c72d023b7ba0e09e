"""Workload inputs generated from a seed, and the checks on their outputs.

Every input is drawn from the frozen pool in ``references.json``; the seed
only chooses which pool entries a round uses and in what order.  Sampling is
stratified (one pick from each contiguous slice of a sorted list), so every
seed gives rounds of about the same cost and the throughput of two seeds can
be compared.

Why each workload exists:

* ``oracle-grid``: Bessel route and Fourier oracle on the acceptance-02
  grid, grouped by (d, a, q) as callers group them, so work shared within a
  group (the Fourier weight cache) shows.
* ``regime-sweep``: Bessel route on x = n * xhat sweeps of the four decay
  regimes; every point has its own killing or its own large Bessel orders,
  so no work is shared.  A change that only helps grouped points must not
  slow it.
* ``mc-walks``: killed random walks only (acceptance-09 ensembles plus the
  box-6 window ``eval --method mc --x 6,0,0`` picks); the bypass workload
  for every Bessel or quadrature change.
* ``cli-session``: one ``latgreen`` process per request, one at a time;
  process start and import dominate, and it is the only workload that runs
  the CLI, record, norm, ball, gbar, bound and continuum paths.
"""

import csv
import io
import json
import math
import random
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Rounds generated per run; a run that outlives them starts again at the
# first.  A round holds a fixed mix of slow and fast calls, so the tail
# latency (the 11th slowest call) falls in the same kind of call only while
# the number of rounds per run stays in a band: 6 to 10 for mc-walks (box-6
# ensembles, then d=3 a=0.3 box-3 ensembles) and at least 6 for oracle-grid
# (two massless d=3 group starts per round).  Round sizes put a 20 s run in
# the middle of these bands.
ROUNDS = 32
ORACLE_PER_GROUP = 3
REGIME_PER_SWEEP = 8
MC_WALKS = 70_000
KILL_N_MAX = 20

TOL = 1e-8  # acceptance 02: Bessel route vs Fourier oracle
TOL_D1 = 1e-10  # acceptance 01: d = 1 Bessel route vs closed form
TOL_FORMULA = 1e-10  # closed formulas vs their mpmath re-evaluation
MC_COVER_SIGMA = 3.0  # acceptance 09: >= 95% of window points within 3 sigma
MC_POINT_SIGMA = 5.0
MC_COVERAGE = 0.95
KILL_SIGMA = 5.0

# documented CLI exit codes
EXIT_OK, EXIT_VIOLATED, EXIT_DOMAIN, EXIT_USAGE = 0, 1, 2, 64

WORKLOADS = {
    "oracle-grid": {"mode": "lib", "routes": ["bessel", "fourier"], "unit": "points"},
    "regime-sweep": {"mode": "lib", "routes": ["bessel", "estimate"], "unit": "points"},
    "mc-walks": {"mode": "lib", "routes": ["mc"], "unit": "walks"},
    "cli-session": {"mode": "cli", "routes": ["bessel", "fourier", "estimate", "mc"],
                    "unit": "invocations"},
}


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def stratified(rng, items, k):
    """One item from each of k contiguous slices of ``items``, shuffled."""
    n = len(items)
    picks = [items[rng.randrange(i * n // k, (i + 1) * n // k)] for i in range(k)]
    rng.shuffle(picks)
    return picks


def oracle_groups(refs):
    groups = {}
    for i, e in enumerate(refs["oracle"]):
        groups.setdefault((e["d"], e["a"], e["q"]), []).append(i)
    return {k: _by_distance(refs["oracle"], v) for k, v in sorted(groups.items())}


def _oracle_round(rng, refs, groups):
    calls, meta = [], []
    for (d, a, q), members in groups.items():
        for k, i in enumerate(stratified(rng, members, ORACLE_PER_GROUP)):
            e = refs["oracle"][i]
            calls.append([d, a, q, e["x"]])
            meta.append({"ref": i, "path": e["path"], "first": k == 0})
    return {"calls": calls, "meta": meta}


def _regime_round(rng, refs):
    calls, meta = [], []
    order = list(range(len(refs["regime"])))
    rng.shuffle(order)
    for s in order:
        sweep = refs["regime"][s]
        idx = sorted(stratified(rng, range(len(sweep["points"])), REGIME_PER_SWEEP))
        for p in idx:
            pt = sweep["points"][p]
            s_param = sweep["param"] if sweep["kind"] == "s" else None
            calls.append([sweep["d"], pt["a"], sweep["q"], pt["x"], sweep["xhat"],
                          pt["n"], s_param, sorted(pt["estimates"])])
            meta.append({"sweep": s, "point": p})
    return {"calls": calls, "meta": meta}


def _mc_round(rng):
    calls, meta = [], []
    for d in (1, 2, 3):
        for a in (0.3, 1.0):
            calls.append(["walks", d, a, MC_WALKS, rng.getrandbits(63), 3])
            meta.append({"box": 3})
    calls.append(["walks", 3, 0.3, MC_WALKS, rng.getrandbits(63), 6])
    meta.append({"box": 6})
    calls.append(["kill", 2, 0.5, MC_WALKS, rng.getrandbits(63), 1, KILL_N_MAX])
    meta.append({"kind": "kill"})
    return {"calls": calls, "meta": meta}


def _xarg(x):
    return ",".join(str(c) for c in x)


def _cli_round(rng, refs, groups):
    calls, meta = [], []

    def add(kind, argv, env=None, **info):
        calls.append([argv, env or {}])
        meta.append(dict(info, kind=kind))

    d3 = [k for k in groups if k[0] == 3 and k[1] > 0]
    d, a, q = rng.choice(d3)
    picks = stratified(rng, groups[(d, a, q)], 3)
    add("eval-bessel", ["eval", "--d", "3", "--a", repr(a), "--q", repr(q),
                        "--method", "bessel"] + sum((["--x", _xarg(refs["oracle"][i]["x"])]
                                                     for i in picks), []), refs=picks)
    d, a, q = rng.choice([k for k in groups if k[0] == 2 and k[1] > 0])
    i = rng.choice(groups[(d, a, q)])
    add("eval-fourier", ["eval", "--d", "2", "--a", repr(a), "--q", repr(q),
                         "--method", "fourier", "--x", _xarg(refs["oracle"][i]["x"])],
        refs=[i], path=refs["oracle"][i]["path"])
    d, a, q = rng.choice([k for k in groups if k[0] == 1 and float(k[2]).is_integer()])
    picks = stratified(rng, groups[(d, a, q)], 2)
    add("eval-closed", ["eval", "--d", "1", "--a", repr(a), "--q", repr(q),
                        "--method", "closed-d1"]
        + sum((["--x", _xarg(refs["oracle"][i]["x"])] for i in picks), []), refs=picks)
    near = [i for i, e in enumerate(refs["mc"])
            if e["d"] == 3 and e["a"] == 0.3 and max(e["x"]) <= 2]
    picks = stratified(rng, near, 2)
    add("eval-mc", ["eval", "--d", "3", "--a", "0.3", "--q", "1", "--method", "mc",
                    "--seed", str(rng.getrandbits(31))]
        + sum((["--x", _xarg(refs["mc"][i]["x"])] for i in picks), []), refs=picks, box=3)

    a = rng.choice(sorted({e["a"] for e in refs["norm"]}))
    pool = [i for i, e in enumerate(refs["norm"]) if e["a"] == a]
    picks = stratified(rng, _by_distance(refs["norm"], pool), 4)
    add("norm", ["norm", "--d", "3", "--a", repr(a)]
        + sum((["--x", _xarg(refs["norm"][i]["x"])] for i in picks), []), refs=picks)
    a = rng.choice([0.2, 1.0, 5.0])
    add("ball", ["ball", "--d", "3", "--a", repr(a), "--points", "48"], a=a, points=48)

    for kind, name, flag in (("asy-a", "I.d2", "--a"), ("asy-s", "III.d3", "--s")):
        s = next(k for k, sw in enumerate(refs["regime"]) if sw["name"] == name)
        sweep = refs["regime"][s]
        pts = sorted(stratified(rng, range(len(sweep["points"])), 4))
        add(kind, ["asy", "--d", str(sweep["d"]), "--q", repr(sweep["q"]),
                   "--x", _xarg(sweep["xhat"]), flag, repr(sweep["param"]),
                   "--n-list", ",".join(str(sweep["points"][p]["n"]) for p in pts)],
            sweep=s, points=pts)

    g = refs["gbar"]
    c = rng.randrange(len(g["curves"]) // len(g["a_list"]))
    curves = list(range(c * len(g["a_list"]), (c + 1) * len(g["a_list"])))
    add("gbar", ["gbar", "--d", str(g["d"]), "--x", _xarg(g["curves"][curves[0]]["x"]),
                 "--a-list", ",".join(repr(a) for a in g["a_list"]),
                 "--y-range", f"{g['y_range'][0]!r}:{g['y_range'][1]!r}",
                 "--y-steps", str(g["y_steps"])], curves=curves)
    b = refs["bound"]
    add("bound", ["bound", "--d", str(b["d"]), "--q", str(b["q"]),
                  "--kappa", repr(b["kappa"]), "--kappa1", repr(b["kappa1"]),
                  "--a-grid", ",".join(repr(a) for a in b["a_grid"]),
                  "--box", str(b["box"])])

    x2 = _xarg([rng.randrange(0, 4), rng.randrange(1, 4)])
    add("error", ["eval", "--d", "2", "--a", "0", "--q", "1", "--x", x2,
                  "--method", "bessel"], expect=EXIT_DOMAIN)
    add("error", ["norm", "--d", "3", "--a", repr(-rng.choice([0.5, 1.0, 2.0])),
                  "--x", "1,0,0"], expect=EXIT_DOMAIN)
    add("error", ["eval", "--d", "2", "--a", "1", "--q", "1", "--x", x2,
                  "--method", "closed-d1"], expect=EXIT_USAGE)
    add("error", ["eval", "--d", "3", "--a", "1", "--q", "1", "--method", "bessel"],
        expect=EXIT_USAGE)
    # A malformed tolerance is a usage or domain error by the documented
    # contract; a crash here is a known defect, reported apart from `failed`.
    add("known-defect", ["eval", "--d", "1", "--a", "1", "--q", "1", "--x", "1",
                         "--method", "bessel"], {"LATGREEN_REL_TOL": "abc"},
        expect=[EXIT_DOMAIN, EXIT_USAGE])
    return {"calls": calls, "meta": meta}


def _by_distance(entries, idx):
    """Pool indices ordered by distance from the origin."""
    return sorted(idx, key=lambda i: (sum(c * c for c in entries[i]["x"]), entries[i]["x"]))


def make_rounds(workload, seed, refs):
    """The rounds of calls for one run; the same seed gives the same rounds."""
    rng = random.Random(f"{workload}/{seed}")
    groups = oracle_groups(refs)
    make = {
        "oracle-grid": lambda: _oracle_round(rng, refs, groups),
        "regime-sweep": lambda: _regime_round(rng, refs),
        "mc-walks": lambda: _mc_round(rng),
        "cli-session": lambda: _cli_round(rng, refs, groups),
    }[workload]
    return [make() for _ in range(ROUNDS)]


def work_units(workload, rounds, records):
    """Points, walks or invocations completed by the recorded calls."""
    if workload == "mc-walks":
        return sum(rounds[r % len(rounds)]["calls"][j][3] for r, j, _, _ in records)
    return len(records)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _gap(log_a, log_b):
    return abs(math.expm1(log_a - log_b))


def _is_error(out):
    return isinstance(out, dict) and "error" in out


def check_oracle(refs, meta, out):
    ref = refs["oracle"][meta["ref"]]
    if _is_error(out):
        return [f"raised {out['error']}"]
    _, b_log, b_err, _, f_log, f_err = out
    tol_b = TOL_D1 if ref["source"] == "closed_d1" else TOL
    problems = []
    if _gap(b_log, ref["log_ref"]) > tol_b:
        problems.append(f"bessel off reference by {_gap(b_log, ref['log_ref']):.2e}")
    if _gap(f_log, ref["log_ref"]) > TOL:
        problems.append(f"fourier off reference by {_gap(f_log, ref['log_ref']):.2e}")
    if _gap(b_log, f_log) > TOL:
        problems.append(f"bessel vs fourier {_gap(b_log, f_log):.2e}")
    return problems


def check_regime(refs, meta, out):
    if _is_error(out):
        return [f"raised {out['error']}"]
    pt = refs["regime"][meta["sweep"]]["points"][meta["point"]]
    tol = TOL_D1 if pt["source"] == "closed_d1" else TOL
    problems = []
    if _gap(out[1], pt["log_ref"]) > tol:
        problems.append(f"value off reference by {_gap(out[1], pt['log_ref']):.2e}")
    for kind, want in pt["estimates"].items():
        if _gap(out[3][kind], want) > TOL_FORMULA:
            problems.append(f"{kind} estimate off by {_gap(out[3][kind], want):.2e}")
    return problems


def mc_reference(refs):
    table = {}
    for e in refs["mc"]:
        table[(e["d"], e["a"], tuple(e["x"]))] = math.exp(e["log_ref"])
    return table


def check_mc(table, call, out, coverage):
    """Per ensemble: >= 95% of window points within 5 sigma.  The 3-sigma
    coverage of acceptance 09 is pooled over the run (see ``check_run``):
    with arbitrary seeds a 7-point d = 1 window misses it by chance in about
    one ensemble in 50."""
    if _is_error(out):
        return [f"raised {out['error']}"]
    kind, d, a, n_walks = call[:4]
    if kind == "kill":
        survive = 1.0 / (1.0 + a * a)
        problems = [] if out[0] == n_walks else ["count at n=0 is not n_walks"]
        for n in range(1, call[6] + 1):
            p = survive ** n
            se = math.sqrt(p * (1.0 - p) / n_walks)
            if abs(out[n] / n_walks - p) > KILL_SIGMA * se:
                problems.append(f"survival at n={n} off by more than {KILL_SIGMA} sigma")
        return problems
    scale = 1.0 + a * a
    near = inside = 0
    for point, mean, std_err in out:
        want = table[(d, a, tuple(sorted(abs(c) for c in point)))] * scale
        z = abs(mean - want) / std_err if std_err > 0 else (0.0 if mean == want else math.inf)
        near += z <= MC_POINT_SIGMA
        inside += z <= MC_COVER_SIGMA
    coverage[0] += inside
    coverage[1] += len(out)
    if near < MC_COVERAGE * len(out):
        return [f"only {near} of {len(out)} window points within {MC_POINT_SIGMA} sigma"]
    return []


def _parse_csv(stdout):
    lines = stdout.splitlines()
    if not lines or lines[0] != "# schema=1":
        raise ValueError("missing schema line")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]


def _close(got, want, tol):
    return abs(got - want) <= tol * max(abs(want), 1e-300)


def _unit_norm_gap(point, a):
    """|1 - |point|_a| by an independent bisection for the implicit scale."""
    d = len(point)
    x2 = [c * c for c in point]
    target = d * a * a

    def f(u):
        return sum(y * u * u / (1.0 + math.sqrt(1.0 + y * u * u)) for y in x2) - target

    lo, hi = 0.0, 1.0
    while f(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    u = 0.5 * (lo + hi)
    eps = d * a * a
    m = math.log1p(eps + math.sqrt(eps * (2.0 + eps)))
    return abs(sum(c * math.asinh(c * u) for c in point) / m - 1.0)


def check_cli(refs, meta, out):
    code, stdout, crashed = out
    kind = meta["kind"]
    if kind in ("error", "known-defect"):
        expect = meta["expect"] if isinstance(meta["expect"], list) else [meta["expect"]]
        problems = [] if code in expect else [f"exit {code}, expected {expect}"]
        if crashed:
            problems.append("traceback")
        if stdout:
            problems.append("output on stdout")
        return problems
    expect = EXIT_OK if kind != "bound" or refs["bound"]["holds"] else EXIT_VIOLATED
    if code != expect or crashed:
        return [f"exit {code}{' with traceback' if crashed else ''}"]
    try:
        _, rows = _parse_csv(stdout)
        return _CLI_CHECKS[kind](refs, meta, rows)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_eval(refs, meta, rows, table, tol):
    problems = []
    if len(rows) != len(meta["refs"]):
        return [f"{len(rows)} rows for {len(meta['refs'])} points"]
    for row, i in zip(rows, meta["refs"]):
        ref = refs[table][i]
        if [int(float(c)) for c in row["x"].split(",")] != ref["x"]:
            problems.append(f"row for x={row['x']} out of order")
        elif table == "mc":
            want = math.exp(ref["log_ref"])
            if abs(float(row["value"]) - want) > MC_POINT_SIGMA * float(row["est_error"]):
                problems.append(f"mc value at {row['x']} off by more than {MC_POINT_SIGMA} sigma")
        elif _gap(float(row["log_value"]), ref["log_ref"]) > tol(ref):
            problems.append(f"value at {row['x']} off by {_gap(float(row['log_value']), ref['log_ref']):.2e}")
    return problems


def _check_norm(refs, meta, rows):
    problems = []
    for row, i in zip(rows, meta["refs"]):
        ref = refs["norm"][i]
        x = ref["x"]
        l2 = math.sqrt(sum(c * c for c in x))
        checks = [("m_a", ref["m"]), ("norm", ref["norm"]), ("l2", l2),
                  ("l1", float(sum(abs(c) for c in x)))]
        if ref["u"] is not None:
            checks.append(("u", ref["u"]))
        elif row["u"] != "":
            problems.append("u given at the origin")
        for col, want in checks:
            if not _close(float(row[col]), want, TOL_FORMULA):
                problems.append(f"{col} at {x} is {row[col]}, want {want!r}")
        if row["sandwich_ok"] != "True":
            problems.append(f"sandwich fails at {x}")
    if len(rows) != len(meta["refs"]):
        problems.append("row count")
    return problems


def _check_ball(refs, meta, rows):
    n_phi = meta["points"] // 2 + 1
    n_phi += n_phi % 2 == 0
    if len(rows) != n_phi * meta["points"]:
        return [f"{len(rows)} rows"]
    worst = max(_unit_norm_gap([float(r["x1"]), float(r["x2"]), float(r["x3"])], meta["a"])
                for r in rows)
    return [] if worst <= 1e-9 else [f"boundary point off the unit sphere by {worst:.2e}"]


def _check_asy(refs, meta, rows):
    sweep = refs["regime"][meta["sweep"]]
    problems = []
    expected = []
    for p in meta["points"]:
        pt = sweep["points"][p]
        kinds = ["oz", "iso"] if sweep["kind"] == "a" else ["critical"]
        expected += [(pt, k) for k in kinds]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    for row, (pt, k) in zip(rows, expected):
        tol = TOL_D1 if pt["source"] == "closed_d1" else TOL
        if int(row["n"]) != pt["n"]:
            problems.append(f"row n={row['n']} out of order")
        elif _gap(float(row["exact_log"]), pt["log_ref"]) > tol:
            problems.append(f"exact at n={pt['n']} off reference")
        elif _gap(float(row["estimate_log"]), pt["estimates"][k]) > TOL_FORMULA:
            problems.append(f"{k} estimate at n={pt['n']} off reference")
    return problems


def _check_gbar(refs, meta, rows):
    g = refs["gbar"]
    expected = [(g["curves"][c], r) for c in meta["curves"] for r in g["curves"][c]["rows"]]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (curve, (y, gbar, hbar)) in zip(rows, expected):
        if float(row["a"]) != curve["a"] or float(row["y"]) != y:
            problems.append("row out of order")
        elif not (_close(float(row["gbar"]), gbar, TOL_FORMULA)
                  and _close(float(row["hbar"]), hbar, TOL_FORMULA)
                  and _close(float(row["gbar_d2_at_1"]), curve["gbar_d2_at_1"], TOL_FORMULA)):
            problems.append(f"gbar row at a={curve['a']}, y={y} off reference")
    return problems[:3]


def _check_bound(refs, meta, rows):
    b = refs["bound"]
    if len(rows) != 1:
        return ["row count"]
    row = rows[0]
    problems = []
    if row["holds"] != str(b["holds"]) or int(row["n_checked"]) != b["n_checked"]:
        problems.append("verdict or point count differs")
    if float(row["worst_a"]) != b["worst_a"] or row["worst_x"] != _xarg(b["worst_x"]):
        problems.append("worst point differs")
    if not _close(float(row["worst_ratio"]), b["worst_ratio"], TOL):
        problems.append("worst ratio off reference")
    return problems


def _eval_tol(ref):
    return TOL_D1 if ref["source"] == "closed_d1" else TOL


_CLI_CHECKS = {
    "eval-bessel": lambda r, m, rows: _check_eval(r, m, rows, "oracle", _eval_tol),
    "eval-fourier": lambda r, m, rows: _check_eval(r, m, rows, "oracle", lambda ref: TOL),
    "eval-closed": lambda r, m, rows: _check_eval(r, m, rows, "oracle", _eval_tol),
    "eval-mc": lambda r, m, rows: _check_eval(r, m, rows, "mc", None),
    "norm": _check_norm,
    "ball": _check_ball,
    "asy-a": _check_asy,
    "asy-s": _check_asy,
    "gbar": _check_gbar,
    "bound": _check_bound,
}


def check_records(workload, refs, rounds, records):
    """Check every recorded call.  Returns ([(known_defect, problems)] per
    call, run-level problems, MC 3-sigma coverage or None)."""
    verdicts = []
    coverage = [0, 0]
    table = mc_reference(refs) if workload == "mc-walks" else None
    for r, j, _, out in records:
        rnd = rounds[r % len(rounds)]
        meta, call = rnd["meta"][j], rnd["calls"][j]
        if workload == "oracle-grid":
            found = check_oracle(refs, meta, out)
        elif workload == "regime-sweep":
            found = check_regime(refs, meta, out)
        elif workload == "mc-walks":
            found = check_mc(table, call, out, coverage)
        else:
            found = check_cli(refs, meta, out)
        verdicts.append((meta.get("kind") == "known-defect", found))
    run_problems = []
    cover = coverage[0] / coverage[1] if coverage[1] else None
    if cover is not None and cover < MC_COVERAGE:
        run_problems.append(f"MC 3-sigma coverage {cover:.3f} below {MC_COVERAGE}")
    return verdicts, run_problems, cover
