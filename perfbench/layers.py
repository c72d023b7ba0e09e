"""Per-module metrics from the spans of a traced run.

Every metric is defined for every workload; a module the workload never
calls reads 0.  The metrics that need an untraced run or the output checks
(trace overhead, process time per CLI invocation, import time, MC coverage)
are added by the parent process.
"""

from tracing import ATTR, END, NAME, PARENT, REQUEST, START, self_times

UNITS = {
    "special.ibar_calls_per_point": "count",
    "special.ibar_evals_per_point": "count",
    "special.ns_per_ibar_eval": "ns",
    "special.share": "fraction",
    "quadrature.integrand_calls_per_point": "count",
    "quadrature.nodes_per_point": "count",
    "quadrature.self_ms_per_point": "ms",
    "lattice.bessel_ms_per_point": "ms",
    "lattice.fourier_ms_per_point.periodic": "ms",
    "lattice.fourier_ms_per_point.massless": "ms",
    "lattice.fourier_ms_per_point.shifted": "ms",
    "lattice.fourier_group_first_ms": "ms",
    "lattice.fourier_group_rest_ms": "ms",
    "walk.walks_per_s.box3": "1/s",
    "walk.walks_per_s.box6": "1/s",
    "walk.coverage": "fraction",
    "walk.kill_time_ms": "ms",
    "cli.mc_ensembles_per_invocation": "count",
    "norm.points_per_s": "1/s",
    "continuum.ms_per_call": "ms",
    "asymptotics.estimate_us_per_call": "us",
    "asymptotics.bound_points_per_s": "1/s",
    "cli.import_ms": "ms",
    "cli.process_ms_per_invocation": "ms",
    "cli.self_ms_per_invocation": "ms",
    "trace.overhead_frac": "fraction",
}


def _ratio(num, den):
    return num / den if den else 0.0


def _mean_ms(durations):
    return _ratio(sum(durations), len(durations)) / 1e6


def span_metrics(spans, rounds, records):
    """Aggregate spans into the per-module metrics (see UNITS)."""
    meta = [rounds[r % len(rounds)]["meta"][j] for r, j, _, _ in records]
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def durations(name):
        return [dur(i) for i in by_name.get(name, [])]

    bessel = durations("lattice.green_bessel")
    points = len(bessel)
    ibar = by_name.get("special.ibar", [])
    ibar_ns = sum(dur(i) for i in ibar)
    ibar_evals = sum(spans[i][ATTR] for i in ibar)
    integrand = by_name.get("quadrature.integrand", [])
    m = {
        "special.ibar_calls_per_point": _ratio(len(ibar), points),
        "special.ibar_evals_per_point": _ratio(ibar_evals, points),
        "special.ns_per_ibar_eval": _ratio(ibar_ns, ibar_evals),
        "special.share": _ratio(ibar_ns, sum(bessel)),
        "quadrature.integrand_calls_per_point": _ratio(len(integrand), points),
        "quadrature.nodes_per_point": _ratio(sum(spans[i][ATTR] for i in integrand), points),
        "quadrature.self_ms_per_point": _ratio(
            sum(own[i] for i in by_name.get("quadrature.integral", [])), points) / 1e6,
        "lattice.bessel_ms_per_point": _mean_ms(bessel),
    }

    fourier = {"periodic": [], "massless": [], "shifted": [], "first": [], "rest": []}
    for i in by_name.get("lattice.green_fourier_oracle", []):
        info = meta[spans[i][REQUEST]]
        fourier[info["path"]].append(dur(i))
        if "first" in info:
            fourier["first" if info["first"] else "rest"].append(dur(i))
    for path in ("periodic", "massless", "shifted"):
        m[f"lattice.fourier_ms_per_point.{path}"] = _mean_ms(fourier[path])
    m["lattice.fourier_group_first_ms"] = _mean_ms(fourier["first"])
    m["lattice.fourier_group_rest_ms"] = _mean_ms(fourier["rest"])

    for box in (3, 6):
        walks = [i for i in by_name.get("walk.run_killed_walks", [])
                 if meta[spans[i][REQUEST]].get("box") == box]
        m[f"walk.walks_per_s.box{box}"] = _ratio(
            sum(spans[i][ATTR] for i in walks), sum(dur(i) for i in walks) / 1e9)
    m["walk.kill_time_ms"] = _mean_ms(durations("walk.kill_time_survival"))

    mc_requests = {k for k, info in enumerate(meta) if info.get("kind") == "eval-mc"}
    ensembles = sum(1 for i in by_name.get("walk.run_killed_walks", [])
                    if spans[i][REQUEST] in mc_requests)
    m["cli.mc_ensembles_per_invocation"] = _ratio(ensembles, len(mc_requests))

    norm_points = norm_ns = 0
    for i, s in enumerate(spans):
        if s[NAME].startswith("norm.") and not (
                s[PARENT] >= 0 and spans[s[PARENT]][NAME].startswith("norm.")):
            norm_points += s[ATTR] or 0
            norm_ns += dur(i)
    m["norm.points_per_s"] = _ratio(norm_points, norm_ns / 1e9)
    m["continuum.ms_per_call"] = _mean_ms(durations("continuum.log_green_continuum"))
    m["asymptotics.estimate_us_per_call"] = _mean_ms(durations("asymptotics.estimate")) * 1e3
    bound = by_name.get("asymptotics.uniform_bound_check", [])
    m["asymptotics.bound_points_per_s"] = _ratio(
        sum(spans[i][ATTR] for i in bound), sum(dur(i) for i in bound) / 1e9)
    m["cli.self_ms_per_invocation"] = _mean_ms(
        [own[i] for i in by_name.get("cli.main", [])])
    return m
