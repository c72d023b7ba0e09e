"""One workload in a fresh process: run generated calls, time each one.

Reads a JSON job on stdin and writes a JSON result on stdout.  The job holds
the generated rounds of calls; the worker runs round after round (cycling
through the list) until ``seconds`` have passed at a round boundary, or
exactly the rounds listed in ``replay``.  The worker never sees the
reference values: the parent process checks the outputs.

Modes: ``lib`` calls the library in this process, ``cli`` starts one
``python -m latgreen.cli`` process per call, ``cli-inproc`` calls
``latgreen.cli.main(argv)`` in this process.
"""

import contextlib
import importlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

from warmup import warm_up

CLI_TIMEOUT_S = 60


def oracle_call(lg, args):
    d, a, q, x = args
    p = lg.GreenParams(d, a, q)
    gb = lg.green_bessel(p, x)
    gf = lg.green_fourier_oracle(p, x)
    return [gb.value, gb.log_value, gb.est_error, gf.value, gf.log_value, gf.est_error]


def regime_call(lg, args):
    d, a, q, x, xhat, n, s, kinds = args
    p = lg.GreenParams(d, a, q)
    gb = lg.green_bessel(p, x)
    estimates = {}
    for kind in kinds:
        if kind == "oz":
            estimates[kind] = lg.oz_estimate(p, xhat, n).log_value
        elif kind == "iso":
            estimates[kind] = lg.oz_isotropic_estimate(p, xhat, n).log_value
        else:
            estimates[kind] = lg.critical_estimate(p, xhat, n, s).log_value
    return [gb.value, gb.log_value, gb.est_error, estimates]


def mc_call(lg, args):
    kind, d, a, n_walks, seed, box = args[:6]
    cfg = lg.WalkConfig(d=d, a=a, n_walks=n_walks, seed=seed, max_box=box)
    if kind == "kill":
        return lg.kill_time_survival(cfg, args[6])
    return lg.run_killed_walks(cfg)


def mc_output(result):
    if isinstance(result, dict):
        if "error" in result:
            return result
        return sorted([list(pt), est.mean, est.std_err] for pt, est in result.items())
    return [int(c) for c in result]


def cli_subprocess_call(argv, extra_env):
    proc = subprocess.run(
        [sys.executable, "-m", "latgreen.cli", *argv],
        capture_output=True, text=True, env={**os.environ, **extra_env}, check=False,
        timeout=CLI_TIMEOUT_S,
    )
    return [proc.returncode, proc.stdout, "Traceback" in proc.stderr]


def cli_inprocess_call(cli, argv, extra_env):
    saved = {k: os.environ.get(k) for k in extra_env}
    os.environ.update(extra_env)
    out, err = io.StringIO(), io.StringIO()
    crashed = False
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an uncaught error ends the real process with 1
                traceback.print_exc()
                code, crashed = 1, True
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return [code, out.getvalue(), crashed]


def versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def main():
    job = json.load(sys.stdin)
    lg = importlib.import_module("latgreen")
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(lg.__file__).startswith(src + os.sep):
        sys.exit(f"latgreen imported from {lg.__file__}, not from {src}")
    mode = job["mode"]
    cli = importlib.import_module("latgreen.cli") if mode != "lib" else None

    if mode == "lib":
        warm_up(lg, job["routes"])
        run_one = {"oracle-grid": oracle_call, "regime-sweep": regime_call,
                   "mc-walks": mc_call}[job["workload"]]
        call = lambda args: run_one(lg, args)  # noqa: E731
    elif mode == "cli":
        call = lambda args: cli_subprocess_call(*args)  # noqa: E731
    else:
        cli_inprocess_call(cli, ["norm", "--d", "2", "--a", "0.7", "--x", "1,0"], {})
        call = lambda args: cli_inprocess_call(cli, *args)  # noqa: E731

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    rounds = job["rounds"]
    replay = job.get("replay")
    done, records = [], []
    clock = time.perf_counter_ns
    request = 0
    start = clock()
    index = 0
    while True:
        if replay is not None:
            if index >= len(replay):
                break
            r = replay[index]
        else:
            r = index
        for j, args in enumerate(rounds[r % len(rounds)]["calls"]):
            if tracer is not None:
                tracer.request = request
            t0 = clock()
            try:
                result = call(args)
            except Exception as exc:  # counted as a failed call by the parent
                result = {"error": f"{type(exc).__name__}: {exc}"}
            dt = clock() - t0
            records.append([r, j, dt, result])
            request += 1
        done.append(r)
        index += 1
        if replay is None and clock() - start >= job["seconds"] * 1e9:
            break
    work_ns = clock() - start

    if job["workload"] == "mc-walks":
        for rec in records:  # converted outside the timed loop
            rec[3] = mc_output(rec[3])
    out = {
        "rounds": done,
        "calls": records,
        "work_ns": work_ns,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "versions": versions(),
    }
    if tracer is not None:
        import layers

        out["layers"] = layers.span_metrics(tracer.spans, rounds, records)
        if job.get("spans_path"):
            tracing.write_spans(tracer.spans, job["spans_path"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
