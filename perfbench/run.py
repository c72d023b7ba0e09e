"""latgreen benchmark: one workload, one seed, every metric.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 20 --trace 0

Workloads: oracle-grid, regime-sweep, mc-walks, cli-session (see
``workloads.py`` for why each exists).  The run builds its inputs from the
seed, measures the library from ``src/`` in a fresh single-threaded child
process for ``--seconds`` (finishing the round under way), checks every
output against the frozen references, and prints each metric by name with
its unit.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
inputs twice, untraced and then with spans recorded around the library's
public functions, checks that both runs give bit-identical outputs, and
reports the per-module metrics plus the tracing overhead.  Spans are written
to ``.perfbench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Fresh-interpreter set-up: the import a user pays, plus one warm-up call per
# route the workload uses.
SETUP_SNIPPET = """
import sys
sys.path.insert(0, {here!r})
import latgreen as lg
{extra}
import warmup
warmup.warm_up(lg, {routes!r})
"""

IMPORT_SNIPPET = """
import time
t0 = time.perf_counter()
import latgreen.cli
print(time.perf_counter() - t0)
"""


def child_env(root):
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(root, job):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, cwd=root,
        env=child_env(root), timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {job['workload']} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def fresh_interpreter_s(root, code):
    """Wall time of one fresh interpreter running ``code``, and its stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=root, env=child_env(root), timeout=CHILD_TIMEOUT_S,
                          check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("set-up interpreter failed")
    return elapsed, proc.stdout


def setup_seconds(root, workload):
    spec = workloads.WORKLOADS[workload]
    extra = "import latgreen.cli" if spec["mode"] == "cli" else ""
    code = SETUP_SNIPPET.format(here=str(HERE), extra=extra, routes=spec["routes"])
    return statistics.median(fresh_interpreter_s(root, code)[0]
                             for _ in range(SETUP_REPEATS))


def tail(durations_ms):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    n = len(durations_ms)
    ordered = sorted(durations_ms, reverse=True)
    if n <= TAIL_BEYOND:
        return ordered[0], 100.0, n
    return ordered[TAIL_BEYOND], 100.0 * (1.0 - TAIL_BEYOND / n), n


def job(workload, rounds, seconds, trace=False, replay=None, mode=None, spans_path=None):
    spec = workloads.WORKLOADS[workload]
    return {"workload": workload, "mode": mode or spec["mode"], "routes": spec["routes"],
            "rounds": rounds, "seconds": seconds, "trace": trace, "replay": replay,
            "spans_path": spans_path}


def outputs(result):
    """What must match bit for bit between runs: the call outputs, keyed by
    (round, call); for CLI calls the exit code and stdout."""
    return [(r, j, out[:2] if isinstance(out, list) and len(out) == 3
             and isinstance(out[1], str) else out)
            for r, j, _, out in result["calls"]]


def summarize_checks(workload, refs, rounds, result, report):
    """Check one worker result, add its counts to ``report`` and return the
    MC 3-sigma coverage (None for other workloads)."""
    verdicts, run_problems, cover = workloads.check_records(
        workload, refs, rounds, result["calls"])
    for (known, problems), (r, j, _, _) in zip(verdicts, result["calls"]):
        prefix = "known" if known else ""
        report[prefix + "attempted"] += 1
        report[prefix + "failed"] += bool(problems)
        if problems and report[prefix + "failed"] <= 3:
            label = "known defect" if known else "FAILED"
            print(f"# {label}: {rounds[r % len(rounds)]['calls'][j]}: {'; '.join(problems)}")
    report["run_problems"] += run_problems
    return cover


def end_to_end(root, workload, seconds, refs, rounds, report):
    result = run_worker(root, job(workload, rounds, seconds))
    summarize_checks(workload, refs, rounds, result, report)
    ms = [dt / 1e6 for _, _, dt, _ in result["calls"]]
    tail_ms, pct, n = tail(ms)
    units = workloads.work_units(workload, rounds, result["calls"])
    rss_kb = (result["children_maxrss_kb"] if workloads.WORKLOADS[workload]["mode"] == "cli"
              else result["maxrss_kb"])
    metrics = {
        "throughput_per_s": units / (result["work_ns"] / 1e9),
        "call_p50_ms": statistics.median(ms),
        "call_tail_ms": tail_ms,
        "setup_s": setup_seconds(root, workload),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    unit = workloads.WORKLOADS[workload]["unit"]
    print(f"# versions: {json.dumps(result['versions'])}")
    print(f"# rounds: {len(result['rounds'])}, calls: {len(ms)}, {unit}: {units}, "
          f"measured: {result['work_ns'] / 1e9:.3f} s")
    print(f"# {unit}_per_s = {metrics['throughput_per_s']:.6g} 1/s (throughput_per_s)")
    print(f"# call_tail_ms is p{pct:.2f} of {n} calls")
    return metrics


def per_layer(root, workload, seed, seconds, refs, rounds, report):
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = str(out_dir / f"spans-{workload}-seed{seed}.tsv")
    cli = workloads.WORKLOADS[workload]["mode"] == "cli"
    first = run_worker(root, job(workload, rounds, seconds / 2.0))
    done = first["rounds"]
    if cli:
        untraced = run_worker(root, job(workload, rounds, 0, replay=done, mode="cli-inproc"))
        traced = run_worker(root, job(workload, rounds, 0, trace=True, replay=done,
                                      mode="cli-inproc", spans_path=spans_path))
        runs = [first, untraced, traced]
    else:
        untraced = first
        traced = run_worker(root, job(workload, rounds, 0, trace=True, replay=done,
                                      spans_path=spans_path))
        runs = [first, traced]
    for result in runs:
        cover = summarize_checks(workload, refs, rounds, result, report)
    if any(outputs(result) != outputs(first) for result in runs[1:]):
        report["run_problems"].append("traced outputs differ from untraced outputs")
    metrics = dict(traced["layers"])
    metrics["walk.coverage"] = cover or 0.0
    metrics["trace.overhead_frac"] = traced["work_ns"] / untraced["work_ns"] - 1.0
    if cli:
        gaps = [(a[2] - b[2]) / 1e6 for a, b in zip(first["calls"], untraced["calls"])]
        metrics["cli.process_ms_per_invocation"] = statistics.fmean(gaps)
        metrics["cli.import_ms"] = 1e3 * statistics.median(
            float(fresh_interpreter_s(root, IMPORT_SNIPPET)[1]) for _ in range(SETUP_REPEATS))
    else:
        metrics["cli.process_ms_per_invocation"] = 0.0
        metrics["cli.import_ms"] = 0.0
    print(f"# versions: {json.dumps(traced['versions'])}")
    print(f"# traced {len(done)} rounds; spans in {spans_path}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "latgreen" / "__init__.py").is_file():
        sys.exit(f"no latgreen sources under {root / 'src'}; run from the repository root")
    refs = workloads.load_references()
    rounds = workloads.make_rounds(args.workload, args.seed, refs)
    report = {"attempted": 0, "failed": 0, "knownattempted": 0, "knownfailed": 0,
              "run_problems": []}
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    if args.trace:
        import layers

        units = layers.UNITS
        values = per_layer(root, args.workload, args.seed, args.seconds, refs, rounds, report)
    else:
        units = END_TO_END_UNITS
        values = end_to_end(root, args.workload, args.seconds, refs, rounds, report)
    for problem in report["run_problems"]:
        print(f"# FAILED run check: {problem}")
    calls = report["attempted"] + report["knownattempted"]
    print(f"# fail_frac = {(report['failed'] + report['knownfailed']) / calls:.6g}: "
          f"{report['failed']} of {report['attempted']} calls failed, and the known defect "
          f"{report['knownfailed']} of {report['knownattempted']} (not in 'failed')")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": report["failed"] == 0 and not report["run_problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
