#!/usr/bin/env python3
"""sgk benchmark: seeded R-MAT workloads run through the `sgk` command line.

    python3 perfbench/run.py --workload traverse --seed 1 --seconds 20 --trace 0

Each workload is a fixed list of `sgk` commands, run in this process through
`sgk.cli.run(argv)` with stdout captured, against files generated from the
seed.  One pass runs the list once; passes repeat for `--seconds`, and every
command of every pass is checked against answers computed at set-up.

--trace 0 reports the end-to-end metrics (no instrumentation installed):
  setup_s      the sgk import plus the median of three set-ups, each one
               generating and writing the inputs, computing the expected
               answers and running one warm-up pass
  pass_s       median time of one pass, the sum of its commands' times
  peak_rss_mb  ru_maxrss of this process
The two times are wall times rescaled to a fixed host speed by a reference
loop timed before and after each command and each set-up (see
hostspeed.py); their raw wall times are printed on info lines.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of `tracer.METRICS`: self times (median over traced passes), exact
work counters, and the tracing overhead (traced minus untraced pass_s).  It
also checks that traced outputs equal untraced ones and that every traced
pass has the same counters, and writes the spans of the last traced pass to
perfbench/_out/.

Informational lines (provenance, graph sizes, tail latency, fail_ratio, a
scipy.sparse reference product) precede the last line, which is the JSON
result.  Exits non-zero without a result when sgk cannot be imported from
src/ next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")


def import_sgk() -> None:
    """Import sgk from this checkout's src/."""
    sys.path.insert(0, SRC)
    try:
        import sgk.cli
    except ImportError as e:
        raise SystemExit(f"error: cannot import sgk from {SRC}: {e}") from None
    if not os.path.abspath(sgk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: sgk imported from {sgk.__file__}, not from {SRC}")


def run_command(cli, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process `sgk` invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_pass(cli, commands, tracer=None) -> tuple:
    """Wall time of one pass and the raw result of every command."""
    results = []
    started = time.perf_counter()
    for cid, cmd in enumerate(commands):
        if tracer is None:
            results.append(run_command(cli, cmd.argv))
            continue
        tracer.command = cid
        span = tracer.begin(f"cli.{cmd.name}")
        results.append(run_command(cli, cmd.argv))
        tracer.end(span)
        tracer.counts["cli.stdout_bytes"] += len(results[-1][1])
    return time.perf_counter() - started, results


def without_elapsed(result):
    """A command's exit code and printed JSON, minus the elapsed_ms field."""
    code, stdout, _stderr = result
    try:
        payload = json.loads(stdout)
    except ValueError:
        return code, stdout
    payload.pop("elapsed_ms", None)
    return code, payload


def failures(commands, results, log) -> int:
    """Commands that exited non-zero or printed a wrong answer."""
    bad = 0
    for cmd, (code, stdout, stderr) in zip(commands, results):
        try:
            ok = code == 0 and cmd.check(json.loads(stdout))
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            bad += 1
            log(f"FAILED {' '.join(cmd.argv)}: exit {code} {stderr.strip()[:200]}")
    return bad


def tail(samples) -> tuple:
    """(percentile, value) of the highest order statistic with TAIL_BEYOND
    samples above it, or (None, None) when there are too few samples."""
    if len(samples) <= TAIL_BEYOND:
        return None, None
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def commit_id() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def scipy_reference(workdir) -> str | None:
    """Time a scipy.sparse plus_times A @ A of the products graph, to show
    the gap to compiled code; None when scipy is unavailable."""
    try:
        import numpy as np
        from scipy import sparse
    except ImportError:
        return None
    rows, cols = [], []
    with open(os.path.join(workdir, "products.tsv"), encoding="utf-8") as fh:
        for line in fh:
            u, v = map(int, line.split())
            rows += [u, v]
            cols += [v, u]
    n = 1 + max(rows)
    a = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    times = []
    for _ in range(5):
        started = time.perf_counter()
        c = a @ a
        times.append(time.perf_counter() - started)
    return (f"scipy.sparse plus_times A@A on the products graph: "
            f"{statistics.median(times) * 1e3:.3f} ms median of 5, nnz_out {c.nnz}")


def clocked_pass(cli, commands, clock) -> tuple:
    """(wall s, rescaled s, results) of one untraced pass, each command timed
    by `clock` and the reference probes between commands left out."""
    wall = rescaled = 0.0
    results = []
    for cmd in commands:
        dt, scaled, result = clock.timed(run_command, cli, cmd.argv)
        wall += dt
        rescaled += scaled
        results.append(result)
    return wall, rescaled, results


def measure(cli, commands, seconds, clock, log) -> tuple:
    """End-to-end metrics of untraced passes repeated for `seconds`."""
    walls, times, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        wall, dt, results = clocked_pass(cli, commands, clock)
        walls.append(wall)
        times.append(dt)
        attempted += len(commands)
        failed += failures(commands, results, log)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pct, worst = tail(times)
    log(f"pass_s median of {len(times)} passes; "
        + (f"p{pct:.0f} {worst:.4f} s" if pct else "too few passes for a tail")
        + "; pass times " + json.dumps([round(t, 4) for t in times]))
    log(f"pass wall time median {statistics.median(walls):.4f} s; reference loop "
        f"median {statistics.median(clock.loops) * 1e3:.3f} ms over "
        f"{len(clock.loops)} probes, nominal {hostspeed.REF_LOOP_S * 1e3:g} ms")
    metrics = {"pass_s": (statistics.median(times), "s"), "peak_rss_mb": (rss_mb, "MB")}
    return metrics, True, attempted, failed


def measure_traced(tracing, mods, commands, args, log) -> tuple:
    """Per-layer metrics from traced passes, each after an untraced one, for
    `seconds`; writes the spans of the last traced pass to _out/."""
    tr = tracing.Tracer(mods)
    plain, traced, per_pass = [], [], []
    attempted = failed = 0
    counters_ok = True
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        dt, base = run_pass(mods["cli"], commands)
        plain.append(dt)
        tr.reset()
        tr.install()
        try:
            dt, results = run_pass(mods["cli"], commands, tr)
        finally:
            tr.uninstall()
        traced.append(dt)
        attempted += 2 * len(commands)
        failed += failures(commands, base, log) + failures(commands, results, log)
        for cmd, a, b in zip(commands, base, results):
            if without_elapsed(a) != without_elapsed(b):
                failed += 1
                log(f"MISMATCH traced output of {' '.join(cmd.argv)}")
        per_pass.append(tr.pass_metrics())
        mismatched = [k for k in tracing.EXACT if per_pass[-1][k] != per_pass[0][k]]
        if mismatched:
            counters_ok = False
            log(f"COUNTERS differ between traced passes: {mismatched}")
    layer = tracing.combine(per_pass)
    layer["trace.untraced_pass_s"] = statistics.median(plain)
    layer["trace.traced_pass_s"] = statistics.median(traced)
    layer["trace.overhead_s"] = layer["trace.traced_pass_s"] - layer["trace.untraced_pass_s"]

    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "command"],
                   "commands": [c.argv for c in commands], "spans": tr.spans}, fh)
    log(f"{len(traced)} traced passes; spans of the last in "
        f"{os.path.relpath(spans_path, ROOT)}")
    for k, v in layer.items():
        log(f"  {k} = {v:.6g} {tracing.METRICS[k]}")
    metrics = {k: (v, tracing.METRICS[k]) for k, v in layer.items()}
    return metrics, counters_ok, attempted, failed


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    clock = hostspeed.HostClock()
    import_wall, import_s, _ = clock.timed(import_sgk)
    # Imported after sgk is on the path: workloads uses sgk.oracle.
    import tracer as tracing
    import workloads
    from sgk import algorithms, cli, containers, io_formats, kernels

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")

    def log(msg):
        print(f"# {msg}", flush=True)

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")

    def prepare():
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        return workloads.prepare(args.workload, args.seed, workdir)

    try:
        walls, setups, attempted, failed = [], [], 0, 0
        for _ in range(SETUP_REPEATS):
            # Generation and expected answers, then a warm-up pass.
            wall, scaled, prepared = clock.timed(prepare)
            commands = prepared.commands
            warm_wall, warm_scaled, results = clocked_pass(cli, commands, clock)
            walls.append(wall + warm_wall)
            setups.append(scaled + warm_scaled)
            attempted += len(commands)
            failed += failures(commands, results, log)
        setup_s = import_s + statistics.median(setups)
        log(f"setup wall time {import_wall + statistics.median(walls):.4f} s "
            f"(import {import_wall:.4f} s)")

        log("provenance " + json.dumps({
            "python": platform.python_version(), "commit": commit_id(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "graph": prepared.sizes,
            "commands": [" ".join(os.path.basename(a) for a in c.argv)
                         for c in commands]}))

        if args.trace == 0:
            metrics, ok, attempts, fails = measure(cli, commands, args.seconds, clock, log)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
        else:
            mods = {"cli": cli, "algorithms": algorithms, "kernels": kernels,
                    "containers": containers, "io_formats": io_formats}
            metrics, ok, attempts, fails = measure_traced(
                tracing, mods, commands, args, log)
        attempted += attempts
        failed += fails
        log(f"{args.workload}: " + ", ".join(
            f"{k} {v:.4f} {u}" for k, (v, u) in metrics.items() if k in END_TO_END)
            + f"{', ' if args.trace == 0 else ''}fail_ratio {failed / attempted:.4f} "
            f"({failed}/{attempted})")

        if args.workload == "products":
            line = scipy_reference(workdir)
            log(line if line else "scipy unavailable: no reference product")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    print(json.dumps({
        "correct": failed == 0 and ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
