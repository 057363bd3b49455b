#!/usr/bin/env python3
"""Run the benchmark in alternating pairs of two revisions and compare them.

    python3 scripts/ab_pairs.py BASE CHANGE --workload products --seed 7 --pairs 10

`--workload` may be given more than once (`--workload traverse --workload
products`); each named workload is then measured in turn, with its own
pairs and its own report, from one extraction of the two trees.

BASE and CHANGE are git revisions of this repository (pass `$(git stash
create)` as CHANGE to measure uncommitted work).  Both are resolved to
full commit ids before any run, and every report header and the JSON dump
name those ids; a revision that names no commit exits with one `error:`
line.  Each is extracted with
`git archive REV | tar -x` into a path of the same length for both, and
`perfbench/run.py --trace 0` runs from each extracted tree, so each side
runs its own benchmark against its own src/.  Every run lasts the
`run_seconds` that both trees' BENCHMARK.json declare.  Pair k runs BASE first when k
is even and CHANGE first when it is odd.

Every run is printed as it finishes.  Then, for each end-to-end metric
(all lower-is-better), each side's median and quartiles, the pairs each side
won (a tie counts for neither), whether CHANGE shows a gain (it won at
least nine tenths of the pairs and its median is below BASE's by more than
BASE's interquartile range) and the no-regression verdict against the
metric's `bound` in BENCHMARK.json: `regressed` when CHANGE's median exceeds
BASE's median times (1 + bound), `unresolved` when BASE's interquartile
range is wider than bound times its median and some CHANGE run does not
beat every BASE run, `ok` otherwise.  Exits 1 when any run fails or reports
an incorrect output on any workload.

`setup_s` and `pass_s` are wall times rescaled by a host-speed probe (see
perfbench/hostspeed.py).  Each run also prints the raw wall times behind
them on its info lines; their medians are printed beside the rescaled ones,
so that a swing the probe alone causes can be told from a real one.

    python3 scripts/ab_pairs.py BASE CHANGE --workload iterate --seed 3 --counters

With --counters, each side instead makes one `--trace 1` run of
COUNTER_SECONDS at the given seed, and every exact counter that differs is
printed as name, BASE value, CHANGE value.  The exact counters are the
per-layer metrics not measured in seconds, less `cli.stdout_bytes` (it
counts the digits of each command's elapsed time); they do not depend on
the run length.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTER_SECONDS = 2.0
# The info line of a run that holds the raw wall time behind each rescaled metric.
RAW_WALLS = {"setup_s": re.compile(r"^# setup wall time ([0-9.]+) s"),
             "pass_s": re.compile(r"^# pass wall time median ([0-9.]+) s")}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(xs) < 2:
        return (xs[0],) * 3
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def compare(base: list[float], change: list[float]) -> dict:
    """Summarise paired runs of a lower-is-better metric; `base[k]` and
    `change[k]` are the two sides of pair k."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same non-zero number of runs on each side")
    change_wins = sum(c < b for b, c in zip(base, change))
    base_wins = sum(b < c for b, c in zip(base, change))
    bq1, bmed, bq3 = quartiles(base)
    cq = quartiles(change)
    return {
        "base": (bq1, bmed, bq3),
        "change": cq,
        "change_wins": change_wins,
        "base_wins": base_wins,
        "ties": len(base) - change_wins - base_wins,
        "gain": change_wins >= 0.9 * len(base) and bmed - cq[1] > bq3 - bq1,
    }


def verdict(base: list[float], change: list[float], bound: float) -> str:
    """The no-regression verdict on a lower-is-better metric with relative
    `bound`: "regressed", "unresolved" or "ok" (see the module docstring)."""
    bq1, bmed, bq3 = quartiles(base)
    if quartiles(change)[1] > bmed * (1 + bound):
        return "regressed"
    if bq3 - bq1 > bound * bmed and max(change) >= min(base):
        return "unresolved"
    return "ok"


def counter_diff(base: dict, change: dict) -> list[tuple[str, float, float]]:
    """(name, base value, change value) of each exact counter whose values
    differ, in `base`'s order; both are `--trace 1` "metrics" objects.  A
    counter only one side reports reads as None on the other."""
    missing = {"value": None, "unit": ""}
    names = list(base) + [m for m in change if m not in base]
    out = []
    for m in names:
        b, c = base.get(m, missing), change.get(m, missing)
        if "s" in (b["unit"], c["unit"]) or m == "cli.stdout_bytes":
            continue
        if b["value"] != c["value"]:
            out.append((m, b["value"], c["value"]))
    return out


def raw_walls(lines: list[str]) -> dict[str, float]:
    """The raw wall time of each metric in `RAW_WALLS` that a run's output
    `lines` report on an info line."""
    found = {}
    for line in lines:
        for m, pattern in RAW_WALLS.items():
            hit = pattern.match(line)
            if hit:
                found[m] = float(hit.group(1))
    return found


def resolve(rev: str) -> str:
    """The full id of the commit that git revision `rev` names."""
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
                           f"{rev}^{{commit}}"], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: revision {rev!r} names no commit")
    return proc.stdout.strip()


def extract(rev: str, dest: str) -> None:
    """Write the tree of `rev` into `dest` (git archive piped into tar)."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"error: cannot extract revision {rev!r}")


def declared(tree: str) -> tuple[float, dict[str, float]]:
    """The run length the benchmark in `tree` declares, and the bound of
    each end-to-end metric by name."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["run_seconds"], {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The JSON result of one benchmark run in `tree`, with the raw wall
    times of its info lines under "raw_walls"."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: benchmark run in {tree} exited {proc.returncode}")
    return {**json.loads(lines[-1]), "raw_walls": raw_walls(lines[:-1])}


def compare_counters(trees: dict, workload: str, args) -> bool:
    """Print the exact counters that differ between one traced run per side;
    False when a run fails or reports an incorrect output."""
    results = {side: run_once(tree, workload, args.seed, COUNTER_SECONDS, trace=1)
               for side, tree in trees.items()}
    ok = True
    for side, result in results.items():
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"{side}: correct {result['correct']}, failed "
              f"{result['failed']}/{result['attempted']}")
    diffs = counter_diff(results["base"]["metrics"], results["change"]["metrics"])
    print(f"{workload} seed {args.seed}, base {args.base} vs change {args.change}: "
          f"{len(diffs)} exact counters differ")
    for name, b, c in diffs:
        print(f"{name} {b} {c}")
    return ok


def raw_medians(base: list[float], change: list[float], pairs: int) -> str:
    """"  raw wall: base X change Y", the medians of a raw wall time on each
    side, or "" when some of the `pairs` runs of a side did not report it."""
    if len(base) != pairs or len(change) != pairs:
        return ""
    return (f"  raw wall: base {statistics.median(base):.4f} "
            f"change {statistics.median(change):.4f}")


def compare_pairs(trees: dict, workload: str, args, seconds: float,
                  bounds: dict[str, float]) -> bool:
    """Run and report `args.pairs` alternating pairs of one workload; False
    when a run fails or reports an incorrect output."""
    runs: dict[str, dict[str, list[float]]] = {"base": {}, "change": {}}
    ok = True
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            result = run_once(trees[side], workload, args.seed, seconds)
            ok = ok and result["correct"] and result["failed"] == 0
            values = {m: result["metrics"][m]["value"] for m in bounds}
            values.update((f"{m} raw wall", v) for m, v in result["raw_walls"].items())
            for m, v in values.items():
                runs[side].setdefault(m, []).append(v)
            print(f"pair {k} {side}: correct {result['correct']}, failed "
                  f"{result['failed']}/{result['attempted']}, "
                  + ", ".join(f"{m} {v:.4f}" for m, v in values.items()), flush=True)

    print(f"{workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs, "
          f"base {args.base} vs change {args.change}")
    for m, bound in bounds.items():
        c = compare(runs["base"][m], runs["change"][m])
        print(f"{m}: base {c['base'][1]:.4f} [{c['base'][0]:.4f}, {c['base'][2]:.4f}]  "
              f"change {c['change'][1]:.4f} [{c['change'][0]:.4f}, {c['change'][2]:.4f}]  "
              f"change wins {c['change_wins']}, base wins {c['base_wins']}, ties {c['ties']}  "
              f"gain {'yes' if c['gain'] else 'no'}  "
              f"{verdict(runs['base'][m], runs['change'][m], bound)} (bound {bound:g})"
              + raw_medians(runs["base"].get(f"{m} raw wall", []),
                            runs["change"].get(f"{m} raw wall", []), args.pairs))
    print(json.dumps({"commits": {"base": args.base, "change": args.change}, **runs}),
          flush=True)
    return ok


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload to measure; repeat to measure several in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--counters", action="store_true",
                    help="compare the exact --trace 1 counters of one run per side")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.base, args.change = resolve(args.base), resolve(args.change)
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        trees = {}
        for side in ("base", "change"):
            # One-letter tree names: paths of unequal length skew peak_rss_mb.
            trees[side] = os.path.join(tmp, side[0])
            os.mkdir(trees[side])
            extract(getattr(args, side), trees[side])
        if not args.counters:
            seconds, bounds = declared(trees["base"])
            if declared(trees["change"]) != (seconds, bounds):
                raise SystemExit("error: the two revisions declare different run_seconds or bounds")
        for workload in args.workload:
            if args.counters:
                ok = compare_counters(trees, workload, args) and ok
            else:
                ok = compare_pairs(trees, workload, args, seconds, bounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
