"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import run  # noqa: E402

run.import_sgk()

import tracer  # noqa: E402
import workloads  # noqa: E402
from sgk import algorithms, cli, containers, io_formats, kernels  # noqa: E402
from sgk.domains import INT64  # noqa: E402

TINY_SCALE = 5


@pytest.fixture
def tiny(monkeypatch):
    for name, w in workloads.WORKLOADS.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(w, scale=TINY_SCALE))


def bench(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_with_no_failures(tiny, capsys, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        out = bench(capsys, workload, trace)
        assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
        assert {k: m["unit"] for k, m in out["metrics"].items()} == declared(kind)
        assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_exact_counters_repeat_across_traced_runs(tiny, capsys):
    first = bench(capsys, "traverse", 1)["metrics"]
    second = bench(capsys, "traverse", 1)["metrics"]
    assert {k: first[k] for k in tracer.EXACT} == {k: second[k] for k in tracer.EXACT}
    assert first["algorithms.bfs_levels"]["value"] > 0


def test_corrupted_expected_answer_counts_as_failure(tiny, capsys, monkeypatch):
    real = workloads.oracle.oracle_bfs

    def off_by_one(adj, sources):
        return {v: level + 1 for v, level in real(adj, sources).items()}

    monkeypatch.setattr(workloads.oracle, "oracle_bfs", off_by_one)
    out = bench(capsys, "traverse", 0)
    # Every bfs command fails; the sssp commands still pass.
    per_pass = workloads.BFS_SOURCES + workloads.SSSP_SOURCES
    assert not out["correct"]
    assert out["failed"] == workloads.BFS_SOURCES * out["attempted"] // per_pass


def test_counters_on_a_four_vertex_graph(tmp_path):
    # 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 3: bfs from 0 reaches levels {0}, {1, 2}, {3}.
    graph = tmp_path / "g.tsv"
    graph.write_text("0\t1\n0\t2\n1\t2\n2\t3\n")
    tr = tracer.Tracer({"cli": cli, "algorithms": algorithms, "kernels": kernels,
                        "containers": containers, "io_formats": io_formats})
    tr.install()
    try:
        code, _out, _err = run.run_command(cli, ["bfs", "--source", "0", str(graph)])
        assert code == 0
        bfs = tr.pass_metrics()
        tr.reset()
        code, _out, _err = run.run_command(
            cli, ["mxm", "--semiring", "plus_times", str(graph), str(graph),
                  "-o", str(tmp_path / "sq.mtx")])
        assert code == 0
        mxm = tr.pass_metrics()
    finally:
        tr.uninstall()
    assert cli.mxm is kernels.mxm and algorithms.mxv is kernels.mxv
    # Three expansions, the last one finding nothing new; each multiplies by
    # the transpose, so each reorients the 4-entry CSR pattern to CSC.
    assert bfs["algorithms.bfs_levels"] == 3
    assert bfs["kernels.mxv_calls"] == 3
    assert bfs["containers.reorients"] == 3
    assert bfs["containers.reorient_entries"] == 12
    assert bfs["kernels.mxv_nnz_a"] == 12
    # Frontier {0} meets 2 stored entries, {1, 2} meets 2, {3} meets none.
    assert bfs["kernels.mxv_useful"] == 4
    assert bfs["kernels.mxv_useful_ratio"] == 4 / 12
    assert bfs["algorithms.bfs_frontier_entries"] == 4
    assert bfs["io_formats.read_entries"] == 4
    # A(0,1)B(1,2), A(0,2)B(2,3), A(1,2)B(2,3); A(2,3) meets an empty row 3.
    assert mxm["kernels.mxm_flops"] == 3
    assert mxm["kernels.mxm_nnz_out"] == 3
    assert mxm["io_formats.write_entries"] == 3


@pytest.mark.parametrize("orientation", ["row", "col"])
def test_work_formulas_match_brute_force(orientation):
    rng = random.Random(7)
    cells = sorted({(rng.randrange(9), rng.randrange(9)) for _ in range(30)})
    coo = containers.CooMatrix(9, 9, tuple(containers.Triple(r, c, 1) for r, c in cells),
                               INT64)
    a = containers.to_compressed(coo, orientation)
    assert tracer.mxm_flops(a, a) == sum(1 for _i, j in cells for r, _c in cells if r == j)
    v = containers.vector_from_entries(9, [(1, 1), (4, 1), (8, 1)], INT64)
    assert tracer.mxv_useful(a, v, True) == sum(1 for i, _j in cells if i in {1, 4, 8})
    assert tracer.mxv_useful(a, v, False) == sum(1 for _i, j in cells if j in {1, 4, 8})


def test_fails_without_sgk_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "traverse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "cannot import sgk" in proc.stderr


def test_host_clock_rescales_by_the_probes_around_an_interval(monkeypatch):
    probes = iter([0.002, 0.006, 0.004])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    clock = hostspeed.HostClock()
    wall, scaled, result = clock.timed(lambda: time.sleep(0.01) or "done")
    assert result == "done" and wall >= 0.01
    # The loop averaged 4 ms around the interval against a nominal REF_LOOP_S.
    assert scaled == pytest.approx(wall * hostspeed.REF_LOOP_S / 0.004)
    # The probe after one interval is the probe before the next.
    wall, scaled, _ = clock.timed(lambda: None)
    assert scaled == pytest.approx(wall * hostspeed.REF_LOOP_S / 0.005)
    assert clock.loops == [0.002, 0.006, 0.004]
