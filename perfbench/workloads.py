"""The four workloads: generated input files, the `sgk` command list of one
pass, and the expected answer of every command.

Expected answers come from `sgk.oracle` (queue BFS, Dijkstra, union-find,
wedge enumeration, per-edge power iteration) and, for `mxm`, from a
dict-of-dicts min_plus product written here; none of them runs the sparse
kernels.  The `convert` and `mxm` outputs are checked by parsing the
written Matrix Market file with the small reader below, not sgk's, and
compared by an order-free digest so no copy of a large output is held.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from sgk import oracle

import graphs

# Float tolerances of the checks.  PageRank divides by the out-degree where
# sgk multiplies by its reciprocal, so ranks agree to a few ulps, not
# bit-for-bit; the residual is a sum of differences and gets a looser bound.
RANK_RTOL = 1e-9
RESIDUAL_RTOL = 1e-6
CLUSTERING_RTOL = 1e-12

PAGERANK_ITERS = 10
BFS_SOURCES = 8
SSSP_SOURCES = 4


@dataclass
class Command:
    argv: list
    check: Callable[[dict], bool]

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Prepared:
    commands: list
    sizes: dict


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int
    build: Callable  # (scale, rng, workdir) -> Prepared


def _close(x, y, rtol) -> bool:
    return math.isclose(x, y, rel_tol=rtol)


def _result_equals(expected) -> Callable[[dict], bool]:
    return lambda out: out["result"] == expected


def _adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for e in edges:
        adj[e[0]].append(e[1] if len(e) == 2 else (e[1], e[2]))
    return adj


def _vector_pairs(mapping) -> list:
    return [[i, mapping[i]] for i in sorted(mapping)]


def digest(entries) -> tuple:
    """(count, sum of hash((row, col, value)) mod 2**64): a fingerprint of
    a set of matrix entries that ignores their order and needs no copy of
    them in memory."""
    count = total = 0
    for e in entries:
        count += 1
        total += hash(e)
    return count, total & 0xFFFFFFFFFFFFFFFF


def read_mtx(path) -> tuple:
    """(nrows, ncols, digest of 0-based entries) of a general coordinate
    Matrix Market file with real values."""
    with open(path, encoding="utf-8") as fh:
        banner = fh.readline().split()
        if banner[:4] != ["%%MatrixMarket", "matrix", "coordinate", "real"]:
            raise ValueError(f"{path}: unexpected banner {banner}")
        nrows, ncols, nnz = (int(t) for t in fh.readline().split())
        entries = digest((int(r) - 1, int(c) - 1, float(v))
                         for r, c, v in (line.split() for line in fh))
    if entries[0] != nnz:
        raise ValueError(f"{path}: declared {nnz} entries, found {entries[0]}")
    return nrows, ncols, entries


def _written_matrix(path, nrows, ncols, entries) -> Callable[[dict], bool]:
    """Check the command's summary and, read back, the file it wrote."""
    summary = {"output": path, "nrows": nrows, "ncols": ncols, "nnz": entries[0]}

    def check(out) -> bool:
        try:
            return out["result"] == summary and read_mtx(path) == (nrows, ncols, entries)
        except (OSError, ValueError):
            return False
    return check


def _sample_sources(edges, k, rng) -> list:
    """k distinct vertices drawn from those with an out-edge."""
    return rng.sample(sorted({e[0] for e in edges}), k)


# ---------------------------------------------------------------------------
# traverse: transposed mxv on sparse frontiers


def build_traverse(scale, rng, workdir) -> Prepared:
    edges = graphs.directed(graphs.rmat_edges(scale, 8, rng))
    wedges = graphs.weighted(edges, rng)
    n = graphs.dimension(edges)
    plain = os.path.join(workdir, "traverse.tsv")
    weighted = os.path.join(workdir, "traverse_w.tsv")
    sizes = {"n": n, "nnz": len(edges),
             "bytes": graphs.write_tsv(plain, edges) + graphs.write_tsv(weighted, wedges)}
    adj = _adjacency(n, edges)
    wadj = _adjacency(n, wedges)
    commands = []
    for s in _sample_sources(edges, BFS_SOURCES, rng):
        levels = oracle.oracle_bfs(adj, [s])
        expected = {"levels": _vector_pairs(levels), "reached": len(levels)}
        commands.append(Command(["bfs", "--source", str(s), plain],
                                _result_equals(expected)))
    for s in _sample_sources(edges, SSSP_SOURCES, rng):
        dist = oracle.oracle_sssp(wadj, s)
        commands.append(Command(["sssp", "--source", str(s), weighted],
                                _result_equals({"distances": _vector_pairs(dist)})))
    return Prepared(commands, sizes)


# ---------------------------------------------------------------------------
# iterate: dense-vector rounds


def _pagerank_check(ranks, residual):
    def check(out) -> bool:
        res = out["result"]
        got = res["ranks"]
        return (res["iterations"] == PAGERANK_ITERS
                and len(got) == len(ranks)
                and all(i == j and _close(x, y, RANK_RTOL)
                        for (i, x), (j, y) in zip(got, enumerate(ranks)))
                and _close(res["residual"], residual, RESIDUAL_RTOL))
    return check


def build_iterate(scale, rng, workdir) -> Prepared:
    samples = graphs.rmat_edges(scale, 8, rng)
    n = 1 << scale
    # The ring gives every vertex an out-edge, which pagerank requires.
    edges = sorted(set(graphs.undirected(samples)) | set(graphs.ring(n)))
    path = os.path.join(workdir, "iterate.tsv")
    both = sorted(set(graphs.mirrored(edges)))
    sizes = {"n": n, "nnz": len(both), "bytes": graphs.write_tsv(path, edges)}
    before = oracle.oracle_pagerank(n, both, 0.85, PAGERANK_ITERS - 1, tol=0.0)
    ranks = oracle.oracle_pagerank(n, both, 0.85, PAGERANK_ITERS, tol=0.0)
    residual = sum(abs(x - y) for x, y in zip(ranks, before))
    labels = oracle.oracle_components(n, both)
    commands = [
        Command(["pagerank", "--max-iters", str(PAGERANK_ITERS), "--tol", "0",
                 "--undirected", path], _pagerank_check(ranks, residual)),
        Command(["cc", "--undirected", path], _result_equals({
            "labels": [[i, x] for i, x in enumerate(labels)],
            "components": len(set(labels))})),
    ]
    return Prepared(commands, sizes)


# ---------------------------------------------------------------------------
# products: mxm, ewise_mult and symmetry checks


def min_plus_square(n, wedges):
    """Entries (i, k, value) of C = A min.+ A for the symmetric A that
    `wedges` describes, row by row, from a dict-of-dicts loop."""
    rows = [dict() for _ in range(n)]
    for u, v, w in graphs.mirrored(wedges):
        rows[u][v] = float(w)
    for i in range(n):
        acc = {}
        for j, aij in rows[i].items():
            for k, ajk in rows[j].items():
                t = aij + ajk
                if t < acc.get(k, math.inf):
                    acc[k] = t
        yield from ((i, k, t) for k, t in acc.items())


def _clustering_check(coeff):
    # sgk stores no entry for a vertex whose wedges are all open; the
    # oracle reports 0.0 for it.
    expected = [[i, c] for i, c in sorted(coeff.items()) if c != 0]

    def check(out) -> bool:
        got = out["result"]["coefficients"]
        return len(got) == len(expected) and all(
            i == j and _close(x, y, CLUSTERING_RTOL)
            for (i, x), (j, y) in zip(got, expected))
    return check


def build_products(scale, rng, workdir) -> Prepared:
    edges = graphs.undirected(graphs.rmat_edges(scale, 8, rng), loops=False)
    wedges = graphs.weighted(edges, rng)
    n = graphs.dimension(edges)
    plain = os.path.join(workdir, "products.tsv")
    weighted = os.path.join(workdir, "products_w.tsv")
    product = os.path.join(workdir, "products_sq.mtx")
    sizes = {"n": n, "nnz": 2 * len(edges),
             "bytes": graphs.write_tsv(plain, edges) + graphs.write_tsv(weighted, wedges)}
    square = digest(min_plus_square(n, wedges))
    sizes["mxm_nnz_out"] = square[0]
    commands = [
        Command(["triangles", "--undirected", plain],
                _result_equals(oracle.oracle_triangles(n, edges))),
        Command(["clustering", "--undirected", plain],
                _clustering_check(oracle.oracle_clustering(n, edges))),
        Command(["mxm", "--semiring", "min_plus", "--undirected", weighted, weighted,
                 "-o", product], _written_matrix(product, n, n, square)),
    ]
    return Prepared(commands, sizes)


# ---------------------------------------------------------------------------
# ingest: readers, writer, construction, rendering


def build_ingest(scale, rng, workdir) -> Prepared:
    edges = graphs.directed(graphs.rmat_edges(scale, 8, rng))
    wedges = graphs.weighted(edges, rng)
    n = graphs.dimension(edges)
    source = os.path.join(workdir, "ingest.tsv")
    target = os.path.join(workdir, "ingest.mtx")
    sizes = {"n": n, "nnz": len(edges), "bytes": graphs.write_tsv(source, wedges)}
    weights = {(u, v): float(w) for u, v, w in wedges}
    symmetric = all(weights.get((v, u)) == w for (u, v), w in weights.items())
    entries = digest((u, v, w) for (u, v), w in weights.items())
    outdeg, indeg = {}, {}
    for u, v in edges:
        outdeg[u] = outdeg.get(u, 0) + 1
        indeg[v] = indeg.get(v, 0) + 1
    commands = [
        Command(["convert", source, "-o", target], _written_matrix(target, n, n, entries)),
        Command(["info", target], _result_equals({
            "nrows": n, "ncols": n, "nnz": len(edges), "symmetric": symmetric,
            "domain": "float-double"})),
        Command(["degrees", "--dir", "out", target], _result_equals(
            {"direction": "out", "degrees": _vector_pairs(outdeg)})),
        Command(["degrees", "--dir", "in", target], _result_equals(
            {"direction": "in", "degrees": _vector_pairs(indeg)})),
    ]
    return Prepared(commands, sizes)


# Scales keep one pass within one to two seconds on a 2-core Xeon.  Why
# each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("traverse", 10, build_traverse),
    Workload("iterate", 10, build_iterate),
    Workload("products", 9, build_products),
    Workload("ingest", 12, build_ingest),
)}


def prepare(name: str, seed: int, workdir: str) -> Prepared:
    """Generate the workload's files in `workdir` and its checked commands."""
    w = WORKLOADS[name]
    return w.build(w.scale, random.Random(f"{name}:{seed}"), workdir)
