"""The library's trusted container builds, differentially tested.

Containers that the library assembles from parts it has already proven
well formed are made by `containers._trusted`, which skips
`__post_init__`.  Here every sgk module's `_trusted` is swapped for the
public, validating constructor; a seeded sweep of every kernel, conversion,
reader, command-line load and algorithm must then raise nothing and return
exactly what it returns on the trusted path.  Neither path checks values,
so every vector an algorithm or a load returns is also run through
`check_invariants`, which does.
"""

import io
import os
import random
import sys
import tempfile

from helpers import (
    int_sampler,
    random_csr,
    random_undirected,
    random_vector,
    random_weighted_digraph,
    sampler_for,
    strongly_connected_digraph,
)
from sgk import cli, containers, kernels
from sgk.algorithms import (
    BfsResult,
    PageRankResult,
    bfs,
    clustering_coefficients,
    connected_components,
    degrees,
    pagerank,
    sssp_minplus,
    triangle_count,
)
from sgk.containers import (
    COL,
    ROW,
    CompressedMatrix,
    CooMatrix,
    SparseVector,
    build_from_triples,
    check_invariants,
    densify_vector,
    entries_of,
    is_symmetric,
    reorient,
    to_compressed,
    to_tuples,
    transpose,
    vector_as_column,
    vector_entries,
    vector_from_entries,
)
from sgk.domains import FLOAT64, INT64
from sgk.io_formats import read_edge_list, read_matrix_market, write_matrix_market
from sgk.kernels import (
    apply_unary,
    ewise_mult,
    mxm,
    mxv,
    reduce,
    scale_matrix,
    scale_vector,
    subassign,
    subref,
)
from sgk.semirings import (
    CANONICAL_NAMES,
    IndexUnaryOp,
    UnaryOp,
    min_monoid,
    plus_monoid,
    registry_get,
)

SEEDS = range(100)


def _kernels(rng: random.Random) -> list:
    """Every kernel, on random operands over one canonical semiring."""
    sr = registry_get(rng.choice(CANONICAL_NAMES))
    d, sample = sr.domain, sampler_for(sr.name)
    n, k = rng.randint(0, 7), rng.randint(0, 7)

    def matrix(nrows, ncols):
        return random_csr(nrows, ncols, 0.4, d, sample, rng, rng.choice((ROW, COL)))

    a, a2, b = matrix(n, k), matrix(n, k), matrix(k, rng.randint(0, 7))
    u, w, w2 = (random_vector(x, 0.5, d, sample, rng) for x in (k, n, n))
    rows, cols = rng.sample(range(n), rng.randint(0, n)), rng.sample(range(k), rng.randint(0, k))
    ident = UnaryOp("id", d, d, lambda x: x)
    at_row = IndexUnaryOp("row", d, INT64, lambda _x, i, _j: i)
    return [
        mxm(a, b, sr), mxv(a, u, sr), mxv(a, w, sr, transpose_input=True),
        ewise_mult(a, a2, sr.mul), reduce(a, sr.add, "rows"), reduce(a, sr.add, "cols"),
        subref(a, rows, cols), subassign(a, rows, cols, matrix(len(rows), len(cols))),
        scale_matrix(a, w, sr.mul, "rows"), scale_matrix(a, u, sr.mul, "cols"),
        scale_vector(w, w2, sr.mul),
        *(apply_unary(x, f) for x in (a, w) for f in (ident, at_row)),
        *(apply_unary(x, at_row, drop_zeros_for=0) for x in (a, w)),
        reorient(a, ROW), reorient(a, COL), transpose(a), to_tuples(a), entries_of(a),
        densify_vector(w, sr.zero), vector_as_column(w),
    ]


def _builders(rng: random.Random) -> list:
    """build_from_triples, vector_from_entries, to_compressed, both readers
    and the command line's loads, on input with repeated positions in any
    order."""
    n, k = rng.randint(1, 7), rng.randint(1, 7)
    triples = [(rng.randrange(n), rng.randrange(k), rng.randint(-9, 9))
               for _ in range(rng.randint(0, 15))]
    coos = [build_from_triples(n, k, triples, m) for m in (plus_monoid(INT64), min_monoid(INT64))]
    v = random_vector(n, 0.5, INT64, int_sampler(), rng)
    shuffled = list(vector_entries(v))
    rng.shuffle(shuffled)
    text = io.StringIO()
    write_matrix_market(random_csr(n, k, 0.4, INT64, int_sampler(), rng), text)
    edges = [f"{r} {c}\n" for r, c, _v in triples]
    column = io.StringIO()
    write_matrix_market(random_csr(n, 1, 0.5, INT64, int_sampler(), rng), column)
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, name) for name in ("a.mtx", "a.tsv", "v.mtx")]
        for path, lines in zip(paths, (text.getvalue(), "".join(edges), column.getvalue())):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(lines)
        loads = [cli._load_matrix(paths[0], False), cli._load_matrix(paths[1], False),
                 cli._load_matrix(paths[1], True), cli._load_vector(paths[2])]
    return [
        *coos, *(to_compressed(c, o) for c in coos for o in (ROW, COL)),
        vector_from_entries(n, shuffled, INT64),
        read_matrix_market(text.getvalue().splitlines(keepends=True)),
        read_edge_list(edges), read_edge_list(edges, undirected=True), *loads,
    ]


def _algorithms(rng: random.Random) -> list:
    """Every algorithm, on CSR and CSC inputs, with int and float weights."""
    n = rng.randint(2, 8)
    simple, _ = random_undirected(n, 0.4, rng, INT64)
    directed, _ = strongly_connected_digraph(n, 0.3, rng, INT64)
    weighted, _ = random_weighted_digraph(n, 0.4, rng, INT64, float_weights=False)
    weighted_f, _ = random_weighted_digraph(n, 0.4, rng, FLOAT64, float_weights=True)
    source = rng.randrange(n)
    out = []
    for orientation in (ROW, COL):
        simple, directed, weighted, weighted_f = (
            reorient(m, orientation) for m in (simple, directed, weighted, weighted_f))
        out += [
            bfs(directed, [source]), bfs(simple, [source, (source + 1) % n]),
            sssp_minplus(weighted, source), sssp_minplus(weighted_f, source),
            connected_components(simple), triangle_count(simple),
            clustering_coefficients(simple), pagerank(directed), degrees(weighted, "in"),
            degrees(weighted, "out"), is_symmetric(simple), is_symmetric(directed),
        ]
    return out


def _sweep() -> list:
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        out += [*_kernels(rng), *_builders(rng), *_algorithms(rng)]
    return out


def test_trusted_builds_equal_validated_builds(monkeypatch):
    trusted = _sweep()
    checked = []

    def validating(cls, *fields):
        checked.append(cls)
        return cls(*fields)

    holders = [mod for name, mod in list(sys.modules.items())
               if name.partition(".")[0] == "sgk" and vars(mod).get("_trusted") is containers._trusted]
    assert containers in holders and kernels in holders
    for mod in holders:
        monkeypatch.setattr(mod, "_trusted", validating)
    assert _sweep() == trusted
    assert {cls.__name__ for cls in checked} == {"CooMatrix", "CompressedMatrix", "SparseVector"}


def _containers(results: list) -> list:
    """The containers among `results`, a result object's vector included."""
    out = []
    for x in results:
        if isinstance(x, BfsResult):
            x = x.levels
        elif isinstance(x, PageRankResult):
            x = x.ranks
        elif isinstance(x, tuple) and x and isinstance(x[0], CooMatrix):
            x = x[0]  # read_matrix_market's (matrix, descriptor)
        if isinstance(x, (CooMatrix, CompressedMatrix, SparseVector)):
            out.append(x)
    return out


def test_algorithm_and_load_results_hold_only_domain_values():
    """`__post_init__` checks structure only; trusted vector builds and the
    readers' pattern, real and complex fields skip the value check, which
    `check_invariants` makes."""
    for seed in SEEDS:
        rng = random.Random(seed)
        results = _containers([*_builders(rng), *_algorithms(rng)])
        assert sum(isinstance(x, SparseVector) for x in results) >= 15
        for x in results:
            assert check_invariants(x)
