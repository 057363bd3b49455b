import ast
import math
import random
from pathlib import Path

import pytest

from helpers import (
    random_digraph,
    random_undirected,
    random_weighted_digraph,
    snapshot,
    strongly_connected_digraph,
    vector_as_dict,
)
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
    CooMatrix,
    Triple,
    to_compressed,
    vector_entries,
)
from sgk.domains import BOOLEAN, FLOAT64, INT64
from sgk.errors import (
    DuplicateIndexError,
    IndexRangeError,
    PreconditionError,
)
from sgk.kernels import subref
from sgk.oracle import (
    oracle_bfs,
    oracle_clustering,
    oracle_components,
    oracle_pagerank,
    oracle_sssp,
    oracle_triangles,
)


def digraph(n, edges, domain=BOOLEAN, one=True):
    triples = tuple(Triple(u, v, one) for u, v in sorted(set(edges)))
    return to_compressed(CooMatrix(n, n, triples, domain))


def undirected(n, edges, domain=INT64, one=1):
    both = set()
    for u, v in edges:
        both.add((u, v))
        both.add((v, u))
    return digraph(n, both, domain, one)


def weighted(n, edges, domain=FLOAT64):
    triples = tuple(Triple(u, v, w) for u, v, w in sorted(edges))
    return to_compressed(CooMatrix(n, n, triples, domain))


# ---------------------------------------------------------------------------
# bfs


def test_bfs_levels_along_path():
    a = digraph(3, [(0, 1), (1, 2)])
    r = bfs(a, [0])
    assert vector_entries(r.levels) == ((0, 0), (1, 1), (2, 2))
    assert r.reached_count == 3


def test_bfs_multi_source_takes_nearest():
    a = digraph(3, [(0, 1), (1, 2)])
    r = bfs(a, [0, 2])
    assert vector_as_dict(r.levels) == {0: 0, 1: 1, 2: 0}
    assert r.reached_count == 3


def test_bfs_unreachable_vertices_get_no_entry():
    a = digraph(3, [(0, 1)])
    r = bfs(a, [0])
    assert vector_as_dict(r.levels) == {0: 0, 1: 1}
    assert r.reached_count == 2


def test_bfs_follows_edge_direction():
    a = digraph(2, [(0, 1)])
    r = bfs(a, [1])
    assert vector_as_dict(r.levels) == {1: 0}


def test_bfs_ignores_stored_weights():
    a = weighted(3, [(0, 1, 9.5), (1, 2, 0.25)])
    r = bfs(a, [0])
    assert vector_as_dict(r.levels) == {0: 0, 1: 1, 2: 2}


def test_bfs_source_validation():
    a = digraph(3, [(0, 1)])
    with pytest.raises(PreconditionError):
        bfs(a, [])
    with pytest.raises(IndexRangeError):
        bfs(a, [3])
    with pytest.raises(IndexRangeError):
        bfs(a, [-1])
    with pytest.raises(DuplicateIndexError):
        bfs(a, [0, 0])
    with pytest.raises(PreconditionError):
        bfs(to_compressed(CooMatrix(2, 3, (), BOOLEAN)), [0])


def test_bfs_levels_are_locally_optimal():
    rng = random.Random(61)
    for _ in range(15):
        n = rng.randint(2, 20)
        a, adj = random_digraph(n, 3.0 / n, rng, BOOLEAN)
        src = rng.sample(range(n), rng.randint(1, min(3, n)))
        levels = vector_as_dict(bfs(a, src).levels)
        preds = {v: set() for v in range(n)}
        for u, outs in enumerate(adj):
            for v in outs:
                preds[v].add(u)
        for v, lv in levels.items():
            if lv == 0:
                assert v in src
                continue
            in_levels = [levels[u] for u in preds[v] if u in levels]
            assert min(in_levels) == lv - 1


def test_bfs_matches_queue_oracle():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(1, 30)
        a, adj = random_digraph(n, 2.5 / max(n, 1), rng, BOOLEAN)
        src = rng.sample(range(n), rng.randint(1, min(4, n)))
        got = vector_as_dict(bfs(a, src).levels)
        assert got == oracle_bfs(adj, src)


# ---------------------------------------------------------------------------
# sssp_minplus


def test_sssp_float_path_distances():
    a = weighted(3, [(0, 1, 2.5), (1, 2, 1.5)])
    d = sssp_minplus(a, 0)
    assert vector_entries(d) == ((0, 0.0), (1, 2.5), (2, 4.0))


def test_sssp_integer_weights():
    a = weighted(3, [(0, 1, 2), (1, 2, 3)], INT64)
    d = sssp_minplus(a, 0)
    assert vector_entries(d) == ((0, 0), (1, 2), (2, 5))


def test_sssp_prefers_cheaper_indirect_route():
    a = weighted(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
    d = sssp_minplus(a, 0)
    assert vector_as_dict(d)[2] == 2.0


def test_sssp_unreachable_vertex_absent():
    a = weighted(3, [(0, 1, 1.0)])
    d = sssp_minplus(a, 0)
    assert vector_as_dict(d) == {0: 0.0, 1: 1.0}


def test_sssp_rejects_bad_weights_and_domains():
    with pytest.raises(PreconditionError):
        sssp_minplus(weighted(2, [(0, 1, -1.0)]), 0)
    with pytest.raises(PreconditionError):
        sssp_minplus(weighted(2, [(0, 1, math.inf)]), 0)
    with pytest.raises(PreconditionError):
        sssp_minplus(digraph(2, [(0, 1)]), 0)
    with pytest.raises(IndexRangeError, match=r"sssp source index 2 out of range \[0, 2\)"):
        sssp_minplus(weighted(2, [(0, 1, 1.0)]), 2)


def test_sssp_distances_satisfy_triangle_inequality():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(2, 20)
        a, adj = random_weighted_digraph(n, 3.0 / n, rng, FLOAT64, float_weights=True)
        dist = vector_as_dict(sssp_minplus(a, 0))
        for u, outs in enumerate(adj):
            for v, w in outs:
                if u in dist:
                    assert v in dist
                    assert dist[v] <= dist[u] + w + 1e-9


def test_sssp_matches_dijkstra_oracle():
    rng = random.Random(73)
    for _ in range(15):
        n = rng.randint(1, 25)
        a, adj = random_weighted_digraph(n, 3.0 / n, rng, INT64, float_weights=False)
        got = vector_as_dict(sssp_minplus(a, 0))
        assert got == oracle_sssp(adj, 0)


# ---------------------------------------------------------------------------
# connected_components


def test_components_two_disjoint_edges():
    a = undirected(4, [(0, 1), (2, 3)])
    labels = connected_components(a)
    assert vector_entries(labels) == ((0, 0), (1, 0), (2, 2), (3, 2))


def test_components_triangle_is_one_component():
    a = undirected(3, [(0, 1), (1, 2), (0, 2)])
    assert set(vector_as_dict(connected_components(a)).values()) == {0}


def test_components_isolated_vertices_label_themselves():
    a = to_compressed(CooMatrix(3, 3, (), INT64))
    assert vector_entries(connected_components(a)) == ((0, 0), (1, 1), (2, 2))


def test_components_requires_symmetric_pattern():
    with pytest.raises(PreconditionError):
        connected_components(digraph(3, [(0, 1)], INT64, 1))


def test_components_ignore_stored_values():
    a = weighted(3, [(0, 1, 5.5), (1, 0, 7.25)])
    labels = connected_components(a)
    assert vector_as_dict(labels) == {0: 0, 1: 0, 2: 2}


def test_components_match_union_find_oracle():
    rng = random.Random(79)
    for _ in range(20):
        n = rng.randint(1, 40)
        a, edges = random_undirected(n, 2.0 / max(n, 1), rng, INT64)
        got = vector_as_dict(connected_components(a))
        assert got == dict(enumerate(oracle_components(n, edges)))


# ---------------------------------------------------------------------------
# triangle_count / clustering_coefficients


def complete_graph(n):
    return undirected(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_triangle_counts_on_small_cliques():
    assert triangle_count(complete_graph(3)) == 1
    assert triangle_count(complete_graph(4)) == 4
    assert triangle_count(complete_graph(5)) == 10


def test_triangle_count_path_has_none():
    assert triangle_count(undirected(4, [(0, 1), (1, 2), (2, 3)])) == 0


def test_triangle_count_rejects_self_loops_and_asymmetry():
    with pytest.raises(PreconditionError):
        triangle_count(digraph(2, [(0, 0), (0, 1), (1, 0)], INT64, 1))
    with pytest.raises(PreconditionError):
        triangle_count(digraph(3, [(0, 1)], INT64, 1))


def test_triangle_count_invariant_under_relabeling():
    rng = random.Random(83)
    for _ in range(10):
        n = rng.randint(3, 15)
        a, _edges = random_undirected(n, 4.0 / n, rng, INT64)
        perm = list(range(n))
        rng.shuffle(perm)
        b = subref(a, perm, perm)
        assert triangle_count(a) == triangle_count(b)


def test_triangle_count_matches_oracle():
    rng = random.Random(89)
    for _ in range(15):
        n = rng.randint(1, 25)
        a, edges = random_undirected(n, 4.0 / max(n, 1), rng, INT64)
        assert triangle_count(a) == oracle_triangles(n, edges)


def test_clustering_triangle_is_fully_clustered():
    c = clustering_coefficients(complete_graph(3))
    assert vector_entries(c) == ((0, 1.0), (1, 1.0), (2, 1.0))


def test_clustering_star_center_has_no_entry():
    star = undirected(4, [(0, 1), (0, 2), (0, 3)])
    assert vector_entries(clustering_coefficients(star)) == ()


def test_clustering_triangle_with_pendant():
    a = undirected(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    c = vector_as_dict(clustering_coefficients(a))
    assert c[1] == 1.0 and c[2] == 1.0
    assert abs(c[0] - 1.0 / 3.0) < 1e-15
    assert 3 not in c


def test_clustering_matches_wedge_oracle():
    rng = random.Random(97)
    for _ in range(15):
        n = rng.randint(1, 20)
        a, edges = random_undirected(n, 4.0 / max(n, 1), rng, INT64)
        got = vector_as_dict(clustering_coefficients(a))
        want = oracle_clustering(n, edges)
        assert set(got) == set(k for k, v in want.items() if v != 0.0)
        for k, v in got.items():
            assert math.isclose(v, want[k], rel_tol=1e-12)


# ---------------------------------------------------------------------------
# pagerank


def test_pagerank_three_cycle_is_uniform():
    a = digraph(3, [(0, 1), (1, 2), (2, 0)], FLOAT64, 1.0)
    r = pagerank(a, 0.85, max_iters=100, tol=1e-12)
    for _i, x in vector_entries(r.ranks):
        assert abs(x - 1.0 / 3.0) <= 1e-12
    assert r.residual <= 1e-12
    assert r.iterations < 100


def test_pagerank_single_vertex_self_loop():
    a = digraph(1, [(0, 0)], FLOAT64, 1.0)
    r = pagerank(a)
    assert vector_entries(r.ranks) == ((0, 1.0),)


def test_pagerank_parameter_validation():
    a = digraph(2, [(0, 1), (1, 0)], FLOAT64, 1.0)
    with pytest.raises(PreconditionError, match=r"alpha out of range \(0,1\)"):
        pagerank(a, alpha=1.5)
    with pytest.raises(PreconditionError):
        pagerank(a, alpha=0.0)
    with pytest.raises(PreconditionError):
        pagerank(a, max_iters=0)
    for tol in (math.nan, -1.0):
        with pytest.raises(PreconditionError, match="tol must be non-negative"):
            pagerank(a, tol=tol)
    pagerank(a, tol=0.0)  # zero stays valid
    with pytest.raises(PreconditionError):
        pagerank(to_compressed(CooMatrix(0, 0, (), FLOAT64)))


def test_pagerank_rejects_dangling_vertices():
    a = digraph(2, [(0, 1)], FLOAT64, 1.0)
    with pytest.raises(PreconditionError):
        pagerank(a)


def test_pagerank_every_iterate_sums_to_one():
    rng = random.Random(101)
    a, _adj = strongly_connected_digraph(8, 0.3, rng, FLOAT64)
    for k in range(1, 6):
        r = pagerank(a, 0.85, max_iters=k, tol=0.0)
        total = sum(x for _i, x in vector_entries(r.ranks))
        assert abs(total - 1.0) <= 1e-9


def test_pagerank_reports_non_convergence():
    a = digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)], FLOAT64, 1.0)
    r = pagerank(a, 0.85, max_iters=3, tol=1e-30)
    assert r.iterations == 3
    assert r.residual > 1e-30


def test_pagerank_matches_push_oracle():
    rng = random.Random(103)
    for _ in range(8):
        n = rng.randint(2, 20)
        a, adj = strongly_connected_digraph(n, 0.2, rng, FLOAT64)
        got = vector_as_dict(pagerank(a, 0.85, max_iters=400, tol=1e-12).ranks)
        want = oracle_pagerank(n, adj, 0.85)
        for i in range(n):
            assert abs(got[i] - want[i]) <= 1e-8


# ---------------------------------------------------------------------------
# degrees


def test_degrees_of_triangle():
    a = complete_graph(3)
    assert vector_entries(degrees(a, "out")) == ((0, 2), (1, 2), (2, 2))
    assert vector_entries(degrees(a, "in")) == ((0, 2), (1, 2), (2, 2))


def test_degrees_single_edge():
    a = digraph(2, [(0, 1)], INT64, 1)
    assert vector_entries(degrees(a, "out")) == ((0, 1),)
    assert vector_entries(degrees(a, "in")) == ((1, 1),)


def test_degrees_empty_and_rectangular():
    assert vector_entries(degrees(to_compressed(CooMatrix(3, 3, (), INT64)), "out")) == ()
    rect = to_compressed(CooMatrix(2, 3, (Triple(0, 2, 5),), INT64))
    assert vector_entries(degrees(rect, "out")) == ((0, 1),)
    assert vector_entries(degrees(rect, "in")) == ((2, 1),)


def test_degrees_rejects_unknown_direction():
    with pytest.raises(PreconditionError):
        degrees(complete_graph(3), "sideways")


# ---------------------------------------------------------------------------
# composition discipline


def test_algorithms_never_touch_sparse_storage_directly():
    src = Path(__file__).resolve().parents[1] / "src" / "sgk" / "algorithms.py"
    tree = ast.parse(src.read_text())
    banned = {"offsets", "minor_indices", "values", "entries", "triples"}
    hits = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in banned
    ]
    assert hits == []


def test_algorithms_import_only_primitive_layers():
    src = Path(__file__).resolve().parents[1] / "src" / "sgk" / "algorithms.py"
    tree = ast.parse(src.read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert not any(m.startswith("sgk.oracle") for m in modules)
    assert not any(m.startswith("sgk.io_formats") for m in modules)
    assert not any(m.startswith("sgk.cli") for m in modules)


def test_algorithms_leave_inputs_untouched():
    rng = random.Random(107)
    a, _edges = random_undirected(6, 0.5, rng, INT64)
    before = snapshot(a)
    bfs(a, [0])
    connected_components(a)
    triangle_count(a)
    clustering_coefficients(a)
    degrees(a, "in")
    assert snapshot(a) == before


def test_result_types_are_frozen():
    a = digraph(2, [(0, 1), (1, 0)], FLOAT64, 1.0)
    r = pagerank(a)
    with pytest.raises(AttributeError):
        r.iterations = 0
    b = bfs(a, [0])
    with pytest.raises(AttributeError):
        b.reached_count = 99
