import ast
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    random_digraph,
    random_undirected,
    random_weighted_digraph,
    snapshot,
    strongly_connected_digraph,
    traced_lines,
    vector_as_dict,
)
from sgk import algorithms, kernels
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
    CooMatrix,
    Triple,
    build_from_triples,
    check_invariants,
    densify_vector,
    entries_of,
    is_symmetric,
    reorient,
    to_compressed,
    vector_entries,
    vector_from_entries,
)
from sgk.domains import BOOLEAN, FLOAT32, FLOAT64, INT8, INT64, UINT8
from sgk.errors import (
    DuplicateIndexError,
    IndexRangeError,
    PreconditionError,
)
from sgk.kernels import (
    apply_unary, ewise_mult, mxm, mxv, reduce, scale_matrix, scale_vector, subref,
)
from sgk.oracle import (
    oracle_bfs,
    oracle_clustering,
    oracle_components,
    oracle_pagerank,
    oracle_sssp,
    oracle_triangles,
)
from sgk.semirings import BinaryOp, IndexUnaryOp, UnaryOp, registry_get


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
    with pytest.raises(IndexRangeError, match=r"^bfs source index True out of range \[0, 3\)$"):
        bfs(a, [True])
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


def test_bfs_on_a_csc_path_runs_near_linearly():
    # One level per vertex: pulling a dot product from every stored column
    # per level would be quadratic, so 4x the vertices would run ~16x the lines.
    lines = []
    for n in (100, 400):
        path = reorient(digraph(n, [(i, i + 1) for i in range(n - 1)]), COL)
        assert vector_as_dict(bfs(path, [0]).levels) == {i: i for i in range(n)}
        lines.append(traced_lines(lambda: bfs(path, [0])))
    assert lines[1] < 8 * lines[0]


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
    # With two bad weights, the first in row order is named, whatever the orientation.
    for edges, message in [([(0, 1, -1.0), (1, 0, math.inf)], "negative edge weight -1.0"),
                           ([(0, 1, math.nan), (1, 0, -2.0)], "non-finite edge weight nan"),
                           ([(0, 1, 1.0), (1, 0, -math.inf)], "non-finite edge weight -inf")]:
        with pytest.raises(PreconditionError, match=f"^sssp_minplus: {message}$"):
            sssp_minplus(reorient(weighted(2, edges), COL), 0)


@pytest.mark.parametrize("edges, message", [
    # Column order meets the bad weight of row 2 first; row order names row 0's.
    ([(0, 2, -1.0), (2, 0, math.nan)], "negative edge weight -1.0"),
    ([(0, 2, math.inf), (2, 0, -1.0)], "non-finite edge weight inf"),
    ([(0, 1, 1.0), (1, 2, -0.5), (2, 0, -math.inf), (2, 1, 3.0)], "negative edge weight -0.5"),
    ([(1, 2, -0.0), (2, 0, -math.inf), (2, 1, -3.0)], "non-finite edge weight -inf"),
])
def test_sssp_names_the_first_bad_weight_in_row_order_on_csc_input(edges, message):
    a = reorient(weighted(3, edges), COL)
    with pytest.raises(PreconditionError, match=f"^sssp_minplus: {message}$"):
        sssp_minplus(a, 0)


@pytest.mark.parametrize("edges, checked, want", [
    ([(0, 1, -0.0), (1, 2, -0.0)], False, [(0, "0.0"), (1, "0.0"), (2, "0.0")]),
    ([(0, 1, -0.0), (1, 2, 1.5), (2, 3, -0.0)], False,
     [(0, "0.0"), (1, "0.0"), (2, "1.5"), (3, "1.5")]),
    ([(0, 1, sys.float_info.max), (1, 2, -0.0)], True,
     [(0, "0.0"), (1, repr(sys.float_info.max)), (2, repr(sys.float_info.max))]),
    ([(0, 1, sys.float_info.max), (1, 2, sys.float_info.max), (2, 3, -0.0)], True, None),
])
def test_sssp_negative_zero_weights_are_zero_weights(edges, checked, want):
    """-0.0 is no negative weight and no heaviest one: distances read 0.0,
    and the overflow check runs only when a positive weight can overflow."""
    checks = []

    def counted_scale_matrix(*args):
        checks.append(args)
        return scale_matrix(*args)

    for orientation in (ROW, COL):
        a = reorient(weighted(4, edges), orientation)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algorithms, "scale_matrix", counted_scale_matrix)
            if want is None:
                with pytest.raises(PreconditionError, match="^sssp_minplus: a shortest distance "
                                                             "overflows float-double$"):
                    sssp_minplus(a, 0)
            else:
                assert _entry_reprs(sssp_minplus(a, 0)) == want
    assert len(checks) == 2 * int(checked)


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


@pytest.mark.parametrize("edges, checked, want", [
    ([(0, 1, 50), (1, 2, 20)], False, ((0, 0), (1, 50), (2, 70))),
    ([(0, 1, 100), (1, 2, 100)], True, None),
    ([(0, 1, 100), (1, 2, 27)], True, None),
    ([(0, 1, 100), (1, 2, 100), (0, 3, 1), (3, 2, 1)], True,
     ((0, 0), (1, 100), (2, 2), (3, 1))),
    # 120 + 127 saturates, but the 127 edge leaves unreached vertex 3.
    ([(0, 1, 100), (1, 2, 20), (3, 0, 127)], True, ((0, 0), (1, 100), (2, 120))),
])
def test_sssp_refuses_a_distance_that_overflows(edges, checked, want):
    a = weighted(4, edges, INT8)
    checks = []

    def counted_scale_matrix(*args):
        checks.append(args)
        return scale_matrix(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "scale_matrix", counted_scale_matrix)
        if want is None:
            with pytest.raises(PreconditionError, match="^sssp_minplus: a shortest distance "
                                                         "overflows signed-int-8$"):
                sssp_minplus(a, 0)
        else:
            assert vector_entries(sssp_minplus(a, 0)) == want
    assert len(checks) == int(checked)


def _reference_sssp(a, source):
    """Reference: the previous `sssp_minplus` relaxation, which appended a
    zero-weight diagonal to the adjacency so that each product kept a
    vertex's best distance.  Returns the distances and the number of
    products formed."""
    n = a.nrows
    d = a.domain
    sr = registry_get(f"min_plus/{d.kind}")
    zero_w = 0.0 if d.is_float else 0
    loops = [(i, i, zero_w) for i in range(n)]
    aug = to_compressed(build_from_triples(n, n, list(entries_of(a)) + loops, sr.add), COL)
    dist = vector_from_entries(n, [(source, zero_w)], d)
    for rounds in range(1, n + 1):
        nxt = mxv(aug, dist, sr, transpose_input=True)
        if vector_entries(nxt) == vector_entries(dist):
            return dist, rounds
        dist = nxt
    raise AssertionError("reference distances failed to stabilize")


_F32_MAX = 3.4028234663852886e38
_F64_MAX = sys.float_info.max
# (small weights, weights at and near the bound) per domain; both sets hold
# zeros, and the float ones zeros of both signs.
_SSSP_WEIGHTS = {
    FLOAT64: (st.floats(0.0, 10.0), st.sampled_from([-0.0, 1e308, _F64_MAX / 2, _F64_MAX])),
    FLOAT32: (st.floats(0.0, 10.0, width=32),
              st.sampled_from([-0.0, 2.0 ** 126, _F32_MAX / 2, _F32_MAX])),
    INT8: (st.integers(0, 9), st.sampled_from([0, 63, 64, 126, 127])),
    UINT8: (st.integers(0, 9), st.sampled_from([0, 127, 128, 254, 255])),
    INT64: (st.integers(0, 9), st.sampled_from([0, 2 ** 62, 2 ** 63 - 2, 2 ** 63 - 1])),
}


@st.composite
def _sssp_cases(draw):
    """Weighted digraphs of up to 10 vertices, in either orientation, with a
    source: a walk from the source plus random edges, so there are long
    paths, self-loops and unreachable vertices, and about half the weights
    near the bound, so some path sums saturate."""
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    source = draw(vertex)
    walk = [source] + draw(st.lists(vertex, max_size=n))
    cells = set(zip(walk, walk[1:])) | draw(st.sets(st.tuples(vertex, vertex), max_size=n))
    domain = draw(st.sampled_from(sorted(_SSSP_WEIGHTS, key=lambda d: d.kind)))
    small, near_bound = _SSSP_WEIGHTS[domain]
    triples = tuple(Triple(u, v, draw(near_bound if draw(st.booleans()) else small))
                    for u, v in sorted(cells))
    a = to_compressed(CooMatrix(n, n, triples, domain), draw(st.sampled_from((ROW, COL))))
    return a, source, [[v for u, v in sorted(cells) if u == w] for w in range(n)]


@settings(max_examples=200)
@given(_sssp_cases())
def test_sssp_matches_the_augmented_reference(case):
    a, source, adjacency = case
    want, rounds = _reference_sssp(a, source)
    products = []

    def counted_mxv(*args, **kwargs):
        products.append(args)
        return mxv(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "mxv", counted_mxv)
        if set(vector_as_dict(want)) == set(oracle_bfs(adjacency, [source])):
            got = sssp_minplus(a, source)
            assert got.domain == want.domain
            assert ([(i, repr(x)) for i, x in vector_entries(got)]
                    == [(i, repr(x)) for i, x in vector_entries(want)])
        else:
            # The reference dropped a reachable vertex whose distance saturated.
            with pytest.raises(PreconditionError, match=f"overflows {a.domain.kind}$"):
                sssp_minplus(a, source)
    assert len(products) == rounds


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


def test_components_on_a_path_run_near_linearly():
    # Label propagation takes one round per hop, so 4x the vertices ran ~16x
    # the lines; hooking and shortcutting take O(log n) rounds.
    lines = []
    for n in (100, 400):
        order = list(range(n))
        random.Random(n).shuffle(order)
        for labels in (range(n), order):
            edges = [(labels[i], labels[i + 1]) for i in range(n - 1)]
            got = vector_as_dict(connected_components(undirected(n, edges)))
            assert got == dict(enumerate(oracle_components(n, edges)))
        path = undirected(n, [(i, i + 1) for i in range(n - 1)])
        lines.append(traced_lines(lambda: connected_components(path)))
    assert lines[1] < 8 * lines[0]


def _reference_components(a):
    """Reference: the previous `connected_components`, which added a diagonal
    of ones to the pattern so that each product kept a vertex's own label.
    Returns the labels and the number of products formed."""
    n = a.nrows
    sr = registry_get("min_select2nd")
    ones = [(r, c, 1) for r, c, _v in entries_of(a)]
    pat = to_compressed(
        build_from_triples(n, n, ones + [(i, i, 1) for i in range(n)], sr.add),
        a.orientation,
    )
    if not is_symmetric(pat):
        raise PreconditionError("connected_components: adjacency pattern is not symmetric")
    labels = vector_from_entries(n, [(i, i) for i in range(n)], INT64)
    for rounds in range(1, n + 2):
        nxt = mxv(pat, labels, sr, transpose_input=False)
        if vector_entries(nxt) == vector_entries(labels):
            return labels, rounds
        labels = nxt
    raise AssertionError("reference labels failed to stabilize")


_ADJACENCY_VALUES = {INT64: st.integers(-5, 5), FLOAT64: st.floats(-4.0, 4.0),
                     BOOLEAN: st.booleans()}


@st.composite
def _component_graphs(draw):
    """Undirected graphs of up to 10 vertices, with self-loops, isolated
    vertices and arbitrary stored values, in either orientation."""
    n = draw(st.integers(0, 10))
    vertex = st.integers(0, max(n - 1, 0))
    edges = draw(st.sets(st.tuples(vertex, vertex), max_size=3 * n)) if n else set()
    domain = draw(st.sampled_from(sorted(_ADJACENCY_VALUES, key=lambda d: d.kind)))
    cells = sorted(edges | {(v, u) for u, v in edges})
    triples = tuple(Triple(u, v, draw(_ADJACENCY_VALUES[domain])) for u, v in cells)
    a = to_compressed(CooMatrix(n, n, triples, domain), draw(st.sampled_from((ROW, COL))))
    return a, n, sorted(edges)


@settings(max_examples=200)
@given(_component_graphs())
def test_components_match_the_diagonal_reference_and_the_oracle(case):
    a, n, edges = case
    products = []

    def counted_mxv(*args, **kwargs):
        products.append(args)
        return mxv(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "mxv", counted_mxv)
        got = connected_components(a)
    want, rounds = _reference_components(a)
    assert vector_entries(got) == vector_entries(want)
    assert vector_as_dict(got) == dict(enumerate(oracle_components(n, edges)))
    # FastSV needs no more products than label propagation has rounds.
    assert len(products) <= rounds


@given(_component_graphs(), st.data())
def test_components_refuse_an_asymmetric_pattern_like_the_reference(case, data):
    a, n, _edges = case
    assume(n >= 2)
    cells = {(t.row, t.col) for t in entries_of(a)}
    u, v = data.draw(st.sampled_from([(u, v) for u in range(n) for v in range(n) if u != v]))
    one_way = sorted((cells - {(u, v), (v, u)}) | {(u, v)})
    lopsided = to_compressed(
        CooMatrix(n, n, tuple(Triple(r, c, 1) for r, c in one_way), INT64), a.orientation)
    with pytest.raises(PreconditionError, match="not symmetric"):
        connected_components(lopsided)
    with pytest.raises(PreconditionError, match="not symmetric"):
        _reference_components(lopsided)


# Each relaxation, and bfs, with its result on the undirected ring of n vertices.
_RELAXATIONS = {
    "connected_components": (connected_components, lambda n: {i: 0 for i in range(n)}),
    "sssp_minplus": (lambda a: sssp_minplus(a, 0), lambda n: {i: min(i, n - i) for i in range(n)}),
    "bfs": (lambda a: bfs(a, [0]).levels, lambda n: {i: min(i, n - i) for i in range(n)}),
}


@pytest.mark.parametrize("name, orientation, reorients", [
    ("connected_components", ROW, 0), ("connected_components", COL, 1),
    ("sssp_minplus", ROW, 0), ("sssp_minplus", COL, 1),
    ("bfs", ROW, 0), ("bfs", COL, 1),
])
def test_relaxations_orient_their_matrix_once(name, orientation, reorients):
    """Each traversal puts its matrix in rows at most once, and then every
    product it forms pushes: a transposed `mxv` on a CSR matrix.  bfs and
    sssp, which share one push-round loop, stop at the first empty frontier."""
    algorithm, result_on_ring = _RELAXATIONS[name]
    n = 200
    ring = undirected(n, [(i, (i + 1) % n) for i in range(n)])
    a = reorient(ring, orientation)
    changed = []
    products = []

    def recording_mxv(m, v, s, transpose_input=False):
        products.append((m.orientation, transpose_input))
        return mxv(m, v, s, transpose_input)

    def counted(module):
        real = module.reorient

        def counting(m, wanted):
            if m.orientation != wanted:
                changed.append(module.__name__)
            return real(m, wanted)
        return counting

    with pytest.MonkeyPatch.context() as mp:
        for module in (algorithms, kernels):
            mp.setattr(module, "reorient", counted(module))
        mp.setattr(algorithms, "mxv", recording_mxv)
        got = algorithm(a)
    assert vector_entries(got) == vector_entries(algorithm(ring))
    assert vector_as_dict(got) == result_on_ring(n)
    assert len(changed) == reorients
    assert products and set(products) == {(ROW, True)}
    if name != "connected_components":
        # One product per level, plus the round that empties the frontier.
        assert len(products) == n // 2 + 1


def _reference_relax(m, x, sr, transpose_input):
    """Reference: the previous `_relax`, which relaxed every vertex of a dense
    x each round: the product densified with the add identity, then folded
    into x by a `scale_vector` add.  Returns the fixed point and the number
    of products formed."""
    for rounds in range(1, x.length + 2):
        pulled = densify_vector(mxv(m, x, sr, transpose_input=transpose_input), sr.zero)
        nxt = scale_vector(x, pulled, sr.add.op)
        if vector_entries(nxt) == vector_entries(x):
            return x, rounds
        x = nxt
    raise AssertionError("reference relaxation failed to stabilize")


def _entry_reprs(v):
    return [(i, repr(x)) for i, x in vector_entries(v)]


# Weights of the frontier differential tests: float zeros of both signs, and
# int64 weights near the bound, whose path sums saturate.
_RELAX_WEIGHTS = {
    FLOAT64: st.sampled_from([0.0, -0.0]) | st.floats(0.0, 10.0),
    INT64: st.integers(0, 9) | st.sampled_from([2 ** 62, 2 ** 63 - 2, 2 ** 63 - 1]),
}


@st.composite
def _weighted_digraphs(draw, domain):
    """`domain`-weighted digraphs of up to 12 vertices, in either
    orientation, with a source: a walk from the source plus sparse random
    edges, so there are long paths and unreachable vertices."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    source = draw(vertex)
    walk = [source] + draw(st.lists(vertex, max_size=n))
    cells = sorted(set(zip(walk, walk[1:])) | draw(st.sets(st.tuples(vertex, vertex),
                                                           max_size=n)))
    triples = tuple(Triple(u, v, draw(_RELAX_WEIGHTS[domain])) for u, v in cells)
    a = to_compressed(CooMatrix(n, n, triples, domain), draw(st.sampled_from((ROW, COL))))
    return a, source, [[v for u, v in cells if u == w] for w in range(n)]


@pytest.mark.parametrize("domain", [FLOAT64, INT64])
@settings(max_examples=200)
@given(data=st.data())
def test_sssp_matches_the_dense_reference_relaxation(domain, data):
    a, source, adjacency = data.draw(_weighted_digraphs(domain))
    sr = registry_get(f"min_plus/{domain.kind}")
    start = vector_from_entries(a.nrows, [(source, 0.0 if domain.is_float else 0)], domain)
    reached, rounds = _reference_relax(a, densify_vector(start, sr.zero), sr, True)
    want = [(i, repr(x)) for i, x in vector_entries(reached) if x != sr.zero]
    products = []

    def counted_mxv(*args, **kwargs):
        products.append(args)
        return mxv(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "mxv", counted_mxv)
        if {i for i, _x in want} == set(oracle_bfs(adjacency, [source])):
            assert _entry_reprs(sssp_minplus(a, source)) == want
        else:
            # A reachable vertex's distance saturated to the identity.
            with pytest.raises(PreconditionError, match=f"overflows {domain.kind}$"):
                sssp_minplus(a, source)
    assert len(products) == rounds


@settings(max_examples=200)
@given(_component_graphs())
def test_components_match_the_dense_reference_relaxation(case):
    a, n, _edges = case
    sr = registry_get("min_select2nd")
    pat = apply_unary(a, UnaryOp("const_one", a.domain, INT64, lambda _v: 1))
    labels = vector_from_entries(n, [(i, i) for i in range(n)], INT64)
    want, rounds = _reference_relax(pat, labels, sr, False)
    products = []

    def counted_mxv(*args, **kwargs):
        products.append(args)
        return mxv(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "mxv", counted_mxv)
        got = connected_components(a)
    assert _entry_reprs(got) == _entry_reprs(want)
    assert len(products) <= rounds


def _pattern_complement(v):
    """Boolean vector that is True exactly where `v` stores nothing."""
    stored = dict(vector_entries(v))
    return vector_from_entries(
        v.length, [(i, True) for i in range(v.length) if i not in stored], BOOLEAN)


def _reference_bfs(a, sources):
    """Reference: the previous `bfs`, which rebuilt the visited set as a
    vector every level and masked each product with its pattern complement.
    Returns the result and the number of products formed."""
    n = a.nrows
    sr = registry_get("or_and")
    pat = apply_unary(a, UnaryOp("const_one", a.domain, BOOLEAN, lambda _v: True))
    frontier = vector_from_entries(n, [(i, True) for i in sorted(sources)], BOOLEAN)
    levels = {i: 0 for i in sources}
    products = 0
    for level in range(1, n + 1):
        if not vector_entries(frontier):
            break
        visited_vec = vector_from_entries(n, [(i, True) for i in sorted(levels)], BOOLEAN)
        nxt = mxv(pat, frontier, sr, transpose_input=True)
        products += 1
        frontier = scale_vector(nxt, _pattern_complement(visited_vec), sr.mul)
        for i, _v in vector_entries(frontier):
            levels[i] = level
    lv = vector_from_entries(n, [(i, levels[i]) for i in sorted(levels)], INT64)
    return BfsResult(levels=lv, reached_count=len(levels)), products


@st.composite
def _bfs_cases(draw):
    """Directed graphs of up to 12 vertices with arbitrary stored values, in
    either orientation, and one or more distinct sources; sparse edge sets
    leave some vertices unreachable."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    cells = sorted(draw(st.sets(st.tuples(vertex, vertex), max_size=2 * n)))
    domain = draw(st.sampled_from(sorted(_ADJACENCY_VALUES, key=lambda d: d.kind)))
    triples = tuple(Triple(u, v, draw(_ADJACENCY_VALUES[domain])) for u, v in cells)
    a = to_compressed(CooMatrix(n, n, triples, domain), draw(st.sampled_from((ROW, COL))))
    sources = draw(st.lists(vertex, min_size=1, max_size=n, unique=True))
    return a, sources, [[v for u, v in cells if u == w] for w in range(n)]


@settings(max_examples=200)
@given(_bfs_cases())
def test_bfs_matches_the_complement_masked_reference(case):
    a, sources, adjacency = case
    products = []

    def counted_mxv(*args, **kwargs):
        products.append(args)
        return mxv(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "mxv", counted_mxv)
        got = bfs(a, sources)
    want, rounds = _reference_bfs(a, sources)
    assert vector_entries(got.levels) == vector_entries(want.levels)
    assert got.reached_count == want.reached_count
    assert len(products) == rounds
    assert vector_as_dict(got.levels) == oracle_bfs(adjacency, sources)


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


def _assert_refuses_non_simple(algorithm):
    name = algorithm.__name__
    loops = f"^{name}: graph must have no self-loops$"
    with pytest.raises(PreconditionError, match=loops):
        algorithm(digraph(2, [(0, 0), (0, 1), (1, 0)], INT64, 1))
    with pytest.raises(PreconditionError, match=f"^{name}: adjacency pattern is not symmetric$"):
        algorithm(digraph(3, [(0, 1)], INT64, 1))
    # A self-loop is reported ahead of an asymmetric pattern.
    with pytest.raises(PreconditionError, match=loops):
        algorithm(digraph(3, [(0, 1), (2, 2)], INT64, 1))


def test_triangle_count_rejects_self_loops_and_asymmetry():
    _assert_refuses_non_simple(triangle_count)


def test_clustering_rejects_self_loops_and_asymmetry():
    _assert_refuses_non_simple(clustering_coefficients)


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


def _reference_triangles(a):
    """Reference: the previous `triangle_count`, which masked the full square
    of the pattern to the pattern, counting each triangle six times."""
    sr = registry_get("plus_times/signed-int-64")
    pat = apply_unary(a, UnaryOp("const_one", a.domain, INT64, lambda _v: 1))
    corners = ewise_mult(pat, mxm(pat, pat, sr), sr.mul)
    total = sum(v for _i, v in vector_entries(reduce(corners, sr.add, "rows")))
    assert total % 6 == 0
    return total // 6


@st.composite
def _simple_graphs(draw):
    """Simple undirected graphs of up to 24 vertices: a random edge set, or
    a clique on some of the vertices with the rest isolated."""
    n = draw(st.integers(0, 24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return n, []
    if draw(st.booleans()):
        members = draw(st.sets(st.integers(0, n - 1)))
        return n, [(u, v) for u, v in pairs if u in members and v in members]
    return n, sorted(draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))))


@settings(max_examples=100)
@given(_simple_graphs(), st.data())
def test_triangle_count_matches_the_oracle_and_the_full_square(graph, data):
    n, edges = graph
    want = oracle_triangles(n, edges)
    cells = sorted(set(edges) | {(v, u) for u, v in edges})
    for domain, values in sorted(_ADJACENCY_VALUES.items(), key=lambda kv: kv[0].kind):
        triples = tuple(Triple(u, v, data.draw(values)) for u, v in cells)
        for orientation in (ROW, COL):
            a = to_compressed(CooMatrix(n, n, triples, domain), orientation)
            assert triangle_count(a) == want
            assert _reference_triangles(a) == want


def _upward_cells(a):
    """The cells (i, j) of a's pattern whose j has the higher (degree,
    index) rank, degrees counted from the stored cells."""
    cells = {(t.row, t.col) for t in entries_of(a)}
    deg = {}
    for i, _j in cells:
        deg[i] = deg.get(i, 0) + 1
    return {(i, j) for i, j in cells if (deg[j], j) > (deg[i], i)}


@settings(max_examples=100)
@given(_simple_graphs(), st.data())
def test_upward_keeps_one_entry_of_each_pair_pointing_up_the_degree_rank(graph, data):
    n, edges = graph
    cells = sorted(set(edges) | {(v, u) for u, v in edges})
    for domain, values in sorted(_ADJACENCY_VALUES.items(), key=lambda kv: kv[0].kind):
        triples = tuple(Triple(u, v, data.draw(values)) for u, v in cells)
        for orientation in (ROW, COL):
            a = to_compressed(CooMatrix(n, n, triples, domain), orientation)
            sr, pat = algorithms._simple_pattern(a, "test")
            up = algorithms._upward(pat, reduce(pat, sr.add, "rows"))
            assert check_invariants(up)
            assert up.orientation == orientation
            assert up.domain == INT64
            kept = {(t.row, t.col) for t in entries_of(up)}
            assert {t.val for t in entries_of(up)} <= {1}
            assert all(((u, v) in kept) != ((v, u) in kept) for u, v in edges)
            assert kept == _upward_cells(a)


def _flops(a, b):
    """Products Gustavson's method forms for a.b: the sum over stored
    A(i, j) of the entries in row j of b."""
    row_len = {}
    for t in entries_of(b):
        row_len[t.row] = row_len.get(t.row, 0) + 1
    return sum(row_len.get(t.col, 0) for t in entries_of(a))


def test_degree_ranking_does_fewer_products_than_the_lower_triangle_on_a_hub():
    # A hub in the middle of the index range, adjacent to every other
    # vertex, with a clique among six of its leaves.
    n, hub = 21, 10
    leaves = [v for v in range(n) if v != hub]
    edges = [(min(hub, v), max(hub, v)) for v in leaves]
    edges += [(u, v) for u in leaves[:6] for v in leaves[:6] if u < v]
    a = undirected(n, edges)
    operands = []

    def recorded_mxm(x, y, s):
        operands.append((x, y))
        return mxm(x, y, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "mxm", recorded_mxm)
        assert triangle_count(a) == oracle_triangles(n, edges)
        got = vector_as_dict(clustering_coefficients(a))
    want = oracle_clustering(n, edges)
    assert got == {k: v for k, v in want.items() if v}
    (up, up2), (pat, up3) = operands
    below = IndexUnaryOp("strictly_lower", INT64, INT64, lambda x, i, j: x if i > j else 0)
    low = apply_unary(pat, below, drop_zeros_for=0)
    assert _flops(up, up2) < _flops(low, low)
    assert _flops(pat, up3) < _flops(pat, low)


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


def _reference_clustering(a):
    """Reference: the previous `clustering_coefficients`, which masked the
    full square of the pattern to the pattern, so each row summed 2 t(i),
    and divided that by d(i) (d(i) - 1)."""
    sr = registry_get("plus_times/signed-int-64")
    pat = apply_unary(a, UnaryOp("const_one", a.domain, INT64, lambda _v: 1))
    tri2 = reduce(ewise_mult(pat, mxm(pat, pat, sr), sr.mul), sr.add, "rows")
    wedges2 = apply_unary(reduce(pat, sr.add, "rows"),
                          UnaryOp("ordered_wedges", INT64, INT64, lambda d: d * (d - 1)),
                          drop_zeros_for=0)
    to_f = UnaryOp("to_float", INT64, FLOAT64, float)
    ratio = BinaryOp("divide", FLOAT64, lambda x, y: x / y)
    return scale_vector(apply_unary(tri2, to_f), apply_unary(wedges2, to_f), ratio)


@st.composite
def _clustering_graphs(draw):
    """A simple graph from `_simple_graphs`, then an isolated vertex, a star
    whose centre has open wedges only, and a pendant on the star's first
    leaf; returns the matrix, the vertex count and the added vertices,
    which must get no coefficient."""
    n, edges = draw(_simple_graphs())
    leaves = draw(st.integers(2, 4))
    centre, pendant = n + 1, n + 2 + leaves
    star = [(centre, centre + 1 + k) for k in range(leaves)] + [(centre + 1, pendant)]
    size = pendant + 1
    cells = sorted({*edges, *star} | {(v, u) for u, v in (*edges, *star)})
    domain = draw(st.sampled_from(sorted(_ADJACENCY_VALUES, key=lambda d: d.kind)))
    triples = tuple(Triple(u, v, draw(_ADJACENCY_VALUES[domain])) for u, v in cells)
    a = to_compressed(CooMatrix(size, size, triples, domain), draw(st.sampled_from((ROW, COL))))
    return a, size, range(n, size)


@settings(max_examples=100)
@given(_clustering_graphs())
def test_clustering_matches_the_full_square_reference(case):
    a, _n, added = case
    seconds = []

    def recorded_mxm(x, y, s):
        seconds.append(y)
        return mxm(x, y, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "mxm", recorded_mxm)
        got = clustering_coefficients(a)
    assert repr(vector_entries(got)) == repr(vector_entries(_reference_clustering(a)))
    assert not set(added) & set(vector_as_dict(got))
    # The one product multiplies by one entry of each mirrored pair of the
    # pattern, the one pointing to the higher (degree, index) vertex.
    (up,) = seconds
    assert {(t.row, t.col) for t in entries_of(up)} == _upward_cells(a)


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
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert not names & {"build_from_triples", "to_compressed", "CooMatrix", "Triple"}


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
