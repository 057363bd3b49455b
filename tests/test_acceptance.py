"""End-to-end acceptance checks, one test per shipping criterion.

Each test states its own budget (sample counts, sizes, tolerances) inline
and compares the library against independent reference implementations
from the dense/brute-force module.  The conftest prints a per-criterion
PASS/FAIL line after the run.
"""

import io
import math
import random
import time

from helpers import (
    assert_matrix_equals_dense,
    assert_vector_equals_dense,
    random_csr,
    random_digraph,
    random_undirected,
    random_vector,
    random_weighted_digraph,
    sampler_for,
    snapshot,
    strongly_connected_digraph,
    vector_as_dict,
)
from sgk.algorithms import (
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
    SparseVector,
    Triple,
    is_symmetric,
    to_compressed,
    to_tuples,
    vector_entries,
)
from sgk.domains import (
    ALL_DOMAINS,
    BOOLEAN,
    COMPLEX128,
    FLOAT64,
    INT64,
    ulp_distance,
)
from sgk.errors import UnsupportedDomainError
from sgk.io_formats import read_matrix_market, write_matrix_market
from sgk.kernels import (
    _fold_ops,
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
from sgk.oracle import (
    dense_ewise,
    dense_mxm,
    dense_mxv,
    dense_reduce,
    oracle_bfs,
    oracle_clustering,
    oracle_components,
    oracle_pagerank,
    oracle_sssp,
    oracle_triangles,
    to_dense,
    vector_to_dense,
)
from sgk.semirings import (
    _FAMILIES,
    CANONICAL_NAMES,
    IndexUnaryOp,
    UnaryOp,
    law_sample_pool,
    registry_get,
)


# ---------------------------------------------------------------------------
# 1. Semiring laws


def test_criterion_01_semiring_laws():
    """All six registry semirings satisfy commutativity, associativity,
    identity, and the annihilator on 1000 sampled triples per law; exact
    for discrete domains, within 1 ULP for floats.  Budget: 5 seconds."""
    started = time.perf_counter()
    rng = random.Random(0xACCE91)
    triples_per_law = 1000

    def same(domain, x, y):
        if domain.is_float or domain.is_complex:
            return ulp_distance(x, y, domain) <= 1
        return x == y

    for name in CANONICAL_NAMES:
        s = registry_get(name)
        d = s.domain
        add = s.add.op.eval
        mul = s.mul.eval
        ident = s.add.identity
        pool = law_sample_pool(s, rng, size=64)
        for _ in range(triples_per_law):
            a, b = rng.choice(pool), rng.choice(pool)
            assert same(d, add(a, b), add(b, a)), (name, "commutativity", a, b)
        for _ in range(triples_per_law):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            assert same(d, add(add(a, b), c), add(a, add(b, c))), (
                name, "associativity", a, b, c,
            )
        for _ in range(triples_per_law):
            a = rng.choice(pool)
            assert same(d, add(ident, a), a), (name, "left identity", a)
            assert same(d, add(a, ident), a), (name, "right identity", a)
        for _ in range(triples_per_law):
            a = rng.choice(pool)
            assert same(d, mul(s.zero, a), s.zero), (name, "left annihilator", a)
            assert same(d, mul(a, s.zero), s.zero), (name, "right annihilator", a)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"law suite took {elapsed:.2f}s (budget 5s)"


def test_fast_row_laws_hold_for_every_builtin_that_declares_one():
    """The facts each declared fast row (`Semiring.fast_row`) relies on,
    over every built-in family and domain that declares one:
    - "union": true and y is y, false and y is False, and add is or;
    - "min_pushed": mul(y, x) is x for every y but the identity, and add is
      min;
    - "count": mul(1, 1) is 1 over an integer domain, and add is integer +
      up to the kernels' `fit`."""
    rng = random.Random(0xFA57)
    declared = set()
    for family in _FAMILIES:
        for d in ALL_DOMAINS:
            try:
                s = registry_get(f"{family}/{d.kind}")
            except UnsupportedDomainError:
                continue
            if s.fast_row is None:
                continue
            declared.add((s.fast_row, s.name))
            add, mul, zero = s.add.op.eval, s.mul.eval, s.zero
            pool = law_sample_pool(s, rng, size=64)
            pairs = [(x, y) for x in pool for y in pool]
            if s.fast_row == "union":
                for x, y in pairs:
                    assert mul(True, y) == y and mul(y, True) == y, (s.name, y)
                    assert mul(False, y) is False and mul(y, False) is False, (s.name, y)
                    assert add(x, y) == (x or y), (s.name, x, y)
            elif s.fast_row == "min_pushed":
                for x, y in pairs:
                    if y != zero:
                        assert mul(y, x) == x, (s.name, y, x)
                    assert add(x, y) == min(x, y), (s.name, x, y)
            else:
                assert s.fast_row == "count" and d.is_integer, s.name
                fit = _fold_ops(s.add.op, s.mul)[2]
                assert fit is not None and mul(1, 1) == 1, s.name
                for x, y in pairs:
                    assert add(x, y) == fit(x + y), (s.name, x, y)
    assert {row for row, _name in declared} == {"union", "min_pushed", "count"}


# ---------------------------------------------------------------------------
# 2. Kernel vs dense oracle


def _instance_dim(rng, first):
    if first:
        return 50
    r = rng.random()
    if r < 0.7:
        return rng.randint(1, 12)
    if r < 0.9:
        return rng.randint(13, 30)
    return rng.randint(31, 50)


def test_criterion_02_kernel_oracle_equivalence():
    """mxm, mxv, ewise_mult, and reduce agree with the dense brute-force
    oracle on 200 random instances per kernel per registry semiring
    (dimensions up to 50, density up to 0.2); boolean and integer results
    match exactly, float results within 1e-12 relative.  Budget: 60 s."""
    started = time.perf_counter()
    rng = random.Random(0xACCE92)
    instances = 200

    for name in CANONICAL_NAMES:
        s = registry_get(name)
        d = s.domain
        sample = sampler_for(name)

        for i in range(instances):
            n = _instance_dim(rng, i == 0)
            k = _instance_dim(rng, i == 0)
            density = rng.uniform(0.0, 0.2)
            a = random_csr(n, k, density, d, sample, rng)
            b = random_csr(k, n, density, d, sample, rng)
            got = mxm(a, b, s)
            want = dense_mxm(to_dense(a, s.zero), to_dense(b, s.zero), s)
            assert_matrix_equals_dense(got, want, s.zero)

        for i in range(instances):
            n = _instance_dim(rng, i == 0)
            m = _instance_dim(rng, i == 0)
            density = rng.uniform(0.0, 0.2)
            a = random_csr(n, m, density, d, sample, rng)
            transpose = i % 2 == 1
            v = random_vector(n if transpose else m, 0.5, d, sample, rng)
            got = mxv(a, v, s, transpose_input=transpose)
            want = dense_mxv(to_dense(a, s.zero), vector_to_dense(v, s.zero),
                             s, transpose_input=transpose)
            assert_vector_equals_dense(got, want, s.zero)

        for i in range(instances):
            n = _instance_dim(rng, i == 0)
            m = _instance_dim(rng, i == 0)
            a = random_csr(n, m, rng.uniform(0.0, 0.2), d, sample, rng)
            b = random_csr(n, m, rng.uniform(0.0, 0.2), d, sample, rng)
            got = ewise_mult(a, b, s.mul)
            want = dense_ewise(to_dense(a, s.zero), to_dense(b, s.zero), s)
            assert_matrix_equals_dense(got, want, s.zero)

        for i in range(instances):
            n = _instance_dim(rng, i == 0)
            m = _instance_dim(rng, i == 0)
            a = random_csr(n, m, rng.uniform(0.0, 0.2), d, sample, rng)
            axis = "rows" if i % 2 == 0 else "cols"
            got = reduce(a, s.add, axis)
            want = dense_reduce(to_dense(a, s.add.identity), s.add, axis)
            assert_vector_equals_dense(got, want, s.add.identity)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"kernel sweep took {elapsed:.2f}s (budget 60s)"


# ---------------------------------------------------------------------------
# 3. BFS


def test_criterion_03_bfs_oracle():
    """Levels and reach match queue BFS on 100 random digraphs with up to
    200 vertices, alternating single-source and multi-source; exact."""
    rng = random.Random(0xACCE93)
    for i in range(100):
        n = rng.randint(1, 200)
        a, adj = random_digraph(n, 3.0 / n, rng, BOOLEAN)
        if i % 2 == 0:
            src = [rng.randrange(n)]
        else:
            src = rng.sample(range(n), rng.randint(1, min(5, n)))
        got = bfs(a, src)
        want = oracle_bfs(adj, src)
        assert vector_as_dict(got.levels) == want
        assert got.reached_count == len(want)


# ---------------------------------------------------------------------------
# 4. SSSP


def test_criterion_04_sssp_oracle():
    """Tropical iteration equals Dijkstra on 100 random non-negative
    weighted digraphs with up to 100 vertices; integer weights match
    exactly, float weights within 1e-12 relative."""
    rng = random.Random(0xACCE94)
    for i in range(100):
        n = rng.randint(1, 100)
        floaty = i % 2 == 1
        a, adj = random_weighted_digraph(
            n, 3.0 / n, rng, FLOAT64 if floaty else INT64, float_weights=floaty
        )
        source = rng.randrange(n)
        got = vector_as_dict(sssp_minplus(a, source))
        want = oracle_sssp(adj, source)
        assert set(got) == set(want)
        for v, x in got.items():
            if floaty:
                assert x == want[v] or math.isclose(x, want[v], rel_tol=1e-12,
                                                    abs_tol=0.0)
            else:
                assert x == want[v]


# ---------------------------------------------------------------------------
# 5. Connected components


def _partition(labels: dict) -> frozenset:
    groups: dict = {}
    for v, lbl in labels.items():
        groups.setdefault(lbl, set()).add(v)
    return frozenset(frozenset(g) for g in groups.values())


def test_criterion_05_connected_components_oracle():
    """Label vectors induce the same partition as union-find on 100 random
    undirected graphs with up to 200 vertices."""
    rng = random.Random(0xACCE95)
    for _ in range(100):
        n = rng.randint(1, 200)
        a, edges = random_undirected(n, 2.0 / n, rng, INT64)
        got = vector_as_dict(connected_components(a))
        want = dict(enumerate(oracle_components(n, edges)))
        assert _partition(got) == _partition(want)
        assert got == want  # labels are the component minima on both sides


# ---------------------------------------------------------------------------
# 6. Triangles and clustering


def test_criterion_06_triangles_and_clustering():
    """Triangle totals and local clustering coefficients match wedge
    enumeration on 50 random undirected graphs with up to 150 vertices
    (coefficients within 1e-12, an absent entry meaning zero), and the
    complete graphs K3, K4, K5 give 1, 4, and 10 triangles."""
    rng = random.Random(0xACCE96)
    for i in range(50):
        if i % 5 == 4:
            n = rng.randint(3, 25)
            p = 0.5
        else:
            n = rng.randint(1, 150)
            p = 4.0 / n
        a, edges = random_undirected(n, p, rng, INT64)
        assert triangle_count(a) == oracle_triangles(n, edges)
        got = vector_as_dict(clustering_coefficients(a))
        want = oracle_clustering(n, edges)
        assert set(got) == {k for k, v in want.items() if v != 0.0}
        for k, x in got.items():
            assert math.isclose(x, want[k], rel_tol=1e-12, abs_tol=0.0)

    for n, expected in ((3, 1), (4, 4), (5, 10)):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        full = set(edges) | {(v, u) for u, v in edges}
        m = to_compressed(CooMatrix(
            n, n, tuple(Triple(u, v, 1) for u, v in sorted(full)), INT64,
        ))
        assert triangle_count(m) == expected == math.comb(n, 3)


# ---------------------------------------------------------------------------
# 7. PageRank


def test_criterion_07_pagerank_oracle():
    """Ranks agree with an edge-at-a-time power iteration within 1e-8 on
    25 random strongly connected digraphs with up to 50 vertices, and the
    directed 3-cycle returns the uniform 1/3 within 1e-12."""
    rng = random.Random(0xACCE97)
    for _ in range(25):
        n = rng.randint(2, 50)
        a, edges = strongly_connected_digraph(n, 0.2, rng, FLOAT64)
        got = pagerank(a, alpha=0.85, max_iters=400, tol=1e-12)
        want = oracle_pagerank(n, edges, 0.85)
        ranks = vector_as_dict(got.ranks)
        assert set(ranks) == set(range(n))
        for v in range(n):
            assert abs(ranks[v] - want[v]) <= 1e-8

    cycle = to_compressed(CooMatrix(
        3, 3, (Triple(0, 1, 1.0), Triple(1, 2, 1.0), Triple(2, 0, 1.0)), FLOAT64,
    ))
    r = pagerank(cycle, alpha=0.85, max_iters=400, tol=1e-12)
    for _v, x in vector_entries(r.ranks):
        assert abs(x - 1.0 / 3.0) <= 1e-12


# ---------------------------------------------------------------------------
# 8. Format round trips


def _domain_sampler(d, rng):
    if d.is_boolean:
        return rng.random() < 0.5
    if d.is_integer:
        lo, hi = d.min_value, d.max_value
        span = min(hi, 10**6)
        base = max(lo, -(10**6))
        return rng.randint(base, span) if rng.random() < 0.5 else rng.choice(
            [lo, hi, 0, 1]
        )
    if d.kind == "float-single":
        return d.normalize(rng.uniform(-1e3, 1e3))
    if d.is_float:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-200, 200)
    if d.is_complex:
        return complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
    return object()


def _random_coo(rng, d, n_max=8):
    n = rng.randint(0, n_max)
    m = rng.randint(0, n_max)
    cells = {}
    if n and m:
        for _ in range(rng.randint(0, n * m // 2)):
            cells[(rng.randrange(n), rng.randrange(m))] = _domain_sampler(d, rng)
    triples = tuple(Triple(r, c, v) for (r, c), v in sorted(cells.items()))
    return CooMatrix(n, m, triples, d)


def test_criterion_08_format_round_trips():
    """Representation changes are lossless: COO to CSR to CSC back to COO
    is the identity on 100 random matrices for every value domain, text
    serialization reads back bit-identically for the exactly-representable
    text domains on 100 matrices each, and 100 symmetric coordinate files
    expand to matrices that pass the symmetry check."""
    rng = random.Random(0xACCE98)

    for d in ALL_DOMAINS:
        for _ in range(100):
            coo = _random_coo(rng, d)
            csr = to_compressed(coo, "row")
            csc = to_compressed(coo, "col")
            assert to_tuples(csr).triples == coo.triples
            assert to_tuples(csc).triples == coo.triples
            assert to_tuples(to_compressed(to_tuples(csr), "col")).triples \
                == coo.triples

    for d in (FLOAT64, INT64, COMPLEX128):
        for _ in range(100):
            coo = _random_coo(rng, d)
            buf = io.StringIO()
            write_matrix_market(coo, buf)
            buf.seek(0)
            back, desc = read_matrix_market(buf)
            assert back.triples == coo.triples
            assert (back.nrows, back.ncols) == (coo.nrows, coo.ncols)
            assert back.domain is d
            assert desc.symmetric is False

    for _ in range(100):
        n = rng.randint(1, 10)
        cells = {}
        for _k in range(rng.randint(0, n * 2)):
            r = rng.randrange(n)
            c = rng.randint(0, r)
            cells[(r, c)] = rng.randint(-99, 99)
        lines = ["%%MatrixMarket matrix coordinate integer symmetric",
                 f"{n} {n} {len(cells)}"]
        lines += [f"{r + 1} {c + 1} {v}" for (r, c), v in sorted(cells.items())]
        coo, desc = read_matrix_market(io.StringIO("\n".join(lines) + "\n"))
        assert desc.symmetric is True
        assert is_symmetric(to_compressed(coo))


# ---------------------------------------------------------------------------
# 9. Purity


def test_criterion_09_purity_immutability():
    """Every kernel and every algorithm leaves its inputs structurally
    identical (offsets, indices, values, domains, orientations)."""
    rng = random.Random(0xACCE99)
    s = registry_get("plus_times/float-double")
    sample = sampler_for(s.name)

    a = random_csr(6, 6, 0.4, FLOAT64, sample, rng)
    b = random_csr(6, 6, 0.4, FLOAT64, sample, rng)
    v = random_vector(6, 0.6, FLOAT64, sample, rng)
    f = random_vector(6, 0.6, FLOAT64, sample, rng)
    block = random_csr(2, 2, 0.8, FLOAT64, sample, rng)
    neg = UnaryOp("negate", FLOAT64, FLOAT64, lambda x: -x)
    shift = IndexUnaryOp("shift_by_position", FLOAT64, FLOAT64, lambda x, i, j: x + i - j)

    before = (snapshot(a), snapshot(b), snapshot(v), snapshot(f), snapshot(block))
    mxm(a, b, s)
    mxv(a, v, s)
    mxv(a, v, s, transpose_input=True)
    ewise_mult(a, b, s.mul)
    reduce(a, s.add, "rows")
    reduce(a, s.add, "cols")
    subref(a, [4, 0], [1, 2])
    subassign(a, [0, 5], [3, 4], block)
    scale_matrix(a, f, s.mul, "rows")
    scale_matrix(a, f, s.mul, "cols")
    scale_vector(v, f, s.mul)
    apply_unary(a, neg)
    apply_unary(v, neg, drop_zeros_for=0.0)
    apply_unary(a, shift)
    apply_unary(v, shift, drop_zeros_for=0.0)
    assert (snapshot(a), snapshot(b), snapshot(v), snapshot(f),
            snapshot(block)) == before

    g, _edges = random_undirected(8, 0.4, rng, INT64)
    w, _adj = random_weighted_digraph(8, 0.4, rng, FLOAT64, float_weights=True)
    sc, _e2 = strongly_connected_digraph(8, 0.3, rng, FLOAT64)
    before_graphs = (snapshot(g), snapshot(w), snapshot(sc))
    bfs(g, [0, 3])
    sssp_minplus(w, 0)
    connected_components(g)
    triangle_count(g)
    clustering_coefficients(g)
    pagerank(sc, 0.85, max_iters=50, tol=1e-10)
    degrees(g, "in")
    degrees(w, "out")
    assert (snapshot(g), snapshot(w), snapshot(sc)) == before_graphs


# ---------------------------------------------------------------------------
# 10. Runtime budget


def test_criterion_10_suite_runtime(suite_start_time):
    """The whole test suite, acceptance included, finishes within two
    minutes in a single process.  This test is ordered last."""
    elapsed = time.perf_counter() - suite_start_time
    assert elapsed <= 120.0, f"suite has been running {elapsed:.1f}s (budget 120s)"
