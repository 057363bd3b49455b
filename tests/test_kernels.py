import math
import random
from dataclasses import replace
from typing import Any, Callable, Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_matrix_equals_dense,
    coo_matrices,
    assert_vector_equals_dense,
    int_sampler,
    random_csr,
    random_vector,
    sampler_for,
    snapshot,
    traced_lines,
)
from sgk.containers import (
    COL,
    ROW,
    CompressedMatrix,
    CooMatrix,
    SparseVector,
    Triple,
    _slice,
    check_invariants,
    entries_of,
    nvals,
    reorient,
    to_compressed,
    to_tuples,
    vector_entries,
)
from sgk import kernels
from sgk.domains import (
    BOOLEAN, FLOAT64, INT8, INT16, INT32, INT64, OPAQUE, UINT8, UINT16, UINT32, UINT64,
)
from sgk.errors import (
    DimensionMismatchError,
    DomainMismatchError,
    DuplicateIndexError,
    IndexRangeError,
)
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
from sgk.oracle import dense_mxm, dense_mxv, to_dense
from sgk.semirings import (
    BinaryOp, IndexUnaryOp, Monoid, Semiring, UnaryOp, plus_monoid, registry_get,
)


def pattern_matrix(n, edges, domain=BOOLEAN, one=True):
    triples = tuple(Triple(u, v, one) for u, v in sorted(edges))
    return to_compressed(CooMatrix(n, n, triples, domain))


def k3(domain=INT64, one=1):
    return pattern_matrix(3, [(u, v) for u in range(3) for v in range(3) if u != v],
                          domain, one)


# ---------------------------------------------------------------------------
# mxm


def test_mxm_boolean_path_two_hop():
    a = pattern_matrix(3, [(0, 1), (1, 2)])
    c = mxm(a, a, registry_get("or_and"))
    assert entries_of(c) == (Triple(0, 2, True),)


def test_mxm_identity_matrix_is_neutral():
    rng = random.Random(5)
    s = registry_get("plus_times/float-double")
    a = random_csr(6, 6, 0.4, FLOAT64, sampler_for(s.name), rng)
    eye = to_compressed(
        CooMatrix(6, 6, tuple(Triple(i, i, 1.0) for i in range(6)), FLOAT64)
    )
    assert entries_of(mxm(a, eye, s)) == entries_of(a)
    assert entries_of(mxm(eye, a, s)) == entries_of(a)


def test_mxm_min_plus_two_edge_path():
    s = registry_get("min_plus/float-double")
    a = to_compressed(
        CooMatrix(3, 3, (Triple(0, 1, 2.0), Triple(1, 2, 3.0)), FLOAT64)
    )
    c = mxm(a, a, s)
    assert entries_of(c) == (Triple(0, 2, 5.0),)


def test_mxm_dimension_and_domain_errors():
    s = registry_get("plus_times/signed-int-64")
    a = pattern_matrix(3, [(0, 1)], INT64, 1)
    b = to_compressed(CooMatrix(4, 3, (), INT64))
    with pytest.raises(DimensionMismatchError):
        mxm(a, b, s)
    f = to_compressed(CooMatrix(3, 3, (), FLOAT64))
    with pytest.raises(DomainMismatchError):
        mxm(a, f, s)


def test_mxm_result_follows_first_operand_orientation():
    s = registry_get("plus_times/signed-int-64")
    a = to_compressed(to_tuples(k3()), COL)
    b = k3()
    assert mxm(a, b, s).orientation == COL
    assert mxm(b, a, s).orientation == ROW


def test_mxm_drops_computed_zeros():
    s = registry_get("plus_times/signed-int-64")
    a = to_compressed(CooMatrix(2, 2, (Triple(0, 0, 1), Triple(0, 1, 1)), INT64))
    b = to_compressed(CooMatrix(2, 1, (Triple(0, 0, 5), Triple(1, 0, -5)), INT64))
    c = mxm(a, b, s)
    assert entries_of(c) == ()
    assert check_invariants(c)


def test_mxm_associativity_exact_for_wrapping_ints_and_booleans():
    rng = random.Random(17)
    for name in ("plus_times/signed-int-64", "or_and/boolean"):
        s = registry_get(name)
        sample = sampler_for("plus_times") if "int" in name else sampler_for("or_and")
        draw = (lambda r: r.randint(-99, 99)) if "int" in name else sample
        for _ in range(10):
            a = random_csr(5, 4, 0.4, s.domain, draw, rng)
            b = random_csr(4, 6, 0.4, s.domain, draw, rng)
            c = random_csr(6, 3, 0.4, s.domain, draw, rng)
            left = mxm(mxm(a, b, s), c, s)
            right = mxm(a, mxm(b, c, s), s)
            assert entries_of(left) == entries_of(right)


# ---------------------------------------------------------------------------
# mxv


def test_mxv_advances_frontier_along_path():
    s = registry_get("or_and")
    a = pattern_matrix(3, [(0, 1), (1, 2)])
    e0 = SparseVector(3, ((0, True),), BOOLEAN)
    w = mxv(a, e0, s, transpose_input=True)
    assert vector_entries(w) == ((1, True),)


def test_mxv_empty_vector_gives_empty_result():
    s = registry_get("or_and")
    a = pattern_matrix(3, [(0, 1), (1, 2)])
    w = mxv(a, SparseVector(3, (), BOOLEAN), s)
    assert vector_entries(w) == ()


def test_mxv_min_plus_relaxation_step():
    s = registry_get("min_plus/float-double")
    a = to_compressed(
        CooMatrix(3, 3, (Triple(0, 1, 2.0), Triple(1, 2, 3.0)), FLOAT64)
    )
    dist = SparseVector(3, ((0, 0.0),), FLOAT64)
    w = mxv(a, dist, s, transpose_input=True)
    assert vector_entries(w) == ((1, 2.0),)


def test_mxv_without_transpose_collects_successor_values():
    s = registry_get("plus_times/signed-int-64")
    a = to_compressed(CooMatrix(2, 3, (Triple(0, 2, 4), Triple(1, 0, 3)), INT64))
    v = SparseVector(3, ((0, 10), (2, 100)), INT64)
    w = mxv(a, v, s)
    assert vector_entries(w) == ((0, 400), (1, 30))


def test_mxv_length_checks_respect_transpose_flag():
    s = registry_get("plus_times/signed-int-64")
    a = to_compressed(CooMatrix(2, 3, (), INT64))
    v2 = SparseVector(2, (), INT64)
    v3 = SparseVector(3, (), INT64)
    assert vector_entries(mxv(a, v3, s)) == ()
    assert vector_entries(mxv(a, v2, s, transpose_input=True)) == ()
    with pytest.raises(DimensionMismatchError):
        mxv(a, v2, s)
    with pytest.raises(DimensionMismatchError):
        mxv(a, v3, s, transpose_input=True)


# ---------------------------------------------------------------------------
# ewise_mult


def test_ewise_mult_boolean_self_intersection():
    a = pattern_matrix(4, [(0, 1), (2, 3)])
    c = ewise_mult(a, a, registry_get("or_and").mul)
    assert entries_of(c) == entries_of(a)


def test_ewise_mult_disjoint_patterns_empty():
    a = pattern_matrix(3, [(0, 1)], INT64, 1)
    b = pattern_matrix(3, [(1, 2)], INT64, 1)
    c = ewise_mult(a, b, registry_get("plus_times/signed-int-64").mul)
    assert entries_of(c) == ()


def test_ewise_mult_counts_triangle_corners_of_k3():
    s = registry_get("plus_times/signed-int-64")
    a = k3()
    b = mxm(a, a, s)
    corners = ewise_mult(a, b, s.mul)
    total = sum(t.val for t in entries_of(corners))
    assert total == 6  # one triangle, six corner traversals


def test_ewise_mult_keeps_zero_results():
    op = registry_get("plus_times/signed-int-64").mul
    a = pattern_matrix(2, [(0, 1)], INT64, 1)
    b = to_compressed(CooMatrix(2, 2, (Triple(0, 1, 0),), INT64))
    c = ewise_mult(a, b, op)
    assert entries_of(c) == (Triple(0, 1, 0),)


def test_ewise_mult_shape_mismatch():
    a = pattern_matrix(2, [(0, 1)], INT64, 1)
    b = to_compressed(CooMatrix(3, 3, (), INT64))
    with pytest.raises(DimensionMismatchError):
        ewise_mult(a, b, registry_get("plus_times/signed-int-64").mul)


# ---------------------------------------------------------------------------
# reduce


def test_reduce_rows_of_k3_gives_out_degrees():
    deg = reduce(k3(), plus_monoid(INT64), "rows")
    assert vector_entries(deg) == ((0, 2), (1, 2), (2, 2))


def test_reduce_empty_matrix_is_empty_vector():
    m = to_compressed(CooMatrix(3, 3, (), INT64))
    assert vector_entries(reduce(m, plus_monoid(INT64), "rows")) == ()


def test_reduce_single_entry_max_cols():
    from sgk.semirings import max_monoid

    m = to_compressed(CooMatrix(2, 2, (Triple(0, 1, 7),), INT64))
    v = reduce(m, max_monoid(INT64), "cols")
    assert vector_entries(v) == ((1, 7),)


def test_reduce_rejects_bad_axis():
    with pytest.raises(ValueError):
        reduce(k3(), plus_monoid(INT64), "diag")


def test_reduce_keeps_stored_values_equal_to_identity():
    m = to_compressed(CooMatrix(2, 2, (Triple(0, 0, 0), Triple(0, 1, 0)), INT64))
    v = reduce(m, plus_monoid(INT64), "rows")
    assert vector_entries(v) == ((0, 0),)


# ---------------------------------------------------------------------------
# subref / subassign


def test_subref_induced_subgraph_of_k3():
    sub = subref(k3(), [0, 1], [0, 1])
    assert entries_of(sub) == (Triple(0, 1, 1), Triple(1, 0, 1))


def test_subref_full_range_identity():
    m = k3()
    sub = subref(m, [0, 1, 2], [0, 1, 2])
    assert entries_of(sub) == entries_of(m)


def test_subref_reversal_permutation_matches_dense():
    rng = random.Random(23)
    m = random_csr(5, 5, 0.4, INT64, int_sampler(), rng)
    perm = [4, 3, 2, 1, 0]
    sub = subref(m, perm, perm)
    dense = to_dense(m, 0)
    for i in range(5):
        for j in range(5):
            got = dict(((t.row, t.col), t.val) for t in entries_of(sub)).get((i, j), 0)
            assert got == dense.values[perm[i]][perm[j]]


def test_subref_rejects_bad_indices():
    with pytest.raises(IndexRangeError):
        subref(k3(), [0, 7], [0])
    with pytest.raises(DuplicateIndexError):
        subref(k3(), [0, 0], [1])


def test_subassign_empty_block_clears_region():
    m = k3()
    empty = to_compressed(CooMatrix(2, 2, (), INT64))
    c = subassign(m, [0, 1], [0, 1], empty)
    remaining = entries_of(c)
    assert Triple(0, 1, 1) not in remaining
    assert Triple(1, 0, 1) not in remaining
    assert Triple(0, 2, 1) in remaining  # outside the block column set


def test_subassign_into_disjoint_empty_region_adds_nnz():
    base = pattern_matrix(4, [(0, 1)], INT64, 1)
    block = pattern_matrix(2, [(0, 0), (1, 1)], INT64, 1)
    c = subassign(base, [2, 3], [2, 3], block)
    assert nvals(c) == nvals(base) + nvals(block)


def test_subassign_subref_round_trip():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 8)
        m = random_csr(n, n, 0.4, INT64, int_sampler(), rng)
        k = rng.randint(1, n)
        rows = rng.sample(range(n), k)
        cols = rng.sample(range(n), k)
        block = random_csr(k, k, 0.5, INT64, int_sampler(), rng)
        assert entries_of(subref(subassign(m, rows, cols, block), rows, cols)) \
            == entries_of(block)


def test_subassign_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        subassign(k3(), [0], [0, 1], to_compressed(CooMatrix(2, 2, (), INT64)))


def _reference_subassign(c, rows, cols, b):
    """Reference: the previous `subassign`, which merged the kept and placed
    triples with a keyed sort and compressed the result again."""
    rset, cset = set(rows), set(cols)
    kept = [t for t in to_tuples(c).triples if not (t.row in rset and t.col in cset)]
    placed = [Triple(rows[t.row], cols[t.col], t.val) for t in to_tuples(b).triples]
    merged = tuple(sorted(kept + placed, key=lambda t: (t.row, t.col)))
    return to_compressed(CooMatrix(c.nrows, c.ncols, merged, c.domain), c.orientation)


_SUBASSIGN_VALUES = {
    INT64: st.integers(-50, 50),
    BOOLEAN: st.booleans(),
    # Unorderable values: merging must never compare two of them.
    OPAQUE: st.one_of(st.builds(object), st.none(), st.lists(st.integers(), max_size=2)),
}


@st.composite
def _subassign_cases(draw):
    domain = draw(st.sampled_from(sorted(_SUBASSIGN_VALUES, key=lambda d: d.kind)))
    values = _SUBASSIGN_VALUES[domain]
    c = draw(coo_matrices(domain=domain, values=values))
    # Any order of any subset, so permuted, partial, full and empty lists.
    rows = draw(st.permutations(range(c.nrows)))[:draw(st.integers(0, c.nrows))]
    cols = draw(st.permutations(range(c.ncols)))[:draw(st.integers(0, c.ncols))]
    cells = draw(st.sets(st.tuples(st.sampled_from(range(len(rows))),
                                   st.sampled_from(range(len(cols)))))) if rows and cols else set()
    b = CooMatrix(len(rows), len(cols),
                  tuple(Triple(r, q, draw(values)) for r, q in sorted(cells)), domain)
    return (to_compressed(c, draw(st.sampled_from((ROW, COL)))), rows, cols,
            to_compressed(b, draw(st.sampled_from((ROW, COL)))))


@settings(max_examples=200)
@given(_subassign_cases())
def test_subassign_matches_the_triple_merge_reference(case):
    c, rows, cols, b = case
    before = snapshot(c), snapshot(b)
    got = subassign(c, rows, cols, b)
    assert snapshot(got) == snapshot(_reference_subassign(c, rows, cols, b))
    assert check_invariants(got)
    assert (snapshot(c), snapshot(b)) == before


# ---------------------------------------------------------------------------
# scale_matrix / scale_vector


def test_scale_rows_to_stochastic():
    s = registry_get("plus_times/float-double")
    a = k3(FLOAT64, 1.0)
    deg = reduce(a, s.add, "rows")
    inv = apply_unary(deg, UnaryOp("reciprocal", FLOAT64, FLOAT64, lambda x: 1.0 / x))
    p = scale_matrix(a, inv, s.mul, "rows")
    sums = reduce(p, s.add, "rows")
    assert all(abs(x - 1.0) < 1e-15 for _, x in vector_entries(sums))


def test_scale_matrix_all_ones_is_identity():
    m = k3()
    ones = SparseVector(3, ((0, 1), (1, 1), (2, 1)), INT64)
    out = scale_matrix(m, ones, registry_get("plus_times/signed-int-64").mul, "cols")
    assert entries_of(out) == entries_of(m)


def test_scale_matrix_empty_factor_drops_everything():
    m = k3()
    empty = SparseVector(3, (), INT64)
    out = scale_matrix(m, empty, registry_get("plus_times/signed-int-64").mul, "rows")
    assert entries_of(out) == ()


def test_scale_matrix_cols_uses_column_factor():
    m = to_compressed(CooMatrix(2, 2, (Triple(0, 0, 2), Triple(0, 1, 3)), INT64))
    d = SparseVector(2, ((1, 10),), INT64)
    out = scale_matrix(m, d, registry_get("plus_times/signed-int-64").mul, "cols")
    assert entries_of(out) == (Triple(0, 1, 30),)
    with pytest.raises(DimensionMismatchError,
                       match=r"^scale_matrix: factor length 3 does not match 2$"):
        scale_matrix(m, SparseVector(3, (), INT64), registry_get("plus_times/signed-int-64").mul,
                     "cols")


def test_scale_vector_masks_frontier():
    op = registry_get("or_and").mul
    frontier = SparseVector(3, ((0, True), (1, True)), BOOLEAN)
    mask = SparseVector(3, ((1, True), (2, True)), BOOLEAN)
    out = scale_vector(frontier, mask, op)
    assert vector_entries(out) == ((1, True),)


def test_scale_vector_identity_and_disjoint():
    op = registry_get("plus_times/signed-int-64").mul
    v = SparseVector(3, ((0, 4), (2, 6)), INT64)
    ones = SparseVector(3, ((0, 1), (1, 1), (2, 1)), INT64)
    assert vector_entries(scale_vector(v, ones, op)) == vector_entries(v)
    other = SparseVector(3, ((1, 9),), INT64)
    assert vector_entries(scale_vector(v, other, op)) == ()
    with pytest.raises(DimensionMismatchError, match=r"^scale_vector: lengths 3 and 4 differ$"):
        scale_vector(v, SparseVector(4, (), INT64), op)


# ---------------------------------------------------------------------------
# apply_unary


def test_apply_unary_constant_one_builds_pattern():
    m = to_compressed(CooMatrix(2, 2, (Triple(0, 1, 2.5), Triple(1, 0, 7.0)), FLOAT64))
    pat = apply_unary(m, UnaryOp("one", FLOAT64, INT64, lambda _x: 1))
    assert entries_of(pat) == (Triple(0, 1, 1), Triple(1, 0, 1))
    assert pat.domain is INT64


def test_apply_unary_identity_function():
    m = k3()
    out = apply_unary(m, UnaryOp("id", INT64, INT64, lambda x: x))
    assert entries_of(out) == entries_of(m)


def test_apply_unary_damping_matches_direct_arithmetic():
    v = SparseVector(3, ((0, 0.5), (1, 0.25), (2, 0.25)), FLOAT64)
    alpha, beta = 0.85, 0.05
    out = apply_unary(v, UnaryOp("damp", FLOAT64, FLOAT64, lambda x: alpha * x + beta))
    assert vector_entries(out) == tuple(
        (i, alpha * x + beta) for i, x in vector_entries(v)
    )


def test_apply_unary_drop_zeros_for():
    v = SparseVector(3, ((0, 1), (1, 2), (2, 1)), INT64)
    out = apply_unary(v, UnaryOp("dec", INT64, INT64, lambda x: x - 1),
                      drop_zeros_for=0)
    assert vector_entries(out) == ((1, 1),)


def test_apply_unary_matrix_drop_zeros_keeps_orientation():
    m = to_compressed(to_tuples(k3()), COL)
    out = apply_unary(m, UnaryOp("dec", INT64, INT64, lambda x: x - 1),
                      drop_zeros_for=0)
    assert out.orientation == COL
    assert entries_of(out) == ()


def test_apply_unary_domain_mismatch():
    m = k3()
    with pytest.raises(DomainMismatchError):
        apply_unary(m, UnaryOp("neg", FLOAT64, FLOAT64, lambda x: -x))
    with pytest.raises(TypeError, match=r"^apply_unary is not defined for CooMatrix$"):
        apply_unary(to_tuples(m), UnaryOp("neg", INT64, INT64, lambda x: -x))


# ---------------------------------------------------------------------------
# Cross-cutting invariants


def test_kernels_never_store_the_operative_zero():
    rng = random.Random(41)
    for name in ("plus_times/signed-int-64", "min_plus/float-double", "or_and/boolean"):
        s = registry_get(name)
        sample = int_sampler() if s.domain is INT64 else sampler_for(name)
        for _ in range(10):
            a = random_csr(6, 6, 0.3, s.domain, sample, rng)
            b = random_csr(6, 6, 0.3, s.domain, sample, rng)
            v = random_vector(6, 0.5, s.domain, sample, rng)
            for t in entries_of(mxm(a, b, s)):
                assert not t.val == s.zero
            for _i, x in vector_entries(mxv(a, v, s)):
                assert not x == s.zero


def test_kernels_do_not_mutate_inputs():
    rng = random.Random(43)
    s = registry_get("plus_times/float-double")
    a = random_csr(5, 5, 0.4, FLOAT64, sampler_for(s.name), rng)
    b = random_csr(5, 5, 0.4, FLOAT64, sampler_for(s.name), rng)
    v = random_vector(5, 0.6, FLOAT64, sampler_for(s.name), rng)
    before = (snapshot(a), snapshot(b), snapshot(v))
    mxm(a, b, s)
    mxv(a, v, s, transpose_input=True)
    ewise_mult(a, b, s.mul)
    reduce(a, s.add, "cols")
    subref(a, [2, 0], [1, 3])
    subassign(a, [0, 1], [0, 1], subref(b, [0, 1], [0, 1]))
    scale_matrix(a, v, s.mul, "rows")
    scale_vector(v, v, s.mul)
    apply_unary(a, UnaryOp("neg", FLOAT64, FLOAT64, lambda x: -x))
    assert (snapshot(a), snapshot(b), snapshot(v)) == before


def test_mxv_against_dense_oracle_small_sweep():
    rng = random.Random(47)
    for name in ("plus_times/float-double", "min_plus/float-double",
                  "min_max/signed-int-64", "or_and/boolean"):
        s = registry_get(name)
        sample = sampler_for(name)
        for _ in range(15):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            a = random_csr(n, m, 0.35, s.domain, sample, rng)
            v = random_vector(m, 0.5, s.domain, sample, rng)
            got = mxv(a, v, s)
            want = dense_mxv(to_dense(a, s.zero),
                             [dict(vector_entries(v)).get(i, s.zero) for i in range(m)],
                             s)
            assert_vector_equals_dense(got, want, s.zero)


def test_mxm_against_dense_oracle_small_sweep():
    rng = random.Random(53)
    for name in ("plus_times/float-double", "max_plus/float-double",
                  "min_select2nd/signed-int-64"):
        s = registry_get(name)
        sample = sampler_for(name)
        for _ in range(10):
            n, k, m = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
            a = random_csr(n, k, 0.4, s.domain, sample, rng)
            b = random_csr(k, m, 0.4, s.domain, sample, rng)
            got = mxm(a, b, s)
            want = dense_mxm(to_dense(a, s.zero), to_dense(b, s.zero), s)
            assert_matrix_equals_dense(got, want, s.zero)


@given(st.integers(0, 6), st.data())
def test_reduce_rows_matches_python_sum(n, data):
    cells = data.draw(
        st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
                      st.integers(-9, 9)),
            max_size=12,
        )
    ) if n else []
    from sgk.containers import build_from_triples

    m = to_compressed(build_from_triples(n, n, cells, plus_monoid(INT64)))
    got = dict(vector_entries(reduce(m, plus_monoid(INT64), "rows")))
    want = {}
    for t in entries_of(m):
        want[t.row] = want.get(t.row, 0) + t.val
    assert got == want


# ---------------------------------------------------------------------------
# Every slice-reading kernel on both orientations against a dict-of-entries
# evaluation.  The values make float sums depend on fold order, and the
# minus op on operand order, so == checks both.

_VALUES = st.sampled_from([-1.0, 0.1, 0.2, 0.3, 0.7, 1.0, 3.0])
_MINUS = BinaryOp("minus", FLOAT64, lambda x, y: x - y)
_FLOOR = UnaryOp("floor", FLOAT64, FLOAT64, lambda x: float(math.floor(x)))
# Reads the value and both indices, unequally, so a swapped (row, col) shows;
# it gives 0.0 often enough that dropping matters.
_AT = IndexUnaryOp("floor_at", FLOAT64, FLOAT64, lambda x, i, j: float(math.floor(x) + i - 2 * j))


def _cells(nrows, ncols):
    slots = [(r, c) for r in range(nrows) for c in range(ncols)]
    cells = st.lists(st.none() | _VALUES, min_size=len(slots), max_size=len(slots))
    return cells.map(lambda xs: {p: x for p, x in zip(slots, xs) if x is not None})


def _entries(n):
    return st.dictionaries(st.integers(0, n - 1), _VALUES, max_size=n) if n else st.just({})


def _picks(n):
    """Distinct indices below n in any order: a prefix of a permutation."""
    return st.tuples(st.permutations(range(n)), st.integers(0, n)).map(lambda t: t[0][:t[1]])


def _matrix(nrows, ncols, cells, orientation):
    triples = tuple(Triple(r, c, x) for (r, c), x in sorted(cells.items()))
    return to_compressed(CooMatrix(nrows, ncols, triples, FLOAT64), orientation)


def _vector(length, entries):
    return SparseVector(length, tuple(sorted(entries.items())), FLOAT64)


def _stored(m):
    """{(row, col): value}, read straight from m's arrays."""
    cells = {}
    for i in range(len(m.offsets) - 1):
        for p in range(m.offsets[i], m.offsets[i + 1]):
            j = m.minor_indices[p]
            cells[(i, j) if m.orientation == ROW else (j, i)] = m.values[p]
    return cells


# At the suite profile's 25 examples, reversing mxm's fold order went unnoticed.
@settings(max_examples=150)
@given(st.data())
def test_slice_kernels_match_dict_evaluation_in_both_orientations(data):
    n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))
    ca, cb, cc = data.draw(_cells(n, k)), data.draw(_cells(n, k)), data.draw(_cells(k, m))
    oa, ob, oc = (data.draw(st.sampled_from([ROW, COL])) for _ in range(3))
    a, b, c = _matrix(n, k, ca, oa), _matrix(n, k, cb, ob), _matrix(k, m, cc, oc)
    dv, dw, drows = data.draw(_entries(k)), data.draw(_entries(k)), data.draw(_entries(n))
    rows, cols = data.draw(_picks(n)), data.draw(_picks(k))
    v, w = _vector(k, dv), _vector(k, dw)
    s = registry_get("plus_times/float-double")

    def check(got, want, orientation=oa):
        assert got.orientation == orientation
        assert check_invariants(got)
        assert _stored(got) == want

    check(ewise_mult(a, b, _MINUS), {p: x - cb[p] for p, x in ca.items() if p in cb})
    check(scale_matrix(a, _vector(n, drows), _MINUS, "rows"),
          {(r, c): x - drows[r] for (r, c), x in ca.items() if r in drows})
    check(scale_matrix(a, v, _MINUS, "cols"),
          {(r, c): x - dv[c] for (r, c), x in ca.items() if c in dv})
    check(apply_unary(a, _FLOOR), {p: math.floor(x) for p, x in ca.items()})
    check(apply_unary(a, _FLOOR, drop_zeros_for=0.0),
          {p: math.floor(x) for p, x in ca.items() if math.floor(x) != 0})
    at = {(r, c): math.floor(x) + r - 2 * c for (r, c), x in ca.items()}
    for orientation in (ROW, COL):
        oriented = reorient(a, orientation)
        check(apply_unary(oriented, _AT), at, orientation)
        check(apply_unary(oriented, _AT, drop_zeros_for=0.0),
              {p: y for p, y in at.items() if y != 0}, orientation)
    check(subref(a, rows, cols),
          {(p, q): ca[(r, c)] for p, r in enumerate(rows) for q, c in enumerate(cols)
           if (r, c) in ca})
    cblock = data.draw(_cells(len(rows), len(cols)))
    block = _matrix(len(rows), len(cols), cblock, data.draw(st.sampled_from([ROW, COL])))
    assigned = {(r, c): x for (r, c), x in ca.items() if r not in rows or c not in cols}
    assigned.update({(rows[p], cols[q]): x for (p, q), x in cblock.items()})
    check(subassign(a, rows, cols, block), assigned)
    product = {}
    for (i, j), x in sorted(ca.items()):
        for (j2, col), y in sorted(cc.items()):
            if j2 == j:
                product[(i, col)] = product.get((i, col), 0.0) + x * y
    check(mxm(a, c, s), {p: x for p, x in product.items() if not x == 0.0})
    # reduce folds each slice from the identity in ascending minor index,
    # add(acc, x): minus shows a swapped operand, the float sums a reversed fold.
    for axis, major in (("rows", 0), ("cols", 1)):
        for monoid in (s.add, Monoid(_MINUS, 0.0)):
            folds = {}
            for p, x in sorted(ca.items(), key=lambda e: (e[0][major], e[0][1 - major])):
                folds[p[major]] = monoid.op.eval(folds.get(p[major], monoid.identity), x)
            assert reduce(a, monoid, axis).entries == tuple(sorted(folds.items()))

    assert scale_vector(v, w, _MINUS).entries == tuple(
        (i, x - dw[i]) for i, x in sorted(dv.items()) if i in dw)
    assert apply_unary(v, _FLOOR).entries == tuple(
        (i, math.floor(x)) for i, x in sorted(dv.items()))
    assert apply_unary(v, _FLOOR, drop_zeros_for=0.0).entries == tuple(
        (i, math.floor(x)) for i, x in sorted(dv.items()) if math.floor(x) != 0)
    assert apply_unary(v, _AT).entries == tuple(
        (i, math.floor(x) + i) for i, x in sorted(dv.items()))
    assert apply_unary(v, _AT, drop_zeros_for=0.0).entries == tuple(
        (i, math.floor(x) + i) for i, x in sorted(dv.items()) if math.floor(x) + i != 0)


# ---------------------------------------------------------------------------
# Wrap once per output: plus_times over a fixed-width integer domain folds
# its raw operators and wraps each output slot once.  The same kernels with
# the raw operators hidden fold per step; the two must agree entry for entry.

_INTEGERS = (INT8, INT16, INT32, INT64, UINT8, UINT16, UINT32, UINT64)


def _per_step(s):
    """`s` with its ops' raw operators hidden, so every kernel wraps per step."""
    add, mul = s.add.op, s.mul
    return Semiring(s.name, Monoid(BinaryOp(add.name, add.domain, add.eval), s.zero),
                    BinaryOp(mul.name, mul.domain, mul.eval))


def _near_bounds(d):
    """Values whose sums and products overflow `d`, and small ones."""
    modulus = d.max_value - d.min_value + 1
    small = {0, 1, 2, 3} | ({-1, -2, -(modulus // 4)} if d.is_signed else set())
    return st.sampled_from(sorted(small | {d.min_value, d.min_value + 1, d.max_value,
                                           d.max_value - 1, modulus // 4, modulus // 3}))


def _int_matrix(d, nrows, ncols, data):
    cells = data.draw(st.dictionaries(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)), _near_bounds(d),
        max_size=nrows * ncols))
    triples = tuple(Triple(r, c, x) for (r, c), x in sorted(cells.items()))
    return to_compressed(CooMatrix(nrows, ncols, triples, d), data.draw(st.sampled_from([ROW, COL])))


def _int_vector(d, length, data):
    entries = data.draw(st.dictionaries(st.integers(0, length - 1), _near_bounds(d),
                                        max_size=length))
    return SparseVector(length, tuple(sorted(entries.items())), d)


@settings(max_examples=150)
@given(st.sampled_from(_INTEGERS), st.data())
def test_integer_folds_wrap_once_like_per_step(d, data):
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = _int_matrix(d, n, k, data), _int_matrix(d, k, m, data)
    v, w = _int_vector(d, k, data), _int_vector(d, n, data)
    s = registry_get(f"plus_times/{d.kind}")
    step = _per_step(s)
    assert kernels._fold_ops(s.add.op, s.mul)[2] and kernels._fold_ops(s.add.op)[2]
    assert kernels._fold_ops(step.add.op, step.mul)[2] is None

    got, want = mxm(a, b, s), mxm(a, b, step)
    assert check_invariants(got)
    assert got.orientation == want.orientation and entries_of(got) == entries_of(want)
    assert mxv(a, v, s) == mxv(a, v, step)
    assert mxv(a, w, s, transpose_input=True) == mxv(a, w, step, transpose_input=True)
    for axis in ("rows", "cols"):
        assert reduce(a, s.add, axis) == reduce(a, step.add, axis)


@pytest.mark.parametrize("d", _INTEGERS, ids=lambda d: d.kind)
def test_integer_outputs_that_wrap_to_zero(d):
    s = registry_get(f"plus_times/{d.kind}")
    q = (d.max_value - d.min_value + 1) // 4
    # Each product 2q is half the modulus (a signed overflow), their sum 4q
    # the modulus: the output wraps to 0, which mxm and mxv drop.
    a = to_compressed(CooMatrix(1, 2, (Triple(0, 0, q), Triple(0, 1, q)), d))
    b = to_compressed(CooMatrix(2, 1, (Triple(0, 0, 2), Triple(1, 0, 2)), d))
    v = SparseVector(2, ((0, 2), (1, 2)), d)
    # A row summing to the modulus wraps to 0, which reduce keeps.
    low = (d.min_value, d.min_value) if d.is_signed else (d.max_value, 1)
    row = to_compressed(CooMatrix(1, 2, (Triple(0, 0, low[0]), Triple(0, 1, low[1])), d))
    for sr in (s, _per_step(s)):
        assert nvals(mxm(a, b, sr)) == 0
        assert mxv(a, v, sr).entries == ()
        assert reduce(row, sr.add, "rows").entries == ((0, 0),)


@pytest.mark.parametrize("plain", ["add", "mul"])
def test_a_user_op_without_a_raw_operator_folds_per_step(plain):
    d = INT8
    builtin = registry_get("plus_times/signed-int-8")
    calls = []

    def counted(op):
        def fn(x, y):
            calls.append((x, y))
            return op(x, y)
        return BinaryOp(f"counted_{op.name}", d, fn)

    add = Monoid(counted(builtin.add.op), 0) if plain == "add" else builtin.add
    user = Semiring("counted_plus_times/signed-int-8", add,
                    counted(builtin.mul) if plain == "mul" else builtin.mul)
    assert kernels._fold_ops(user.add.op, user.mul)[2] is None
    a = to_compressed(CooMatrix(2, 2, (Triple(0, 0, 100), Triple(0, 1, 100),
                                       Triple(1, 0, -100), Triple(1, 1, 1)), d))
    v = SparseVector(2, ((0, 100), (1, 100)), d)
    assert entries_of(mxm(a, a, user)) == entries_of(mxm(a, a, builtin))
    assert mxv(a, v, user) == mxv(a, v, builtin)
    # Every step was taken by the user op, on values inside the domain.
    assert calls and all(d.contains(x) and d.contains(y) for x, y in calls)
    calls.clear()
    assert reduce(a, user.add, "rows").entries == ((0, -56), (1, -99))
    assert len(calls) == (4 if plain == "add" else 0)


# ---------------------------------------------------------------------------
# Reference: the per-slice (minor, value) pair lists every matrix-returning
# kernel used to build, assembled by _from_slices.


def _from_slices(nrows: int, ncols: int,
                 slices: Iterable[Iterable[tuple[int, Any]]],
                 domain, built: str, wanted: str) -> CompressedMatrix:
    """Assemble a matrix from per-slice (minor, val) lists.

    `built` names the orientation the slices are in (ROW: slices are rows,
    minor indices are columns; COL: the reverse); the result is reoriented
    to `wanted`.
    """
    offsets = [0]
    minors: list[int] = []
    values: list[Any] = []
    for sl in slices:
        for j, v in sl:
            minors.append(j)
            values.append(v)
        offsets.append(len(minors))
    out = CompressedMatrix(
        nrows=nrows,
        ncols=ncols,
        orientation=built,
        offsets=tuple(offsets),
        minor_indices=tuple(minors),
        values=tuple(values),
        domain=domain,
    )
    return reorient(out, wanted)


def _mxm_by_slice_pairs(a, b, s):
    """mxm as it was before it wrote its product straight into CSR arrays:
    one sorted (k, v) pair list per output row, assembled by _from_slices."""
    if a.ncols != b.nrows:
        raise DimensionMismatchError(
            f"mxm: inner dimensions differ ({a.nrows}x{a.ncols} times {b.nrows}x{b.ncols})"
        )
    kernels._require_domain(s.domain, a, b)
    ar = reorient(a, ROW)
    br = reorient(b, ROW)
    add, mul, fit = kernels._fold_ops(s.add.op, s.mul)
    zero = s.add.identity
    out_rows = []
    for i in range(ar.nrows):
        acc = {}
        for j, x in _slice(ar, i):
            for k, y in _slice(br, j):
                acc[k] = add(acc.get(k, zero), mul(x, y))
        folded = acc.items() if fit is None else [(k, fit(v)) for k, v in acc.items()]
        out_rows.append(sorted((k, v) for k, v in folded if not v == zero))
    return _from_slices(a.nrows, b.ncols, out_rows, s.domain, ROW, a.orientation)


def _assert_same_matrix(got, want):
    assert (got.nrows, got.ncols, got.orientation, got.domain) == \
        (want.nrows, want.ncols, want.orientation, want.domain)
    assert got.offsets == want.offsets
    assert got.minor_indices == want.minor_indices
    assert repr(got.values) == repr(want.values)


def _assert_same_product(a, b, s):
    got = mxm(a, b, s)
    _assert_same_matrix(got, _mxm_by_slice_pairs(a, b, s))
    return got


def test_mxm_work_follows_the_stored_rows_not_the_declared_ones():
    s = registry_get("plus_times/signed-int-64")
    lines = []
    for n in (2**10, 2**16):
        a = to_compressed(CooMatrix(n, n, (Triple(0, n - 1, 2), Triple(n - 1, 0, 3)), INT64))
        c = mxm(a, a, s)
        assert entries_of(c) == (Triple(0, 0, 6), Triple(n - 1, n - 1, 6))
        lines.append(traced_lines(lambda: mxm(a, a, s)))
    assert lines[0] == lines[1]


# Values that make folds wrap (to 0 too), overflow to the min_plus identity,
# or stay false, so the new path's zero drop is exercised on every semiring.
_PRODUCT_VALUES = {
    "plus_times/signed-int-8": _near_bounds(INT8),
    "min_plus/float-double": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                       st.sampled_from([math.inf, -0.0, 0.5])),
    "or_and": st.booleans(),
}


def _operand(data, nrows, ncols, domain, values, max_size=12):
    cells = data.draw(st.dictionaries(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)), values,
        max_size=max_size)) if nrows and ncols else {}
    triples = tuple(Triple(r, c, x) for (r, c), x in sorted(cells.items()))
    return to_compressed(CooMatrix(nrows, ncols, triples, domain),
                         data.draw(st.sampled_from([ROW, COL])))


@pytest.mark.parametrize("name", sorted(_PRODUCT_VALUES))
@settings(max_examples=150)
@given(data=st.data())
def test_mxm_matches_the_slice_pairs_body_it_replaced(name, data):
    s = registry_get(name)
    n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = _operand(data, n, k, s.domain, _PRODUCT_VALUES[name])
    b = _operand(data, k, m, s.domain, _PRODUCT_VALUES[name])
    assert check_invariants(_assert_same_product(a, b, s))


@pytest.mark.parametrize("name, a_vals, b_vals, kept", [
    # 64 * 2 + 64 * 2 = 256 wraps to 0 in signed-int-8; 64 * 5 = 320 wraps to 64.
    ("plus_times/signed-int-8", (64, 64, 3), (2, 2, 5), [(0, 1), (1, 0), (1, 1)]),
    # inf plus anything finite is the min identity inf.
    ("min_plus/float-double", (math.inf, math.inf, 1.0), (1.5, 1.5, 2.0), [(1, 0), (1, 1)]),
    ("or_and", (True, True, False), (False, False, True), [(0, 1)]),
])
@pytest.mark.parametrize("orients", [(ROW, ROW), (ROW, COL), (COL, ROW), (COL, COL)])
def test_mxm_matches_the_slice_pairs_body_where_outputs_fold_to_zero(name, a_vals, b_vals,
                                                                     kept, orients):
    """A = [[a0, a1], [., a2]] and B = [[b0, .], [b1, b2]]: C(0, 0) folds to
    the zero and is dropped, as is every other product equal to it."""
    s = registry_get(name)
    a = to_compressed(CooMatrix(2, 2, (Triple(0, 0, a_vals[0]), Triple(0, 1, a_vals[1]),
                                       Triple(1, 1, a_vals[2])), s.domain), orients[0])
    b = to_compressed(CooMatrix(2, 2, (Triple(0, 0, b_vals[0]), Triple(1, 0, b_vals[1]),
                                       Triple(1, 1, b_vals[2])), s.domain), orients[1])
    got = _assert_same_product(a, b, s)
    assert [(t.row, t.col) for t in entries_of(got)] == kept


# ---------------------------------------------------------------------------
# mxv pushes where A's slices are indexed like v and pulls otherwise

# select2nd's mul is not commutative, float sums depend on their order, and
# the signed-int-8 products wrap, so each output must fit once.
_PUSH_PULL_VALUES = {
    **_PRODUCT_VALUES,
    "min_select2nd/signed-int-64": st.integers(-1000, 1000),
    "plus_times/float-double": st.one_of(st.sampled_from([1e16, -1e16, 1.0, 0.1, -3.0]),
                                         st.floats(-1e6, 1e6)),
}


@pytest.mark.parametrize("name", sorted(_PUSH_PULL_VALUES))
@pytest.mark.parametrize("transpose_input", [False, True])
@settings(max_examples=100)
@given(data=st.data())
def test_mxv_pushes_and_pulls_to_the_same_entries(name, transpose_input, data):
    """One of the two orientations of A pushes and the other pulls."""
    s = registry_get(name)
    nrows, ncols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    a = _operand(data, nrows, ncols, s.domain, _PUSH_PULL_VALUES[name], nrows * ncols)
    length = nrows if transpose_input else ncols
    picked = data.draw(st.dictionaries(st.integers(0, max(length - 1, 0)),
                                       _PUSH_PULL_VALUES[name], max_size=length))
    for v in (SparseVector(length, tuple(sorted(picked.items())), s.domain),
              SparseVector(length, (), s.domain)):
        row, col = (mxv(reorient(a, o), v, s, transpose_input) for o in (ROW, COL))
        assert check_invariants(row) and check_invariants(col)
        assert repr(vector_entries(row)) == repr(vector_entries(col))


_FULL_PULL_VALUES = {
    "plus_times/signed-int-64": _near_bounds(INT64),
    "plus_times/float-double": _PUSH_PULL_VALUES["plus_times/float-double"],
    "min_plus/float-double": _PRODUCT_VALUES["min_plus/float-double"],
    "max_plus/float-double": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                       st.sampled_from([-math.inf, -0.0, 0.5])),
    "min_max/signed-int-64": _near_bounds(INT64),
    # select2nd's mul is not commutative, which pins the operand order.
    "min_select2nd/signed-int-64": _near_bounds(INT64),
}


def _dict_pull(a, v, s, transpose_input):
    """w(i) = add-fold from the zero over ascending j of mul(A'(i, j), v(j)),
    over the j where both are stored, with zeros dropped."""
    have = dict(vector_entries(v))
    rows: dict[int, dict[int, Any]] = {}
    for r, c, x in entries_of(a):
        i, j = (c, r) if transpose_input else (r, c)
        if j in have:
            rows.setdefault(i, {})[j] = x
    out = []
    for i in sorted(rows):
        acc = s.add.identity
        for j in sorted(rows[i]):
            acc = s.add.op.eval(acc, s.mul.eval(rows[i][j], have[j]))
        if not acc == s.add.identity:
            out.append((i, acc))
    return tuple(out)


@pytest.mark.parametrize("name", sorted(_FULL_PULL_VALUES))
@pytest.mark.parametrize("transpose_input", [False, True])
@settings(max_examples=100)
@given(data=st.data())
def test_mxv_reads_a_full_vector_by_position_like_the_sparse_pull(name, transpose_input,
                                                                  data):
    """A v storing every index takes the positional pull (or push, in the
    other orientation); the same v less one entry takes the sparse one."""
    s = registry_get(name)
    nrows, ncols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    a = _operand(data, nrows, ncols, s.domain, _FULL_PULL_VALUES[name], nrows * ncols)
    length = nrows if transpose_input else ncols
    full = data.draw(st.lists(_FULL_PULL_VALUES[name], min_size=length, max_size=length))
    vs = [SparseVector(length, tuple(enumerate(full)), s.domain)]
    if length:
        gone = data.draw(st.integers(0, length - 1))
        vs.append(SparseVector(length, tuple((j, x) for j, x in enumerate(full) if j != gone),
                               s.domain))
    for v in vs:
        got = mxv(a, v, s, transpose_input)
        assert check_invariants(got)
        assert repr(vector_entries(got)) == repr(_dict_pull(a, v, s, transpose_input))


@pytest.mark.parametrize("orientation", [ROW, COL])
@pytest.mark.parametrize("transpose_input", [False, True])
def test_mxv_folds_each_output_in_ascending_j(orientation, transpose_input):
    """1e16 - 1e16 + 0.1 is 0.1 folded in ascending j, and 0.0 descending."""
    s = registry_get("plus_times/float-double")
    cells = ((0, 1e16), (1, -1e16), (2, 0.1))
    triples = tuple(Triple(j, 0, x) if transpose_input else Triple(0, j, x) for j, x in cells)
    shape = (3, 1) if transpose_input else (1, 3)
    a = to_compressed(CooMatrix(*shape, triples, FLOAT64), orientation)
    v = SparseVector(3, ((0, 1.0), (1, 1.0), (2, 1.0)), FLOAT64)
    assert vector_entries(mxv(a, v, s, transpose_input)) == ((0, 0.1),)


def test_pushed_mxv_work_follows_the_vector_not_the_other_rows():
    s = registry_get("plus_times/signed-int-64")
    n = 2001
    v = SparseVector(n, ((0, 2),), INT64)
    lines = []
    for others in (10, 2000):
        triples = (Triple(0, 5, 3),) + tuple(Triple(1 + k, k, 1) for k in range(others))
        a = to_compressed(CooMatrix(n, n, triples, INT64))
        assert vector_entries(mxv(a, v, s, transpose_input=True)) == ((5, 6),)
        lines.append(traced_lines(lambda: mxv(a, v, s, transpose_input=True)))
    assert lines[0] == lines[1]


def test_pushed_mxv_with_a_full_vector_follows_the_stored_rows():
    s = registry_get("plus_times/signed-int-64")
    lines = []
    for n in (2**10, 2**16):
        a = to_compressed(CooMatrix(n, n, (Triple(0, 5, 3), Triple(n - 1, 0, 2)), INT64))
        v = SparseVector(n, tuple((j, j + 1) for j in range(n)), INT64)
        assert vector_entries(mxv(a, v, s, transpose_input=True)) == ((0, 2 * n), (5, 3))
        lines.append(traced_lines(lambda: mxv(a, v, s, transpose_input=True)))
    assert lines[0] == lines[1]


# ---------------------------------------------------------------------------
# The other matrix-returning kernels against their per-slice-pairs bodies


def _intersect(pairs: Iterable[tuple[int, Any]], lookup: dict,
               fn: Callable) -> list[tuple[int, Any]]:
    """(j, fn(x, lookup[j])) for each (j, x) in `pairs` whose index `lookup` holds."""
    return [(j, fn(x, lookup[j])) for j, x in pairs if j in lookup]


def _map(pairs: Iterable[tuple[int, Any]], fn: Callable,
         drop=None) -> list[tuple[int, Any]]:
    """(j, fn(x)) for each (j, x) in `pairs`, leaving out results equal to
    `drop` when it is given."""
    return [(j, y) for j, x in pairs for y in (fn(x),) if drop is None or not y == drop]


def _map_at(pairs: Iterable[tuple[int, Any]], fn: Callable, i: int, row_major: bool,
            drop=None) -> list[tuple[int, Any]]:
    """_map for fn(x, row, col) over major slot i, where (row, col) is (i, j)
    when `row_major` and (j, i) otherwise."""
    got = [(j, fn(x, i, j) if row_major else fn(x, j, i)) for j, x in pairs]
    return got if drop is None else [(j, y) for j, y in got if not y == drop]


def _ewise_mult_by_slice_pairs(a, b, op):
    ar = reorient(a, ROW)
    br = reorient(b, ROW)
    out_rows = [_intersect(_slice(ar, i), dict(_slice(br, i)), op.eval)
                for i in range(ar.nrows)]
    return _from_slices(a.nrows, a.ncols, out_rows, op.domain, ROW, a.orientation)


def _subref_by_slice_pairs(a, rows, cols):
    ar = reorient(a, ROW)
    colpos = {c: q for q, c in enumerate(cols)}
    out_rows = [sorted((colpos[j], x) for j, x in _slice(ar, r) if j in colpos)
                for r in rows]
    return _from_slices(len(rows), len(cols), out_rows, a.domain, ROW, a.orientation)


def _subassign_by_slice_pairs(c, rows, cols, b):
    cr, br = reorient(c, ROW), reorient(b, ROW)
    rowpos = {r: p for p, r in enumerate(rows)}
    cset = set(cols)
    out_rows = [sorted([(j, x) for j, x in _slice(cr, i) if j not in cset]
                       + [(cols[q], x) for q, x in _slice(br, rowpos[i])])
                if i in rowpos else _slice(cr, i)
                for i in range(c.nrows)]
    return _from_slices(c.nrows, c.ncols, out_rows, c.domain, ROW, c.orientation)


def _scale_matrix_by_slice_pairs(a, d, op, axis):
    ar = reorient(a, ROW)
    fn = op.eval
    dmap = dict(d.entries)
    out_rows = []
    for i in range(ar.nrows):
        if axis == "cols":
            out_rows.append(_intersect(_slice(ar, i), dmap, fn))
        elif i in dmap:
            f = dmap[i]
            out_rows.append(_map(_slice(ar, i), lambda x: fn(x, f)))
        else:
            out_rows.append([])
    return _from_slices(a.nrows, a.ncols, out_rows, op.domain, ROW, a.orientation)


def _apply_unary_by_slice_pairs(a, f, drop_zeros_for=None):
    indexed = isinstance(f, IndexUnaryOp)
    if isinstance(a, SparseVector):
        ents = (_map_at(a.entries, f.eval, 0, False, drop_zeros_for) if indexed
                else _map(a.entries, f.eval, drop_zeros_for))
        return SparseVector(a.length, tuple(ents), f.output_domain)
    if drop_zeros_for is None and not indexed:
        return replace(a, values=tuple(f.eval(v) for v in a.values), domain=f.output_domain)
    out = [_map_at(_slice(a, i), f.eval, i, a.orientation == ROW, drop_zeros_for) if indexed
           else _map(_slice(a, i), f.eval, drop_zeros_for)
           for i in range(a.nrows if a.orientation == ROW else a.ncols)]
    return _from_slices(a.nrows, a.ncols, out, f.output_domain, a.orientation, a.orientation)


# Signed zeros (which equal the drop value 0.0 either way), NaN (which equals
# nothing, so it is kept) and infinities.
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf, -math.inf])
_NEGATE = UnaryOp("negate", FLOAT64, FLOAT64, lambda x: -x)
# 0 * x is a signed zero or NaN; i - 2j reads both indices unequally.
_SCALED_AT = IndexUnaryOp("scaled_at", FLOAT64, FLOAT64, lambda x, i, j: x * (i - 2 * j))


@settings(max_examples=200)
@given(st.data())
def test_rewritten_kernels_match_their_slice_pairs_bodies(data):
    n, k = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))

    def factors(length):
        entries = data.draw(st.dictionaries(st.integers(0, length - 1), _EDGE_FLOATS,
                                            max_size=length)) if length else {}
        return SparseVector(length, tuple(sorted(entries.items())), FLOAT64)

    a, b = (_operand(data, n, k, FLOAT64, _EDGE_FLOATS) for _ in range(2))
    rows, cols = data.draw(_picks(n)), data.draw(_picks(k))
    _assert_same_matrix(ewise_mult(a, b, _MINUS), _ewise_mult_by_slice_pairs(a, b, _MINUS))
    _assert_same_matrix(subref(a, rows, cols), _subref_by_slice_pairs(a, rows, cols))
    block = _operand(data, len(rows), len(cols), FLOAT64, _EDGE_FLOATS)
    _assert_same_matrix(subassign(a, rows, cols, block),
                        _subassign_by_slice_pairs(a, rows, cols, block))
    for axis, length in (("rows", n), ("cols", k)):
        d = factors(length)
        _assert_same_matrix(scale_matrix(a, d, _MINUS, axis),
                            _scale_matrix_by_slice_pairs(a, d, _MINUS, axis))
    v = factors(n)
    for f in (_NEGATE, _SCALED_AT):
        for drop in (None, 0.0, -0.0, math.nan):
            _assert_same_matrix(apply_unary(a, f, drop), _apply_unary_by_slice_pairs(a, f, drop))
            got, want = apply_unary(v, f, drop), _apply_unary_by_slice_pairs(v, f, drop)
            assert (got.length, got.domain) == (want.length, want.domain)
            assert repr(got.entries) == repr(want.entries)
