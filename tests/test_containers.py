import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import coo_matrices, int_sampler, random_csr, traced_lines
from sgk.containers import (
    COL,
    ROW,
    CompressedMatrix,
    CooMatrix,
    SparseVector,
    Triple,
    _check_values,
    build_from_triples,
    check_invariants,
    densify_vector,
    dims,
    entries_of,
    is_symmetric,
    nvals,
    reorient,
    to_compressed,
    to_tuples,
    transpose,
    values_of,
    vector_as_column,
    vector_entries,
    vector_from_entries,
)
from sgk.domains import ALL_DOMAINS, FLOAT64, INT64
from sgk.errors import (
    DimensionMismatchError,
    DomainMismatchError,
    DuplicateIndexError,
    IndexRangeError,
    SgkError,
)
from sgk.semirings import min_monoid, or_monoid, plus_monoid


def k3_pattern() -> CompressedMatrix:
    triples = [Triple(u, v, 1) for u in range(3) for v in range(3) if u != v]
    return to_compressed(CooMatrix(3, 3, tuple(triples), INT64))


# ---------------------------------------------------------------------------
# build_from_triples


def test_duplicates_collapse_with_plus():
    m = build_from_triples(2, 2, [(0, 1, 1), (0, 1, 1)], plus_monoid(INT64))
    assert m.triples == (Triple(0, 1, 2),)


def test_duplicates_collapse_in_input_order():
    m = build_from_triples(2, 2, [(0, 1, 5), (0, 1, 3)], min_monoid(INT64))
    assert m.triples == (Triple(0, 1, 3),)


def test_empty_triple_list():
    m = build_from_triples(4, 4, [], plus_monoid(INT64))
    assert m.triples == () and nvals(m) == 0


def test_duplicate_free_input_is_sorted_not_changed():
    m = build_from_triples(2, 2, [(1, 0, 7), (0, 1, 5)], plus_monoid(INT64))
    assert m.triples == (Triple(0, 1, 5), Triple(1, 0, 7))


def test_out_of_range_triple_reports_position():
    with pytest.raises(IndexRangeError, match="triple 1"):
        build_from_triples(2, 2, [(0, 0, 1), (5, 0, 1)], plus_monoid(INT64))
    with pytest.raises(IndexRangeError, match=r"^triple 1: position \(0, True\) out of range"):
        build_from_triples(2, 2, [(0, 0, 1), (0, True, 1)], plus_monoid(INT64))


def test_values_are_domain_checked():
    from sgk.errors import DomainMismatchError

    with pytest.raises(DomainMismatchError):
        build_from_triples(2, 2, [(0, 0, 1.5)], plus_monoid(INT64))


def test_earlier_triple_error_is_reported_first():
    from sgk.errors import DomainMismatchError

    dup = plus_monoid(INT64)
    with pytest.raises(DomainMismatchError, match="value 1.5"):
        build_from_triples(2, 2, [(0, 0, 1.5), (5, 0, 1)], dup)
    with pytest.raises(IndexRangeError, match="triple 0"):
        build_from_triples(2, 2, [(5, 0, 1.5), (0, 0, 1.5)], dup)
    with pytest.raises(IndexRangeError, match="triple 1"):
        build_from_triples(2, 2, [(0, 0, 1), (0, 2, 1.5)], dup)


class _Int(int):
    """An int subclass, which every integer domain holds."""


_INTEGER_DOMAINS = [d for d in ALL_DOMAINS if d.is_integer]


@pytest.mark.parametrize("domain", _INTEGER_DOMAINS, ids=lambda d: d.kind)
@given(data=st.data())
def test_integer_value_check_refuses_what_the_per_value_check_refuses(domain, data):
    """The one-step check of all-int values within bounds accepts exactly
    what `contains` accepts, and a refusal names the first value outside."""
    lo, hi = domain.min_value, domain.max_value
    vals = data.draw(st.lists(st.sampled_from(
        [lo, hi, lo - 1, hi + 1, 0, 1, _Int(hi), True, False, 1.0, "1", None]), max_size=6))
    refused = [v for v in vals if not domain.contains(v)]
    if not refused:
        _check_values(vals, domain)
        return
    with pytest.raises(DomainMismatchError) as e:
        _check_values(vals, domain)
    assert str(e.value) == f"value {refused[0]!r} is not in domain {domain.kind}"


def reference_build(triples, dup) -> tuple:
    """Reference: the dict-and-sort build that `build_from_triples` replaced.
    Values fold into a (row, col)-keyed dict in input order, then the keys
    are sorted."""
    seen = {}
    for r, c, v in triples:
        seen[(r, c)] = dup.op.eval(seen[(r, c)], v) if (r, c) in seen else v
    return tuple((r, c, seen[(r, c)]) for r, c in sorted(seen))


# Values whose fold depends on its order: float sums that round away the
# small term, int-64 sums that wrap, and booleans.
_FOLD_CASES = {
    "float": (plus_monoid(FLOAT64), st.sampled_from([1e16, 1.0, -1e16, 0.5, -3.0])),
    "int": (plus_monoid(INT64), st.sampled_from([2**63 - 1, 2**62, -2**63, 1, -1])),
    "bool": (or_monoid(), st.booleans()),
}


@pytest.mark.parametrize("case", list(_FOLD_CASES))
@given(data=st.data())
def test_build_matches_the_dict_and_sort_reference(case, data):
    dup, values = _FOLD_CASES[case]
    nrows = data.draw(st.integers(1, 4))
    ncols = data.draw(st.integers(1, 4))
    triples = data.draw(st.lists(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), values), max_size=30))
    ordered = sorted(triples, key=lambda t: t[:2])
    order = data.draw(st.sampled_from(["sorted", "reversed", "shuffled"]))
    if order == "sorted":
        triples = ordered
    elif order == "reversed":
        triples = ordered[::-1]
    else:
        triples = data.draw(st.permutations(triples))
    m = build_from_triples(nrows, ncols, triples, dup)
    typed = [(r, c, type(v), v) for r, c, v in m.triples]
    assert typed == [(r, c, type(v), v) for r, c, v in reference_build(triples, dup)]
    assert all(type(t) is Triple for t in m.triples)
    assert check_invariants(m)


# ---------------------------------------------------------------------------
# Conversions


def test_csr_layout_of_antidiagonal():
    coo = CooMatrix(2, 2, (Triple(0, 1, 5), Triple(1, 0, 7)), INT64)
    csr = to_compressed(coo, ROW)
    assert csr.offsets == (0, 1, 2)
    assert csr.minor_indices == (1, 0)
    assert csr.values == (5, 7)


def test_csc_layout_of_antidiagonal():
    coo = CooMatrix(2, 2, (Triple(0, 1, 5), Triple(1, 0, 7)), INT64)
    csc = to_compressed(coo, COL)
    assert csc.offsets == (0, 1, 2)
    assert csc.minor_indices == (1, 0)
    assert csc.values == (7, 5)


def test_empty_matrix_offsets():
    m = to_compressed(CooMatrix(3, 3, (), INT64))
    assert m.offsets == (0, 0, 0, 0)
    assert nvals(m) == 0


def test_round_trip_coo_csr_csc_coo():
    rng = random.Random(11)
    m = random_csr(8, 6, 0.3, INT64, int_sampler(), rng)
    coo = to_tuples(m)
    again = to_tuples(reorient(to_compressed(coo, COL), ROW))
    assert again.triples == coo.triples


def test_reorient_is_involutive_and_lazy():
    m = k3_pattern()
    assert reorient(m, ROW) is m
    flipped = reorient(m, COL)
    assert flipped.orientation == COL
    back = reorient(flipped, ROW)
    assert to_tuples(back).triples == to_tuples(m).triples
    with pytest.raises(ValueError, match=r"^orientation must be one of \('row', 'col'\)$"):
        reorient(m, "diag")


def test_to_tuples_of_to_compressed_is_identity():
    coo = build_from_triples(3, 4, [(0, 3, 2), (2, 0, 1)], plus_monoid(INT64))
    assert to_tuples(to_compressed(coo, ROW)) == coo
    assert to_tuples(to_compressed(coo, COL)) == coo


# ---------------------------------------------------------------------------
# Transpose and symmetry


def test_transpose_single_edge():
    m = to_compressed(CooMatrix(2, 2, (Triple(0, 1, 9),), INT64))
    t = transpose(m)
    assert to_tuples(t).triples == (Triple(1, 0, 9),)
    assert t.orientation == m.orientation


def test_transpose_of_symmetric_k3_equals_input():
    m = k3_pattern()
    assert to_tuples(transpose(m)).triples == to_tuples(m).triples


def test_transpose_swaps_dims():
    m = to_compressed(CooMatrix(2, 5, (Triple(1, 4, 3),), INT64))
    t = transpose(m)
    assert dims(t) == (5, 2)


def test_is_symmetric_examples():
    assert is_symmetric(k3_pattern())
    edge = to_compressed(CooMatrix(2, 2, (Triple(0, 1, 1),), INT64))
    assert not is_symmetric(edge)
    empty = to_compressed(CooMatrix(3, 3, (), INT64))
    assert is_symmetric(empty)


def test_is_symmetric_compares_values_not_just_pattern():
    m = to_compressed(
        CooMatrix(2, 2, (Triple(0, 1, 1), Triple(1, 0, 2)), INT64)
    )
    assert not is_symmetric(m)


def test_is_symmetric_rejects_non_square():
    m = to_compressed(CooMatrix(2, 3, (), INT64))
    with pytest.raises(DimensionMismatchError):
        is_symmetric(m)


def test_nvals_and_dims():
    m = k3_pattern()
    assert nvals(m) == 6
    assert dims(m) == (3, 3)
    assert nvals(SparseVector(4, ((1, 5),), INT64)) == 1
    for f, arg in ((nvals, [m]), (dims, SparseVector(4, (), INT64)), (entries_of, [])):
        with pytest.raises(TypeError, match=rf"^{f.__name__} is not defined for {type(arg).__name__}$"):
            f(arg)


# ---------------------------------------------------------------------------
# Structural invariants


def test_coo_rejects_unsorted_or_duplicate_triples():
    with pytest.raises(SgkError):
        CooMatrix(2, 2, (Triple(1, 0, 1), Triple(0, 1, 1)), INT64)
    with pytest.raises(SgkError):
        CooMatrix(2, 2, (Triple(0, 1, 1), Triple(0, 1, 2)), INT64)


def test_coo_rejects_out_of_range():
    with pytest.raises(IndexRangeError):
        CooMatrix(2, 2, (Triple(0, 5, 1),), INT64)
    for nrows in (2.5, True):
        with pytest.raises(DimensionMismatchError, match=r"^matrix dimensions must be ints$"):
            CooMatrix(nrows, 3, (), INT64)
    for shape in ((-1, 2), (2, -1)):
        with pytest.raises(DimensionMismatchError, match=r"^matrix dimensions must be non-negative$"):
            CooMatrix(*shape, (), INT64)


_SPAN = "offsets must span [0, nnz] with one slot per major slice"
_DECREASING = "offsets must be non-decreasing"
_UNSORTED = "minor indices must be strictly increasing per slice"


@pytest.mark.parametrize("args, error, text", [
    ((2, 2, "diag", (0, 0, 0), (), ()), ValueError, "orientation must be one of ('row', 'col')"),
    ((-1, 2, ROW, (0,), (), ()), DimensionMismatchError, "matrix dimensions must be non-negative"),
    ((1, 2, ROW, (0, 1), (0,), (1, 2)), SgkError,
     "minor_indices and values must have equal length"),
    ((2, 2, ROW, (0, 1), (0,), (1,)), SgkError, _SPAN),
    ((2, 2, ROW, (0, 2, 1), (0, 1), (1, 1)), SgkError, _SPAN),
    ((2, 2, ROW, (1, 1, 1), (0,), (1,)), SgkError, _SPAN),
    ((3, 2, ROW, (0, 2, 1, 2), (0, 1), (1, 1)), SgkError, _DECREASING),
    # An offset past nnz: the slice it opens is cut short, the next one decreases.
    ((2, 2, ROW, (0, 5, 2), (0, 1), (1, 1)), SgkError, _DECREASING),
    ((1, 3, ROW, (0, 2), (2, 0), (1, 1)), SgkError, _UNSORTED),
    ((1, 3, ROW, (0, 2), (1, 1), (1, 1)), SgkError, _UNSORTED),
    ((1, 3, ROW, (0, 1), (3,), (1,)), IndexRangeError, "minor index 3 out of range"),
    # The range check runs before the order check, so a negative index is named as out of range.
    ((1, 3, ROW, (0, 1), (-1,), (1,)), IndexRangeError, "minor index -1 out of range"),
    # CSC minor indices are rows, so they are bounded by nrows.
    ((2, 3, COL, (0, 0, 0, 1), (2,), (1,)), IndexRangeError, "minor index 2 out of range"),
    # Checks run slice by slice, entry by entry: the earlier fault is named.
    ((2, 3, ROW, (0, 2, 3), (0, 7, 1), (1, 1, 1)), IndexRangeError,
     "minor index 7 out of range"),
    ((2, 3, ROW, (0, 2, 3), (1, 0, 7), (1, 1, 1)), SgkError, _UNSORTED),
    # Dimensions, offsets and minor indices are ints, and no bool counts as one.
    ((True, True, ROW, (0, 0), (), ()), DimensionMismatchError, "matrix dimensions must be ints"),
    ((2, 2, ROW, (0, 1.0, 1), (0,), (1,)), SgkError, "offsets must be ints"),
    ((1, 3, ROW, (0, 1), (1.0,), (1,)), SgkError, "minor indices must be ints"),
    ((1, 3, ROW, (0, 2), (0, True), (1, 1)), SgkError, "minor indices must be ints"),
    ((1, 3, ROW, (0, 1), ("1",), (1,)), SgkError, "minor indices must be ints"),
])
def test_compressed_refusals_name_the_fault(args, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        CompressedMatrix(*args, INT64)


@pytest.mark.parametrize("row, col", [(True, 1), (0, 1.0), (0.0, 1), ("0", 1)])
def test_coo_refuses_a_non_int_row_or_column(row, col):
    with pytest.raises(SgkError, match=r"^triple rows and columns must be ints$"):
        CooMatrix(2, 2, (Triple(0, 0, 5), Triple(row, col, 5)), INT64)


@pytest.mark.parametrize("index", [1.0, False, "1", None])
def test_vector_refuses_a_non_int_index(index):
    with pytest.raises(SgkError, match=r"^vector indices must be ints$"):
        SparseVector(3, ((0, 1), (index, 1)), INT64)


def test_a_forged_offset_past_nnz_is_refused_by_check_invariants():
    m = CompressedMatrix(2, 2, ROW, (0, 1, 2), (0, 1), (1, 1), INT64)
    object.__setattr__(m, "offsets", (0, 5, 2))
    with pytest.raises(SgkError, match=f"^{_DECREASING}$"):
        check_invariants(m)


def test_validation_work_follows_the_stored_entries_not_the_declared_size():
    """The public constructor and check_invariants run the same library lines
    for two entries declared in 2^10 x 2^10 and in 2^16 x 2^16."""
    lines = []
    for n in (2**10, 2**10, 2**16):  # the first build warms up
        offsets = (0, *[1] * (n - 1), 2)

        def build():
            check_invariants(CompressedMatrix(n, n, ROW, offsets, (n - 1, 0), (2, 3), INT64))

        lines.append(traced_lines(build))
    assert lines[1] == lines[2]


def test_vector_requires_increasing_indices_and_range():
    with pytest.raises(SgkError):
        SparseVector(3, ((1, 5), (0, 2)), INT64)
    with pytest.raises(IndexRangeError):
        SparseVector(3, ((7, 5),), INT64)
    with pytest.raises(IndexRangeError, match=r"^index -1 out of range for length 3$"):
        SparseVector(3, ((-1, 5),), INT64)
    for length in (2.5, True):
        with pytest.raises(DimensionMismatchError, match=r"^vector length must be an int$"):
            SparseVector(length, (), INT64)
    with pytest.raises(DimensionMismatchError, match=r"^vector length must be non-negative$"):
        SparseVector(-1, (), INT64)


def test_vector_from_entries_rejects_duplicates():
    with pytest.raises(DuplicateIndexError, match=r"^duplicate vector index 1$"):
        vector_from_entries(4, [(1, 5), (1, 6)], INT64)


@pytest.mark.parametrize("index", [1.0, "1", None, True])
def test_vector_from_entries_rejects_a_non_int_index(index):
    with pytest.raises(IndexRangeError, match=r"^vector index .* out of range \[0, 3\)$"):
        vector_from_entries(3, [(0, 1), (index, 2)], INT64)


@pytest.mark.parametrize("index", [7, 3, -1])
def test_vector_from_entries_rejects_an_out_of_range_index(index):
    with pytest.raises(IndexRangeError) as err:
        vector_from_entries(3, [(index, 5)], INT64)
    assert str(err.value) == f"vector index {index} out of range [0, 3)"


def test_vector_from_entries_checks_indices_before_values():
    with pytest.raises(DomainMismatchError):
        vector_from_entries(3, [(0, 1.5)], INT64)
    # A bad value earlier in the input does not hide a bad index after it.
    with pytest.raises(IndexRangeError, match=r"^vector index 7 "):
        vector_from_entries(3, [(0, 1.5), (7, 5)], INT64)
    with pytest.raises(DuplicateIndexError):
        vector_from_entries(3, [(0, 1.5), (1, 2), (1, 3)], INT64)


def test_vector_from_entries_sorts():
    v = vector_from_entries(4, [(3, 9), (0, 7)], INT64)
    assert vector_entries(v) == ((0, 7), (3, 9))


def test_check_invariants_accepts_valid_and_flags_bad_values():
    from sgk.errors import DomainMismatchError

    m = k3_pattern()
    assert check_invariants(m)
    forged = CompressedMatrix(
        m.nrows, m.ncols, m.orientation, m.offsets, m.minor_indices,
        tuple(0.5 for _ in m.values), m.domain,
    )
    with pytest.raises(DomainMismatchError):
        check_invariants(forged)
    v = SparseVector(3, ((0, 1), (2, 5)), INT64)
    assert check_invariants(v)
    with pytest.raises(DomainMismatchError, match=r"^value 0\.5 is not in domain signed-int-64$"):
        check_invariants(SparseVector(3, ((0, 1), (2, 0.5)), INT64))
    with pytest.raises(TypeError, match=r"^no invariants defined for tuple$"):
        check_invariants(entries_of(m))


# ---------------------------------------------------------------------------
# Vector helpers


def test_densify_vector():
    v = SparseVector(3, ((1, 2.5),), FLOAT64)
    d = densify_vector(v, 0.0)
    assert vector_entries(d) == ((0, 0.0), (1, 2.5), (2, 0.0))


def test_vector_as_column_shape():
    v = SparseVector(3, ((0, 4), (2, 6)), INT64)
    col = vector_as_column(v)
    assert dims(col) == (3, 1)
    assert (col.orientation, col.offsets, col.minor_indices) == (COL, (0, 2), (0, 2))
    assert entries_of(col) == (Triple(0, 0, 4), Triple(2, 0, 6))


def test_entries_of_compressed_sorted_row_major():
    m = reorient(k3_pattern(), COL)
    ents = entries_of(m)
    assert ents == tuple(sorted(ents, key=lambda t: (t.row, t.col)))


def _reference_entries_of(m: CompressedMatrix) -> tuple:
    """Reference: the previous `entries_of`, one Triple per stored entry of
    the row-major form through Triple's own constructor."""
    csr = reorient(m, ROW)
    return tuple(Triple(i, csr.minor_indices[p], csr.values[p])
                 for i in range(csr.nrows) for p in range(csr.offsets[i], csr.offsets[i + 1]))


@given(coo_matrices())
@example(CooMatrix(5, 4, (Triple(1, 0, 8), Triple(1, 3, 7), Triple(4, 2, 9)), INT64))
@example(CooMatrix(3, 0, (), INT64))
@example(CooMatrix(0, 0, (), INT64))
def test_entries_of_matches_the_per_triple_reference(coo):
    for orientation in (ROW, COL):
        m = to_compressed(coo, orientation)
        got = entries_of(m)
        assert type(got) is tuple
        assert all(type(t) is Triple for t in got)
        assert got == _reference_entries_of(m) == coo.triples
        assert to_tuples(m) == coo


@given(coo_matrices())
@example(CooMatrix(5, 4, (Triple(1, 3, 8), Triple(2, 0, 7), Triple(4, 2, 9)), INT64))
def test_values_of_is_the_values_half_of_entries_of(coo):
    for orientation in (ROW, COL):
        assert values_of(to_compressed(coo, orientation)) == tuple(t.val for t in coo.triples)


# ---------------------------------------------------------------------------
# Properties


@given(coo_matrices())
def test_transpose_is_involutive(coo):
    m = to_compressed(coo)
    assert to_tuples(transpose(transpose(m))).triples == coo.triples


@given(coo_matrices())
def test_conversion_round_trips_preserve_everything(coo):
    for orientation in (ROW, COL):
        m = to_compressed(coo, orientation)
        assert check_invariants(m)
        assert to_tuples(m) == coo


@given(coo_matrices())
def test_transpose_preserves_nvals(coo):
    m = to_compressed(coo)
    assert nvals(transpose(m)) == nvals(m)


@given(coo_matrices())
def test_csc_matches_the_sort_by_column_reference(coo):
    ordered = sorted(coo.triples, key=lambda t: (t.col, t.row))
    counts = [0] * (coo.ncols + 1)
    for t in ordered:
        counts[t.col + 1] += 1
    for j in range(coo.ncols):
        counts[j + 1] += counts[j]
    csc = to_compressed(coo, COL)
    assert csc.offsets == tuple(counts)
    assert csc.minor_indices == tuple(t.row for t in ordered)
    assert csc.values == tuple(t.val for t in ordered)


@given(coo_matrices(square=True))
def test_is_symmetric_matches_brute_force(coo):
    mirrored = build_from_triples(coo.nrows, coo.ncols,
                                  [*coo.triples, *((c, r, v) for r, c, v in coo.triples)],
                                  plus_monoid(INT64))
    for m in (coo, mirrored):
        cells = set(m.triples)
        want = cells == {(c, r, v) for r, c, v in cells}
        assert is_symmetric(to_compressed(m)) == is_symmetric(to_compressed(m, COL)) == want
