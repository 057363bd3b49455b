"""Sparse matrix and vector containers: tuples/COO, CSR, CSC.

All containers are immutable after construction.  Their public
constructors validate the structural invariants (int indices, sortedness,
uniqueness, index ranges), so a container that exists is a container that
is well formed.  The library's own builders, which have already proven
those invariants of the parts they assemble, make containers through
`_trusted` instead and skip the re-check; a vector whose entries the
library made itself goes through `_sorted_vector`, which only puts them in
index order.  Parallel entry lists become a CSR matrix in one step,
`_assemble` (sort, fold duplicates), which the readers and
`build_from_triples` share.  Values are checked against the domain once,
where they enter: by `build_from_triples` and `vector_from_entries`, and
by the Matrix Market `integer` reader, the one field whose parse can leave
its domain.  Matrices use the row convention A(i, j) nonzero <=> edge
i -> j; indices are 0-based everywhere inside the library.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, and_, eq, itemgetter, le, lt, mul, not_, sub
from typing import Any, Iterable, NamedTuple, Sequence

from .domains import ValueDomain
from .errors import (
    DimensionMismatchError,
    DuplicateIndexError,
    IndexRangeError,
    SgkError,
)
from .semirings import Monoid

ROW = "row"
COL = "col"
_ORIENTATIONS = (ROW, COL)


def _all_ints(values: Iterable) -> bool:
    """Whether every value is an int and none is a bool, in one pass over `values`."""
    return all(issubclass(t, int) and t is not bool for t in set(map(type, values)))


class Triple(NamedTuple):
    """One stored matrix entry."""

    row: int
    col: int
    val: Any


@dataclass(frozen=True)
class MatrixDescriptor:
    """Matrix metadata; `symmetric` records what a file header declared.

    The flag is advisory: is_symmetric() checks the stored pattern and
    values, it never trusts the descriptor.
    """

    symmetric: bool = False


@dataclass(frozen=True)
class CooMatrix:
    """Finalized tuple-format matrix: triples sorted by (row, col), no duplicates."""

    nrows: int
    ncols: int
    triples: tuple[Triple, ...]
    domain: ValueDomain

    def __post_init__(self):
        if not _all_ints((self.nrows, self.ncols)):
            raise DimensionMismatchError("matrix dimensions must be ints")
        if self.nrows < 0 or self.ncols < 0:
            raise DimensionMismatchError("matrix dimensions must be non-negative")
        if not _all_ints(chain(map(itemgetter(0), self.triples), map(itemgetter(1), self.triples))):
            raise SgkError("triple rows and columns must be ints")
        prev = None
        for t in self.triples:
            if not (0 <= t.row < self.nrows and 0 <= t.col < self.ncols):
                raise IndexRangeError(
                    f"entry ({t.row}, {t.col}) out of range for "
                    f"{self.nrows}x{self.ncols} matrix"
                )
            key = (t.row, t.col)
            if prev is not None and key <= prev:
                raise SgkError("triples must be sorted by (row, col) without duplicates")
            prev = key


@dataclass(frozen=True)
class CompressedMatrix:
    """CSR or CSC storage: offsets per major slice, sorted minor indices, values."""

    nrows: int
    ncols: int
    orientation: str
    offsets: tuple[int, ...]
    minor_indices: tuple[int, ...]
    values: tuple[Any, ...]
    domain: ValueDomain

    def __post_init__(self):
        if self.orientation not in _ORIENTATIONS:
            raise ValueError(f"orientation must be one of {_ORIENTATIONS}")
        if not _all_ints((self.nrows, self.ncols)):
            raise DimensionMismatchError("matrix dimensions must be ints")
        if self.nrows < 0 or self.ncols < 0:
            raise DimensionMismatchError("matrix dimensions must be non-negative")
        major = self.nrows if self.orientation == ROW else self.ncols
        minor = self.ncols if self.orientation == ROW else self.nrows
        nnz = len(self.minor_indices)
        if len(self.values) != nnz:
            raise SgkError("minor_indices and values must have equal length")
        if not _all_ints(self.offsets):
            raise SgkError("offsets must be ints")
        if len(self.offsets) != major + 1 or self.offsets[0] != 0 or self.offsets[-1] != nnz:
            raise SgkError("offsets must span [0, nnz] with one slot per major slice")
        minors = self.minor_indices
        if not _all_ints(minors):
            raise SgkError("minor indices must be ints")
        if not all(map(le, self.offsets, islice(self.offsets, 1, None))):
            raise SgkError("offsets must be non-decreasing")
        for _i, lo, hi in _stored_slices(self.offsets):
            prev = -1
            for j in minors[lo:hi]:
                if not 0 <= j < minor:
                    raise IndexRangeError(f"minor index {j} out of range")
                if j <= prev:
                    raise SgkError("minor indices must be strictly increasing per slice")
                prev = j


@dataclass(frozen=True)
class SparseVector:
    """Sparse vector: (index, value) entries with strictly increasing indices."""

    length: int
    entries: tuple[tuple[int, Any], ...]
    domain: ValueDomain

    def __post_init__(self):
        if not _all_ints((self.length,)):
            raise DimensionMismatchError("vector length must be an int")
        if self.length < 0:
            raise DimensionMismatchError("vector length must be non-negative")
        if not _all_ints(map(itemgetter(0), self.entries)):
            raise SgkError("vector indices must be ints")
        prev = -1
        for i, _v in self.entries:
            if not 0 <= i < self.length:
                raise IndexRangeError(f"index {i} out of range for length {self.length}")
            if i <= prev:
                raise SgkError("vector entries must be strictly increasing by index")
            prev = i


_FIELD_NAMES = {cls: tuple(f.name for f in fields(cls))
                for cls in (CooMatrix, CompressedMatrix, SparseVector)}


def _trusted(cls, *values):
    """A `cls` container of `values`, in field order, made without `__post_init__`.

    Only for parts the library has already proven well formed; whatever
    comes from a caller goes through the validating public constructor.
    """
    obj = object.__new__(cls)
    for name, value in zip(_FIELD_NAMES[cls], values, strict=True):
        object.__setattr__(obj, name, value)
    return obj


# ---------------------------------------------------------------------------
# Construction


def build_from_triples(nrows: int, ncols: int,
                       triples: Iterable[tuple],
                       dup: Monoid) -> CooMatrix:
    """Build a finalized COO matrix, collapsing duplicates with `dup`.

    Duplicate (row, col) positions are folded with dup.op in input order.
    The monoid's domain becomes the matrix domain and every value is
    checked against it, before any is folded.  This is the triple form of
    `_assemble`'s CSR.
    """
    rows: list[int] = []
    cols: list[int] = []
    vals: list[Any] = []
    for pos, (r, c, v) in enumerate(triples):
        if not (isinstance(r, int) and isinstance(c, int)) or isinstance(r, bool) \
                or isinstance(c, bool) or not (0 <= r < nrows and 0 <= c < ncols):
            _check_values(vals, dup.domain)  # a bad value earlier in the input comes first
            raise IndexRangeError(
                f"triple {pos}: position ({r!r}, {c!r}) out of range for "
                f"{nrows}x{ncols} matrix"
            )
        rows.append(r)
        cols.append(c)
        vals.append(v)
    _check_values(vals, dup.domain)
    return to_tuples(_assemble(nrows, ncols, rows, cols, vals, dup))


def _check_values(vals: Sequence, domain: ValueDomain) -> None:
    """Raise for the first value outside `domain`.

    Over an integer domain, values that are all ints within its bounds pass
    in three C-speed passes; any others take the per-value check.
    """
    if domain.is_integer and _all_ints(vals) and (
            not vals or domain.min_value <= min(vals) and max(vals) <= domain.max_value):
        return
    if not all(map(domain.contains, vals)):
        for v in vals:
            domain.check_value(v)


def _assemble(nrows: int, ncols: int, rows: list[int], cols: list[int], vals: list,
              dup: Monoid) -> CompressedMatrix:
    """The CSR matrix of parallel entry lists whose positions are in range
    and whose values lie in dup's domain (callers check what they cannot
    vouch for).

    Entries already in strictly increasing (row, col) order are taken as
    they are; others are put in order by a stable sort on row * ncols + col,
    and each run of one position folds with dup.op in input order.  The
    offsets are counted from the ordered rows; the columns and values become
    the stored arrays.
    """
    ordered = _sorted_entries(rows, cols, vals, ncols)
    if ordered is not None:
        rows, cols, vals = ordered
        # same[k]: entry k + 1 repeats the position of entry k.
        same = list(map(and_, map(eq, rows, islice(rows, 1, None)),
                        map(eq, cols, islice(cols, 1, None))))
        if any(same):
            op = dup.op.eval
            for k in compress(range(1, len(vals)), same):
                vals[k] = op(vals[k - 1], vals[k])  # the run's last entry holds its fold
            last = list(map(not_, same))
            last.append(True)
            rows, cols, vals = (list(compress(seq, last)) for seq in (rows, cols, vals))
    return _trusted(CompressedMatrix, nrows, ncols, ROW, _offsets(rows, nrows), tuple(cols),
                    tuple(vals), dup.domain)


def _sorted_entries(majors: list[int], minors: list[int], vals: list, nminor: int):
    """None when parallel entry lists are strictly increasing by (major, minor); else the
    lists in a stable sort on major * nminor + minor, repeated positions in input order."""
    keys = list(map(add, map(mul, majors, repeat(nminor)), minors))
    if all(map(lt, keys, islice(keys, 1, None))):
        return None
    order = sorted(range(len(keys)), key=keys.__getitem__)
    del keys
    return tuple(list(map(seq.__getitem__, order)) for seq in (majors, minors, vals))


def _triples(rows: Iterable[int], cols: Iterable[int], vals: Iterable) -> tuple[Triple, ...]:
    """Triples of parallel entry sequences, built without Triple's Python-level __new__."""
    return tuple(map(tuple.__new__, repeat(Triple), zip(rows, cols, vals)))


def _check_index_list(indices: Iterable[int], bound: int, what: str) -> None:
    """Raise for the first index that is not a non-bool int in [0, bound) or repeats one."""
    seen: set[int] = set()
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < bound:
            raise IndexRangeError(f"{what} index {i!r} out of range [0, {bound})")
        if i in seen:
            raise DuplicateIndexError(f"duplicate {what} index {i}")
        seen.add(i)


def vector_from_entries(length: int,
                        entries: Iterable[tuple[int, Any]],
                        domain: ValueDomain) -> SparseVector:
    """Build a sparse vector; indices are checked (a duplicate is an error), then values."""
    pairs = [(i, v) for i, v in entries]
    _check_index_list(map(itemgetter(0), pairs), length, "vector")
    _check_values(list(map(itemgetter(1), pairs)), domain)
    pairs.sort(key=itemgetter(0))
    return _trusted(SparseVector, length, tuple(pairs), domain)


def _sorted_vector(length: int, entries: Iterable[tuple[int, Any]],
                   domain: ValueDomain) -> SparseVector:
    """`vector_from_entries` for (index, value) tuples the library made
    itself, their indices distinct ints in [0, length) and their values in
    `domain`: they are put in index order and nothing is re-checked."""
    return _trusted(SparseVector, length, tuple(sorted(entries, key=itemgetter(0))), domain)


# ---------------------------------------------------------------------------
# Conversions


def _offsets(indices: Iterable[int], nslices: int) -> tuple[int, ...]:
    """Slice offsets of entries grouped by slice index: counts, then a prefix sum."""
    counts = [0] * (nslices + 1)
    for i in indices:
        counts[i + 1] += 1
    return tuple(accumulate(counts))


def _slice_sizes(offsets: Sequence[int]) -> Iterable[int]:
    """The number of stored entries in each major slice."""
    return map(sub, islice(offsets, 1, None), offsets)


def _stored_slices(offsets: Sequence[int]) -> Iterable[tuple[int, int, int]]:
    """(major index, start, end) of each non-empty slice, ascending, found at C speed."""
    return compress(zip(range(len(offsets) - 1), offsets, islice(offsets, 1, None)),
                    _slice_sizes(offsets))


def _major_indices(offsets: Sequence[int]) -> Iterable[int]:
    """The major index of each stored entry, in stored order."""
    return chain.from_iterable(map(repeat, compress(range(len(offsets) - 1), _slice_sizes(offsets)),
                                   filter(None, _slice_sizes(offsets))))


def _slice(m: CompressedMatrix, i: int) -> Iterable[tuple[int, Any]]:
    """The (minor index, value) pairs of major slice `i`, in stored order."""
    lo, hi = m.offsets[i], m.offsets[i + 1]
    return zip(m.minor_indices[lo:hi], m.values[lo:hi])


def to_compressed(m: CooMatrix, orientation: str = ROW) -> CompressedMatrix:
    """CSR straight from the (row, col)-sorted triples, then `reorient`."""
    offsets = _offsets(map(itemgetter(0), m.triples), m.nrows)
    csr = _trusted(CompressedMatrix, m.nrows, m.ncols, ROW, offsets,
                   tuple(map(itemgetter(1), m.triples)), tuple(map(itemgetter(2), m.triples)),
                   m.domain)
    return reorient(csr, orientation)


def to_tuples(m: CompressedMatrix) -> CooMatrix:
    return _trusted(CooMatrix, m.nrows, m.ncols, entries_of(m), m.domain)


def reorient(m: CompressedMatrix, orientation: str) -> CompressedMatrix:
    """The same matrix stored in `orientation`, by counting sort in O(nnz + n).

    Walking the major slices in order and dropping each entry into the next
    free slot of its minor slice leaves every new slice sorted (Gustavson's
    permuted transposition, ACM TOMS 1978).
    """
    if orientation not in _ORIENTATIONS:
        raise ValueError(f"orientation must be one of {_ORIENTATIONS}")
    if m.orientation == orientation:
        return m
    offsets = _offsets(m.minor_indices, m.ncols if m.orientation == ROW else m.nrows)
    free = list(offsets)
    minors = [0] * len(m.values)
    values = [None] * len(m.values)
    for i, j, v in zip(_major_indices(m.offsets), m.minor_indices, m.values):
        q = free[j]
        free[j] = q + 1
        minors[q] = i
        values[q] = v
    return _trusted(CompressedMatrix, m.nrows, m.ncols, orientation, offsets, tuple(minors),
                    tuple(values), m.domain)


def transpose(m: CompressedMatrix) -> CompressedMatrix:
    """Exchange rows and columns; the result keeps m's orientation.

    A CSR matrix reinterpreted as CSC (and swapped dimensions) is already
    the transpose, so this is a relabeling plus one reorientation.
    """
    flipped = _trusted(CompressedMatrix, m.ncols, m.nrows, COL if m.orientation == ROW else ROW,
                       m.offsets, m.minor_indices, m.values, m.domain)
    return reorient(flipped, m.orientation)


# ---------------------------------------------------------------------------
# Queries


def is_symmetric(m: CompressedMatrix) -> bool:
    """True when pattern and values are equal under transposition."""
    if m.nrows != m.ncols:
        raise DimensionMismatchError("symmetry is defined for square matrices only")
    # The CSC arrays of m are the CSR arrays of its transpose.
    a, at = reorient(m, ROW), reorient(m, COL)
    return (a.offsets, a.minor_indices, a.values) == (at.offsets, at.minor_indices, at.values)


def nvals(m) -> int:
    if isinstance(m, CompressedMatrix):
        return len(m.values)
    if isinstance(m, CooMatrix):
        return len(m.triples)
    if isinstance(m, SparseVector):
        return len(m.entries)
    raise TypeError(f"nvals is not defined for {type(m).__name__}")


def dims(m) -> tuple[int, int]:
    if isinstance(m, (CompressedMatrix, CooMatrix)):
        return (m.nrows, m.ncols)
    raise TypeError(f"dims is not defined for {type(m).__name__}")


def entries_of(m) -> tuple[Triple, ...]:
    """All stored entries as (row, col, val) triples, sorted by (row, col)."""
    if isinstance(m, CompressedMatrix):
        csr = reorient(m, ROW)
        return _triples(_major_indices(csr.offsets), csr.minor_indices, csr.values)
    if isinstance(m, CooMatrix):
        return m.triples
    raise TypeError(f"entries_of is not defined for {type(m).__name__}")


def values_of(m: CompressedMatrix) -> tuple:
    """All stored values, in the (row, col) order of `entries_of`."""
    return reorient(m, ROW).values


def vector_entries(v: SparseVector) -> tuple[tuple[int, Any], ...]:
    """All stored entries as (index, value) pairs, sorted by index."""
    return v.entries


# ---------------------------------------------------------------------------
# Vector reshaping helpers


def densify_vector(v: SparseVector, fill) -> SparseVector:
    """Make every position explicit, using `fill` where nothing is stored."""
    v.domain.check_value(fill)
    stored = dict(v.entries)
    ents = tuple((i, stored.get(i, fill)) for i in range(v.length))
    return _trusted(SparseVector, v.length, ents, v.domain)


def vector_as_column(v: SparseVector) -> CompressedMatrix:
    """View a length-n vector as an n x 1 matrix (for matrix-level folds),
    stored as its single column so a column fold needs no reorient."""
    return _trusted(CompressedMatrix, v.length, 1, COL, (0, len(v.entries)),
                    tuple(map(itemgetter(0), v.entries)), tuple(map(itemgetter(1), v.entries)),
                    v.domain)


# ---------------------------------------------------------------------------
# Validation support (used heavily by the test suite)


def check_invariants(obj) -> bool:
    """Re-run all structural validations and value-check the domain.

    This rebuilds `obj` through its validating constructor, which also
    catches a container forged past it, and additionally verifies every
    stored value is a member of the declared domain.  Returns True or raises.
    """
    if isinstance(obj, CompressedMatrix):
        vals: Sequence = obj.values
    elif isinstance(obj, CooMatrix):
        vals = [t.val for t in obj.triples]
    elif isinstance(obj, SparseVector):
        vals = [v for _i, v in obj.entries]
    else:
        raise TypeError(f"no invariants defined for {type(obj).__name__}")
    replace(obj)
    _check_values(vals, obj.domain)
    return True
