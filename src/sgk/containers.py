"""Sparse matrix and vector containers: tuples/COO, CSR, CSC.

All containers are immutable after construction and validate their
structural invariants (sortedness, uniqueness, index ranges) when built, so
a container that exists is a container that is well formed.  Matrices use
the row convention A(i, j) nonzero <=> edge i -> j; indices are 0-based
everywhere inside the library.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Any, Iterable, NamedTuple, Sequence

from .domains import BOOLEAN, ValueDomain
from .errors import (
    DimensionMismatchError,
    DomainMismatchError,
    DuplicateIndexError,
    IndexRangeError,
    SgkError,
)
from .semirings import Monoid

ROW = "row"
COL = "col"
_ORIENTATIONS = (ROW, COL)


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
        if self.nrows < 0 or self.ncols < 0:
            raise DimensionMismatchError("matrix dimensions must be non-negative")
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
        if self.nrows < 0 or self.ncols < 0:
            raise DimensionMismatchError("matrix dimensions must be non-negative")
        major = self.nrows if self.orientation == ROW else self.ncols
        minor = self.ncols if self.orientation == ROW else self.nrows
        nnz = len(self.minor_indices)
        if len(self.values) != nnz:
            raise SgkError("minor_indices and values must have equal length")
        if len(self.offsets) != major + 1 or self.offsets[0] != 0 or self.offsets[-1] != nnz:
            raise SgkError("offsets must span [0, nnz] with one slot per major slice")
        for i in range(major):
            lo, hi = self.offsets[i], self.offsets[i + 1]
            if lo > hi:
                raise SgkError("offsets must be non-decreasing")
            prev = -1
            for p in range(lo, hi):
                j = self.minor_indices[p]
                if j <= prev:
                    raise SgkError("minor indices must be strictly increasing per slice")
                if not 0 <= j < minor:
                    raise IndexRangeError(f"minor index {j} out of range")
                prev = j


@dataclass(frozen=True)
class SparseVector:
    """Sparse vector: (index, value) entries with strictly increasing indices."""

    length: int
    entries: tuple[tuple[int, Any], ...]
    domain: ValueDomain

    def __post_init__(self):
        if self.length < 0:
            raise DimensionMismatchError("vector length must be non-negative")
        prev = -1
        for i, _v in self.entries:
            if i <= prev:
                raise SgkError("vector entries must be strictly increasing by index")
            if not 0 <= i < self.length:
                raise IndexRangeError(f"index {i} out of range for length {self.length}")
            prev = i


# ---------------------------------------------------------------------------
# Construction


def build_from_triples(nrows: int, ncols: int,
                       triples: Iterable[tuple],
                       dup: Monoid) -> CooMatrix:
    """Build a finalized COO matrix, collapsing duplicates with `dup`.

    Duplicate (row, col) positions are folded with dup.op in input order.
    The monoid's domain becomes the matrix domain and every value is
    checked against it.
    """
    domain = dup.domain
    contains = domain.contains
    seen: dict[tuple[int, int], Any] = {}
    for pos, t in enumerate(triples):
        r, c, v = t
        if not isinstance(r, int) or not isinstance(c, int) \
                or not (0 <= r < nrows and 0 <= c < ncols):
            raise IndexRangeError(
                f"triple {pos}: position ({r!r}, {c!r}) out of range for "
                f"{nrows}x{ncols} matrix"
            )
        if not contains(v):
            domain.check_value(v)
        key = (r, c)
        if key in seen:
            seen[key] = dup.op.eval(seen[key], v)
        else:
            seen[key] = v
    items = tuple(Triple(r, c, seen[(r, c)]) for r, c in sorted(seen))
    return CooMatrix(nrows, ncols, items, domain)


def vector_from_entries(length: int,
                        entries: Iterable[tuple[int, Any]],
                        domain: ValueDomain) -> SparseVector:
    """Build a sparse vector; duplicate indices are an error."""
    contains = domain.contains
    pairs = []
    seen: set[int] = set()
    for i, v in entries:
        if not isinstance(i, int) or not 0 <= i < length:
            raise IndexRangeError(f"index {i!r} out of range for length {length}")
        if i in seen:
            raise DuplicateIndexError(f"duplicate vector index {i}")
        seen.add(i)
        if not contains(v):
            domain.check_value(v)
        pairs.append((i, v))
    pairs.sort(key=lambda p: p[0])
    return SparseVector(length, tuple(pairs), domain)


# ---------------------------------------------------------------------------
# Conversions


def _offsets(indices: Iterable[int], nslices: int) -> tuple[int, ...]:
    """Slice offsets of entries grouped by slice index: counts, then a prefix sum."""
    counts = [0] * (nslices + 1)
    for i in indices:
        counts[i + 1] += 1
    return tuple(accumulate(counts))


def _slice(m: CompressedMatrix, i: int) -> Iterable[tuple[int, Any]]:
    """The (minor index, value) pairs of major slice `i`, in stored order."""
    lo, hi = m.offsets[i], m.offsets[i + 1]
    return zip(m.minor_indices[lo:hi], m.values[lo:hi])


def to_compressed(m: CooMatrix, orientation: str = ROW) -> CompressedMatrix:
    """CSR straight from the (row, col)-sorted triples, then `reorient`."""
    offsets = _offsets((t.row for t in m.triples), m.nrows)
    csr = CompressedMatrix(m.nrows, m.ncols, ROW, offsets, tuple(t.col for t in m.triples),
                           tuple(t.val for t in m.triples), m.domain)
    return reorient(csr, orientation)


def to_tuples(m: CompressedMatrix) -> CooMatrix:
    csr = reorient(m, ROW)
    triples = tuple(Triple(i, j, v) for i in range(csr.nrows) for j, v in _slice(csr, i))
    return CooMatrix(m.nrows, m.ncols, triples, m.domain)


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
    for i in range(len(m.offsets) - 1):
        for j, v in _slice(m, i):
            q = free[j]
            free[j] = q + 1
            minors[q] = i
            values[q] = v
    return replace(m, orientation=orientation, offsets=offsets,
                   minor_indices=tuple(minors), values=tuple(values))


def transpose(m: CompressedMatrix) -> CompressedMatrix:
    """Exchange rows and columns; the result keeps m's orientation.

    A CSR matrix reinterpreted as CSC (and swapped dimensions) is already
    the transpose, so this is a relabeling plus one reorientation.
    """
    flipped = replace(m, nrows=m.ncols, ncols=m.nrows,
                      orientation=COL if m.orientation == ROW else ROW)
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
        return to_tuples(m).triples
    if isinstance(m, CooMatrix):
        return m.triples
    raise TypeError(f"entries_of is not defined for {type(m).__name__}")


def vector_entries(v: SparseVector) -> tuple[tuple[int, Any], ...]:
    """All stored entries as (index, value) pairs, sorted by index."""
    return v.entries


# ---------------------------------------------------------------------------
# Vector reshaping helpers


def pattern_complement(v: SparseVector) -> SparseVector:
    """Boolean vector that is True exactly where `v` stores nothing."""
    stored = {i for i, _ in v.entries}
    ents = tuple((i, True) for i in range(v.length) if i not in stored)
    return SparseVector(v.length, ents, BOOLEAN)


def densify_vector(v: SparseVector, fill) -> SparseVector:
    """Make every position explicit, using `fill` where nothing is stored."""
    v.domain.check_value(fill)
    stored = dict(v.entries)
    ents = tuple((i, stored.get(i, fill)) for i in range(v.length))
    return SparseVector(v.length, ents, v.domain)


def vector_as_column(v: SparseVector) -> CompressedMatrix:
    """View a length-n vector as an n x 1 matrix (for matrix-level folds),
    stored as its single column so a column fold needs no reorient."""
    return CompressedMatrix(
        nrows=v.length,
        ncols=1,
        orientation=COL,
        offsets=(0, len(v.entries)),
        minor_indices=tuple(i for i, _ in v.entries),
        values=tuple(x for _, x in v.entries),
        domain=v.domain,
    )


# ---------------------------------------------------------------------------
# Validation support (used heavily by the test suite)


def check_invariants(obj) -> bool:
    """Re-run all structural validations and value-check the domain.

    Containers validate themselves on construction, so this re-checks by
    rebuilding and additionally verifies every stored value is a member of
    the declared domain.  Returns True or raises.
    """
    if isinstance(obj, CompressedMatrix):
        CompressedMatrix(obj.nrows, obj.ncols, obj.orientation, obj.offsets,
                         obj.minor_indices, obj.values, obj.domain)
        vals: Sequence = obj.values
    elif isinstance(obj, CooMatrix):
        CooMatrix(obj.nrows, obj.ncols, obj.triples, obj.domain)
        vals = [t.val for t in obj.triples]
    elif isinstance(obj, SparseVector):
        SparseVector(obj.length, obj.entries, obj.domain)
        vals = [v for _i, v in obj.entries]
    else:
        raise TypeError(f"no invariants defined for {type(obj).__name__}")
    for v in vals:
        if not obj.domain.contains(v):
            raise DomainMismatchError(
                f"stored value {v!r} is outside domain {obj.domain.kind}"
            )
    return True
