"""The nine primitive operations every graph algorithm is built from.

All kernels are pure: inputs are immutable and never modified, results are
new containers.  Matrix results keep the orientation of the first matrix
argument.  mxm writes its product row by row, each row one Gustavson row
(`_row_product`).  mxv reads its matrix as stored and never reorients it:
when the matrix's slices are indexed like the vector it pushes, as the
Gustavson row of the vector alone, and otherwise it pulls a dot product per
stored slice, reading v by position when v stores every index.  Every other
matrix-returning kernel walks its first argument in its own orientation and
hands the result's entries to one builder, `_build`, as parallel (major,
minor, value) lists.
Every per-slice loop walks only the stored slices (`_stored_slices`), so
Python work follows the stored entries, not the declared dimensions.
Where a semiring is supplied, any computed value equal to the additive
identity is dropped from the result, so the stored pattern of a kernel
output never contains the operative zero.  Kernels that take a bare op or
monoid have no zero in scope and keep every computed value.  Every index
a kernel stores comes from a valid input, so results are made through
`containers._trusted` without being validated again.

Floating-point accumulation order is fixed: within each output slot,
contributions fold from the additive identity in ascending order of the
index summed over (j in mxm and in mxv, push or pull alike; the minor index
in reduce).  That makes results reproducible and directly comparable
against a dense reference evaluation.

Integer folds whose every op wraps (plus_times over a fixed-width integer
domain, or a plus reduce) run on the ops' unbounded `raw` operators and wrap
each output slot once.  Two's-complement wrap is a ring homomorphism from
the integers onto Z/2^w, so the result equals wrapping after every step.
"""

from __future__ import annotations

from itertools import accumulate, compress, repeat
from operator import eq, not_
from typing import Any, Sequence

from .containers import (
    COL,
    ROW,
    CompressedMatrix,
    SparseVector,
    _check_index_list,
    _major_indices,
    _offsets,
    _slice,
    _sorted_entries,
    _stored_slices,
    _trusted,
    reorient,
    vector_as_column,
)
from .errors import DimensionMismatchError, DomainMismatchError
from .semirings import BinaryOp, IndexUnaryOp, Monoid, Semiring, UnaryOp

_AXES = ("rows", "cols")
_MISSING = object()


def _check_axis(axis: str) -> None:
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}")


def _require_domain(expected, *containers) -> None:
    for c in containers:
        if c.domain != expected:
            raise DomainMismatchError(
                f"container domain {c.domain.kind} does not match "
                f"operation domain {expected.kind}"
            )


def _build(nrows: int, ncols: int, orientation: str, majors: list[int], minors: list[int],
           values: list, domain) -> CompressedMatrix:
    """The matrix stored in `orientation` whose entries are the parallel
    (major, minor, value) lists, at distinct positions in any order."""
    nmajor, nminor = (nrows, ncols) if orientation == ROW else (ncols, nrows)
    majors, minors, values = (_sorted_entries(majors, minors, values, nminor)
                              or (majors, minors, values))
    return _trusted(CompressedMatrix, nrows, ncols, orientation, _offsets(majors, nmajor),
                    tuple(minors), tuple(values), domain)


def _fold_ops(add: BinaryOp, mul: BinaryOp | None = None):
    """(add, mul, fit) for a kernel fold.  When `add`, and `mul` when given,
    wrap into their integer domain, these are the raw operators and `fit`
    wraps a folded output into the domain once; otherwise they are the
    ops' `eval` and `fit` is None."""
    if add.raw is None or (mul is not None and mul.raw is None):
        return add.eval, mul and mul.eval, None
    lo, hi, wrap = add.domain.min_value, add.domain.max_value, add.domain.wrap
    return add.raw, mul and mul.raw, lambda v: v if lo <= v <= hi else wrap(v)


# ---------------------------------------------------------------------------
# Multiplication


def _row_product(left, b: CompressedMatrix, add, mul, fit, zero, left_first: bool):
    """The (keys, values) lists, keys ascending, of the sparse row that sums
    slice j of `b` times x over the (j, x) of `left`, j ascending
    (Gustavson's row).  Slot k folds add(acc, mul(x, B(j, k))) from `zero`,
    or mul(B(j, k), x) when not `left_first`; each slot is fitted once and
    dropped when it equals `zero`.  Each operand order has its own inner
    loop, so no product pays for a call that swaps the operands."""
    acc: dict[int, Any] = {}
    get = acc.get
    offsets, minors, values = b.offsets, b.minor_indices, b.values
    for j, x in left:
        lo, hi = offsets[j], offsets[j + 1]
        if left_first:
            for k, y in zip(minors[lo:hi], values[lo:hi]):
                acc[k] = add(get(k, zero), mul(x, y))
        else:
            for k, y in zip(minors[lo:hi], values[lo:hi]):
                acc[k] = add(get(k, zero), mul(y, x))
    ks = sorted(acc)
    vs = list(map(acc.__getitem__, ks) if fit is None else map(fit, map(acc.__getitem__, ks)))
    keep = list(map(not_, map(eq, vs, repeat(zero))))
    return list(compress(ks, keep)), list(compress(vs, keep))


def mxm(a: CompressedMatrix, b: CompressedMatrix, s: Semiring) -> CompressedMatrix:
    """Sparse matrix-matrix multiply over a semiring.

    C(i, k) = add-fold over j of mul(A(i, j), B(j, k)), row-wise with a
    sparse accumulator per non-empty row of A (Gustavson's method), each
    finished row appended straight to the result's CSR arrays.  Implicit
    entries contribute nothing because the additive identity annihilates
    under mul.
    """
    if a.ncols != b.nrows:
        raise DimensionMismatchError(
            f"mxm: inner dimensions differ ({a.nrows}x{a.ncols} times {b.nrows}x{b.ncols})"
        )
    _require_domain(s.domain, a, b)
    ar = reorient(a, ROW)
    br = reorient(b, ROW)
    add, mul, fit = _fold_ops(s.add.op, s.mul)
    zero = s.add.identity
    # Only A's non-empty rows are visited, so the loop follows the stored
    # entries, not the declared rows; their counts become offsets at the end.
    counts = [0] * (ar.nrows + 1)
    minors: list[int] = []
    values: list[Any] = []
    for i, lo, hi in _stored_slices(ar.offsets):
        ks, vs = _row_product(zip(ar.minor_indices[lo:hi], ar.values[lo:hi]), br, add, mul, fit,
                              zero, True)
        minors.extend(ks)
        values.extend(vs)
        counts[i + 1] = len(ks)
    out = _trusted(CompressedMatrix, a.nrows, b.ncols, ROW, tuple(accumulate(counts)),
                   tuple(minors), tuple(values), s.domain)
    return reorient(out, a.orientation)


def mxv(a: CompressedMatrix, v: SparseVector, s: Semiring,
        transpose_input: bool = False) -> SparseVector:
    """Sparse matrix-vector multiply; the flag multiplies by the transpose.

    w(i) = add-fold over j of mul(A'(i, j), v(j)) where A' is A or its
    transpose.  Computed values equal to the additive identity are dropped.
    A is read in the orientation it is stored in.  When its slices are
    indexed by j (CSR with the flag, CSC without), each v(j) in ascending j
    pushes along slice j into a sparse accumulator, so the work follows the
    slices v selects; otherwise each stored slice pulls a dot product with
    v, which reads v(j) from a positional list when v stores every index
    and looks it up otherwise.  Both fold each output in ascending j, so
    their results are equal.
    """
    in_len = a.nrows if transpose_input else a.ncols
    out_len = a.ncols if transpose_input else a.nrows
    if v.length != in_len:
        raise DimensionMismatchError(
            f"mxv: vector length {v.length} does not match matrix dimension {in_len}"
        )
    _require_domain(s.domain, a, v)
    add, mul, fit = _fold_ops(s.add.op, s.mul)
    zero = s.add.identity
    if (a.orientation == ROW) == transpose_input:
        # A's slices are indexed like v: push, scattering slice j for each v(j).
        return _trusted(SparseVector, out_len,
                        tuple(zip(*_row_product(v.entries, a, add, mul, fit, zero, False))),
                        s.domain)
    offsets, minors, values = a.offsets, a.minor_indices, a.values
    entries = []
    if len(v.entries) == in_len:
        # v stores every index (pagerank's ranks, the only pull among the
        # algorithms), so v(j) is at position j and no product can miss.
        # Positional indexing beat a zip over each slice here (1.52 against
        # 1.82 ms per pull on the seed-3 `iterate` graph).
        x = [y for _j, y in v.entries]
        for i, lo, hi in _stored_slices(offsets):
            acc = zero
            for p in range(lo, hi):
                acc = add(acc, mul(values[p], x[minors[p]]))
            if fit is not None:
                acc = fit(acc)
            if not acc == zero:
                entries.append((i, acc))
        return _trusted(SparseVector, out_len, tuple(entries), s.domain)
    # A sparse v: a slice that meets none of its entries stores nothing.
    get = dict(v.entries).get
    for i, lo, hi in _stored_slices(offsets):
        acc = zero
        hit = False
        for p in range(lo, hi):
            x = get(minors[p], _MISSING)
            if x is _MISSING:
                continue
            acc = add(acc, mul(values[p], x))
            hit = True
        if hit and fit is not None:
            acc = fit(acc)
        if hit and not acc == zero:
            entries.append((i, acc))
    return _trusted(SparseVector, out_len, tuple(entries), s.domain)


# ---------------------------------------------------------------------------
# Element-wise operations


def ewise_mult(a: CompressedMatrix, b: CompressedMatrix, op: BinaryOp) -> CompressedMatrix:
    """Element-wise multiply on the intersection of the stored patterns."""
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise DimensionMismatchError(
            f"ewise_mult: shapes {a.nrows}x{a.ncols} and {b.nrows}x{b.ncols} differ"
        )
    _require_domain(op.domain, a, b)
    br = reorient(b, a.orientation)
    fn = op.eval
    majors: list[int] = []
    minors: list[int] = []
    values: list[Any] = []
    for i, lo, hi in _stored_slices(a.offsets):
        other = dict(_slice(br, i))
        for j, x in zip(a.minor_indices[lo:hi], a.values[lo:hi]):
            if j in other:
                majors.append(i)
                minors.append(j)
                values.append(fn(x, other[j]))
    return _build(a.nrows, a.ncols, a.orientation, majors, minors, values, op.domain)


def reduce(a: CompressedMatrix, m: Monoid, axis: str) -> SparseVector:
    """Fold each row (axis="rows") or column (axis="cols") under a monoid.

    Empty slices produce no entry.  With a plus monoid over a pattern
    matrix this is the out-degree (rows) or in-degree (cols).
    """
    _check_axis(axis)
    _require_domain(m.domain, a)
    eff = reorient(a, ROW if axis == "rows" else COL)
    length = a.nrows if axis == "rows" else a.ncols
    add, _mul, fit = _fold_ops(m.op)
    entries = []
    for i, lo, hi in _stored_slices(eff.offsets):
        acc = m.identity
        for p in range(lo, hi):
            acc = add(acc, eff.values[p])
        entries.append((i, acc if fit is None else fit(acc)))
    return _trusted(SparseVector, length, tuple(entries), m.domain)


# ---------------------------------------------------------------------------
# Sub-matrix selection and insertion


def subref(a: CompressedMatrix, rows: Sequence[int], cols: Sequence[int]) -> CompressedMatrix:
    """Select the sub-matrix B(p, q) = A(rows[p], cols[q]).

    Index lists may be in any order, so this also expresses row/column
    permutation and relabeling.
    """
    _check_index_list(rows, a.nrows, "row")
    _check_index_list(cols, a.ncols, "column")
    sel_major, sel_minor = (rows, cols) if a.orientation == ROW else (cols, rows)
    at = {j: q for q, j in enumerate(sel_minor)}
    majors: list[int] = []
    minors: list[int] = []
    values: list[Any] = []
    for p, i in enumerate(sel_major):
        for j, x in _slice(a, i):
            if j in at:
                majors.append(p)
                minors.append(at[j])
                values.append(x)
    return _build(len(rows), len(cols), a.orientation, majors, minors, values, a.domain)


def subassign(c: CompressedMatrix, rows: Sequence[int], cols: Sequence[int],
              b: CompressedMatrix) -> CompressedMatrix:
    """Replace the region C(rows x cols) with B.

    Replace semantics: after the call, position (rows[p], cols[q]) holds
    B(p, q) -- including holding nothing where B stores nothing.  Positions
    outside the cross product are untouched, which gives the round-trip law
    subref(subassign(C, r, c, B), r, c) == B.
    """
    if b.nrows != len(rows) or b.ncols != len(cols):
        raise DimensionMismatchError(
            f"subassign: block is {b.nrows}x{b.ncols} but index lists select "
            f"{len(rows)}x{len(cols)}"
        )
    _check_index_list(rows, c.nrows, "row")
    _check_index_list(cols, c.ncols, "column")
    _require_domain(c.domain, b)
    br = reorient(b, c.orientation)
    sel_major, sel_minor = (rows, cols) if c.orientation == ROW else (cols, rows)
    in_major, in_minor = set(sel_major), set(sel_minor)
    # C's entries outside the region, then B's relabelled into it.
    majors = list(_major_indices(c.offsets))
    keep = [i not in in_major or j not in in_minor for i, j in zip(majors, c.minor_indices)]
    majors = [*compress(majors, keep), *map(sel_major.__getitem__, _major_indices(br.offsets))]
    minors = [*compress(c.minor_indices, keep), *map(sel_minor.__getitem__, br.minor_indices)]
    values = [*compress(c.values, keep), *br.values]
    return _build(c.nrows, c.ncols, c.orientation, majors, minors, values, c.domain)


# ---------------------------------------------------------------------------
# Scaling


def scale_matrix(a: CompressedMatrix, d: SparseVector, op: BinaryOp,
                 axis: str) -> CompressedMatrix:
    """Combine each entry with a per-row (axis="rows") or per-column factor.

    A'(i, j) = op(A(i, j), d(i)) or op(A(i, j), d(j)).  Entries whose
    factor is absent from d are dropped (an absent factor annihilates).
    """
    _check_axis(axis)
    expected = a.nrows if axis == "rows" else a.ncols
    if d.length != expected:
        raise DimensionMismatchError(
            f"scale_matrix: factor length {d.length} does not match {expected}"
        )
    _require_domain(op.domain, a, d)
    factors = dict(d.entries)
    majors = list(_major_indices(a.offsets))
    # The factor index is each entry's major index or its minor index.
    at = majors if (axis == "rows") == (a.orientation == ROW) else a.minor_indices
    keep = list(map(factors.__contains__, at))
    values = list(map(op.eval, compress(a.values, keep),
                      map(factors.__getitem__, compress(at, keep))))
    return _build(a.nrows, a.ncols, a.orientation, list(compress(majors, keep)),
                  list(compress(a.minor_indices, keep)), values, op.domain)


def scale_vector(v: SparseVector, w: SparseVector, op: BinaryOp) -> SparseVector:
    """Element-wise combine on the intersection of two vectors' patterns.

    This doubles as the masking primitive: intersecting a frontier with a
    boolean indicator keeps exactly the masked positions.
    """
    if v.length != w.length:
        raise DimensionMismatchError(
            f"scale_vector: lengths {v.length} and {w.length} differ"
        )
    _require_domain(op.domain, v, w)
    other = dict(w.entries)
    entries = tuple((i, op.eval(x, other[i])) for i, x in v.entries if i in other)
    return _trusted(SparseVector, v.length, entries, op.domain)


# ---------------------------------------------------------------------------
# Unary application


def apply_unary(a, f: UnaryOp | IndexUnaryOp, drop_zeros_for=None):
    """Apply f to every stored value of a matrix or vector; an IndexUnaryOp
    also gets each entry's row and column (i and 0 for vector entry i).

    The pattern is unchanged, except that entries whose new value equals
    `drop_zeros_for` (a monoid identity supplied by the caller) are dropped
    when that argument is given.
    """
    if not isinstance(a, (SparseVector, CompressedMatrix)):
        raise TypeError(f"apply_unary is not defined for {type(a).__name__}")
    _require_domain(f.input_domain, a)
    if drop_zeros_for is not None:
        f.output_domain.check_value(drop_zeros_for)
    m = vector_as_column(a) if isinstance(a, SparseVector) else a
    minors = m.minor_indices
    if isinstance(f, IndexUnaryOp):
        majors = _major_indices(m.offsets)
        at = (majors, minors) if m.orientation == ROW else (minors, majors)
        values = list(map(f.eval, m.values, *at))
    else:
        values = list(map(f.eval, m.values))
    if drop_zeros_for is not None:
        keep = list(map(not_, map(eq, values, repeat(drop_zeros_for))))
        minors, values = list(compress(minors, keep)), list(compress(values, keep))
    if isinstance(a, SparseVector):
        return _trusted(SparseVector, a.length, tuple(zip(minors, values)), f.output_domain)
    if drop_zeros_for is None:
        return _trusted(CompressedMatrix, m.nrows, m.ncols, m.orientation, m.offsets, minors,
                        tuple(values), f.output_domain)
    return _build(m.nrows, m.ncols, m.orientation, list(compress(_major_indices(m.offsets), keep)),
                  minors, values, f.output_domain)
