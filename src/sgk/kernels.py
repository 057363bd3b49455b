"""The nine primitive operations every graph algorithm is built from.

All kernels are pure: inputs are immutable and never modified, results are
new containers.  Matrix results keep the orientation of the first matrix
argument.  Where a semiring is supplied, any computed value equal to the
additive identity is dropped from the result, so the stored pattern of a
kernel output never contains the operative zero.  Kernels that take a bare
op or monoid have no zero in scope and keep every computed value.

Floating-point accumulation order is fixed: within each output slot,
contributions fold from the additive identity in ascending minor-index
order.  That makes results reproducible and directly comparable against a
dense reference evaluation.

Integer folds whose every op wraps (plus_times over a fixed-width integer
domain, or a plus reduce) run on the ops' unbounded `raw` operators and wrap
each output slot once.  Two's-complement wrap is a ring homomorphism from
the integers onto Z/2^w, so the result equals wrapping after every step.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Iterable, Sequence

from .containers import (
    COL,
    ROW,
    CompressedMatrix,
    SparseVector,
    _check_index_list,
    _slice,
    reorient,
)
from .errors import DimensionMismatchError, DomainMismatchError
from .semirings import BinaryOp, IndexUnaryOp, Monoid, Semiring, UnaryOp

_AXES = ("rows", "cols")
_MISSING = object()


def _check_axis(axis: str) -> None:
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}")


def _major_dim(m: CompressedMatrix) -> int:
    return m.nrows if m.orientation == ROW else m.ncols


def _require_domain(expected, *containers) -> None:
    for c in containers:
        if c.domain != expected:
            raise DomainMismatchError(
                f"container domain {c.domain.kind} does not match "
                f"operation domain {expected.kind}"
            )


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


def _fold_ops(add: BinaryOp, mul: BinaryOp | None = None):
    """(add, mul, fit) for a kernel fold.  When `add`, and `mul` when given,
    wrap into their integer domain, these are the raw operators and `fit`
    wraps a folded output into the domain once; otherwise they are the
    ops' `eval` and `fit` is None."""
    if add.raw is None or (mul is not None and mul.raw is None):
        return add.eval, mul and mul.eval, None
    lo, hi, wrap = add.domain.min_value, add.domain.max_value, add.domain.wrap
    return add.raw, mul and mul.raw, lambda v: v if lo <= v <= hi else wrap(v)


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


# ---------------------------------------------------------------------------
# Multiplication


def mxm(a: CompressedMatrix, b: CompressedMatrix, s: Semiring) -> CompressedMatrix:
    """Sparse matrix-matrix multiply over a semiring.

    C(i, k) = add-fold over j of mul(A(i, j), B(j, k)), row-wise with a
    sparse accumulator per output row (Gustavson's method).  Implicit
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
    out_rows = []
    for i in range(ar.nrows):
        acc: dict[int, Any] = {}
        for j, x in _slice(ar, i):
            for k, y in _slice(br, j):
                acc[k] = add(acc.get(k, zero), mul(x, y))
        folded = acc.items() if fit is None else [(k, fit(v)) for k, v in acc.items()]
        out_rows.append(sorted((k, v) for k, v in folded if not v == zero))
    return _from_slices(a.nrows, b.ncols, out_rows, s.domain, ROW, a.orientation)


def mxv(a: CompressedMatrix, v: SparseVector, s: Semiring,
        transpose_input: bool = False) -> SparseVector:
    """Sparse matrix-vector multiply; the flag multiplies by the transpose.

    w(i) = add-fold over j of mul(A'(i, j), v(j)) where A' is A or its
    transpose.  Computed values equal to the additive identity are dropped.
    """
    in_len = a.nrows if transpose_input else a.ncols
    out_len = a.ncols if transpose_input else a.nrows
    if v.length != in_len:
        raise DimensionMismatchError(
            f"mxv: vector length {v.length} does not match matrix dimension {in_len}"
        )
    _require_domain(s.domain, a, v)
    eff = reorient(a, COL if transpose_input else ROW)
    add, mul, fit = _fold_ops(s.add.op, s.mul)
    zero = s.add.identity
    vmap = dict(v.entries)
    entries = []
    # Positional, not _slice: most slices miss a sparse frontier; slicing was 45% slower in bfs.
    for i in range(_major_dim(eff)):
        acc = zero
        hit = False
        for p in range(eff.offsets[i], eff.offsets[i + 1]):
            x = vmap.get(eff.minor_indices[p], _MISSING)
            if x is _MISSING:
                continue
            acc = add(acc, mul(eff.values[p], x))
            hit = True
        if hit and fit is not None:
            acc = fit(acc)
        if hit and not acc == zero:
            entries.append((i, acc))
    return SparseVector(out_len, tuple(entries), s.domain)


# ---------------------------------------------------------------------------
# Element-wise operations


def ewise_mult(a: CompressedMatrix, b: CompressedMatrix, op: BinaryOp) -> CompressedMatrix:
    """Element-wise multiply on the intersection of the stored patterns."""
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise DimensionMismatchError(
            f"ewise_mult: shapes {a.nrows}x{a.ncols} and {b.nrows}x{b.ncols} differ"
        )
    _require_domain(op.domain, a, b)
    ar = reorient(a, ROW)
    br = reorient(b, ROW)
    out_rows = [_intersect(_slice(ar, i), dict(_slice(br, i)), op.eval)
                for i in range(ar.nrows)]
    return _from_slices(a.nrows, a.ncols, out_rows, op.domain, ROW, a.orientation)


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
    for i in range(_major_dim(eff)):
        lo, hi = eff.offsets[i], eff.offsets[i + 1]
        if lo == hi:
            continue
        acc = m.identity
        for p in range(lo, hi):
            acc = add(acc, eff.values[p])
        entries.append((i, acc if fit is None else fit(acc)))
    return SparseVector(length, tuple(entries), m.domain)


# ---------------------------------------------------------------------------
# Sub-matrix selection and insertion


def subref(a: CompressedMatrix, rows: Sequence[int], cols: Sequence[int]) -> CompressedMatrix:
    """Select the sub-matrix B(p, q) = A(rows[p], cols[q]).

    Index lists may be in any order, so this also expresses row/column
    permutation and relabeling.
    """
    _check_index_list(rows, a.nrows, "row")
    _check_index_list(cols, a.ncols, "column")
    ar = reorient(a, ROW)
    colpos = {c: q for q, c in enumerate(cols)}
    out_rows = [sorted((colpos[j], x) for j, x in _slice(ar, r) if j in colpos)
                for r in rows]
    return _from_slices(len(rows), len(cols), out_rows, a.domain, ROW, a.orientation)


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
    cr, br = reorient(c, ROW), reorient(b, ROW)
    rowpos = {r: p for p, r in enumerate(rows)}
    cset = set(cols)
    # A selected row keeps its entries outside cols and takes B's row in them;
    # the two column sets are disjoint, so the sort never compares values.
    out_rows = [sorted([(j, x) for j, x in _slice(cr, i) if j not in cset]
                       + [(cols[q], x) for q, x in _slice(br, rowpos[i])])
                if i in rowpos else _slice(cr, i)
                for i in range(c.nrows)]
    return _from_slices(c.nrows, c.ncols, out_rows, c.domain, ROW, c.orientation)


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
    entries = _intersect(v.entries, dict(w.entries), op.eval)
    return SparseVector(v.length, tuple(entries), op.domain)


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
    indexed = isinstance(f, IndexUnaryOp)
    if isinstance(a, SparseVector):
        ents = (_map_at(a.entries, f.eval, 0, False, drop_zeros_for) if indexed
                else _map(a.entries, f.eval, drop_zeros_for))
        return SparseVector(a.length, tuple(ents), f.output_domain)
    if drop_zeros_for is None and not indexed:
        return replace(a, values=tuple(f.eval(v) for v in a.values), domain=f.output_domain)
    out = [_map_at(_slice(a, i), f.eval, i, a.orientation == ROW, drop_zeros_for) if indexed
           else _map(_slice(a, i), f.eval, drop_zeros_for) for i in range(_major_dim(a))]
    return _from_slices(a.nrows, a.ncols, out, f.output_domain, a.orientation, a.orientation)
