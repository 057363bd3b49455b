"""Readers and writers: Matrix Market coordinate files and TSV edge lists.

Matrix Market files are 1-based; everything in memory is 0-based.  Only
the coordinate format is handled, with general or symmetric symmetry.
Symmetric files must store the lower triangle (row >= column) and are
expanded to the full pattern on read, mirroring off-diagonal entries only.
Duplicate entries, in either format, collapse by addition.

Both readers take their data lines in blocks of _BLOCK lines.  A block
whose every line is a valid entry is parsed a column at a time; any other
block, one holding a blank, comment or bad line, goes through the per-line
loop, which skips the first two and raises the error that names the first
bad line.  Entries keep their input order either way.  One split of the
block's lines, joined with a NUL token between each two, both checks that
every line holds the field's tokens and gives the columns (`_columns`).

Each format has one parse, a private reader that ends in a CSR matrix
built by `containers._assemble` (`_read_matrix_market`, `_read_edge_list`,
which the command line loads through).  The public readers return that
matrix in triple form.  Only the Matrix Market `integer` field checks its
values against its domain, once the whole file has parsed: an int can lie
outside signed-int-64, while the pattern, real and complex parses give only
values their domain holds.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import attrgetter, ge, ne
from typing import IO, Any, Callable, Iterable, NamedTuple, Sequence

from .containers import (ROW, CompressedMatrix, CooMatrix, MatrixDescriptor, _assemble,
                         _check_values, _slice_sizes, reorient, to_compressed, to_tuples)
from .domains import COMPLEX128, FLOAT64, INT64, ValueDomain
from .errors import IndexRangeError, ParseError, UnserializableDomainError
from .semirings import plus_monoid

# The most rows or columns either reader accepts.  Compressed storage holds
# one offset per row or column whether or not the file stores entries there.
MAX_DIMENSION = 2**24


class _Field(NamedTuple):
    """What one Matrix Market value field holds."""

    domain: ValueDomain  # the domain a read gives
    width: int  # tokens per entry line, row and column included
    parse: Callable[..., Any]  # the value tokens' value; ValueError when they hold none
    carries: Callable[[Any], bool] | None  # the values it can hold; None for all
    texts: Callable[[Sequence], tuple]  # stored values' text, one iterable per value column


_FIELDS = {
    "real": _Field(FLOAT64, 3, float, math.isfinite, lambda vs: (map(repr, map(float, vs)),)),
    "integer": _Field(INT64, 3, int, None, lambda vs: (map(str, vs),)),
    "complex": _Field(COMPLEX128, 4, lambda re, im: complex(float(re), float(im)),
                      cmath.isfinite, lambda vs: (map(repr, map(attrgetter("real"), vs)),
                                                  map(repr, map(attrgetter("imag"), vs)))),
    "pattern": _Field(INT64, 2, lambda: 1, bool, lambda vs: ()),
}
_SYMMETRIES = ("general", "symmetric")


@dataclass(frozen=True)
class MatrixMarketHeader:
    object: str
    format: str
    field: str
    symmetry: str

    def __post_init__(self):
        if self.object != "matrix":
            raise ValueError(f"unsupported object {self.object!r}")
        if self.format != "coordinate":
            raise ValueError(f"unsupported format {self.format!r} (only coordinate)")
        if self.field not in _FIELDS:
            raise ValueError(f"unsupported field {self.field!r}")
        if self.symmetry not in _SYMMETRIES:
            raise ValueError(
                f"unsupported symmetry {self.symmetry!r} (only general or symmetric)"
            )


def _parse_banner(line: str, lineno: int) -> MatrixMarketHeader:
    tokens = line.split()
    if not tokens or tokens[0].lower() != "%%matrixmarket":
        raise ParseError(lineno, "missing %%MatrixMarket banner")
    if len(tokens) != 5:
        raise ParseError(
            lineno, f"banner needs 5 tokens (got {len(tokens)})"
        )
    try:
        return MatrixMarketHeader(*(t.lower() for t in tokens[1:]))
    except ValueError as e:
        raise ParseError(lineno, str(e)) from None


def _parse_index(token: str, upper: int, what: str, lineno: int) -> int:
    try:
        k = int(token)
    except ValueError:
        raise ParseError(lineno, f"invalid {what} index {token!r}") from None
    if not 1 <= k <= upper:
        raise IndexRangeError(
            f"line {lineno}: {what} index {k} out of bounds [1, {upper}]"
        )
    return k - 1


def _parse_value(tokens: list[str], field: _Field, lineno: int, what: str):
    """The value `tokens` hold in `field`.  `what` names the value ("real
    value", "weight") in the ParseError for tokens that hold none; its last
    word names a value the field cannot carry."""
    quoted = " ".join(map(repr, tokens))
    try:
        v = field.parse(*tokens)
    except ValueError:
        raise ParseError(lineno, f"invalid {what} {quoted}") from None
    if field.carries and not field.carries(v):
        raise ParseError(lineno, f"non-finite {what.rpartition(' ')[2]} {quoted}")
    return v


# Data lines per block (see the module docstring).  Larger blocks parse no
# faster and keep more token strings alive at once.
_BLOCK = 2**10


def _tokens(raw: str, comment: str) -> list[str]:
    """The tokens of a data line; none for a blank or `comment` line."""
    tokens = raw.split()
    return tokens if tokens and not tokens[0].startswith(comment) else []


def _columns(block: list[str], want: int, comment: str) -> list[list[str]] | None:
    r"""The `want` token columns of a block whose every line holds `want`
    tokens, no `comment` character and no NUL; None for any other block.

    One split checks the whole block.  The lines are joined with " \0 ",
    and NUL is not whitespace, so each join splits into a "\0" token; when
    the text holds no other NUL, the "\0" tokens are exactly the joins.
    Every line then holds `want` tokens exactly when there are
    (want + 1) * len(block) - 1 tokens and every (want + 1)-th one from
    index `want` is a "\0", and column k is every (want + 1)-th token from
    index k.
    """
    seps = len(block) - 1
    text = " \0 ".join(block)
    if comment in text or text.count("\0") != seps:
        return None
    flat = text.split()
    step = want + 1
    if len(flat) != step * len(block) - 1 or flat[want::step].count("\0") != seps:
        return None
    return [flat[k::step] for k in range(want)]


def _entries(block: list[str], field: _Field, comment: str) -> tuple[list, list, list] | None:
    """The first two token columns of a block, as ints, and the values
    `field` parses from the rest; None unless every line holds
    `field.width` tokens and no `comment` character, and every value parses
    and is one `field` carries."""
    columns = _columns(block, field.width, comment)
    if columns is None:
        return None
    try:
        firsts = list(map(int, columns[0]))
        seconds = list(map(int, columns[1]))
        values = (list(map(field.parse, *columns[2:])) if columns[2:]
                  else [field.parse()] * len(block))
    except ValueError:
        return None
    if field.carries and not all(map(field.carries, values)):
        return None
    return firsts, seconds, values


def _mm_block(block: list[str], field: _Field, nrows: int, ncols: int,
              symmetric: bool) -> tuple[list, list, list] | None:
    """The 0-based rows and columns and the values of a block of valid
    Matrix Market entries; None when some line is not one."""
    parsed = _entries(block, field, "%")
    if parsed is None:
        return None
    rows, cols, vals = parsed
    if not (1 <= min(rows) and max(rows) <= nrows and 1 <= min(cols) and max(cols) <= ncols
            and (not symmetric or all(map(ge, rows, cols)))):
        return None
    return [r - 1 for r in rows], [c - 1 for c in cols], vals


def _edge_block(block: list[str], field: _Field) -> tuple[list, list, list, int] | None:
    """The tails, heads and weights of a block of valid edge lines in
    `field`, and its largest vertex index; None when some line is not
    one."""
    parsed = _entries(block, field, "#")
    if parsed is None:
        return None
    tails, heads, weights = parsed
    top = max(max(tails), max(heads))
    if min(tails) < 0 or min(heads) < 0 or top >= MAX_DIMENSION:
        return None
    return tails, heads, weights, top


def _extend(out: tuple[list, list, list], rows: list, cols: list, vals: list,
            mirror: bool) -> None:
    """Append parallel entries to `out`'s three lists; with `mirror`, each
    entry off the diagonal is followed by its mirror, so that repeated
    positions fold in input order."""
    if not mirror:
        for dst, src in zip(out, (rows, cols, vals)):
            dst.extend(src)
        return
    keep = [True] * (2 * len(rows))
    keep[1::2] = map(ne, rows, cols)
    for dst, first, second in zip(out, (rows, cols, vals), (cols, rows, vals)):
        both = [None] * len(keep)
        both[::2] = first
        both[1::2] = second
        dst.extend(compress(both, keep))


def read_matrix_market(stream: Iterable[str]) -> tuple[CooMatrix, MatrixDescriptor]:
    """Parse a Matrix Market coordinate file into triple form.

    Returns the matrix and a descriptor whose symmetric flag records what
    the file header declared (the stored pattern is always fully expanded).
    """
    csr, desc = _read_matrix_market(stream)
    return to_tuples(csr), desc


def _read_matrix_market(stream: Iterable[str]) -> tuple[CompressedMatrix, MatrixDescriptor]:
    """`read_matrix_market`'s parse, returning the matrix in CSR."""
    lines = iter(stream)
    first = next(lines, None)
    if first is None:
        raise ParseError(1, "empty stream")
    header = _parse_banner(first, 1)
    field = _FIELDS[header.field]

    size_line = 1
    for size_line, raw in enumerate(lines, 2):
        size = _tokens(raw, "%")
        if size:
            break
    else:
        raise ParseError(size_line, "missing size line")
    if len(size) != 3:
        raise ParseError(size_line, f"size line needs 3 integers (got {len(size)})")
    try:
        nrows, ncols, nnz = (int(t) for t in size)
    except ValueError:
        raise ParseError(size_line, "size line needs 3 integers") from None
    if nrows < 0 or ncols < 0 or nnz < 0:
        raise ParseError(size_line, "size values must be non-negative")
    if max(nrows, ncols) > MAX_DIMENSION:
        raise ParseError(
            size_line, f"size {nrows}x{ncols} exceeds the dimension limit {MAX_DIMENSION}"
        )
    symmetric = header.symmetry == "symmetric"
    if symmetric and nrows != ncols:
        raise ParseError(size_line, "symmetric matrix must be square")

    out = [], [], []
    seen = 0
    start = size_line + 1  # the number of the next block's first line
    while block := list(islice(lines, _BLOCK)):
        parsed = seen + len(block) <= nnz and _mm_block(
            block, field, nrows, ncols, symmetric)
        if not parsed:
            # The per-line loop.
            parsed = rows, cols, vals = [], [], []
            for lineno, raw in enumerate(block, start):
                tokens = _tokens(raw, "%")
                if not tokens:
                    continue
                if seen + len(rows) == nnz:
                    raise ParseError(lineno, f"more than the declared {nnz} entries")
                if len(tokens) != field.width:
                    raise ParseError(
                        lineno, f"entry needs {field.width} tokens for field "
                        f"{header.field!r} (got {len(tokens)})"
                    )
                r = _parse_index(tokens[0], nrows, "row", lineno)
                c = _parse_index(tokens[1], ncols, "column", lineno)
                v = _parse_value(tokens[2:], field, lineno, f"{header.field} value")
                if symmetric and r < c:
                    raise ParseError(
                        lineno, "symmetric file stores the lower triangle only "
                        f"(entry at row {r + 1} < column {c + 1})"
                    )
                rows.append(r)
                cols.append(c)
                vals.append(v)
        seen += len(parsed[0])
        _extend(out, *parsed, symmetric)
        start += len(block)
    if seen != nnz:
        raise ParseError(start - 1, f"declared {nnz} entries but found {seen}")
    if header.field == "integer":
        _check_values(out[2], field.domain)
    csr = _assemble(nrows, ncols, *out, plus_monoid(field.domain))
    return csr, MatrixDescriptor(symmetric=symmetric)


def _csr(m) -> CompressedMatrix:
    """`m` stored by rows: a CooMatrix is compressed, a CSC matrix reoriented."""
    if isinstance(m, CooMatrix):
        return to_compressed(m)
    return reorient(m, ROW)


def serializable_field(m) -> str:
    """The Matrix Market field `m` (COO, CSR or CSC) is written with.

    Raises UnserializableDomainError, naming the first such entry in
    row-major order, when some value has no form the reader accepts, so
    callers can refuse a write before opening its destination.
    """
    csr = _csr(m)
    d = csr.domain
    if d.is_opaque:
        raise UnserializableDomainError("opaque-handle values have no text form")
    name = ("integer" if d.is_integer else "pattern" if d.is_boolean
            else "real" if d.is_float else "complex")
    carries = _FIELDS[name].carries
    if carries is None or all(map(carries, csr.values)):
        return name
    p, v = next((p, v) for p, v in enumerate(csr.values) if not carries(v))
    what = ("pattern file cannot store a false value" if d.is_boolean
            else f"non-finite value {v!r} has no Matrix Market form")
    row = bisect_right(csr.offsets, p) - 1
    raise UnserializableDomainError(f"{what} (at row {row}, column {csr.minor_indices[p]})")


def write_matrix_market(m, stream: IO[str]) -> None:
    """Serialize a matrix (COO, CSR or CSC) as Matrix Market coordinate,
    general symmetry, entries in row-major order.

    Floats are written in shortest round-trip-exact decimal form; a
    non-finite float or complex value has no form the reader accepts.
    Boolean matrices serialize as pattern files provided every stored value
    is true; opaque-handle matrices have no text form.  Every value is
    checked before the first write, so a refused write writes nothing.

    Entries are formatted a column at a time (rows, columns, then the
    field's value columns) and written _BLOCK lines at a time.
    """
    csr = _csr(m)
    name = serializable_field(csr)
    stream.write(f"%%MatrixMarket matrix coordinate {name} general\n")
    stream.write(f"{csr.nrows} {csr.ncols} {len(csr.values)}\n")
    # Each stored row's label is made once and repeated over its entries;
    # empty rows get none.
    labels = map(str, compress(range(1, csr.nrows + 1), _slice_sizes(csr.offsets)))
    rows = chain.from_iterable(map(repeat, labels, filter(None, _slice_sizes(csr.offsets))))
    # Each stored column's label is made once and looked up per entry.
    col_labels = {j: str(j + 1) for j in set(csr.minor_indices)}
    cols = map(col_labels.__getitem__, csr.minor_indices)
    lines = map(" ".join, zip(rows, cols, *_FIELDS[name].texts(csr.values)))
    while block := list(islice(lines, _BLOCK)):
        stream.write("\n".join(block))
        stream.write("\n")


def _edge_field(tokens: list[str]) -> _Field:
    """The field of an edge list whose first data line holds `tokens`."""
    return _FIELDS["real" if len(tokens) == 3 else "pattern"]


def read_edge_list(stream: Iterable[str], undirected: bool = False) -> CooMatrix:
    """Parse a TSV edge list: one `u v` or `u v w` line per edge, 0-based.

    Lines starting with '#' and blank lines are skipped.  The first data
    line sets the width of every line: with three columns every edge is a
    float-double weight, otherwise lines have two columns and every edge is
    the signed-int-64 value 1, as in an empty list.  The matrix is square
    with dimension 1 + the largest index seen, at most MAX_DIMENSION.  The
    undirected flag mirrors every edge between distinct endpoints;
    self-loops are stored once either way.
    """
    return to_tuples(_read_edge_list(stream, undirected))


def _read_edge_list(stream: Iterable[str], undirected: bool) -> CompressedMatrix:
    """`read_edge_list`'s parse, returning the matrix in CSR."""
    lines = iter(stream)
    field = None  # set by the first data line
    top = -1
    out = [], [], []
    start = 1  # the number of the next block's first line
    while block := list(islice(lines, _BLOCK)):
        guess = field or _edge_field(block[0].split())
        parsed = _edge_block(block, guess)
        if parsed:
            field, top = guess, max(top, parsed[3])
        else:
            # The per-line loop.
            parsed = rows, cols, vals = [], [], []
            for lineno, raw in enumerate(block, start):
                tokens = _tokens(raw, "#")
                if not tokens:
                    continue
                field = field or _edge_field(tokens)
                if len(tokens) != field.width:
                    raise ParseError(
                        lineno, f"expected {field.width} columns (got {len(tokens)})"
                    )
                try:
                    u = int(tokens[0])
                    v = int(tokens[1])
                except ValueError:
                    raise ParseError(lineno, f"invalid vertex index in {raw.strip()!r}") from None
                if u < 0 or v < 0:
                    raise IndexRangeError(
                        f"line {lineno}: negative vertex index {min(u, v)}"
                    )
                w = _parse_value(tokens[2:], field, lineno, "weight")
                if u > top or v > top:
                    top = max(u, v)
                    if top >= MAX_DIMENSION:
                        raise ParseError(lineno, f"vertex index {top} needs a dimension "
                                         f"above the limit {MAX_DIMENSION}")
                rows.append(u)
                cols.append(v)
                vals.append(w)
        _extend(out, *parsed[:3], undirected)
        start += len(block)
    n = top + 1
    return _assemble(n, n, *out, plus_monoid((field or _FIELDS["pattern"]).domain))
