"""Readers and writers: Matrix Market coordinate files and TSV edge lists.

Matrix Market files are 1-based; everything in memory is 0-based.  Only
the coordinate format is handled, with general or symmetric symmetry.
Symmetric files must store the lower triangle (row >= column) and are
expanded to the full pattern on read, mirroring off-diagonal entries only.
Duplicate entries, in either format, collapse by addition.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import IO, Iterable, NoReturn

from .containers import (ROW, CompressedMatrix, CooMatrix, MatrixDescriptor, _assemble, _slice,
                         reorient, to_compressed)
from .domains import COMPLEX128, FLOAT64, INT64
from .errors import IndexRangeError, ParseError, UnserializableDomainError
from .semirings import plus_monoid

# The most rows or columns either reader accepts.  Compressed storage holds
# one offset per row or column whether or not the file stores entries there.
MAX_DIMENSION = 2**24

_FIELDS = ("real", "integer", "complex", "pattern")
_SYMMETRIES = ("general", "symmetric")

_FIELD_DOMAIN = {
    "real": FLOAT64,
    "integer": INT64,
    "complex": COMPLEX128,
    "pattern": INT64,
}


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


class _DataLines:
    """The data lines of a text stream as (lineno, tokens) pairs.

    Blank lines and lines starting with `comment` are skipped; numbering
    continues from `lineno`.  Once the stream is exhausted `lineno` is the
    number of its last line, data or not, for errors raised at the end of
    input; `text` is the last data line yielded, stripped.
    """

    def __init__(self, lines: Iterable[str], comment: str, lineno: int = 0):
        self._lines = iter(lines)
        self._comment = comment
        self.lineno = lineno
        self.text = ""

    def __iter__(self):
        lineno = self.lineno
        for lineno, raw in enumerate(self._lines, lineno + 1):
            text = raw.strip()
            if text and not text.startswith(self._comment):
                self.text = text
                yield lineno, text.split()
        self.lineno = lineno


def _refuse_float(token: str, lineno: int, what: str) -> NoReturn:
    """Raise the ParseError for a float token a reader refused: invalid when
    it does not parse, non-finite when it does.  `what` names the value
    ("real value", "weight"); its last word names a non-finite one."""
    try:
        float(token)
    except ValueError:
        raise ParseError(lineno, f"invalid {what} {token!r}") from None
    raise ParseError(lineno, f"non-finite {what.rpartition(' ')[2]} {token!r}")


def read_matrix_market(stream: Iterable[str]) -> tuple[CooMatrix, MatrixDescriptor]:
    """Parse a Matrix Market coordinate file into triple form.

    Returns the matrix and a descriptor whose symmetric flag records what
    the file header declared (the stored pattern is always fully expanded).
    """
    lines = iter(stream)
    first = next(lines, None)
    if first is None:
        raise ParseError(1, "empty stream")
    header = _parse_banner(first, 1)
    domain = _FIELD_DOMAIN[header.field]

    data = _DataLines(lines, "%", lineno=1)
    entries = iter(data)
    size_line, size = next(entries, (None, None))
    if size is None:
        raise ParseError(data.lineno, "missing size line")
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

    field = header.field
    want = 2 if field == "pattern" else (4 if field == "complex" else 3)
    rows: list[int] = []
    cols: list[int] = []
    vals: list = []
    seen = 0
    # Each token is parsed inline; the helpers run only on a failed test,
    # to raise their error.
    for lineno, tokens in entries:
        if seen == nnz:
            raise ParseError(lineno, f"more than the declared {nnz} entries")
        if len(tokens) != want:
            raise ParseError(
                lineno, f"entry needs {want} tokens for field "
                f"{field!r} (got {len(tokens)})"
            )
        try:
            r = int(tokens[0]) - 1
            c = int(tokens[1]) - 1
        except ValueError:
            r = c = -1
        if not (0 <= r < nrows and 0 <= c < ncols):
            r = _parse_index(tokens[0], nrows, "row", lineno)
            c = _parse_index(tokens[1], ncols, "column", lineno)
        if field == "real":
            try:
                v = float(tokens[2])
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                _refuse_float(tokens[2], lineno, "real value")
        elif field == "pattern":
            v = 1
        elif field == "integer":
            try:
                v = int(tokens[2])
            except ValueError:
                raise ParseError(lineno, f"invalid integer value {tokens[2]!r}") from None
        else:
            try:
                v = complex(float(tokens[2]), float(tokens[3]))
            except ValueError:
                raise ParseError(
                    lineno, f"invalid complex value {tokens[2]!r} {tokens[3]!r}"
                ) from None
            if not cmath.isfinite(v):
                raise ParseError(lineno, f"non-finite value {tokens[2]!r} {tokens[3]!r}")
        if symmetric and r < c:
            raise ParseError(
                lineno, "symmetric file stores the lower triangle only "
                f"(entry at row {r + 1} < column {c + 1})"
            )
        rows.append(r)
        cols.append(c)
        vals.append(v)
        if symmetric and r != c:
            rows.append(c)
            cols.append(r)
            vals.append(v)
        seen += 1
    if seen != nnz:
        raise ParseError(data.lineno, f"declared {nnz} entries but found {seen}")
    coo = _assemble(nrows, ncols, rows, cols, vals, plus_monoid(domain))
    return coo, MatrixDescriptor(symmetric=symmetric)


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
    if d.is_integer:
        return "integer"
    if d.is_boolean:
        field, ok = "pattern", bool
    else:
        field, ok = ("real", math.isfinite) if d.is_float else ("complex", cmath.isfinite)
    for p, v in enumerate(csr.values):
        if not ok(v):
            what = ("pattern file cannot store a false value" if field == "pattern"
                    else f"non-finite value {v!r} has no Matrix Market form")
            row = bisect_right(csr.offsets, p) - 1
            raise UnserializableDomainError(
                f"{what} (at row {row}, column {csr.minor_indices[p]})"
            )
    return field


# The text of one stored value, with its leading space, per field.
_FORMATS = {
    "pattern": lambda v: "",
    "integer": lambda v: f" {v}",
    "real": lambda v: f" {float(v)!r}",
    "complex": lambda v: f" {v.real!r} {v.imag!r}",
}


def write_matrix_market(m, stream: IO[str]) -> None:
    """Serialize a matrix (COO, CSR or CSC) as Matrix Market coordinate,
    general symmetry, entries in row-major order.

    Floats are written in shortest round-trip-exact decimal form; a
    non-finite float or complex value has no form the reader accepts.
    Boolean matrices serialize as pattern files provided every stored value
    is true; opaque-handle matrices have no text form.  Every value is
    checked before the first write, so a refused write writes nothing.
    """
    csr = _csr(m)
    field = serializable_field(csr)
    fmt = _FORMATS[field]
    stream.write(f"%%MatrixMarket matrix coordinate {field} general\n")
    stream.write(f"{csr.nrows} {csr.ncols} {len(csr.values)}\n")
    for i in range(csr.nrows):
        stream.writelines(f"{i + 1} {j + 1}{fmt(v)}\n" for j, v in _slice(csr, i))


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
    want = 0
    rows: list[int] = []
    cols: list[int] = []
    vals: list = []
    top = -1
    data = _DataLines(stream, "#")
    for lineno, tokens in data:
        if not want:
            want = 3 if len(tokens) == 3 else 2
        if len(tokens) != want:
            raise ParseError(
                lineno, f"expected {want} columns (got {len(tokens)})"
            )
        try:
            u = int(tokens[0])
            v = int(tokens[1])
        except ValueError:
            raise ParseError(lineno, f"invalid vertex index in {data.text!r}") from None
        if u < 0 or v < 0:
            raise IndexRangeError(
                f"line {lineno}: negative vertex index {min(u, v)}"
            )
        if want == 3:
            try:
                w = float(tokens[2])
            except ValueError:
                w = math.nan
            if not math.isfinite(w):
                _refuse_float(tokens[2], lineno, "weight")
        else:
            w = 1
        if u > top or v > top:
            top = max(u, v)
            if top >= MAX_DIMENSION:
                raise ParseError(
                    lineno, f"vertex index {top} needs a dimension above the limit {MAX_DIMENSION}"
                )
        rows.append(u)
        cols.append(v)
        vals.append(w)
        if undirected and u != v:
            rows.append(v)
            cols.append(u)
            vals.append(w)
    n = top + 1
    return _assemble(n, n, rows, cols, vals, plus_monoid(FLOAT64 if want == 3 else INT64))
