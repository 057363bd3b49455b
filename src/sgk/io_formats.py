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
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .containers import CooMatrix, CompressedMatrix, MatrixDescriptor, Triple, build_from_triples, to_tuples
from .domains import COMPLEX128, FLOAT64, INT64, ValueDomain
from .errors import IndexRangeError, ParseError, UnserializableDomainError
from .semirings import plus_monoid

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


def _finite_float(token: str, lineno: int, what: str) -> float:
    """Parse a finite float; `what` names the value in errors ("real value",
    "weight"), and its last word names it when the value is not finite."""
    try:
        v = float(token)
    except ValueError:
        raise ParseError(lineno, f"invalid {what} {token!r}") from None
    if not math.isfinite(v):
        raise ParseError(lineno, f"non-finite {what.rpartition(' ')[2]} {token!r}")
    return v


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
    rows = iter(data)
    size_line, size = next(rows, (None, None))
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
    symmetric = header.symmetry == "symmetric"
    if symmetric and nrows != ncols:
        raise ParseError(size_line, "symmetric matrix must be square")

    want = 2 if header.field == "pattern" else (4 if header.field == "complex" else 3)
    triples: list[Triple] = []
    seen = 0
    for lineno, tokens in rows:
        if seen == nnz:
            raise ParseError(lineno, f"more than the declared {nnz} entries")
        if len(tokens) != want:
            raise ParseError(
                lineno, f"entry needs {want} tokens for field "
                f"{header.field!r} (got {len(tokens)})"
            )
        r = _parse_index(tokens[0], nrows, "row", lineno)
        c = _parse_index(tokens[1], ncols, "column", lineno)
        if header.field == "pattern":
            v = 1
        elif header.field == "integer":
            try:
                v = int(tokens[2])
            except ValueError:
                raise ParseError(lineno, f"invalid integer value {tokens[2]!r}") from None
        elif header.field == "real":
            v = _finite_float(tokens[2], lineno, "real value")
        else:
            try:
                v = complex(float(tokens[2]), float(tokens[3]))
            except ValueError:
                raise ParseError(
                    lineno, f"invalid complex value {tokens[2]!r} {tokens[3]!r}"
                ) from None
            if not cmath.isfinite(v):
                raise ParseError(lineno, f"non-finite value {tokens[2]!r} {tokens[3]!r}")
        if symmetric:
            if r < c:
                raise ParseError(
                    lineno, "symmetric file stores the lower triangle only "
                    f"(entry at row {r + 1} < column {c + 1})"
                )
            triples.append(Triple(r, c, v))
            if r != c:
                triples.append(Triple(c, r, v))
        else:
            triples.append(Triple(r, c, v))
        seen += 1
    if seen != nnz:
        raise ParseError(data.lineno, f"declared {nnz} entries but found {seen}")
    coo = build_from_triples(nrows, ncols, triples, plus_monoid(domain))
    return coo, MatrixDescriptor(symmetric=symmetric)


def _format_value(v, domain: ValueDomain) -> str:
    if domain.is_complex:
        return f"{v.real!r} {v.imag!r}"
    if domain.is_float:
        return repr(float(v))
    return str(v)


def serializable_field(m: CooMatrix) -> str:
    """The Matrix Market field `m` is written with.

    Raises UnserializableDomainError when some value has no form the reader
    accepts, so callers can refuse a write before opening its destination.
    """
    d = m.domain
    if d.is_opaque:
        raise UnserializableDomainError("opaque-handle values have no text form")
    if d.is_boolean:
        for t in m.triples:
            if not t.val:
                raise UnserializableDomainError(
                    "pattern file cannot store a false value "
                    f"(at row {t.row}, column {t.col})"
                )
        return "pattern"
    if d.is_integer:
        return "integer"
    isfinite = math.isfinite if d.is_float else cmath.isfinite
    for t in m.triples:
        if not isfinite(t.val):
            raise UnserializableDomainError(
                f"non-finite value {t.val!r} has no Matrix Market form "
                f"(at row {t.row}, column {t.col})"
            )
    return "real" if d.is_float else "complex"


def write_matrix_market(m, stream: IO[str]) -> None:
    """Serialize a matrix as Matrix Market coordinate, general symmetry.

    Floats are written in shortest round-trip-exact decimal form; a
    non-finite float or complex value has no form the reader accepts.
    Boolean matrices serialize as pattern files provided every stored value
    is true; opaque-handle matrices have no text form.
    """
    if isinstance(m, CompressedMatrix):
        m = to_tuples(m)
    d = m.domain
    field = serializable_field(m)
    stream.write(f"%%MatrixMarket matrix coordinate {field} general\n")
    stream.write(f"{m.nrows} {m.ncols} {len(m.triples)}\n")
    if field == "pattern":
        for t in m.triples:
            stream.write(f"{t.row + 1} {t.col + 1}\n")
    else:
        for t in m.triples:
            stream.write(f"{t.row + 1} {t.col + 1} {_format_value(t.val, d)}\n")


def edge_list_is_weighted(lines: Sequence[str]) -> bool:
    """Whether a TSV edge list is weighted: its first data line has three columns.

    `lines` is read again by the caller's `read_edge_list`, so it must be a
    sequence; a file object or generator would lose the line read here.
    """
    for _lineno, tokens in _DataLines(lines, "#"):
        return len(tokens) == 3
    return False


def read_edge_list(stream: Iterable[str], weighted: bool = False,
                   undirected: bool = False) -> CooMatrix:
    """Parse a TSV edge list: one `u v` or `u v w` line per edge, 0-based.

    Lines starting with '#' and blank lines are skipped.  The matrix is
    square with dimension 1 + the largest index seen.  The undirected flag
    mirrors every edge between distinct endpoints; self-loops are stored
    once either way.  Unweighted edges get value 1.
    """
    domain = FLOAT64 if weighted else INT64
    want = 3 if weighted else 2
    triples: list[Triple] = []
    top = -1
    data = _DataLines(stream, "#")
    for lineno, tokens in data:
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
        w = _finite_float(tokens[2], lineno, "weight") if weighted else 1
        top = max(top, u, v)
        triples.append(Triple(u, v, w))
        if undirected and u != v:
            triples.append(Triple(v, u, w))
    n = top + 1
    return build_from_triples(n, n, triples, plus_monoid(domain))
