import cmath
import io
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import coo_matrices, sampler_for
from sgk import io_formats
from sgk.cli import run
from sgk.containers import (
    COL,
    ROW,
    CooMatrix,
    MatrixDescriptor,
    Triple,
    _slice,
    entries_of,
    is_symmetric,
    to_compressed,
    to_tuples,
)
from sgk.domains import (
    BOOLEAN,
    COMPLEX128,
    FLOAT64,
    INT64,
    OPAQUE,
)
from sgk.errors import (
    DomainMismatchError,
    IndexRangeError,
    ParseError,
    UnserializableDomainError,
)
from sgk.io_formats import (
    _FIELDS,
    MatrixMarketHeader,
    _columns,
    _tokens,
    read_edge_list,
    read_matrix_market,
    serializable_field,
    write_matrix_market,
)


def mm(text: str):
    return read_matrix_market(io.StringIO(text))


@pytest.fixture(params=[None, 1, 2], ids=["block-default", "block-1", "block-2"])
def block(request, monkeypatch):
    """Runs a test with the readers' default block size and with blocks of
    one and two lines, so that its texts span several blocks."""
    if request.param:
        monkeypatch.setattr(io_formats, "_BLOCK", request.param)


# ---------------------------------------------------------------------------
# Matrix Market reading


def test_read_general_real_file():
    m, desc = mm(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "\n"
        "2 3 2\n"
        "1 3 2.5\n"
        "2 1 -1.0\n"
    )
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.triples == (Triple(0, 2, 2.5), Triple(1, 0, -1.0))
    assert m.domain is FLOAT64
    assert desc.symmetric is False


def test_read_pattern_entry_becomes_one():
    m, _ = mm(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 1\n"
        "1 2\n"
    )
    assert m.triples == (Triple(0, 1, 1),)
    assert m.domain is INT64


def test_read_integer_and_complex_fields():
    m, _ = mm(
        "%%MatrixMarket matrix coordinate integer general\n"
        "1 1 1\n"
        "1 1 -7\n"
    )
    assert m.triples == (Triple(0, 0, -7),)
    c, _ = mm(
        "%%MatrixMarket matrix coordinate complex general\n"
        "1 1 1\n"
        "1 1 1.5 -2.0\n"
    )
    assert c.triples == (Triple(0, 0, complex(1.5, -2.0)),)
    assert c.domain is COMPLEX128


def test_read_symmetric_expands_lower_triangle():
    m, desc = mm(
        "%%MatrixMarket matrix coordinate integer symmetric\n"
        "3 3 3\n"
        "2 1 5\n"
        "3 1 6\n"
        "3 3 9\n"
    )
    assert desc.symmetric is True
    assert entries_of(to_compressed(m)) == entries_of(to_compressed(CooMatrix(
        3, 3,
        (Triple(0, 1, 5), Triple(0, 2, 6), Triple(1, 0, 5),
         Triple(2, 0, 6), Triple(2, 2, 9)),
        INT64,
    )))
    assert is_symmetric(to_compressed(m))


def test_read_symmetric_rejects_upper_triangle_entry():
    with pytest.raises(ParseError, match="lower triangle"):
        mm(
            "%%MatrixMarket matrix coordinate integer symmetric\n"
            "2 2 1\n"
            "1 2 5\n"
        )


def test_read_symmetric_diagonal_not_doubled():
    m, _ = mm(
        "%%MatrixMarket matrix coordinate integer symmetric\n"
        "2 2 1\n"
        "2 2 4\n"
    )
    assert m.triples == (Triple(1, 1, 4),)


def test_read_duplicates_collapse_by_addition():
    m, _ = mm(
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 2 2\n"
        "1 1 3\n"
        "1 1 4\n"
    )
    assert m.triples == (Triple(0, 0, 7),)


def test_read_banner_rejections():
    with pytest.raises(ParseError, match="banner"):
        mm("1 2 3\n")
    with pytest.raises(ParseError, match="unsupported format"):
        mm("%%MatrixMarket matrix array real general\n2 2 4\n")
    with pytest.raises(ParseError, match="unsupported symmetry"):
        mm("%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n")
    with pytest.raises(ParseError, match="unsupported field"):
        mm("%%MatrixMarket matrix coordinate decimal general\n1 1 0\n")
    with pytest.raises(ParseError, match="5 tokens"):
        mm("%%MatrixMarket matrix coordinate real\n1 1 0\n")


def test_read_banner_is_case_insensitive():
    m, _ = mm(
        "%%MATRIXMARKET MATRIX Coordinate Real General\n"
        "1 1 1\n"
        "1 1 0.5\n"
    )
    assert m.triples == (Triple(0, 0, 0.5),)


def test_read_size_line_problems():
    with pytest.raises(ParseError, match="missing size line"):
        mm("%%MatrixMarket matrix coordinate real general\n% only comments\n")
    with pytest.raises(ParseError, match="3 integers"):
        mm("%%MatrixMarket matrix coordinate real general\n2 2\n")
    with pytest.raises(ParseError, match="non-negative"):
        mm("%%MatrixMarket matrix coordinate real general\n-1 2 0\n")
    with pytest.raises(ParseError, match="must be square"):
        mm("%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n")


def test_read_entry_count_mismatches():
    with pytest.raises(ParseError, match="more than the declared"):
        mm(
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 1\n"
            "1 1 1\n"
            "2 2 1\n"
        )
    with pytest.raises(ParseError, match="declared 2 entries but found 1"):
        mm(
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 2\n"
            "1 1 1\n"
        )


def test_read_out_of_bounds_index():
    with pytest.raises(IndexRangeError, match=r"out of bounds \[1, 2\]"):
        mm(
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 1\n"
            "3 1 9\n"
        )
    with pytest.raises(IndexRangeError):
        mm(
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 1\n"
            "0 1 9\n"
        )


def test_read_wrong_token_count_per_field():
    with pytest.raises(ParseError, match="entry needs 3 tokens"):
        mm(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 1\n"
        )
    with pytest.raises(ParseError, match="entry needs 2 tokens"):
        mm(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 1\n"
            "1 1 1\n"
        )


@pytest.mark.parametrize("entry", ["1 1 inf", "1 1 -inf", "1 1 nan", "1 1 Infinity"])
def test_read_rejects_non_finite_real(entry):
    with pytest.raises(ParseError, match=r"line 3: non-finite value"):
        mm("%%MatrixMarket matrix coordinate real general\n2 2 1\n" + entry + "\n")


@pytest.mark.parametrize("entry", ["1 1 inf 0", "1 1 0 nan"])
def test_read_rejects_non_finite_complex_part(entry):
    with pytest.raises(ParseError, match=r"line 3: non-finite value"):
        mm("%%MatrixMarket matrix coordinate complex general\n2 2 1\n" + entry + "\n")


def test_read_empty_matrix():
    m, _ = mm("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
    assert (m.nrows, m.ncols, m.triples) == (0, 0, ())


def test_header_dataclass_validates():
    with pytest.raises(ValueError):
        MatrixMarketHeader(object="vector", format="coordinate",
                           field="real", symmetry="general")


# ---------------------------------------------------------------------------
# Matrix Market writing


def roundtrip(m):
    buf = io.StringIO()
    write_matrix_market(m, buf)
    buf.seek(0)
    back, desc = read_matrix_market(buf)
    return back, desc, buf.getvalue()


def test_write_read_identity_float():
    m = CooMatrix(2, 2, (Triple(0, 1, 0.1), Triple(1, 0, -2.5e-17)), FLOAT64)
    back, _, text = roundtrip(m)
    assert back.triples == m.triples
    assert "0.1" in text


def test_write_read_identity_complex():
    m = CooMatrix(1, 2, (Triple(0, 0, complex(0.1, -0.3)),), COMPLEX128)
    back, _, _ = roundtrip(m)
    assert back.triples == m.triples


# The forms the writer accepts, each built from a CooMatrix.
FORMS = [
    pytest.param(lambda coo: coo, id="coo"),
    pytest.param(lambda coo: to_compressed(coo, ROW), id="csr"),
    pytest.param(lambda coo: to_compressed(coo, COL), id="csc"),
]


@pytest.mark.parametrize("form", FORMS[1:])
def test_write_accepts_compressed_input(form):
    coo = CooMatrix(2, 2, (Triple(0, 1, 5), Triple(1, 0, 6), Triple(1, 1, 7)), INT64)
    back, _, text = roundtrip(form(coo))
    assert back.triples == coo.triples
    assert text == "%%MatrixMarket matrix coordinate integer general\n2 2 3\n1 2 5\n2 1 6\n2 2 7\n"


def test_write_boolean_as_pattern():
    m = CooMatrix(2, 2, (Triple(0, 1, True),), BOOLEAN)
    back, _, text = roundtrip(m)
    assert "pattern" in text.splitlines()[0]
    assert back.domain is INT64
    assert back.triples == (Triple(0, 1, 1),)


@pytest.mark.parametrize("form", FORMS)
def test_write_boolean_false_value_rejected(form):
    """The first false value in row-major order is named, whatever the
    storage order: (0, 1) comes before (1, 0) although CSC stores it after."""
    m = form(CooMatrix(2, 2, (Triple(0, 0, True), Triple(0, 1, False),
                              Triple(1, 0, False)), BOOLEAN))
    with pytest.raises(UnserializableDomainError,
                       match=r"^pattern file cannot store a false value \(at row 0, column 1\)$"):
        write_matrix_market(m, io.StringIO())


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("domain,value", [
    (FLOAT64, float("inf")), (FLOAT64, float("nan")),
    (COMPLEX128, complex(1.0, float("-inf"))), (COMPLEX128, complex(float("nan"), 0.0)),
])
def test_write_non_finite_value_rejected(domain, value, form):
    m = form(CooMatrix(2, 2, (Triple(0, 0, 1.0 if domain is FLOAT64 else 1j),
                              Triple(1, 0, value)), domain))
    buf = io.StringIO()
    with pytest.raises(UnserializableDomainError, match=r"non-finite value .* row 1, column 0"):
        write_matrix_market(m, buf)
    assert buf.getvalue() == ""


def test_write_opaque_rejected():
    m = CooMatrix(1, 1, (Triple(0, 0, object()),), OPAQUE)
    with pytest.raises(UnserializableDomainError):
        write_matrix_market(m, io.StringIO())


def test_write_always_declares_general_symmetry():
    m = CooMatrix(2, 2, (Triple(0, 1, 5), Triple(1, 0, 5)), INT64)
    _, desc, text = roundtrip(m)
    assert text.splitlines()[0].endswith("general")
    assert desc.symmetric is False


def test_write_read_random_float_matrices_bit_exact():
    rng = random.Random(113)
    sample = sampler_for("plus_times")
    for _ in range(20):
        n = rng.randint(0, 6)
        cells = {
            (rng.randrange(n), rng.randrange(n)): sample(rng)
            for _ in range(rng.randint(0, n * n))
        } if n else {}
        m = CooMatrix(
            n, n,
            tuple(Triple(r, c, v) for (r, c), v in sorted(cells.items())),
            FLOAT64,
        )
        back, _, _ = roundtrip(m)
        assert back.triples == m.triples


def _reference_text(nrows, ncols, triples, d) -> str:
    """Matrix Market text as the writer rendered it from (row, col)-sorted
    triples, choosing the value format per entry; a refusal renders as
    `error: <message>`."""
    if d.is_boolean:
        ok, field = bool, "pattern"
    elif d.is_integer:
        ok, field = None, "integer"
    else:
        ok, field = (math.isfinite, "real") if d.is_float else (cmath.isfinite, "complex")
    for t in triples if ok else ():
        if not ok(t.val):
            what = ("pattern file cannot store a false value" if d.is_boolean
                    else f"non-finite value {t.val!r} has no Matrix Market form")
            return f"error: {what} (at row {t.row}, column {t.col})"
    lines = [f"%%MatrixMarket matrix coordinate {field} general", f"{nrows} {ncols} {len(triples)}"]
    for t in triples:
        if d.is_boolean:
            lines.append(f"{t.row + 1} {t.col + 1}")
        elif d.is_complex:
            lines.append(f"{t.row + 1} {t.col + 1} {t.val.real!r} {t.val.imag!r}")
        elif d.is_float:
            lines.append(f"{t.row + 1} {t.col + 1} {repr(float(t.val))}")
        else:
            lines.append(f"{t.row + 1} {t.col + 1} {t.val}")
    return "".join(line + "\n" for line in lines)


def _written(m) -> str:
    buf = io.StringIO()
    try:
        field = serializable_field(m)
        write_matrix_market(m, buf)
    except UnserializableDomainError as e:
        assert buf.getvalue() == ""
        return f"error: {e}"
    assert buf.getvalue().startswith(f"%%MatrixMarket matrix coordinate {field} ")
    return buf.getvalue()


# Finite values per domain, and the values the writer refuses.
_VALUES = {
    INT64: (st.integers(-2**63, 2**63 - 1), []),
    FLOAT64: (st.floats(allow_nan=False, allow_infinity=False),
              [math.inf, -math.inf, math.nan]),
    COMPLEX128: (st.complex_numbers(allow_nan=False, allow_infinity=False),
                 [complex(math.inf, 0.0), complex(0.0, math.nan)]),
    BOOLEAN: (st.just(True), [False]),
}


@pytest.mark.parametrize("domain", list(_VALUES), ids=lambda d: d.kind)
@given(data=st.data())
def test_written_text_matches_the_triple_reference_in_every_form(domain, data):
    """COO, CSR and CSC forms write the text the per-triple reference renders,
    refusals included; up to two entries get a value the writer refuses."""
    values, refused = _VALUES[domain]
    coo = data.draw(coo_matrices(domain=domain, values=values))
    if refused and coo.triples:
        bad = data.draw(st.sets(st.integers(0, len(coo.triples) - 1), max_size=2))
        coo = CooMatrix(coo.nrows, coo.ncols, tuple(
            Triple(t.row, t.col, data.draw(st.sampled_from(refused))) if k in bad else t
            for k, t in enumerate(coo.triples)), domain)
    for m in (coo, to_compressed(coo, ROW), to_compressed(coo, COL)):
        triples = m.triples if m is coo else to_tuples(m).triples
        assert _written(m) == _reference_text(coo.nrows, coo.ncols, triples, domain)


# The per-entry value text of the writer that formatted one entry at a time,
# with its leading space, per field.
_ENTRY_TEXT = {
    "real": lambda v: f" {float(v)!r}",
    "integer": lambda v: f" {v}",
    "complex": lambda v: f" {v.real!r} {v.imag!r}",
    "pattern": lambda v: "",
}


def _per_entry_written(m) -> str:
    """The text of the writer that formatted one f-string per entry, row by
    row; the reference for the writer that formats whole columns."""
    csr = io_formats._csr(m)
    name = serializable_field(csr)
    text = _ENTRY_TEXT[name]
    buf = io.StringIO()
    buf.write(f"%%MatrixMarket matrix coordinate {name} general\n")
    buf.write(f"{csr.nrows} {csr.ncols} {len(csr.values)}\n")
    for i in range(csr.nrows):
        buf.writelines(f"{i + 1} {j + 1}{text(v)}\n" for j, v in _slice(csr, i))
    return buf.getvalue()


def _column_written(m, block=None) -> str:
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if block:
            mp.setattr(io_formats, "_BLOCK", block)
        write_matrix_market(m, buf)
    return buf.getvalue()


@pytest.mark.parametrize("domain", list(_VALUES), ids=lambda d: d.kind)
@settings(max_examples=150)
@given(data=st.data())
def test_column_writer_matches_the_per_entry_writer(domain, data):
    """Every field, from COO, CSR and CSC input, with empty rows and empty
    matrices, in blocks of one to three lines as well as the default."""
    nrows, ncols = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12))
    rows = data.draw(st.sets(st.integers(0, nrows - 1))) if nrows and ncols else set()
    cells = data.draw(st.dictionaries(
        st.tuples(st.sampled_from(sorted(rows)), st.integers(0, ncols - 1)),
        _VALUES[domain][0], max_size=40)) if rows else {}
    coo = CooMatrix(nrows, ncols, tuple(Triple(r, c, v) for (r, c), v in sorted(cells.items())),
                    domain)
    block = data.draw(st.sampled_from([None, 1, 2, 3]))
    for m in (coo, to_compressed(coo, ROW), to_compressed(coo, COL)):
        assert _column_written(m, block) == _per_entry_written(m)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("domain", list(_VALUES), ids=lambda d: d.kind)
def test_column_writer_matches_the_per_entry_writer_across_blocks(domain, form):
    """More than two default blocks of entries, every third row empty."""
    rng = random.Random(29)
    values = {INT64: lambda: rng.randrange(-2**63, 2**63), FLOAT64: lambda: rng.uniform(-1e9, 1e9),
              COMPLEX128: lambda: complex(rng.gauss(0, 1), rng.gauss(0, 1e-300)),
              BOOLEAN: lambda: True}[domain]
    n = 60
    cells = [(r, c) for r in range(n) if r % 3 for c in range(n)]
    assert len(cells) > 2 * io_formats._BLOCK
    m = form(CooMatrix(n, n, tuple(Triple(r, c, values()) for r, c in cells), domain))
    assert _column_written(m) == _per_entry_written(m)


# ---------------------------------------------------------------------------
# Edge lists


def el(text, **kw):
    return read_edge_list(io.StringIO(text), **kw)


def test_edge_list_directed_pair():
    m = el("0 1\n1 2\n")
    assert (m.nrows, m.ncols) == (3, 3)
    assert m.triples == (Triple(0, 1, 1), Triple(1, 2, 1))
    assert m.domain is INT64


@pytest.mark.parametrize("text, domain", [
    ("# u v w\n\n   \t\n  0 1 2.5  \n1 2 3\n", FLOAT64),
    ("0 1\n1 2\n", INT64),
    ("# comments only\n\n", INT64),
    ("", INT64),
])
def test_edge_list_first_data_line_sets_the_domain(text, domain):
    assert el(text).domain is domain


def test_edge_list_undirected_mirrors():
    m = el("0 1\n", undirected=True)
    assert m.triples == (Triple(0, 1, 1), Triple(1, 0, 1))


def test_edge_list_self_loop_not_mirrored():
    m = el("1 1\n", undirected=True)
    assert m.triples == (Triple(1, 1, 1),)


def test_edge_list_weighted():
    m = el("0 1 2.5\n1 0 0.5\n")
    assert m.domain is FLOAT64
    assert m.triples == (Triple(0, 1, 2.5), Triple(1, 0, 0.5))


def test_edge_list_comments_and_blanks_skipped():
    m = el("# header\n\n0 1\n   \n# done\n")
    assert m.triples == (Triple(0, 1, 1),)


def test_edge_list_duplicate_edges_accumulate():
    m = el("0 1\n0 1\n")
    assert m.triples == (Triple(0, 1, 2),)


@pytest.mark.parametrize("text, message", [
    ("0 1 5\n0 1\n", "line 2: expected 3 columns (got 2)"),
    ("0 1\n0 1 5\n", "line 2: expected 2 columns (got 3)"),
    ("# w\n0 1 2 3\n", "line 2: expected 2 columns (got 4)"),
    ("0\n", "line 1: expected 2 columns (got 1)"),
])
def test_edge_list_column_count_errors(text, message):
    """The first data line sets the width; three columns means weighted."""
    with pytest.raises(ParseError) as e:
        el(text)
    assert str(e.value) == message


def test_edge_list_bad_tokens():
    with pytest.raises(ParseError, match="invalid vertex index"):
        el("a 1\n")
    with pytest.raises(IndexRangeError, match="line 1: negative vertex index"):
        el("0 -2\n")
    with pytest.raises(ParseError, match="invalid weight"):
        el("0 1 x\n")
    with pytest.raises(ParseError, match="non-finite weight"):
        el("0 1 inf\n")
    with pytest.raises(ParseError, match="non-finite weight"):
        el("0 1 nan\n")


_BANNER = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("read, text, message", [
    (mm, "", "line 1: empty stream"),
    (mm, _BANNER, "line 1: missing size line"),
    (mm, _BANNER + "% c\n\n", "line 3: missing size line"),
    (mm, _BANNER + "\n2 2 1\n\n", "line 4: declared 1 entries but found 0"),
    (mm, _BANNER + "2 2 2\n1 1 1.0\n% trailing\n\n", "line 5: declared 2 entries but found 1"),
    (mm, _BANNER + "2 2 1\n1 1 1.0\n%\n2 2 1.0\n", "line 5: more than the declared 1 entries"),
    (mm, _BANNER + "2 2 1\n1 1 x\n", "line 3: invalid real value 'x'"),
    (mm, _BANNER + "2 2 1\n1 1 -inf\n", "line 3: non-finite value '-inf'"),
    (mm, _BANNER.replace("real", "complex") + "2 2 1\n1 1 1 x\n",
     "line 3: invalid complex value '1' 'x'"),
    (el, "# c\n\n0\t x\n", "line 3: invalid vertex index in '0\\t x'"),
    (el, "\n0 1 y\n", "line 2: invalid weight 'y'"),
    (el, "0 1 1\n0 1 NaN\n", "line 2: non-finite weight 'NaN'"),
    # A refused index names its axis; a refused value says why it was refused.
    (mm, _BANNER + "2 2 1\nx 1 1.0\n", "line 3: invalid row index 'x'"),
    (mm, _BANNER + "2 2 1\n1 x 1.0\n", "line 3: invalid column index 'x'"),
    (mm, _BANNER + "2 2 1\n1 1.5 1.0\n", "line 3: invalid column index '1.5'"),
    (mm, _BANNER + "2 2 1\n1 1 nan\n", "line 3: non-finite value 'nan'"),
    (mm, _BANNER + "2 2 1\n1 1 1e999\n", "line 3: non-finite value '1e999'"),
    # The row is checked before the column, and both before the value.
    (mm, _BANNER + "2 2 1\nx y z\n", "line 3: invalid row index 'x'"),
    (mm, _BANNER + "2 2 1\n1 y z\n", "line 3: invalid column index 'y'"),
    # The first bad line is reported, however bad the lines after it.
    (mm, _BANNER + "2 2 2\n1 1 z\nx 9 inf\n", "line 3: invalid real value 'z'"),
    (el, "0 1 x\ny 1 2\n", "line 1: invalid weight 'x'"),
    (el, "0 1 inf\n-1 2 3\n", "line 1: non-finite weight 'inf'"),
])
def test_reader_errors_name_the_line_and_quote_it(block, read, text, message):
    """End-of-input errors name the last line read, blank or comment lines
    included, and a bad vertex index quotes the whole stripped line."""
    with pytest.raises(ParseError) as e:
        read(text)
    assert str(e.value) == message


_INTEGER = "%%MatrixMarket matrix coordinate integer general\n"


@pytest.mark.parametrize("read, text, error, message", [
    (mm, _BANNER + "2 2 1\n0 1 1.0\n", IndexRangeError,
     "line 3: row index 0 out of bounds [1, 2]"),
    (mm, _BANNER + "2 2 1\n3 1 1.0\n", IndexRangeError,
     "line 3: row index 3 out of bounds [1, 2]"),
    (mm, _BANNER + "2 3 1\n2 4 1.0\n", IndexRangeError,
     "line 3: column index 4 out of bounds [1, 3]"),
    (mm, _BANNER + "2 2 1\n99999999999999999999 1 1.0\n", IndexRangeError,
     "line 3: row index 99999999999999999999 out of bounds [1, 2]"),
    # A bad row wins over a bad value on its line, and the first bad line wins.
    (mm, _BANNER + "2 2 1\n0 1 x\n", IndexRangeError,
     "line 3: row index 0 out of bounds [1, 2]"),
    (mm, _BANNER + "2 2 2\n1 3 1.0\nx 1 1.0\n", IndexRangeError,
     "line 3: column index 3 out of bounds [1, 2]"),
    (el, "-1 0 x\n", IndexRangeError, "line 1: negative vertex index -1"),
    (el, "0 1\n2 -3\n", IndexRangeError, "line 2: negative vertex index -3"),
    # Integer values are checked against the domain once every line parsed,
    # so a malformed later line is reported first.
    (mm, _INTEGER + "2 2 1\n1 1 9223372036854775808\n", DomainMismatchError,
     "value 9223372036854775808 is not in domain signed-int-64"),
    (mm, _INTEGER + "2 2 2\n1 1 -9223372036854775809\n2 2 1\n", DomainMismatchError,
     "value -9223372036854775809 is not in domain signed-int-64"),
    (mm, _INTEGER + "2 2 2\n1 1 9223372036854775808\n2 2 x\n", ParseError,
     "line 4: invalid integer value 'x'"),
])
def test_reader_range_and_domain_errors(block, read, text, error, message):
    with pytest.raises(error) as e:
        read(text)
    assert type(e.value) is error and str(e.value) == message


def test_edge_list_empty_stream_is_empty_matrix():
    m = el("# nothing\n")
    assert (m.nrows, m.ncols, m.triples) == (0, 0, ())


def test_edge_list_dimension_tracks_largest_index():
    m = el("4 0\n")
    assert (m.nrows, m.ncols) == (5, 5)


# ---------------------------------------------------------------------------
# Dimension limit


@pytest.mark.parametrize("read, text, message", [
    (mm, _BANNER + "5 4 0\n", "line 2: size 5x4 exceeds the dimension limit 4"),
    (mm, _BANNER + "% c\n1 5 0\n", "line 3: size 1x5 exceeds the dimension limit 4"),
    (el, "0 1\n# c\n4 0\n", "line 3: vertex index 4 needs a dimension above the limit 4"),
    (el, "0 1 1.5\n2 9 1.5\n", "line 2: vertex index 9 needs a dimension above the limit 4"),
    (el, "0 3\n1 2\n2 1\n3 5\n", "line 4: vertex index 5 needs a dimension above the limit 4"),
    (el, "3 0\n1 4\n", "line 2: vertex index 4 needs a dimension above the limit 4"),
])
def test_readers_refuse_dimensions_above_the_limit(block, monkeypatch, read, text, message):
    monkeypatch.setattr(io_formats, "MAX_DIMENSION", 4)
    with pytest.raises(ParseError) as e:
        read(text)
    assert str(e.value) == message


def test_readers_accept_dimensions_at_the_limit(monkeypatch):
    monkeypatch.setattr(io_formats, "MAX_DIMENSION", 4)
    m, _ = mm(_BANNER + "4 4 1\n4 4 1.0\n")
    assert (m.nrows, m.ncols) == (4, 4)
    assert (el("3 0\n").nrows, el("0 3\n", undirected=True).ncols) == (4, 4)
    with pytest.raises(IndexRangeError, match="line 1: negative vertex index -1"):
        el("9 -1\n")


# ---------------------------------------------------------------------------
# Block parsing against the per-line loop


def _outcome(read, source):
    """What reading `source` gives: the matrix with each value's repr, or
    the exception class and message."""
    try:
        m = read(source)
    except Exception as e:  # the class and message are the outcome
        return type(e), str(e)
    coo = m[0] if isinstance(m, tuple) else m
    return (coo.nrows, coo.ncols, coo.domain.kind,
            [(t.row, t.col, repr(t.val)) for t in coo.triples])


def _both_paths(read, lines, block_size, newline):
    """The outcome of `read` on `lines` with blocks of `block_size` lines,
    and with every block sent through the per-line loop."""
    def source():
        if newline is None:  # a list of lines without their newlines
            return list(lines)
        return io.StringIO("".join(line + newline for line in lines))

    with mock.patch.object(io_formats, "_BLOCK", block_size):
        by_blocks = _outcome(read, source())
        with mock.patch.object(io_formats, "_columns", lambda *args: None):
            by_lines = _outcome(read, source())
    return by_blocks, by_lines


_MM_VALUES = {
    # Sums of three or more of these depend on the order they are added in.
    "real": st.sampled_from(("0.1", "0.2", "0.3", "1e16", "-1e16", "-2.5", "7", "3e-300")),
    "integer": st.sampled_from(("0", "1", "-7", "12", "9223372036854775807")),
    "complex": st.sampled_from(("0.1 0.2", "1e16 -0.3", "-0.0 1", "2 3e-300")),
    "pattern": st.just(""),
}
# Lines each reader refuses or skips.  `{v}` is a valid value, `{r}` and
# `{c}` the first row and column past the declared size; "1 2 {v}" is above
# the diagonal.  A short line next to a long one keeps the block's token
# count right, and so does a short line before one led by a NUL token, which
# also puts that NUL where the block check expects the separator between
# the two lines.
_MM_BAD = ("x 1 {v}", "1 y {v}", "0 1 {v}", "1 0 {v}", "{r} 1 {v}", "1 {c} {v}", "1 2 {v}",
           "1.5 1 {v}", "1 1 nan", "1 1 inf 0", "1 1 z", "1 1 {v} 9", "1", "% comment", "",
           "   ", "{short}\n{long}", "1 \x00 {v}", "\x00", "1\x001 1 {v}",
           "{short} \x00\n{short}", "{short}\n\x00 1 {short}")
_EL_BAD = ("a 1", "0 b", "-1 0", "0 -1", "0 1 x", "0 1 inf", "0", "0 1 2 3", "# comment",
           "", "\t", "16777216 0", "0 16777216", "0 1.5", "{short}\n{long}", "0 \x00",
           "\x00", "0\x001 1", "{short} \x00\n{short}", "{short}\n\x00 1 {short}")
_FILLER = st.sampled_from(("% note", "# note", "", "  \t"))
_SEPARATORS = st.sampled_from((" ", "\t", "  ", " \t "))


def _line(data, tokens):
    sep = data.draw(_SEPARATORS)
    pad = data.draw(st.sampled_from(("", " ", "\t")))
    return pad + sep.join(t for t in tokens if t) + data.draw(st.sampled_from(("", " ")))


def _text(data, entry, bad, block_size):
    """Entry lines drawn by `entry`, with blank and comment lines among
    them, and up to two of `bad` planted at the first or last line of a
    block, so that they share it with valid lines."""
    lines = []
    for _ in range(data.draw(st.integers(0, 14))):
        lines.append(entry())
        if data.draw(st.integers(0, 7)) == 0:
            lines.append(data.draw(_FILLER))
    for _ in range(data.draw(st.integers(0, 2))):
        k = data.draw(st.integers(0, len(lines) // block_size))
        at = k * block_size + data.draw(st.sampled_from((0, block_size - 1)))
        lines[at:at] = data.draw(st.sampled_from(bad)).split("\n")
    return lines


@settings(max_examples=200)
@given(data=st.data())
def test_block_path_matches_the_per_line_loop_on_matrix_market(data):
    field = data.draw(st.sampled_from(tuple(_FIELDS)))
    symmetric = data.draw(st.booleans())
    n = data.draw(st.integers(1, 3))
    nrows, ncols = (n, n) if symmetric else (n, data.draw(st.integers(1, 3)))
    values = _MM_VALUES[field]

    def entry():
        r, c = data.draw(st.integers(1, nrows)), data.draw(st.integers(1, ncols))
        if symmetric and r < c:
            r, c = c, r
        return _line(data, (str(r), str(c), data.draw(values)))

    block_size = data.draw(st.integers(1, 4))
    want = len(entry().split())
    bad = [b.format(v=data.draw(values), r=nrows + 1, c=ncols + 1, short=" ".join("1" * (want - 1)),
                    long=" ".join("1" * (want + 1))) for b in _MM_BAD]
    lines = _text(data, entry, bad, block_size)
    nnz = sum(bool(_tokens(line, "%")) for line in lines) + data.draw(st.sampled_from((0, 0, -1, 1)))
    header = [f"%%MatrixMarket matrix coordinate {field} "
              f"{'symmetric' if symmetric else 'general'}", f"{nrows} {ncols} {max(nnz, 0)}"]
    newline = data.draw(st.sampled_from(("\n", "\r\n", None)))
    by_blocks, by_lines = _both_paths(read_matrix_market, header + lines, block_size, newline)
    assert by_blocks == by_lines


@settings(max_examples=200)
@given(data=st.data())
def test_block_path_matches_the_per_line_loop_on_edge_lists(data):
    weighted = data.draw(st.booleans())
    want = 3 if weighted else 2

    def entry():
        u, v = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        return _line(data, (str(u), str(v), data.draw(_MM_VALUES["real"]) if weighted else ""))

    block_size = data.draw(st.integers(1, 4))
    bad = [b.format(short=" ".join("1" * (want - 1)), long=" ".join("1" * (want + 1)))
           for b in _EL_BAD]
    lines = _text(data, entry, bad, block_size)
    newline = data.draw(st.sampled_from(("\n", "\r\n", None)))
    undirected = data.draw(st.booleans())
    by_blocks, by_lines = _both_paths(
        lambda s: read_edge_list(s, undirected=undirected), lines, block_size, newline)
    assert by_blocks == by_lines


def _planted_texts(entries, bad):
    """`entries` with one of `bad` planted at each place, for blocks of one
    to three lines: every place is a block's first or last line for one of
    those sizes."""
    for line in bad:
        for at in range(len(entries) + 1):
            yield entries[:at] + line.split("\n") + entries[at:]


@pytest.mark.parametrize("field", _FIELDS)
@pytest.mark.parametrize("symmetry", ["general", "symmetric"])
def test_each_refused_line_matches_the_per_line_loop_anywhere_in_a_block(field, symmetry):
    value = {"real": "0.1", "integer": "3", "complex": "1e16 -0.3", "pattern": ""}[field]
    want = 2 + (field != "pattern") + (field == "complex")
    entries = [f"{r} {c} {value}".strip()
               for r, c in ((1, 1), (2, 1), (3, 2), (2, 1), (3, 3), (2, 1), (3, 2))]
    bad = [b.format(v=value, r=4, c=4, short=" ".join("1" * (want - 1)),
                    long=" ".join("1" * (want + 1))) for b in _MM_BAD]
    for lines in _planted_texts(entries, bad):
        header = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", f"3 3 {len(entries)}"]
        for block_size in (1, 2, 3):
            by_blocks, by_lines = _both_paths(read_matrix_market, header + lines, block_size, "\n")
            assert by_blocks == by_lines, (lines, block_size)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("undirected", [False, True])
def test_each_refused_edge_line_matches_the_per_line_loop_anywhere_in_a_block(weighted, undirected):
    want = 3 if weighted else 2
    # (0, 1) sums 1e16, -1e16 and 0.1 in that order only if each mirror
    # follows its own edge.
    edges = (("1", "0", "1e16"), ("0", "1", "-1e16"), ("0", "1", "0.1"), ("2", "2", "0.3"),
             ("1", "0", "0.7"), ("3", "1", "0.5"))
    entries = [" ".join(edge if weighted else edge[:2]) for edge in edges]
    bad = [b.format(short=" ".join("1" * (want - 1)), long=" ".join("1" * (want + 1)))
           for b in _EL_BAD]
    for lines in _planted_texts(entries, bad):
        for block_size in (1, 2, 3):
            by_blocks, by_lines = _both_paths(
                lambda s: read_edge_list(s, undirected=undirected), lines, block_size, "\n")
            assert by_blocks == by_lines, (lines, block_size)


_CLEAN_TOKENS = st.sampled_from(("1", "22", "-2.5", "x", "1e3"))
# Tokens that hold a NUL or a comment character; "%" is each reader's
# comment character or the other's.
_POISON_TOKENS = st.sampled_from(("\x00", "1\x002", "\x00\x00", "%", "#", "1%"))
_WHITESPACE = st.sampled_from((" ", "\t", "  ", "\x0b", "\x1f", "\u2028"))


@settings(max_examples=500)
@given(data=st.data())
def test_columns_match_a_split_of_each_line(data):
    """`_columns` gives the columns of each line's own split when every
    line holds `want` tokens, no comment character and no NUL, and None
    for any other block."""
    want = data.draw(st.integers(1, 4))
    comment = data.draw(st.sampled_from("%#"))
    block = []
    for _ in range(data.draw(st.integers(1, 6))):
        count = data.draw(st.sampled_from((want, want, want, want - 1, want + 1, 0)))
        tokens = [data.draw(_CLEAN_TOKENS) for _ in range(count)]
        for _ in range(data.draw(st.sampled_from((0, 0, 0, 1)))):
            tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(_POISON_TOKENS))
        line = "".join(data.draw(_WHITESPACE) + t for t in tokens)
        block.append(line + data.draw(st.sampled_from(("", " ", "\n", "\r\n"))))
    split = [line.split() for line in block]
    valid = (all(len(tokens) == want for tokens in split)
             and not any(comment in line or "\x00" in line for line in block))
    expected = [[tokens[k] for tokens in split] for k in range(want)] if valid else None
    assert _columns(block, want, comment) == expected


@pytest.mark.parametrize("newline", ["\n", "\r\n", None])
def test_valid_blocks_are_parsed_by_columns(monkeypatch, newline):
    """Blocks of valid entries never reach the per-line loop, whatever
    their line endings; a block with a comment or blank line does, and its
    neighbours still do not."""
    monkeypatch.setattr(io_formats, "_BLOCK", 3)
    parsed = []

    def columns(block, want, comment):
        found = _columns(block, want, comment)
        parsed.append(found is not None)
        return found

    def lines(*lines):
        return list(lines) if newline is None else [line + newline for line in lines]

    monkeypatch.setattr(io_formats, "_columns", columns)
    entries = [f"{i % 3 + 1} {i // 3 + 1} {i}.5" for i in range(8)]
    m, _ = read_matrix_market(lines(_BANNER.strip(), "3 3 8", *entries[:4], "", *entries[4:]))
    assert parsed == [True, False, True]
    assert len(m.triples) == 8
    parsed.clear()
    m = read_edge_list(lines("0 1 2", "1 0 3", "# c", "2 2 4", "1 2 5", "0 0 1"), undirected=True)
    assert parsed == [False, True]
    assert [(t.row, t.col) for t in m.triples] == [
        (0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)]


# ---------------------------------------------------------------------------
# The CSR readers the command line loads through


def _csr_arrays(m):
    """All that a CSR matrix holds; values by repr, so that 0.0 and -0.0 differ."""
    return (m.nrows, m.ncols, m.orientation, m.offsets, m.minor_indices,
            tuple(map(repr, m.values)), m.domain)


def _reference_csr(n, k, entries, mirror, domain):
    """`_csr_arrays` of the n x k matrix of (row, col, value) entries: each
    position sums its values in input order (integers wrap to the domain),
    and with `mirror` each entry off the diagonal is followed by its mirror."""
    acc = {}
    for r, c, v in entries:
        for pos in ((r, c), (c, r)) if mirror and r != c else ((r, c),):
            total = acc[pos] + v if pos in acc else v
            acc[pos] = domain.wrap(total) if domain.is_integer else total
    keys = sorted(acc)
    counts = [0] * (n + 1)
    for r, _c in keys:
        counts[r + 1] += 1
    return (n, k, ROW, tuple(itertools.accumulate(counts)), tuple(c for _r, c in keys),
            tuple(repr(acc[pos]) for pos in keys), domain)


_VALUE_OF = {"real": float, "integer": int, "pattern": lambda: 1,
             "complex": lambda re, im: complex(float(re), float(im))}


def _with_fillers(data, lines, filler):
    """`lines` with `filler` lines (blank or comment) drawn among them."""
    out = []
    for line in lines:
        out += [line, *([data.draw(filler)] if data.draw(st.integers(0, 4)) == 0 else [])]
    return out


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_csr_matrix_market_reader_matches_the_public_reader(block, data):
    """Every field, general and symmetric, with repeated positions in any
    order, blank and comment lines, and no entries at all."""
    field = data.draw(st.sampled_from(tuple(_FIELDS)))
    symmetric = data.draw(st.booleans())
    n = data.draw(st.integers(1, 4))
    k = n if symmetric else data.draw(st.integers(1, 4))
    entries, lines = [], []
    for _ in range(data.draw(st.integers(0, 12))):
        r, c = data.draw(st.integers(1, n)), data.draw(st.integers(1, k))
        if symmetric and r < c:
            r, c = c, r
        value = data.draw(_MM_VALUES[field])
        entries.append((r - 1, c - 1, _VALUE_OF[field](*value.split())))
        lines.append(_line(data, (str(r), str(c), value)))
    symmetry = "symmetric" if symmetric else "general"
    text = [line + "\n" for line in [f"%%MatrixMarket matrix coordinate {field} {symmetry}",
                                     *_with_fillers(data, [f"{n} {k} {len(entries)}", *lines],
                                                    st.sampled_from(("% note", "", " \t")))]]
    csr, desc = io_formats._read_matrix_market(text)
    coo, public_desc = read_matrix_market(text)
    assert _csr_arrays(csr) == _csr_arrays(to_compressed(coo))
    assert _csr_arrays(csr) == _reference_csr(n, k, entries, symmetric, _FIELDS[field].domain)
    assert desc == public_desc == MatrixDescriptor(symmetric=symmetric)


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_csr_edge_list_reader_matches_the_public_reader(block, data):
    """Weighted and unweighted lists, directed and undirected, with repeated
    edges in any order, blank and comment lines, and no edges at all."""
    weighted, undirected = data.draw(st.booleans()), data.draw(st.booleans())
    entries, lines = [], []
    for _ in range(data.draw(st.integers(0, 12))):
        u, v = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        weight = data.draw(_MM_VALUES["real"]) if weighted else ""
        entries.append((u, v, float(weight) if weighted else 1))
        lines.append(_line(data, (str(u), str(v), weight)))
    text = [line + "\n" for line in _with_fillers(data, ["# edges", *lines],
                                                  st.sampled_from(("# note", "", " \t")))]
    csr = io_formats._read_edge_list(text, undirected)
    assert _csr_arrays(csr) == _csr_arrays(to_compressed(read_edge_list(text, undirected)))
    n = 1 + max((max(u, v) for u, v, _w in entries), default=-1)
    assert _csr_arrays(csr) == _reference_csr(n, n, entries, undirected,
                                              FLOAT64 if weighted and entries else INT64)


@pytest.mark.parametrize("symmetry", ["general", "symmetric"])
def test_csr_reader_folds_repeated_floats_in_input_order(block, symmetry):
    """1e16 + 1 rounds back to 1e16, so each order of the same three values
    has its own sum."""
    for values, total in ((("1e16", "1", "-1e16"), 0.0), (("1e16", "-1e16", "1"), 1.0)):
        text = [f"%%MatrixMarket matrix coordinate real {symmetry}\n", f"2 2 {len(values)}\n",
                *(f"2 1 {v}\n" for v in values)]
        csr, _desc = io_formats._read_matrix_market(text)
        assert csr.values == ((total,) if symmetry == "general" else (total, total))
        edges = [f"1 0 {v}\n" for v in values]
        assert io_formats._read_edge_list(edges, False).values == (total,)
        assert io_formats._read_edge_list(edges, True).values == (total, total)


_REAL = "%%MatrixMarket matrix coordinate real general\n"
_SYMMETRIC = "%%MatrixMarket matrix coordinate real symmetric\n"


@pytest.mark.parametrize("name, text, message", [
    ("a.mtx", _REAL, "line 1: missing size line"),
    ("a.mtx", "%%MatrixMarket matrix coordinate real\n2 2 0\n",
     "line 1: banner needs 5 tokens (got 4)"),
    ("a.mtx", "%%MatrixMarket matrix array real general\n2 2 0\n",
     "line 1: unsupported format 'array' (only coordinate)"),
    ("a.mtx", "%%MatrixMarket matrix coordinate real hermitian\n2 2 0\n",
     "line 1: unsupported symmetry 'hermitian' (only general or symmetric)"),
    ("a.mtx", _REAL + "2 2\n", "line 2: size line needs 3 integers (got 2)"),
    ("a.mtx", _REAL + "2 -2 0\n", "line 2: size values must be non-negative"),
    ("a.mtx", _REAL + "16777217 1 0\n",
     "line 2: size 16777217x1 exceeds the dimension limit 16777216"),
    ("a.mtx", _SYMMETRIC + "2 3 0\n", "line 2: symmetric matrix must be square"),
    ("a.mtx", _REAL + "2 2 2\n1 1 1.0\n", "line 3: declared 2 entries but found 1"),
    ("a.mtx", _REAL + "2 2 1\n1 1 1.0\n2 2 1.0\n", "line 4: more than the declared 1 entries"),
    ("a.mtx", _REAL + "2 2 1\nx 1 1.0\n", "line 3: invalid row index 'x'"),
    ("a.mtx", _REAL + "2 2 1\n3 1 1.0\n", "line 3: row index 3 out of bounds [1, 2]"),
    ("a.mtx", _REAL + "2 2 1\n1 1 inf\n", "line 3: non-finite value 'inf'"),
    ("a.mtx", _REAL + "2 2 1\n1 1\n", "line 3: entry needs 3 tokens for field 'real' (got 2)"),
    ("a.mtx", _SYMMETRIC + "2 2 1\n1 2 1.0\n",
     "line 3: symmetric file stores the lower triangle only (entry at row 1 < column 2)"),
    ("a.mtx", _INTEGER + "2 2 1\n1 1 9223372036854775808\n",
     "value 9223372036854775808 is not in domain signed-int-64"),
    ("a.mtx", _INTEGER + "2 2 1\n1 1 1.5\n", "line 3: invalid integer value '1.5'"),
    ("a.tsv", "0 1\n1 2 3\n", "line 2: expected 2 columns (got 3)"),
    ("a.tsv", "0 x\n", "line 1: invalid vertex index in '0 x'"),
    ("a.tsv", "0 -1\n", "line 1: negative vertex index -1"),
    ("a.tsv", "0 1 w\n", "line 1: invalid weight 'w'"),
    ("a.tsv", "0 1 nan\n", "line 1: non-finite weight 'nan'"),
    ("a.tsv", "0 16777216\n", "line 1: vertex index 16777216 needs a dimension above the limit "
     "16777216"),
    ("a.tsv", "%%MatrixMarket\n", "line 1: banner needs 5 tokens (got 1)"),
])
def test_cli_loads_refuse_malformed_files_with_one_pinned_line(block, capsys, tmp_path,
                                                               name, text, message):
    """A malformed matrix or vector file exits 2 with the line that the
    command line printed before its loads read straight into CSR."""
    path, good = tmp_path / name, tmp_path / "good.mtx"
    path.write_text(text)
    good.write_text(_REAL + "2 2 1\n1 1 1.0\n")
    for argv in (["info", str(path)], ["mxv", str(good), str(path), "--semiring", "plus_times"]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("text, shape", [(_REAL + "2 2 1\n1 2 1.0\n", "2x2"), ("", "0x0")])
def test_cli_vector_load_refuses_a_matrix_that_is_not_one_column(block, capsys, tmp_path,
                                                                 text, shape):
    path, good = tmp_path / "v.mtx", tmp_path / "good.mtx"
    path.write_text(text)
    good.write_text(_REAL + "2 2 1\n1 1 1.0\n")
    assert run(["mxv", str(good), str(path), "--semiring", "plus_times"]) == 3
    assert capsys.readouterr().err == (
        f"error: {path}: vector input must be a single-column matrix, got {shape}\n")
