import cmath
import io
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import coo_matrices, sampler_for
from sgk import io_formats
from sgk.containers import (
    COL,
    ROW,
    CooMatrix,
    Triple,
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
    IndexRangeError,
    ParseError,
    UnserializableDomainError,
)
from sgk.io_formats import (
    MatrixMarketHeader,
    read_edge_list,
    read_matrix_market,
    serializable_field,
    write_matrix_market,
)


def mm(text: str):
    return read_matrix_market(io.StringIO(text))


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
    (el, "# c\n\n0\t x\n", "line 3: invalid vertex index in '0\\t x'"),
    (el, "\n0 1 y\n", "line 2: invalid weight 'y'"),
    (el, "0 1 1\n0 1 NaN\n", "line 2: non-finite weight 'NaN'"),
])
def test_reader_errors_name_the_line_and_quote_it(read, text, message):
    """End-of-input errors name the last line read, blank or comment lines
    included, and a bad vertex index quotes the whole stripped line."""
    with pytest.raises(ParseError) as e:
        read(text)
    assert str(e.value) == message


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
])
def test_readers_refuse_dimensions_above_the_limit(monkeypatch, read, text, message):
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
