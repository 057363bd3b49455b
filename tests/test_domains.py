import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgk.domains import (
    ALL_DOMAINS,
    BOOLEAN,
    COMPLEX128,
    FLOAT32,
    FLOAT64,
    INT8,
    INT64,
    OPAQUE,
    UINT8,
    UINT64,
    ValueDomain,
    domain_from_kind,
    ulp_distance,
)
from sgk.errors import DomainMismatchError, UnsupportedDomainError


def test_all_thirteen_kinds_exist():
    kinds = {d.kind for d in ALL_DOMAINS}
    assert len(ALL_DOMAINS) == 13
    assert "boolean" in kinds
    assert "signed-int-64" in kinds
    assert "unsigned-int-8" in kinds
    assert "float-single" in kinds
    assert "complex-double" in kinds
    assert "opaque-handle" in kinds


def test_unknown_kind_rejected():
    with pytest.raises(UnsupportedDomainError):
        ValueDomain("float-quad")
    with pytest.raises(UnsupportedDomainError):
        domain_from_kind("int")


def test_domain_from_kind_returns_singletons():
    assert domain_from_kind("signed-int-64") is INT64
    assert domain_from_kind("boolean") is BOOLEAN


def test_integer_ranges():
    assert INT8.min_value == -128 and INT8.max_value == 127
    assert UINT8.min_value == 0 and UINT8.max_value == 255
    assert INT64.max_value == 2**63 - 1
    assert UINT64.max_value == 2**64 - 1


def test_boolean_membership_is_strict():
    assert BOOLEAN.contains(True)
    assert not BOOLEAN.contains(1)
    assert not INT64.contains(True)  # bools are not integers here
    assert INT64.contains(1)


def test_integer_membership_respects_width():
    assert INT8.contains(127)
    assert not INT8.contains(128)
    assert not UINT8.contains(-1)
    assert not INT64.contains(1.0)


def test_float_single_requires_exact_32bit_values():
    assert FLOAT32.contains(0.5)
    assert FLOAT32.contains(float("nan"))
    assert not FLOAT32.contains(0.1)  # 0.1 is not representable in 32 bits
    assert FLOAT32.contains(FLOAT32.normalize(0.1))


def test_float_double_accepts_floats_only():
    assert FLOAT64.contains(0.1)
    assert FLOAT64.contains(math.inf)
    assert not FLOAT64.contains(1)


def test_complex_and_opaque_membership():
    assert COMPLEX128.contains(1 + 2j)
    assert not COMPLEX128.contains(1.0)
    assert OPAQUE.contains(("any", "hashable", "thing"))
    assert OPAQUE.contains(None)


def test_check_value_raises_with_kind_in_message():
    with pytest.raises(DomainMismatchError, match="signed-int-8"):
        INT8.check_value(1000)


def test_wrap_is_twos_complement():
    assert INT8.wrap(128) == -128
    assert INT8.wrap(-129) == 127
    assert UINT8.wrap(256) == 0
    assert INT64.wrap(2**63) == -(2**63)


def test_clamp_saturates():
    assert INT8.clamp(1000) == 127
    assert INT8.clamp(-1000) == -128
    assert INT8.clamp(5) == 5


def test_float_extremes_are_infinite():
    assert FLOAT64.max_value == math.inf
    assert FLOAT64.min_value == -math.inf
    assert FLOAT32.max_value == math.inf


def test_min_max_unsupported_for_complex_and_opaque():
    with pytest.raises(UnsupportedDomainError):
        COMPLEX128.max_value
    with pytest.raises(UnsupportedDomainError):
        OPAQUE.min_value


def test_ulp_distance_basics():
    assert ulp_distance(1.0, 1.0, FLOAT64) == 0
    assert ulp_distance(0.0, -0.0, FLOAT64) == 0
    assert ulp_distance(1.0, math.nextafter(1.0, 2.0), FLOAT64) == 1
    assert ulp_distance(-1.0, math.nextafter(-1.0, -2.0), FLOAT64) == 1
    assert ulp_distance(1.0, 1.0 + 2**-50, FLOAT64) == 4


def test_ulp_distance_over_float_single_counts_single_steps():
    up = 1.0 + 2**-23  # the next single above 1.0
    assert ulp_distance(1.0, up, FLOAT32) == 1
    assert ulp_distance(-1.0, -up, FLOAT32) == 1
    assert ulp_distance(-1.401298464324817e-45, 1.401298464324817e-45, FLOAT32) == 2
    assert ulp_distance(1.0, up, FLOAT64) == 2**29


def test_ulp_distance_spans_zero():
    tiny = 5e-324
    assert ulp_distance(tiny, -tiny, FLOAT64) == 2
    assert ulp_distance(0.0, tiny, FLOAT64) == 1


def test_ulp_distance_complex_takes_worst_component():
    a = complex(1.0, 2.0)
    b = complex(math.nextafter(1.0, 2.0), 2.0)
    assert ulp_distance(a, b, COMPLEX128) == 1


def test_ulp_distance_undefined_for_integers():
    with pytest.raises(UnsupportedDomainError):
        ulp_distance(1, 2, INT64)


@given(st.integers(min_value=-(2**70), max_value=2**70))
def test_wrap_lands_in_range(x):
    for d in (INT8, UINT8, INT64, UINT64):
        w = d.wrap(x)
        assert d.min_value <= w <= d.max_value
        assert (w - x) % (1 << d.bits) == 0


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_single_normalize_is_idempotent(x):
    y = FLOAT32.normalize(x)
    assert FLOAT32.normalize(y) == y or math.isnan(y)
    assert FLOAT32.contains(y) or math.isnan(y)


@given(st.floats(allow_nan=False), st.floats(allow_nan=False))
def test_ulp_distance_is_symmetric(a, b):
    assert ulp_distance(a, b, FLOAT64) == ulp_distance(b, a, FLOAT64)


# ---------------------------------------------------------------------------
# The per-kind table against reference definitions written out here

_REF_WIDTHS = {f"{s}-int-{b}": (b, s == "signed")
               for s in ("signed", "unsigned") for b in (8, 16, 32, 64)}
_FLOAT_KINDS = ("float-single", "float-double")
_SINGLE_MAX = (2 - 2**-23) * 2.0**127


def _ref_bounds(kind):
    """(min, max) of an ordered kind, None for complex and opaque."""
    if kind == "boolean":
        return False, True
    if kind in _REF_WIDTHS:
        bits, signed = _REF_WIDTHS[kind]
        return (-(2 ** (bits - 1)), 2 ** (bits - 1) - 1) if signed else (0, 2**bits - 1)
    if kind in _FLOAT_KINDS:
        return -math.inf, math.inf
    return None


def _ref_round_single(x: float) -> float:
    """Round to nearest, ties to even, on 24 significant bits, subnormals
    down to 2**-149, and past the largest finite value to infinity."""
    if x != x or x in (math.inf, -math.inf) or x == 0:
        return x
    _m, e = math.frexp(x)
    quantum = 2.0 ** max(e - 24, -149)
    r = abs(round(x / quantum) * quantum)
    return math.copysign(math.inf if r > _SINGLE_MAX else r, x)


def _ref_contains(kind, v) -> bool:
    if kind == "boolean":
        return type(v) is bool
    if kind in _REF_WIDTHS:
        lo, hi = _ref_bounds(kind)
        return isinstance(v, int) and type(v) is not bool and lo <= v <= hi
    if kind == "float-double":
        return isinstance(v, float)
    if kind == "float-single":
        return isinstance(v, float) and (v != v or _ref_round_single(v) == v)
    if kind == "complex-double":
        return isinstance(v, complex)
    return True


def _ref_wrap(kind, v: int) -> int:
    bits, _signed = _REF_WIDTHS[kind]
    lo, _hi = _ref_bounds(kind)
    return (v - lo) % 2**bits + lo


def _ref_clamp(kind, v):
    lo, hi = _ref_bounds(kind)
    return lo if v < lo else hi if v > hi else v


def _same(x, y) -> bool:
    """Equal values of the same type; NaN matches NaN and signed zeros differ."""
    if type(x) is not type(y):
        return False
    if isinstance(x, float):
        return (x != x and y != y) or (x == y and math.copysign(1, x) == math.copysign(1, y))
    return x == y


def _int_edges():
    out = {0, 1, -1, 2**63, -(2**63), 2**64 - 1, 2**64, -(2**64)}
    for b in (8, 16, 32, 64):
        for edge in (2 ** (b - 1), -(2 ** (b - 1)), 2**b - 1, 2**b):
            out.update((edge - 1, edge, edge + 1))
    return sorted(out)


_EDGES = [
    *_int_edges(), True, False,
    0.0, -0.0, 0.1, 0.5, -1.5, 1.0 + 2**-23, 1.0 + 2**-24, 1.0 + 3 * 2**-24,
    _SINGLE_MAX, -_SINGLE_MAX, math.nextafter(_SINGLE_MAX, math.inf),
    2.0**128 - 2.0**103, math.nextafter(2.0**128 - 2.0**103, 0.0),
    2.0**-149, 2.0**-150, 3 * 2.0**-151, 1e-300, 5e-324, 1.7976931348623157e308,
    float(2**63), float(2**64), math.nan, math.inf, -math.inf,
    1 + 2j, complex(math.inf, 0), None, "7", (1, 2),
    type("FloatSubclass", (float,), {})(0.5), type("ComplexSubclass", (complex,), {})(1 + 2j),
]


def _check_kind_against_reference(d, v):
    kind = d.kind
    assert d.contains(v) is _ref_contains(kind, v), (kind, v)
    bounds = _ref_bounds(kind)
    if bounds is None:
        for attr in ("min_value", "max_value"):
            with pytest.raises(UnsupportedDomainError):
                getattr(d, attr)
    else:
        assert _same(d.min_value, bounds[0]) and _same(d.max_value, bounds[1])
    if isinstance(v, int):
        if kind in _REF_WIDTHS:
            assert _same(d.wrap(v), _ref_wrap(kind, v)), (kind, v)
        else:
            with pytest.raises(UnsupportedDomainError):
                d.wrap(v)
    if isinstance(v, (int, float)) and bounds is not None:
        assert _same(d.clamp(v), _ref_clamp(kind, v)), (kind, v)
    if isinstance(v, float):
        want = _ref_round_single(v) if kind == "float-single" else v
        assert _same(d.normalize(v), want), (kind, v)
    elif kind != "float-single":
        assert d.normalize(v) is v


def test_named_domains_are_the_table_kinds():
    named = (BOOLEAN, INT8, INT64, UINT8, UINT64, FLOAT32, FLOAT64, COMPLEX128, OPAQUE)
    assert [d.kind for d in named] == [
        "boolean", "signed-int-8", "signed-int-64", "unsigned-int-8",
        "unsigned-int-64", "float-single", "float-double", "complex-double",
        "opaque-handle"]
    assert [d.kind for d in ALL_DOMAINS] == ["boolean", *_REF_WIDTHS, *_FLOAT_KINDS,
                                             "complex-double", "opaque-handle"]
    for d in ALL_DOMAINS:
        assert d.is_signed == (d.kind in _REF_WIDTHS and _REF_WIDTHS[d.kind][1])
        if d.is_integer:
            assert d.bits == _REF_WIDTHS[d.kind][0]
        else:
            with pytest.raises(UnsupportedDomainError):
                d.bits


@pytest.mark.parametrize("d", ALL_DOMAINS, ids=lambda d: d.kind)
def test_table_matches_reference_at_the_edges(d):
    for v in _EDGES:
        _check_kind_against_reference(d, v)


@given(st.one_of(st.integers(min_value=-(2**66), max_value=2**66), st.floats(),
                 st.floats(width=32), st.booleans(), st.complex_numbers()))
def test_table_matches_reference_on_random_values(v):
    for d in ALL_DOMAINS:
        _check_kind_against_reference(d, v)


@given(st.floats(width=32, allow_nan=False))
def test_float_single_members_are_their_own_rounding(x):
    assert FLOAT32.contains(x) and FLOAT32.normalize(x) == x


def test_domains_and_containers_pickle_to_the_canonical_domain():
    import pickle

    from sgk.containers import ROW, to_compressed, build_from_triples, vector_from_entries
    from sgk.semirings import plus_monoid

    for d in ALL_DOMAINS:
        assert pickle.loads(pickle.dumps(d)) is d
    m = to_compressed(build_from_triples(2, 3, [(0, 2, 5), (1, 0, -1)], plus_monoid(INT8)), ROW)
    back = pickle.loads(pickle.dumps(m))
    assert back == m and back.domain is INT8
    v = vector_from_entries(3, [(1, 0.5)], FLOAT32)
    back = pickle.loads(pickle.dumps(v))
    assert back == v and back.domain is FLOAT32
