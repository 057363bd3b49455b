import array
import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgk.domains import ALL_DOMAINS, BOOLEAN, FLOAT32, FLOAT64, INT8, INT64, OPAQUE, UINT8
from sgk.errors import (
    DomainMismatchError,
    DuplicateNameError,
    LawCheckError,
    UnknownSemiringError,
    UnsupportedDomainError,
)
from sgk.semirings import (
    CANONICAL_NAMES,
    BinaryOp,
    Monoid,
    Semiring,
    check_law_triples,
    law_sample_pool,
    max_monoid,
    min_monoid,
    plus_monoid,
    register_semiring,
    registry_get,
    select2nd_op,
    times_op,
    tropical_plus_op,
    verify_semiring_laws,
)


def test_plus_times_float_double():
    s = registry_get("plus_times/float-double")
    assert s.mul(2.0, 3.0) == 6.0
    assert s.add.identity == 0.0
    assert s.add.op(1.5, 2.5) == 4.0


def test_or_and_boolean():
    s = registry_get("or_and/boolean")
    assert s.add.op(True, False) is True
    assert s.mul(True, False) is False
    assert s.add.identity is False


def test_min_max_signed_int64():
    s = registry_get("min_max/signed-int-64")
    assert s.add.op(3, 5) == 3
    assert s.mul(3, 5) == 5
    assert s.add.identity == 2**63 - 1


def test_bare_family_names_resolve_to_canonical_domain():
    assert registry_get("plus_times") is registry_get("plus_times/float-double")
    assert registry_get("min_plus") is registry_get("min_plus/float-double")
    assert registry_get("min_max") is registry_get("min_max/signed-int-64")
    assert registry_get("or_and") is registry_get("or_and/boolean")


def test_registry_is_idempotent_on_returned_names():
    s = registry_get("max_plus")
    assert registry_get(s.name) is s


def test_unknown_name_and_unsupported_domain():
    with pytest.raises(UnknownSemiringError):
        registry_get("times_plus")
    with pytest.raises(UnsupportedDomainError):
        registry_get("max_plus/boolean")
    with pytest.raises(UnsupportedDomainError):
        registry_get("or_and/float-double")
    with pytest.raises(UnsupportedDomainError):
        registry_get("plus_times/opaque-handle")


# The encoded (-inf, +inf) of each ordered domain: the max- and min-monoid
# identities.
_BOUNDS = {
    "signed-int-8": (-128, 127),
    "signed-int-16": (-32768, 32767),
    "signed-int-32": (-2147483648, 2147483647),
    "signed-int-64": (-9223372036854775808, 9223372036854775807),
    "unsigned-int-8": (0, 255),
    "unsigned-int-16": (0, 65535),
    "unsigned-int-32": (0, 4294967295),
    "unsigned-int-64": (0, 18446744073709551615),
    "float-single": (-math.inf, math.inf),
    "float-double": (-math.inf, math.inf),
}
_MAX_ZEROS = {kind: lo for kind, (lo, _hi) in _BOUNDS.items()}
_MIN_ZEROS = {kind: hi for kind, (_lo, hi) in _BOUNDS.items()}
_PLUS_ZEROS = {**{kind: 0 for kind in _BOUNDS if "int" in kind},
               "float-single": 0.0, "float-double": 0.0, "complex-double": 0j}

# family: (add op, mul op, canonical kind, additive identity per defined kind)
_GRID = {
    "plus_times": ("plus", "times", "float-double", _PLUS_ZEROS),
    "max_plus": ("max", "tropical_plus", "float-double", _MAX_ZEROS),
    "min_plus": ("min", "tropical_plus", "float-double", _MIN_ZEROS),
    "min_max": ("min", "max", "signed-int-64", _MIN_ZEROS),
    "or_and": ("or", "and", "boolean", {"boolean": False}),
    "min_select2nd": ("min", "select2nd", "signed-int-64", _MIN_ZEROS),
}


def _expected_lookup(name: str):
    """What registry_get(name) returns, or the exception it raises."""
    if not name:
        return UnknownSemiringError, "invalid semiring name ''"
    family, _, kind = name.partition("/")
    if family not in _GRID:
        return UnknownSemiringError, f"unknown semiring {name!r}"
    add, mul, canonical, zeros = _GRID[family]
    kind = kind or canonical
    if kind not in zeros:
        return UnsupportedDomainError, f"{family} is not defined over {kind!r}"
    return f"{family}/{kind}", kind, repr(zeros[kind]), add, mul


def test_registry_resolves_every_family_and_kind_spelling():
    kinds = ["boolean", *_BOUNDS, "complex-double", "opaque-handle"]
    names = [
        name
        for family in [*_GRID, "no_such", ""]
        for name in [family, *(f"{family}/{k}" for k in [*kinds, "no-such-kind"])]
    ]
    assert len(names) == 8 * 15
    for name in names:
        try:
            s = registry_get(name)
            got = (s.name, s.domain.kind, repr(s.zero), s.add.op.name, s.mul.name)
        except (UnknownSemiringError, UnsupportedDomainError) as e:
            got = (type(e), str(e))
        assert got == _expected_lookup(name), name


def test_encoded_infinities():
    assert registry_get("min_plus/signed-int-64").zero == 2**63 - 1
    assert registry_get("max_plus/signed-int-64").zero == -(2**63)
    assert registry_get("min_plus/unsigned-int-8").zero == 255
    assert registry_get("min_plus/float-double").zero == math.inf
    assert registry_get("max_plus/float-double").zero == -math.inf


def test_tropical_plus_saturates_instead_of_wrapping():
    s = registry_get("max_plus/signed-int-8")
    assert s.mul(100, 100) == 127
    assert s.mul(-100, -100) == -128
    # the encoded -inf absorbs from either side
    assert s.mul(-128, 100) == -128
    assert s.mul(100, -128) == -128


def test_min_plus_integer_absorbing_value():
    s = registry_get("min_plus/signed-int-8")
    assert s.mul(127, -1) == 127  # 127 encodes +inf here; adding keeps it
    assert s.mul(100, 100) == 127  # overflow saturates into the encoding


def test_float_tropical_infinities_do_not_produce_nan():
    s = registry_get("max_plus/float-double")
    assert s.mul(-math.inf, math.inf) == -math.inf
    t = registry_get("min_plus/float-double")
    assert t.mul(math.inf, -math.inf) == math.inf


def test_select2nd_passes_encoded_infinity_through():
    s = registry_get("min_select2nd/signed-int-64")
    z = s.zero
    assert s.mul(z, 42) == z
    assert s.mul(42, z) == z
    assert s.mul(7, 42) == 42


def test_plus_times_integers_wrap():
    s = registry_get("plus_times/signed-int-8")
    assert s.mul(16, 16) == 0  # 256 wraps to 0
    assert s.add.op(127, 1) == -128


def test_monoid_identity_must_be_in_domain():
    with pytest.raises(DomainMismatchError):
        Monoid(BinaryOp("plus", INT64, lambda a, b: a + b), 0.5)


def test_semiring_requires_shared_domain():
    with pytest.raises(DomainMismatchError):
        Semiring("broken", plus_monoid(INT64), times_op(FLOAT64))


def test_register_custom_min_select2nd_over_small_ints():
    add = min_monoid(INT8)
    s = Semiring("picky_min_2nd/signed-int-8", add, select2nd_op(INT8, add.identity))
    samples = list(range(-8, 9)) + [INT8.min_value, INT8.max_value]
    name = register_semiring(s, samples=samples)
    assert registry_get(name) is s
    # exhaustively re-verify the laws over the same sample set
    check_law_triples(s, itertools.product(samples, repeat=3))


def test_register_rejects_non_commutative_add():
    bad = Semiring(
        "sub_times/signed-int-64",
        Monoid(BinaryOp("minus", INT64, lambda a, b: a - b), 0),
        times_op(INT64),
    )
    with pytest.raises(LawCheckError) as exc:
        register_semiring(bad)
    assert exc.value.law == "commutativity"
    assert len(exc.value.witness) == 2


def test_register_rejects_builtin_family_names():
    s = registry_get("plus_times/signed-int-64")
    clone = Semiring("plus_times", s.add, s.mul)
    with pytest.raises(DuplicateNameError):
        register_semiring(clone)


def test_register_rejects_duplicate_custom_name():
    add = min_monoid(INT64)
    s = Semiring("dup_candidate/signed-int-64", add, select2nd_op(INT64, add.identity))
    register_semiring(s, samples=[0, 1, 2, INT64.max_value])
    again = Semiring("dup_candidate/signed-int-64", add, select2nd_op(INT64, add.identity))
    with pytest.raises(DuplicateNameError):
        register_semiring(again, samples=[0, 1, 2, INT64.max_value])


def test_register_rejects_broken_annihilator():
    # plain select2nd without the absorbing rule: mul(0, x) = x != 0
    bad = Semiring(
        "raw_select2nd/signed-int-64",
        min_monoid(INT64),
        BinaryOp("second", INT64, lambda a, b: b),
    )
    with pytest.raises(LawCheckError) as exc:
        register_semiring(bad)
    assert exc.value.law == "annihilator"


def test_law_sample_pool_boolean_and_opaque():
    assert law_sample_pool(registry_get("or_and"), random.Random(0)) == [False, True]
    opaque_monoid = Monoid(BinaryOp("first", OPAQUE, lambda a, b: a), ())
    s = Semiring("opaque_first/opaque-handle", opaque_monoid,
                 BinaryOp("first", OPAQUE, lambda a, b: a))
    with pytest.raises(UnsupportedDomainError):
        law_sample_pool(s, random.Random(0))


def test_law_pool_for_rounding_floats_is_positive_and_finite():
    s = registry_get("plus_times/float-double")
    pool = law_sample_pool(s, random.Random(3), size=64)
    assert all(x >= 0.0 and math.isfinite(x) for x in pool)


def test_law_pool_over_complex_holds_the_units_and_finite_draws():
    s = registry_get("plus_times/complex-double")
    pool = law_sample_pool(s, random.Random(5), size=16)
    assert pool[:3] == [0j, 1 + 0j, 1j]
    assert len(pool) == 16
    assert all(isinstance(x, complex) and math.isfinite(x.real) and math.isfinite(x.imag)
               for x in pool)
    assert pool == law_sample_pool(s, random.Random(5), size=16)


def test_verify_laws_passes_for_all_canonical_semirings():
    for name in CANONICAL_NAMES:
        verify_semiring_laws(registry_get(name))


def test_check_law_triples_reports_identity_violation():
    # max with the wrong identity: max(x, 0) != x for negative x
    bad = Semiring(
        "max_with_zero_identity/signed-int-64",
        Monoid(BinaryOp("max", INT64, max), 0),
        BinaryOp("max", INT64, max),
    )
    with pytest.raises(LawCheckError) as exc:
        check_law_triples(bad, [(-5, -5, -5)])
    assert exc.value.law == "identity"


def test_check_law_triples_reports_associativity_violation():
    # The floored mean commutes but does not associate.
    bad = Semiring(
        "mean_times/signed-int-64",
        Monoid(BinaryOp("mean", INT64, lambda a, b: (a + b) // 2), 0),
        times_op(INT64),
    )
    with pytest.raises(LawCheckError) as exc:
        check_law_triples(bad, [(0, 0, 4)])
    assert (exc.value.law, exc.value.witness) == ("associativity", (0, 0, 4))


def test_ops_are_callable_descriptors():
    op = times_op(FLOAT64)
    assert op(3.0, 4.0) == 12.0
    assert op.name == "times"
    assert op.domain is FLOAT64


def test_float_single_arithmetic_rerounds():
    s = registry_get("plus_times/float-single")
    x = s.mul(3.0, FLOAT32.normalize(0.1))
    assert FLOAT32.contains(x)


def test_plus_monoid_rejects_boolean_and_opaque():
    with pytest.raises(UnsupportedDomainError):
        plus_monoid(BOOLEAN)
    with pytest.raises(UnsupportedDomainError):
        plus_monoid(OPAQUE)
    for domain in (BOOLEAN, OPAQUE):
        with pytest.raises(UnsupportedDomainError, match=rf"^times is not defined over {domain.kind}$"):
            times_op(domain)


@given(st.integers(-128, 127), st.integers(-128, 127))
def test_int8_tropical_add_stays_in_range_and_absorbs(a, b):
    op = tropical_plus_op(INT8, INT8.max_value)
    assert INT8.min_value <= op(a, b) <= INT8.max_value
    assert op(INT8.max_value, b) == INT8.max_value
    assert op(a, INT8.max_value) == INT8.max_value


@given(st.booleans(), st.booleans(), st.booleans())
def test_or_and_distributes(a, b, c):
    s = registry_get("or_and")
    assert s.mul(a, s.add.op(b, c)) == s.add.op(s.mul(a, b), s.mul(a, c))


@given(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**63), 2**63 - 1),
)
def test_int64_wrapping_plus_is_associative(a, b, c):
    m = plus_monoid(INT64)
    assert m.op(m.op(a, b), c) == m.op(a, m.op(b, c))


# ---------------------------------------------------------------------------
# Every built-in family over every kind it is defined on, against formulas


def _defined_semirings():
    out = []
    for family in (name.partition("/")[0] for name in CANONICAL_NAMES):
        for d in ALL_DOMAINS:
            try:
                out.append(registry_get(f"{family}/{d.kind}"))
            except UnsupportedDomainError:
                pass
    return out


_DEFINED = _defined_semirings()


def _to_single(x: float) -> float:
    return array.array("f", [x])[0]


def _reference_ops(s):
    """(add, mul) of a built-in semiring written from its definition: integer
    plus_times wraps, tropical plus saturates with the identity absorbing,
    float-single rounds every sum and product to 32 bits."""
    family, d = s.name.partition("/")[0], s.domain
    if family == "or_and":
        return (lambda a, b: a or b), (lambda a, b: a and b)
    lo, hi = (d.min_value, d.max_value) if d.is_integer or d.is_float else (None, None)
    if d.is_integer:
        wrap = lambda v: (v - lo) % (hi - lo + 1) + lo
        sat = lambda v: lo if v < lo else hi if v > hi else v
    elif d == FLOAT32:
        wrap = sat = _to_single
    else:
        wrap = sat = lambda v: v
    smaller = lambda a, b: a if a <= b else b
    larger = lambda a, b: a if a >= b else b
    if family == "plus_times":
        return (lambda a, b: wrap(a + b)), (lambda a, b: wrap(a * b))
    if family == "max_plus":
        return larger, (lambda a, b: lo if lo in (a, b) else sat(a + b))
    if family == "min_plus":
        return smaller, (lambda a, b: hi if hi in (a, b) else sat(a + b))
    if family == "min_max":
        return smaller, larger
    assert family == "min_select2nd"
    return smaller, (lambda a, b: hi if a == hi else b)


def _edge_operands(d) -> list:
    if d.is_boolean:
        return [False, True]
    if d.is_integer:
        lo, hi = d.min_value, d.max_value
        half, root = hi // 2, 1 << (d.bits // 2)
        pool = {lo, lo + 1, 0, 1, 2, hi - 1, hi, half, half + 1, root - 1, root, root + 1}
        return sorted(v for v in pool | {-1, lo // 2} if d.contains(v))
    if d.is_float:
        big = 3.4028234663852886e38 if d == FLOAT32 else 1.7976931348623157e308
        pool = [-math.inf, math.inf, big, -big, 0.0, -0.0, 1.0, 3.0, -1.5,
                2.0**-24, 2.0**-149, d.normalize(0.1)]
        return [v for v in pool if d.contains(v)]
    return [complex(0.0, 0.0), 1 + 2j, complex(-1.5, 1e308), complex(3.0, -0.1)]


def _same(x, y) -> bool:
    if type(x) is not type(y):
        return False
    if isinstance(x, complex):
        return _same(x.real, y.real) and _same(x.imag, y.imag)
    if isinstance(x, float):
        return (x != x and y != y) or (x == y and math.copysign(1, x) == math.copysign(1, y))
    return x == y


def _check_against_reference(s, a, b):
    add, mul = _reference_ops(s)
    assert _same(s.add.op(a, b), add(a, b)), (s.name, "add", a, b)
    assert _same(s.mul(a, b), mul(a, b)), (s.name, "mul", a, b)


@pytest.mark.parametrize("s", _DEFINED, ids=lambda s: s.name)
def test_builtin_ops_match_their_formulas_at_the_bounds(s):
    pool = _edge_operands(s.domain)
    for a, b in itertools.product(pool, repeat=2):
        _check_against_reference(s, a, b)


def _members(d):
    if d.is_boolean:
        return st.booleans()
    if d.is_integer:
        return st.integers(d.min_value, d.max_value)
    if d.is_float:
        return st.floats(width=32 if d == FLOAT32 else 64, allow_nan=False)
    return st.complex_numbers(allow_nan=False)


@given(st.data())
def test_builtin_ops_match_their_formulas_on_random_members(data):
    s = data.draw(st.sampled_from(_DEFINED))
    a = data.draw(_members(s.domain))
    b = data.draw(_members(s.domain))
    _check_against_reference(s, a, b)


@pytest.mark.parametrize("s", _DEFINED, ids=lambda s: s.name)
def test_only_integer_plus_and_times_expose_a_raw_operator(s):
    wraps = s.name.startswith("plus_times/") and s.domain.is_integer
    for op in (s.add.op, s.mul):
        assert (op.raw is not None) == wraps, (s.name, op.name)
        if wraps:
            pool = _edge_operands(s.domain)
            for a, b in itertools.product(pool, repeat=2):
                assert op(a, b) == s.domain.wrap(op.raw(a, b)), (s.name, op.name, a, b)


def test_raw_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        BinaryOp("plus", FLOAT32, lambda a, b: a + b, raw=lambda a, b: a + b)
    user = BinaryOp("plus", INT8, registry_get("plus_times/signed-int-8").add.op.eval)
    assert user.raw is None
