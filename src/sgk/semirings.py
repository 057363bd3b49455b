"""Operation descriptors, monoids, semirings, and the semiring registry.

The built-in families follow the usual graph conventions:

    plus_times      (+, *, 0)        numeric domains, integers wrap
    max_plus        (max, +, -inf)   ordered numeric domains
    min_plus        (min, +, +inf)   ordered numeric domains
    min_max         (min, max, +inf) ordered numeric domains
    or_and          (or, and, False) boolean
    min_select2nd   (min, 2nd, +inf) ordered numeric domains

Integer domains have no real infinities, so min-monoids use the domain's
maximum representable value as their identity and max-monoids use the
minimum (floats use actual +-inf).  Multiplications treat that encoded
infinity as absorbing: tropical plus returns it when either operand equals
it (and otherwise saturates instead of wrapping), and select2nd passes the
encoding through.  Without this the annihilator contract mul(0, x) = 0 that
sparse kernels rely on would not hold at the domain boundaries.
"""

from __future__ import annotations

import itertools
import operator
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .domains import BOOLEAN, FLOAT32, ValueDomain, domain_from_kind, ulp_distance
from .errors import (
    DomainMismatchError,
    DuplicateNameError,
    LawCheckError,
    UnknownSemiringError,
    UnsupportedDomainError,
)


@dataclass(frozen=True)
class BinaryOp:
    """A named, deterministic, pure function of two domain values.

    `raw` is None except on the built-in integer plus and times, where it is
    the same operator on unbounded ints, with `eval(a, b) ==
    domain.wrap(raw(a, b))` (two's complement), so a kernel fold may wrap
    once per output.  It is not a constructor argument: only
    `_wrapping` sets it.
    """

    name: str
    domain: ValueDomain
    eval: Callable[[Any, Any], Any] = field(repr=False)
    raw: Callable[[int, int], int] | None = field(default=None, init=False, repr=False,
                                                  compare=False)

    def __call__(self, a, b):
        return self.eval(a, b)


@dataclass(frozen=True)
class UnaryOp:
    """A named, deterministic, pure function from one domain into another."""

    name: str
    input_domain: ValueDomain
    output_domain: ValueDomain
    eval: Callable[[Any], Any] = field(repr=False)

    def __call__(self, a):
        return self.eval(a)


@dataclass(frozen=True)
class IndexUnaryOp:
    """A unary op that also receives the entry's row and column, eval(x, i, j),
    with j = 0 for a vector entry i (the GraphBLAS GrB_IndexUnaryOp)."""

    name: str
    input_domain: ValueDomain
    output_domain: ValueDomain
    eval: Callable[[Any, int, int], Any] = field(repr=False)


@dataclass(frozen=True)
class Monoid:
    """A commutative, associative binary operation with an identity element."""

    op: BinaryOp
    identity: Any

    def __post_init__(self):
        self.op.domain.check_value(self.identity)

    @property
    def domain(self) -> ValueDomain:
        return self.op.domain


@dataclass(frozen=True)
class Semiring:
    """An additive monoid and a multiplication sharing one value domain.

    The additive identity must annihilate under the multiplication; kernels
    skip implicit entries on that basis.
    """

    name: str
    add: Monoid
    mul: BinaryOp

    def __post_init__(self):
        if self.add.domain != self.mul.domain:
            raise DomainMismatchError(
                f"semiring {self.name!r}: add is over {self.add.domain.kind}, "
                f"mul over {self.mul.domain.kind}"
            )

    @property
    def domain(self) -> ValueDomain:
        return self.add.domain

    @property
    def zero(self):
        return self.add.identity


# ---------------------------------------------------------------------------
# Operation factories
#
# Bounds and rounding are resolved when an op is built, not per call.  An
# integer result goes through wrap or clamp only when it is out of range,
# since both are the identity in range; only float-single results round.


def _rounded(domain: ValueDomain, op: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """`op` over a float or complex domain: float-single results are rounded
    to 32 bits, the others are used as computed."""
    if domain == FLOAT32:
        return lambda a, b, _n=domain.normalize: _n(op(a, b))
    return op


def _fitted(domain: ValueDomain, op: Callable[[int, int], int],
            fit: Callable[[int], int]) -> Callable[[int, int], int]:
    """`op` over an integer domain: a result outside the range goes through
    `fit` (wrap or clamp), one inside it is used as computed."""
    lo, hi = domain.min_value, domain.max_value

    def fn(a, b):
        s = op(a, b)
        return s if lo <= s <= hi else fit(s)
    return fn


def _wrapping(name: str, domain: ValueDomain, op: Callable[[int, int], int]) -> BinaryOp:
    """`op` over an integer domain, wrapping out-of-range results; the plain
    `op` is kept as `raw`, so a fold may wrap once at its end instead."""
    wrapping = BinaryOp(name, domain, _fitted(domain, op, domain.wrap))
    object.__setattr__(wrapping, "raw", op)
    return wrapping


def plus_monoid(domain: ValueDomain) -> Monoid:
    """Arithmetic addition; fixed-width integers wrap (two's complement)."""
    if domain.is_integer:
        return Monoid(_wrapping("plus", domain, operator.add), 0)
    if domain.is_float or domain.is_complex:
        identity = 0.0 if domain.is_float else complex(0.0, 0.0)
        return Monoid(BinaryOp("plus", domain, _rounded(domain, operator.add)), identity)
    raise UnsupportedDomainError(f"plus is not defined over {domain.kind}")


def times_op(domain: ValueDomain) -> BinaryOp:
    """Arithmetic multiplication; fixed-width integers wrap."""
    if domain.is_integer:
        return _wrapping("times", domain, operator.mul)
    if domain.is_float or domain.is_complex:
        return BinaryOp("times", domain, _rounded(domain, operator.mul))
    raise UnsupportedDomainError(f"times is not defined over {domain.kind}")


def _ordered_numeric(domain: ValueDomain) -> None:
    if not (domain.is_integer or domain.is_float):
        raise UnsupportedDomainError(
            f"ordered arithmetic is not defined over {domain.kind}"
        )


def min_monoid(domain: ValueDomain) -> Monoid:
    """Minimum, with the domain's encoded +infinity as identity."""
    _ordered_numeric(domain)
    return Monoid(BinaryOp("min", domain, lambda a, b: a if a <= b else b),
                  domain.max_value)


def max_monoid(domain: ValueDomain) -> Monoid:
    """Maximum, with the domain's encoded -infinity as identity."""
    _ordered_numeric(domain)
    return Monoid(BinaryOp("max", domain, lambda a, b: a if a >= b else b),
                  domain.min_value)


def or_monoid() -> Monoid:
    return Monoid(BinaryOp("or", BOOLEAN, lambda a, b: a or b), False)


def and_op() -> BinaryOp:
    return BinaryOp("and", BOOLEAN, lambda a, b: a and b)


def tropical_plus_op(domain: ValueDomain, absorbing) -> BinaryOp:
    """Addition that treats an encoded infinity as absorbing.

    Integer sums saturate at the domain bounds instead of wrapping; float
    sums short-circuit so that +inf plus -inf cannot produce a NaN.
    """
    _ordered_numeric(domain)
    z = absorbing
    add = lambda a, b: z if a == z or b == z else a + b
    if domain.is_integer:
        fn = _fitted(domain, add, domain.clamp)
    else:
        fn = _rounded(domain, add)
    return BinaryOp("tropical_plus", domain, fn)


def select2nd_op(domain: ValueDomain, absorbing) -> BinaryOp:
    """Return the second operand, except that the encoded infinity absorbs.

    A plain (a, b) -> b would map (0, x) to x and break the annihilator
    contract, so the absorbing element is passed through from either side.
    """
    def fn(a, b, _z=absorbing):
        return _z if a == _z else b
    return BinaryOp("select2nd", domain, fn)


# ---------------------------------------------------------------------------
# Law checking


# Float and complex law checks accept results this many ULPs apart.
_ULP_TOL = 1


def _values_equal(domain: ValueDomain, a, b) -> bool:
    if domain.is_float or domain.is_complex:
        return ulp_distance(a, b, domain) <= _ULP_TOL
    return a == b


def law_sample_pool(s: Semiring, rng: random.Random, size: int = 64) -> list:
    """Domain values used to probe a semiring's laws.

    Includes the additive identity, the domain extremes, and random draws.
    For semirings whose addition rounds (plus_times over floats or complex),
    the pool is restricted to positive finite magnitudes: sign-mixed sums
    cancel catastrophically and no fixed ULP bound on associativity could
    hold, while 0 * inf would produce NaN and break the annihilator check.
    """
    d = s.domain
    rounding_add = s.name.startswith("plus_times/") and (d.is_float or d.is_complex)
    if d.is_boolean:
        return [False, True]
    if d.is_integer:
        lo, hi = d.min_value, d.max_value
        pool = {0, 1, lo, hi, lo + 1, hi - 1}
        if d.is_signed:
            pool.add(-1)
        while len(pool) < size:
            pool.add(rng.randint(-100 if d.is_signed else 0, 100))
            pool.add(rng.randint(lo, hi))
        return sorted(pool)
    if d.is_float:
        def draw() -> float:
            return d.normalize(10.0 ** rng.uniform(-6.0, 6.0))

        if rounding_add:
            big = 3.4028234663852886e38 if d == FLOAT32 else 1.7976931348623157e308
            tiny = 1.401298464324817e-45 if d == FLOAT32 else 5e-324
            pool = [0.0, 0.5, 1.0, 2.0, big, tiny]
            while len(pool) < size:
                pool.append(draw())
            return pool
        pool = [0.0, 1.0, -1.0, d.max_value, d.min_value]
        while len(pool) < size:
            x = draw()
            pool.append(x if rng.random() < 0.5 else -x)
        return pool
    if d.is_complex:
        def draw_c() -> complex:
            return complex(10.0 ** rng.uniform(-6.0, 6.0), 10.0 ** rng.uniform(-6.0, 6.0))

        pool = [complex(0.0, 0.0), complex(1.0, 0.0), complex(0.0, 1.0)]
        while len(pool) < size:
            pool.append(draw_c())
        return pool
    raise UnsupportedDomainError(
        f"no default law samples over {d.kind}; pass explicit samples"
    )


def check_law_triples(s: Semiring, triples: Iterable[tuple]) -> None:
    """Check add commutativity/associativity/identity and the annihilator.

    Each law is verified in its own full pass over the triples so the
    reported failure names the simplest broken law, not whichever check
    happened to run first.  Exact domains must match exactly; float and
    complex domains within `_ULP_TOL` units in the last place.
    """
    add = s.add.op.eval
    mul = s.mul.eval
    zero = s.add.identity
    d = s.domain
    triples = list(triples)
    for a, b, _c in triples:
        if not _values_equal(d, add(a, b), add(b, a)):
            raise LawCheckError("commutativity", (a, b))
    for a, b, c in triples:
        left = add(add(a, b), c)
        right = add(a, add(b, c))
        if not _values_equal(d, left, right):
            raise LawCheckError("associativity", (a, b, c))
    for a, _b, _c in triples:
        if not _values_equal(d, add(a, zero), a):
            raise LawCheckError("identity", (a,))
    for a, _b, _c in triples:
        if not _values_equal(d, mul(zero, a), zero) or not _values_equal(
            d, mul(a, zero), zero
        ):
            raise LawCheckError("annihilator", (a,))


def verify_semiring_laws(s: Semiring, samples: Sequence | None = None) -> None:
    """Registration-time gate: exhaustive law check over a compact sample."""
    if samples is None:
        samples = law_sample_pool(s, random.Random(0x5EED), size=16)
    for v in samples:
        s.domain.check_value(v)
    check_law_triples(s, itertools.product(samples, repeat=3))


# ---------------------------------------------------------------------------
# Registry

def _absorbing(add_of, mul_of):
    """Builder for a family whose multiplication absorbs the add identity."""
    def build(domain: ValueDomain) -> tuple[Monoid, BinaryOp]:
        add = add_of(domain)
        return add, mul_of(domain, add.identity)
    return build


# Each built-in family: its canonical domain kind and a builder of its
# (additive monoid, multiplication) over a domain.  The op factories refuse
# the domains a family is not defined over.
_FAMILIES: dict[str, tuple[str, Callable[[ValueDomain], tuple[Monoid, BinaryOp]]]] = {
    "plus_times": ("float-double", lambda d: (plus_monoid(d), times_op(d))),
    "max_plus": ("float-double", _absorbing(max_monoid, tropical_plus_op)),
    "min_plus": ("float-double", _absorbing(min_monoid, tropical_plus_op)),
    "min_max": ("signed-int-64",
                lambda d: (min_monoid(d), BinaryOp("max", d, max_monoid(d).op.eval))),
    "or_and": ("boolean", lambda d: (or_monoid(), and_op())),
    "min_select2nd": ("signed-int-64", _absorbing(min_monoid, select2nd_op)),
}

CANONICAL_NAMES = tuple(f"{family}/{kind}" for family, (kind, _) in _FAMILIES.items())


_registry: dict[str, Semiring] = {}
_registry_lock = threading.Lock()


def registry_get(name: str) -> Semiring:
    """Look up a semiring by name.

    Built-in names have the form "family/domain-kind"; a bare family name
    resolves to its canonical domain (for example "min_plus" means
    "min_plus/float-double").  User-registered names are matched verbatim.
    """
    if not isinstance(name, str) or not name:
        raise UnknownSemiringError(f"invalid semiring name {name!r}")
    found = _registry.get(name)
    if found is not None:
        return found
    family, _, kind = name.partition("/")
    if family not in _FAMILIES:
        raise UnknownSemiringError(f"unknown semiring {name!r}")
    canonical, build = _FAMILIES[family]
    kind = kind or canonical
    full = f"{family}/{kind}"
    with _registry_lock:
        found = _registry.get(full)
        if found is None:
            try:
                domain = domain_from_kind(kind)
                add, mul = build(domain)
                if add.domain != domain:  # or_and builds over boolean whatever it is given
                    raise UnsupportedDomainError(kind)
            except UnsupportedDomainError:
                raise UnsupportedDomainError(f"{family} is not defined over {kind!r}") from None
            found = _registry[full] = Semiring(full, add, mul)
    return found


def register_semiring(s: Semiring, samples: Sequence | None = None) -> str:
    """Add a user semiring to the registry after checking its laws.

    The additive monoid must be associative, commutative, and have its
    declared identity; the identity must annihilate under the
    multiplication.  Checks run over `samples` when given, otherwise over a
    generated pool for the domain.  Returns the registered name.
    """
    family = s.name.partition("/")[0]
    if family in _FAMILIES:
        raise DuplicateNameError(
            f"{s.name!r} collides with the built-in family {family!r}"
        )
    verify_semiring_laws(s, samples)
    with _registry_lock:
        if s.name in _registry:
            raise DuplicateNameError(f"semiring {s.name!r} is already registered")
        _registry[s.name] = s
    return s.name
