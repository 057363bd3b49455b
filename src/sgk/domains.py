"""Scalar value domains.

Every container and every operation descriptor is tied to exactly one
ValueDomain, so mixed-domain containers cannot be constructed.  Integer
domains model fixed-width machine integers (Python ints constrained to the
width's range), float-single values are doubles rounded to 32-bit precision,
and opaque handles are equality-comparable identifiers with no arithmetic.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from .errors import DomainMismatchError, UnsupportedDomainError


def _round_to_single(x: float) -> float:
    try:
        (y,) = struct.unpack("<f", struct.pack("<f", x))
    except OverflowError:
        # Magnitudes that round past the largest finite 32-bit value
        # overflow to the correctly signed infinity.
        return math.inf if x > 0 else -math.inf
    return y


def _identity(value):
    return value


class _Kind(NamedTuple):
    """What a domain kind resolves to; one record per kind, built at import."""

    family: str                       # boolean, integer, float, complex or opaque
    lo: Any                           # smallest value, None when unordered
    hi: Any                           # largest value, None when unordered
    contains: Callable[[Any], bool]
    normalize: Callable[[Any], Any] = _identity  # rounds float-single results
    wrap: Callable[[int], int] | None = None  # two's complement, integers only
    bits: int | None = None


def _integer(bits: int, signed: bool) -> _Kind:
    size = 1 << bits
    lo, hi = (-(size >> 1), (size >> 1) - 1) if signed else (0, size - 1)

    def contains(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi

    def wrap(value: int) -> int:
        m = value & (size - 1)
        return m - size if m > hi else m

    return _Kind("integer", lo, hi, contains, wrap=wrap, bits=bits)


def _is_single(value) -> bool:
    return isinstance(value, float) and (math.isnan(value) or _round_to_single(value) == value)


# In the order of ALL_DOMAINS, which names its members below.
_KINDS = {
    "boolean": _Kind("boolean", False, True, bool.__instancecheck__),
    **{f"{sign}-int-{bits}": _integer(bits, sign == "signed")
       for sign in ("signed", "unsigned") for bits in (8, 16, 32, 64)},
    "float-single": _Kind("float", -math.inf, math.inf, _is_single, _round_to_single),
    "float-double": _Kind("float", -math.inf, math.inf, float.__instancecheck__),
    "complex-double": _Kind("complex", None, None, complex.__instancecheck__),
    # Opaque handles accept any equality-comparable object.
    "opaque-handle": _Kind("opaque", None, None, lambda v: True),
}


@dataclass(frozen=True)
class ValueDomain:
    """A named scalar carrier set, resolved from `_KINDS` once when built.

    `contains(value)` is the kind's membership predicate itself, so a caller
    checking many values can bind it once.
    """

    kind: str
    _k: _Kind = field(init=False, repr=False, compare=False)
    contains: Callable[[Any], bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedDomainError(f"unknown value domain kind {self.kind!r}")
        object.__setattr__(self, "_k", _KINDS[self.kind])
        object.__setattr__(self, "contains", self._k.contains)

    def __reduce__(self):
        # The resolved record holds closures; pickle the kind alone and
        # unpickle to the canonical domain.
        return domain_from_kind, (self.kind,)

    @property
    def is_boolean(self) -> bool:
        return self._k.family == "boolean"

    @property
    def is_integer(self) -> bool:
        return self._k.family == "integer"

    @property
    def is_signed(self) -> bool:
        return self.is_integer and self._k.lo < 0

    @property
    def bits(self) -> int:
        if self._k.bits is None:
            raise UnsupportedDomainError(f"{self.kind} has no integer width")
        return self._k.bits

    @property
    def is_float(self) -> bool:
        return self._k.family == "float"

    @property
    def is_complex(self) -> bool:
        return self._k.family == "complex"

    @property
    def is_opaque(self) -> bool:
        return self._k.family == "opaque"

    @property
    def min_value(self):
        """Smallest representable value; the encoding of -inf for max-monoids."""
        if self._k.lo is None:
            raise UnsupportedDomainError(f"{self.kind} has no minimum value")
        return self._k.lo

    @property
    def max_value(self):
        """Largest representable value; the encoding of +inf for min-monoids."""
        if self._k.hi is None:
            raise UnsupportedDomainError(f"{self.kind} has no maximum value")
        return self._k.hi

    def check_value(self, value) -> None:
        if not self.contains(value):
            raise DomainMismatchError(f"value {value!r} is not in domain {self.kind}")

    def normalize(self, value):
        """Round a freshly computed value back into the domain.

        Only float-single actually changes anything: arithmetic is performed
        in double precision and re-rounded to 32-bit afterwards.
        """
        return self._k.normalize(value)

    def wrap(self, value: int) -> int:
        """Two's-complement wraparound into the integer domain's range."""
        if self._k.wrap is None:
            raise UnsupportedDomainError(f"{self.kind} has no integer width")
        return self._k.wrap(value)

    def clamp(self, value: int) -> int:
        """Saturate an integer into the domain's range."""
        return min(max(value, self.min_value), self.max_value)


ALL_DOMAINS = tuple(ValueDomain(kind) for kind in _KINDS)
(BOOLEAN, INT8, INT16, INT32, INT64, UINT8, UINT16, UINT32, UINT64,
 FLOAT32, FLOAT64, COMPLEX128, OPAQUE) = ALL_DOMAINS
_BY_KIND = {d.kind: d for d in ALL_DOMAINS}


def domain_from_kind(kind: str) -> ValueDomain:
    try:
        return _BY_KIND[kind]
    except KeyError:
        raise UnsupportedDomainError(f"unknown value domain kind {kind!r}") from None


def _ordered_bits(x: float, single: bool) -> int:
    """Map a float onto integers so adjacent representable values differ by 1."""
    if single:
        (i,) = struct.unpack("<i", struct.pack("<f", x))
        sign_floor = -(1 << 31)
    else:
        (i,) = struct.unpack("<q", struct.pack("<d", x))
        sign_floor = -(1 << 63)
    return i if i >= 0 else sign_floor - i


def ulp_distance(a, b, domain: ValueDomain) -> int:
    """Distance in units of the last place between two values of the domain.

    +0.0 and -0.0 are at distance 0.  For complex values the distance is the
    larger of the per-component distances.
    """
    if domain.is_float:
        single = domain.kind == "float-single"
        return abs(_ordered_bits(a, single) - _ordered_bits(b, single))
    if domain.is_complex:
        return max(
            ulp_distance(a.real, b.real, FLOAT64),
            ulp_distance(a.imag, b.imag, FLOAT64),
        )
    raise UnsupportedDomainError(f"ulp distance is undefined over {domain.kind}")
