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
from dataclasses import dataclass

from .errors import DomainMismatchError, UnsupportedDomainError

_INT_KINDS = {
    "signed-int-8": (8, True),
    "signed-int-16": (16, True),
    "signed-int-32": (32, True),
    "signed-int-64": (64, True),
    "unsigned-int-8": (8, False),
    "unsigned-int-16": (16, False),
    "unsigned-int-32": (32, False),
    "unsigned-int-64": (64, False),
}

_ALL_KINDS = (
    "boolean",
    *_INT_KINDS,
    "float-single",
    "float-double",
    "complex-double",
    "opaque-handle",
)


def _round_to_single(x: float) -> float:
    try:
        (y,) = struct.unpack("<f", struct.pack("<f", x))
    except OverflowError:
        # Magnitudes that round past the largest finite 32-bit value
        # overflow to the correctly signed infinity.
        return math.inf if x > 0 else -math.inf
    return y


@dataclass(frozen=True)
class ValueDomain:
    """A named scalar carrier set."""

    kind: str

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise UnsupportedDomainError(f"unknown value domain kind {self.kind!r}")

    @property
    def is_boolean(self) -> bool:
        return self.kind == "boolean"

    @property
    def is_integer(self) -> bool:
        return self.kind in _INT_KINDS

    @property
    def is_signed(self) -> bool:
        return self.kind in _INT_KINDS and _INT_KINDS[self.kind][1]

    @property
    def bits(self) -> int:
        if self.kind not in _INT_KINDS:
            raise UnsupportedDomainError(f"{self.kind} has no integer width")
        return _INT_KINDS[self.kind][0]

    @property
    def is_float(self) -> bool:
        return self.kind in ("float-single", "float-double")

    @property
    def is_complex(self) -> bool:
        return self.kind == "complex-double"

    @property
    def is_opaque(self) -> bool:
        return self.kind == "opaque-handle"

    @property
    def min_value(self):
        """Smallest representable value; the encoding of -inf for max-monoids."""
        if self.is_boolean:
            return False
        if self.is_integer:
            bits, signed = _INT_KINDS[self.kind]
            return -(1 << (bits - 1)) if signed else 0
        if self.is_float:
            return -math.inf
        raise UnsupportedDomainError(f"{self.kind} has no minimum value")

    @property
    def max_value(self):
        """Largest representable value; the encoding of +inf for min-monoids."""
        if self.is_boolean:
            return True
        if self.is_integer:
            bits, signed = _INT_KINDS[self.kind]
            return (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
        if self.is_float:
            return math.inf
        raise UnsupportedDomainError(f"{self.kind} has no maximum value")

    def contains(self, value) -> bool:
        if self.is_boolean:
            return isinstance(value, bool)
        if self.is_integer:
            if isinstance(value, bool) or not isinstance(value, int):
                return False
            return self.min_value <= value <= self.max_value
        if self.kind == "float-double":
            return isinstance(value, float)
        if self.kind == "float-single":
            if not isinstance(value, float):
                return False
            if math.isnan(value):
                return True
            return _round_to_single(value) == value
        if self.is_complex:
            return isinstance(value, complex)
        return True  # opaque handles accept any equality-comparable object

    def check_value(self, value) -> None:
        if not self.contains(value):
            raise DomainMismatchError(f"value {value!r} is not in domain {self.kind}")

    def normalize(self, value):
        """Round a freshly computed value back into the domain.

        Only float-single actually changes anything: arithmetic is performed
        in double precision and re-rounded to 32-bit afterwards.
        """
        if self.kind == "float-single":
            return _round_to_single(value)
        return value

    def wrap(self, value: int) -> int:
        """Two's-complement wraparound into the integer domain's range."""
        bits, signed = _INT_KINDS[self.kind]
        m = value & ((1 << bits) - 1)
        if signed and m >= (1 << (bits - 1)):
            m -= 1 << bits
        return m

    def clamp(self, value: int) -> int:
        """Saturate an integer into the domain's range."""
        lo, hi = self.min_value, self.max_value
        if value < lo:
            return lo
        if value > hi:
            return hi
        return value


BOOLEAN = ValueDomain("boolean")
INT8 = ValueDomain("signed-int-8")
INT16 = ValueDomain("signed-int-16")
INT32 = ValueDomain("signed-int-32")
INT64 = ValueDomain("signed-int-64")
UINT8 = ValueDomain("unsigned-int-8")
UINT16 = ValueDomain("unsigned-int-16")
UINT32 = ValueDomain("unsigned-int-32")
UINT64 = ValueDomain("unsigned-int-64")
FLOAT32 = ValueDomain("float-single")
FLOAT64 = ValueDomain("float-double")
COMPLEX128 = ValueDomain("complex-double")
OPAQUE = ValueDomain("opaque-handle")

ALL_DOMAINS = (
    BOOLEAN,
    INT8, INT16, INT32, INT64,
    UINT8, UINT16, UINT32, UINT64,
    FLOAT32, FLOAT64,
    COMPLEX128,
    OPAQUE,
)

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
