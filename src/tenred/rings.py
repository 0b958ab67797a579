"""Exact scalars over the integers, the rationals, and prime fields GF(p).

Values are kept canonical at all times: rationals in lowest terms with a
positive denominator (as ``fractions.Fraction`` guarantees), prime-field
residues in ``[0, p)``.  Ranks and inverses elsewhere in the package are
always taken over the fraction field of the ring, so exactness is preserved
end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, RingMismatchError

INTEGERS = "integers"
RATIONALS = "rationals"
PRIME_FIELD = "prime-field"


# The first 13 primes.  Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases" (Math. Comp. 2017), show that the least composite passing the
# strong test to all of them is _SPRP_BOUND, so below it the test is a proof.
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SPRP_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= _SPRP_BOUND."""
    if n < 2 or any(n % b == 0 for b in _SPRP_BASES):
        return n in _SPRP_BASES
    if n >= _SPRP_BOUND:
        raise ValueError(f"modulus {n} is too large: primality is decided only below {_SPRP_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    return all(
        (x := pow(b, d, n)) == 1 or any(pow(x, 2**k, n) == n - 1 for k in range(s))
        for b in _SPRP_BASES
    )


@dataclass(frozen=True)
class RingDescriptor:
    """One of Z, Q, or GF(p) for a prime 2 <= p < 3.3e24."""

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (INTEGERS, RATIONALS, PRIME_FIELD):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == PRIME_FIELD:
            if self.modulus is None or not _is_prime(self.modulus):
                raise ValueError(f"modulus must be a prime >= 2, got {self.modulus!r}")
        elif self.modulus is not None:
            raise ValueError(f"ring kind {self.kind!r} carries no modulus")

    @property
    def is_field(self) -> bool:
        return self.kind != INTEGERS

    @property
    def field_size(self) -> int | None:
        """Number of elements for finite fields, None for infinite rings."""
        return self.modulus if self.kind == PRIME_FIELD else None

    def __str__(self) -> str:
        if self.kind == INTEGERS:
            return "Z"
        if self.kind == RATIONALS:
            return "Q"
        return f"gf:{self.modulus}"

    @staticmethod
    def from_str(text: str) -> "RingDescriptor":
        """Parse a ring spelling as used by the CLI: Z, Q, or gf:p."""
        t = text.strip()
        if t == "Z":
            return ZZ
        if t == "Q":
            return QQ
        if t.startswith("gf:"):
            try:
                p = int(t[3:])
            except ValueError:
                raise ParseError(f"bad prime field spelling {text!r}") from None
            try:
                return RingDescriptor(PRIME_FIELD, p)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        raise ParseError(f"unknown ring {text!r} (expected Z, Q, or gf:p)")


ZZ = RingDescriptor(INTEGERS)
QQ = RingDescriptor(RATIONALS)


def GF(p: int) -> RingDescriptor:
    return RingDescriptor(PRIME_FIELD, p)


@dataclass(frozen=True, slots=True)
class Scalar:
    """An exact ring element; the wrapped value is always canonical."""

    ring: RingDescriptor
    value: int | Fraction

    def __post_init__(self) -> None:
        kind = self.ring.kind
        if kind == PRIME_FIELD:
            object.__setattr__(self, "value", int(self.value) % self.ring.modulus)
        elif kind == RATIONALS:
            if not isinstance(self.value, Fraction):
                object.__setattr__(self, "value", Fraction(self.value))
        else:
            if not isinstance(self.value, int):
                raise ValueError(f"integer ring cannot hold {self.value!r}")

    def _check(self, other: "Scalar") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.ring, self.value + other.value)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.ring, self.value - other.value)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.ring, self.value * other.value)

    def __neg__(self) -> "Scalar":
        return Scalar(self.ring, -self.value)

    def inverse(self) -> "Scalar":
        if self.ring.kind == INTEGERS:
            raise ValueError("inversion requested over the integers")
        if self.value == 0:
            raise ZeroDivisionError("inversion of zero")
        if self.ring.kind == PRIME_FIELD:
            return Scalar(self.ring, pow(self.value, -1, self.ring.modulus))
        return Scalar(self.ring, Fraction(1) / self.value)

    def power(self, k: int) -> "Scalar":
        if k < 0:
            raise ValueError("negative exponent")
        return Scalar(self.ring, pow(self.value, k, self.ring.field_size))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_one(self) -> bool:
        return self.value == 1

    def sort_key(self):
        """A total order on the ring's canonical values, used for determinism."""
        return self.value

    def __str__(self) -> str:
        return str(self.value)  # a Fraction prints as "n/d", or "n" if d == 1

    @staticmethod
    def from_str(ring: RingDescriptor, text: str) -> "Scalar":
        t = text.strip()
        if ring.kind == RATIONALS:
            try:
                return Scalar(ring, Fraction(t))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad rational literal {text!r}") from None
        try:
            n = int(t)
        except ValueError:
            raise ParseError(f"coefficient {text!r} is not in ring {ring}") from None
        return Scalar(ring, n)


def zero(ring: RingDescriptor) -> Scalar:
    return Scalar(ring, 0)


def one(ring: RingDescriptor) -> Scalar:
    return Scalar(ring, 1)


def from_int(ring: RingDescriptor, n: int) -> Scalar:
    """Image of the integer n in the ring."""
    return Scalar(ring, n)
