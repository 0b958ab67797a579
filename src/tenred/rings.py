"""Exact ring values over the integers, the rationals, and prime fields GF(p).

A ring value is a plain canonical raw value: an ``int`` over Z, a
``fractions.Fraction`` in lowest terms with a positive denominator over Q,
an ``int`` in ``[0, p)`` over GF(p).  Ranks and inverses elsewhere in the
package are always taken over the fraction field of the ring, so exactness
is preserved end to end.

A vector, and each factor of a decomposition term, is a plain map
{index: canonical nonzero value}.  Containers (``DenseMatrix``, ``Tensor3``,
``SymTensor``, ``IncompleteMatrix``, ``Polynomial``, ``Assignment``) hold
canonical raw values, the zeros of sparse ones omitted, and are built from
them.  Only ``RingDescriptor`` knows how values are spelled and reduced:
``parse`` reads a literal, refusing what is not in the ring; ``canon`` (one
value) and ``canon_map`` (a sparse map) are the only places a value is
reduced; ``inverse`` inverts one.  ``PRIME_FIELD`` is named only in this
module: elsewhere ``modulus`` or ``field_size`` (None outside GF(p)) tells
the rings apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError

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

    def canon(self, v):
        """The canonical raw value of v, a ring element written as an int or
        Fraction: v mod p over GF(p), a Fraction over Q."""
        if self.kind == PRIME_FIELD:
            return v % self.modulus
        if self.kind == RATIONALS:
            return v if isinstance(v, Fraction) else Fraction(v)
        if not isinstance(v, int):
            raise ValueError(f"integer ring cannot hold {v!r}")
        return v

    def canon_map(self, acc: dict) -> dict:
        """A sparse map of raw values made canonical, its zeros dropped."""
        if self.kind == PRIME_FIELD:
            p = self.modulus
            return {k: r for k, v in acc.items() if (r := v % p)}
        canon = self.canon
        return {k: r for k, v in acc.items() if (r := canon(v))}

    def inverse(self, v):
        """The inverse of a canonical nonzero raw value, itself canonical."""
        if self.kind == INTEGERS:
            raise ValueError("inversion requested over the integers")
        if v == 0:
            raise ZeroDivisionError("inversion of zero")
        if self.kind == PRIME_FIELD:
            return pow(v, -1, self.modulus)
        return Fraction(1) / v

    def parse(self, text: str):
        """The canonical raw value a literal spells: an integer, or over Q
        also a fraction n/d; anything else is refused with a ParseError."""
        t = text.strip()
        if self.kind == RATIONALS:
            try:
                return Fraction(t)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad rational literal {text!r}") from None
        try:
            n = int(t)
        except ValueError:
            raise ParseError(f"coefficient {text!r} is not in ring {self}") from None
        return self.canon(n)

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
