import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tenred.errors import ParseError, RingMismatchError
from tenred.rings import (
    GF,
    QQ,
    ZZ,
    RingDescriptor,
    Scalar,
    _is_prime,
    one,
    zero,
)


def test_descriptor_str_round_trip():
    for ring in (ZZ, QQ, GF(2), GF(11), GF(101)):
        assert RingDescriptor.from_str(str(ring)) == ring


def test_descriptor_parse_errors():
    with pytest.raises(ParseError):
        RingDescriptor.from_str("R")
    with pytest.raises(ParseError):
        RingDescriptor.from_str("gf:4")
    with pytest.raises(ParseError):
        RingDescriptor.from_str("gf:x")
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(15)


def test_descriptor_properties():
    assert not ZZ.is_field
    assert QQ.is_field
    assert GF(7).is_field
    assert ZZ.field_size is None
    assert QQ.field_size is None
    assert GF(7).field_size == 7


def test_prime_field_canonicalization():
    p = GF(7)
    assert Scalar(p, 10).value == 3
    assert Scalar(p, -1).value == 6
    assert Scalar(p, 21).is_zero
    assert (Scalar(p, 3) + Scalar(p, 5)).value == 1
    assert (Scalar(p, 3) * Scalar(p, 5)).value == 1
    assert (-Scalar(p, 2)).value == 5


def test_rational_canonicalization():
    x = Scalar(QQ, Fraction(2, 4))
    assert x.value == Fraction(1, 2)
    assert str(x) == "1/2"
    assert str(Scalar(QQ, Fraction(3))) == "3"
    assert str(Scalar(QQ, Fraction(-5, 3))) == "-5/3"


def test_integer_ring_rejects_fractions():
    with pytest.raises(ValueError):
        Scalar(ZZ, Fraction(1, 2))


def test_inverse():
    assert Scalar(QQ, Fraction(2, 3)).inverse().value == Fraction(3, 2)
    assert Scalar(GF(11), 4).inverse().value == 3
    with pytest.raises(ValueError):
        Scalar(ZZ, 2).inverse()
    with pytest.raises(ZeroDivisionError):
        zero(QQ).inverse()
    with pytest.raises(ZeroDivisionError):
        zero(GF(5)).inverse()


def test_raw_inverse():
    # Scalar.inverse delegates to it: the same values and the same errors
    assert QQ.inverse(Fraction(2, 3)) == Fraction(3, 2)
    assert type(QQ.inverse(Fraction(2))) is Fraction
    assert GF(11).inverse(4) == 3
    with pytest.raises(ValueError, match="over the integers"):
        ZZ.inverse(2)
    with pytest.raises(ZeroDivisionError):
        QQ.inverse(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        GF(5).inverse(0)


def test_power():
    assert Scalar(GF(11), 2).power(10).is_one
    assert Scalar(QQ, Fraction(1, 2)).power(3).value == Fraction(1, 8)
    assert Scalar(ZZ, 5).power(0).is_one
    with pytest.raises(ValueError):
        Scalar(ZZ, 2).power(-1)


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        Scalar(QQ, 1) + Scalar(ZZ, 1)
    with pytest.raises(RingMismatchError):
        Scalar(GF(5), 1) * Scalar(GF(7), 1)


def test_scalar_from_str():
    assert Scalar.from_str(QQ, "-3/4").value == Fraction(-3, 4)
    assert Scalar.from_str(ZZ, " 12 ").value == 12
    assert Scalar.from_str(GF(5), "7").value == 2
    with pytest.raises(ParseError):
        Scalar.from_str(QQ, "1/0")
    with pytest.raises(ParseError):
        Scalar.from_str(ZZ, "1/2")
    with pytest.raises(ParseError):
        Scalar.from_str(GF(5), "a")


def _scalars(ring):
    if ring.kind == "prime-field":
        return st.integers(0, ring.modulus - 1).map(lambda n: Scalar(ring, n))
    if ring == QQ:
        return st.builds(
            Fraction, st.integers(-50, 50), st.integers(1, 50)
        ).map(lambda q: Scalar(ring, q))
    return st.integers(-50, 50).map(lambda n: Scalar(ring, n))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(11)], ids=str)
def test_ring_axioms(ring):
    @given(_scalars(ring), _scalars(ring), _scalars(ring))
    def check(a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero(ring) == a
        assert a * one(ring) == a
        assert a + (-a) == zero(ring)
        if ring.is_field and not b.is_zero:
            assert b * b.inverse() == one(ring)

    check()


def from_int(ring, n):
    """Image of the integer n in the ring."""
    return Scalar(ring, n)


def test_from_int_embedding():
    assert from_int(GF(3), 5).value == 2
    assert from_int(QQ, 5).value == Fraction(5)
    assert from_int(ZZ, 5).value == 5


def test_sort_key_total_order():
    vals = [Scalar(GF(7), n) for n in (4, 1, 6, 0)]
    assert [s.value for s in sorted(vals, key=Scalar.sort_key)] == [0, 1, 4, 6]


def _trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(-3, 100_000):
        assert _is_prime(n) == _trial_division_prime(n), n


# Each is composite and a strong pseudoprime to every one of the first k
# prime bases, for k = 1, 2, 3, 4, 5, 6, 8, 9 and 12 in turn.
STRONG_PSEUDOPRIMES = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
]


def test_is_prime_refuses_strong_pseudoprimes():
    for n in STRONG_PSEUDOPRIMES:
        assert not _is_prime(n), n
    assert 318665857834031151167461 == 399165290221 * 798330580441
    assert not _is_prime((2**61 - 1) * (2**19 - 1))
    assert _is_prime(2**61 - 1) and _is_prime(2**31 - 1)
    assert GF(2**61 - 1).modulus == 2**61 - 1


def test_is_prime_never_guesses_above_its_bound():
    # the least strong pseudoprime to all thirteen bases 2..41
    psi13 = 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match="too large"):
        _is_prime(psi13)
    with pytest.raises(ValueError, match="too large"):
        GF(2**89 - 1)  # a prime, but above the bound
    assert not _is_prime(10**29 + 1)  # above it, but 11 divides it


def test_thirty_digit_modulus_is_refused_fast():
    # trial division would need about 10**14 steps on this 30-digit product
    # of two 15-digit primes
    p, q = 10**14 + 31, 10**15 + 37
    assert _is_prime(p) and _is_prime(q)
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match="too large"):
        RingDescriptor.from_str(f"gf:{p * q}")
    assert time.perf_counter() - t0 < 0.5


def test_prime_field_kind_is_named_only_in_rings():
    # elsewhere ``modulus`` or ``field_size`` tells GF(p) apart, so the ring
    # kinds keep one spelling, here
    package = Path(__file__).resolve().parent.parent / "src" / "tenred"
    named = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "rings.py" and "PRIME_FIELD" in path.read_text(encoding="utf-8")
    ]
    assert package.joinpath("rings.py").is_file()
    assert named == []
