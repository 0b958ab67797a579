import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tenred.errors import ParseError
from tenred.polysys import Polynomial
from tenred.rings import GF, QQ, ZZ, RingDescriptor, _is_prime


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
    assert p.canon(10) == 3
    assert p.canon(-1) == 6
    assert p.canon(21) == 0
    assert p.canon(3 + 5) == 1
    assert p.canon(3 * 5) == 1
    assert p.canon(-2) == 5
    assert p.parse("10") == 3


def test_rational_canonicalization():
    x = QQ.canon(Fraction(2, 4))
    assert x == Fraction(1, 2)
    assert str(x) == "1/2"
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert type(QQ.canon(3)) is Fraction and str(QQ.canon(3)) == "3"
    assert str(QQ.canon(Fraction(-5, 3))) == "-5/3"


def test_integer_ring_rejects_fractions():
    with pytest.raises(ValueError):
        ZZ.canon(Fraction(1, 2))
    with pytest.raises(ParseError, match="not in ring Z"):
        ZZ.parse("1/2")


def test_inverse():
    assert QQ.inverse(QQ.canon(Fraction(2, 3))) == Fraction(3, 2)
    assert GF(11).inverse(4) == 3
    with pytest.raises(ValueError):
        ZZ.inverse(2)
    with pytest.raises(ZeroDivisionError):
        QQ.inverse(QQ.canon(0))
    with pytest.raises(ZeroDivisionError):
        GF(5).inverse(0)


def test_raw_inverse():
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
    # a power of a raw value is taken where a polynomial is evaluated
    def power(ring, v, k):
        return Polynomial(ring, 1, ((((0, k),), ring.canon(1)),)).evaluate_raw([v])

    assert power(GF(11), 2, 10) == 1
    assert power(QQ, Fraction(1, 2), 3) == Fraction(1, 8)
    assert ZZ.canon(pow(5, 0)) == 1


def test_scalar_from_str():
    # RingDescriptor.parse reads every value a file or a --solution spells
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    assert ZZ.parse(" 12 ") == 12
    assert GF(5).parse("7") == 2
    assert GF(7).parse("10") == 3
    assert QQ.parse("2/4") == Fraction(1, 2)
    with pytest.raises(ParseError, match="bad rational literal '1/0'"):
        QQ.parse("1/0")
    with pytest.raises(ParseError, match="bad rational literal 'x'"):
        QQ.parse("x")
    with pytest.raises(ParseError, match=r"coefficient '1/2' is not in ring Z"):
        ZZ.parse("1/2")
    with pytest.raises(ParseError, match=r"coefficient '1/2' is not in ring gf:5"):
        GF(5).parse("1/2")
    with pytest.raises(ParseError, match=r"coefficient 'a' is not in ring gf:5"):
        GF(5).parse("a")
    with pytest.raises(ParseError, match=r"coefficient 'x' is not in ring gf:5"):
        GF(5).parse("x")


def _values(ring):
    if ring.kind == "prime-field":
        return st.integers(0, ring.modulus - 1)
    if ring == QQ:
        return st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))
    return st.integers(-50, 50)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(11)], ids=str)
def test_ring_axioms(ring):
    # raw values made canonical by canon after each operation, as the package does
    c_ = ring.canon

    @given(_values(ring), _values(ring), _values(ring))
    def check(a, b, c):
        assert c_(a + b) == c_(b + a)
        assert c_(a * b) == c_(b * a)
        assert c_(c_(a + b) + c) == c_(a + c_(b + c))
        assert c_(c_(a * b) * c) == c_(a * c_(b * c))
        assert c_(a * c_(b + c)) == c_(c_(a * b) + c_(a * c))
        assert c_(a + c_(0)) == c_(a)
        assert c_(a * c_(1)) == c_(a)
        assert c_(a + c_(-a)) == c_(0)
        if ring.is_field and c_(b):
            assert c_(c_(b) * ring.inverse(c_(b))) == c_(1)

    check()


def test_from_int_embedding():
    # the image of an integer in the ring
    assert GF(3).canon(5) == 2
    assert QQ.canon(5) == Fraction(5) and type(QQ.canon(5)) is Fraction
    assert ZZ.canon(5) == 5


def test_sort_key_total_order():
    # canonical values of GF(p) order as their residues
    vals = [GF(7).canon(n) for n in (4, 1, 6, 0)]
    assert sorted(vals) == [0, 1, 4, 6]


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


@pytest.mark.parametrize(
    "name, allowed",
    [
        # elsewhere ``modulus`` or ``field_size`` tells GF(p) apart, so the
        # ring kinds keep one spelling, in rings.py
        pytest.param("PRIME_FIELD", ["rings.py"], id="PRIME_FIELD"),
        # a ring value is a canonical raw value at every layer: there is no
        # boxed form, and no second, trusted constructor beside the one
        pytest.param("Scalar", [], id="Scalar"),
        pytest.param("Monomial", [], id="Monomial"),
        pytest.param("_from_raw", [], id="_from_raw"),
    ],
)
def test_name_appears_only_where_allowed(name, allowed):
    package = Path(__file__).resolve().parent.parent / "src" / "tenred"
    assert all(package.joinpath(f).is_file() for f in allowed)
    named = [path.name for path in sorted(package.glob("*.py")) if name in path.read_text(encoding="utf-8")]
    assert [f for f in named if f not in allowed] == []
