import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenred.errors import ParseError, RingMismatchError
from tenred.jsonio import system_from_json
from tenred.polysys import (
    Assignment,
    CnfFormula,
    Polynomial,
    PolySystem,
    encode_3sat,
    parse_dimacs,
    parse_polynomial,
    _grlex_key,
    prefix_sums,
)
from tenred.rings import GF, QQ, ZZ

from reference import point, polynomial_from_term_map


def test_polynomial_canonical_order():
    x = Polynomial.variable(ZZ, 2, 0)
    y = Polynomial.variable(ZZ, 2, 1)
    f = y + x * x + x
    degs = [sum(e for _, e in exps) for exps, _ in f.raw_terms]
    assert degs == sorted(degs, reverse=True)
    assert str(f) == "x1^2 + x1 + x2"


def test_polynomial_algebra():
    x = Polynomial.variable(ZZ, 1, 0)
    cone = Polynomial.constant(ZZ, 1, 1)
    f = (x - cone) * (x + cone)
    assert f == x * x - cone
    assert (f - f).is_zero
    assert f * Polynomial.constant(ZZ, 1, 2) == x * x + x * x - cone - cone
    assert (-f) + f == Polynomial.zero(ZZ, 1)
    assert f.degree == 2
    assert Polynomial.zero(ZZ, 1).degree == 0
    assert Polynomial.constant(ZZ, 1, 0).is_zero
    assert Polynomial.constant(GF(5), 1, 7) == Polynomial.constant(GF(5), 1, 2)


def test_polynomial_compat_errors():
    x = Polynomial.variable(ZZ, 1, 0)
    with pytest.raises(RingMismatchError):
        x + Polynomial.variable(QQ, 1, 0)
    with pytest.raises(ValueError):
        x + Polynomial.variable(ZZ, 2, 0)
    with pytest.raises(RingMismatchError):
        x * Polynomial.constant(QQ, 1, 1)


def test_evaluate():
    f = parse_polynomial("x1^2 - x1 - 1", 1, GF(11))
    assert f.evaluate_raw([4]) == 0
    assert f.evaluate_raw([8]) == 0
    assert f.evaluate_raw([1]) != 0


def test_change_ring():
    f = parse_polynomial("2*x1^2 - 3", 1, ZZ)
    g = f.change_ring(GF(3))
    assert str(g) == "2*x1^2"
    assert f.change_ring(ZZ) is f
    q = f.change_ring(QQ)
    assert q.evaluate_raw([Fraction(1, 2)]) == Fraction(-5, 2)
    with pytest.raises(ValueError):
        q.change_ring(GF(5))


@pytest.mark.parametrize(
    "text,expect",
    [
        ("x1", "x1"),
        ("-x1 + x2", "-x1 + x2"),
        ("x1*x1", "x1^2"),
        ("3*x2^2 - 2*x1 + 1", "3*x2^2 - 2*x1 + 1"),
        ("x1 + x1", "2*x1"),
        ("x1 - x1", "0"),
        ("2 - x1*x2", "-x1*x2 + 2"),
    ],
)
def test_parse_and_str(text, expect):
    f = parse_polynomial(text, 2, ZZ)
    assert str(f) == expect


def test_parse_rational_coefficients():
    f = parse_polynomial("1/2*x1 - 3/4", 1, QQ)
    assert f.evaluate_raw([Fraction(3, 2)]) == 0


def test_parse_round_trip_gf():
    f = parse_polynomial("10*x1^2 + 7*x1*x2 + 5", 2, GF(11))
    assert parse_polynomial(str(f), 2, GF(11)) == f


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_polynomial("x0", 2, ZZ)
    with pytest.raises(ParseError):
        parse_polynomial("x3", 2, ZZ)
    with pytest.raises(ParseError):
        parse_polynomial("x1 +", 2, ZZ)
    with pytest.raises(ParseError):
        parse_polynomial("x1 ? x2", 2, ZZ)
    with pytest.raises(ParseError):
        parse_polynomial("1/2*x1", 1, ZZ)
    with pytest.raises(ParseError):
        parse_polynomial("1/0", 1, QQ)
    with pytest.raises(ParseError):
        parse_polynomial("x1^0", 1, ZZ)
    with pytest.raises(ParseError):
        parse_polynomial("", 1, ZZ)
    with pytest.raises(ParseError):
        parse_polynomial("x1 * 2", 1, ZZ)


@given(
    st.lists(
        st.tuples(
            st.integers(-4, 4).filter(bool),
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_str_parse_round_trip(spec):
    terms = {}
    for coeff, (e1, e2) in spec:
        exps = tuple((v, e) for v, e in enumerate((e1, e2)) if e)
        terms[exps] = terms.get(exps, 0) + coeff
    f = polynomial_from_term_map(ZZ, 2, terms)
    assert parse_polynomial(str(f), 2, ZZ) == f


def test_prefix_sums():
    f = parse_polynomial("x1^2 - x1 - 1", 1, ZZ)
    sums = prefix_sums(f)
    assert len(sums) == 3
    assert str(sums[0]) == "x1^2"
    assert str(sums[1]) == "x1^2 - x1"
    assert sums[2] == f
    assert prefix_sums(Polynomial.zero(ZZ, 1)) == []


def test_system_construction():
    f = parse_polynomial("x1^2 - x1", 1, ZZ)
    sys0 = PolySystem(ZZ, 1, [f, Polynomial.zero(ZZ, 1)])
    assert len(sys0.polynomials) == 1
    with pytest.raises(ValueError):
        PolySystem(ZZ, 1, [Polynomial.constant(ZZ, 1, 1)])
    with pytest.raises(RingMismatchError):
        PolySystem(ZZ, 1, [parse_polynomial("x1", 1, QQ)])
    with pytest.raises(ValueError):
        PolySystem(ZZ, 1, [parse_polynomial("x1 + x2", 2, ZZ)])


def test_first_violation():
    f = parse_polynomial("x1^2 - x1", 1, GF(11))
    g = parse_polynomial("x1 - 1", 1, GF(11))
    system = PolySystem(GF(11), 1, [f, g])
    assert system.first_violation([1]) is None
    hit = system.first_violation([0])
    assert hit is not None and hit[0] == g and hit[1] == 10
    hit2 = system.first_violation([3])
    assert hit2 is not None and hit2[0] == f
    with pytest.raises(ValueError, match="assignment length mismatch"):
        system.first_violation([])


def test_assignment():
    a = point(GF(5), [7, 1])
    assert len(a) == 2
    assert a.ring == GF(5)
    assert a.values[0] == 2
    assert Assignment(QQ, ()).ring == QQ and len(Assignment(QQ, ())) == 0


DIMACS_OK = """\
c tiny instance
p cnf 3 2
1 2 3 0
2 3 0
neq 1 2
"""


def test_parse_dimacs():
    f = parse_dimacs(DIMACS_OK)
    assert f.num_vars == 3
    assert f.clauses == ((0, 1, 2), (1, 2))
    assert f.disequalities == ((0, 1),)


@pytest.mark.parametrize(
    "text",
    [
        "1 2 0",
        "p cnf x 2\n1 0",
        "p cnf 2 1\n1 2",
        "p cnf 2 1\n0",
        "p cnf 2 1\n1 2 3 4 0",
        "p cnf 2 1\n-1 0",
        "p cnf 2 1\n3 0",
        "p cnf 2 1\nneq 1 0",
        "p cnf 2 1\nneq 1 3",
        "",
    ],
)
def test_parse_dimacs_errors(text):
    with pytest.raises(ParseError):
        parse_dimacs(text)


def test_cnf_formula_validation():
    with pytest.raises(ValueError):
        CnfFormula(2, ((0, 1, 1, 0),), ())
    with pytest.raises(ValueError):
        CnfFormula(2, ((5,),), ())
    with pytest.raises(ValueError):
        CnfFormula(2, (), ((0, 9),))


def _sat_assignments(formula):
    out = []
    for bits in itertools.product((0, 1), repeat=formula.num_vars):
        ok = all(any(bits[v] for v in clause) for clause in formula.clauses)
        ok = ok and all(bits[u] != bits[v] for u, v in formula.disequalities)
        if ok:
            out.append(bits)
    return out


def test_encode_3sat_clause_truth_table():
    formula = CnfFormula(3, ((0, 1, 2),), ())
    system = encode_3sat(formula)
    assert system.ring == ZZ
    assert len(system.polynomials) == 4
    for bits in itertools.product((0, 1), repeat=3):
        solves = system.first_violation(bits) is None
        assert solves == (bits in _sat_assignments(formula))


def test_encode_3sat_short_clauses_and_neq():
    formula = CnfFormula(2, ((0,), (0, 1)), ((0, 1),))
    system = encode_3sat(formula)
    for bits in itertools.product((0, 1), repeat=2):
        solves = system.first_violation(bits) is None
        assert solves == (bits in _sat_assignments(formula))


def test_encode_3sat_booleanity_excludes_non_binary():
    formula = CnfFormula(1, (), ())
    system = encode_3sat(formula).change_ring(GF(5))
    roots = [a for a in range(5) if system.first_violation([a]) is None]
    assert roots == [0, 1]


def _dense_grlex_key(exponents, num_vars):
    dense = [0] * num_vars
    for var, exp in exponents:
        dense[var] = exp
    return (sum(dense), tuple(dense))


def _cmp(x, y):
    return (x > y) - (x < y)


def test_grlex_key_orders_like_the_dense_exponent_vector():
    rng = random.Random(8)
    for _ in range(5000):
        n = rng.randint(1, 6)
        a, b = (
            tuple((v, rng.randint(1, 3)) for v in sorted(rng.sample(range(n), rng.randint(0, n))))
            for _ in range(2)
        )
        assert _cmp(_grlex_key(a), _grlex_key(b)) == _cmp(_dense_grlex_key(a, n), _dense_grlex_key(b, n)), (a, b)


def test_parse_memory_does_not_grow_with_num_vars():
    obj = {"ring": "gf:2", "num_vars": 4_000_000, "polynomials": ["x1^2 + x1", "x1^3 + x1^2 + x1 + 1"]}
    tracemalloc.start()
    try:
        F = system_from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F.num_vars == 4_000_000 and len(F.polynomials) == 2
    assert peak < 1_000_000


# A reference for the polynomial arithmetic: term maps {exponents: raw
# value}, zeros dropped, computed with ring.canon after every operation and
# one power at a time, sharing no loop with the arithmetic under test.
_RINGS = [ZZ, QQ, GF(11)]


def _ref_canon(ring, tm):
    return {e: r for e, c in tm.items() if (r := ring.canon(c))}


def _ref_add(ring, a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = ring.canon(out[e] + c) if e in out else c
    return _ref_canon(ring, out)


def _ref_mul(ring, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            merged = dict(ea)
            for var, exp in eb:
                merged[var] = merged.get(var, 0) + exp
            e = tuple(sorted(merged.items()))
            prod = ring.canon(ca * cb)
            out[e] = ring.canon(out[e] + prod) if e in out else prod
    return _ref_canon(ring, out)


def _ref_eval(ring, tm, point):
    total = ring.canon(0)
    for e, c in tm.items():
        acc = c
        for var, exp in e:
            for _ in range(exp):
                acc = ring.canon(acc * point[var])
        total = ring.canon(total + acc)
    return total


def _ref_sort_key(tm, n):
    return tuple(
        (_dense_grlex_key(e, n), tm[e])
        for e in sorted(tm, key=lambda e: _dense_grlex_key(e, n), reverse=True)
    )


def _matches(f, tm):
    """f has the terms of the reference term map tm, in strictly descending
    graded-lex order, and equals the polynomial built from tm, so that its
    stored coefficients are canonical too."""
    keys = [_dense_grlex_key(e, f.num_vars) for e, _ in f.raw_terms]
    assert keys == sorted(set(keys), reverse=True)
    assert dict(f.raw_terms) == tm
    assert all(type(c) is type(f.ring.canon(c)) for _, c in f.raw_terms)
    assert f == polynomial_from_term_map(f.ring, f.num_vars, tm)
    assert hash(f) == hash(polynomial_from_term_map(f.ring, f.num_vars, tm))
    return True


def _values(ring):
    if ring == QQ:
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.integers(-12, 12)


def _term_maps(draw, ring, n):
    spec = draw(
        st.lists(
            st.tuples(_values(ring), st.lists(st.integers(0, 2), min_size=n, max_size=n)),
            max_size=4,
        )
    )
    tm = {}
    for value, dense in spec:
        e = tuple((v, x) for v, x in enumerate(dense) if x)
        s = ring.canon(value)
        tm[e] = ring.canon(tm[e] + s) if e in tm else s
    return _ref_canon(ring, tm)


@settings(derandomize=True, max_examples=300, database=None)
@given(data=st.data())
def test_arithmetic_matches_a_scalar_reference(data):
    ring = data.draw(st.sampled_from(_RINGS))
    n = data.draw(st.integers(0, 3))
    a, b = _term_maps(data.draw, ring, n), _term_maps(data.draw, ring, n)
    f, g = polynomial_from_term_map(ring, n, a), polynomial_from_term_map(ring, n, b)
    assert _matches(f, a) and _matches(g, b)
    neg_b = _ref_canon(ring, {e: -c for e, c in b.items()})
    assert _matches(f + g, _ref_add(ring, a, b))
    assert _matches(f - g, _ref_add(ring, a, neg_b))
    assert _matches(-g, neg_b)
    assert _matches(f * g, _ref_mul(ring, a, b))
    s = ring.canon(data.draw(_values(ring)))
    assert _matches(f * Polynomial.constant(ring, n, s), _ref_canon(ring, {e: c * s for e, c in a.items()}))
    values = [ring.canon(data.draw(_values(ring))) for _ in range(n)]
    got = f.evaluate_raw(values)
    assert type(got) is type(ring.canon(0))
    assert got == _ref_eval(ring, a, values)
    assert _cmp(f.sort_key(), g.sort_key()) == _cmp(_ref_sort_key(a, n), _ref_sort_key(b, n))
    assert (f == g) == (a == b)
    assert parse_polynomial(str(f), n, ring) == f
    assert (f.is_constant, f.is_zero) == (all(not e for e in a), not a)
    if f.is_constant:
        assert (f.raw_terms[0][1] if f.raw_terms else 0) == a.get((), 0)
    if ring == ZZ:
        for target in (QQ, GF(11)):
            h = f.change_ring(target)
            assert h.ring == target
            assert _matches(h, _ref_canon(target, a))
