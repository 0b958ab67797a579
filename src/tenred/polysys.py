"""Multivariate polynomials in canonical form, plus the 3-SAT encoder.

Polynomials are kept as tuples of (exponents, coefficient) pairs:
exponents a sparse tuple of (variable, power) pairs sorted by variable,
powers >= 1, and coefficients canonical nonzero raw values as in
``rings``, sorted in graded-lexicographic descending order (higher total
degree first; ties broken by the exponent vector with x1 heaviest).
Canonical form makes equality, hashing, and the printed representation
all agree, and printing round-trips through the parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ParseError, RingMismatchError
from .rings import RATIONALS, RingDescriptor, ZZ

Exponents = tuple[tuple[int, int], ...]


def _grlex_key(exponents: Exponents) -> tuple:
    """Total degree, then the exponent vector with x1 heaviest, compared on
    the sparse list (sorted by variable, exponents >= 1) without building it."""
    return (sum(e for _, e in exponents), tuple((-var, exp) for var, exp in exponents))


class Polynomial:
    """A canonical multivariate polynomial over Z, Q, or GF(p).

    ``raw_terms`` holds ``(exponents, value)`` pairs in graded-lex
    descending order, each value canonical and nonzero.  The constructor
    trusts its input to be so; ``_from_map`` makes any map of exponents to
    raw values canonical.
    """

    __slots__ = ("ring", "num_vars", "raw_terms", "_hash", "_sort_key")

    def __init__(self, ring: RingDescriptor, num_vars: int, raw_terms: tuple):
        self.ring = ring
        self.num_vars = num_vars
        self.raw_terms = raw_terms
        self._hash = None
        self._sort_key = None

    @classmethod
    def _from_map(cls, ring: RingDescriptor, num_vars: int, acc: dict) -> "Polynomial":
        """A polynomial from a map of exponents to raw values, not yet canonical."""
        items = sorted(ring.canon_map(acc).items(), key=lambda it: _grlex_key(it[0]), reverse=True)
        return cls(ring, num_vars, tuple(items))

    @classmethod
    def zero(cls, ring: RingDescriptor, num_vars: int) -> "Polynomial":
        return cls(ring, num_vars, ())

    @classmethod
    def constant(cls, ring: RingDescriptor, num_vars: int, value) -> "Polynomial":
        return cls._from_map(ring, num_vars, {(): value})

    @classmethod
    def variable(cls, ring: RingDescriptor, num_vars: int, var: int) -> "Polynomial":
        return cls(ring, num_vars, ((((var, 1),), ring.canon(1)),))

    def _compatible(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("polynomials over different rings")
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return poly_sum((self, other))

    def __neg__(self) -> "Polynomial":
        canon = self.ring.canon
        return Polynomial(self.ring, self.num_vars, tuple((e, canon(-v)) for e, v in self.raw_terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._compatible(other)
        out: dict = {}
        for ea, va in self.raw_terms:
            for eb, vb in other.raw_terms:
                if eb:
                    merged = dict(ea)
                    for var, exp in eb:
                        merged[var] = merged.get(var, 0) + exp
                    key = tuple(sorted(merged.items()))
                else:
                    key = ea
                out[key] = out.get(key, 0) + va * vb
        return Polynomial._from_map(self.ring, self.num_vars, out)

    @property
    def is_zero(self) -> bool:
        return not self.raw_terms

    @property
    def is_constant(self) -> bool:
        return not self.raw_terms or (len(self.raw_terms) == 1 and not self.raw_terms[0][0])

    @property
    def degree(self) -> int:
        """Total degree; zero polynomial reports 0."""
        return sum(e for _, e in self.raw_terms[0][0]) if self.raw_terms else 0

    def evaluate_raw(self, values: Sequence) -> object:
        """The canonical raw value at a point given as raw values, one per variable."""
        mod = self.ring.field_size
        total = 0
        for exps, term in self.raw_terms:
            for var, exp in exps:
                term = term * pow(values[var], exp, mod)
            total += term
        return self.ring.canon(total)

    def change_ring(self, ring: RingDescriptor) -> "Polynomial":
        """Map coefficients through Z -> Q or Z -> GF(p); identity otherwise."""
        if ring == self.ring:
            return self
        if self.ring != ZZ:
            raise ValueError(f"no coefficient map from {self.ring} to {ring}")
        canon = ring.canon
        return Polynomial(ring, self.num_vars, tuple((e, r) for e, v in self.raw_terms if (r := canon(v))))

    def sort_key(self):
        """Deterministic total order on canonical polynomials.

        Compares term sequences graded-lexicographically, breaking ties by
        coefficient; the zero polynomial sorts first.
        """
        if self._sort_key is None:
            self._sort_key = tuple((_grlex_key(e), v) for e, v in self.raw_terms)
        return self._sort_key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.num_vars == other.num_vars
            and self.raw_terms == other.raw_terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.raw_terms)
        return self._hash

    def __str__(self) -> str:
        if not self.raw_terms:
            return "0"
        signed = self.ring.field_size is None
        parts: list[str] = []
        for idx, (exps, v) in enumerate(self.raw_terms):
            negative = signed and v < 0
            mag = -v if negative else v
            body = "*".join(f"x{var + 1}" + (f"^{exp}" if exp > 1 else "") for var, exp in exps)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if idx == 0:
                parts.append(f"-{text}" if negative else text)
            else:
                parts.append(f"- {text}" if negative else f"+ {text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.ring}, {self})"


def poly_sum(polys: Sequence[Polynomial]) -> Polynomial:
    """The sum of one or more polynomials over one ring, in one merge; terms
    add up under the graded-lex keys the summands' sort keys already hold."""
    first = polys[0]
    acc: dict = {}
    exps: dict = {}
    for g in polys:
        first._compatible(g)
        for (e, _), (k, v) in zip(g.raw_terms, g.sort_key()):
            acc[k] = acc.get(k, 0) + v
            exps[k] = e
    nz = first.ring.canon_map(acc)
    return Polynomial(first.ring, first.num_vars, tuple([(exps[k], nz[k]) for k in sorted(nz, reverse=True)]))


def term_map_sum(polys: Sequence[Polynomial]) -> dict:
    """The canonical {exponents: value} map of the sum of polynomials over
    one ring, zeros dropped and in no order: what a caller needs that only
    reads the constant of a sum or compares it with other term maps."""
    acc: dict = {}
    for g in polys:
        for e, v in g.raw_terms:
            acc[e] = acc.get(e, 0) + v
    return polys[0].ring.canon_map(acc)


_TOKEN_RE = re.compile(r"\s*(?:(?P<var>x[0-9]+)|(?P<int>[0-9]+)|(?P<op>[-+*/^]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].strip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup == "var":
            tokens.append(("var", m.group("var"), m.start("var")))
        elif m.lastgroup == "int":
            tokens.append(("int", m.group("int"), m.start("int")))
        else:
            tokens.append((m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


def parse_polynomial(text: str, num_vars: int, ring: RingDescriptor) -> Polynomial:
    """Parse ``['-'] term (('+'|'-') term)*`` into canonical form.

    A term is a coefficient, a power product, or ``coeff '*' powprod``; a
    power product is ``var ('*' var)*`` with ``var := 'x'INT ['^'INT]``.
    """
    tokens = _tokenize(text)
    n = len(tokens)
    i = 0
    terms: dict = {}  # exponents -> raw value, made canonical at the end

    def peek() -> tuple[str, str, int] | None:
        return tokens[i] if i < n else None

    def parse_coefficient():
        nonlocal i
        kind, val, pos = tokens[i]
        i += 1
        num = int(val)
        nxt = peek()
        if nxt is not None and nxt[0] == "/":
            if ring.kind != RATIONALS:
                raise ParseError(f"fractional coefficient not in ring {ring}", nxt[2])
            i += 1
            d = peek()
            if d is None or d[0] != "int":
                raise ParseError("expected denominator after '/'", pos)
            i += 1
            if int(d[1]) == 0:
                raise ParseError("zero denominator", d[2])
            return Fraction(num, int(d[1]))
        return num

    def parse_var_power() -> tuple[int, int]:
        nonlocal i
        kind, val, pos = tokens[i]
        i += 1
        var = int(val[1:])
        if var < 1 or var > num_vars:
            raise ParseError(f"variable {val} out of range (1..{num_vars})", pos)
        exp = 1
        nxt = peek()
        if nxt is not None and nxt[0] == "^":
            i += 1
            e = peek()
            if e is None or e[0] != "int":
                raise ParseError("expected integer exponent after '^'", pos)
            i += 1
            exp = int(e[1])
            if exp < 1:
                raise ParseError("exponent must be >= 1", e[2])
        return var - 1, exp

    def parse_term(sign: int) -> None:
        nonlocal i
        tok = peek()
        if tok is None:
            raise ParseError("expected a term", len(text))
        coeff = 1
        exps: dict[int, int] = {}
        if tok[0] == "int":
            coeff = parse_coefficient()
            nxt = peek()
            if nxt is not None and nxt[0] == "*":
                i += 1
                follow = peek()
                if follow is None or follow[0] != "var":
                    raise ParseError("expected variable after '*'", nxt[2])
                var, exp = parse_var_power()
                exps[var] = exps.get(var, 0) + exp
            else:
                _accumulate(sign, coeff, exps)
                return
        elif tok[0] == "var":
            var, exp = parse_var_power()
            exps[var] = exps.get(var, 0) + exp
        else:
            raise ParseError(f"expected a term, found {tok[1]!r}", tok[2])
        while True:
            nxt = peek()
            if nxt is None or nxt[0] != "*":
                break
            i += 1
            follow = peek()
            if follow is None or follow[0] != "var":
                pos = follow[2] if follow else len(text)
                raise ParseError("expected variable after '*'", pos)
            var, exp = parse_var_power()
            exps[var] = exps.get(var, 0) + exp
        _accumulate(sign, coeff, exps)

    def _accumulate(sign: int, coeff, exps: dict[int, int]) -> None:
        key = tuple(sorted(exps.items()))
        terms[key] = terms.get(key, 0) + sign * coeff

    sign = 1
    tok = peek()
    if tok is not None and tok[0] == "-":
        sign = -1
        i += 1
    parse_term(sign)
    while True:
        tok = peek()
        if tok is None:
            break
        if tok[0] not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', found {tok[1]!r}", tok[2])
        sign = 1 if tok[0] == "+" else -1
        i += 1
        parse_term(sign)
    return Polynomial._from_map(ring, num_vars, terms)


def prefix_sums(f: Polynomial) -> list[Polynomial]:
    """Partial sums p1, p1+p2, ..., f of the canonical term sequence."""
    return [Polynomial(f.ring, f.num_vars, f.raw_terms[:k]) for k in range(1, len(f.raw_terms) + 1)]


class PolySystem:
    """A finite list of nonconstant polynomials over one ring.

    Constant zero polynomials are dropped at construction; constant nonzero
    polynomials are rejected (the system would be trivially unsolvable in a
    way the downstream constructions do not model).
    """

    __slots__ = ("ring", "num_vars", "polynomials")

    def __init__(self, ring: RingDescriptor, num_vars: int, polynomials: Iterable[Polynomial]):
        kept = []
        for f in polynomials:
            if f.ring != ring:
                raise RingMismatchError("system polynomial over a different ring")
            if f.num_vars != num_vars:
                raise ValueError("system polynomial over a different variable count")
            if f.is_zero:
                continue
            if f.is_constant:
                raise ValueError(f"constant nonzero polynomial not admitted: {f}")
            kept.append(f)
        self.ring = ring
        self.num_vars = num_vars
        self.polynomials = tuple(kept)

    def change_ring(self, ring: RingDescriptor) -> "PolySystem":
        return PolySystem(ring, self.num_vars, [f.change_ring(ring) for f in self.polynomials])

    def first_violation(self, values: Sequence) -> tuple[Polynomial, object] | None:
        """First polynomial not vanishing at a point of raw values of length n, with its value."""
        if len(values) != self.num_vars:
            raise ValueError("assignment length mismatch")
        for f in self.polynomials:
            if v := f.evaluate_raw(values):
                return f, v
        return None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolySystem)
            and self.ring == other.ring
            and self.num_vars == other.num_vars
            and self.polynomials == other.polynomials
        )

    def __repr__(self) -> str:
        return f"PolySystem({self.ring}, n={self.num_vars}, {len(self.polynomials)} polynomials)"


@dataclass(frozen=True)
class Assignment:
    """A point in ring^n, one canonical raw value per variable."""

    ring: RingDescriptor
    values: tuple

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CnfFormula:
    """Positive 3-CNF plus disequality pairs; variables are 0-based."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    disequalities: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            if not 1 <= len(clause) <= 3:
                raise ValueError("clauses carry between 1 and 3 literals")
            for v in clause:
                if not 0 <= v < self.num_vars:
                    raise ValueError(f"literal variable {v + 1} out of range")
        for u, v in self.disequalities:
            if not (0 <= u < self.num_vars and 0 <= v < self.num_vars):
                raise ValueError("disequality variable out of range")


def parse_dimacs(text: str) -> CnfFormula:
    """Simplified DIMACS: positive clauses ending in 0, plus ``neq u v`` lines."""
    num_vars = None
    clauses: list[tuple[int, ...]] = []
    neqs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad problem line on line {lineno}: {line!r}")
            try:
                num_vars = int(parts[2])
                int(parts[3])
            except ValueError:
                raise ParseError(f"bad problem line on line {lineno}: {line!r}") from None
            if num_vars < 0:
                raise ParseError(f"negative variable count on line {lineno}")
            continue
        if num_vars is None:
            raise ParseError(f"clause before problem line on line {lineno}")
        if line.startswith("neq"):
            parts = line.split()[1:]
            if parts and parts[-1] == "0":
                parts = parts[:-1]
            if len(parts) != 2:
                raise ParseError(f"neq expects two variables on line {lineno}")
            try:
                u, v = (int(x) for x in parts)
            except ValueError:
                raise ParseError(f"bad neq line on line {lineno}") from None
            if not (1 <= u <= num_vars and 1 <= v <= num_vars):
                raise ParseError(f"neq variable out of range on line {lineno}")
            neqs.append((u - 1, v - 1))
            continue
        try:
            lits = [int(x) for x in line.split()]
        except ValueError:
            raise ParseError(f"bad clause line on line {lineno}: {line!r}") from None
        if not lits or lits[-1] != 0:
            raise ParseError(f"clause not terminated by 0 on line {lineno}")
        lits = lits[:-1]
        if not lits:
            raise ParseError(f"empty clause on line {lineno}")
        if len(lits) > 3:
            raise ParseError(f"clause with more than 3 literals on line {lineno}")
        for lit in lits:
            if lit < 0:
                raise ParseError(f"negative literal {lit} unsupported on line {lineno}")
            if not 1 <= lit <= num_vars:
                raise ParseError(f"literal {lit} out of range on line {lineno}")
        clauses.append(tuple(lit - 1 for lit in lits))
    if num_vars is None:
        raise ParseError("missing problem line")
    return CnfFormula(num_vars, tuple(clauses), tuple(neqs))


def _clause_polynomial(num_vars: int, i: int, j: int, k: int) -> Polynomial:
    """y_i + y_j + y_k - y_i y_j - y_i y_k - y_j y_k + y_i y_j y_k - 1."""
    yi = Polynomial.variable(ZZ, num_vars, i)
    yj = Polynomial.variable(ZZ, num_vars, j)
    yk = Polynomial.variable(ZZ, num_vars, k)
    cone = Polynomial.constant(ZZ, num_vars, 1)
    return yi + yj + yk - yi * yj - yi * yk - yj * yk + yi * yj * yk - cone


def encode_3sat(formula: CnfFormula) -> PolySystem:
    """Encode a positive 3-CNF with disequalities as a system over Z.

    0/1 points satisfying every polynomial correspond exactly to satisfying
    boolean assignments: booleanity pins each variable to {0, 1}, the clause
    polynomial vanishes exactly on satisfying rows of its truth table, and
    x_u != x_v becomes y_u + y_v - 1.  Short clauses duplicate their first
    literal up to length 3 before expansion.
    """
    n = formula.num_vars
    cone = Polynomial.constant(ZZ, n, 1)
    polys: list[Polynomial] = []
    for i in range(n):
        yi = Polynomial.variable(ZZ, n, i)
        polys.append(yi * yi - yi)
    for clause in formula.clauses:
        lits = list(clause)
        while len(lits) < 3:
            lits.insert(0, lits[0])
        polys.append(_clause_polynomial(n, *lits))
    for u, v in formula.disequalities:
        yu = Polynomial.variable(ZZ, n, u)
        yv = Polynomial.variable(ZZ, n, v)
        polys.append(yu + yv - cone)
    return PolySystem(ZZ, n, polys)
