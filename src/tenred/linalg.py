"""Exact dense matrices, sparse vectors, and fraction-free elimination.

Rank is always computed over the fraction field of the matrix ring, by
Bareiss elimination, whose intermediate values stay integral, so no
floating point or rounding ever enters.  Over Q the rank is taken on
integer rows: each row is first scaled by the lcm of its denominators.
Pivoting is deterministic (first nonzero entry in column order), which
keeps every derived artifact byte-reproducible.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .errors import RingMismatchError, SingularMatrixError
from .rings import PRIME_FIELD, RATIONALS, RingDescriptor, Scalar, one, zero


class DenseMatrix:
    """An immutable rectangular matrix of scalars over a single ring."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: RingDescriptor, rows: Sequence[Sequence[Scalar]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            for s in r:
                if s.ring != ring:
                    raise RingMismatchError(f"entry over {s.ring}, matrix over {ring}")
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = width
        self.rows = rows

    @classmethod
    def identity(cls, ring: RingDescriptor, n: int) -> "DenseMatrix":
        z, o = zero(ring), one(ring)
        return cls(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, ring: RingDescriptor, nrows: int, ncols: int) -> "DenseMatrix":
        z = zero(ring)
        return cls(ring, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def from_ints(cls, ring: RingDescriptor, rows: Sequence[Sequence[int]]) -> "DenseMatrix":
        return cls(ring, [[Scalar(ring, v) for v in r] for r in rows])

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.rows[i]

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.ring, list(zip(*self.rows)))

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.ring != other.ring:
            raise RingMismatchError("matrix product across rings")
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        cols = other.transpose().rows
        out = []
        for r in self.rows:
            out.append([_dot(r, c, self.ring) for c in cols])
        return DenseMatrix(self.ring, out)

    def raw_rows(self) -> list[list]:
        """Mutable copy of the underlying canonical values."""
        return [[s.value for s in r] for r in self.rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.ring}, {self.nrows}x{self.ncols})"


def _dot(u: Sequence[Scalar], v: Sequence[Scalar], ring: RingDescriptor) -> Scalar:
    total = zero(ring)
    for a, b in zip(u, v):
        total = total + a * b
    return total


def rank_raw(rows: list[list], ring: RingDescriptor) -> int:
    """Bareiss elimination on raw values; mutates ``rows``.

    Over Q each row is first scaled by the lcm of its denominators, which
    leaves the rank unchanged, so Z and Q share one integer loop in which
    the Sylvester identity keeps every quotient by the previous pivot
    exact.  Over GF(p) that quotient is a product with its inverse.
    """
    if ring.kind == RATIONALS:
        for i, row in enumerate(rows):
            d = lcm(*[v.denominator for v in row])
            rows[i] = [v.numerator * (d // v.denominator) for v in row]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    p = ring.modulus if ring.kind == PRIME_FIELD else None
    prev = 1
    r = 0
    for c in range(nc):
        piv_row = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv_row is None:
            continue
        rows[r], rows[piv_row] = rows[piv_row], rows[r]
        piv = rows[r][c]
        if p is not None:
            inv_prev = pow(prev, -1, p)
            for i in range(r + 1, nr):
                ric = rows[i][c]
                ri, rr = rows[i], rows[r]
                for j in range(c + 1, nc):
                    ri[j] = (piv * ri[j] - ric * rr[j]) * inv_prev % p
                ri[c] = 0
        else:
            for i in range(r + 1, nr):
                ric = rows[i][c]
                ri, rr = rows[i], rows[r]
                for j in range(c + 1, nc):
                    q, rem = divmod(piv * ri[j] - ric * rr[j], prev)
                    if rem:
                        raise ArithmeticError("inexact Bareiss division")
                    ri[j] = q
                ri[c] = 0
        prev = piv
        r += 1
    return r


def matrix_rank(m: DenseMatrix) -> int:
    """Rank of ``m`` over the fraction field of its ring."""
    return rank_raw(m.raw_rows(), m.ring)


def inverse_3x3(m: DenseMatrix) -> DenseMatrix:
    """Exact inverse of a 3x3 matrix over a field, via the adjugate."""
    if m.nrows != 3 or m.ncols != 3:
        raise ValueError("inverse_3x3 expects a 3x3 matrix")
    if not m.ring.is_field:
        raise ValueError("inversion requested over a non-field ring")
    a = m.rows

    def cof(i: int, j: int) -> Scalar:
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        minor = a[r[0]][c[0]] * a[r[1]][c[1]] - a[r[0]][c[1]] * a[r[1]][c[0]]
        return minor if (i + j) % 2 == 0 else -minor

    det = a[0][0] * cof(0, 0) + a[0][1] * cof(0, 1) + a[0][2] * cof(0, 2)
    if det.is_zero:
        raise SingularMatrixError("3x3 matrix is singular")
    dinv = det.inverse()
    return DenseMatrix(m.ring, [[cof(j, i) * dinv for j in range(3)] for i in range(3)])


class Vec:
    """An immutable sparse vector of scalars; absent indices are zero."""

    __slots__ = ("ring", "n", "nz")

    def __init__(self, ring: RingDescriptor, n: int, nz: dict[int, Scalar] | None = None):
        if n < 0:
            raise ValueError("negative length")
        cleaned: dict[int, Scalar] = {}
        for i, s in (nz or {}).items():
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for length {n}")
            if s.ring != ring:
                raise RingMismatchError("vector entry over a different ring")
            if not s.is_zero:
                cleaned[i] = s
        self.ring = ring
        self.n = n
        self.nz = cleaned

    @classmethod
    def from_dense(cls, ring: RingDescriptor, values: Iterable[Scalar]) -> "Vec":
        vals = list(values)
        return cls(ring, len(vals), {i: v for i, v in enumerate(vals)})

    @classmethod
    def unit(cls, ring: RingDescriptor, n: int, i: int, value: Scalar | None = None) -> "Vec":
        return cls(ring, n, {i: value if value is not None else one(ring)})

    def get(self, i: int) -> Scalar:
        return self.nz.get(i, zero(self.ring))

    def items(self) -> list[tuple[int, Scalar]]:
        return sorted(self.nz.items())

    def dense(self) -> list[Scalar]:
        z = zero(self.ring)
        out = [z] * self.n
        for i, v in self.nz.items():
            out[i] = v
        return out

    def scale(self, s: Scalar) -> "Vec":
        return Vec(self.ring, self.n, {i: v * s for i, v in self.nz.items()})

    def add(self, other: "Vec") -> "Vec":
        if self.ring != other.ring or self.n != other.n:
            raise ValueError("vector shape or ring mismatch")
        out = dict(self.nz)
        for i, v in other.nz.items():
            w = out.get(i)
            out[i] = v if w is None else w + v
        return Vec(self.ring, self.n, out)

    def pad(self, n: int) -> "Vec":
        """The same vector viewed in a longer ambient space."""
        if n < self.n:
            raise ValueError("cannot shrink a vector")
        return Vec(self.ring, n, dict(self.nz))

    @property
    def is_zero(self) -> bool:
        return not self.nz

    @property
    def nnz(self) -> int:
        return len(self.nz)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vec)
            and self.ring == other.ring
            and self.n == other.n
            and self.nz == other.nz
        )

    def __hash__(self):
        return hash((self.ring, self.n, tuple(sorted(self.nz.items()))))

    def __repr__(self) -> str:
        return f"Vec({self.ring}, n={self.n}, nnz={len(self.nz)})"
