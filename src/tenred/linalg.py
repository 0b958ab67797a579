"""Exact dense matrices of canonical raw values, and fraction-free elimination.

Rank is always computed over the fraction field of the matrix ring, by
Bareiss elimination, whose intermediate values stay integral, so no
floating point or rounding ever enters.  Over Q the rank is taken on
integer rows: each row is first scaled by the lcm of its denominators.
Pivoting is deterministic (first nonzero entry in column order), which
keeps every derived artifact byte-reproducible.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .rings import RATIONALS, RingDescriptor


class DenseMatrix:
    """An immutable rectangular matrix over a single ring.

    ``raw_grid`` holds the canonical raw values row by row, as
    ``IncompleteMatrix.raw_grid`` does; the constructor trusts them to be
    canonical and checks only the shape.
    """

    __slots__ = ("ring", "nrows", "ncols", "raw_grid")

    def __init__(self, ring: RingDescriptor, rows: Sequence[Sequence]):
        grid = tuple(tuple(r) for r in rows)
        if not grid or not grid[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise ValueError("ragged rows")
        self.ring = ring
        self.nrows = len(grid)
        self.ncols = width
        self.raw_grid = grid

    def raw_rows(self) -> list[list]:
        """Mutable copy of the underlying canonical values."""
        return [list(r) for r in self.raw_grid]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMatrix)
            and self.ring == other.ring
            and self.raw_grid == other.raw_grid
        )

    def __hash__(self):
        return hash((self.ring, self.raw_grid))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.ring}, {self.nrows}x{self.ncols})"


def rank_raw(rows: list[list], ring: RingDescriptor) -> int:
    """Bareiss elimination on raw values; mutates ``rows``.

    Over Q each row is first scaled by the lcm of its denominators, which
    leaves the rank unchanged, so Z and Q share one integer loop in which
    the Sylvester identity keeps every quotient by the previous pivot
    exact.  Over GF(p) that quotient is a product with its inverse.
    """
    if ring.kind == RATIONALS:
        for i, row in enumerate(rows):
            rows[i] = _integral(row)[1]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    p = ring.modulus
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


def _integral(row: list) -> tuple[int, list[int]]:
    """The lcm d of the denominators of raw values, and the values times d."""
    d = lcm(*[v.denominator for v in row])
    return d, [v.numerator * (d // v.denominator) for v in row]


def factors_through_units(rows: list[list], units: Sequence[int], ring: RingDescriptor) -> bool:
    """Whether a raw square grid W is W[:,E] W[E,:] at every cell, E the three
    positions ``units``; with the identity at E, exactly when rank(W) = 3
    (the Schur complement of that block is zero).  The identity fixes a row
    by its entries at E: the first row with each triple is checked in
    integers, scaled with W[E,:] by the lcm of their denominators (modulo p
    over GF(p)), and every later one must equal it."""
    e0, e1, e2 = units
    n, p = len(rows), ring.modulus
    d_units, flat = _integral(rows[e0] + rows[e1] + rows[e2])
    r0, r1, r2 = flat[:n], flat[n : 2 * n], flat[2 * n :]
    checked: dict[tuple, list] = {}
    for row in rows:
        key = (row[e0], row[e1], row[e2])
        if key in checked:
            if row != checked[key]:
                return False
            continue
        _, z = _integral(row)
        c0, c1, c2 = z[e0], z[e1], z[e2]
        for v, a0, a1, a2 in zip(z, r0, r1, r2):
            if (s := c0 * a0 + c1 * a1 + c2 * a2 - d_units * v) and (p is None or s % p):
                return False
        checked[key] = row
    return True


def matrix_rank(m: DenseMatrix) -> int:
    """Rank of ``m`` over the fraction field of its ring."""
    return rank_raw(m.raw_rows(), m.ring)
