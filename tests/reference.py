"""Reference helpers that only the tests use: matrix products and inverses,
nested and term-map constructors, and star and symmetry predicates.  The
package itself never needs them, so they live here, beside the tests that
check against them."""

from __future__ import annotations

from typing import Sequence

from tenred.errors import RingMismatchError, SingularMatrixError
from tenred.linalg import DenseMatrix
from tenred.polysys import Exponents, Monomial, Polynomial, _grlex_key
from tenred.rings import RingDescriptor, Scalar
from tenred.sigma import IncompleteMatrix
from tenred.tensors import Tensor3


def vec(ring: RingDescriptor, values: Sequence) -> dict:
    """The raw map {index: canonical nonzero value} of a dense list."""
    return ring.canon_map(dict(enumerate(values)))


def transpose(m: DenseMatrix) -> DenseMatrix:
    return DenseMatrix._from_raw(m.ring, list(zip(*m.raw_grid)))


def matmul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.ring != b.ring:
        raise RingMismatchError("matrix product across rings")
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions differ")
    canon = a.ring.canon
    cols = list(zip(*b.raw_grid))
    out = [[canon(sum(x * y for x, y in zip(r, c))) for c in cols] for r in a.raw_grid]
    return DenseMatrix._from_raw(a.ring, out)


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


def tensor_from_nested(ring: RingDescriptor, grid: Sequence[Sequence[Sequence[Scalar]]]) -> Tensor3:
    dims = (len(grid), len(grid[0]), len(grid[0][0]))
    entries = {
        (i, j, k): grid[i][j][k]
        for i in range(dims[0])
        for j in range(dims[1])
        for k in range(dims[2])
    }
    return Tensor3(ring, dims, entries)


def polynomial_from_term_map(
    ring: RingDescriptor, num_vars: int, term_map: dict[Exponents, Scalar]
) -> Polynomial:
    items = sorted(term_map.items(), key=lambda it: _grlex_key(it[0]), reverse=True)
    return Polynomial(ring, num_vars, [Monomial(c, e) for e, c in items if not c.is_zero])


def is_star(M: IncompleteMatrix, i: int, j: int) -> bool:
    return M.raw_grid[i][j] is None


def is_symmetric(M: IncompleteMatrix) -> bool:
    if M.nrows != M.ncols:
        return False
    g = M.raw_grid
    return all(g[i][j] == g[j][i] for i in range(M.nrows) for j in range(i + 1, M.ncols))
