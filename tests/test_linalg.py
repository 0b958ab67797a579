import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tenred.errors import RingMismatchError, SingularMatrixError
from tenred.linalg import DenseMatrix, Vec, inverse_3x3, matrix_rank, rank_raw
from tenred.rings import GF, QQ, ZZ, Scalar, one, zero


def minor_rank(m: DenseMatrix) -> int:
    """Reference rank: largest k with a nonsingular k x k minor.

    Determinants are expanded by brute-force permutation sums, so this
    shares no code with the elimination under test.
    """

    def det(rows, cols):
        total = zero(m.ring)
        for perm in itertools.permutations(range(len(rows))):
            sign = 1
            for i in range(len(perm)):
                for j in range(i + 1, len(perm)):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = one(m.ring) if sign == 1 else -one(m.ring)
            for i, jp in enumerate(perm):
                term = term * m.entry(rows[i], cols[jp])
            total = total + term
        return total

    for k in range(min(m.nrows, m.ncols), 0, -1):
        for rows in itertools.combinations(range(m.nrows), k):
            for cols in itertools.combinations(range(m.ncols), k):
                if not det(rows, cols).is_zero:
                    return k
    return 0


def test_rank_matches_minor_oracle_exhaustive_gf2():
    ring = GF(2)
    for bits in range(2 ** 9):
        vals = [(bits >> k) & 1 for k in range(9)]
        m = DenseMatrix.from_ints(ring, [vals[0:3], vals[3:6], vals[6:9]])
        assert matrix_rank(m) == minor_rank(m)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=str)
def test_rank_matches_minor_oracle_sampled(ring):
    rng = random.Random(7)
    for _ in range(40):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        m = DenseMatrix.from_ints(
            ring, [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        )
        assert matrix_rank(m) == minor_rank(m)


def test_rank_known_values():
    assert matrix_rank(DenseMatrix.identity(QQ, 4)) == 4
    assert matrix_rank(DenseMatrix.zeros(ZZ, 3, 5)) == 0
    m = DenseMatrix.from_ints(ZZ, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert matrix_rank(m) == 2
    assert matrix_rank(DenseMatrix.from_ints(GF(2), [[1, 1], [1, 1]])) == 1


def test_rank_integer_matrix_over_fraction_field():
    m = DenseMatrix.from_ints(ZZ, [[2, 4], [1, 2]])
    assert matrix_rank(m) == 1
    m2 = DenseMatrix.from_ints(ZZ, [[2, 0], [0, 3]])
    assert matrix_rank(m2) == 2


def test_rank_raw_agrees_with_matrix_rank():
    rng = random.Random(11)
    for ring in (ZZ, QQ, GF(7)):
        for _ in range(20):
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(4)]
            m = DenseMatrix.from_ints(ring, rows)
            raw = [[Scalar(ring, v).value for v in r] for r in rows]
            assert rank_raw(raw, ring) == matrix_rank(m)


def _rational_rows(rng, nr, nc):
    """Rows with denominators up to 50 and mixed signs, padded to nr rows
    with zero rows and rational combinations of the first ones."""

    def q():
        return Fraction(rng.randint(-60, 60), rng.randint(1, 50))

    base = [[q() for _ in range(nc)] for _ in range(rng.randint(1, nr))]
    rows = [list(r) for r in base]
    while len(rows) < nr:
        if rng.random() < 0.25:
            rows.append([Fraction(0)] * nc)
        else:
            coeffs = [q() for _ in base]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(nc)])
    rng.shuffle(rows)
    return rows


def _fraction_rank(rows):
    """Reference rank: Gauss-Jordan elimination on Fractions."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_raw_over_q_with_denominators():
    rng = random.Random(5)
    deficient = 0
    for _ in range(150):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = _rational_rows(rng, nr, nc)
        m = DenseMatrix(QQ, [[Scalar(QQ, v) for v in r] for r in rows])
        want = minor_rank(m)
        assert rank_raw([list(r) for r in rows], QQ) == want
        assert matrix_rank(m) == want
        deficient += want < min(nr, nc)
    assert deficient > 30


def test_rank_raw_over_q_larger_than_minors_reach():
    rng = random.Random(6)
    for _ in range(20):
        nr, nc = rng.randint(6, 14), rng.randint(6, 14)
        rows = _rational_rows(rng, nr, nc)
        assert rank_raw([list(r) for r in rows], QQ) == _fraction_rank(rows)


@given(st.integers(2, 4), st.integers(2, 4), st.randoms(use_true_random=False))
def test_rank_invariances(nr, nc, rng):
    m = DenseMatrix.from_ints(QQ, [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)])
    r = matrix_rank(m)
    assert matrix_rank(m.transpose()) == r
    perm = list(range(nr))
    rng.shuffle(perm)
    assert matrix_rank(DenseMatrix(QQ, [m.row(i) for i in perm])) == r
    scaled = DenseMatrix(QQ, [[v * Scalar(QQ, 3) for v in row] for row in m.rows])
    assert matrix_rank(scaled) == r
    assert r <= min(nr, nc)


def test_matmul_and_transpose():
    a = DenseMatrix.from_ints(ZZ, [[1, 2], [3, 4]])
    b = DenseMatrix.from_ints(ZZ, [[5, 6], [7, 8]])
    assert a.matmul(b) == DenseMatrix.from_ints(ZZ, [[19, 22], [43, 50]])
    assert a.transpose() == DenseMatrix.from_ints(ZZ, [[1, 3], [2, 4]])
    assert a.column(1) == (Scalar(ZZ, 2), Scalar(ZZ, 4))
    with pytest.raises(ValueError):
        a.matmul(DenseMatrix.from_ints(ZZ, [[1], [2], [3]]))
    with pytest.raises(RingMismatchError):
        a.matmul(DenseMatrix.from_ints(QQ, [[1, 0], [0, 1]]))


def test_matrix_validation():
    with pytest.raises(ValueError):
        DenseMatrix(QQ, [])
    with pytest.raises(ValueError):
        DenseMatrix.from_ints(QQ, [[1, 2], [3]])
    with pytest.raises(RingMismatchError):
        DenseMatrix(QQ, [[Scalar(ZZ, 1)]])


def test_inverse_3x3():
    m = DenseMatrix.from_ints(QQ, [[2, 0, 1], [1, 1, 0], [0, 3, 1]])
    inv = inverse_3x3(m)
    assert m.matmul(inv) == DenseMatrix.identity(QQ, 3)
    assert inv.matmul(m) == DenseMatrix.identity(QQ, 3)

    f = DenseMatrix.from_ints(GF(7), [[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    assert f.matmul(inverse_3x3(f)) == DenseMatrix.identity(GF(7), 3)

    with pytest.raises(SingularMatrixError):
        inverse_3x3(DenseMatrix.from_ints(QQ, [[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    with pytest.raises(ValueError):
        inverse_3x3(DenseMatrix.identity(QQ, 2))
    with pytest.raises(ValueError):
        inverse_3x3(DenseMatrix.identity(ZZ, 3))


def test_vec_basics():
    v = Vec(QQ, 5, {1: Scalar(QQ, 2), 3: zero(QQ)})
    assert v.nnz == 1
    assert v.get(1).value == 2
    assert v.get(3).is_zero
    assert v.items() == [(1, Scalar(QQ, 2))]
    assert not v.is_zero
    assert Vec(QQ, 4).is_zero
    assert v.dense() == [zero(QQ), Scalar(QQ, 2), zero(QQ), zero(QQ), zero(QQ)]


def test_vec_unit_and_from_dense():
    u = Vec.unit(GF(5), 3, 2)
    assert u.dense() == [zero(GF(5)), zero(GF(5)), one(GF(5))]
    w = Vec.unit(QQ, 3, 0, Scalar(QQ, Fraction(1, 2)))
    assert w.get(0).value == Fraction(1, 2)
    d = Vec.from_dense(ZZ, [Scalar(ZZ, 0), Scalar(ZZ, 7)])
    assert d.n == 2 and d.nnz == 1


def test_vec_algebra():
    a = Vec(ZZ, 3, {0: Scalar(ZZ, 1), 2: Scalar(ZZ, 2)})
    b = Vec(ZZ, 3, {0: Scalar(ZZ, -1), 1: Scalar(ZZ, 5)})
    s = a.add(b)
    assert s.get(0).is_zero
    assert s.get(1).value == 5
    assert s.get(2).value == 2
    assert a.scale(Scalar(ZZ, 3)).get(2).value == 6
    assert a.scale(zero(ZZ)).is_zero
    with pytest.raises(ValueError):
        a.add(Vec(ZZ, 4))


def test_vec_pad_and_errors():
    v = Vec(QQ, 2, {1: Scalar(QQ, 3)})
    w = v.pad(5)
    assert w.n == 5 and w.get(1).value == 3
    with pytest.raises(ValueError):
        w.pad(2)
    with pytest.raises(ValueError):
        Vec(QQ, 2, {5: Scalar(QQ, 1)})
    with pytest.raises(RingMismatchError):
        Vec(QQ, 2, {0: Scalar(ZZ, 1)})
