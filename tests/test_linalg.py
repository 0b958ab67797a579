import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenred.errors import RingMismatchError
from tenred.linalg import DenseMatrix, factors_through_units, matrix_rank, rank_raw
from tenred.rings import GF, QQ, ZZ

from reference import SingularMatrixError, dense, identity, inverse_3x3, matmul, transpose


def minor_rank(m: DenseMatrix) -> int:
    """Reference rank: largest k with a nonsingular k x k minor.

    Determinants are expanded by brute-force permutation sums, so this
    shares no code with the elimination under test.
    """

    def det(rows, cols):
        total = 0
        for perm in itertools.permutations(range(len(rows))):
            sign = 1
            for i in range(len(perm)):
                for j in range(i + 1, len(perm)):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i, jp in enumerate(perm):
                term = term * m.raw_grid[rows[i]][cols[jp]]
            total = total + term
        return m.ring.canon(total)

    for k in range(min(m.nrows, m.ncols), 0, -1):
        for rows in itertools.combinations(range(m.nrows), k):
            for cols in itertools.combinations(range(m.ncols), k):
                if det(rows, cols):
                    return k
    return 0


def test_rank_matches_minor_oracle_exhaustive_gf2():
    ring = GF(2)
    for bits in range(2 ** 9):
        vals = [(bits >> k) & 1 for k in range(9)]
        m = dense(ring, [vals[0:3], vals[3:6], vals[6:9]])
        assert matrix_rank(m) == minor_rank(m)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=str)
def test_rank_matches_minor_oracle_sampled(ring):
    rng = random.Random(7)
    for _ in range(40):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        m = dense(
            ring, [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        )
        assert matrix_rank(m) == minor_rank(m)


def test_rank_known_values():
    assert matrix_rank(identity(QQ, 4)) == 4
    assert matrix_rank(dense(ZZ, [[0] * 5] * 3)) == 0
    m = dense(ZZ, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert matrix_rank(m) == 2
    assert matrix_rank(dense(GF(2), [[1, 1], [1, 1]])) == 1


def test_rank_integer_matrix_over_fraction_field():
    m = dense(ZZ, [[2, 4], [1, 2]])
    assert matrix_rank(m) == 1
    m2 = dense(ZZ, [[2, 0], [0, 3]])
    assert matrix_rank(m2) == 2


def test_rank_raw_agrees_with_matrix_rank():
    rng = random.Random(11)
    for ring in (ZZ, QQ, GF(7)):
        for _ in range(20):
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(4)]
            m = dense(ring, rows)
            raw = [[ring.canon(v) for v in r] for r in rows]
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
        m = DenseMatrix(QQ, rows)
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
    m = dense(QQ, [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)])
    r = matrix_rank(m)
    assert matrix_rank(transpose(m)) == r
    perm = list(range(nr))
    rng.shuffle(perm)
    assert matrix_rank(DenseMatrix(QQ, [m.raw_grid[i] for i in perm])) == r
    scaled = DenseMatrix(QQ, [[v * 3 for v in row] for row in m.raw_grid])
    assert matrix_rank(scaled) == r
    assert r <= min(nr, nc)


def test_matmul_and_transpose():
    a = dense(ZZ, [[1, 2], [3, 4]])
    b = dense(ZZ, [[5, 6], [7, 8]])
    assert matmul(a, b) == dense(ZZ, [[19, 22], [43, 50]])
    assert transpose(a) == dense(ZZ, [[1, 3], [2, 4]])
    assert tuple(row[1] for row in a.raw_grid) == (2, 4)
    with pytest.raises(ValueError):
        matmul(a, dense(ZZ, [[1], [2], [3]]))
    with pytest.raises(RingMismatchError):
        matmul(a, dense(QQ, [[1, 0], [0, 1]]))


def test_matrix_validation():
    with pytest.raises(ValueError):
        DenseMatrix(QQ, [])
    with pytest.raises(ValueError):
        dense(QQ, [[1, 2], [3]])


def test_inverse_3x3():
    m = dense(QQ, [[2, 0, 1], [1, 1, 0], [0, 3, 1]])
    inv = inverse_3x3(m)
    assert matmul(m, inv) == identity(QQ, 3)
    assert matmul(inv, m) == identity(QQ, 3)

    f = dense(GF(7), [[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    assert matmul(f, inverse_3x3(f)) == identity(GF(7), 3)

    with pytest.raises(SingularMatrixError):
        inverse_3x3(dense(QQ, [[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    with pytest.raises(ValueError):
        inverse_3x3(identity(QQ, 2))
    with pytest.raises(ValueError):
        inverse_3x3(identity(ZZ, 3))


# A vector is a raw map {index: canonical nonzero value}; canon_map makes one.


def test_vec_basics():
    v = QQ.canon_map({1: 2, 3: 0})
    assert len(v) == 1
    assert v.get(1) == 2
    assert v.get(3, 0) == 0
    assert sorted(v.items()) == [(1, 2)]
    assert v
    assert not QQ.canon_map({})
    assert [v.get(i, 0) for i in range(5)] == [0, 2, 0, 0, 0]


def test_vec_unit_and_from_dense():
    u = GF(5).canon_map({2: 1})
    assert [u.get(i, 0) for i in range(3)] == [0, 0, 1]
    w = QQ.canon_map({0: Fraction(1, 2)})
    assert w[0] == Fraction(1, 2)
    d = ZZ.canon_map(dict(enumerate([0, 7])))
    assert d == {1: 7}
    assert GF(5).canon_map({0: 7, 1: 10}) == {0: 2}


def test_vec_algebra():
    a = {0: 1, 2: 2}
    b = {0: -1, 1: 5}
    s = ZZ.canon_map({i: a.get(i, 0) + b.get(i, 0) for i in a.keys() | b.keys()})
    assert 0 not in s
    assert s[1] == 5
    assert s[2] == 2
    assert ZZ.canon_map({i: 3 * v for i, v in a.items()})[2] == 6
    assert not ZZ.canon_map({i: 0 * v for i, v in a.items()})


@st.composite
def _unit_block_grid(draw):
    """A square grid that is the identity at three positions E, over GF(2),
    GF(11), Q or Z: either W[:,E] W[E,:] itself, then perhaps one cell
    bumped, or free everywhere else."""
    ring = draw(st.sampled_from([GF(2), GF(11), QQ, ZZ]))
    n = draw(st.integers(3, 6))
    units = tuple(draw(st.permutations(range(n)))[:3])
    if ring == QQ:
        value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    else:
        value = st.integers(-3, 12).map(ring.canon)
    rows = [[draw(value) for _ in range(n)] for _ in range(n)]
    for a, i in enumerate(units):
        for b, j in enumerate(units):
            rows[i][j] = ring.canon(int(a == b))
    if draw(st.booleans()):
        rows = [[ring.canon(sum(row[e] * rows[e][j] for e in units)) for j in range(n)] for row in rows]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if draw(st.booleans()) and i not in units and j not in units:
            rows[i][j] = ring.canon(rows[i][j] + 1)
    return ring, units, rows


# the identity at E = (2, 0, 3), and the cell (1, 1) set to row 1 at E times column 1 at E
_Q_FACTORED = [["1", "1/3", "0", "0"], ["-2/3", "-187/72", "1/2", "3"], ["0", "5/4", "1", "0"], ["0", "-1", "0", "1"]]


@settings(derandomize=True, database=None, max_examples=200)
@given(case=_unit_block_grid())
@example(case=(GF(11), (0, 1, 2), [[1, 0, 0, 4], [0, 1, 0, 5], [0, 0, 1, 6], [1, 2, 3, 10]]))
@example(case=(GF(11), (0, 1, 2), [[1, 0, 0, 4], [0, 1, 0, 5], [0, 0, 1, 6], [1, 2, 3, 0]]))
@example(case=(QQ, (2, 0, 3), [[Fraction(v) for v in row] for row in _Q_FACTORED]))
# rows 3 and 4 agree at E, and only row 3 is the factor row
@example(case=(GF(11), (0, 1, 2), [[1, 0, 0, 4, 7], [0, 1, 0, 5, 8], [0, 0, 1, 6, 9], [1, 2, 3, 10, 6], [1, 2, 3, 10, 7]]))
def test_factoring_through_the_unit_block_is_rank_3(case):
    # with the identity at E, W = W[:,E] W[E,:] is the whole rank-3 test
    ring, units, rows = case
    assert factors_through_units(rows, units, ring) == (rank_raw([list(r) for r in rows], ring) == 3)
