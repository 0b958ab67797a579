import random
from fractions import Fraction

import pytest

from tenred import sigma
from tenred.errors import GuardExceededError, RingMismatchError, VerificationError
from tenred.linalg import DenseMatrix, matrix_rank
from tenred.polysys import Assignment, Polynomial, PolySystem, parse_polynomial
from tenred.rings import GF, QQ, ZZ
from tenred.sigma import (
    IncompleteMatrix,
    Label,
    SigmaSet,
    SymbolicU,
    build_B,
    build_H,
    completion_witness,
    count_labels,
    is_plus_minus_one,
    sigma_monomial,
    sigma_system,
    unit_label_positions,
    verify_reachability,
)

from reference import inverse_3x3, is_star, is_symmetric, matmul, point, transpose


def _system(text_list, num_vars, ring):
    return PolySystem(ring, num_vars, [parse_polynomial(t, num_vars, ring) for t in text_list])


def test_is_plus_minus_one():
    assert is_plus_minus_one(Polynomial.constant(QQ, 1, 1))
    assert is_plus_minus_one(Polynomial.constant(QQ, 1, -1))
    assert not is_plus_minus_one(Polynomial.zero(QQ, 1))
    assert not is_plus_minus_one(Polynomial.constant(QQ, 1, 2))
    assert not is_plus_minus_one(Polynomial.variable(QQ, 1, 0))
    assert is_plus_minus_one(Polynomial.constant(GF(2), 1, 1))


def test_sigma_set_validation():
    x = Polynomial.variable(ZZ, 1, 0)
    unit = Polynomial.constant(ZZ, 1, 1)
    with pytest.raises(ValueError):
        SigmaSet(ZZ, 1, [unit, -unit, x])
    with pytest.raises(ValueError):
        SigmaSet(ZZ, 1, [x, -x])
    s = SigmaSet(ZZ, 1, [unit, -unit, x, -x, x, unit])
    assert len(s) == 4
    assert x in s
    assert s.position(s.elements[2]) == 2


def test_sigma_monomial():
    f = parse_polynomial("3*x1^2*x2", 2, ZZ)
    ((exponents, c),) = f.raw_terms
    s = sigma_monomial(ZZ, 2, exponents, c)
    names = sorted(str(g) for g in s.elements)
    assert names == sorted(
        [
            "1", "-1", "3", "-3",
            "x1", "-x1", "x1^2", "-x1^2",
            "x1^2*x2", "-x1^2*x2", "3*x1^2*x2", "-3*x1^2*x2",
        ]
    )


def test_sigma_system_frozen_sizes():
    assert len(sigma_system(_system(["x1^2 - x1"], 1, QQ))) == 9
    assert len(sigma_system(_system(["x1 - 2"], 1, ZZ))) == 9
    assert len(sigma_system(_system([], 1, QQ))) == 5
    assert len(sigma_system(_system(["x1^2 - x1 - 1"], 1, GF(11)))) == 11


def test_sigma_system_gf2_collapses_signs():
    s = sigma_system(_system(["x1"], 1, GF(2)))
    assert len(s) == 3
    assert count_labels(s) == 27 - 8


def test_sigma_deterministic_order():
    a = sigma_system(_system(["x1^2 - x1"], 1, QQ))
    b = sigma_system(_system(["x1^2 - x1"], 1, QQ))
    assert a.elements == b.elements


def test_verify_reachability_flags_orphans():
    x = Polynomial.variable(ZZ, 1, 0)
    x2 = x * x
    unit = Polynomial.constant(ZZ, 1, 1)
    s = SigmaSet(ZZ, 1, [unit, -unit, x2, -x2])
    bad = verify_reachability(s)
    assert set(bad) == {x2, -x2}
    good = sigma_system(_system(["x1^2 - x1"], 1, QQ))
    assert verify_reachability(good) == ()


def test_count_labels_matches_formula():
    s = sigma_system(_system(["x1^2 - x1"], 1, QQ))
    m = len(s)
    assert count_labels(s) == m**3 - (m - 2) ** 3 == 386


def test_label_validation():
    unit = Polynomial.constant(ZZ, 1, 1)
    x = Polynomial.variable(ZZ, 1, 0)
    z = Polynomial.zero(ZZ, 1)
    Label((unit, z, x))
    with pytest.raises(ValueError):
        Label((x, z, x))
    with pytest.raises(ValueError):
        Label((unit, z))


def test_build_H_count_and_guard():
    s = sigma_system(_system(["x1"], 1, GF(11)))
    labels = build_H(s)
    assert len(labels) == count_labels(s) == 125 - 27 == 98
    assert all(any(is_plus_minus_one(f) for f in lab.coords) for lab in labels)
    assert len(set((id(l.coords[0]), id(l.coords[1]), id(l.coords[2])) for l in labels)) == 98
    with pytest.raises(GuardExceededError):
        build_H(s, guard=97)
    assert len(build_H(s, guard=None)) == 98


def test_build_B_shape_and_entries():
    F = _system(["x1"], 1, GF(11))
    B = build_B(F)
    assert B.nrows == B.ncols == 98
    assert is_symmetric(B)
    assert B.system == F

    ring = GF(11)
    unit = Polynomial.constant(ring, 1, 1)
    z = Polynomial.zero(ring, 1)
    x = Polynomial.variable(ring, 1, 0)
    iu = B.label_position((unit, z, z))
    ix = B.label_position((x, z, unit))
    izz1 = B.label_position((z, z, unit))
    # dot products: x*1 = x1 lies in F, so the entry is forced to 0
    assert B.raw_grid[ix][iu] == 0
    assert B.raw_grid[ix][izz1] == 1
    assert is_star(B, ix, ix)
    assert B.raw_grid[iu][iu] == 1


def test_build_B_deterministic():
    F = _system(["x1"], 1, GF(11))
    a = build_B(F)
    b = build_B(F)
    assert a.raw_grid == b.raw_grid
    assert a.row_labels == b.row_labels
    assert list(a.stars()) == list(b.stars())


def test_build_B_guard():
    with pytest.raises(GuardExceededError):
        build_B(_system(["x1^2 - x1"], 1, QQ), guard=300)


def test_incomplete_matrix_basics():
    m = IncompleteMatrix(ZZ, [[1, None], [None, 2]])
    assert m.tau == 2
    assert list(m.stars()) == [(0, 1), (1, 0)]
    assert is_star(m, 0, 1)
    assert not is_star(m, 0, 0)
    assert m.raw_grid[0][1] is None
    assert m.raw_grid[1][1] == 2
    asym = IncompleteMatrix(ZZ, [[1, None], [3, 2]])
    assert not is_symmetric(asym)
    sym = IncompleteMatrix(ZZ, [[None, 3], [3, None]])
    assert is_symmetric(sym)
    with pytest.raises(ValueError):
        IncompleteMatrix(ZZ, [])
    with pytest.raises(ValueError):
        m.label_position(())


def test_rows_given_as_tuples_are_kept(monkeypatch):
    # build_B and completion_witness turn each row into a tuple once it is
    # complete, and the matrix keeps those rows, so no grid is held twice;
    # rows given as lists are copied
    rows = [(1, None), (None, 2)]
    assert all(kept is given for kept, given in zip(IncompleteMatrix(ZZ, rows).raw_grid, rows))
    lists = [[1, None], [None, 2]]
    assert IncompleteMatrix(ZZ, lists).raw_grid == tuple(map(tuple, lists))
    given = []
    for name in ("IncompleteMatrix", "DenseMatrix"):
        real = getattr(sigma, name)
        monkeypatch.setattr(sigma, name, lambda ring, grid, *more, real=real: given.append(grid) or real(ring, grid, *more))
    F = _system(["x1"], 1, GF(11))
    B = build_B(F)
    W = completion_witness(B, point(GF(11), [0]))
    for grid, matrix in ((given[0], B), (given[-1], W)):  # U's matrix comes between
        assert all(type(row) is tuple for row in grid)
        assert all(kept is row for kept, row in zip(matrix.raw_grid, grid))


def test_incomplete_matrix_change_ring():
    m = IncompleteMatrix(ZZ, [[-1, None], [13, 2]])
    f = m.change_ring(GF(11))
    assert f.raw_grid[0][0] == 10
    assert f.raw_grid[1][0] == 2
    assert f.raw_grid[0][1] is None
    q = m.change_ring(QQ)
    assert q.raw_grid[1][1] == 2 and type(q.raw_grid[1][1]) is Fraction
    assert m.change_ring(ZZ) is m
    with pytest.raises(ValueError):
        q.change_ring(GF(11))


def test_symbolic_u_columns():
    F = _system(["x1"], 1, GF(11))
    B = build_B(F)
    pt = point(GF(11), [0])
    U = SymbolicU(B.row_labels).evaluate(pt, GF(11))
    assert U.nrows == 3 and U.ncols == 98
    ring = GF(11)
    unit = Polynomial.constant(ring, 1, 1)
    z = Polynomial.zero(ring, 1)
    x = Polynomial.variable(ring, 1, 0)
    col = B.label_position((unit, z, x))
    assert [U.raw_grid[r][col] for r in range(3)] == [1, 0, 0]
    col2 = B.label_position((unit, unit, unit))
    assert [U.raw_grid[r][col2] for r in range(3)] == [1, 1, 1]
    with pytest.raises(RingMismatchError):
        SymbolicU(B.row_labels).evaluate(point(GF(5), [0]), GF(11))


def test_completion_witness_and_rank():
    F = _system(["x1"], 1, GF(11))
    B = build_B(F)
    W = completion_witness(B, point(GF(11), [0]))
    assert W.nrows == W.ncols == 98
    assert matrix_rank(W) == 3
    for (i, j) in ((0, 0), (5, 7)):
        if not is_star(B, i, j):
            assert W.raw_grid[i][j] == B.raw_grid[i][j]


def test_completion_witness_rejects_non_solutions():
    F = _system(["x1"], 1, GF(11))
    with pytest.raises(VerificationError):
        completion_witness(build_B(F), point(GF(11), [3]))


def test_completion_witness_integer_system_over_q():
    F = _system(["x1^2 - x1"], 1, ZZ)
    W = completion_witness(build_B(F).change_ring(QQ), point(QQ, [1]))
    assert W.ring == QQ
    assert matrix_rank(W) == 3


def _reference_gram(U):
    """Raw values of U^T U, each cell a dot product of two columns made
    canonical after every step (taken once per pair of distinct columns)."""
    canon = U.ring.canon
    ids: dict = {}
    col_ids = [ids.setdefault(tuple(r[j] for r in U.raw_grid), len(ids)) for j in range(U.ncols)]
    cols = list(ids)
    gram = [[_dot(canon, a, b) for b in cols] for a in cols]
    return [[gram[a][b] for b in col_ids] for a in col_ids]


def _dot(canon, a, b):
    total = canon(0)
    for x, y in zip(a, b):
        total = canon(total + canon(x * y))
    return total


@pytest.mark.parametrize(
    "texts, ring, values",
    [
        pytest.param(["x1 - 1/2"], QQ, [Fraction(1, 2)], id="q-denominators"),
        pytest.param(["x1 - 3"], GF(11), [3], id="gf11"),
        pytest.param(["x1^2 - x1"], ZZ, [1], id="z-over-q"),
    ],
)
def test_completion_witness_matches_scalar_gram(texts, ring, values):
    F = _system(texts, 1, ring)
    field = QQ if ring == ZZ else ring
    W = completion_witness(build_B(F).change_ring(field), point(field, values))
    assert W.ring == field and W.nrows == W.ncols == 386
    before = W.raw_rows()
    assert matrix_rank(W) == 3
    # raw_rows() is a copy: the elimination mutated its own rows, not W
    assert W.raw_rows() == before
    U = SymbolicU(build_B(F.change_ring(field), guard=None).row_labels).evaluate(
        point(field, values), field
    )
    ref = _reference_gram(U)
    bad = [(i, j) for i, row in enumerate(ref) for j, v in enumerate(row) if W.raw_grid[i][j] != v]
    assert bad == []
    assert W.raw_grid[5] == tuple(field.canon(v) for v in ref[5])
    if ring == QQ:
        assert any(v.denominator > 1 for row in W.raw_grid for v in row)


def _random_invertible(ring, rng):
    while True:
        g = DenseMatrix(ring, [[rng.randrange(ring.modulus) for _ in range(3)] for _ in range(3)])
        if matrix_rank(g) == 3:
            return g


def extract_solution(P: DenseMatrix, L: DenseMatrix, B: IncompleteMatrix) -> Assignment:
    """Recover the solution encoded by a rank-3 factorization (the
    converse half of the completion lemma, which only tests need).

    P and L are 3 x |H| factors whose product P^T L completes B.  The
    unit-label columns of L form an invertible 3x3 matrix C, and the third
    coordinates of C^{-1} L at the (1, 0, x_i) columns are the solution.
    The extracted point is checked against the system before return.
    """
    if B.row_labels is None or B.system is None:
        raise ValueError("extraction needs the gadget's labels and system")
    ring = B.ring
    if not ring.is_field:
        raise ValueError(f"extraction runs over fields, not {ring}")
    if P.ring != ring or L.ring != ring:
        raise RingMismatchError("factors over a different ring")
    if P.nrows != 3 or L.nrows != 3 or P.ncols != B.nrows or L.ncols != B.ncols:
        raise ValueError("factors must be 3 x |H|")
    canon = ring.canon
    p0, p1, p2 = P.raw_grid
    l0, l1, l2 = L.raw_grid
    braw = B.raw_grid
    for i in range(B.nrows):
        a0, a1, a2 = p0[i], p1[i], p2[i]
        bi = braw[i]
        for j in range(B.ncols):
            expect = bi[j]
            if expect is None:
                continue
            val = canon(a0 * l0[j] + a1 * l1[j] + a2 * l2[j])
            if val != expect:
                raise VerificationError(
                    f"factors do not complete the matrix at ({i},{j}): "
                    f"{val} != {expect}"
                )
    F = B.system
    unit = Polynomial.constant(ring, F.num_vars, 1)
    z = Polynomial.zero(ring, F.num_vars)
    e_cols = unit_label_positions(B)
    c = DenseMatrix(ring, [[L.raw_grid[r][c_] for c_ in e_cols] for r in range(3)])
    cinv = inverse_3x3(c)
    w0, w1, w2 = cinv.raw_grid[2]
    values = []
    for i in range(F.num_vars):
        col = B.label_position((unit, z, Polynomial.variable(ring, F.num_vars, i)))
        values.append(canon(w0 * l0[col] + w1 * l1[col] + w2 * l2[col]))
    bad = F.first_violation(values)
    if bad is not None:
        raise VerificationError(
            f"extracted point is not a solution: {bad[0]} evaluates to {bad[1]}"
        )
    return Assignment(ring, tuple(values))


def test_extract_solution_round_trip():
    ring = GF(11)
    F = _system(["x1^2 - x1 - 1"], 1, ring)
    sols = [a for a in range(11) if F.first_violation([a]) is None]
    assert sols == [4, 8]
    B = build_B(F, guard=None)
    rng = random.Random(5)
    for a in sols:
        U = SymbolicU(B.row_labels).evaluate(point(ring, [a]), ring)
        got = extract_solution(U, U, B)
        assert list(got.values) == [a]
        g = _random_invertible(ring, rng)
        P = matmul(transpose(inverse_3x3(g)), U)
        L = matmul(g, U)
        scrambled = extract_solution(P, L, B)
        assert list(scrambled.values) == [a]


def test_extract_solution_rejects_wrong_factors():
    ring = GF(11)
    F = _system(["x1"], 1, ring)
    B = build_B(F)
    U = SymbolicU(B.row_labels).evaluate(point(ring, [0]), ring)
    bad = DenseMatrix(ring, [[ring.canon(v * 2) for v in row] for row in U.raw_grid])
    with pytest.raises(VerificationError):
        extract_solution(bad, U, B)
