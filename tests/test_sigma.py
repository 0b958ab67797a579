import random
from fractions import Fraction

import pytest

from tenred.errors import GuardExceededError, RingMismatchError, VerificationError
from tenred.linalg import DenseMatrix, matrix_rank
from tenred.polysys import Assignment, Polynomial, PolySystem, parse_polynomial
from tenred.rings import GF, QQ, ZZ, Scalar, one
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

from reference import inverse_3x3, is_star, is_symmetric, matmul, transpose


def _system(text_list, num_vars, ring):
    return PolySystem(ring, num_vars, [parse_polynomial(t, num_vars, ring) for t in text_list])


def test_is_plus_minus_one():
    assert is_plus_minus_one(Polynomial.constant(QQ, 1, one(QQ)))
    assert is_plus_minus_one(Polynomial.constant(QQ, 1, -one(QQ)))
    assert not is_plus_minus_one(Polynomial.zero(QQ, 1))
    assert not is_plus_minus_one(Polynomial.constant(QQ, 1, Scalar(QQ, 2)))
    assert not is_plus_minus_one(Polynomial.variable(QQ, 1, 0))
    assert is_plus_minus_one(Polynomial.constant(GF(2), 1, one(GF(2))))


def test_sigma_set_validation():
    x = Polynomial.variable(ZZ, 1, 0)
    unit = Polynomial.constant(ZZ, 1, one(ZZ))
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
    s = sigma_monomial(f.terms[0], 2)
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
    unit = Polynomial.constant(ZZ, 1, one(ZZ))
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
    unit = Polynomial.constant(ZZ, 1, one(ZZ))
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
    unit = Polynomial.constant(ring, 1, one(ring))
    z = Polynomial.zero(ring, 1)
    x = Polynomial.variable(ring, 1, 0)
    iu = B.label_position((unit, z, z))
    ix = B.label_position((x, z, unit))
    izz1 = B.label_position((z, z, unit))
    # dot products: x*1 = x1 lies in F, so the entry is forced to 0
    assert B.entry(ix, iu).is_zero
    assert B.entry(ix, izz1).is_one
    assert is_star(B, ix, ix)
    assert B.entry(iu, iu).is_one


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
    m = IncompleteMatrix(ZZ, [[Scalar(ZZ, 1), None], [None, Scalar(ZZ, 2)]])
    assert m.tau == 2
    assert list(m.stars()) == [(0, 1), (1, 0)]
    assert is_star(m, 0, 1)
    assert not is_star(m, 0, 0)
    assert m.entry(0, 1) is None
    assert m.entry(1, 1).value == 2
    asym = IncompleteMatrix(ZZ, [[Scalar(ZZ, 1), None], [Scalar(ZZ, 3), Scalar(ZZ, 2)]])
    assert not is_symmetric(asym)
    sym = IncompleteMatrix(ZZ, [[None, Scalar(ZZ, 3)], [Scalar(ZZ, 3), None]])
    assert is_symmetric(sym)
    with pytest.raises(ValueError):
        IncompleteMatrix(ZZ, [])
    with pytest.raises(ValueError):
        m.label_position(())


def test_incomplete_matrix_change_ring():
    m = IncompleteMatrix(ZZ, [[Scalar(ZZ, -1), None], [Scalar(ZZ, 13), Scalar(ZZ, 2)]])
    f = m.change_ring(GF(11))
    assert f.entry(0, 0).value == 10
    assert f.entry(1, 0).value == 2
    assert f.entry(0, 1) is None
    q = m.change_ring(QQ)
    assert q.entry(1, 1).value == 2
    assert m.change_ring(ZZ) is m
    with pytest.raises(ValueError):
        q.change_ring(GF(11))


def test_symbolic_u_columns():
    F = _system(["x1"], 1, GF(11))
    B = build_B(F)
    pt = Assignment.from_ints(GF(11), [0])
    U = SymbolicU(B.row_labels).evaluate(pt, GF(11))
    assert U.nrows == 3 and U.ncols == 98
    ring = GF(11)
    unit = Polynomial.constant(ring, 1, one(ring))
    z = Polynomial.zero(ring, 1)
    x = Polynomial.variable(ring, 1, 0)
    col = B.label_position((unit, z, x))
    assert [U.entry(r, col).value for r in range(3)] == [1, 0, 0]
    col2 = B.label_position((unit, unit, unit))
    assert [U.entry(r, col2).value for r in range(3)] == [1, 1, 1]


def test_completion_witness_and_rank():
    F = _system(["x1"], 1, GF(11))
    B = build_B(F)
    W = completion_witness(F, Assignment.from_ints(GF(11), [0]), B=B)
    assert W.nrows == W.ncols == 98
    assert matrix_rank(W) == 3
    for (i, j) in ((0, 0), (5, 7)):
        if not is_star(B, i, j):
            assert W.entry(i, j) == B.entry(i, j)


def test_completion_witness_rejects_non_solutions():
    F = _system(["x1"], 1, GF(11))
    with pytest.raises(VerificationError):
        completion_witness(F, Assignment.from_ints(GF(11), [3]))


def test_completion_witness_integer_system_over_q():
    F = _system(["x1^2 - x1"], 1, ZZ)
    W = completion_witness(F, Assignment.from_ints(ZZ, [1]), guard=None)
    assert W.ring == QQ
    assert matrix_rank(W) == 3


def _reference_gram(U):
    """Raw values of U^T U, each cell a Scalar dot product of two columns
    (taken once per pair of distinct columns)."""
    ids: dict = {}
    col_ids = [ids.setdefault(U.column(j), len(ids)) for j in range(U.ncols)]
    cols = list(ids)
    gram = [[sum((x * y for x, y in zip(a, b)), Scalar(U.ring, 0)).value for b in cols] for a in cols]
    return [[gram[a][b] for b in col_ids] for a in col_ids]


@pytest.mark.parametrize(
    "texts, ring, point",
    [
        pytest.param(["x1 - 1/2"], QQ, [Fraction(1, 2)], id="q-denominators"),
        pytest.param(["x1 - 3"], GF(11), [3], id="gf11"),
        pytest.param(["x1^2 - x1"], ZZ, [1], id="z-over-q"),
    ],
)
def test_completion_witness_matches_scalar_gram(texts, ring, point):
    F = _system(texts, 1, ring)
    pt = Assignment(tuple(Scalar(ring, v) for v in point))
    W = completion_witness(F, pt, guard=None)
    field = QQ if ring == ZZ else ring
    assert W.ring == field and W.nrows == W.ncols == 386
    before = W.raw_rows()
    assert matrix_rank(W) == 3
    # raw_rows() is a copy: the elimination mutated its own rows, not W
    assert W.raw_rows() == before
    U = SymbolicU(build_B(F.change_ring(field), guard=None).row_labels).evaluate(
        Assignment(tuple(Scalar(field, v) for v in point)), field
    )
    ref = _reference_gram(U)
    bad = [(i, j) for i, row in enumerate(ref) for j, v in enumerate(row) if W.raw_grid[i][j] != v]
    assert bad == []
    assert W.row(5) == tuple(Scalar(field, v) for v in ref[5])
    if ring == QQ:
        assert any(v.denominator > 1 for row in W.raw_grid for v in row)


def _random_invertible(ring, rng):
    while True:
        g = DenseMatrix(
            ring, [[Scalar(ring, rng.randrange(ring.modulus)) for _ in range(3)] for _ in range(3)]
        )
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
    unit = Polynomial.constant(ring, F.num_vars, one(ring))
    z = Polynomial.zero(ring, F.num_vars)
    e_cols = unit_label_positions(B)
    c = DenseMatrix(ring, [[L.entry(r, c_) for c_ in e_cols] for r in range(3)])
    cinv = inverse_3x3(c)
    w0, w1, w2 = cinv.raw_grid[2]
    values = []
    for i in range(F.num_vars):
        col = B.label_position((unit, z, Polynomial.variable(ring, F.num_vars, i)))
        values.append(Scalar(ring, w0 * l0[col] + w1 * l1[col] + w2 * l2[col]))
    point = tuple(values)
    bad = F.first_violation(point)
    if bad is not None:
        raise VerificationError(
            f"extracted point is not a solution: {bad[0]} evaluates to {bad[1]}"
        )
    return Assignment(point)


def test_extract_solution_round_trip():
    ring = GF(11)
    F = _system(["x1^2 - x1 - 1"], 1, ring)
    sols = [a for a in range(11) if F.first_violation([Scalar(ring, a)]) is None]
    assert sols == [4, 8]
    B = build_B(F, guard=None)
    rng = random.Random(5)
    for a in sols:
        pt = Assignment.from_ints(ring, [a])
        U = SymbolicU(B.row_labels).evaluate(pt, ring)
        got = extract_solution(U, U, B)
        assert [v.value for v in got.values] == [a]
        g = _random_invertible(ring, rng)
        P = matmul(transpose(inverse_3x3(g)), U)
        L = matmul(g, U)
        scrambled = extract_solution(P, L, B)
        assert [v.value for v in scrambled.values] == [a]


def test_extract_solution_rejects_wrong_factors():
    ring = GF(11)
    F = _system(["x1"], 1, ring)
    B = build_B(F)
    U = SymbolicU(B.row_labels).evaluate(Assignment.from_ints(ring, [0]), ring)
    two = Scalar(ring, 2)
    bad = DenseMatrix(ring, [[v * two for v in row] for row in U.rows])
    with pytest.raises(VerificationError):
        extract_solution(bad, U, B)
