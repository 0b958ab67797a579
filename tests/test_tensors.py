import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenred import certify
from tenred.errors import RingMismatchError
from tenred.linalg import DenseMatrix
from tenred.polysys import PolySystem, parse_polynomial
from tenred.rings import GF, QQ, ZZ
from tenred.sigma import IncompleteMatrix, SymbolicU, build_B, completion_witness, unit_label_positions
from tenred.tensors import (
    Decomposition,
    DerksenInstance,
    Tensor3,
    Walk,
    build_derksen,
    derksen_witness,
    first_mismatch,
    pad_cubical,
    slice_matrix,
    slice_reduce,
    sum_terms_raw,
    verify_decomposition,
)

from reference import (
    dense,
    derksen_witness_from_u,
    dict_mismatch,
    point,
    sum_decomposition_raw,
    tensor_from_nested,
    unpacked,
    vec,
)


def _t(ring, dims, triples):
    return Tensor3(ring, dims, ring.canon_map(triples))


def test_tensor3_basics():
    # entries outside the dims are refused by the reader of a tensor file
    # (tests/test_cli.py::test_malformed_bare_file_exits_2)
    T = _t(ZZ, (2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 0, (0, 1, 1): -2})
    assert T.nnz == 2
    assert not T.is_zero
    assert T.entries[0, 1, 1] == -2
    assert (1, 1, 1) not in T.entries
    assert Tensor3(ZZ, (1, 1, 1), {}).is_zero
    assert sorted(T.entries.items()) == [((0, 0, 0), 1), ((0, 1, 1), -2)]


def test_tensor3_from_nested_and_change_ring():
    grid = [[[13, 0], [-1, 2]]]
    T = tensor_from_nested(ZZ, grid)
    assert T.dims == (1, 2, 2)
    assert T.entries[0, 1, 0] == -1
    f = T.change_ring(GF(11))
    assert f.entries[0, 0, 0] == 2
    assert f.entries[0, 1, 0] == 10
    assert T.change_ring(ZZ) is T
    with pytest.raises(ValueError):
        f.change_ring(QQ)


def test_slice_matrix():
    T = _t(ZZ, (2, 3, 2), {(0, 1, 0): 5, (1, 2, 1): 7, (0, 0, 1): 2})
    s3 = slice_matrix(T, 3, 0)
    assert s3.nrows == 2 and s3.ncols == 3
    assert s3.raw_grid[0][1] == 5
    assert s3.raw_grid[1][2] == 0
    s1 = slice_matrix(T, 1, 0)
    assert s1.nrows == 3 and s1.ncols == 2
    assert s1.raw_grid[1][0] == 5
    assert s1.raw_grid[0][1] == 2
    s2 = slice_matrix(T, 2, 2)
    assert s2.raw_grid[1][1] == 7
    with pytest.raises(ValueError):
        slice_matrix(T, 0, 0)
    with pytest.raises(ValueError):
        slice_matrix(T, 3, 5)


def _term(ring, a, b, c):
    return vec(ring, a), vec(ring, b), vec(ring, c)


def test_sum_and_verify_decomposition():
    ring = GF(5)
    t1 = _term(ring, [1, 0], [1, 0], [1, 0])
    t2 = _term(ring, [0, 1], [0, 1], [0, 1])
    D = Decomposition(ring, (2, 2, 2), [t1, t2])
    total = sum_decomposition_raw(D)
    assert total == {(0, 0, 0): 1, (1, 1, 1): 1}
    T = _t(ring, (2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    ok, mismatch = verify_decomposition(T, D)
    assert ok and mismatch is None

    T2 = _t(ring, (2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 2})
    ok2, mismatch2 = verify_decomposition(T2, D)
    assert not ok2
    key, want, got = mismatch2
    assert key == (1, 1, 1) and want == 2 and got == 1

    with pytest.raises(ValueError):
        verify_decomposition(_t(ring, (2, 2, 3), {}), D)
    with pytest.raises(RingMismatchError):
        verify_decomposition(_t(GF(7), (2, 2, 2), {}), D)


def test_cancelling_terms_sum_to_zero():
    t = _term(QQ, [1, 2], [3, 1], [1, 1])
    neg = (QQ.canon_map({i: -v for i, v in t[0].items()}), t[1], t[2])
    D = Decomposition(QQ, (2, 2, 2), [t, neg])
    assert sum_decomposition_raw(D) == {}
    ok, _ = verify_decomposition(Tensor3(QQ, (2, 2, 2), {}), D)
    assert ok


def test_build_derksen_shape():
    ring = GF(2)
    B = IncompleteMatrix(ring, [[1, None], [0, 1]])
    inst = build_derksen(B)
    assert inst.tau == 1
    assert inst.star_map == ((0, 1),)
    assert inst.target_rank == 4
    assert inst.tensor.dims == (2, 2, 2)
    assert inst.tensor.entries[0, 0, 0] == 1
    assert inst.tensor.entries[1, 1, 0] == 1
    assert (0, 1, 0) not in inst.tensor.entries
    assert inst.tensor.entries[0, 1, 1] == 1
    assert inst.source is B


def test_build_derksen_star_order_row_major():
    ring = QQ
    B = IncompleteMatrix(ring, [[None, ring.canon(2)], [ring.canon(3), None]])
    inst = build_derksen(B)
    assert inst.star_map == ((0, 0), (1, 1))
    assert inst.tensor.entries[0, 0, 1] == 1
    assert inst.tensor.entries[1, 1, 2] == 1
    assert inst.tensor.dims == (2, 2, 3)


_ = None  # a star
_GRIDS = {
    "no stars": [[1, 2], [3, 4]],
    "all stars": [[_, _], [_, _], [_, _]],
    "one row": [[_, 0, _, 4, _]],
    "one column": [[0], [_], [_], [1]],
    "scattered": [[_, 1, 0, _], [2, _, _, 3], [0, 0, 0, 0], [_, 4, 1, _]],
}


@pytest.mark.parametrize("name", sorted(_GRIDS))
def test_stars_are_counted_and_walked_in_row_major_order(name):
    # tau is a count kept with the grid, and stars() and star_map walk the
    # grid; the t-th star in row-major order gets slice t
    grid = _GRIDS[name]
    ring = GF(5)
    B = IncompleteMatrix(ring, grid)
    row_major = [(i, j) for i in range(len(grid)) for j in range(len(grid[0])) if grid[i][j] is None]
    assert B.tau == len(row_major)
    assert list(B.stars()) == row_major
    inst = build_derksen(B)
    assert inst.tau == B.tau and inst.tensor.dims[2] == B.tau + 1
    assert inst.star_map == tuple(row_major)
    assert {k: v for k, v in inst.tensor.entries.items() if k[2]} == {
        (i, j, t): 1 for t, (i, j) in enumerate(row_major, start=1)
    }


def test_derksen_witness_terms_are_made_on_each_walk():
    # the tau+3 terms are no list: each walk makes them again, the same
    inst, W = _gadget_pipeline(GF(11), "x1", 0)
    D = derksen_witness(inst, W)
    assert isinstance(D.raw, Walk) and len(D.raw) == inst.tau + 3
    first, second = list(D.raw), list(D.raw)
    assert first == second and len(first) == inst.tau + 3
    assert [c for _, _, c in first[:3]] == [{0: 1}] * 3
    for t, ((i, j), (a, b, c)) in enumerate(zip(inst.star_map, first[3:]), start=1):
        w = (-W.raw_grid[i][j]) % 11
        assert (a, b, c) == ({i: 1}, {j: 1}, {0: w, t: 1} if w else {t: 1})


def _gadget_pipeline(ring, poly, solution):
    F = PolySystem(ring, 1, [parse_polynomial(poly, 1, ring)])
    B = build_B(F)
    inst = build_derksen(B)
    W = completion_witness(B, point(ring, [solution]))
    return inst, W


@pytest.mark.parametrize(
    "ring, poly, solution",
    [(GF(2), "x1^2 - x1", 1), (GF(11), "x1 - 3", 3), (ZZ, "x1^2 - x1", 1)],
    ids=["gf2", "gf11", "z-over-q"],
)
def test_derksen_witness_takes_u_from_w(ring, poly, solution):
    # the rows of W at the unit labels are U(point): the terms are those
    # made with U evaluated beside W, value for value and type for type
    field = QQ if ring == ZZ else ring
    F = PolySystem(ring, 1, [parse_polynomial(poly, 1, ring)])
    B = build_B(F).change_ring(field)
    pt = point(field, [solution])
    inst, W = build_derksen(B), completion_witness(B, pt)
    U = SymbolicU(B.row_labels).evaluate(pt, field)
    got, want = list(derksen_witness(inst, W).raw), list(derksen_witness_from_u(inst, W, U).raw)
    assert got == want and len(got) == inst.tau + 3

    def typed(terms):
        return [[(k, type(v)) for m in term for k, v in m.items()] for term in terms]

    assert typed(got) == typed(want)
    assert any(len(a) > 1 for a, _, _ in got[:3])  # U is not only the unit columns


def test_derksen_witness_pipeline():
    inst, W = _gadget_pipeline(GF(11), "x1", 0)
    D = derksen_witness(inst, W)
    assert len(D) == inst.target_rank == inst.tau + 3
    ok, _ = verify_decomposition(inst.tensor, D)
    assert ok


def _tensor_verdict(inst, D):
    """The verdict ``verify`` gives D's terms against the instance."""
    red = certify.Reduction("tensor", inst.source, inst, inst.target_rank)
    return certify.sum_verdict(red, inst.ring, len(D), sum_terms_raw(D.raw, D.dims, inst.ring))


def test_derksen_witness_rejects_bad_completion():
    # derksen_witness builds from any completion; the tensor verdict
    # refuses the terms and names where they miss the instance.  W is read
    # at the stars, so a bump there shows in slice 0, and its rows at the
    # unit labels are the factor U, so doubling them doubles U
    inst, W = _gadget_pipeline(GF(11), "x1", 0)
    ring = GF(11)
    assert _tensor_verdict(inst, derksen_witness(inst, W)) is None
    E = unit_label_positions(inst.source)
    i, j = next((i, j) for i, j in inst.star_map if i not in E)
    bumped = W.raw_rows()
    bumped[i][j] = ring.canon(bumped[i][j] + 1)
    D = derksen_witness(inst, DenseMatrix(ring, bumped))
    assert _tensor_verdict(inst, D) == f"mismatch at ({i}, {j}, 0): instance has 0, witness sums to 10"
    doubled = W.raw_rows()
    for e in E:
        doubled[e] = [ring.canon(v * 2) for v in doubled[e]]
    D = derksen_witness(inst, DenseMatrix(ring, doubled))
    assert _tensor_verdict(inst, D) == "mismatch at (0, 0, 0): instance has 1, witness sums to 4"


def test_derksen_witness_refuses_terms_that_miss_the_tensor(monkeypatch):
    # the completion and its factors agree with B, so only the verdict's
    # sum can see that one star unit of the instance tensor was changed;
    # the instance walks its entries from B, so the change goes into the walk
    inst, W = _gadget_pipeline(GF(11), "x1", 0)
    key = (*inst.star_map[0], 1)
    entries = dict(inst.tensor.entries)
    entries[key] = 2
    monkeypatch.setattr(DerksenInstance, "items", lambda self: entries.items())
    D = derksen_witness(inst, W)
    assert _tensor_verdict(inst, D) == f"mismatch at {key}: instance has 2, witness sums to 1"


def test_slice_reduce_algebra():
    ring = GF(7)
    T = _t(
        ring,
        (2, 2, 3),
        {(0, 0, 0): 1, (1, 1, 0): 2, (0, 1, 1): 3, (1, 0, 2): 4},
    )
    lam = dense(ring, [[2, 5]])
    R = slice_reduce(T, 1, lam)
    assert R.dims == (2, 2, 1)
    # V_0 = S_0 - 2*S'_0 - 5*S'_1
    assert R.entries[0, 0, 0] == 1
    assert R.entries[1, 1, 0] == 2
    assert R.entries[0, 1, 0] == (-2 * 3) % 7
    assert R.entries[1, 0, 0] == (-5 * 4) % 7

    zerolam = dense(ring, [[0, 0]])
    Z = slice_reduce(T, 1, zerolam)
    assert Z.entries == {(0, 0, 0): 1, (1, 1, 0): 2}

    with pytest.raises(ValueError):
        slice_reduce(T, 0, lam)
    with pytest.raises(ValueError):
        slice_reduce(T, 1, dense(ring, [[1]]))
    with pytest.raises(RingMismatchError):
        slice_reduce(T, 1, dense(GF(5), [[1, 1]]))


def test_slice_reduce_multiple_payload():
    ring = QQ
    T = _t(ring, (2, 2, 4), {(0, 0, 0): 1, (1, 1, 1): 1, (0, 1, 2): 1, (1, 0, 3): 1})
    lam = dense(ring, [[1, 0], [0, 2]])
    R = slice_reduce(T, 2, lam)
    assert R.dims == (2, 2, 2)
    assert R.entries[0, 0, 0] == 1
    assert R.entries[0, 1, 0] == -1
    assert R.entries[1, 1, 1] == 1
    assert R.entries[1, 0, 1] == -2


def test_pad_cubical():
    T = _t(ZZ, (2, 3, 1), {(1, 2, 0): 5})
    P = pad_cubical(T)
    assert P.dims == (3, 3, 3)
    assert P.entries[1, 2, 0] == 5
    assert P.nnz == 1
    cube = _t(ZZ, (2, 2, 2), {(0, 0, 0): 1})
    assert pad_cubical(cube) is cube


def test_random_decompositions_round_trip():
    rng = random.Random(3)
    ring = QQ
    for _ in range(10):
        terms = []
        for _ in range(rng.randint(1, 4)):
            terms.append(tuple(vec(ring, [rng.randint(-2, 2) for _ in range(n)]) for n in (2, 3, 2)))
        D = Decomposition(ring, (2, 3, 2), terms)
        T = Tensor3(ring, (2, 3, 2), sum_decomposition_raw(D))
        ok, _ = verify_decomposition(T, D)
        assert ok



_RINGS = [GF(2), GF(11), QQ, ZZ]
_THIN = [(3, 1, 2), (2, 3, 1), (2, 1, 1), (1, 1, 1)]  # n2 = 1 or n3 = 1


def _value(rng, ring):
    if ring == QQ:
        return ring.canon(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return ring.canon(rng.randint(-3, 12))


def _random_case(rng, ring, dims):
    """Random terms over a ring within dims, and a tensor near their sum:
    the exact sum with a few entries changed, dropped or added."""
    terms = [
        tuple(ring.canon_map({rng.randrange(n): _value(rng, ring) for _ in range(rng.randint(0, 3))}) for n in dims)
        for _ in range(rng.randint(0, 5))
    ]
    D = Decomposition(ring, dims, terms)
    entries = sum_decomposition_raw(D)
    for _ in range(rng.choice([0, 0, 1, 3])):
        entries[tuple(rng.randrange(n) for n in dims)] = _value(rng, ring)
    return D, Tensor3(ring, dims, ring.canon_map(entries))


@settings(derandomize=True, database=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32),
    ring=st.sampled_from(_RINGS),
    dims=st.sampled_from(_THIN) | st.tuples(*[st.integers(1, 3)] * 3),
)
def test_packed_sum_and_compare_match_the_tuple_keyed_reference(seed, ring, dims):
    # the packed sum, made canonical and unpacked, is the tuple-keyed sum,
    # and the compare names the same first mismatch, expected and actual
    D, T = _random_case(random.Random(seed), ring, dims)
    total = sum_terms_raw(D.raw, dims, ring)
    assert total == ring.canon_map(total)  # only canonical nonzero values
    assert unpacked(total, ring, dims) == sum_decomposition_raw(D)
    assert verify_decomposition(T, D) == dict_mismatch(T.entries, sum_decomposition_raw(D))


def test_an_integer_instance_checked_over_q_matches_the_reference():
    # a Z instance is walked into Q, as verify reads a Q witness of it; the
    # terms are the instance's own entries as unit terms, exact or changed
    B = IncompleteMatrix(ZZ, [[2, None, 0], [None, -3, 1]])
    inst = build_derksen(B)
    assert inst.ring == ZZ
    want = inst.tensor.change_ring(QQ).entries
    rng = random.Random(5)
    for trial in range(30):
        terms = [({i: QQ.canon(v)}, {j: QQ.canon(1)}, {k: QQ.canon(1)}) for (i, j, k), v in inst.items()]
        if trial:
            i, j, k = (rng.randrange(n) for n in inst.dims)
            terms.append(({i: QQ.canon(Fraction(1, rng.randint(1, 3)))}, {j: QQ.canon(1)}, {k: QQ.canon(-1)}))
        D = Decomposition(QQ, inst.dims, terms)
        total = sum_terms_raw(D.raw, D.dims, QQ)
        assert total == QQ.canon_map(total) and all(type(v) is Fraction for v in total.values())
        got = first_mismatch(build_derksen(B.change_ring(QQ)).items(), total, D.dims)
        assert got == dict_mismatch(want, sum_decomposition_raw(D))
        assert got[0] == (trial == 0)
