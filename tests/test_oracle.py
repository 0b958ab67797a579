import random

import pytest

from tenred.errors import BudgetExceededError
from tenred.linalg import matrix_rank
from tenred.oracle import (
    OracleResult,
    SearchBudget,
    min_completion_rank,
    projective_vectors,
    restricted_symmetric_search,
    slice_lemma_check,
    solve_system_bruteforce,
    symmetric_rank_bruteforce,
    tensor_rank_bruteforce,
)
from tenred.polysys import PolySystem, parse_polynomial
from tenred.rings import GF, QQ
from tenred.sigma import IncompleteMatrix, build_B, completion_witness
from tenred.symmetric import (
    SymDecomposition,
    SymTensor,
    pair_target,
    verify_symmetric_decomposition,
    waring_gadget,
)
from tenred.tensors import Tensor3, build_derksen, verify_decomposition

from reference import is_star, unpacked


def _system(texts, num_vars, ring):
    return PolySystem(ring, num_vars, [parse_polynomial(t, num_vars, ring) for t in texts])


def _incomplete(ring, rows):
    return IncompleteMatrix(ring, [[None if v is None else ring.canon(v) for v in row] for row in rows])


def test_search_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_rank=-1)
    with pytest.raises(ValueError):
        SearchBudget(max_candidates=0)
    with pytest.raises(ValueError):
        SearchBudget(max_seconds=0)
    assert SearchBudget().max_rank == 4


def test_solve_bruteforce_frozen_examples():
    ring = GF(11)
    sols = solve_system_bruteforce(_system(["x1^2 - x1"], 1, ring))
    assert [a.values[0] for a in sols] == [0, 1]
    sols2 = solve_system_bruteforce(_system(["x1^2 - x1 - 1"], 1, ring))
    assert [a.values[0] for a in sols2] == [4, 8]
    sols3 = solve_system_bruteforce(_system(["x1^2 - x1", "x1 - 2"], 1, ring))
    assert sols3 == []


def test_solve_bruteforce_lex_order_and_budget():
    ring = GF(3)
    sols = solve_system_bruteforce(_system(["x1^2 - x1", "x2^2 - x2"], 2, ring))
    assert [a.values for a in sols] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]
    with pytest.raises(BudgetExceededError):
        solve_system_bruteforce(
            _system(["x1"], 1, GF(11)), SearchBudget(max_candidates=10)
        )
    with pytest.raises(ValueError):
        solve_system_bruteforce(_system(["x1"], 1, QQ))


def test_min_completion_rank_frozen_examples():
    ring = GF(2)
    r1 = min_completion_rank(_incomplete(ring, [[1, None], [0, 1]]))
    assert r1.value == 2 and r1.exhausted
    r2 = min_completion_rank(_incomplete(ring, [[None, None], [None, None]]))
    assert r2.value == 0 and r2.exhausted
    assert all(v == 0 for row in r2.witness.raw_grid for v in row)
    r3 = min_completion_rank(_incomplete(ring, [[1, None], [None, 1]]))
    assert r3.value == 1
    assert r3.witness.raw_grid == ((1, 1), (1, 1))


def test_min_completion_rank_witness_contract():
    ring = GF(3)
    M = _incomplete(ring, [[1, None, 2], [None, 0, None]])
    res = min_completion_rank(M)
    assert res.exhausted
    assert matrix_rank(res.witness) == res.value == 1
    for i in range(2):
        for j in range(3):
            if not is_star(M, i, j):
                assert res.witness.raw_grid[i][j] == M.raw_grid[i][j]
    with pytest.raises(BudgetExceededError):
        min_completion_rank(
            _incomplete(GF(2), [[None, None], [None, None]]),
            SearchBudget(max_candidates=8),
        )


def test_projective_vectors():
    vs = projective_vectors(GF(2), 3)
    assert len(vs) == 7
    assert vs[0] == (1, 0, 0)
    assert all(v[next(i for i, c in enumerate(v) if c)] == 1 for v in vs)
    assert len(set(vs)) == 7
    assert len(projective_vectors(GF(3), 2)) == 4
    with pytest.raises(ValueError):
        projective_vectors(QQ, 2)


def test_tensor_rank_frozen_examples():
    ring = GF(2)
    assert tensor_rank_bruteforce(Tensor3(ring, (2, 2, 2), {})).value == 0
    cube = Tensor3(ring, (2, 2, 2), {(0, 0, 0): 1})
    res = tensor_rank_bruteforce(cube)
    assert res.value == 1 and res.exhausted and res.lower_bound == 1
    ok, _ = verify_decomposition(cube, res.witness)
    assert ok


def test_tensor_rank_derksen_gf2():
    ring = GF(2)
    B = _incomplete(ring, [[1, None], [0, 1]])
    inst = build_derksen(B)
    res = tensor_rank_bruteforce(inst.tensor)
    assert res.value == 3
    comp = min_completion_rank(B)
    assert res.value == inst.tau + comp.value == 1 + 2
    ok, _ = verify_decomposition(inst.tensor, res.witness)
    assert ok


def test_tensor_rank_minimality_rerun():
    ring = GF(2)
    inst = build_derksen(_incomplete(ring, [[1, None], [0, 1]]))
    shrunk = tensor_rank_bruteforce(inst.tensor, SearchBudget(max_rank=2))
    assert shrunk.value is None
    assert not shrunk.exhausted
    assert shrunk.lower_bound == 3


def test_tensor_rank_budget_truncation():
    ring = GF(2)
    inst = build_derksen(_incomplete(ring, [[1, None], [0, 1]]))
    res = tensor_rank_bruteforce(inst.tensor, SearchBudget(max_candidates=5))
    assert res.value is None and not res.exhausted and res.lower_bound == 1


def test_tensor_rank_random_witnesses_verify():
    ring = GF(3)
    rng = random.Random(12)
    for _ in range(6):
        entries = {}
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    v = rng.randrange(3)
                    if v:
                        entries[(i, j, k)] = v
        T = Tensor3(ring, (2, 2, 2), entries)
        res = tensor_rank_bruteforce(T)
        assert res.exhausted
        ok, _ = verify_decomposition(T, res.witness)
        assert ok


def test_symmetric_rank_frozen_examples():
    ring = GF(11)
    zero_res = symmetric_rank_bruteforce(SymTensor(ring, ("a", "b"), {}))
    assert zero_res.value == 0 and zero_res.exhausted

    cube = SymDecomposition(ring, 2, [(2, {0: 1, 1: 3})])
    from tenred.symmetric import sum_sym_decomposition_raw

    T = SymTensor(ring, ("a", "b"), unpacked(sum_sym_decomposition_raw(cube.raw, 2, ring), ring, (2, 2, 2)))
    res = symmetric_rank_bruteforce(T)
    assert res.value == 1 and res.exhausted
    ok, _ = verify_symmetric_decomposition(T, res.witness)
    assert ok


def test_symmetric_rank_gadget_is_three():
    ring = GF(11)
    A = pair_target(ring, 0)
    res = symmetric_rank_bruteforce(A)
    assert res.value == 3 and res.exhausted
    ok, _ = verify_symmetric_decomposition(A, res.witness)
    assert ok
    # pair exhaustion alone certifies the lower bound
    pairs_only = symmetric_rank_bruteforce(A, SearchBudget(max_rank=2))
    assert pairs_only.value is None
    assert pairs_only.lower_bound == 3
    # and the constructed gadget matches the oracle count
    assert len(waring_gadget(ring, 0)) == 3


def test_symmetric_rank_capability_limits():
    ring = GF(11)
    big = SymTensor(ring, ("a", "b", "c", "d"), {(0, 1, 2): 1})
    with pytest.raises(BudgetExceededError):
        symmetric_rank_bruteforce(big)
    three = SymTensor(ring, ("a", "b", "c"), {(0, 0, 0): 1, (1, 1, 2): 1})
    res = symmetric_rank_bruteforce(three)
    if res.exhausted:
        assert res.value <= 2
    else:
        assert res.lower_bound == 3


def test_restricted_symmetric_search_finds_known_decomposition():
    ring = GF(11)
    A = pair_target(ring, 0)
    gadget = waring_gadget(ring, 0)
    candidates = [v for _, v in gadget.raw]
    res = restricted_symmetric_search(A, candidates, max_terms=3)
    assert res.value == 3 and res.exhausted
    ok, _ = verify_symmetric_decomposition(A, res.witness)
    assert ok

    short = restricted_symmetric_search(A, candidates, max_terms=2)
    assert short.value is None and short.exhausted and short.lower_bound == 3


def test_restricted_symmetric_search_validation():
    ring = GF(11)
    A = pair_target(ring, 0)
    zero_res = restricted_symmetric_search(SymTensor(ring, ("a", "b"), {}), [], 2)
    assert zero_res.value == 0 and zero_res.exhausted
    with pytest.raises(ValueError):
        restricted_symmetric_search(A, [{2: 1}], 2)
    with pytest.raises(BudgetExceededError):
        restricted_symmetric_search(
            A,
            [{0: 1}, {1: 1}],
            2,
            SearchBudget(max_candidates=2),
        )


def test_slice_lemma_payload_equals_gadget():
    ring = GF(2)
    T = Tensor3(
        ring,
        (2, 2, 2),
        {(0, 0, 0): 1, (0, 0, 1): 1},
    )
    assert slice_lemma_check(T, 1) is True


def test_slice_lemma_random_small_instances():
    ring = GF(2)
    rng = random.Random(17)
    checked = 0
    while checked < 12:
        payload = {}
        for i in range(2):
            for j in range(2):
                if rng.randrange(2):
                    payload[(i, j, 0)] = 1
        gi, gj = rng.randrange(2), rng.randrange(2)
        entries = dict(payload)
        entries[(gi, gj, 1)] = 1
        T = Tensor3(ring, (2, 2, 2), entries)
        assert slice_lemma_check(T, 1) is True
        checked += 1


def test_slice_lemma_preconditions():
    ring = GF(2)
    rank2 = Tensor3(
        ring,
        (2, 2, 2),
        {(0, 0, 1): 1, (1, 1, 1): 1},
    )
    with pytest.raises(ValueError):
        slice_lemma_check(rank2, 1)
    dependent = Tensor3(
        ring,
        (2, 2, 3),
        {(0, 0, 1): 1, (0, 0, 2): 1},
    )
    with pytest.raises(ValueError):
        slice_lemma_check(dependent, 1)
    with pytest.raises(ValueError):
        slice_lemma_check(rank2, 0)


def test_slice_lemma_no_gadget_slices():
    ring = GF(2)
    T = Tensor3(ring, (2, 2, 1), {(0, 0, 0): 1})
    assert slice_lemma_check(T, 1) is True


def test_reduction_soundness_tiny_systems():
    ring = GF(11)
    for texts in (["x1"], ["x1^2 - x1"]):
        F = _system(texts, 1, ring)
        B = build_B(F)
        for sol in solve_system_bruteforce(F):
            W = completion_witness(B, sol)
            assert matrix_rank(W) <= 3


def test_oracle_result_shape():
    res = OracleResult(2, None, True, 2)
    assert res.value == 2 and res.exhausted and res.lower_bound == 2
