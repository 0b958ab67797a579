"""Brute-force exact reference algorithms over prime fields.

These are the ground truth the constructions are tested against: full
enumeration of polynomial-system solutions, star assignments, and rank-1
candidate terms, with every returned witness re-verified exactly.  Nothing
here is heuristic; a result either comes from an exhausted search (and is
therefore minimal) or is explicitly flagged as not exhausted.

Candidate rank-1 factors are enumerated projectively: the first nonzero
coordinate of a vector is normalized to 1, which removes scalar redundancy
without losing any decomposition.  Candidate lists and subset enumeration
are in a fixed lexicographic order, so the returned witness is the least
one and independent of any execution schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Sequence

from .errors import BudgetExceededError, StructureError
from .linalg import DenseMatrix, Vec, matrix_rank, rank_raw
from .polysys import Assignment, PolySystem
from .rings import PRIME_FIELD, RingDescriptor, Scalar
from .sigma import IncompleteMatrix
from .symmetric import (
    SymDecomposition,
    SymTensor,
    SymTerm,
    verify_symmetric_decomposition,
)
from .tensors import (
    Decomposition,
    Rank1Term,
    Tensor3,
    slice_matrix,
    slice_reduce,
    verify_decomposition,
)


@dataclass(frozen=True)
class SearchBudget:
    """Caps for exhaustive searches.

    max_rank bounds the number of terms tried; max_candidates bounds the
    total number of candidate subsets examined; max_seconds is a soft
    wall-clock hint checked between batches (a timed-out search is
    reported as not exhausted, and where the cut falls may vary run to
    run, unlike the candidate caps which are deterministic).
    """

    max_rank: int = 4
    max_candidates: int = 2_000_000
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_rank < 0:
            raise ValueError("max_rank must be nonnegative")
        if self.max_candidates <= 0:
            raise ValueError("max_candidates must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a brute-force search.

    exhausted=True means the search space below `value` was fully
    enumerated, so the value is exactly minimal; otherwise `value` is only
    an upper bound (or None when nothing was found) and lower_bound
    records how far exhaustion got.
    """

    value: int | None
    witness: object
    exhausted: bool
    lower_bound: int | None = None


def _require_prime_field(ring: RingDescriptor, what: str) -> None:
    if ring.kind != PRIME_FIELD:
        raise ValueError(f"{what} enumerates a prime field, not {ring}")


def solve_system_bruteforce(F: PolySystem, budget: SearchBudget | None = None) -> list[Assignment]:
    """All solutions of F over its prime field, in lexicographic order."""
    budget = budget or SearchBudget()
    _require_prime_field(F.ring, "solution search")
    p = F.ring.modulus
    total = p ** F.num_vars
    if total > budget.max_candidates:
        raise BudgetExceededError(
            f"{p}^{F.num_vars} assignments exceed the candidate budget {budget.max_candidates}"
        )
    out = []
    for values in product(range(p), repeat=F.num_vars):
        point = tuple(Scalar(F.ring, v) for v in values)
        if F.first_violation(point) is None:
            out.append(Assignment(point))
    return out


def min_completion_rank(M: IncompleteMatrix, budget: SearchBudget | None = None) -> OracleResult:
    """Minimum rank over all star assignments, with an optimal completion.

    Assignments are enumerated lexicographically along the row-major star
    order, so the witness is the first completion attaining the minimum.
    """
    budget = budget or SearchBudget()
    _require_prime_field(M.ring, "completion search")
    p = M.ring.modulus
    total = p ** M.tau
    if total > budget.max_candidates:
        raise BudgetExceededError(
            f"{p}^{M.tau} completions exceed the candidate budget {budget.max_candidates}"
        )
    grid = [list(row) for row in M.raw_grid]
    best_rank: int | None = None
    best_grid = None
    for values in product(range(p), repeat=M.tau):
        for (i, j), v in zip(M.star_positions, values):
            grid[i][j] = v
        r = rank_raw([list(row) for row in grid], M.ring)
        if best_rank is None or r < best_rank:
            best_rank = r
            best_grid = [row[:] for row in grid]
            if best_rank == 0:
                break
    witness = DenseMatrix._from_raw(M.ring, best_grid)
    return OracleResult(best_rank, witness, exhausted=True, lower_bound=best_rank)


def projective_vectors(ring: RingDescriptor, n: int) -> list[tuple[int, ...]]:
    """All directions in GF(p)^n with first nonzero coordinate 1.

    Ordered by position of the leading 1, then lexicographically in the
    free coordinates; (p^n - 1)/(p - 1) vectors in total.
    """
    _require_prime_field(ring, "projective enumeration")
    p = ring.modulus
    out = []
    for lead in range(n):
        for tail in product(range(p), repeat=n - 1 - lead):
            out.append((0,) * lead + (1,) + tail)
    return out


def _rref_solve(p: int, rows: list[list[int]], ncols_a: int, ncols_b: int):
    """Solve A X = B over GF(p) from the augmented rows [A | B].

    Returns the canonical solution with zero rows at non-pivot columns,
    or None when the system is inconsistent.  Mutates `rows`.
    """
    m = len(rows)
    pivots: list[tuple[int, int]] = []
    rr = 0
    for col in range(ncols_a):
        sel = None
        for i in range(rr, m):
            if rows[i][col] % p:
                sel = i
                break
        if sel is None:
            continue
        rows[rr], rows[sel] = rows[sel], rows[rr]
        inv = pow(rows[rr][col] % p, p - 2, p)
        rows[rr] = [(x * inv) % p for x in rows[rr]]
        lead = rows[rr]
        for i in range(m):
            if i != rr and rows[i][col] % p:
                f = rows[i][col] % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], lead)]
        pivots.append((rr, col))
        rr += 1
    for i in range(rr, m):
        if any(x % p for x in rows[i][ncols_a:]):
            return None
    sol = [[0] * ncols_b for _ in range(ncols_a)]
    for row_idx, col in pivots:
        sol[col] = [x % p for x in rows[row_idx][ncols_a:]]
    return sol


def tensor_rank_bruteforce(T: Tensor3, budget: SearchBudget | None = None) -> OracleResult:
    """Exact rank of a small tensor by increasing-size candidate search.

    Candidates fix a and b projectively; for each subset the c factors are
    recovered by one exact linear solve, so a subset either extends to a
    decomposition or provably does not.  Exceeding the budget returns the
    progress made (exhausted=False) rather than guessing.
    """
    budget = budget or SearchBudget()
    _require_prime_field(T.ring, "rank search")
    ring = T.ring
    p = ring.modulus
    n1, n2, n3 = T.dims
    if T.is_zero:
        return OracleResult(0, Decomposition(ring, T.dims, []), True, 0)

    pairs = [
        (a, b)
        for a in projective_vectors(ring, n1)
        for b in projective_vectors(ring, n2)
    ]
    unfold = [[0] * n3 for _ in range(n1 * n2)]
    for (i, j, k), v in T.entries.items():
        unfold[i * n2 + j][k] = v

    deadline = None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
    spent = 0
    for r in range(1, budget.max_rank + 1):
        level = comb(len(pairs), r)
        if spent + level > budget.max_candidates:
            return OracleResult(None, None, False, r)
        for combo_idx, combo in enumerate(combinations(range(len(pairs)), r)):
            if deadline is not None and combo_idx % 1024 == 0 and time.monotonic() > deadline:
                return OracleResult(None, None, False, r)
            rows = []
            for i in range(n1):
                for j in range(n2):
                    row = [pairs[t][0][i] * pairs[t][1][j] % p for t in combo]
                    row.extend(unfold[i * n2 + j])
                    rows.append(row)
            sol = _rref_solve(p, rows, r, n3)
            if sol is None:
                continue
            terms = []
            for t, c_row in zip(combo, sol):
                a_raw, b_raw = pairs[t]
                terms.append(
                    Rank1Term(
                        Vec(ring, n1, {i: Scalar(ring, v) for i, v in enumerate(a_raw)}),
                        Vec(ring, n2, {i: Scalar(ring, v) for i, v in enumerate(b_raw)}),
                        Vec(ring, n3, {i: Scalar(ring, v) for i, v in enumerate(c_row)}),
                    )
                )
            D = Decomposition(ring, T.dims, terms)
            ok, mismatch = verify_decomposition(T, D)
            if not ok:
                raise StructureError(f"solver produced a bad witness at {mismatch[0]}")
            return OracleResult(r, D, True, r)
        spent += level
    return OracleResult(None, None, False, budget.max_rank + 1)


def _sym_capability(size: int) -> int:
    # documented budget: exhaustive triples need <= 2 indices, pairs <= 3
    if size <= 2:
        return 3
    if size <= 3:
        return 2
    return 0


def symmetric_rank_bruteforce(T: SymTensor, budget: SearchBudget | None = None) -> OracleResult:
    """Exact symmetric rank on tiny index sets by subset enumeration.

    Directions are projective; coefficients are recovered by a linear
    solve over all canonical entry equations.  Index sets too large for
    even the pair level are rejected up front as out of budget.
    """
    budget = budget or SearchBudget()
    _require_prime_field(T.ring, "symmetric rank search")
    ring = T.ring
    p = ring.modulus
    size = T.size
    if T.is_zero:
        return OracleResult(0, SymDecomposition(ring, size, []), True, 0)
    cap = min(_sym_capability(size), budget.max_rank)
    if cap == 0:
        raise BudgetExceededError(
            f"{size} indices is beyond the exhaustive symmetric search budget"
        )
    dirs = projective_vectors(ring, size)
    keys = list(combinations_with_replacement(range(size), 3))
    rhs = [T.entries.get(key, 0) for key in keys]
    for r in range(1, cap + 1):
        for combo in combinations(range(len(dirs)), r):
            rows = []
            for key, target in zip(keys, rhs):
                x, y, z = key
                row = [dirs[t][x] * dirs[t][y] * dirs[t][z] % p for t in combo]
                row.append(target)
                rows.append(row)
            sol = _rref_solve(p, rows, r, 1)
            if sol is None:
                continue
            terms = []
            for t, (s_raw,) in zip(combo, sol):
                if s_raw % p == 0:
                    continue
                v = Vec(ring, size, {i: Scalar(ring, c) for i, c in enumerate(dirs[t])})
                terms.append(SymTerm(Scalar(ring, s_raw), v))
            D = SymDecomposition(ring, size, terms)
            ok, mismatch = verify_symmetric_decomposition(T, D)
            if not ok:
                raise StructureError(f"solver produced a bad witness at {mismatch[0]}")
            return OracleResult(r, D, True, r)
    return OracleResult(None, None, False, cap + 1)


def restricted_symmetric_search(
    T: SymTensor, candidates: Sequence[Vec], max_terms: int, budget: SearchBudget | None = None
) -> OracleResult:
    """Least decomposition of T using directions from a fixed family only.

    This is the relative search used for the 6-index lower-bound check on
    the rank-1 payload: the family there consists of the ten directions of
    the constructed witness plus the three payload-block unit vectors, and
    exhausting all subsets of at most max_terms certifies that no shorter
    decomposition exists within that family (value None, exhausted True).
    Coefficients are solved for exactly, so membership of a subset is
    decided, never sampled.
    """
    budget = budget or SearchBudget()
    _require_prime_field(T.ring, "restricted symmetric search")
    ring = T.ring
    p = ring.modulus
    size = T.size
    for v in candidates:
        if v.ring != ring or v.n != size:
            raise ValueError("candidate over wrong ring or dimension")
    if T.is_zero:
        return OracleResult(0, SymDecomposition(ring, size, []), True, 0)
    total = sum(comb(len(candidates), r) for r in range(1, max_terms + 1))
    if total > budget.max_candidates:
        raise BudgetExceededError(
            f"{total} subsets exceed the candidate budget {budget.max_candidates}"
        )
    cand_raw = [
        tuple(v.get(i).value for i in range(size)) for v in candidates
    ]
    key_set = set(T.entries)
    for raw in cand_raw:
        support = [i for i, c in enumerate(raw) if c]
        key_set.update(combinations_with_replacement(support, 3))
    keys = sorted(key_set)
    rhs = [T.entries.get(key, 0) for key in keys]
    for r in range(1, max_terms + 1):
        for combo in combinations(range(len(candidates)), r):
            rows = []
            for key, target in zip(keys, rhs):
                x, y, z = key
                row = [cand_raw[t][x] * cand_raw[t][y] * cand_raw[t][z] % p for t in combo]
                row.append(target)
                rows.append(row)
            sol = _rref_solve(p, rows, r, 1)
            if sol is None:
                continue
            terms = [
                SymTerm(Scalar(ring, s_raw), candidates[t])
                for t, (s_raw,) in zip(combo, sol)
                if s_raw % p
            ]
            D = SymDecomposition(ring, size, terms)
            ok, mismatch = verify_symmetric_decomposition(T, D)
            if not ok:
                raise StructureError(f"solver produced a bad witness at {mismatch[0]}")
            return OracleResult(len(terms), D, True, len(terms))
    return OracleResult(None, None, True, max_terms + 1)


def slice_lemma_check(T: Tensor3, k: int, budget: SearchBudget | None = None) -> bool:
    """Brute-force both sides of the slice-reduction identity.

    The trailing 3-slices (beyond the first k) must be linearly
    independent and each of rank one; the check then compares the rank of
    T with the gadget count plus the minimum, over all coefficient
    matrices, of the rank of the reduced payload tensor.
    """
    budget = budget or SearchBudget()
    _require_prime_field(T.ring, "slice lemma check")
    ring = T.ring
    p = ring.modulus
    tau2 = T.dims[2] - k
    if k < 1 or tau2 < 0:
        raise ValueError("payload count out of range")
    flat = []
    for z in range(k, T.dims[2]):
        g = slice_matrix(T, 3, z)
        if matrix_rank(g) != 1:
            raise ValueError(f"gadget slice {z} must have rank one")
        flat.append([v for row in g.raw_grid for v in row])
    if flat and rank_raw(flat, ring) != tau2:
        raise ValueError("gadget slices are linearly dependent")

    lhs = tensor_rank_bruteforce(T, budget)
    if not lhs.exhausted:
        raise BudgetExceededError("rank search on the full tensor did not finish")
    if tau2 == 0:
        return True
    total = p ** (k * tau2)
    if total > budget.max_candidates:
        raise BudgetExceededError(
            f"{p}^{k * tau2} coefficient matrices exceed the budget {budget.max_candidates}"
        )
    best = None
    for values in product(range(p), repeat=k * tau2):
        lam = DenseMatrix._from_raw(ring, [values[i * tau2 : (i + 1) * tau2] for i in range(k)])
        reduced = tensor_rank_bruteforce(slice_reduce(T, k, lam), budget)
        if not reduced.exhausted:
            raise BudgetExceededError("rank search on a reduced tensor did not finish")
        if best is None or reduced.value < best:
            best = reduced.value
            if best == 0:
                break
    return lhs.value == tau2 + best
