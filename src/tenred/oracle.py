"""Brute-force exact reference algorithms over prime fields.

These are the ground truth the constructions are tested against: full
enumeration of polynomial-system solutions, star assignments, and rank-1
candidate terms, with every returned witness re-verified exactly.  Nothing
here is heuristic; a result either comes from an exhausted search (and is
therefore minimal) or is explicitly flagged as not exhausted.

Candidate rank-1 factors are enumerated projectively: the first nonzero
coordinate of a vector is normalized to 1, which removes scalar redundancy
without losing any decomposition.  All three decomposition searches run
one subset walk, ``_least_subset``, in a fixed lexicographic order, so the
returned witness is the least one and independent of any execution
schedule; candidate directions are counted, never listed, before the
budget admits them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Callable, Sequence

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

    The decomposition searches walk candidate subsets by size, up to
    max_rank terms.  Before a level runs, its subset count, added to the
    levels before it, is checked against max_candidates; max_seconds, a
    soft wall-clock cap, is checked every 1,024 subsets.  A search that
    either stops reports exhausted=False with the size it reached as
    lower_bound; where a deadline cuts may vary run to run, unlike the
    candidate cap.  The solution and completion searches, and the
    restricted symmetric search, count their whole search up front and
    raise BudgetExceededError (exit 5) when it exceeds max_candidates.
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


def _direction_count(p: int, n: int, cap: int) -> int:
    """(p^n - 1)/(p - 1), the number of directions in GF(p)^n, or cap + 1 if larger."""
    n = min(n, cap.bit_length() + 1)  # beyond that the count exceeds 2^(n-1) > cap
    return min((p**n - 1) // (p - 1), cap + 1)


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


def _raw_vec(ring: RingDescriptor, n: int, values: Sequence[int]) -> Vec:
    return Vec._from_raw(ring, n, {i: v for i, v in enumerate(values) if v})


def _rref_solve(p: int, rows: list[list[int]], ncols_a: int, ncols_b: int):
    """Solve A X = B over GF(p) from the augmented rows [A | B], whose
    entries lie in [0, p), as every row operation keeps them.

    Returns the canonical solution with zero rows at non-pivot columns,
    or None when the system is inconsistent.  Mutates `rows`.
    """
    m = len(rows)
    pivots: list[tuple[int, int]] = []
    rr = 0
    for col in range(ncols_a):
        sel = None
        for i in range(rr, m):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[rr], rows[sel] = rows[sel], rows[rr]
        inv = pow(rows[rr][col], p - 2, p)
        lead = rows[rr] = [x * inv % p for x in rows[rr]]
        for i in range(m):
            f = rows[i][col]
            if f and i != rr:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], lead)]
        pivots.append((rr, col))
        rr += 1
    if any(any(row[ncols_a:]) for row in rows[rr:]):
        return None
    sol = [[0] * ncols_b for _ in range(ncols_a)]
    for row_idx, col in pivots:
        sol[col] = rows[row_idx][ncols_a:]
    return sol


def _least_subset(
    p: int, n: int, max_size: int, budget: SearchBudget, width: int, rows: Callable[[tuple], list[list[int]]]
):
    """The least subset of range(n), by size and then lexicographically,
    whose augmented rows ``rows(combo)`` = [A | B], B ``width`` wide, have
    a solution A X = B over GF(p): (r, combo, X), else (r, None, None) with
    r the size at which the search stopped, max_size + 1 once every level
    ran.  Each level's comb(n, r) subsets count against max_candidates
    before it runs; max_seconds is checked every 1,024 subsets.
    """
    deadline = None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
    spent = 0
    for r in range(1, max_size + 1):
        spent += comb(n, r)
        if spent > budget.max_candidates:
            return r, None, None
        for count, combo in enumerate(combinations(range(n), r)):
            if deadline is not None and count % 1024 == 0 and time.monotonic() > deadline:
                return r, None, None
            sol = _rref_solve(p, rows(combo), r, width)
            if sol is not None:
                return r, combo, sol
    return max_size + 1, None, None


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
    nb = _direction_count(p, n2, budget.max_candidates)
    n = _direction_count(p, n1, budget.max_candidates) * nb
    # only the slices T holds get a column of B
    column = {k: m for m, k in enumerate(sorted({k for _, _, k in T.entries}))}

    @cache
    def tables():
        # the direction lists and B, one row per (i, j), are built on
        # first use, once a level fits the budget
        unfold = [[0] * len(column) for _ in range(n1 * n2)]
        for (i, j, k), v in T.entries.items():
            unfold[i * n2 + j][column[k]] = v
        return projective_vectors(ring, n1), projective_vectors(ring, n2), unfold

    def rows(combo):
        da, db, unfold = tables()
        cols = [[x * y % p for x in da[t // nb] for y in db[t % nb]] for t in combo]
        return [[*col, *b] for col, b in zip(zip(*cols), unfold)]

    r, combo, sol = _least_subset(p, n, budget.max_rank, budget, len(column), rows)
    if combo is None:
        return OracleResult(None, None, False, r)
    da, db, _ = tables()
    terms = []
    for t, c_row in zip(combo, sol):
        c = Vec._from_raw(ring, n3, {k: v for k, v in zip(column, c_row) if v})
        terms.append(Rank1Term(_raw_vec(ring, n1, da[t // nb]), _raw_vec(ring, n2, db[t % nb]), c))
    D = Decomposition(ring, T.dims, terms)
    ok, mismatch = verify_decomposition(T, D)
    if not ok:
        raise StructureError(f"solver produced a bad witness at {mismatch[0]}")
    return OracleResult(r, D, True, r)


def _cube_search(T: SymTensor, keys: list, n: int, directions, max_size: int, budget: SearchBudget):
    """(r, D): the least decomposition D of T into r cubes s * d^3 over n
    candidate directions, with one equation per canonical key (x, y, z).
    ``directions()`` lists the raw coordinates of the candidates; it is
    first called once a level fits the budget.  D is None when the search
    stopped at size r."""
    ring, size, p = T.ring, T.size, T.ring.modulus
    rhs = [[T.entries.get(key, 0)] for key in keys]
    columns = cache(lambda: [[d[x] * d[y] * d[z] % p for x, y, z in keys] for d in directions()])

    def rows(combo):
        cols = columns()
        return [[*col, *b] for col, b in zip(zip(*[cols[t] for t in combo]), rhs)]

    r, combo, sol = _least_subset(p, n, max_size, budget, 1, rows)
    if combo is None:
        return r, None
    terms = [SymTerm(Scalar(ring, s), _raw_vec(ring, size, directions()[t])) for t, (s,) in zip(combo, sol)]
    D = SymDecomposition(ring, size, terms)
    ok, mismatch = verify_symmetric_decomposition(T, D)
    if not ok:
        raise StructureError(f"solver produced a bad witness at {mismatch[0]}")
    return r, D


def symmetric_rank_bruteforce(T: SymTensor, budget: SearchBudget | None = None) -> OracleResult:
    """Exact symmetric rank on tiny index sets by subset enumeration.

    Directions are projective; coefficients are recovered by a linear
    solve over all canonical entry equations.  Index sets too large for
    even the pair level are rejected up front as out of budget.
    """
    budget = budget or SearchBudget()
    _require_prime_field(T.ring, "symmetric rank search")
    ring = T.ring
    size = T.size
    if T.is_zero:
        return OracleResult(0, SymDecomposition(ring, size, []), True, 0)
    # documented budget: exhaustive triples need <= 2 indices, pairs <= 3
    cap = min(3 if size <= 2 else 2 if size == 3 else 0, budget.max_rank)
    if cap == 0:
        raise BudgetExceededError(f"{size} indices is beyond the exhaustive symmetric search budget")
    keys = list(combinations_with_replacement(range(size), 3))
    n = _direction_count(ring.modulus, size, budget.max_candidates)
    r, D = _cube_search(T, keys, n, cache(lambda: projective_vectors(ring, size)), cap, budget)
    return OracleResult(None if D is None else r, D, D is not None, r)


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
    decided, never sampled.  The whole search is counted against
    max_candidates up front.
    """
    budget = budget or SearchBudget()
    _require_prime_field(T.ring, "restricted symmetric search")
    ring = T.ring
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
    cand_raw = [tuple(v.nz.get(i, 0) for i in range(size)) for v in candidates]
    key_set = set(T.entries)
    for v in candidates:
        key_set.update(combinations_with_replacement(sorted(v.nz), 3))
    r, D = _cube_search(T, sorted(key_set), len(candidates), lambda: cand_raw, max_terms, budget)
    return OracleResult(None if D is None else r, D, D is not None or r > max_terms, r)


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
