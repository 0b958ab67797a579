"""Subexpression closure sets and the rank-3 completion gadget.

The reduction from polynomial solvability to low-rank matrix completion
works over a closure set sigma(F) of subexpressions of the system F:
prefix products of each monomial, prefix sums of each polynomial, the
variables, and all constants involved, closed under negation.  Triples of
closure elements with a +-1 coordinate index an incomplete matrix B(F)
whose rank-3 completions correspond exactly to solutions of F.  A
solution over the field a witness lives in induces one such completion,
completion_witness(B, point), with B taken into that field first.  The
label count is bounded by LABEL_GUARD unless the caller gives a bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import (
    GuardExceededError,
    RingMismatchError,
    StructureError,
    VerificationError,
)
from .linalg import DenseMatrix
from .polysys import Assignment, Exponents, Polynomial, PolySystem, prefix_sums, term_map_sum
from .rings import RATIONALS, RingDescriptor, ZZ

# the label count past which a reduction is refused, unless its caller
# gives another bound
LABEL_GUARD = 5000


def is_plus_minus_one(f: Polynomial) -> bool:
    if len(f.raw_terms) != 1 or f.raw_terms[0][0]:
        return False
    v = f.raw_terms[0][1]
    return v == 1 or f.ring.canon(-v) == 1


class SigmaSet:
    """Deduplicated, canonically ordered, negation-closed set of polynomials.

    Canonical order is the polynomial sort key (graded-lex on term
    sequences, coefficients breaking ties), so two runs over the same
    system produce identical element sequences.
    """

    __slots__ = ("ring", "num_vars", "elements", "_positions")

    def __init__(self, ring: RingDescriptor, num_vars: int, elements: Iterable[Polynomial]):
        dedup: dict[Polynomial, None] = {}
        for f in elements:
            if f.ring != ring:
                raise RingMismatchError("closure element over a different ring")
            if f.num_vars != num_vars:
                raise ValueError("closure element over a different variable count")
            dedup[f] = None
        ordered = sorted(dedup, key=Polynomial.sort_key)
        members = set(ordered)
        for f in ordered:
            if -f not in members:
                raise ValueError(f"set not closed under negation: missing -({f})")
        if not any(is_plus_minus_one(f) for f in ordered):
            raise ValueError("closure set must contain 1 and -1")
        self.ring = ring
        self.num_vars = num_vars
        self.elements = tuple(ordered)
        self._positions: dict[Polynomial, int] | None = None

    def position(self, f: Polynomial) -> int:
        if self._positions is None:
            self._positions = {e: i for i, e in enumerate(self.elements)}
        return self._positions[f]

    def __contains__(self, f: Polynomial) -> bool:
        if self._positions is None:
            self._positions = {e: i for i, e in enumerate(self.elements)}
        return f in self._positions

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SigmaSet)
            and self.ring == other.ring
            and self.num_vars == other.num_vars
            and self.elements == other.elements
        )

    def __repr__(self) -> str:
        return f"SigmaSet({self.ring}, n={self.num_vars}, {len(self.elements)} elements)"


def sigma_monomial(ring: RingDescriptor, num_vars: int, exponents: Exponents, c) -> SigmaSet:
    """Closure contribution of one monomial c * x^exponents, c a canonical
    nonzero raw value, as a term of ``Polynomial.raw_terms`` holds it.

    Contains +-1, the coefficient with both signs, every prefix product of
    the monomial's variables (with multiplicity, in variable order), and
    the monomial itself with both signs.
    """
    unit = Polynomial.constant(ring, num_vars, 1)
    out = {unit, Polynomial.constant(ring, num_vars, c)}
    prefix = unit
    for var, exp in exponents:
        x = Polynomial.variable(ring, num_vars, var)
        for _ in range(exp):
            prefix = prefix * x
            out.add(prefix)
    out.add(Polynomial(ring, num_vars, ((exponents, c),)))
    out.update([-f for f in out])
    return SigmaSet(ring, num_vars, out)


def sigma_system(F: PolySystem) -> SigmaSet:
    """Closure set of a whole system.

    Union over every polynomial of its monomial closures and signed prefix
    sums, together with the base 0, +-1, +-x_i.  The result always passes
    the reachability check: every non-base element is a sum or product of
    two set elements (this is what the solution-extraction argument
    chains on).
    """
    ring, n = F.ring, F.num_vars
    out: set[Polynomial] = {Polynomial.zero(ring, n)}
    unit = Polynomial.constant(ring, n, 1)
    out.update({unit, -unit})
    for i in range(n):
        x = Polynomial.variable(ring, n, i)
        out.update({x, -x})
    for f in F.polynomials:
        for exponents, c in f.raw_terms:
            out.update(sigma_monomial(ring, n, exponents, c).elements)
        for g in prefix_sums(f):
            out.add(g)
            out.add(-g)
    sigma = SigmaSet(ring, n, out)
    unreachable = verify_reachability(sigma)
    if unreachable:
        shown = ", ".join(str(f) for f in unreachable[:5])
        raise StructureError(
            f"{len(unreachable)} closure element(s) unreachable from the base: {shown}"
        )
    return sigma


def verify_reachability(sigma: SigmaSet) -> tuple[Polynomial, ...]:
    """Elements not derivable inside the set from constants and variables.

    Derivable means: in the base (constants, or +-x_i), or equal to a sum
    or product of two already-derivable elements of the set.  Returns the
    non-derivable elements (empty when the closure property holds).
    """

    def in_base(f: Polynomial) -> bool:  # a constant, or +-x_i
        return f.is_constant or (f.degree == 1 and len(f.raw_terms) == 1 and f.raw_terms[0][1] in units)

    units = (1, sigma.ring.canon(-1))
    members = set(sigma.elements)
    reached = {f for f in sigma.elements if in_base(f)}
    grew = True
    while grew:
        grew = False
        pool = list(reached)
        for idx, a in enumerate(pool):
            for b in pool[idx:]:
                for cand in (a + b, a * b):
                    if cand in members and cand not in reached:
                        reached.add(cand)
                        grew = True
    return tuple(f for f in sigma.elements if f not in reached)


@dataclass(frozen=True)
class Label:
    """A triple of closure elements with at least one +-1 coordinate."""

    coords: tuple[Polynomial, Polynomial, Polynomial]

    def __post_init__(self) -> None:
        if len(self.coords) != 3:
            raise ValueError("label needs exactly three coordinates")
        if not any(is_plus_minus_one(f) for f in self.coords):
            raise ValueError("label needs a constant +-1 coordinate")


def count_labels(sigma: SigmaSet) -> int:
    """|H| by inclusion-exclusion on 'no coordinate is +-1'.

    Equals m^3 - (m-2)^3 whenever 1 != -1 in the ring; over GF(2) the two
    units coincide and the subtracted cube shrinks accordingly.
    """
    m = len(sigma.elements)
    units = sum(1 for f in sigma.elements if is_plus_minus_one(f))
    return m**3 - (m - units) ** 3


def build_H(sigma: SigmaSet, guard: int | None = LABEL_GUARD) -> list[Label]:
    """All coordinate triples with a +-1 entry, in lexicographic closure order."""
    size = count_labels(sigma)
    if guard is not None and size > guard:
        raise GuardExceededError(size, guard, "label count")
    elems = sigma.elements
    pm = [is_plus_minus_one(f) for f in elems]
    labels = []
    for ia, a in enumerate(elems):
        for ib, b in enumerate(elems):
            ab = pm[ia] or pm[ib]
            for ic, c in enumerate(elems):
                if ab or pm[ic]:
                    labels.append(Label((a, b, c)))
    if len(labels) != size:
        raise StructureError(f"label count {len(labels)} != predicted {size}")
    return labels


@dataclass(frozen=True)
class SymbolicU:
    """3 x |H| matrix of polynomials; column u holds u's own coordinates."""

    labels: tuple[Label, ...]

    def evaluate(self, point: Assignment, ring: RingDescriptor) -> DenseMatrix:
        """Plug a point into every coordinate polynomial."""
        if not self.labels:
            raise ValueError("no labels")
        if point.ring != ring:
            raise RingMismatchError("point over a different ring")
        values = point.values
        at = {f: f.evaluate_raw(values) for f in {f for lab in self.labels for f in lab.coords}}
        return DenseMatrix(ring, [[at[lab.coords[axis]] for lab in self.labels] for axis in range(3)])


class IncompleteMatrix:
    """A matrix over a ring with unspecified (star) entries.

    Stars are represented as None and counted by ``tau``; ``stars()`` walks
    them in row-major order, the order downstream constructions enumerate
    them by, without storing them.
    Gadget matrices built from a system carry their labels and the system
    itself so solutions can be extracted later; pass-through matrices may
    omit both.
    """

    __slots__ = (
        "ring",
        "nrows",
        "ncols",
        "raw_grid",
        "tau",
        "row_labels",
        "system",
        "_label_pos",
    )

    def __init__(
        self,
        ring: RingDescriptor,
        raw_grid: Sequence[Sequence],
        row_labels: Sequence[Label] | None = None,
        system: PolySystem | None = None,
    ):
        grid = [tuple(r) for r in raw_grid]  # rows given as tuples are kept, not copied
        if not grid or not grid[0]:
            raise ValueError("matrix needs positive dimensions")
        ncols = len(grid[0])
        for row in grid:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        if row_labels is not None and len(row_labels) != len(grid):
            raise ValueError("row label count mismatch")
        self.ring = ring
        self.nrows = len(grid)
        self.ncols = ncols
        self.raw_grid = tuple(grid)
        # by identity: row.count(None) would call Fraction.__eq__ on every rational cell
        self.tau = sum(1 for row in grid for v in row if v is None)
        self.row_labels = tuple(row_labels) if row_labels is not None else None
        self.system = system
        self._label_pos = None

    def stars(self) -> Iterator[tuple[int, int]]:
        """The star cells (i, j) in row-major order, made as they are walked."""
        for i, row in enumerate(self.raw_grid):
            for j, v in enumerate(row):
                if v is None:
                    yield i, j

    def label_position(self, coords: tuple[Polynomial, Polynomial, Polynomial]) -> int:
        if self.row_labels is None:
            raise ValueError("matrix carries no labels")
        if self._label_pos is None:
            self._label_pos = {lab.coords: i for i, lab in enumerate(self.row_labels)}
        return self._label_pos[coords]

    def change_ring(self, ring: RingDescriptor) -> "IncompleteMatrix":
        """Embed an integer matrix into Q or GF(p); identity otherwise."""
        if ring == self.ring:
            return self
        if self.ring != ZZ:
            raise ValueError(f"no entry map from {self.ring} to {ring}")
        canon = ring.canon
        grid = [
            [None if cell is None else canon(cell) for cell in row] for row in self.raw_grid
        ]
        labels = None
        system = self.system.change_ring(ring) if self.system is not None else None
        if self.row_labels is not None:
            labels = [
                Label(tuple(f.change_ring(ring) for f in lab.coords)) for lab in self.row_labels
            ]
        return IncompleteMatrix(ring, grid, labels, system)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IncompleteMatrix)
            and self.ring == other.ring
            and self.raw_grid == other.raw_grid
            and self.row_labels == other.row_labels
        )

    def __repr__(self) -> str:
        return (
            f"IncompleteMatrix({self.ring}, {self.nrows}x{self.ncols}, "
            f"{self.tau} stars)"
        )


def build_B(F: PolySystem, guard: int | None = LABEL_GUARD, sigma: SigmaSet | None = None) -> IncompleteMatrix:
    """The incomplete gadget matrix of a system.

    Entry (u, v) is the coordinatewise dot product delta = u . v: a
    constant delta gives that constant, delta equal (in canonical form) to
    a member of F gives 0, anything else is a star.  Symmetric because
    delta is; the submatrix at the unit labels E is the identity.  A
    caller that already holds sigma_system(F) passes it as ``sigma``.
    """
    if sigma is None:
        sigma = sigma_system(F)
    labels = build_H(sigma, guard=guard)
    ring = F.ring
    elems = sigma.elements
    m = len(elems)
    # each distinct product of two elements gets an id k, written 4**k: a
    # cell depends only on the multiset of the ids of its three coordinate
    # products, and the sum of their weights is that multiset (2 bits, 0..3
    # copies, per id), so each multiset is classified once
    weights: dict[Polynomial, int] = {}
    product: dict[int, Polynomial] = {}
    pw = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            p = elems[i] * elems[j]
            w = weights.setdefault(p, 1 << 2 * len(weights))
            product[w] = p
            pw[i][j] = pw[j][i] = w
    members = {frozenset(f.raw_terms) for f in F.polynomials}
    zero_raw = ring.canon(0)

    def classify(*ws: int):
        delta = term_map_sum([product[w] for w in ws])
        if not delta:
            return zero_raw
        if () in delta and len(delta) == 1:
            return delta[()]
        return zero_raw if frozenset(delta.items()) in members else None

    coord_idx = [
        (sigma.position(lab.coords[0]), sigma.position(lab.coords[1]), sigma.position(lab.coords[2]))
        for lab in labels
    ]
    cells: dict[int, object] = {}
    n_lab = len(labels)
    grid: list = [[None] * n_lab for _ in range(n_lab)]
    for u in range(n_lab):
        au, bu, cu = coord_idx[u]
        pa, pb, pc = pw[au], pw[bu], pw[cu]
        row_u = grid[u]
        for v in range(u, n_lab):
            av, bv, cv = coord_idx[v]
            wa, wb, wc = pa[av], pb[bv], pc[cv]
            key = wa + wb + wc
            cell = cells[key] if key in cells else cells.setdefault(key, classify(wa, wb, wc))
            row_u[v] = cell
            grid[v][u] = cell
        # row u is complete: the rows below write only into their own lists
        grid[u] = tuple(row_u)
    B = IncompleteMatrix(ring, grid, labels, F)
    bad = unit_block_mismatch(B.raw_grid, B)
    if bad is not None:
        raise StructureError(f"unit-label submatrix broken at ({bad[0]},{bad[1]})")
    return B


def unit_label_positions(B: IncompleteMatrix) -> list[int]:
    """Positions of the unit labels E = (1,0,0), (0,1,0), (0,0,1) in B."""
    ring, num_vars = B.ring, B.system.num_vars
    unit = Polynomial.constant(ring, num_vars, 1)
    z = Polynomial.zero(ring, num_vars)
    try:
        return [
            B.label_position((unit, z, z)),
            B.label_position((z, unit, z)),
            B.label_position((z, z, unit)),
        ]
    except KeyError:
        raise StructureError("the labels lack a unit label") from None


def unit_block_mismatch(raw_rows, B: IncompleteMatrix) -> tuple[int, int] | None:
    """First cell where a raw |H| x |H| grid is not the identity at the unit
    labels, as B(F) always is; a completion that agrees with B is too."""
    e_cols = unit_label_positions(B)
    for a, i in enumerate(e_cols):
        for b, j in enumerate(e_cols):
            if raw_rows[i][j] != (1 if a == b else 0):
                return i, j
    return None


def completion_witness(B: IncompleteMatrix, point: Assignment) -> DenseMatrix:
    """Rank-at-most-3 completion of B induced by a solution of its system,
    both over the field the witness lives in.

    Evaluates the label coordinates at the point, once, and returns the
    Gram matrix W = U(point)^T U(point).  Rejects non-solutions up front,
    and checks nothing else: the completion verdict of ``certify`` compares
    W with every specified entry of B.  V = dU is integral for the lcm d of
    U's denominators (1 over GF(p)), so each cell of W = V^T V / d^2 is an
    integer dot product, and equal products share one value.
    """
    field = B.ring
    if len(point) != B.system.num_vars:
        raise ValueError("solution length does not match the variable count")
    bad = B.system.first_violation(point.values)
    if bad is not None:
        raise VerificationError(f"not a solution: {bad[0]} evaluates to {bad[1]}")
    u = SymbolicU(B.row_labels).evaluate(point, field).raw_grid
    d = lcm(*(v.denominator for row in u for v in row))
    r0, r1, r2 = ([v.numerator * (d // v.denominator) for v in row] for row in u)
    dd = d * d
    cell = (lambda g: Fraction(g, dd)) if field.kind == RATIONALS else field.canon
    n = B.ncols
    values: dict[int, object] = {}
    grid: list = [[None] * n for _ in range(n)]
    for i in range(n):
        a0, a1, a2 = r0[i], r1[i], r2[i]
        row = grid[i]
        for j in range(i, n):
            g = a0 * r0[j] + a1 * r1[j] + a2 * r2[j]
            w = values.get(g)
            if w is None:
                w = values[g] = cell(g)
            row[j] = grid[j][i] = w
        grid[i] = tuple(row)  # complete, as in build_B
    return DenseMatrix(field, grid)

