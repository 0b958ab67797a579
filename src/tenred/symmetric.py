"""Symmetric tensors, the cubic Waring gadget, and symmetrized witnesses.

A cubical order-3 tensor T embeds into a symmetric tensor S(T) on the
disjoint union H of three copies of its index set.  Padding S(T) with one
unit slice per unordered index pair gives a tensor whose symmetric rank
exceeds the rank of T by exactly 4.5(n^2+n); the constructions here build
that padded tensor and produce matching symmetric decompositions.  A
cube term is a raw pair (s, v): s a canonical nonzero value, v a map
{index: canonical nonzero value}; the Waring gadget is solved on raw
values too, and no correction tensor is made per pair.  The certificate is
one exact sum of the finished witness against the padded tensor, the
symmetric verdict of ``certify``, which ``tenred witness`` runs on what it
built and ``tenred verify`` on what it read.  symmetric_witness returns its
terms unchecked: neither the pieces it assembles nor the tensor
decomposition handed in are summed on their own, and it refuses only a
residual its padding cannot close.  The builders that are entry points of
their own (waring_gadget, whose 2-dimensional result is cached and shared,
build_L_pi and symmetric_upper_witness) still check what they return.  All
sums go through one raw-value kernel, sum_sym_decomposition_raw, fed the
terms as they come, into one map keyed by a packed int and made canonical
once, at the end; every check compares it with the expected entries
through ``tensors.first_mismatch``.  symmetric_witness builds no tensor:
it takes the padded tensor a symmetric instance already holds, and what
the payload's cubes leave of it, unpacked, is the working map that the
padding terms of _upper_terms close.

Symmetric tensors are stored on canonical index triples i <= j <= k, so
storage itself enforces symmetry; the reader of a symtensor file refuses
conflicting permuted entries, never overwriting one silently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations
from typing import Iterable, Iterator

from .errors import FieldTooSmallError, RingMismatchError, StructureError, VerificationError
from .rings import RingDescriptor
from .tensors import Decomposition, Tensor3, first_mismatch

LETTERS = ("I", "J", "K")

Key = tuple[int, int, int]


@dataclass(frozen=True)
class PairIndex:
    """An unordered position pair (p, q), p <= q, within one letter block."""

    letter: str
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.letter not in LETTERS:
            raise ValueError(f"letter must be one of {LETTERS}")
        if not 1 <= self.p <= self.q:
            raise ValueError("need 1 <= p <= q")

    @property
    def name(self) -> str:
        return f"pair_{self.letter}_{self.p}_{self.q}"

    @property
    def is_strict(self) -> bool:
        return self.p < self.q


def letter_offset(letter: str, n: int) -> int:
    return LETTERS.index(letter) * n


def block_names(n: int) -> tuple[str, ...]:
    """Names i1..in, j1..jn, k1..kn for the three copies of an index set."""
    return tuple(f"{letter.lower()}{t}" for letter in LETTERS for t in range(1, n + 1))


def pair_indices(n: int) -> tuple[PairIndex, ...]:
    return tuple(
        PairIndex(letter, p, q)
        for letter in LETTERS
        for p in range(1, n + 1)
        for q in range(p, n + 1)
    )


@lru_cache(maxsize=8)
def padded_names(n: int) -> tuple[str, ...]:
    # cached: each padded tensor and each pair correction names them again
    return block_names(n) + tuple(pi.name for pi in pair_indices(n))


def _pair_position(pi: PairIndex, n: int) -> int:
    """Padded index of a pair: 3n plus its rank in pair_indices(n) order."""
    before = (pi.p - 1) * n - (pi.p - 1) * (pi.p - 2) // 2
    return 3 * n + LETTERS.index(pi.letter) * (n * (n + 1) // 2) + before + pi.q - pi.p


def padded_size(n: int) -> int:
    return 3 * n + 3 * n * (n + 1) // 2


def padding_terms(n: int) -> int:
    """Terms the unit-slice padding of a size-n payload adds: 4.5(n^2+n)."""
    return 9 * n * (n - 1) // 2 + 9 * n


class SymTensor:
    """An immutable symmetric order-3 tensor, sparse on canonical triples:
    ``entries`` maps i <= j <= k below ``size`` to a canonical nonzero raw
    value, as the constructor trusts it to, and ``index_names`` is a tuple
    of distinct names."""

    __slots__ = ("ring", "index_names", "entries")

    def __init__(self, ring: RingDescriptor, index_names: tuple[str, ...], entries: dict[Key, object]):
        self.ring = ring
        self.index_names = index_names
        self.entries = entries

    @property
    def size(self) -> int:
        return len(self.index_names)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymTensor)
            and self.ring == other.ring
            and self.index_names == other.index_names
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SymTensor({self.ring}, {self.size} indices, nnz={self.nnz})"


class SymDecomposition:
    """An ordered list of cube terms s * v (x) v (x) v of uniform dimension,
    held in ``raw`` as (s, v) pairs: s a canonical nonzero value, v a map
    {index: canonical nonzero value} within dim.  The input is trusted: a
    file's terms are refused, if at all, by their reader."""

    __slots__ = ("ring", "dim", "raw")

    def __init__(self, ring: RingDescriptor, dim: int, raw: list):
        self.ring, self.dim, self.raw = ring, dim, raw

    def __len__(self) -> int:
        return len(self.raw)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymDecomposition)
            and self.ring == other.ring
            and self.dim == other.dim
            and self.raw == other.raw
        )

    def __repr__(self) -> str:
        return f"SymDecomposition({self.ring}, dim={self.dim}, {len(self)} terms)"


# Placements of e factors d among three, the others u: the ordered tensors
# that carry a^e in the expansion of (u + a*d)^3.
_PLACEMENTS = tuple(
    tuple(sorted(set(permutations((0,) * (3 - e) + (1,) * e)))) for e in range(4)
)


def _collinear_run(first: tuple, rest: Iterator[tuple], ring: RingDescriptor):
    """The longest run of cubes s_k (u + a_k d)^3 on one support from the
    term ``first`` on, the later terms taken from ``rest`` as needed.

    With d = v_2 - v_1 and the pivot p = min supp(d), u = v_1 -
    (v_1[p]/d[p]) d and a_k = v_k[p]/d[p], all exact; a term joins only
    if it has the support of v_1 and v_k = u + a_k d, true by construction
    of v_1 and v_2 = v_1 + d, so only later terms are compared entrywise.
    Returns (the term after the run or None, u, d, mu), mu_e = sum of
    s_k a_k^e reduced; where terms 1 and 2 start no run (other supports,
    equal vectors, over Z a pivot not 1 or -1) it is term 1 alone, d = 0.
    """
    second = next(rest, None)
    s, v1 = first
    lone = second, v1, {}, [s, 0, 0, 0]
    if second is None or second[1].keys() != v1.keys():
        return lone
    v2, support = second[1], v1.keys()
    canon, canon_map = ring.canon, ring.canon_map
    d = canon_map({x: v2[x] - v for x, v in v1.items()})
    if not d:
        return lone
    p = min(d)
    if not ring.is_field and d[p] not in (1, -1):
        return lone
    inv = ring.inverse(d[p]) if ring.is_field else d[p]
    a1 = canon(v1[p] * inv)
    u = canon_map({x: v - a1 * d.get(x, 0) for x, v in v1.items()})
    mu = [0, 0, 0, 0]
    for k, term in enumerate(chain((first, second), rest)):
        w, v = term
        if v.keys() != support:
            break
        a = canon(v[p] * inv)
        if k > 1 and canon_map({x: u.get(x, 0) + a * d.get(x, 0) for x in v}) != v:
            break
        for e in range(4):
            mu[e] += w
            w *= a
    else:
        term = None
    return term, u, d, [canon(m) for m in mu]


def _add_product(acc: dict[int, object], c, A, B, C, size: int) -> None:
    """Add c * A (x) B (x) C on its nondecreasing index triples.

    A, B and C are sorted (index, value) lists.  The partial products are
    hoisted out of the inner loop, and a triple x <= y <= z accumulates,
    unreduced, under the flat key (x*size + y)*size + z.
    """
    area = size * size
    get = acc.get
    b_at = [y for y, _ in B]
    c_at = [z for z, _ in C]
    for x, ax in A:
        cx = c * ax
        kx = x * area
        for y, by in B[bisect_left(b_at, x):]:
            cxy = cx * by
            kxy = kx + y * size
            for z, cz in C[bisect_left(c_at, y):]:
                key = kxy + z
                acc[key] = get(key, 0) + cxy * cz


def sum_sym_decomposition_raw(terms: Iterable[tuple], dim: int, ring: RingDescriptor) -> dict[int, object]:
    """Exact sum of cube terms, raw (s, v) pairs walked once in order, on
    the nondecreasing triples x <= y <= z below ``dim``.

    The one summation kernel behind every exact check here.  Each run of
    consecutive cubes s_k (u + a_k d)^3 that _collinear_run finds (the
    three terms of a Waring gadget are one; a lone term is a run with d =
    0) is summed as mu_0 u^3 + mu_1 Sym(u,u,d) + mu_2 Sym(u,d,d) + mu_3
    d^3, mu_e = sum_k s_k a_k^e, skipping zero moments.  It holds one
    run's sums and one term of lookahead, so a reader may feed it terms as
    it reads them.  The sum is keyed by the int (x*dim + y)*dim + z and
    made canonical once, at the end, its zeros dropped: only canonical
    nonzero values are returned, as ``tensors.sum_terms_raw`` returns them.
    """
    acc: dict[int, object] = {}
    terms = iter(terms)
    term = next(terms, None)
    while term is not None:
        term, u, d, mu = _collinear_run(term, terms, ring)
        factors = (sorted(u.items()), sorted(d.items()))
        for e in range(4):
            if mu[e]:
                for placement in _PLACEMENTS[e]:
                    _add_product(acc, mu[e], *(factors[f] for f in placement), dim)
    return ring.canon_map(acc)


def verify_symmetric_decomposition(T: SymTensor, D: SymDecomposition):
    """Exact check that the cube terms sum to T; returns (ok, mismatch), the
    mismatch (key, expected, actual) at the smallest key where they differ,
    as ``tensors.first_mismatch`` finds it in the one packed sum."""
    if D.ring != T.ring:
        raise RingMismatchError("decomposition ring differs from tensor ring")
    if D.dim != T.size:
        raise ValueError(f"decomposition dimension {D.dim} != tensor size {T.size}")
    return first_mismatch(T.entries.items(), sum_sym_decomposition_raw(D.raw, D.dim, D.ring), (D.dim,) * 3)


def embed_S(T: Tensor3) -> SymTensor:
    """Symmetrize a cubical tensor onto three disjoint index copies.

    S takes the value T(a|b|c) on every permutation of (i_a, j_b, k_c) and
    is zero elsewhere; in particular any two indices from the same copy
    give zero.
    """
    n = T.dims[0]
    if T.dims != (n, n, n):
        raise ValueError(f"embedding needs a cubical tensor, got {T.dims}")
    raw = {(a, n + b, 2 * n + c): v for (a, b, c), v in T.entries.items()}
    return SymTensor(T.ring, block_names(n), raw)


def build_curly_T(S: SymTensor, n: int) -> SymTensor:
    """Adjoin one pair-unit slice per unordered index pair.

    Entries among the first 3n indices copy S; an entry with exactly one
    pair index (alpha_p, alpha_q) and both other indices in {alpha_p,
    alpha_q} is 1; everything else is 0.
    """
    if S.size != 3 * n:
        raise ValueError(f"tensor has {S.size} indices, expected {3 * n}")
    raw = dict(S.entries)
    one_raw = S.ring.canon(1)
    pos = 3 * n
    for pi in pair_indices(n):
        off = letter_offset(pi.letter, n)
        ap, aq = off + pi.p - 1, off + pi.q - 1
        raw[(ap, ap, pos)] = one_raw
        raw[(ap, aq, pos)] = one_raw
        raw[(aq, aq, pos)] = one_raw
        pos += 1
    return SymTensor(S.ring, S.index_names + padded_names(n)[3 * n:], raw)


def require_big_field(ring: RingDescriptor) -> None:
    if not ring.is_field:
        raise ValueError(f"cube decompositions are built over fields, not {ring}")
    size = ring.field_size
    if size is not None and size < 9:
        raise FieldTooSmallError(
            f"field of size {size} is too small (need at least 9 elements)"
        )


def pair_target(ring: RingDescriptor, a) -> SymTensor:
    """The 2x2x2 symmetric target of a canonical raw value a: a at (0,0,0),
    ones at permutations of (0,0,1)."""
    raw = {(0, 0, 1): ring.canon(1)}
    if a:
        raw[(0, 0, 0)] = a
    return SymTensor(ring, ("v1", "v2"), raw)


def _q_candidates(ring: RingDescriptor):
    size = ring.field_size
    # over Q any prefix of 2, 3, 4, ... contains a workable q; the cap
    # only bounds the search when the caller feeds degenerate input
    return map(ring.canon, range(2, 102) if size is None else range(size))


def _solve_nodes(ring: RingDescriptor, a, q):
    """Coefficients for nodes (q/(-1-q+qa), q, 1), or None if degenerate.

    The three leading power sums pin the coefficients.  The nodes being
    distinct, the Vandermonde solve has one solution, in Lagrange form
    s_t = (a r_u r_v - (r_u + r_v)) / ((r_t - r_u)(r_t - r_v)) for
    {t, u, v} = {1, 2, 3}.  The cubic power sum is then a consistency
    condition on the node choice, not an equation, so it is checked and
    the candidate rejected on failure; so is a zero coefficient.  Solving
    instead of evaluating printed formulas sidesteps a sign error in one of
    them (see README).
    """
    canon, inverse = ring.canon, ring.inverse
    den = canon(q * a - q - 1)
    if not den:
        return None
    nodes = r1, r2, r3 = canon(q * inverse(den)), q, canon(1)
    if r1 == r2 or r1 == r3 or r2 == r3:
        return None
    s = tuple(
        canon((a * ru * rv - ru - rv) * inverse(canon((rt - ru) * (rt - rv))))
        for rt, ru, rv in ((r1, r2, r3), (r2, r3, r1), (r3, r1, r2))
    )
    if not all(s) or canon(sum(c * r**3 for c, r in zip(s, nodes))):
        return None
    return s, nodes


@lru_cache(maxsize=1024)
def waring_gadget(ring: RingDescriptor, a) -> SymDecomposition:
    """Three cube terms s_t (e_1 + r_t e_2)^3 summing exactly to the pair
    target of a canonical raw value a.

    Searches interpolation parameters in a fixed ascending order, solves
    the moment system exactly, and verifies the sum entrywise before
    returning, so the result is deterministic and certified.  The a=1
    target is handled by rescaling the first coordinate, which moves the
    problem to a different cube value and back.  Results are cached by
    (ring, a), so each distinct gadget is solved and checked once per
    process; callers share the result and must not change it.
    """
    require_big_field(ring)
    canon, one_raw = ring.canon, ring.canon(1)
    if a == 1:
        for c in map(canon, range(2, 102)):
            if c in (0, 1):  # only over GF(p): over Q, c is 2..101
                continue
            try:
                inner = waring_gadget(ring, c)
            except StructureError:
                continue
            cinv = ring.inverse(c)
            raw = [(canon(s * cinv), {0: one_raw, 1: canon(c * v[1])}) for s, v in inner.raw]
            break
        else:
            raise StructureError("no usable rescaling constant found")
    else:
        solved = next(filter(None, (_solve_nodes(ring, a, q) for q in _q_candidates(ring))), None)
        if solved is None:
            raise StructureError("no interpolation parameter works; field too degenerate")
        # the nodes are nonzero: r_1 = q/den and r_2 = q, and q = 0 makes them equal
        raw = [(s, {0: one_raw, 1: r}) for s, r in zip(*solved)]
    D = SymDecomposition(ring, 2, raw)
    ok, mismatch = verify_symmetric_decomposition(pair_target(ring, a), D)
    if not ok:
        raise StructureError(f"gadget sum disagrees with target at {mismatch[0]}")
    return D


def sym_pair_decompose(ring: RingDescriptor, u: dict, w: dict, a) -> list:
    """Cube terms (s, v) in span{u, w} summing to a*u^3 + u^2 w symmetrized.

    u and w are raw maps and a a canonical raw value.  The target is
    a * u(x)u(x)u + u(x)u(x)w + u(x)w(x)u + w(x)u(x)u.  For w = 0 this
    degenerates to a single cube (or nothing); otherwise u and w must be
    linearly independent and the 2x2x2 gadget is transported along
    e1 -> u, e2 -> w.
    """
    if not w:
        return [(a, u)] if a and u else []
    if not u:
        raise ValueError("u and w are linearly dependent (u = 0)")
    canon_map = ring.canon_map
    pivot = min(u)
    k = w.get(pivot, 0) * ring.inverse(u[pivot])
    if canon_map({i: k * v for i, v in u.items()}) == w:
        raise ValueError("u and w are linearly dependent")
    terms = []
    for s, v in waring_gadget(ring, a).raw:
        r = v[1]
        out = dict(u)
        for i, x in w.items():
            out[i] = out.get(i, 0) + r * x
        terms.append((s, canon_map(out)))
    return terms


def check_mixed_block_zero(U: SymTensor, n: int) -> None:
    """Require U to vanish whenever its three indices span all three letters."""
    if U.size != 3 * n:
        raise ValueError(f"tensor has {U.size} indices, expected {3 * n}")
    for (x, y, z) in U.entries:
        if {x // n, y // n, z // n} == {0, 1, 2}:
            raise ValueError(
                f"nonzero entry at {(x, y, z)} spans all three index copies"
            )


def build_L_pi(U: SymTensor, pi: PairIndex):
    """One pair's correction tensor and its 3-term cube decomposition.

    The tensor lives on the padded index set.  With u the indicator of
    the pair's two positions and w the vector holding the pair's slice
    values (other-letter positions always, same-letter positions beyond q,
    and 1 at the pair's own padded position), the correction equals the
    symmetrization of u (x) u (x) w.  The rule-by-rule tensor and the
    decomposition are built independently; U is checked for mixed-block
    entries and the two are checked against each other.
    """
    if not pi.is_strict:
        raise ValueError("corrections are built for strict pairs only")
    n = U.size // 3
    check_mixed_block_zero(U, n)
    if pi.q > n:
        raise ValueError(f"pair {pi} outside 1..{n}")
    ring = U.ring
    names = padded_names(n)
    off = letter_offset(pi.letter, n)
    ap, aq = off + pi.p - 1, off + pi.q - 1
    size = len(names)

    one_raw = ring.canon(1)
    w_nz: dict[int, object] = {_pair_position(pi, n): one_raw}
    for letter in LETTERS:
        boff = letter_offset(letter, n)
        start = pi.q + 1 if letter == pi.letter else 1
        for z in range(boff + start - 1, boff + n):
            val = U.entries.get(tuple(sorted((ap, aq, z))))
            if val is not None:
                w_nz[z] = val

    # w_z at each sorted (r, s, z), r and s in the pair; z is neither
    raw = {tuple(sorted((r, s_, z))): val for r in (ap, aq) for s_ in (ap, aq) for z, val in w_nz.items()}
    tensor = SymTensor(ring, names, raw)

    u = {ap: one_raw, aq: one_raw}
    deco = SymDecomposition(ring, size, sym_pair_decompose(ring, u, w_nz, ring.canon(0)))
    ok, mismatch = verify_symmetric_decomposition(tensor, deco)
    if not ok:
        raise StructureError(f"pair correction decomposition fails at {mismatch[0]}")
    return tensor, deco


def _upper_terms(phi: dict[Key, object], n: int, ring: RingDescriptor) -> SymDecomposition:
    """The body of symmetric_upper_witness, without its final exact check.

    ``phi`` is the working map, which is consumed: a padded tensor on
    sorted triples less what other terms already cover, the residual U on
    the first 3n indices plus the pair units.  An entry of U on three
    distinct indices lies in the slice w of one strict pair (ap, aq): the
    two that share a letter, the lowest two if all three do.  With 1 at
    the pair's padded position added to w and u = e_ap + e_aq, the pair
    takes the a = 0 gadget's cubes s_t (u + r_t w)^3, whose sum w_z at
    (ap, ap, z), (ap, aq, z) and (aq, aq, z) comes off the working map.
    The residual must lie on repeated first-block indices (asserted, never
    patched) and splits into per-index pieces.  U is not scanned for
    entries spanning all three letters: such an entry lies in no pair's
    slice, so it stays on the working map and the residual assertion
    refuses it.  symmetric_witness uses this directly, as the verdict
    checks the larger sum these terms are part of.
    """
    require_big_field(ring)
    slices: dict[tuple[int, int], dict[int, object]] = {}
    for (x, y, z), v in phi.items():
        if x == y or y == z or z >= 3 * n:  # z >= 3n: a pair unit, in no slice of U
            continue
        if x // n == y // n:
            pair, other = (x, y), z
        elif y // n == z // n:
            pair, other = (y, z), x
        else:  # no entry spans three letters
            pair, other = (x, z), y
        slices.setdefault(pair, {})[other] = v

    # the gadget's nodes r_t are nonzero, so r_t w keeps the support of w
    gadget = [(s, v[1]) for s, v in waring_gadget(ring, ring.canon(0)).raw]
    one_raw = ring.canon(1)
    raw: list = []
    pos = 3 * n - 1
    for off in range(0, 3 * n, n):
        for ap in range(off, off + n):
            pos += 1  # the pair (ap, ap) takes no cubes
            for aq in range(ap + 1, off + n):
                pos += 1
                w = {pos: one_raw, **slices.get((ap, aq), {})}
                sides = (ap, ap), (ap, aq), (aq, aq)
                for z, v in w.items():  # z < ap or z > aq: same-letter slices lie beyond aq
                    for b, c in sides:
                        key = (z, b, c) if z < ap else (b, c, z)
                        phi[key] = phi.get(key, 0) - v
                for s, r in gadget:
                    raw.append((s, {ap: one_raw, aq: one_raw, **ring.canon_map({z: r * v for z, v in w.items()})}))

    # pieces[u] holds a at u and m elsewhere, for a u^3 + Sym(u, u, m)
    pieces: dict[int, dict[int, object]] = {}
    for (x, y, z), v in ring.canon_map(phi).items():
        if x != y != z:
            raise StructureError(f"residual entry at pairwise distinct indices {(x, y, z)}")
        u_idx, other = (y, x) if y == z else (x, z)
        if u_idx >= 3 * n:
            raise StructureError(f"residual entry {(x, y, z)} repeats a padded index")
        pieces.setdefault(u_idx, {})[other] = v
    for u_idx, m in sorted(pieces.items()):
        a = m.pop(u_idx, ring.canon(0))
        raw.extend(sym_pair_decompose(ring, {u_idx: one_raw}, m, a))

    bound = padding_terms(n)
    if len(raw) > bound:
        raise StructureError(f"{len(raw)} terms exceed the bound {bound}")
    return SymDecomposition(ring, padded_size(n), raw)


def symmetric_upper_witness(U: SymTensor, n: int) -> SymDecomposition:
    """Decomposition of the padded tensor of U with at most 4.5(n^2+n) terms,
    those of _upper_terms, checked exactly against the padded tensor; U
    must vanish on index triples that span all three letters."""
    check_mixed_block_zero(U, n)
    padded = build_curly_T(U, n)
    deco = _upper_terms(dict(padded.entries), n, U.ring)
    ok, mismatch = verify_symmetric_decomposition(padded, deco)
    if not ok:
        raise StructureError(f"padded witness fails at {mismatch[0]}")
    return deco


def symmetric_witness(padded: SymTensor, D: Decomposition) -> SymDecomposition:
    """Symmetric decomposition of a padded tensor, the padded
    symmetrization of a tensor T that D decomposes.

    The payload size n is D's largest dimension: T is zero-padded to a
    cube, which leaves every term of D as it is.  Each rank-1 term of D
    becomes one cube on the concatenated index blocks.  The padded tensor
    minus those cubes is T - sum D at each mixed-block position (a, n+b,
    2n+c), where no padding term reaches, so a nonzero value there is
    refused; the rest of it is the working map that _upper_terms closes.
    The term count is exactly len(D) plus the padding witness size.
    Nothing else is checked; the symmetric verdict of ``certify`` decides
    whether the terms sum to the padded tensor.
    """
    n = max(D.dims)
    size = padded_size(n)
    if padded.size != size:
        raise ValueError(f"a payload of size {n} pads to {size} indices, the tensor has {padded.size}")
    require_big_field(padded.ring)
    if D.ring != padded.ring:
        raise RingMismatchError("decomposition ring differs from tensor ring")
    ring = padded.ring
    one_raw = ring.canon(1)
    raw: list = []
    for a, b, c in D.raw:
        nz = dict(a)
        nz.update((n + j, v) for j, v in b.items())
        nz.update((2 * n + k, v) for k, v in c.items())
        if nz:
            raw.append((one_raw, nz))

    # the cubes minus the padded tensor, packed; the working map is its negation, unpacked
    acc = sum_sym_decomposition_raw(raw, size, ring)
    for (x, y, z), v in padded.entries.items():
        key = (x * size + y) * size + z
        acc[key] = acc.get(key, 0) - v
    canon, area = ring.canon, size * size
    phi = {(key // area, key // size % size, key % size): r for key, v in acc.items() if (r := canon(-v))}
    del acc
    mixed = [key for key in phi if key[0] < n <= key[1] < 2 * n <= key[2]]
    if mixed:
        x, y, z = min(mixed)
        raise VerificationError(f"decomposition does not sum to the tensor at {(x, y - n, z - 2 * n)}")

    raw.extend(_upper_terms(phi, n, ring).raw)
    return SymDecomposition(ring, size, raw)
