"""Order-3 tensors, rank-1 decompositions, and the star-slice construction.

Tensors are stored sparsely (zero entries are absent).  The constructions
here are dense in at most one slice, while the auxiliary star slices are
matrix units, so sparse storage is what makes instance-scale objects
(hundreds of labels, tens of thousands of stars) fit in memory.  All
arithmetic is exact; verification means literal entrywise equality: an
exact sum of terms holds only canonical nonzero values, here and in
``symmetric``, and first_mismatch compares them as they are.  The
star-slice witness is made from a completion W alone, its factor U read
off W's rows at the unit labels.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .errors import RingMismatchError
from .linalg import DenseMatrix
from .rings import RingDescriptor, ZZ
from .sigma import IncompleteMatrix, unit_label_positions

Key = tuple[int, int, int]


class Tensor3:
    """An immutable order-3 tensor over one ring, sparse by entry: ``entries``
    maps (i, j, k) within ``dims`` to a canonical nonzero raw value, as the
    constructor trusts it to."""

    __slots__ = ("ring", "dims", "entries")

    def __init__(self, ring: RingDescriptor, dims: tuple[int, int, int], entries: dict[Key, object]):
        self.ring = ring
        self.dims = dims
        self.entries = entries

    @property
    def nnz(self) -> int:
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def items(self) -> Iterable[tuple[Key, object]]:
        return self.entries.items()

    def change_ring(self, ring: RingDescriptor) -> "Tensor3":
        """Embed an integer tensor into Q or GF(p); identity otherwise."""
        if ring == self.ring:
            return self
        if self.ring != ZZ:
            raise ValueError(f"no entry map from {self.ring} to {ring}")
        return Tensor3(ring, self.dims, ring.canon_map(self.entries))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor3)
            and self.ring == other.ring
            and self.dims == other.dims
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"Tensor3({self.ring}, dims={self.dims}, nnz={self.nnz})"


def slice_matrix(T: Tensor3, axis: int, index: int) -> DenseMatrix:
    """The matrix obtained by fixing one coordinate of the tensor."""
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2, or 3")
    if not 0 <= index < T.dims[axis - 1]:
        raise ValueError(f"index {index} outside axis of size {T.dims[axis - 1]}")
    keep = [d for a, d in enumerate(T.dims) if a != axis - 1]
    grid = [[0] * keep[1] for _ in range(keep[0])]
    for (i, j, k), v in T.entries.items():
        if axis == 1 and i == index:
            grid[j][k] = v
        elif axis == 2 and j == index:
            grid[i][k] = v
        elif axis == 3 and k == index:
            grid[i][j] = v
    return DenseMatrix(T.ring, grid)


class Decomposition:
    """An ordered list of rank-1 terms a (x) b (x) c of uniform shape, held
    in ``raw`` as (a, b, c) maps {index: canonical nonzero value} within
    dims, which terms may share; ``raw`` is a list, or a ``Walk`` that makes
    the maps each time it is walked.  The input is trusted: a file's terms
    are refused, if at all, by their reader."""

    __slots__ = ("ring", "dims", "raw")

    def __init__(self, ring: RingDescriptor, dims: tuple[int, int, int], raw):
        self.ring, self.dims, self.raw = ring, dims, raw

    def __len__(self) -> int:
        return len(self.raw)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Decomposition)
            and self.ring == other.ring
            and self.dims == other.dims
            and list(self.raw) == list(other.raw)
        )

    def __repr__(self) -> str:
        return f"Decomposition({self.ring}, dims={self.dims}, {len(self)} terms)"


class Walk:
    """A sized sequence whose items ``walk()``, a generator function, makes
    anew on each pass, so that they never all exist at once."""

    __slots__ = ("count", "walk")

    def __init__(self, count: int, walk: Callable[[], Iterator]):
        self.count, self.walk = count, walk

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator:
        return self.walk()


def sum_terms_raw(terms: Iterable[tuple], dims: tuple[int, int, int], ring: RingDescriptor) -> dict[int, object]:
    """Exact entrywise sum of rank-1 terms given as raw (a, b, c) value
    maps, walked once, in order.  It is keyed by the int (i*n2 + j)*n3 + k,
    which orders as the (i, j, k) triples do; each addition is made
    canonical by ``ring.canon``, and a key whose value becomes zero is
    dropped at once, so only canonical nonzero values are held."""
    _, n2, n3 = dims
    canon = ring.canon
    acc: dict[int, object] = {}
    get, pop = acc.get, acc.pop
    for a, b, c in terms:
        c_items = c.items()
        for i, va in a.items():
            row = i * n2
            for j, vb in b.items():
                vab = va * vb
                base = (row + j) * n3
                for k, vc in c_items:
                    key = base + k
                    if s := canon(get(key, 0) + vab * vc):
                        acc[key] = s
                    else:
                        pop(key, None)
    return acc


def verify_decomposition(T: "Tensor3 | DerksenInstance", D: Decomposition):
    """Exact check that the terms sum to T, whose entries are walked;
    returns (ok, first mismatch) as ``first_mismatch`` does."""
    if D.ring != T.ring:
        raise RingMismatchError("decomposition ring differs from tensor ring")
    if D.dims != T.dims:
        raise ValueError(f"decomposition shape {D.dims} != tensor shape {T.dims}")
    return first_mismatch(T.items(), sum_terms_raw(D.raw, D.dims, D.ring), D.dims)


def first_mismatch(want: Iterable[tuple[Key, object]], got: dict[int, object], dims: tuple[int, int, int]):
    """(ok, first mismatch) of expected (key, canonical value) pairs, in any
    order, against a packed sum of canonical nonzero values, as both exact
    sums make it, which each key is popped from.  The mismatch, when
    present, is ((i, j, k), expected, actual) at the smallest key where
    they disagree, an absent key reading as zero."""
    _, n2, n3 = dims
    pop = got.pop
    bad = None  # (key, expected, actual) of the smallest disagreement yet
    for (i, j, k), v in want:
        key = (i * n2 + j) * n3 + k
        s = pop(key, 0)
        if s != v and (bad is None or key < bad[0]):
            bad = key, v, s
    extra = min(got, default=None)  # the first value the terms put where nothing is expected
    if extra is not None and (bad is None or extra < bad[0]):
        bad = extra, 0, got[extra]
    if bad is None:
        return True, None
    key, v, s = bad
    return False, ((key // (n2 * n3), key // n3 % n2, key % n3), v, s)


class DerksenInstance:
    """Star-slice tensor of an incomplete matrix.

    Slice 0 is the matrix with stars replaced by zeros; slice t >= 1 is
    the matrix unit at the t-th star (row-major star order).  Rank tau+3
    is achievable exactly when the matrix admits a rank-3 completion.  The
    matrix fixes every entry, so none is stored: ``items()`` walks them.
    """

    __slots__ = ("source", "ring", "tau", "dims", "target_rank")

    def __init__(self, source: IncompleteMatrix):
        self.source, self.ring, self.tau = source, source.ring, source.tau
        self.dims = (source.nrows, source.ncols, source.tau + 1)
        self.target_rank = source.tau + 3

    @property
    def star_map(self) -> tuple[tuple[int, int], ...]:
        """The star of each slice t >= 1, in slice order."""
        return tuple(self.source.stars())

    def items(self) -> Iterator[tuple[Key, object]]:
        """The nonzero entries in key order, walked as ``stars()`` walks the
        stars: (i, j, 0) at a nonzero cell, (i, j, t) = 1 at the t-th star."""
        one = self.ring.canon(1)
        t = 0
        for i, row in enumerate(self.source.raw_grid):
            for j, v in enumerate(row):
                if v is None:
                    t += 1
                    yield (i, j, t), one
                elif v:
                    yield (i, j, 0), v

    @property
    def tensor(self) -> Tensor3:
        """The star-slice tensor, built on each access."""
        return Tensor3(self.ring, self.dims, dict(self.items()))


def build_derksen(B: IncompleteMatrix) -> DerksenInstance:
    """The star-slice tensor of B, within the label-count guard B was built under."""
    return DerksenInstance(B)


def derksen_witness(inst: DerksenInstance, completion: DenseMatrix) -> Decomposition:
    """The tau+3 term decomposition induced by a rank-3 completion W of
    the instance's matrix, over its ring.

    W's rows at the unit labels E are taken as U: a symmetric W that agrees
    with the matrix is the identity at E, and has rank 3 exactly when it
    factors through E, as W = U^T U.  Three terms carry U^T U into slice 0,
    one per row of U; each star then gets one term that cancels the
    completed value at its position in slice 0 and plants the unit in its
    own slice.  The terms are a ``Walk``: they are made from W and the
    stars of the source matrix each time they are walked, and never held
    all at once.  Nothing is checked here: the terms sum to the instance
    when W agrees with the matrix and factors through E, the completion
    verdict, and the tensor verdict of ``certify`` decides by one sum
    whether they do.
    """
    ring = inst.ring
    B = inst.source
    canon = ring.canon
    craw = completion.raw_grid
    one_raw = ring.canon(1)
    slice0 = {0: one_raw}
    gram = []
    for e in unit_label_positions(B):
        u = {i: v for i, v in enumerate(craw[e]) if v}
        gram.append((u, u, slice0))
    # a star term is e_i (x) e_j (x) (e_t - W(i,j) e_0); the unit maps are shared
    rows = [{i: one_raw} for i in range(B.nrows)]
    cols = [{j: one_raw} for j in range(B.ncols)]

    def walk():
        yield from gram
        for t, (i, j) in enumerate(B.stars(), start=1):
            w = canon(-craw[i][j])
            yield rows[i], cols[j], {0: w, t: one_raw} if w else {t: one_raw}

    return Decomposition(ring, inst.dims, Walk(B.tau + 3, walk))


def slice_reduce(T: Tensor3, k: int, lam: DenseMatrix) -> Tensor3:
    """Subtract lam-combinations of the trailing slices from the first k.

    The 3-slices of T split into k payload slices followed by tau' gadget
    slices; the result has k slices V_i = S_i - sum_j lam(i,j) S'_j.
    """
    tau2 = T.dims[2] - k
    if k < 1 or tau2 < 0:
        raise ValueError("payload count out of range")
    if lam.nrows != k or lam.ncols != tau2:
        raise ValueError(f"coefficient matrix must be {k}x{tau2}")
    if lam.ring != T.ring:
        raise RingMismatchError("coefficients over a different ring")
    lraw = lam.raw_grid
    acc: dict[Key, object] = {}
    for (i, j, z), v in T.entries.items():
        if z < k:
            key = (i, j, z)
            cur = acc.get(key)
            acc[key] = v if cur is None else cur + v
        else:
            g = z - k
            for t in range(k):
                c = lraw[t][g]
                if c == 0:
                    continue
                key = (i, j, t)
                cur = acc.get(key)
                delta = c * v
                acc[key] = -delta if cur is None else cur - delta
    return Tensor3(T.ring, (T.dims[0], T.dims[1], k), T.ring.canon_map(acc))


def pad_cubical(T: Tensor3) -> Tensor3:
    """Zero-pad all axes to the largest dimension (rank is unchanged)."""
    m = max(T.dims)
    if T.dims == (m, m, m):
        return T
    return Tensor3(T.ring, (m, m, m), T.entries)  # immutable, so the map is shared
