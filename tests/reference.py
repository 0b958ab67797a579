"""Reference helpers that only the tests use: constructors from plain ints
and Fractions, matrix products and inverses (with the error a singular one
raises), nested and term-map
constructors, star and symmetry predicates, the star-slice witness made
from a factor U given beside W, the tuple-keyed tensor and
cube sums and the compare that the packed kernels of ``tenred.tensors``
and ``tenred.symmetric`` are checked against, the grouped cube sum over a
list of all the terms that the streamed one must equal exactly, the JSON
tree writers and readers of a symmetric witness, a completion instance
and a completion witness that their text writers and readers are checked
against, the tree writers of a polysystem file, a bare symtensor file and
a symmetric instance that ``jsonio`` writes as text, and the
instance reader that decodes every member whole, which
``certify.read_instance`` is checked against.  The package itself never
needs them, so they live here, beside the tests that check against them."""

from __future__ import annotations

import itertools
import sys
from typing import Sequence

from tenred import certify, jsonio, symmetric
from tenred.errors import GuardExceededError, ParseError, RingMismatchError
from tenred.linalg import DenseMatrix
from tenred.jsonio import FORMAT_VERSION, assignment_to_json, system_to_json
from tenred.polysys import Assignment, Exponents, Polynomial, PolySystem, _grlex_key
from tenred.rings import RingDescriptor
from tenred.sigma import IncompleteMatrix
from tenred.symmetric import SymDecomposition, SymTensor
from tenred.tensors import Decomposition, DerksenInstance, Tensor3


def vec(ring: RingDescriptor, values: Sequence) -> dict:
    """The raw map {index: canonical nonzero value} of a dense list."""
    return ring.canon_map(dict(enumerate(values)))


def point(ring: RingDescriptor, values: Sequence) -> Assignment:
    """The point whose coordinates are the images of ``values`` in the ring."""
    return Assignment(ring, tuple(ring.canon(v) for v in values))


def dense(ring: RingDescriptor, rows: Sequence[Sequence]) -> DenseMatrix:
    """The matrix of the images of nested ints or Fractions in the ring."""
    return DenseMatrix(ring, [[ring.canon(v) for v in r] for r in rows])


def identity(ring: RingDescriptor, n: int) -> DenseMatrix:
    return dense(ring, [[int(i == j) for j in range(n)] for i in range(n)])


def sym_entry(S: SymTensor, i: int, j: int, k: int):
    """The raw value of a symmetric tensor at any ordering of (i, j, k)."""
    return S.entries.get(tuple(sorted((i, j, k))), 0)


def transpose(m: DenseMatrix) -> DenseMatrix:
    return DenseMatrix(m.ring, list(zip(*m.raw_grid)))


def matmul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.ring != b.ring:
        raise RingMismatchError("matrix product across rings")
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions differ")
    canon = a.ring.canon
    cols = list(zip(*b.raw_grid))
    out = [[canon(sum(x * y for x, y in zip(r, c))) for c in cols] for r in a.raw_grid]
    return DenseMatrix(a.ring, out)


class SingularMatrixError(ValueError):
    """Inversion was requested for a singular matrix."""


def inverse_3x3(m: DenseMatrix) -> DenseMatrix:
    """Exact inverse of a 3x3 matrix over a field, via the adjugate."""
    if m.nrows != 3 or m.ncols != 3:
        raise ValueError("inverse_3x3 expects a 3x3 matrix")
    ring = m.ring
    if not ring.is_field:
        raise ValueError("inversion requested over a non-field ring")
    a = m.raw_grid

    def cof(i: int, j: int):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        minor = a[r[0]][c[0]] * a[r[1]][c[1]] - a[r[0]][c[1]] * a[r[1]][c[0]]
        return ring.canon(minor if (i + j) % 2 == 0 else -minor)

    det = ring.canon(a[0][0] * cof(0, 0) + a[0][1] * cof(0, 1) + a[0][2] * cof(0, 2))
    if not det:
        raise SingularMatrixError("3x3 matrix is singular")
    dinv = ring.inverse(det)
    return DenseMatrix(ring, [[ring.canon(cof(j, i) * dinv) for j in range(3)] for i in range(3)])


def tensor_from_nested(ring: RingDescriptor, grid: Sequence[Sequence[Sequence]]) -> Tensor3:
    """The tensor of the images of a nested list of ints or Fractions."""
    dims = (len(grid), len(grid[0]), len(grid[0][0]))
    entries = {
        (i, j, k): grid[i][j][k]
        for i in range(dims[0])
        for j in range(dims[1])
        for k in range(dims[2])
    }
    return Tensor3(ring, dims, ring.canon_map(entries))


def polynomial_from_term_map(ring: RingDescriptor, num_vars: int, term_map: dict[Exponents, object]) -> Polynomial:
    """The polynomial of a map of exponents to canonical raw values, zeros dropped."""
    items = sorted(term_map.items(), key=lambda it: _grlex_key(it[0]), reverse=True)
    return Polynomial(ring, num_vars, tuple((e, c) for e, c in items if c))


def is_star(M: IncompleteMatrix, i: int, j: int) -> bool:
    return M.raw_grid[i][j] is None


def is_symmetric(M: IncompleteMatrix) -> bool:
    if M.nrows != M.ncols:
        return False
    g = M.raw_grid
    return all(g[i][j] == g[j][i] for i in range(M.nrows) for j in range(i + 1, M.ncols))


def sum_decomposition_raw(D: Decomposition) -> dict:
    """The exact entrywise sum of all terms as a canonical map keyed by
    (i, j, k) tuples, zeros dropped."""
    acc: dict = {}
    for a, b, c in D.raw:
        for i, va in a.items():
            for j, vb in b.items():
                for k, vc in c.items():
                    acc[i, j, k] = acc.get((i, j, k), 0) + va * vb * vc
    return D.ring.canon_map(acc)


def derksen_witness_from_u(inst: DerksenInstance, completion: DenseMatrix, U: DenseMatrix) -> Decomposition:
    """The tau+3 terms of a rank-3 completion W = U^T U with U given beside
    W, as ``tensors.derksen_witness`` made them before it took U from W's
    rows at the unit labels: the reference it is checked against."""
    ring, B = inst.ring, inst.source
    one_raw = ring.canon(1)
    craw = completion.raw_grid
    terms = []
    for row in U.raw_grid:
        u = {i: v for i, v in enumerate(row) if v}
        terms.append((u, u, {0: one_raw}))
    for t, (i, j) in enumerate(B.stars(), start=1):
        w = ring.canon(-craw[i][j])
        terms.append(({i: one_raw}, {j: one_raw}, {0: w, t: one_raw} if w else {t: one_raw}))
    return Decomposition(ring, inst.dims, terms)


def dict_mismatch(want: dict, got: dict):
    """(ok, first mismatch) of two canonical (i, j, k)-keyed maps: the
    mismatch is (key, expected, actual) at the smallest key where they
    disagree, an absent key reading as zero."""
    if got == want:
        return True, None
    key = min(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    return False, (key, want.get(key, 0), got.get(key, 0))


def unpacked(total: dict, ring: RingDescriptor, dims: tuple[int, int, int]) -> dict:
    """A packed sum of ``sum_terms_raw`` as a canonical (i, j, k)-keyed map."""
    _, n2, n3 = dims
    return {(key // (n2 * n3), key // n3 % n2, key % n3): v for key, v in ring.canon_map(total).items()}


def sum_sym_decomposition_reference(D: SymDecomposition) -> dict:
    """The exact sum of all cube terms as a canonical map keyed by
    nondecreasing (x, y, z) tuples, entry by entry, zeros dropped."""
    acc: dict = {}
    for s, v in D.raw:
        for x, y, z in itertools.combinations_with_replacement(sorted(v), 3):
            acc[x, y, z] = acc.get((x, y, z), 0) + s * v[x] * v[y] * v[z]
    return D.ring.canon_map(acc)


def sum_sym_list_kernel(raw: list, dim: int, ring: RingDescriptor) -> dict:
    """The grouped sum as the list kernel made it, indexing a list of all
    the terms: the packed, unreduced map whose canonical form the streamed
    ``symmetric.sum_sym_decomposition_raw`` must equal exactly, with the
    same runs added in the same order."""

    def run_from(i: int):
        # (j, u, d, mu) of the run raw[i:j], or None where raw[i] and raw[i+1] start none
        if i + 1 >= len(raw):
            return None
        v1, v2 = raw[i][1], raw[i + 1][1]
        support = v1.keys()
        if v2.keys() != support:
            return None
        d = ring.canon_map({x: v2[x] - v for x, v in v1.items()})
        if not d:
            return None
        p = min(d)
        if ring.is_field:
            inv = ring.inverse(d[p])
        elif d[p] in (1, -1):
            inv = d[p]
        else:
            return None
        a1 = ring.canon(v1[p] * inv)
        u = ring.canon_map({x: v - a1 * d.get(x, 0) for x, v in v1.items()})
        mu = [0, 0, 0, 0]
        j = i
        while j < len(raw):
            w, v = raw[j]
            if v.keys() != support:
                break
            a = ring.canon(v[p] * inv)
            if j > i + 1 and ring.canon_map({x: u.get(x, 0) + a * d.get(x, 0) for x in v}) != v:
                break
            for e in range(4):
                mu[e] += w
                w *= a
            j += 1
        return j, u, d, [ring.canon(m) for m in mu]

    acc: dict = {}
    i = 0
    while i < len(raw):
        run = run_from(i)
        if run is not None:
            i, u, d, mu = run
            factors = (sorted(u.items()), sorted(d.items()))
            for e in range(4):
                if mu[e]:
                    for placement in symmetric._PLACEMENTS[e]:
                        symmetric._add_product(acc, mu[e], *(factors[f] for f in placement), dim)
            continue
        s, v = raw[i]
        items = sorted(v.items())
        symmetric._add_product(acc, s, items, items, items, dim)
        i += 1
    return acc


def sym_decomposition_to_json(D: SymDecomposition) -> list:
    """The cube terms of D as a JSON tree, one {"s", "v"} object per term:
    the reference for ``jsonio.sym_decomposition_text``."""
    return [{"s": str(s), "v": [[i, str(x)] for i, x in sorted(v.items())]} for s, v in D.raw]


def symmetric_witness_tree(D: SymDecomposition) -> dict:
    """The symmetric witness file of D as a JSON tree."""
    return {
        "format_version": 1,
        "kind": "symmetric_witness",
        "ring": str(D.ring),
        "dim": D.dim,
        "terms": sym_decomposition_to_json(D),
    }


def symmetric_witness_parse(obj: dict) -> SymDecomposition:
    """The cube terms a symmetric witness file, given as a JSON tree, lists,
    read back through the member walk and term reader that ``verify``
    runs, every term kept in a list where ``verify`` sums them as read."""

    def plan(head: dict) -> tuple:
        return jsonio._ring_of(head), jsonio._dim_of(head), sys.maxsize

    text = [jsonio.canonical_dumps(obj)]
    ring, dim, _, raw = jsonio._witness_terms(text, plan, "terms", jsonio._cube_term, lambda terms, *_: list(terms))
    return SymDecomposition(ring, dim, raw)


def matrix_to_json(m: DenseMatrix) -> list:
    """The rows of a matrix as lists of value strings."""
    return [[str(v) for v in row] for row in m.raw_grid]


def raw_matrix_from_json(ring: RingDescriptor, data) -> list[list]:
    """Raw values of a nonempty list of equal-length rows of scalar strings,
    as ``verify`` read W when it decoded the witness whole; each distinct
    string is read once, by ``jsonio._scalar``."""
    if not isinstance(data, list) or not data or data[0] == []:
        raise ParseError("matrix must be a nonempty list of nonempty rows", 0)
    seen: dict = {}
    rows = []
    for row in data:
        if not isinstance(row, list):
            raise ParseError(f"matrix rows must be lists, got {type(row).__name__}", 0)
        if len(row) != len(data[0]):
            raise ParseError(f"ragged matrix: row {len(rows)} has {len(row)} cells, row 0 has {len(data[0])}", 0)
        for v in row:
            if not isinstance(v, str) or v not in seen:
                seen[v] = jsonio._scalar(ring, v)  # refuses all but strings
        rows.append([seen[v] for v in row])
    return rows


def completion_instance_file(B: IncompleteMatrix) -> dict:
    """The completion instance file of B as a JSON tree, stars as None: the
    reference for ``jsonio.completion_instance_text``."""
    if B.system is None or B.row_labels is None:
        raise ValueError("instance files need the system and labels attached")
    return {
        "format_version": FORMAT_VERSION,
        "kind": "completion_instance",
        "ring": str(B.ring),
        "system": system_to_json(B.system),
        "labels": [[str(f) for f in lab.coords] for lab in B.row_labels],
        "grid": [[None if v is None else str(v) for v in row] for row in B.raw_grid],
        "tau": B.tau,
    }


def completion_witness_file(point: Assignment, W: DenseMatrix) -> dict:
    """The completion witness file of a point and W as a JSON tree: the
    reference for ``jsonio.completion_witness_text``."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "completion_witness",
        "ring": str(W.ring),
        "assignment": assignment_to_json(point),
        "matrix": matrix_to_json(W),
    }


def polysystem_file(F: PolySystem) -> dict:
    """The polysystem file of F as a JSON tree: the reference for
    ``jsonio.polysystem_text``."""
    return {"format_version": FORMAT_VERSION, "kind": "polysystem", **system_to_json(F)}


def entries_to_json(entries: dict) -> list:
    """Sorted [i, j, k, "value"] quadruples of a sparse raw-value map."""
    return [[i, j, k, str(v)] for (i, j, k), v in sorted(entries.items())]


def symtensor_file(S: SymTensor) -> dict:
    """A bare symtensor file: a symmetric tensor with no system and no target."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "symtensor",
        "ring": str(S.ring),
        "index_names": list(S.index_names),
        "entries": entries_to_json(S.entries),
    }


def symmetric_instance_file(
    S: SymTensor, target_rank: int, payload_size: int, inst: DerksenInstance, B: IncompleteMatrix
) -> dict:
    """The symmetric instance file of a padded tensor S as a JSON tree: the
    reference for ``jsonio.symmetric_instance_text``."""
    return dict(
        symtensor_file(S),
        kind="symmetric_instance",
        target_rank=target_rank,
        payload_size=payload_size,
        tau=inst.tau,
        star_map=[[i, j] for i, j in B.stars()],
        system=system_to_json(B.system),
        labels=[[str(f) for f in lab.coords] for lab in B.row_labels],
    )


def read_instance_tree(text: str, *kinds: str) -> certify.Reduction:
    """``certify.read_instance`` as it read a file before it stepped over
    the entries and stars: every top-level member is decoded whole by
    ``jsonio.loads``, then the same rebuild and text comparison follow."""
    obj = jsonio.loads(text)
    if kinds:
        jsonio.expect_kind(obj, *kinds)
    kind = obj.get("kind")
    if kind == "tensor":
        return certify.Reduction("tensor", None, expected=jsonio.tensor_parse(obj))
    if kind == "symtensor":
        return certify.Reduction("symmetric", None, expected=jsonio.symtensor_parse(obj))
    stage = certify.STAGES.get(kind) if isinstance(kind, str) else None
    if stage is None:
        raise ParseError(f"expected an instance file, got {kind!r}", 0)
    F = jsonio.system_from_json(jsonio._need(obj, "system"))
    labels = certify._listed(obj, "labels")
    indices = certify._listed(obj, "index_names") if stage == "symmetric" else None
    del obj
    try:
        rebuilt, red = certify.reduce_system(F, stage, labels, indices, lambda key, value: None)
    except GuardExceededError as e:
        field = "index_names" if e.what == "symmetric indices" else "labels"
        raise ParseError(f"{field} is not the reduction of its system ({e})", 0) from e
    reason = certify._text_difference(text, rebuilt)
    if reason is not None:
        raise ParseError(reason, 0)
    return red
