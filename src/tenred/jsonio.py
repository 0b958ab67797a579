"""Canonical JSON serialization for instances, witnesses, and results.

Every file carries format_version and the ring descriptor so instances
can be replayed later.  Serialization is canonical: keys sorted, no
whitespace, one trailing newline; identical objects produce identical
bytes, which is what the determinism checks hash.

Scalars are encoded as strings (exact; no floats anywhere), sparse
vectors as [[index, "value"], ...] pairs, tensors as sorted
[[i, j, k, "value"], ...] quadruples.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ParseError, StructureError
from .linalg import DenseMatrix, Vec
from .polysys import Assignment, Polynomial, PolySystem, parse_polynomial
from .rings import RingDescriptor, Scalar
from .sigma import IncompleteMatrix, Label
from .symmetric import SymDecomposition, SymTensor, SymTerm
from .tensors import (
    Decomposition,
    DerksenInstance,
    Rank1Term,
    Tensor3,
    instance_source,
)

FORMAT_VERSION = 1


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", e.pos) from e
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object", 0)
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}", 0)
    if "kind" not in obj:
        raise ParseError("missing kind field", 0)
    return obj


def _need(obj: dict, key: str):
    if key not in obj:
        raise ParseError(f"missing field {key!r}", 0)
    return obj[key]


def _ring_of(obj: dict) -> RingDescriptor:
    text = _need(obj, "ring")
    if not isinstance(text, str):
        raise ParseError(f"ring must be a string, got {type(text).__name__}", 0)
    try:
        return RingDescriptor.from_str(text)
    except ValueError as e:
        raise ParseError(str(e), 0) from e


def _scalar(ring: RingDescriptor, text) -> Scalar:
    if not isinstance(text, str):
        raise ParseError(f"scalar values are strings, got {type(text).__name__}", 0)
    try:
        return Scalar.from_str(ring, text)
    except ValueError as e:
        raise ParseError(str(e), 0) from e


def vec_to_json(v: Vec) -> list:
    return [[i, str(s)] for i, s in v.items()]


def vec_from_json(ring: RingDescriptor, n: int, data) -> Vec:
    if not isinstance(data, list):
        raise ParseError("sparse vector must be a list of [index, value] pairs", 0)
    nz = {}
    for pair in data:
        if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], int):
            raise ParseError(f"bad sparse vector entry {pair!r}", 0)
        nz[pair[0]] = _scalar(ring, pair[1])
    try:
        return Vec(ring, n, nz)
    except ValueError as e:
        raise ParseError(str(e), 0) from e


def _scalar_rows(ring: RingDescriptor, data, what: str, blanks: bool = False) -> list[list]:
    """Cells of a nonempty list of equal-length row lists, null as None where
    ``blanks`` allows; each distinct string is read once, by _scalar."""
    if not isinstance(data, list) or not data or data[0] == []:
        raise ParseError(f"{what} must be a nonempty list of nonempty rows", 0)
    seen: dict = {None: None} if blanks else {}
    rows = []
    for row in data:
        if not isinstance(row, list):
            raise ParseError(f"{what} rows must be lists, got {type(row).__name__}", 0)
        if len(row) != len(data[0]):
            raise ParseError(f"ragged {what}: row {len(rows)} has {len(row)} cells, row 0 has {len(data[0])}", 0)
        for v in row:
            if (not isinstance(v, str) and v is not None) or v not in seen:
                seen[v] = _scalar(ring, v)  # refuses all but strings
        rows.append([seen[v] for v in row])
    return rows


def matrix_to_json(m: DenseMatrix) -> list:
    return [[str(s.value) for s in row] for row in m.rows]


def matrix_from_json(ring: RingDescriptor, data) -> DenseMatrix:
    return DenseMatrix(ring, _scalar_rows(ring, data, "matrix"))


def system_to_json(F: PolySystem) -> dict:
    return {
        "ring": str(F.ring),
        "num_vars": F.num_vars,
        "polynomials": [str(f) for f in F.polynomials],
    }


def system_from_json(obj) -> PolySystem:
    if not isinstance(obj, dict):
        raise ParseError("system must be an object", 0)
    ring = _ring_of(obj)
    num_vars = _need(obj, "num_vars")
    if not isinstance(num_vars, int) or num_vars < 0:
        raise ParseError("num_vars must be a nonnegative integer", 0)
    texts = _need(obj, "polynomials")
    if not isinstance(texts, list):
        raise ParseError("polynomials must be a list of strings", 0)
    polys = []
    for text in texts:
        if not isinstance(text, str):
            raise ParseError("polynomials must be strings", 0)
        polys.append(parse_polynomial(text, num_vars, ring))
    try:
        return PolySystem(ring, num_vars, polys)
    except ValueError as e:
        raise ParseError(str(e), 0) from e


def polysystem_file(F: PolySystem) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": "polysystem", **system_to_json(F)}


def _labels_to_json(labels) -> list:
    return [[str(f) for f in lab.coords] for lab in labels]


def _labels_from_json(ring: RingDescriptor, num_vars: int, data) -> list[Label]:
    if not isinstance(data, list):
        raise ParseError("labels must be a list of string triples", 0)
    labels = []
    for triple in data:
        if not isinstance(triple, list) or len(triple) != 3 or not all(isinstance(t, str) for t in triple):
            raise ParseError(f"label must be a string triple, got {triple!r}", 0)
        labels.append(
            Label(tuple(parse_polynomial(t, num_vars, ring) for t in triple))
        )
    return labels


def completion_instance_file(B: IncompleteMatrix) -> dict:
    if B.system is None or B.row_labels is None:
        raise ValueError("instance files need the system and labels attached")
    grid = [[None if v is None else str(v) for v in row] for row in B.raw_grid]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "completion_instance",
        "ring": str(B.ring),
        "system": system_to_json(B.system),
        "labels": _labels_to_json(B.row_labels),
        "grid": grid,
        "tau": B.tau,
    }


def completion_instance_parse(obj: dict) -> IncompleteMatrix:
    ring = _ring_of(obj)
    F = system_from_json(_need(obj, "system"))
    if F.ring != ring:
        raise ParseError("instance ring differs from system ring", 0)
    labels = _labels_from_json(ring, F.num_vars, _need(obj, "labels"))
    rows = _scalar_rows(ring, _need(obj, "grid"), "grid", blanks=True)
    try:
        return IncompleteMatrix(ring, rows, labels, labels, F)
    except ValueError as e:
        raise ParseError(str(e), 0) from e


def tensor_entries_to_json(T: Tensor3) -> list:
    return [[i, j, k, str(v)] for (i, j, k), v in T.items()]


def _entries_from_json(ring: RingDescriptor, data) -> dict:
    entries = {}
    for item in data:
        if not isinstance(item, list) or len(item) != 4:
            raise ParseError(f"tensor entry must be [i,j,k,value], got {item!r}", 0)
        i, j, k, v = item
        entries[(i, j, k)] = _scalar(ring, v)
    return entries


def tensor_entries_from_json(ring: RingDescriptor, dims, data) -> Tensor3:
    entries = _entries_from_json(ring, data)
    try:
        return Tensor3(ring, tuple(dims), entries)
    except (ValueError, TypeError) as e:
        raise ParseError(str(e), 0) from e


def tensor_file(T: Tensor3) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "tensor",
        "ring": str(T.ring),
        "dims": list(T.dims),
        "entries": tensor_entries_to_json(T),
    }


def tensor_parse(obj: dict) -> Tensor3:
    ring = _ring_of(obj)
    dims = _need(obj, "dims")
    if not (isinstance(dims, list) and len(dims) == 3 and all(isinstance(d, int) for d in dims)):
        raise ParseError("dims must be three integers", 0)
    return tensor_entries_from_json(ring, dims, _need(obj, "entries"))


def tensor_instance_file(inst: DerksenInstance, B: IncompleteMatrix) -> dict:
    if B.system is None or B.row_labels is None:
        raise ValueError("instance files need the system and labels attached")
    return {
        "format_version": FORMAT_VERSION,
        "kind": "tensor_instance",
        "ring": str(inst.tensor.ring),
        "dims": list(inst.tensor.dims),
        "entries": tensor_entries_to_json(inst.tensor),
        "tau": inst.tau,
        "star_map": [[i, j] for i, j in inst.star_map],
        "target_rank": inst.target_rank,
        "system": system_to_json(B.system),
        "labels": _labels_to_json(B.row_labels),
    }


def tensor_instance_parse(obj: dict) -> tuple[DerksenInstance, PolySystem]:
    T = tensor_parse(obj)
    tau = _need(obj, "tau")
    star_map = [tuple(x) for x in _need(obj, "star_map")]
    if len(star_map) != tau:
        raise ParseError("star_map length differs from tau", 0)
    F = system_from_json(_need(obj, "system"))
    labels = _labels_from_json(F.ring, F.num_vars, _need(obj, "labels"))
    if len(labels) != T.dims[0] or T.dims[0] != T.dims[1]:
        raise ParseError("label count does not match the tensor dimensions", 0)
    try:
        source = instance_source(T, star_map, labels, labels, F)
    except (ValueError, StructureError) as e:
        raise ParseError(str(e), 0) from e
    inst = DerksenInstance(T, tau, tuple(star_map), source)
    return inst, F


def symtensor_file(S: SymTensor) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "symtensor",
        "ring": str(S.ring),
        "index_names": list(S.index_names),
        "entries": [[i, j, k, str(v)] for (i, j, k), v in S.items()],
    }


def symtensor_parse(obj: dict) -> SymTensor:
    ring = _ring_of(obj)
    names = _need(obj, "index_names")
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise ParseError("index_names must be strings", 0)
    entries = _entries_from_json(ring, _need(obj, "entries"))
    try:
        return SymTensor(ring, names, entries)
    except (ValueError, TypeError) as e:
        raise ParseError(str(e), 0) from e


def symmetric_instance_file(
    S: SymTensor,
    target_rank: int,
    payload_size: int,
    inst: DerksenInstance,
    B: IncompleteMatrix,
) -> dict:
    obj = symtensor_file(S)
    obj["kind"] = "symmetric_instance"
    obj["target_rank"] = target_rank
    obj["payload_size"] = payload_size
    obj["tau"] = inst.tau
    obj["star_map"] = [[i, j] for i, j in inst.star_map]
    obj["system"] = system_to_json(B.system)
    obj["labels"] = _labels_to_json(B.row_labels)
    return obj


def symmetric_instance_parse(obj: dict):
    """Returns (padded tensor S, target rank, payload size m, instance, system).

    The star-slice tensor is recovered from the embedded block of S: entry
    (a, m+b, 2m+c) of S is entry (a, b, c) of the padded payload, and the
    slices beyond tau were padding, so dropping them is exact.
    """
    S = symtensor_parse(obj)
    target_rank = _need(obj, "target_rank")
    m = _need(obj, "payload_size")
    tau = _need(obj, "tau")
    star_map = [tuple(x) for x in _need(obj, "star_map")]
    if len(star_map) != tau:
        raise ParseError("star_map length differs from tau", 0)
    F = system_from_json(_need(obj, "system"))
    labels = _labels_from_json(F.ring, F.num_vars, _need(obj, "labels"))
    if not isinstance(m, int) or S.size != 3 * m + 3 * m * (m + 1) // 2:
        raise ParseError("index count does not match payload_size", 0)
    n = len(labels)
    if m != max(n, tau + 1):
        raise ParseError("payload_size does not match labels and tau", 0)
    entries = {}
    for (x, y, z), v in S.items():
        if z < 3 * m:
            if not (x < m <= y < 2 * m <= z):
                raise ParseError(f"unexpected payload entry at {(x, y, z)}", 0)
            a, b, c = x, y - m, z - 2 * m
            if a >= n or b >= n or c > tau:
                raise ParseError(f"payload entry {(a, b, c)} out of range", 0)
            entries[(a, b, c)] = v
    try:
        T = Tensor3(S.ring, (n, n, tau + 1), entries)
        source = instance_source(T, star_map, labels, labels, F)
    except (ValueError, StructureError) as e:
        raise ParseError(str(e), 0) from e
    inst = DerksenInstance(T, tau, tuple(star_map), source)
    return S, target_rank, m, inst, F


def assignment_to_json(point: Assignment) -> list:
    return [str(v) for v in point.values]


def assignment_from_json(ring: RingDescriptor, data) -> Assignment:
    if not isinstance(data, list):
        raise ParseError("assignment must be a list of values", 0)
    return Assignment(tuple(_scalar(ring, v) for v in data))


def completion_witness_file(point: Assignment, W: DenseMatrix) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "completion_witness",
        "ring": str(W.ring),
        "assignment": assignment_to_json(point),
        "matrix": matrix_to_json(W),
    }


def decomposition_to_json(D: Decomposition) -> list:
    return [
        {"a": vec_to_json(t.a), "b": vec_to_json(t.b), "c": vec_to_json(t.c)}
        for t in D.terms
    ]


def decomposition_from_json(ring: RingDescriptor, dims, data) -> Decomposition:
    terms = []
    for item in data:
        if not isinstance(item, dict):
            raise ParseError("decomposition terms must be objects", 0)
        terms.append(
            Rank1Term(
                vec_from_json(ring, dims[0], _need(item, "a")),
                vec_from_json(ring, dims[1], _need(item, "b")),
                vec_from_json(ring, dims[2], _need(item, "c")),
            )
        )
    try:
        return Decomposition(ring, tuple(dims), terms)
    except ValueError as e:
        raise ParseError(str(e), 0) from e


def tensor_witness_file(D: Decomposition) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "tensor_witness",
        "ring": str(D.ring),
        "dims": list(D.dims),
        "terms": decomposition_to_json(D),
    }


def tensor_witness_parse(obj: dict) -> Decomposition:
    ring = _ring_of(obj)
    dims = _need(obj, "dims")
    return decomposition_from_json(ring, dims, _need(obj, "terms"))


def sym_decomposition_to_json(D: SymDecomposition) -> list:
    return [{"s": str(t.s), "v": vec_to_json(t.v)} for t in D.terms]


def sym_decomposition_from_json(ring: RingDescriptor, dim: int, data) -> SymDecomposition:
    terms = []
    for item in data:
        if not isinstance(item, dict):
            raise ParseError("decomposition terms must be objects", 0)
        terms.append(
            SymTerm(_scalar(ring, _need(item, "s")), vec_from_json(ring, dim, _need(item, "v")))
        )
    try:
        return SymDecomposition(ring, dim, terms)
    except ValueError as e:
        raise ParseError(str(e), 0) from e


def symmetric_witness_file(D: SymDecomposition) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "symmetric_witness",
        "ring": str(D.ring),
        "dim": D.dim,
        "terms": sym_decomposition_to_json(D),
    }


def symmetric_witness_parse(obj: dict) -> SymDecomposition:
    ring = _ring_of(obj)
    dim = _need(obj, "dim")
    if not isinstance(dim, int) or dim <= 0:
        raise ParseError("dim must be a positive integer", 0)
    return sym_decomposition_from_json(ring, dim, _need(obj, "terms"))


def oracle_result_file(which: str, value, witness_obj, exhausted: bool, lower_bound) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "oracle_result",
        "oracle": which,
        "value": value,
        "witness": witness_obj,
        "exhausted": exhausted,
        "lower_bound": lower_bound,
    }
