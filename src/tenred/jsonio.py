"""Canonical JSON serialization for instances, witnesses, and results.

Every file carries format_version and the ring descriptor so instances
can be replayed later.  Serialization is canonical: keys sorted, no
whitespace, one trailing newline; identical objects produce identical
bytes, which is what the determinism checks hash.

Scalars are encoded as strings (exact; no floats anywhere), sparse
vectors as [[index, "value"], ...] pairs, tensors as sorted
[[i, j, k, "value"], ...] quadruples.  A decomposition is the one thing
written as text, not as a tree: ``decomposition_text`` makes the same
canonical bytes term by term, so a witness of many terms is never held
whole.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator

from .errors import ParseError
from .linalg import DenseMatrix, Vec
from .polysys import Assignment, PolySystem, parse_polynomial
from .rings import RingDescriptor, Scalar
from .sigma import IncompleteMatrix
from .symmetric import SymDecomposition, SymTensor, SymTerm
from .tensors import Decomposition, DerksenInstance, Tensor3

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
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}", 0)
    if "kind" not in obj:
        raise ParseError("missing kind field", 0)
    return obj


def expect_kind(obj: dict, *kinds: str) -> None:
    kind = obj.get("kind")
    if kind not in kinds:
        raise ParseError(f"expected a {' or '.join(kinds)} file, got {kind!r}", 0)


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
    return [[i, str(x)] for i, x in sorted(v.nz.items())]


def raw_vec_from_json(ring: RingDescriptor, n: int, data, seen: dict | None = None) -> dict:
    """The {index: value} map, zeros left out, of a length-n vector from
    [index, "value"] pairs; a caller reading many vectors passes one
    ``seen`` map, so each distinct spelling is parsed once."""
    if not isinstance(data, list):
        raise ParseError("sparse vector must be a list of [index, value] pairs", 0)
    if n < 0:
        raise ParseError("negative length", 0)
    if seen is None:
        seen = {}
    nz = {}
    for pair in data:
        if not isinstance(pair, list) or len(pair) != 2 or type(pair[0]) is not int:
            raise ParseError(f"bad sparse vector entry {pair!r}", 0)
        i, v = pair
        if not isinstance(v, str) or v not in seen:
            seen[v] = _scalar(ring, v).value  # refuses all but strings
        if not 0 <= i < n:
            raise ParseError(f"index {i} out of range for length {n}", 0)
        if seen[v]:
            nz[i] = seen[v]
        else:  # a later pair for the same index wins, a zero included
            nz.pop(i, None)
    return nz


def vec_from_json(ring: RingDescriptor, n: int, data, seen: dict | None = None) -> Vec:
    return Vec._from_raw(ring, n, raw_vec_from_json(ring, n, data, seen))


def raw_matrix_from_json(ring: RingDescriptor, data) -> list[list]:
    """Raw values of a nonempty list of equal-length rows of scalar strings.

    Each distinct string is read once, by _scalar; the rows are fresh
    lists, so a caller may hand them to rank_raw, which mutates them.
    """
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
                seen[v] = _scalar(ring, v).value  # refuses all but strings
        rows.append([seen[v] for v in row])
    return rows


def _spelled(rows) -> list:
    """Rows of raw values as strings, None kept.  Cells holding one value
    share one object, so each is printed once, keyed by id (alive in the
    rows): hashing a Fraction by value costs more than printing it."""
    text: dict = {}
    return [
        [None if v is None else text[k] if (k := id(v)) in text else text.setdefault(k, str(v)) for v in row]
        for row in rows
    ]


def matrix_to_json(m: DenseMatrix) -> list:
    return _spelled(m.raw_grid)


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
    if type(num_vars) is not int or num_vars < 0:
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


def _only_fields(obj: dict, what: str, *fields: str) -> None:
    """Refuse a file holding a top-level field beyond the header and fields."""
    extra = sorted(obj.keys() - {"format_version", "kind", "ring", *fields})
    if extra:
        raise ParseError(f"unexpected field {extra[0]!r} in a {what}", 0)


def polysystem_parse(obj: dict) -> PolySystem:
    _only_fields(obj, "polysystem file", "num_vars", "polynomials")
    return system_from_json(obj)


def _labels_to_json(labels) -> list:
    text: dict = {}  # labels share few coordinates; print each once
    return [[text[f] if f in text else text.setdefault(f, str(f)) for f in lab.coords] for lab in labels]


def completion_instance_file(B: IncompleteMatrix) -> dict:
    if B.system is None or B.row_labels is None:
        raise ValueError("instance files need the system and labels attached")
    return {
        "format_version": FORMAT_VERSION,
        "kind": "completion_instance",
        "ring": str(B.ring),
        "system": system_to_json(B.system),
        "labels": _labels_to_json(B.row_labels),
        "grid": _spelled(B.raw_grid),
        "tau": B.tau,
    }


def entries_to_json(entries: dict) -> list:
    """Sorted [i, j, k, "value"] quadruples of a sparse raw-value map."""
    text: dict = {}
    return [
        [i, j, k, text[v] if v in text else text.setdefault(v, str(v))]
        for (i, j, k), v in sorted(entries.items())
    ]


def _entries_from_json(ring: RingDescriptor, data) -> dict:
    if not isinstance(data, list):
        raise ParseError("entries must be a list of [i,j,k,value] quadruples", 0)
    entries = {}
    for item in data:
        if not isinstance(item, list) or len(item) != 4 or any(type(i) is not int for i in item[:3]):
            raise ParseError(f"tensor entry must be [i,j,k,value] with integer indices, got {item!r}", 0)
        key = tuple(item[:3])
        if key in entries:
            raise ParseError(f"entry {item[:3]} is listed twice", 0)
        entries[key] = _scalar(ring, item[3])
    return entries


def _dims_of(obj: dict) -> tuple[int, int, int]:
    dims = _need(obj, "dims")
    if not (isinstance(dims, list) and len(dims) == 3 and all(type(d) is int for d in dims)):
        raise ParseError("dims must be three integers", 0)
    return tuple(dims)


def tensor_parse(obj: dict) -> Tensor3:
    _only_fields(obj, "tensor file", "dims", "entries")
    ring = _ring_of(obj)
    dims = _dims_of(obj)
    entries = _entries_from_json(ring, _need(obj, "entries"))
    try:
        return Tensor3(ring, dims, entries)
    except (ValueError, TypeError) as e:
        raise ParseError(str(e), 0) from e


def tensor_instance_file(inst: DerksenInstance, B: IncompleteMatrix) -> dict:
    if B.system is None or B.row_labels is None:
        raise ValueError("instance files need the system and labels attached")
    return {
        "format_version": FORMAT_VERSION,
        "kind": "tensor_instance",
        "ring": str(inst.tensor.ring),
        "dims": list(inst.tensor.dims),
        "entries": entries_to_json(inst.tensor.entries),
        "tau": inst.tau,
        "star_map": [[i, j] for i, j in B.stars()],
        "target_rank": inst.target_rank,
        "system": system_to_json(B.system),
        "labels": _labels_to_json(B.row_labels),
    }


def symtensor_file(S: SymTensor) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "symtensor",
        "ring": str(S.ring),
        "index_names": list(S.index_names),
        "entries": entries_to_json(S.entries),
    }


def symtensor_parse(obj: dict) -> SymTensor:
    _only_fields(obj, "symtensor file", "index_names", "entries")
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
    obj["star_map"] = [[i, j] for i, j in B.stars()]
    obj["system"] = system_to_json(B.system)
    obj["labels"] = _labels_to_json(B.row_labels)
    return obj


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


class _Spelled(dict):
    """Each value's JSON string, made on its first lookup."""

    def __missing__(self, v) -> str:
        self[v] = text = f'"{v}"'
        return text


def decomposition_text(D: Decomposition) -> Iterator[str]:
    """The canonical JSON text of D's terms, a list of {"a", "b", "c"}
    sparse vectors, made term by term from the raw maps.  Each distinct
    value is spelled once; a map is spelled each time a term holds it, as
    maps made during the walk are freed and their ids reused."""
    spelled = _Spelled()

    def vec(nz: dict) -> str:
        if len(nz) == 1:  # most maps of a star term
            ((i, v),) = nz.items()
            return f"[{i},{spelled[v]}]"
        return ",".join([f"[{i},{spelled[v]}]" for i, v in sorted(nz.items())])

    sep = "["
    for a, b, c in D.raw:
        yield f'{sep}{{"a":[{vec(a)}],"b":[{vec(b)}],"c":[{vec(c)}]}}'
        sep = ","
    yield "[]" if sep == "[" else "]"


def _ending_with(head: dict, key: str, value: Iterable[str]) -> Iterator[str]:
    """The canonical text of ``head`` with one more field, given as the
    canonical text of its value in pieces; ``key`` sorts after every key of
    ``head``, so the field comes last."""
    yield f'{canonical_dumps(head)[:-2]},"{key}":'
    yield from value
    yield "}\n"


def _terms_of(data) -> list:
    if not isinstance(data, list):
        raise ParseError("terms must be a list of objects", 0)
    for item in data:
        if not isinstance(item, dict):
            raise ParseError("decomposition terms must be objects", 0)
    return data


def tensor_witness_terms(obj: dict):
    """The ring, dims and term count of a tensor witness file, and its terms
    as raw (a, b, c) maps, each read only when the iterator reaches it."""
    ring, dims = _ring_of(obj), _dims_of(obj)
    data = _terms_of(_need(obj, "terms"))
    seen: dict = {}
    terms = (
        (
            raw_vec_from_json(ring, dims[0], _need(item, "a"), seen),
            raw_vec_from_json(ring, dims[1], _need(item, "b"), seen),
            raw_vec_from_json(ring, dims[2], _need(item, "c"), seen),
        )
        for item in data
    )
    return ring, dims, len(data), terms


def tensor_witness_text(D: Decomposition) -> Iterator[str]:
    head = {"format_version": FORMAT_VERSION, "kind": "tensor_witness", "ring": str(D.ring), "dims": list(D.dims)}
    return _ending_with(head, "terms", decomposition_text(D))


def sym_decomposition_to_json(D: SymDecomposition) -> list:
    return [{"s": str(t.s), "v": vec_to_json(t.v)} for t in D.terms]


def sym_decomposition_from_json(ring: RingDescriptor, dim: int, data) -> SymDecomposition:
    seen: dict = {}
    terms = [
        SymTerm(_scalar(ring, _need(item, "s")), vec_from_json(ring, dim, _need(item, "v"), seen))
        for item in _terms_of(data)
    ]
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
    if type(dim) is not int or dim <= 0:
        raise ParseError("dim must be a positive integer", 0)
    return sym_decomposition_from_json(ring, dim, _need(obj, "terms"))


def oracle_result_text(which: str, value, witness, exhausted: bool, lower_bound) -> Iterable[str]:
    """An oracle's result in pieces of canonical text; a Decomposition
    witness is written by decomposition_text, any other as a JSON value."""
    head = {
        "format_version": FORMAT_VERSION,
        "kind": "oracle_result",
        "oracle": which,
        "value": value,
        "exhausted": exhausted,
        "lower_bound": lower_bound,
    }
    if isinstance(witness, Decomposition):
        return _ending_with(head, "witness", decomposition_text(witness))
    return [canonical_dumps(dict(head, witness=witness))]
