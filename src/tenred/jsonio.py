"""Canonical JSON serialization for instances, witnesses, and results.

Every file carries format_version and the ring descriptor so instances
can be replayed later.  Serialization is canonical: keys sorted, no
whitespace, one trailing newline; identical objects produce identical
bytes, which is what the determinism checks hash.

Ring values are encoded as strings (exact; no floats anywhere), sparse
vectors as [[index, "value"], ...] pairs, tensors as sorted
[[i, j, k, "value"], ...] quadruples.  Every file is written as text, never
as a tree, by one writer, ``_object_text``, the one place a file's members
are put in order and its format_version is written; a long member is
streamed in pieces, with the canonical bytes of its tree: terms one by one
(``decomposition_text``, ``sym_decomposition_text``), W and a completion
grid a row at a time (``completion_witness_text``,
``completion_instance_text``), and the entries and stars of a tensor or a
symmetric instance a chunk at a time (``tensor_instance_text``,
``symmetric_instance_text``).  ``canonical_dumps`` spells single values.
Every file is read by one member walk of its top-level object, which
refuses a key given twice, through a window of its text (``_Window``): a
buffer refilled a piece at a time, a whole text being one piece.
``loads`` decodes each member whole; ``members``, which reads instances,
steps over the grid, entries and stars where one possessive pattern shows
their text is a list of flat lists of strings, nulls and integers that
json decodes, so none of their items is decoded; and witnesses are read
from their text in pieces of ``_WINDOW`` characters, one term or row at a
time (``_witness_terms``), the text of each let go once it is read:
``tensor_witness_sum`` and ``symmetric_witness_sum`` add each term to the
exact sum as they read it, and ``completion_witness_rows`` keeps the rows
of W, stepped over as text until the ring after them is known and then
decoded once.
"""

from __future__ import annotations

import json
import re
from itertools import islice
from typing import Any, Callable, Iterable, Iterator

from .errors import ParseError
from .linalg import DenseMatrix
from .polysys import Assignment, PolySystem, parse_polynomial
from .rings import RingDescriptor
from .sigma import IncompleteMatrix
from .symmetric import SymDecomposition, SymTensor, sum_sym_decomposition_raw
from .tensors import Decomposition, DerksenInstance, Tensor3, sum_terms_raw

FORMAT_VERSION = 1
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_dumps(obj: Any) -> str:
    return _encode(obj) + "\n"


def loads(text: str) -> dict:
    """The top-level members of a file, each decoded whole by the member
    walk, which refuses a key given twice."""
    return members(text)


# A list of flat lists of JSON strings, nulls and integers, spelled with no
# whitespace, escape or control character and with integers of at most 18
# digits, so json decodes every text it matches without error.  Every
# quantifier is possessive: a match keeps no backtracking state, however
# long the list.
_ATOM = r'(?:"[^"\\\x00-\x1f]*+"|null|-?+(?:0|[1-9][0-9]{0,17}+))'
_FLAT = rf"\[(?:{_ATOM}(?:,{_ATOM})*+)?+\]"
_FLAT_LISTS = re.compile(rf"\[(?:{_FLAT}(?:,{_FLAT})*+)?+\]")


def members(text: str, *flat: str) -> dict:
    """The top-level members of a whole text, as ``loads`` gives them,
    except that a member named in ``flat`` whose text ``_FLAT_LISTS``
    matches is stepped over, none of its items decoded, and holds None.
    Any other spelling is decoded whole, so every refusal is the one
    ``loads`` gives."""
    window = _Window((text,))  # one piece: the whole text is in the buffer
    obj: dict = {}

    def member(key: str, pos: int) -> int:
        if key in flat and (match := _FLAT_LISTS.match(text, pos)):
            obj[key] = None
            return match.end()
        obj[key], end = window.value(pos)
        return end

    _walk_object(window, member)
    return _checked(obj)


def _checked(obj: dict) -> dict:
    """The top-level members of a file, refused without a supported
    format_version or a kind."""
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


def _scalar(ring: RingDescriptor, text):
    """The canonical raw value a file spells as a string, read by ``ring.parse``."""
    if not isinstance(text, str):
        raise ParseError(f"scalar values are strings, got {type(text).__name__}", 0)
    try:
        return ring.parse(text)
    except ValueError as e:
        raise ParseError(str(e), 0) from e


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
        if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not int:
            raise ParseError(f"bad sparse vector entry {pair!r}", 0)
        i, v = pair
        x = seen.get(v) if type(v) is str else None
        if x is None:
            x = seen[v] = _scalar(ring, v)  # refuses all but strings
        if not 0 <= i < n:
            raise ParseError(f"index {i} out of range for length {n}", 0)
        if x:
            nz[i] = x
        else:  # a later pair for the same index wins, a zero included
            nz.pop(i, None)
    return nz


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


def polysystem_text(F: PolySystem) -> Iterator[str]:
    return _object_text(kind="polysystem", **system_to_json(F))


def _only_fields(obj: dict, what: str, *fields: str) -> None:
    """Refuse a file holding a top-level field beyond the header and fields."""
    extra = sorted(obj.keys() - {"format_version", "kind", "ring", *fields})
    if extra:
        raise ParseError(f"unexpected field {extra[0]!r} in a {what}", 0)


def polysystem_parse(text: str) -> PolySystem:
    """The system a polysystem file's text holds; a file of another kind,
    or with a field beyond the system's, is refused first."""
    obj = loads(text)
    expect_kind(obj, "polysystem")
    _only_fields(obj, "polysystem file", "num_vars", "polynomials")
    return system_from_json(obj)


def _labels_to_json(labels) -> list:
    text: dict = {}  # labels share few coordinates; print each once
    return [[text[f] if f in text else text.setdefault(f, str(f)) for f in lab.coords] for lab in labels]


def _entries_from_json(ring: RingDescriptor, data) -> dict:
    """The {(i, j, k): raw value} map a bare tensor file lists, zeros kept."""
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


def _dim_of(obj: dict) -> int:
    dim = _need(obj, "dim")
    if type(dim) is not int or dim <= 0:
        raise ParseError("dim must be a positive integer", 0)
    return dim


def tensor_parse(obj: dict) -> Tensor3:
    _only_fields(obj, "tensor file", "dims", "entries")
    ring = _ring_of(obj)
    dims = _dims_of(obj)
    entries = _entries_from_json(ring, _need(obj, "entries"))
    if any(d < 1 for d in dims):
        raise ParseError("dimensions must be three positive counts", 0)
    for i, j, k in entries:
        if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
            raise ParseError(f"entry ({i},{j},{k}) outside {dims}", 0)
    return Tensor3(ring, dims, {key: v for key, v in entries.items() if v})


_CHUNK = 4096  # list items per piece of text


def _list_text(items: Iterable[str], width: int = 1) -> Iterator[str]:
    """The canonical text of a JSON list, given its items' texts, in pieces
    of up to _CHUNK items, or of _CHUNK cells where each item is a row of
    ``width`` cells."""
    items = iter(items)
    size = max(1, _CHUNK // width)
    sep = "["
    while chunk := list(islice(items, size)):
        yield sep + ",".join(chunk)
        sep = ","
    yield "[]" if sep == "[" else "]"


def _object_text(**members) -> Iterator[str]:
    """The canonical text of a file whose top-level members are
    format_version and the given ones, in pieces; the one place a file's
    members are put in order.  A member given as an iterator of the pieces
    of its value's canonical text is streamed, a piece at a time; each run
    of the others is written as one piece with the text around it."""
    members["format_version"] = FORMAT_VERSION
    text = "{"  # the text not yet given, since the last streamed member
    for key in sorted(members):
        value = members[key]
        text += f'"{key}":'
        if isinstance(value, Iterator):
            yield text
            yield from value
            text = ","
        else:
            text += _encode(value) + ","
    yield text[:-1] + "}\n"


def _rows_text(rows: tuple) -> Iterator[str]:
    """The canonical text of a nonempty list of equal rows of raw values,
    None spelled null, spelled a row at a time.  Cells holding one value
    share one object, so each is spelled once, keyed by id (alive in the
    rows): hashing a Fraction by value costs more than printing it."""
    text: dict = {}
    spell = text.setdefault
    cells = (
        ["null" if v is None else text[k] if (k := id(v)) in text else spell(k, f'"{v}"') for v in row] for row in rows
    )
    return _list_text((f"[{','.join(row)}]" for row in cells), len(rows[0]))


def _entries_text(items: Iterable) -> Iterator[str]:
    """The canonical text of a tensor's [i, j, k, "value"] entries, given
    in key order, a chunk at a time; each distinct value is spelled once."""
    spelled = _Spelled()
    return _list_text(f"[{i},{j},{k},{spelled[v]}]" for (i, j, k), v in items)


def _instance_text(kind: str, B: IncompleteMatrix, **members) -> Iterator[str]:
    """The canonical text of an instance file of the reduction of B's
    system, in pieces: its kind, ring, system, labels and tau beside
    ``members``."""
    if B.system is None or B.row_labels is None:
        raise ValueError("instance files need the system and labels attached")
    return _object_text(
        kind=kind,
        labels=_labels_to_json(B.row_labels),
        ring=str(B.ring),
        system=system_to_json(B.system),
        tau=B.tau,
        **members,
    )


def completion_instance_text(B: IncompleteMatrix) -> Iterator[str]:
    """The canonical text of a completion instance file in pieces, the grid
    a row at a time, its stars spelled null."""
    return _instance_text("completion_instance", B, grid=_rows_text(B.raw_grid))


def tensor_instance_text(inst: DerksenInstance, B: IncompleteMatrix) -> Iterator[str]:
    """The canonical text of a tensor instance file in pieces: the entries,
    as the instance walks them, and the stars are spelled a chunk at a
    time, in key order."""
    return _instance_text(
        "tensor_instance",
        B,
        dims=list(inst.dims),
        entries=_entries_text(inst.items()),
        star_map=_list_text(f"[{i},{j}]" for i, j in B.stars()),
        target_rank=inst.target_rank,
    )


def symtensor_parse(obj: dict) -> SymTensor:
    _only_fields(obj, "symtensor file", "index_names", "entries")
    ring = _ring_of(obj)
    names = _need(obj, "index_names")
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise ParseError("index_names must be strings", 0)
    entries = _entries_from_json(ring, _need(obj, "entries"))
    if len(set(names)) != len(names):
        raise ParseError("index names must be unique", 0)
    canonical: dict = {}
    for key, v in entries.items():
        if any(not 0 <= i < len(names) for i in key):
            raise ParseError(f"entry {key} outside {len(names)} indices", 0)
        triple = tuple(sorted(key))
        if canonical.setdefault(triple, v) != v:
            raise ParseError(f"conflicting values for permutations of {triple}: {canonical[triple]} and {v}", 0)
    return SymTensor(ring, tuple(names), {key: v for key, v in canonical.items() if v})


def symmetric_instance_text(S: SymTensor, target_rank: int, payload_size: int, B: IncompleteMatrix) -> Iterator[str]:
    """The canonical text of a symmetric instance file in pieces: the
    entries, in key order, and the stars are spelled a chunk at a time."""
    return _instance_text(
        "symmetric_instance",
        B,
        entries=_entries_text(sorted(S.entries.items())),
        index_names=list(S.index_names),
        payload_size=payload_size,
        star_map=_list_text(f"[{i},{j}]" for i, j in B.stars()),
        target_rank=target_rank,
    )


def assignment_to_json(point: Assignment) -> list:
    return [str(v) for v in point.values]


def assignment_from_json(ring: RingDescriptor, data) -> Assignment:
    if not isinstance(data, list):
        raise ParseError("assignment must be a list of values", 0)
    return Assignment(ring, tuple(_scalar(ring, v) for v in data))


def completion_witness_text(point: Assignment, W: DenseMatrix) -> Iterator[str]:
    """The canonical text of a completion witness file in pieces, W a row at a time."""
    return _object_text(
        assignment=assignment_to_json(point),
        kind="completion_witness",
        matrix=_rows_text(W.raw_grid),
        ring=str(W.ring),
    )


class _Spelled(dict):
    """Each value's JSON string, made on its first lookup."""

    def __missing__(self, v) -> str:
        self[v] = text = f'"{v}"'
        return text

    def pairs(self, nz: dict) -> str:
        """The [index, "value"] pairs of a sparse vector, in index order,
        without the list's brackets."""
        if len(nz) == 1:  # most maps of a star term
            ((i, v),) = nz.items()
            return f"[{i},{self[v]}]"
        if len(nz) == 2:  # the c map of a star term at a nonzero W cell
            (i, v), (k, w) = nz.items()
            return f"[{i},{self[v]}],[{k},{self[w]}]" if i < k else f"[{k},{self[w]}],[{i},{self[v]}]"
        return ",".join([f"[{i},{self[v]}]" for i, v in sorted(nz.items())])


def decomposition_text(D: Decomposition) -> Iterator[str]:
    """The canonical JSON text of D's terms, a list of {"a", "b", "c"}
    sparse vectors, made term by term from the raw maps.  Each distinct
    value is spelled once; a map is spelled each time a term holds it, as
    maps made during the walk are freed and their ids reused, unless it is
    the previous term's ``a``, which the writer still holds (the star terms
    of one row share it)."""
    vec = _Spelled().pairs

    def terms() -> Iterator[str]:
        last = head = None
        for a, b, c in D.raw:
            if a is not last:
                last, head = a, f'{{"a":[{vec(a)}],"b":['
            yield f'{head}{vec(b)}],"c":[{vec(c)}]}}'

    return _list_text(terms())


def sym_decomposition_text(D: SymDecomposition) -> Iterator[str]:
    """The canonical JSON text of D's cube terms, a list of {"s", "v"}
    objects, made term by term from the raw pairs as decomposition_text
    makes a tensor's."""
    spelled = _Spelled()
    return _list_text(f'{{"s":{spelled[s]},"v":[{spelled.pairs(v)}]}}' for s, v in D.raw)


_skip_space = json.decoder.WHITESPACE.match
_scan = json.JSONDecoder().scan_once
_WINDOW = 1 << 16  # characters of a file's text read at a time


class _Window:
    """A file's text, given in pieces, seen through a buffer: the text read
    so far that the walk has not consumed.  A lookahead that reaches the
    end of the buffer reads one more piece first, and text before the
    position it reads from is dropped then; so the buffer holds at most one
    piece and the value being decoded.  Text that is kept, a value longer
    than a window or the text from ``keep`` on, at least doubles at each
    read, so that it is scanned and copied only a few times.  A text given
    whole is one piece, and never dropped.

    Positions are indices into ``buf``; a read that may get more text
    returns the position it ends at in the new buffer.  ``start`` is the
    offset in the file of the buffer's first character, ``lines`` the count
    of newlines before it and ``line_start`` the offset after the last of
    them, so refusals name the line, column and character ``json.loads``
    would name on the whole text.  No text from offset ``keep`` on is
    dropped.
    """

    def __init__(self, pieces: Iterable[str]):
        self.pieces = iter(pieces)
        self.buf = ""
        self.start = self.lines = self.line_start = 0
        self.keep: int | None = None
        self.done = False  # every piece has been read
        self.more(0)

    def more(self, pos: int) -> int:
        """``pos`` in the buffer once more text is read; ``done`` if none is left."""
        buf = self.buf
        drop = pos if self.keep is None else min(pos, self.keep - self.start)
        kept = len(buf) - drop
        want = kept if kept > _WINDOW else 1
        parts = []
        for piece in self.pieces:
            parts.append(piece)
            want -= len(piece)
            if want <= 0:
                break
        else:
            self.done = True
        if not parts:
            return pos
        if drop:
            self.lines += buf.count("\n", 0, drop)
            newline = buf.rfind("\n", 0, drop)
            if newline >= 0:
                self.line_start = self.start + newline + 1
            self.start += drop
        # with nothing kept, a single piece becomes the buffer uncopied
        self.buf = "".join([buf[drop:], *parts] if kept else parts)
        return pos - drop

    def fail(self, message: str, pos: int):
        """Refuse the text at ``pos`` as ``json.loads`` words it."""
        buf, at = self.buf, self.start + pos
        newline = buf.rfind("\n", 0, pos)
        column = pos - newline if newline >= 0 else at - self.line_start + 1
        line = self.lines + buf.count("\n", 0, pos) + 1
        raise ParseError(f"invalid JSON: {message}: line {line} column {column} (char {at})", at)

    def space(self, pos: int) -> int:
        """The position past the whitespace at ``pos``, with a character
        there unless the text ends there."""
        while True:
            buf = self.buf
            # canonical text has no whitespace: look at one character before a match
            if buf[pos : pos + 1] in " \t\n\r":
                pos = _skip_space(buf, pos).end()
            if pos < len(buf) or self.done:
                return pos
            pos = self.more(pos)

    def peek(self, pos: int) -> tuple[int, str]:
        """The position past the whitespace at ``pos``, and the character
        there ('' at the end of the text)."""
        pos = self.space(pos)
        return pos, self.buf[pos : pos + 1]

    def value(self, pos: int) -> tuple[Any, int]:
        """The JSON value at ``pos``, whitespace skipped, and the position
        after it.  A value counts once the text after it is read: a number
        decoded two characters or less before the buffer's end may go on
        (its '.' or 'e' is checked for digits after it), and one that fails
        to decode may be cut."""
        if self.buf[pos : pos + 1] in " \t\n\r":  # whitespace, or the buffer's end: '' is in any str
            pos = self.space(pos)
        while True:
            buf = self.buf
            try:
                value, end = _scan(buf, pos)
                if end + 2 < len(buf) or self.done or type(value) not in (int, float):
                    return value, end
            except StopIteration as e:
                if self.done:
                    self.fail("Expecting value", e.value)
            except json.JSONDecodeError as e:
                if self.done:
                    self.fail(e.msg, e.pos)
            pos = self.more(pos)

    def after_item(self, pos: int, close: str) -> tuple[int, bool]:
        """The position after the ',' or the ``close`` that follows ``pos``,
        whitespace skipped, and whether it was ``close``."""
        if self.buf[pos : pos + 1] == ",":  # as canonical text spells it
            return pos + 1, False
        pos, c = self.peek(pos)
        if c != "," and c != close:
            self.fail("Expecting ',' delimiter", pos)
        return pos + 1, c == close


class _Items:
    """The items of the JSON list whose '[' is at ``pos`` of a window,
    decoded one at a time as they are iterated; ``end`` is the position
    after the list once every item has been."""

    def __init__(self, window: _Window, pos: int):
        self.window, self.pos, self.end = window, pos, None

    def __iter__(self) -> Iterator:
        window = self.window
        pos, c = window.peek(self.pos + 1)
        done = c == "]"
        pos += done
        while not done:
            item, pos = window.value(pos)
            yield item
            pos, done = window.after_item(pos, "]")
        self.end = pos


def _walk_object(window: _Window, member: Callable[[str, int], int]) -> None:
    """Walk the one top-level object of a window's text: ``member(key,
    pos)`` reads the value of each member, which starts at ``pos``, and
    returns the position after it.  A text that is not one JSON object is
    refused, with the message ``json.loads`` gives, and so is a key that
    comes twice."""
    pos, c = window.peek(0)
    if c != "{":
        if window.start == 0 and window.buf.startswith("\ufeff"):
            window.fail("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
        pos = window.space(window.value(pos)[1])
        if pos < len(window.buf):
            window.fail("Extra data", pos)
        raise ParseError("top-level JSON value must be an object", 0)
    keys = set()
    pos, c = window.peek(pos + 1)
    done = c == "}"
    pos += done
    while not done:
        pos, c = window.peek(pos)
        if c != '"':
            window.fail("Expecting property name enclosed in double quotes", pos)
        key, pos = window.value(pos)  # a string, as it starts with '"'
        pos, c = window.peek(pos)
        if c != ":":
            window.fail("Expecting ':' delimiter", pos)
        if key in keys:
            raise ParseError(f"field {key!r} is repeated", 0)
        keys.add(key)
        pos, done = window.after_item(member(key, pos + 1), "}")
    pos = window.space(pos)
    if pos < len(window.buf):
        window.fail("Extra data", pos)


_LISTED = {"terms": "a list of objects", "matrix": "a nonempty list of nonempty rows"}  # each witness's list


def _read_terms(
    window: _Window, pos: int, name: str, planned: tuple | None, term: Callable, total: Callable
) -> tuple[int | None, Any, int]:
    """The count of the terms, the items of the list member ``name`` whose
    value starts at ``pos``, their total, and the position after it.  Given
    ``planned``, a witness's (ring, shape, limit), each term is read by
    ``term(item, ring, shape, seen)``, refused if malformed, and the first
    ``limit`` go to ``total(terms, shape, ring)``; the total is None if
    there are more.  With None for ``planned`` the value is only stepped
    over, the rest of the text read, as it is kept: where ``_FLAT_LISTS``
    matches it, as it matches W, none of its items is decoded.  The count
    and total are then None."""
    pos, c = window.peek(pos)
    if planned is None:
        while not window.done:
            pos = window.more(pos)
        if match := _FLAT_LISTS.match(window.buf, pos):
            return None, None, match.end()
        if c != "[":
            return None, None, window.value(pos)[1]
        items = _Items(window, pos)
        for _ in items:
            pass
        return None, None, items.end
    if c != "[":
        raise ParseError(f"{name} must be {_LISTED[name]}", 0)
    items = _Items(window, pos)
    ring, shape, limit = planned
    seen: dict = {}  # each distinct spelling is parsed once
    count = 0

    def terms():
        nonlocal count
        for item in items:
            count += 1
            read = term(item, ring, shape, seen)
            if count <= limit:
                yield read

    result = total(terms(), shape, ring)
    return count, result if count <= limit else None, items.end


def _witness_terms(
    pieces: Iterable[str], plan: Callable[[dict], tuple], name: str, term: Callable, total: Callable
) -> tuple:
    """The ring, shape and term count of a witness, and the total of its
    terms, the items of its list member ``name``, read from its text, given
    in pieces, with no tree of it.

    The top-level object is walked member by member through one window:
    each member but ``name`` is decoded whole, and the terms one at a
    time, as ``_read_terms`` reads them, the text of each let go once it
    is read.  ``plan`` checks the other members and returns the witness's
    (ring, shape, limit): how many terms to total at most.  It is called
    first on the members before the terms; where those fail it, the terms
    are only stepped over, their text kept, and read once the whole text
    has been.  Every refusal of the text comes before the result; the
    total is None where more terms than ``limit`` are listed.
    """
    window = _Window(pieces)
    header: dict = {}
    found = None  # the plan the terms were read by, and what they gave

    def member(key: str, pos: int) -> int:
        nonlocal found
        if key != name:
            header[key], end = window.value(pos)
            return end
        try:
            planned = plan(_checked(header))
        except ParseError:  # refused below, or passed once every member is known
            planned = None
            window.keep = window.start + pos
        found = (planned, *_read_terms(window, pos, name, planned, term, total))
        return found[-1]

    _walk_object(window, member)
    planned = plan(_checked(header))
    if found is None:
        raise ParseError(f"missing field {name!r}", 0)
    reached, count, result, _ = found
    if reached is None:  # the whole text has been read, from the terms on
        count, result, _ = _read_terms(window, window.keep - window.start, name, planned, term, total)
    return planned[0], planned[1], count, result


def _tensor_term(item, ring: RingDescriptor, dims: tuple, seen: dict) -> tuple:
    if not isinstance(item, dict):
        raise ParseError("decomposition terms must be objects", 0)
    n1, n2, n3 = dims
    return (
        raw_vec_from_json(ring, n1, _need(item, "a"), seen),
        raw_vec_from_json(ring, n2, _need(item, "b"), seen),
        raw_vec_from_json(ring, n3, _need(item, "c"), seen),
    )


def tensor_witness_sum(pieces: Iterable[str], plan: Callable[[dict], tuple]) -> tuple:
    """The ring, dims and term count of a tensor witness, and the exact sum
    of its terms as ``sum_terms_raw`` makes it, read by ``_witness_terms``
    with ``plan`` giving (ring, dims, limit): each term is read into raw
    (a, b, c) maps and added to the sum as it is."""
    return _witness_terms(pieces, plan, "terms", _tensor_term, sum_terms_raw)


def _cube_term(item, ring: RingDescriptor, dim: int, seen: dict) -> tuple:
    if not isinstance(item, dict):
        raise ParseError("decomposition terms must be objects", 0)
    spelling = _need(item, "s")
    s = seen.get(spelling) if type(spelling) is str else None
    if s is None:
        s = seen[spelling] = _scalar(ring, spelling)  # refuses all but strings
    v = raw_vec_from_json(ring, dim, _need(item, "v"), seen)
    if not s:
        raise ParseError("zero coefficient terms are not stored")
    return s, v


def symmetric_witness_sum(pieces: Iterable[str], plan: Callable[[dict], tuple]) -> tuple:
    """The ring, dim and term count of a symmetric witness, and the exact
    sum of its cube terms as ``sum_sym_decomposition_raw`` makes it, read
    by ``_witness_terms`` with ``plan`` giving (ring, dim, limit): each
    term is fed to the grouped sum as it is read, and no list is made."""
    return _witness_terms(pieces, plan, "terms", _cube_term, sum_sym_decomposition_raw)


def completion_witness_rows(pieces: Iterable[str], plan: Callable[[dict], tuple]) -> tuple:
    """The ring and shape of a completion witness, as ``plan`` gives them
    with its (ring, shape, limit), its row count, and the rows of its
    matrix W as lists of raw values (None past ``limit`` rows), read by
    ``_witness_terms``: each row is decoded once, checked against row 0,
    and each distinct spelling in W parsed once."""
    widths: list[int] = []  # the cell count of each row read, row 0's first

    def row(item, ring: RingDescriptor, shape, seen: dict) -> list:
        if not isinstance(item, list):
            raise ParseError(f"matrix rows must be lists, got {type(item).__name__}", 0)
        if not widths and not item:
            raise ParseError(f"matrix must be {_LISTED['matrix']}", 0)
        if widths and len(item) != widths[0]:
            raise ParseError(f"ragged matrix: row {len(widths)} has {len(item)} cells, row 0 has {widths[0]}", 0)
        widths.append(len(item))
        try:  # a row of spellings read before, as W has few
            return [seen[v] for v in item]
        except (KeyError, TypeError):  # a new spelling, or a cell no string spells
            for v in item:
                if type(v) is not str or v not in seen:
                    seen[v] = _scalar(ring, v)  # refuses all but strings
            return [seen[v] for v in item]

    ring, shape, count, rows = _witness_terms(pieces, plan, "matrix", row, lambda rows, *_: list(rows))
    if not count:
        raise ParseError(f"matrix must be {_LISTED['matrix']}", 0)
    return ring, shape, count, rows


def tensor_witness_text(D: Decomposition) -> Iterator[str]:
    return _object_text(dims=list(D.dims), kind="tensor_witness", ring=str(D.ring), terms=decomposition_text(D))


def symmetric_witness_text(D: SymDecomposition) -> Iterator[str]:
    return _object_text(dim=D.dim, kind="symmetric_witness", ring=str(D.ring), terms=sym_decomposition_text(D))


def oracle_result_text(which: str, value, witness, exhausted: bool, lower_bound) -> Iterator[str]:
    """An oracle's result in pieces of canonical text; a Decomposition or
    SymDecomposition witness is written by its term writer, a DenseMatrix a
    row at a time, any other as a JSON value."""
    if isinstance(witness, Decomposition):
        witness = decomposition_text(witness)
    elif isinstance(witness, SymDecomposition):
        witness = sym_decomposition_text(witness)
    elif isinstance(witness, DenseMatrix):
        witness = _rows_text(witness.raw_grid)
    return _object_text(
        exhausted=exhausted, kind="oracle_result", lower_bound=lower_bound, oracle=which, value=value, witness=witness
    )
