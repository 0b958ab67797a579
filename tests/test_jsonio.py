import hashlib
import itertools
import json
import sys
from unittest import mock
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenred import jsonio
from tenred.certify import read_instance
from tenred.errors import ParseError
from tenred.jsonio import (
    assignment_from_json,
    assignment_to_json,
    canonical_dumps,
    completion_instance_text,
    completion_witness_text,
    decomposition_text,
    loads,
    oracle_result_text,
    sym_decomposition_text,
    symmetric_instance_text,
    symmetric_witness_text,
    symtensor_parse,
    system_from_json,
    system_to_json,
    tensor_parse,
    tensor_instance_text,
    tensor_witness_text,
)
from tenred.linalg import DenseMatrix
from tenred.polysys import PolySystem, parse_polynomial
from tenred.rings import GF, QQ, ZZ
from tenred.sigma import build_B, completion_witness
from tenred.symmetric import (
    SymDecomposition,
    build_curly_T,
    embed_S,
    padded_size,
)
from tenred.tensors import (
    Decomposition,
    Tensor3,
    Walk,
    build_derksen,
    pad_cubical,
)

from reference import (
    completion_instance_file,
    completion_witness_file,
    dense,
    entries_to_json,
    matrix_to_json,
    point,
    polysystem_file,
    raw_matrix_from_json,
    read_instance_tree,
    sum_decomposition_raw,
    sym_decomposition_to_json,
    symmetric_instance_file,
    symmetric_witness_parse,
    symmetric_witness_tree,
    symtensor_file,
    unpacked,
)

# the tensor instance of {x1} over GF(2), as the CLI fixture pins it
X1_GF2_TENSOR_INSTANCE_SHA256 = "91390fb3103ba25083750c54b51bb7d3e3eb436957e20ebf2f71c19d658c8c08"


def _system(texts, num_vars, ring):
    return PolySystem(ring, num_vars, [parse_polynomial(t, num_vars, ring) for t in texts])


def vec_to_json(v):
    return [[i, str(x)] for i, x in sorted(v.items())]


def vec_from_json(ring, n, data, seen=None):
    return jsonio.raw_vec_from_json(ring, n, data, seen)


def decomposition_from_json(ring, dims, data):
    """The terms of a tensor witness as a Decomposition held in memory;
    verify reads the same terms straight into the exact sum."""
    if not isinstance(data, list) or not all(isinstance(item, dict) for item in data):
        raise ParseError("terms must be a list of objects", 0)
    seen = {}
    terms = [
        tuple(vec_from_json(ring, n, jsonio._need(item, key), seen) for n, key in zip(dims, "abc"))
        for item in data
    ]
    return Decomposition(ring, tuple(dims), terms)


def tensor_witness_parse(obj):
    return decomposition_from_json(jsonio._ring_of(obj), jsonio._dims_of(obj), jsonio._need(obj, "terms"))


def tensor_file(T):
    """A bare tensor file: a tensor with no system and no target."""
    return {
        "format_version": jsonio.FORMAT_VERSION,
        "kind": "tensor",
        "ring": str(T.ring),
        "dims": list(T.dims),
        "entries": entries_to_json(T.entries),
    }


def tensor_instance_file(inst, B):
    """The tensor instance file of inst as a JSON tree: the reference for
    tensor_instance_text."""
    return {
        "format_version": 1,
        "kind": "tensor_instance",
        "ring": str(inst.tensor.ring),
        "dims": list(inst.tensor.dims),
        "entries": entries_to_json(inst.tensor.entries),
        "tau": inst.tau,
        "star_map": [[i, j] for i, j in B.stars()],
        "target_rank": inst.target_rank,
        "system": system_to_json(B.system),
        "labels": [[str(f) for f in lab.coords] for lab in B.row_labels],
    }


def decomposition_to_json(D):
    """The terms of D as a JSON tree, one {"a", "b", "c"} object of
    [index, "value"] pairs per term: the reference for decomposition_text."""
    return [{"a": vec_to_json(a), "b": vec_to_json(b), "c": vec_to_json(c)} for a, b, c in D.raw]


def tensor_witness_tree(D):
    """The tensor witness file of D as a JSON tree."""
    return {
        "format_version": 1,
        "kind": "tensor_witness",
        "ring": str(D.ring),
        "dims": list(D.dims),
        "terms": decomposition_to_json(D),
    }


def test_canonical_dumps_is_byte_stable():
    a = canonical_dumps({"b": 1, "a": [2, 3]})
    assert a == '{"a":[2,3],"b":1}\n'
    assert canonical_dumps({"a": [2, 3], "b": 1}) == a


def test_loads_validation():
    ok = loads('{"format_version":1,"kind":"tensor"}')
    assert ok["kind"] == "tensor"
    with pytest.raises(ParseError):
        loads("not json")
    with pytest.raises(ParseError):
        loads("[1,2]")
    with pytest.raises(ParseError):
        loads('{"format_version":2,"kind":"tensor"}')
    with pytest.raises(ParseError):
        loads('{"format_version":1}')


@pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
def test_loads_refuses_a_format_version_that_only_equals_1(version):
    with pytest.raises(ParseError, match="unsupported format_version"):
        loads('{"format_version":%s,"kind":"tensor"}' % version)


def _walked_members(text, size):
    """The top-level members of a text read in pieces of ``size``
    characters, each decoded whole by the member walk, or the refusal."""
    window = jsonio._Window(text[i : i + size] for i in range(0, len(text), size))
    obj = {}

    def member(key, pos):
        obj[key], end = window.value(pos)
        return end

    try:
        jsonio._walk_object(window, member)
    except ParseError as e:
        return str(e)
    return obj


_MEMBER_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@settings(derandomize=True, database=None, max_examples=200)
@given(
    obj=st.dictionaries(st.text(max_size=3), _MEMBER_VALUES, max_size=4),
    indent=st.sampled_from([None, 1]),
    cut=st.none() | st.integers(0, 200),
    size=st.integers(1, 9),
)
@example(obj={"a": 1.5e16, "b": -0.25}, indent=None, cut=None, size=7)  # "1.5e+16" cut after "e" and "+"
def test_a_text_reads_alike_in_pieces_of_any_size(obj, indent, cut, size):
    # the walk reads a text a piece at a time: a number cut before its
    # '.', 'e' or sign, or any token cut where a piece ends, reads as the
    # whole text reads, and a text with one character taken out is refused
    # with the same message, at the same line, column and character
    text = json.dumps(obj, indent=indent)
    if cut is not None:
        text = text[:cut] + text[cut + 1 :]
    whole = _walked_members(text, max(1, len(text)))
    if cut is None:
        assert whole == json.loads(text)
    assert _walked_members(text, size) == whole


def test_vec_round_trip():
    v = {1: Fraction(-3, 7), 3: Fraction(2)}
    data = vec_to_json(v)
    assert data == [[1, "-3/7"], [3, "2"]]
    assert vec_from_json(QQ, 4, data) == v
    # a repeated index takes its last value, and a zero is not stored
    assert vec_from_json(QQ, 2, [[0, "1"], [0, "0"]]) == {}
    assert vec_from_json(QQ, 2, [[0, "0"], [0, "2"]]).get(0) == Fraction(2)
    with pytest.raises(ParseError):
        vec_from_json(QQ, 4, [[1, 2]])
    with pytest.raises(ParseError):
        vec_from_json(QQ, 2, [[5, "1"]])
    with pytest.raises(ParseError):
        vec_from_json(QQ, 2, "oops")


def _read_matrix(ring, data):
    """The rows of W as verify reads them, a row at a time, from a witness
    whose matrix member is ``data``."""
    wit = {"format_version": 1, "kind": "completion_witness", "matrix": data, "ring": str(ring)}
    _, _, _, rows = jsonio.completion_witness_rows([canonical_dumps(wit)], lambda head: (ring, None, sys.maxsize))
    return rows


def test_matrix_round_trip():
    m = dense(GF(5), [[1, 7], [-1, 0]])
    data = matrix_to_json(m)
    assert data == [["1", "2"], ["4", "0"]]
    assert _read_matrix(GF(5), data) == m.raw_rows()
    with pytest.raises(ParseError):
        _read_matrix(GF(5), [])
    # an oracle's completion is written a row at a time, as the tree dumps
    tree = {"format_version": 1, "kind": "oracle_result", "oracle": "minrank", "value": 2}
    tree.update(exhausted=True, lower_bound=2, witness=data)
    assert "".join(oracle_result_text("minrank", 2, m, True, 2)) == canonical_dumps(tree)


def test_decomposition_json_reads_each_spelling_once():
    vec = [[0, "1/2"], [1, "0"]]
    D = decomposition_from_json(QQ, (2, 2, 2), [{"a": vec, "b": vec, "c": [[1, "1/2"]]}])
    ((a, b, c),) = D.raw
    # vectors are maps of raw values, zeros omitted
    assert a == {0: Fraction(1, 2)}
    assert a[0] is b[0] is c[1]
    assert a.get(0) == Fraction(1, 2) and 1 not in a
    for bad in ([[0, "1"], [2, "1"]], [[-1, "1"]], [[0, 1]], [[0, "x"]], [["0", "1"]], 5):
        with pytest.raises(ParseError):
            decomposition_from_json(QQ, (2, 2, 2), [{"a": bad, "b": vec, "c": vec}])


def test_matrix_json_over_q_reads_each_spelling_once():
    vals = [[Fraction(-3, 4), Fraction(2)], [Fraction(0), Fraction(7, 5)]]
    m = DenseMatrix(QQ, vals)
    data = matrix_to_json(m)
    assert data == [["-3/4", "2"], ["0", "7/5"]]
    assert data == [[str(s) for s in r] for r in m.raw_grid]
    assert _read_matrix(QQ, data) == m.raw_rows()
    # equal spellings share one value; different spellings of one value
    # are each read, and both read to that value
    back = _read_matrix(QQ, [["1/2", "2/4"], [" 1/2", "1/2"], ["2/4", "1/2"]])
    assert back[0][0] is back[1][1] is back[2][1]
    assert back[0][0] is not back[0][1]
    assert {v for r in back for v in r} == {Fraction(1, 2)}
    # the row reader refuses what the tree reader refused, with its message
    for bad in (
        [["1", 2]],
        [["1", None]],
        [["1", ["1"]]],
        [["1", {}]],
        [["1", "1/0"]],
        [["1", "x"]],
        [["1"], ["1", "2"]],
        [["1", "2"], ["1"], 5],
        [["1", "x"], ["1"]],
        [[]],
        [[], 5],
        [],
        ["1"],
        5,
    ):
        with pytest.raises(ParseError) as want:
            raw_matrix_from_json(QQ, bad)
        with pytest.raises(ParseError) as got:
            _read_matrix(QQ, bad)
        assert str(got.value) == str(want.value), bad


def test_system_round_trip():
    F = _system(["x1^2 - x2", "2*x1 + 1"], 2, ZZ)
    data = system_to_json(F)
    assert system_from_json(data) == F
    with pytest.raises(ParseError):
        system_from_json({"ring": "Z", "num_vars": -1, "polynomials": []})
    with pytest.raises(ParseError):
        system_from_json({"ring": "W", "num_vars": 1, "polynomials": []})
    file_obj = polysystem_file(F)
    assert file_obj["kind"] == "polysystem"
    assert loads(canonical_dumps(file_obj)) == file_obj


def test_assignment_round_trip():
    a = point(GF(7), [3, 12])
    data = assignment_to_json(a)
    assert data == ["3", "5"]
    assert assignment_from_json(GF(7), data) == a
    with pytest.raises(ParseError):
        assignment_from_json(GF(7), "nope")


def test_completion_instance_round_trip():
    F = _system(["x1"], 1, GF(11))
    B = build_B(F)
    obj = completion_instance_file(B)
    assert obj["tau"] == B.tau
    text = "".join(completion_instance_text(B))
    assert text == canonical_dumps(obj)
    back = read_instance(text).B
    assert back.raw_grid == B.raw_grid
    assert back.row_labels == B.row_labels
    assert back.system == F
    assert "".join(completion_instance_text(back)) == text


def test_completion_instance_requires_labels():
    from tenred.sigma import IncompleteMatrix

    bare = IncompleteMatrix(GF(2), [[1, None]])
    with pytest.raises(ValueError):
        completion_instance_text(bare)


def test_completion_witness_file_shape():
    F = _system(["x1"], 1, GF(11))
    pt = point(GF(11), [0])
    W = completion_witness(build_B(F), pt)
    obj = json.loads("".join(completion_witness_text(pt, W)))
    assert obj["kind"] == "completion_witness"
    assert obj["assignment"] == ["0"]
    assert _read_matrix(GF(11), obj["matrix"]) == W.raw_rows()


# a system, its ring, and a solution in the ring a witness is over: Q for
# an integer system, whose witness cells are then Fractions
_COMPLETIONS = {
    "gf2": (["x1"], GF(2), 0),
    "q-half": ([], QQ, Fraction(1, 2)),
    "z-instance-q-witness": (["x1 - x1^2"], ZZ, 1),
    "z-half": ([], ZZ, Fraction(-1, 2)),
}


@pytest.mark.parametrize("chunk", [1, 3, 40, jsonio._CHUNK])
@pytest.mark.parametrize("case", sorted(_COMPLETIONS))
def test_completion_texts_match_the_tree_writers(case, chunk):
    # the instance and the witness written a row at a time, a chunk of
    # about _CHUNK cells per piece, are the canonical dumps of their trees
    texts, ring, value = _COMPLETIONS[case]
    F = _system(texts, 1, ring)
    B = build_B(F)
    pt = point(QQ if ring == ZZ else ring, [value])
    W = completion_witness(B.change_ring(pt.ring), pt)
    assert W.ring == (QQ if ring == ZZ else ring)
    with mock.patch.object(jsonio, "_CHUNK", chunk):
        pieces = list(completion_instance_text(B))
        witness = list(completion_witness_text(pt, W))
    assert "".join(pieces) == canonical_dumps(completion_instance_file(B))
    assert "".join(witness) == canonical_dumps(completion_witness_file(pt, W))
    # a piece before the grid and one after it; the rows in chunks, then "]"
    rows_per_piece = max(1, chunk // B.ncols)
    assert len(pieces) == len(witness) == 3 + -(-B.nrows // rows_per_piece)


def test_tensor_round_trip():
    T = Tensor3(ZZ, (2, 2, 3), {(0, 1, 2): -4, (1, 0, 0): 9})
    obj = tensor_file(T)
    assert tensor_parse(loads(canonical_dumps(obj))) == T
    with pytest.raises(ParseError):
        tensor_parse({"format_version": 1, "kind": "tensor", "ring": "Z", "dims": [2, 2], "entries": []})
    with pytest.raises(ParseError):
        tensor_parse(
            {"format_version": 1, "kind": "tensor", "ring": "Z", "dims": [2, 2, 2], "entries": [[0, 0, 0]]}
        )
    with pytest.raises(ParseError):
        tensor_parse(
            {"format_version": 1, "kind": "tensor", "ring": "Z", "dims": [1, 1, 1], "entries": [[0, 0, 5, "1"]]}
        )


def test_tensor_instance_round_trip():
    F = _system(["x1"], 1, GF(11))
    B = build_B(F)
    inst = build_derksen(B)
    obj = tensor_instance_file(inst, B)
    assert obj["target_rank"] == inst.tau + 3
    text = canonical_dumps(obj)
    red = read_instance(text)
    back, F2 = red.expected, red.B.system
    assert red.tensor == inst.tensor
    assert red.target_rank == inst.target_rank
    assert back.tensor == inst.tensor
    assert back.tau == inst.tau
    assert back.star_map == inst.star_map
    assert F2 == F
    # the reconstructed source supports the full downstream pipeline
    assert back.source.raw_grid == B.raw_grid
    assert back.source.row_labels == B.row_labels
    assert back.source.system == F
    assert canonical_dumps(tensor_instance_file(back, back.source)) == text


def test_tensor_instance_rejects_inconsistency():
    F = _system(["x1"], 1, GF(11))
    B = build_B(F)
    inst = build_derksen(B)
    obj = tensor_instance_file(inst, B)
    bad = dict(obj, tau=obj["tau"] + 1)
    with pytest.raises(ParseError):
        read_instance(canonical_dumps(bad))
    bad2 = dict(obj, labels=obj["labels"][:-1])
    with pytest.raises(ParseError):
        read_instance(canonical_dumps(bad2))


@st.composite
def _small_reduction(draw):
    """A small system over one of the four rings, reduced to its star-slice tensor."""
    ring = draw(st.sampled_from([GF(2), GF(11), QQ, ZZ]))
    num_vars = draw(st.integers(0, 1))
    texts = draw(st.lists(st.sampled_from(["x1", "-x1"]), max_size=2, unique=True)) if num_vars else []
    B = build_B(_system(texts, num_vars, ring))
    return build_derksen(B), B


@settings(derandomize=True, database=None, max_examples=30)
@given(case=_small_reduction(), chunk=st.sampled_from([1, 2, 3, 7, jsonio._CHUNK]))
def test_tensor_instance_text_matches_the_tree_writer(case, chunk):
    # the instance written in pieces, a chunk of entries or stars at a
    # time, is the canonical dump of its JSON tree, and reads back as itself
    inst, B = case
    with mock.patch.object(jsonio, "_CHUNK", chunk):
        pieces = list(tensor_instance_text(inst, B))
    text = "".join(pieces)
    assert text == canonical_dumps(tensor_instance_file(inst, B))
    # three fixed pieces, then each list in chunks and its closing bracket
    assert len(pieces) == 5 + -(-inst.tensor.nnz // chunk) + -(-inst.tau // chunk)
    assert read_instance(text).tensor == inst.tensor


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, jsonio._CHUNK])
@pytest.mark.parametrize("ring", [GF(11), QQ], ids=str)
def test_symmetric_instance_text_matches_the_tree_writer(ring, chunk):
    # the symmetric instance written in pieces, a chunk of entries or
    # stars at a time, is the canonical dump of its JSON tree, and reads
    # back as itself
    F, B, inst, m, S, target = _symmetric_instance(ring)
    with mock.patch.object(jsonio, "_CHUNK", chunk):
        pieces = list(symmetric_instance_text(S, target, m, B))
    text = "".join(pieces)
    assert text == canonical_dumps(symmetric_instance_file(S, target, m, inst, B))
    # three fixed pieces, then each list in chunks and its closing bracket
    assert len(pieces) == 5 + -(-S.nnz // chunk) + -(-inst.tau // chunk)
    red = read_instance(text)
    assert (red.tensor, red.target_rank) == (S, target)


def _x1_gf2_instance_text():
    B = build_B(_system(["x1"], 1, GF(2)))
    return canonical_dumps(tensor_instance_file(build_derksen(B), B))


def _one_entry_changed(text):
    pos = text.index("]", text.index('"entries":')) - 2  # the value of the first entry
    return text[:pos] + "0" + text[pos + 1 :]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text[:-1] + "}", "invalid JSON: Extra data: line 1 column 4431 (char 4430)"),
        (lambda text: text[:-3] + "1}\n", "tau 121 differs from the instance's 129, the reduction of its system"),
        (lambda text: text[:-5], "invalid JSON: Expecting value: line 1 column 4427 (char 4426)"),
        (lambda text: text + "x", "invalid JSON: Extra data: line 2 column 1 (char 4431)"),
        (
            _one_entry_changed,
            'entries [[0,0,0,"0"],[0,2,0,"1"],[0,4,0,"1"],[0,... differs from the instance\'s'
            ' [[0,0,0,"1"],[0,2,0,"1"],[0,4,0,"1"],[0,..., the reduction of its system',
        ),
    ],
    ids=["last-byte", "last-field", "truncated", "appended", "entry"],
)
def test_read_instance_refuses_an_edited_text(edit, message):
    # each piece of the rebuild is compared with the text where the last
    # one ended; where they part, the refusal names the field as before
    text = _x1_gf2_instance_text()
    assert hashlib.sha256(text.encode()).hexdigest() == X1_GF2_TENSOR_INSTANCE_SHA256
    with mock.patch.object(jsonio, "_CHUNK", 3):
        with pytest.raises(ParseError) as e:
            read_instance(edit(text))
    assert str(e.value) == f"{message} (at position {e.value.position})"


@pytest.fixture(scope="module")
def instance_texts():
    """Canonical texts of a completion, a tensor and a symmetric reduction
    instance and of a bare tensor file, each with the members read_instance
    steps over."""
    F, B, inst, m, S, target = _symmetric_instance(GF(11))
    bare = Tensor3(ZZ, (2, 2, 3), {(0, 1, 2): -4, (1, 0, 0): 9, (1, 1, 1): 12})
    return {
        "completion": (canonical_dumps(completion_instance_file(build_B(_system(["x1"], 1, QQ)))), ["grid"]),
        "tensor": (_x1_gf2_instance_text(), ["entries", "star_map"]),
        "symmetric": (canonical_dumps(symmetric_instance_file(S, target, m, inst, B)), ["entries", "star_map"]),
        "bare-tensor": (canonical_dumps(tensor_file(bare)), ["entries"]),
    }


def _span(text, key):
    """Where the value of a top-level member starts and ends in a text."""
    start = text.index(f'"{key}":') + len(key) + 3
    return start, json.JSONDecoder().raw_decode(text, start)[1]


def _first_index(spelling):
    """An edit that respells the first integer of the member's first item,
    or that lists one item of that spelling in an empty list."""

    def edit(text, start, end):
        if end - start == 2:
            return f"{text[:start]}[[{spelling}]]{text[end:]}"
        first = start + 2
        return text[:first] + spelling + text[text.index(",", first) :]

    return edit


# edits of the text of a member, given where its value starts and ends
_MEMBER_EDITS = {
    "none": lambda text, start, end: text,
    "whitespace": lambda text, start, end: text[: start + 1] + " " + text[start + 1 :],
    "01": _first_index("01"),
    "1.0": _first_index("1.0"),
    "true": _first_index("true"),
    "-0": _first_index("-0"),
    "string": _first_index('"1"'),
    "escaped-string": _first_index('"\\u0031"'),
    "control-character": _first_index('"\x01"'),
    "5000-digits": _first_index("9" * 5000),
    "nested": _first_index("[0]"),
    # the whole file, indented
    "indented": lambda text, start, end: json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n",
    "trailing-comma": lambda text, start, end: text[: end - 1] + ",]" + text[end:],
    "unterminated-string": lambda text, start, end: text[:start] + '[["1',
    # the whole member again after it, from its key's opening quote
    "key-twice": lambda text, start, end: text[:end] + "," + text[text.rfind('"', 0, start - 2) : end] + text[end:],
}


def _outcome(read, text):
    """What reading an instance text gives: the stage, target, tensor and
    grid of the reduction, or the type and message of the refusal, which is
    what picks verify's exit code and error line."""
    try:
        red = read(text)
    except (ParseError, ValueError) as e:
        return type(e), str(e)
    return red.stage, red.target_rank, red.tensor, red.B and red.B.raw_grid


@pytest.mark.parametrize("kind_twice", [False, True], ids=["kind-once", "kind-twice"])
@pytest.mark.parametrize("edit", sorted(_MEMBER_EDITS))
@pytest.mark.parametrize("which", ["completion", "tensor", "symmetric", "bare-tensor"])
def test_read_instance_agrees_with_the_tree_reader(which, edit, kind_twice, instance_texts):
    # stepping over the grid, entries and stars changes no outcome: any spelling
    # the pattern does not accept is decoded as the tree reader decodes it,
    # and what it accepts is checked byte for byte against the rebuild.  A
    # kind given again after every member is refused by the walk, after the
    # member: where the tree reader refuses the member's text first, the
    # pattern must not have accepted it
    text, keys = instance_texts[which]
    if kind_twice:
        text = text[:-2] + ',"kind":"tensor"}\n'
    for key in keys:
        edited = _MEMBER_EDITS[edit](text, *_span(text, key))
        want = _outcome(read_instance_tree, edited)
        assert _outcome(read_instance, edited) == want, key
        if edit in ("none", "indented") and not kind_twice:
            assert want[0] == ("tensor" if which == "bare-tensor" else which)


def test_read_instance_decodes_no_item_of_the_entries_or_stars(instance_texts, monkeypatch):
    # the JSON scanner is never started inside the grid, the entries or the
    # stars of a reduction instance; a bare tensor file's entries are
    # decoded whole
    starts = []
    real_scan = jsonio._scan
    monkeypatch.setattr(jsonio, "_scan", lambda text, pos: starts.append(pos) or real_scan(text, pos))
    for which, (text, keys) in instance_texts.items():
        starts.clear()
        read_instance(text)
        spans = [_span(text, key) for key in keys]
        if which == "bare-tensor":
            assert spans[0][0] in starts
        else:
            assert starts and not [pos for pos in starts for start, end in spans if start <= pos < end]


def test_tensor_witness_round_trip():
    ring = GF(5)
    D = Decomposition(ring, (2, 2, 2), [({0: 1}, {1: 1}, {0: 3, 1: 2})])
    text = "".join(tensor_witness_text(D))
    assert text == canonical_dumps(tensor_witness_tree(D))
    assert tensor_witness_parse(loads(text)) == D


def test_symtensor_round_trip():
    ring = GF(11)
    S = embed_S(Tensor3(ring, (1, 1, 1), {(0, 0, 0): 1}))
    obj = symtensor_file(S)
    back = symtensor_parse(loads(canonical_dumps(obj)))
    assert back == S
    with pytest.raises(ParseError):
        symtensor_parse(
            {"format_version": 1, "kind": "symtensor", "ring": "gf:11", "index_names": [1], "entries": []}
        )


def test_symmetric_witness_round_trip():
    ring = GF(11)
    D = SymDecomposition(ring, 3, [(4, {0: 1, 2: 7})])
    text = "".join(symmetric_witness_text(D))
    assert text == canonical_dumps(symmetric_witness_tree(D))
    assert symmetric_witness_parse(loads(text)) == D
    with pytest.raises(ParseError):
        symmetric_witness_parse(
            {"format_version": 1, "kind": "symmetric_witness", "ring": "gf:11", "dim": 0, "terms": []}
        )


def _symmetric_instance(ring):
    F = _system([], 0, ring)
    B = build_B(F, guard=None)
    inst = build_derksen(B)
    m = max(inst.tensor.dims)
    padded = pad_cubical(inst.tensor)
    S = build_curly_T(embed_S(padded), m)
    target = inst.target_rank + 9 * m * (m - 1) // 2 + 9 * m
    return F, B, inst, m, S, target


def test_symmetric_instance_round_trip():
    ring = GF(11)
    F, B, inst, m, S, target = _symmetric_instance(ring)
    obj = symmetric_instance_file(S, target, m, inst, B)
    text = canonical_dumps(obj)
    red = read_instance(text)
    S2, target2, inst2, F2 = red.tensor, red.target_rank, build_derksen(red.B), red.B.system
    m2 = max(inst2.tensor.dims)
    assert S2 == S
    assert target2 == target
    assert m2 == m
    assert inst2.tensor == inst.tensor
    assert inst2.star_map == inst.star_map
    assert inst2.source.raw_grid == B.raw_grid
    assert F2 == F
    assert S.size == padded_size(m)
    assert canonical_dumps(symmetric_instance_file(S2, target2, m2, inst2, inst2.source)) == text


def test_symmetric_instance_rejects_bad_sizes():
    ring = GF(11)
    F, B, inst, m, S, target = _symmetric_instance(ring)
    obj = symmetric_instance_file(S, target, m, inst, B)
    with pytest.raises(ParseError):
        read_instance(canonical_dumps(dict(obj, payload_size=m + 1)))
    with pytest.raises(ParseError):
        read_instance(canonical_dumps(dict(obj, tau=inst.tau + 1)))


def test_scalar_strings_reject_floats():
    with pytest.raises(ParseError):
        vec_from_json(QQ, 2, [[0, 1.5]])
    obj = json.loads(canonical_dumps(tensor_file(Tensor3(ZZ, (1, 1, 1), {}))))
    obj["entries"] = [[0, 0, 0, "0.5"]]
    with pytest.raises(ParseError):
        tensor_parse(obj)


# spellings of small values; Q also gets fractions and a decimal
_SPELLINGS = ["0", "-0", "1", "2", "3", "-1", "-2", "007", " 4 ", "+5", "12"]
_Q_SPELLINGS = _SPELLINGS + ["1/2", "-2/4", "3/3", "0.5", "0/7"]


def _witness_of(ring, terms, dims=(2, 2, 2)):
    return {"format_version": 1, "kind": "tensor_witness", "ring": ring, "dims": list(dims), "terms": terms}


@st.composite
def _tensor_witness(draw):
    ring = draw(st.sampled_from([GF(2), GF(11), QQ, ZZ]))
    dims = draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
    spelling = st.sampled_from(_Q_SPELLINGS if ring == QQ else _SPELLINGS)

    def vec(n):
        return st.lists(st.tuples(st.integers(0, n - 1), spelling).map(list), max_size=5)

    term = st.fixed_dictionaries({"a": vec(dims[0]), "b": vec(dims[1]), "c": vec(dims[2])})
    return _witness_of(str(ring), draw(st.lists(term, max_size=5)), dims)


def _reference_sum(obj):
    """The sum of a tensor witness file's terms by the textbook loop over
    Python ints and Fractions; a later pair for an index wins."""
    ring = obj["ring"]
    exact = Fraction if ring == "Q" else int
    acc = {}
    for t in obj["terms"]:
        a, b, c = ({i: exact(v.strip()) for i, v in t[f]} for f in "abc")
        for i, j, k in itertools.product(a, b, c):
            acc[i, j, k] = acc.get((i, j, k), 0) + a[i] * b[j] * c[k]
    if ring.startswith("gf:"):
        acc = {key: v % int(ring[3:]) for key, v in acc.items()}
    return {key: v for key, v in acc.items() if v}


def _read_all(wit):
    """The plan of a reader that sums every term."""
    return jsonio._ring_of(wit), jsonio._dims_of(wit), sys.maxsize


@settings(derandomize=True, database=None, max_examples=150)
@given(obj=_tensor_witness())
# a repeated index, whose later "0" wins; "3" respelling 1 over GF(2)
@example(obj=_witness_of("gf:2", [{"a": [[0, "1"], [1, "3"]], "b": [[1, "1"], [1, "0"], [0, "3"]], "c": [[0, "1"]]}]))
@example(obj=_witness_of("gf:11", [{"a": [[0, "12"]], "b": [[0, "-10"]], "c": [[1, "5"], [1, "0"]]}] * 2))
@example(obj=_witness_of("Q", [{"a": [[1, "2/4"], [1, "1/2"]], "b": [[0, "1"]], "c": [[0, "0"], [0, "-1/2"]]}]))
@example(
    obj=_witness_of(
        "Z",
        [{"a": [[0, "2"], [0, "0"]], "b": [[0, "1"]], "c": [[0, "1"]]}, {"a": [[1, "-0"]], "b": [[1, "1"]], "c": [[1, "1"]]}],
    )
)
def test_streamed_witness_sum_matches_the_decomposition_sum(obj):
    # verify sums the raw maps as it reads the terms from the text; the same
    # file read into a Decomposition held in memory must sum to the same map
    ring, dims, count, total = jsonio.tensor_witness_sum([canonical_dumps(obj)], _read_all)
    assert (str(ring), list(dims), count) == (obj["ring"], obj["dims"], len(obj["terms"]))
    assert unpacked(total, ring, dims) == sum_decomposition_raw(tensor_witness_parse(obj)) == _reference_sum(obj)


@st.composite
def _shared_raw_terms(draw):
    """A ring, dims and raw (a, b, c) terms drawn from a few maps per axis,
    so that terms share map objects as the star terms of a witness do."""
    ring = draw(st.sampled_from([GF(2), GF(11), QQ, ZZ]))
    dims = draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
    spelling = st.sampled_from(_Q_SPELLINGS if ring == QQ else _SPELLINGS)
    value = spelling.map(ring.parse)

    def raw_map(n):
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), value), max_size=4))
        return {i: v for i, v in pairs if v}

    pools = [[raw_map(n) for _ in range(draw(st.integers(1, 3)))] for n in dims]
    terms = draw(st.lists(st.tuples(*(st.sampled_from(pool) for pool in pools)), max_size=6))
    return ring, dims, terms


@settings(derandomize=True, database=None, max_examples=150)
@given(case=_shared_raw_terms())
def test_raw_decomposition_matches_its_boxed_terms(case):
    # a Decomposition holds raw maps; writing them as a tree, one term at a
    # time, and term by term as text must all agree with the maps
    ring, dims, raw = case
    D = Decomposition(ring, dims, raw)
    assert D == Decomposition(ring, dims, list(raw)) and len(D) == len(raw)
    reference = [{"a": vec_to_json(a), "b": vec_to_json(b), "c": vec_to_json(c)} for a, b, c in raw]
    assert decomposition_to_json(D) == reference
    assert "".join(decomposition_text(D)) + "\n" == canonical_dumps(reference)


@st.composite
def _walked_terms(draw):
    """A ring, dims, a few maps per axis, and terms that each pick one map
    per axis, either the shared map itself or a copy made when the term is."""
    ring, dims, _ = draw(_shared_raw_terms())
    value = st.sampled_from(_Q_SPELLINGS if ring == QQ else _SPELLINGS).map(ring.parse)

    def raw_map(n):
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), value), max_size=4))
        return {i: v for i, v in pairs if v}

    pools = [[raw_map(n) for _ in range(draw(st.integers(1, 3)))] for n in dims]
    pick = st.tuples(*(st.tuples(st.integers(0, len(pool) - 1), st.booleans()) for pool in pools))
    return ring, dims, pools, draw(st.lists(pick, max_size=8))


def _walked(ring, dims, pools, picks):
    """A Decomposition whose terms are made each time it is walked; a map
    picked as a copy is freed once its term has been written."""

    def walk():
        for pick in picks:
            yield tuple({**pool[n]} if copy else pool[n] for pool, (n, copy) in zip(pools, pick))

    return Decomposition(ring, dims, Walk(len(picks), walk))


# copies of two different maps: a copy is freed when the term after next
# is made, which may take its place and so its id
@example(
    case=(
        GF(11),
        (2, 1, 1),
        [[{0: 1}, {1: 3}], [{0: 1}], [{0: 1}]],
        [((n, True), (0, False), (0, False)) for n in (0, 1, 1)],
    )
)
@example(
    case=(
        QQ,
        (1, 2, 2),
        [[{0: Fraction(1, 2)}], [{0: 1}, {1: Fraction(-2, 3), 0: 5}], [{}]],
        [((0, False), (n, True), (0, True)) for n in (0, 1, 1, 0)],
    )
)
@settings(derandomize=True, database=None, max_examples=150)
@given(case=_walked_terms())
def test_text_writer_matches_the_tree_writer(case):
    # the witness text, written from maps shared by many terms or made and
    # freed during the walk, equals the canonical dump of the JSON tree
    D = _walked(*case)
    assert "".join(tensor_witness_text(D)) == canonical_dumps(tensor_witness_tree(D))
    assert len(D) == len(case[3])


@st.composite
def _sym_terms(draw):
    """A ring, a dim and raw (s, v) cube terms, some of them sharing a map."""
    ring = draw(st.sampled_from([GF(2), GF(11), QQ, ZZ]))
    dim = draw(st.integers(1, 4))
    value = st.sampled_from(_Q_SPELLINGS if ring == QQ else _SPELLINGS).map(ring.parse).filter(bool)
    maps = draw(st.lists(st.dictionaries(st.integers(0, dim - 1), value, min_size=1, max_size=3), min_size=1, max_size=3))
    return ring, dim, draw(st.lists(st.tuples(value, st.sampled_from(maps)), max_size=6))


@settings(derandomize=True, database=None, max_examples=150)
@given(case=_sym_terms())
def test_symmetric_text_writer_matches_the_tree_writer(case):
    # the witness text and an oracle result holding the cubes have the bytes
    # of the canonical dump of the JSON tree, and read back as the cubes
    D = SymDecomposition(*case)
    text = "".join(symmetric_witness_text(D))
    assert text == canonical_dumps(symmetric_witness_tree(D))
    assert symmetric_witness_parse(loads(text)) == D
    result = oracle_result_text("srank", len(D), D, True, 0)
    tree = {
        "format_version": 1,
        "kind": "oracle_result",
        "oracle": "srank",
        "value": len(D),
        "exhausted": True,
        "lower_bound": 0,
        "witness": sym_decomposition_to_json(D),
    }
    assert "".join(result) == canonical_dumps(tree)
    assert "".join(sym_decomposition_text(D)) + "\n" == canonical_dumps(sym_decomposition_to_json(D))
