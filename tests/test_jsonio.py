import json
from fractions import Fraction

import pytest

from tenred.errors import ParseError
from tenred.jsonio import (
    assignment_from_json,
    assignment_to_json,
    canonical_dumps,
    completion_instance_file,
    completion_instance_parse,
    completion_witness_file,
    loads,
    matrix_from_json,
    matrix_to_json,
    polysystem_file,
    sym_decomposition_from_json,
    sym_decomposition_to_json,
    symmetric_instance_file,
    symmetric_instance_parse,
    symmetric_witness_file,
    symmetric_witness_parse,
    symtensor_file,
    symtensor_parse,
    system_from_json,
    system_to_json,
    tensor_file,
    tensor_instance_file,
    tensor_instance_parse,
    tensor_parse,
    tensor_witness_file,
    tensor_witness_parse,
    vec_from_json,
    vec_to_json,
)
from tenred.linalg import DenseMatrix, Vec
from tenred.polysys import Assignment, PolySystem, parse_polynomial
from tenred.rings import GF, QQ, ZZ, Scalar, one
from tenred.sigma import build_B, completion_witness
from tenred.symmetric import (
    SymDecomposition,
    SymTerm,
    build_curly_T,
    embed_S,
    padded_size,
)
from tenred.tensors import (
    Decomposition,
    Rank1Term,
    Tensor3,
    build_derksen,
    pad_cubical,
)


def _system(texts, num_vars, ring):
    return PolySystem(ring, num_vars, [parse_polynomial(t, num_vars, ring) for t in texts])


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


def test_vec_round_trip():
    v = Vec(QQ, 4, {1: Scalar(QQ, Fraction(-3, 7)), 3: Scalar(QQ, 2)})
    data = vec_to_json(v)
    assert data == [[1, "-3/7"], [3, "2"]]
    assert vec_from_json(QQ, 4, data) == v
    with pytest.raises(ParseError):
        vec_from_json(QQ, 4, [[1, 2]])
    with pytest.raises(ParseError):
        vec_from_json(QQ, 2, [[5, "1"]])
    with pytest.raises(ParseError):
        vec_from_json(QQ, 2, "oops")


def test_matrix_round_trip():
    m = DenseMatrix.from_ints(GF(5), [[1, 7], [-1, 0]])
    data = matrix_to_json(m)
    assert data == [["1", "2"], ["4", "0"]]
    assert matrix_from_json(GF(5), data) == m
    with pytest.raises(ParseError):
        matrix_from_json(GF(5), [])


def test_matrix_json_over_q_reads_each_spelling_once():
    vals = [[Fraction(-3, 4), Fraction(2)], [Fraction(0), Fraction(7, 5)]]
    m = DenseMatrix(QQ, [[Scalar(QQ, v) for v in r] for r in vals])
    data = matrix_to_json(m)
    assert data == [["-3/4", "2"], ["0", "7/5"]]
    assert data == [[str(s) for s in r] for r in m.rows]
    assert matrix_from_json(QQ, data) == m
    # equal spellings share one Scalar; different spellings of one value
    # are each read, and both read to that value
    back = matrix_from_json(QQ, [["1/2", "2/4"], [" 1/2", "1/2"]])
    assert back.rows[0][0] is back.rows[1][1]
    assert back.rows[0][0] is not back.rows[0][1]
    assert {s.value for r in back.rows for s in r} == {Fraction(1, 2)}
    for bad in (
        [["1", 2]],
        [["1", None]],
        [["1", ["1"]]],
        [["1", "1/0"]],
        [["1", "x"]],
        [["1"], ["1", "2"]],
        [[]],
        ["1"],
        5,
    ):
        with pytest.raises(ParseError):
            matrix_from_json(QQ, bad)


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
    a = Assignment.from_ints(GF(7), [3, 12])
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
    text = canonical_dumps(obj)
    back = completion_instance_parse(loads(text))
    assert back.raw_grid == B.raw_grid
    assert back.row_labels == B.row_labels
    assert back.system == F
    assert canonical_dumps(completion_instance_file(back)) == text


def test_completion_instance_requires_labels():
    from tenred.sigma import IncompleteMatrix

    bare = IncompleteMatrix(GF(2), [[Scalar(GF(2), 1), None]])
    with pytest.raises(ValueError):
        completion_instance_file(bare)


def test_completion_witness_file_shape():
    F = _system(["x1"], 1, GF(11))
    pt = Assignment.from_ints(GF(11), [0])
    W = completion_witness(F, pt)
    obj = completion_witness_file(pt, W)
    assert obj["kind"] == "completion_witness"
    assert obj["assignment"] == ["0"]
    assert matrix_from_json(GF(11), obj["matrix"]) == W


def test_tensor_round_trip():
    T = Tensor3(ZZ, (2, 2, 3), {(0, 1, 2): Scalar(ZZ, -4), (1, 0, 0): Scalar(ZZ, 9)})
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
    back, F2 = tensor_instance_parse(loads(text))
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
        tensor_instance_parse(bad)
    bad2 = dict(obj, labels=obj["labels"][:-1])
    with pytest.raises(ParseError):
        tensor_instance_parse(bad2)


def test_tensor_witness_round_trip():
    ring = GF(5)
    D = Decomposition(
        ring,
        (2, 2, 2),
        [
            Rank1Term(
                Vec.unit(ring, 2, 0),
                Vec.unit(ring, 2, 1),
                Vec(ring, 2, {0: Scalar(ring, 3), 1: Scalar(ring, 2)}),
            )
        ],
    )
    obj = tensor_witness_file(D)
    assert tensor_witness_parse(loads(canonical_dumps(obj))) == D


def test_symtensor_round_trip():
    ring = GF(11)
    S = embed_S(Tensor3(ring, (1, 1, 1), {(0, 0, 0): one(ring)}))
    obj = symtensor_file(S)
    back = symtensor_parse(loads(canonical_dumps(obj)))
    assert back == S
    with pytest.raises(ParseError):
        symtensor_parse(
            {"format_version": 1, "kind": "symtensor", "ring": "gf:11", "index_names": [1], "entries": []}
        )


def test_symmetric_witness_round_trip():
    ring = GF(11)
    D = SymDecomposition(
        ring,
        3,
        [SymTerm(Scalar(ring, 4), Vec(ring, 3, {0: one(ring), 2: Scalar(ring, 7)}))],
    )
    obj = symmetric_witness_file(D)
    assert symmetric_witness_parse(loads(canonical_dumps(obj))) == D
    data = sym_decomposition_to_json(D)
    assert sym_decomposition_from_json(ring, 3, data) == D
    with pytest.raises(ParseError):
        symmetric_witness_parse(
            {"format_version": 1, "kind": "symmetric_witness", "ring": "gf:11", "dim": 0, "terms": []}
        )


def _symmetric_instance(ring):
    F = _system(["x1"], 1, ring)
    B = build_B(F, guard=None)
    inst = build_derksen(B)
    m = max(inst.tensor.dims)
    padded = pad_cubical(inst.tensor)
    S = build_curly_T(embed_S(padded), m)
    target = inst.target_rank + 9 * m * (m - 1) // 2 + 9 * m
    return F, B, inst, m, S, target


def test_symmetric_instance_round_trip():
    ring = GF(2)
    F, B, inst, m, S, target = _symmetric_instance(ring)
    obj = symmetric_instance_file(S, target, m, inst, B)
    text = canonical_dumps(obj)
    S2, target2, m2, inst2, F2 = symmetric_instance_parse(loads(text))
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
    ring = GF(2)
    F, B, inst, m, S, target = _symmetric_instance(ring)
    obj = symmetric_instance_file(S, target, m, inst, B)
    with pytest.raises(ParseError):
        symmetric_instance_parse(dict(obj, payload_size=m + 1))
    with pytest.raises(ParseError):
        symmetric_instance_parse(dict(obj, tau=inst.tau + 1))


def test_scalar_strings_reject_floats():
    with pytest.raises(ParseError):
        vec_from_json(QQ, 2, [[0, 1.5]])
    obj = json.loads(canonical_dumps(tensor_file(Tensor3.zeros(ZZ, (1, 1, 1)))))
    obj["entries"] = [[0, 0, 0, "0.5"]]
    with pytest.raises(ParseError):
        tensor_parse(obj)
