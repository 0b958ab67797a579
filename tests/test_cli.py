import gc
import hashlib
import importlib.util
import inspect
import io
import json
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tenred_runner
from tenred import certify, cli, jsonio, sigma, symmetric, tensors
from tenred.cli import build_parser, main
from tenred.jsonio import canonical_dumps
from tenred.oracle import symmetric_rank_bruteforce, tensor_rank_bruteforce
from tenred.polysys import PolySystem, parse_polynomial
from tenred.rings import GF, QQ, ZZ, RingDescriptor
from tenred.sigma import IncompleteMatrix
from tenred.symmetric import SymTensor
from tenred.tensors import build_derksen
from reference import (
    completion_instance_file,
    polysystem_file,
    raw_matrix_from_json,
    symmetric_witness_parse,
    symtensor_file,
)
from test_jsonio import tensor_file, tensor_witness_parse


def _system(texts, num_vars, ring):
    return PolySystem(ring, num_vars, [parse_polynomial(t, num_vars, ring) for t in texts])


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _write_system(path, texts, num_vars, ring):
    return _write(path, canonical_dumps(polysystem_file(_system(texts, num_vars, ring))))


def _stdout_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_encode_single_clause(tmp_path, capsys):
    cnf = _write(tmp_path / "f.cnf", "p cnf 3 1\n1 2 3 0\n")
    assert main(["encode-3sat", cnf]) == 0
    obj = _stdout_json(capsys)
    assert obj["kind"] == "polysystem"
    assert obj["ring"] == "Z"
    assert len(obj["polynomials"]) == 4


def test_encode_empty_formula(tmp_path, capsys):
    cnf = _write(tmp_path / "f.cnf", "p cnf 0 0\n")
    assert main(["encode-3sat", cnf]) == 0
    obj = _stdout_json(capsys)
    assert obj["num_vars"] == 0
    assert obj["polynomials"] == []


def test_encode_ring_and_out(tmp_path, capsys):
    cnf = _write(tmp_path / "f.cnf", "p cnf 3 1\n1 2 3 0\n")
    out = tmp_path / "sys.json"
    assert main(["encode-3sat", cnf, "--ring", "gf:2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    obj = json.loads(out.read_text())
    assert obj["ring"] == "gf:2"
    assert len(obj["polynomials"]) == 4


def test_encode_errors(tmp_path):
    bad = _write(tmp_path / "bad.cnf", "p cnf x y\n")
    assert main(["encode-3sat", bad]) == 2
    assert main(["encode-3sat", str(tmp_path / "missing.cnf")]) == 2


def test_encode_reduce_chain(tmp_path, capsys):
    cnf = _write(tmp_path / "f.cnf", "p cnf 1 1\n1 0\n")
    sysf = tmp_path / "sys.json"
    assert main(["encode-3sat", cnf, "--ring", "gf:2", "--out", str(sysf)]) == 0
    assert main(["reduce", "completion", str(sysf)]) == 0
    obj = _stdout_json(capsys)
    assert obj["kind"] == "completion_instance"
    assert len(obj["labels"]) == 217


def test_reduce_completion_label_count(tmp_path, capsys):
    sysf = _write_system(tmp_path / "sys.json", ["x1^2 - x1"], 1, QQ)
    assert main(["reduce", "completion", sysf]) == 0
    obj = _stdout_json(capsys)
    assert obj["kind"] == "completion_instance"
    assert len(obj["labels"]) == 386
    assert len(obj["grid"]) == 386


def test_reduce_guard_exceeded(tmp_path):
    sysf = _write_system(tmp_path / "sys.json", ["x1^2 - x1"], 1, QQ)
    assert main(["reduce", "completion", sysf, "--guard", "10"]) == 3


def test_reduce_ring_flag(tmp_path, capsys):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, ZZ)
    assert main(["reduce", "completion", sysf, "--ring", "gf:2"]) == 0
    obj = _stdout_json(capsys)
    assert obj["ring"] == "gf:2"
    assert len(obj["labels"]) == 19


def test_reduce_tensor_stage(tmp_path, capsys):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(2))
    assert main(["reduce", "tensor", sysf]) == 0
    obj = _stdout_json(capsys)
    assert obj["kind"] == "tensor_instance"
    assert obj["tau"] == 129
    assert obj["target_rank"] == 132
    assert obj["dims"] == [19, 19, 130]


def test_reduce_symmetric_stage(tmp_path, capsys):
    sysf = _write_system(tmp_path / "sys.json", [], 0, GF(11))
    assert main(["reduce", "symmetric", sysf]) == 0
    obj = _stdout_json(capsys)
    assert obj["kind"] == "symmetric_instance"
    assert obj["payload_size"] == 26
    assert len(obj["index_names"]) == 1131
    assert obj["target_rank"] == 3 + 9 * 26 * 25 // 2 + 9 * 26


def test_reduce_symmetric_field_rules(tmp_path):
    small = _write_system(tmp_path / "small.json", ["x1"], 1, GF(2))
    assert main(["reduce", "symmetric", small, "--guard", "0"]) == 2
    over_z = _write_system(tmp_path / "z.json", [], 0, ZZ)
    assert main(["reduce", "symmetric", over_z]) == 2


def test_reduce_input_validation(tmp_path):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(2))
    assert main(["reduce", "completion", sysf, "--threads", "0"]) == 2
    assert main(["reduce", "completion", str(tmp_path / "missing.json")]) == 2
    notsys = _write(tmp_path / "bad.json", canonical_dumps({"format_version": 1, "kind": "tensor"}))
    assert main(["reduce", "completion", notsys]) == 2


def test_completion_witness_loop(tmp_path, capsys):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(11))
    instf = tmp_path / "inst.json"
    witf = tmp_path / "wit.json"
    assert main(["reduce", "completion", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "0", "--out", str(witf)]) == 0
    wit = json.loads(witf.read_text())
    assert wit["kind"] == "completion_witness"
    assert wit["assignment"] == ["0"]
    assert main(["verify", str(instf), str(witf)]) == 0
    assert capsys.readouterr().out.strip() == "verified"


def test_witness_rejects_non_solution(tmp_path, capsys):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(11))
    instf = tmp_path / "inst.json"
    assert main(["reduce", "completion", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "5"]) == 4
    err = capsys.readouterr().err
    assert "x1" in err and "5" in err


def test_tensor_witness_loop(tmp_path, capsys):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(2))
    instf = tmp_path / "inst.json"
    witf = tmp_path / "wit.json"
    assert main(["reduce", "tensor", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "0", "--out", str(witf)]) == 0
    wit = json.loads(witf.read_text())
    assert wit["kind"] == "tensor_witness"
    assert len(wit["terms"]) == 132
    assert main(["verify", str(instf), str(witf)]) == 0
    assert capsys.readouterr().out.strip() == "verified"


def test_symmetric_witness_loop(tmp_path, capsys):
    sysf = _write_system(tmp_path / "sys.json", [], 0, GF(11))
    instf = tmp_path / "inst.json"
    witf = tmp_path / "wit.json"
    assert main(["reduce", "symmetric", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "", "--out", str(witf)]) == 0
    wit = json.loads(witf.read_text())
    assert wit["kind"] == "symmetric_witness"
    target = json.loads(instf.read_text())["target_rank"]
    assert len(wit["terms"]) <= target
    assert main(["verify", str(instf), str(witf)]) == 0
    assert capsys.readouterr().out.strip() == "verified"


def test_witness_input_validation(tmp_path):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(11))
    assert main(["witness", sysf, "--solution", "0"]) == 2
    instf = tmp_path / "inst.json"
    assert main(["reduce", "completion", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "abc"]) == 2


def test_oracle_solve(tmp_path, capsys):
    sysf = _write_system(tmp_path / "sys.json", ["x1^2 - x1 - 1"], 1, GF(11))
    assert main(["oracle", "solve", sysf]) == 0
    res = _stdout_json(capsys)
    assert res["kind"] == "oracle_result"
    assert res["value"] == [["4"], ["8"]]
    assert res["exhausted"] is True


def test_oracle_minrank(tmp_path, capsys):
    sysf = _write_system(tmp_path / "sys.json", [], 0, GF(11))
    instf = tmp_path / "inst.json"
    assert main(["reduce", "completion", sysf, "--out", str(instf)]) == 0
    assert main(["oracle", "minrank", str(instf)]) == 0
    res = _stdout_json(capsys)
    assert res["value"] == 3
    assert res["exhausted"] is True
    assert len(res["witness"]) == 26


def test_oracle_minrank_budget(tmp_path):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(11))
    instf = tmp_path / "inst.json"
    assert main(["reduce", "completion", sysf, "--out", str(instf)]) == 0
    assert main(["oracle", "minrank", str(instf), "--budget", "max_candidates=2"]) == 5


def test_oracle_rank_of_reduced_tensor(tmp_path, capsys):
    ring = GF(2)
    B = IncompleteMatrix(ring, [[1, None], [0, 1]])
    T = build_derksen(B).tensor
    f = _write(tmp_path / "t.json", canonical_dumps(tensor_file(T)))
    assert main(["oracle", "rank", f]) == 0
    res = _stdout_json(capsys)
    assert res["value"] == 3
    assert res["exhausted"] is True
    assert len(res["witness"]) == 3


def test_oracle_srank_small(tmp_path, capsys):
    ring = GF(11)
    S = SymTensor(ring, ("a", "b"), {(1, 1, 1): 2})
    f = _write(tmp_path / "s.json", canonical_dumps(symtensor_file(S)))
    assert main(["oracle", "srank", f]) == 0
    res = _stdout_json(capsys)
    assert res["value"] == 1
    assert res["exhausted"] is True


def test_oracle_srank_over_capability(tmp_path):
    ring = GF(11)
    S = SymTensor(ring, ("a", "b", "c", "d"), {(0, 0, 0): 1})
    f = _write(tmp_path / "s.json", canonical_dumps(symtensor_file(S)))
    assert main(["oracle", "srank", f]) == 5


def test_oracle_bad_budget(tmp_path):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(11))
    assert main(["oracle", "solve", sysf, "--budget", "max_rank=x"]) == 2
    assert main(["oracle", "solve", sysf, "--budget", "frobs=3"]) == 2


def test_verify_detects_corruption(tmp_path, capsys):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(11))
    instf = tmp_path / "inst.json"
    witf = tmp_path / "wit.json"
    assert main(["reduce", "completion", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "0", "--out", str(witf)]) == 0
    capsys.readouterr()

    wit = json.loads(witf.read_text())
    good = wit["matrix"][0][0]
    wit["matrix"][0][0] = "7" if good != "7" else "6"
    bad1 = _write(tmp_path / "bad1.json", canonical_dumps(wit))
    assert main(["verify", str(instf), bad1]) == 4
    assert "mismatch" in capsys.readouterr().out

    wit = json.loads(witf.read_text())
    wit["assignment"] = ["5"]
    bad2 = _write(tmp_path / "bad2.json", canonical_dumps(wit))
    assert main(["verify", str(instf), bad2]) == 4
    assert "fails" in capsys.readouterr().out


def test_verify_dimension_mismatch(tmp_path):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(2))
    instf = tmp_path / "inst.json"
    witf = tmp_path / "wit.json"
    assert main(["reduce", "tensor", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "0", "--out", str(witf)]) == 0
    wit = json.loads(witf.read_text())
    wit["dims"] = [2, 2, 2]
    wit["terms"] = []
    bad = _write(tmp_path / "bad.json", canonical_dumps(wit))
    assert main(["verify", str(instf), bad]) == 2


def test_verify_kind_mismatch(tmp_path):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(2))
    ring = GF(2)
    B = IncompleteMatrix(ring, [[1, None]])
    with pytest.raises(ValueError):
        completion_instance_file(B)
    wit = _write(
        tmp_path / "wit.json",
        canonical_dumps({"format_version": 1, "kind": "tensor_witness", "ring": "gf:2", "dims": [1, 1, 1], "terms": []}),
    )
    assert main(["verify", sysf, wit]) == 2


def test_out_matches_stdout(tmp_path, capsys):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(2))
    out = tmp_path / "inst.json"
    assert main(["reduce", "tensor", sysf, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["reduce", "tensor", sysf]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_thread_count_never_changes_bytes(tmp_path):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(2))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["reduce", "tensor", sysf, "--threads", "1", "--out", str(a)]) == 0
    assert main(["reduce", "tensor", sysf, "--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of the symmetric witness of the empty system over GF(11); any
# drift in the witness construction or its encoding changes it
EMPTY_GF11_WITNESS_SHA256 = "42afb9c830dc1c2e607ee2855731d0dad015c287e4d9e7bc4e59b78d32b1656e"


@pytest.fixture(scope="module")
def empty_gf11_symmetric(tmp_path_factory):
    """Instance and witness files of the empty formula, symmetric stage over GF(11)."""
    d = tmp_path_factory.mktemp("empty_gf11")
    cnf = _write(d / "f.cnf", "p cnf 0 0\n")
    sysf, instf, witf = d / "sys.json", d / "inst.json", d / "wit.json"
    assert main(["encode-3sat", cnf, "--ring", "gf:11", "--out", str(sysf)]) == 0
    assert main(["reduce", "symmetric", str(sysf), "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "", "--out", str(witf)]) == 0
    return instf, witf


def _append_cancelling_pair(src, dst, negate):
    """The witness with its last term and that term's negation appended."""
    wit = json.loads(src.read_text())
    last = wit["terms"][-1]
    wit["terms"] += [last, negate(last)]
    dst.write_text(canonical_dumps(wit))
    return dst


def test_symmetric_witness_bytes_pinned(empty_gf11_symmetric):
    _, witf = empty_gf11_symmetric
    assert hashlib.sha256(witf.read_bytes()).hexdigest() == EMPTY_GF11_WITNESS_SHA256


def test_verify_rejects_oversized_symmetric_witness(empty_gf11_symmetric, tmp_path, capsys):
    instf, witf = empty_gf11_symmetric
    neg = lambda t: dict(t, s=str(-int(t["s"]) % 11))  # noqa: E731
    bigger = _append_cancelling_pair(witf, tmp_path / "big.json", neg)
    capsys.readouterr()
    assert main(["verify", str(instf), str(bigger)]) == 4
    out = capsys.readouterr().out
    assert "3164 terms exceed the target rank 3162" in out
    assert "verified" not in out
    # the target is worked out from the instance; a raised stored one is refused
    inst = json.loads(instf.read_text())
    raised = _write(tmp_path / "raised.json", canonical_dumps(dict(inst, target_rank=3164)))
    assert main(["verify", raised, str(bigger)]) == 2
    assert "target_rank 3164 differs from the instance's 3162" in capsys.readouterr().err


def test_verify_rejects_oversized_tensor_witness(tmp_path, capsys):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(2))
    instf, witf = tmp_path / "inst.json", tmp_path / "wit.json"
    assert main(["reduce", "tensor", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "0", "--out", str(witf)]) == 0
    neg = lambda t: dict(t, c=[[k, str(-int(v) % 2)] for k, v in t["c"]])  # noqa: E731
    bigger = _append_cancelling_pair(witf, tmp_path / "big.json", neg)
    capsys.readouterr()
    assert main(["verify", str(instf), str(bigger)]) == 4
    out = capsys.readouterr().out
    assert "134 terms exceed the target rank 132" in out
    assert "verified" not in out
    # a malformed target rank is an input error, not a pass
    inst = json.loads(instf.read_text())
    inst["target_rank"] = "many"
    badf = _write(tmp_path / "bad.json", canonical_dumps(inst))
    assert main(["verify", badf, str(witf)]) == 2
    # a raised target rank is refused, alone or with tau and star_map raised to match
    raised = _write(tmp_path / "raised.json", canonical_dumps(dict(inst, target_rank=134)))
    capsys.readouterr()
    assert main(["verify", raised, str(bigger)]) == 2
    assert "target_rank 134 differs from the instance's 132" in capsys.readouterr().err
    inst = json.loads(instf.read_text())
    filled = {(i, j) for i, j, _, _ in inst["entries"]} | {tuple(x) for x in inst["star_map"]}
    n1, n2, slices = inst["dims"]
    spare = [[i, j] for i in range(n1) for j in range(n2) if (i, j) not in filled][:2]
    forged = dict(
        inst, dims=[n1, n2, slices + 2], tau=inst["tau"] + 2, target_rank=134,
        star_map=inst["star_map"] + spare,
    )
    forgedf = _write(tmp_path / "forged.json", canonical_dumps(forged))
    assert len(spare) == 2
    assert main(["verify", forgedf, str(bigger)]) == 2
    assert "dims [19,19,132] differs from the instance's [19,19,130]" in capsys.readouterr().err


def test_symmetric_witness_exits_4_on_corrupt_pieces(empty_gf11_symmetric, tmp_path, monkeypatch, capsys):
    instf, _ = empty_gf11_symmetric
    real = symmetric.sym_pair_decompose
    calls = []

    def corrupt_first(ring, u, w, a):
        terms = real(ring, u, w, a)
        calls.append(1)
        if len(calls) > 1 or not terms:
            return terms
        (s, v), *rest = terms
        return [(ring.canon(2 * s), v), *rest]

    monkeypatch.setattr(symmetric, "sym_pair_decompose", corrupt_first)
    out = tmp_path / "wit.json"
    capsys.readouterr()
    # symmetric_witness returns the pieces unchecked; the verdict verify
    # runs refuses them before a byte is written, naming the mismatch
    assert main(["witness", str(instf), "--solution", "", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "error: symmetric witness fails: mismatch at (0, 0, 0): instance has 0, witness sums to 1\n"
    assert not out.exists()


def test_symmetric_witness_checks_each_thing_once(empty_gf11_symmetric, tmp_path, monkeypatch):
    # the tensor decomposition is not summed, the padding is built with no
    # correction tensor, and the verdict sums the finished witness once;
    # the cached gadgets check their own 2-dimensional targets
    instf, witf = empty_gf11_symmetric
    seen = {"verify_decomposition": 0, "sum_terms_raw": 0, "build_L_pi": 0, "verify_symmetric_decomposition": []}

    def spy(modules, name, record):
        real = getattr(modules[0], name)

        def counted(*args, **kwargs):
            record(*args)
            return real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)

    def count(name):
        def record(*args):
            seen[name] += 1

        return record

    spy([tensors], "verify_decomposition", count("verify_decomposition"))
    spy([tensors, jsonio, certify], "sum_terms_raw", count("sum_terms_raw"))
    spy([symmetric], "build_L_pi", count("build_L_pi"))
    checks = seen["verify_symmetric_decomposition"]
    spy([symmetric], "verify_symmetric_decomposition", lambda T, D: checks.append(D.dim))
    # the verdict compares the finished witness's sum, as verify_symmetric_decomposition does
    spy([certify], "first_mismatch", lambda want, got, dims: checks.append(dims[0]))
    out = tmp_path / "wit.json"
    assert main(["witness", str(instf), "--solution", "", "--out", str(out)]) == 0
    assert out.read_bytes() == witf.read_bytes()
    assert seen["verify_decomposition"] == seen["sum_terms_raw"] == seen["build_L_pi"] == 0
    assert [dim for dim in seen["verify_symmetric_decomposition"] if dim != 2] == [1131]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: t.update(s="0"), "error: zero coefficient terms are not stored\n"),
        (lambda t: t["v"].append([1131, "1"]), "error: index 1131 out of range for length 1131 (at position 0)\n"),
        (lambda t: t.update(v=5), "error: sparse vector must be a list of [index, value] pairs (at position 0)\n"),
    ],
    ids=["zero-s", "index-outside-dim", "v-not-a-list"],
)
def test_symmetric_witness_reader_refusals(edit, message, empty_gf11_symmetric, tmp_path, capsys):
    instf, witf = empty_gf11_symmetric
    badf = _edited(witf, tmp_path / "bad.json", lambda wit: edit(wit["terms"][5]))
    capsys.readouterr()
    assert main(["verify", str(instf), badf]) == 2
    assert capsys.readouterr().err == message


def _cancelling(wit):
    last = wit["terms"][-1]
    wit["terms"] += [last, dict(last, s=str(-int(last["s"]) % 11))]


def _one_value_changed(wit):
    pair = wit["terms"][0]["v"][0]
    pair[1] = str((int(pair[1]) + 1) % 11)


def _terms_first(text):
    # canonical text lists terms last; move them before every other member
    head, terms = text.split(',"terms":')
    return '{"terms":' + terms[:-2] + "," + head[1:] + "}\n"


# stdout, stderr and exit code of verify on edits of the empty GF(11)
# symmetric witness, as the tree reader that came before the text reader
# printed them, except a dim below the instance's, now refused for its dim
# before any term is read
@pytest.mark.parametrize(
    "edit, out, err, code",
    [
        (_cancelling, "3164 terms exceed the target rank 3162\n", "", 4),
        (_one_value_changed, "mismatch at (8, 8, 8): instance has 0, witness sums to 7\n", "", 4),
        (lambda wit: wit.update(dim=1130), "", "error: witness dimension differs from the instance (at position 0)\n", 2),
        (lambda wit: wit.update(dim=1132), "", "error: witness dimension differs from the instance (at position 0)\n", 2),
        (lambda wit: wit.update(ring="gf:13"), "", "error: witness ring incompatible with the instance (at position 0)\n", 2),
        (lambda wit: wit["terms"][5].update(s="0"), "", "error: zero coefficient terms are not stored\n", 2),
        (_terms_first, "verified\n", "", 0),
    ],
    ids=["cancelling", "one-value-changed", "dim-below", "dim-above", "ring", "zero-s", "header-after-terms"],
)
def test_symmetric_verify_outputs_are_pinned(edit, out, err, code, empty_gf11_symmetric, tmp_path, capsys):
    instf, witf = empty_gf11_symmetric
    if edit is _terms_first:
        badf = _write(tmp_path / "bad.json", _terms_first(witf.read_text()))
    else:
        badf = _edited(witf, tmp_path / "bad.json", edit)
    capsys.readouterr()
    assert main(["verify", str(instf), badf]) == code
    assert capsys.readouterr() == (out, err)


def test_verify_refuses_a_symmetric_witness_key_given_twice(empty_gf11_symmetric, tmp_path, capsys):
    # the text reader sees every member; a tree reader kept the last "dim"
    # and printed verified
    instf, witf = empty_gf11_symmetric
    badf = _write(tmp_path / "bad.json", witf.read_text()[:-2] + ',"dim":1131}\n')
    capsys.readouterr()
    assert main(["verify", str(instf), badf]) == 2
    assert capsys.readouterr() == ("", "error: field 'dim' is repeated (at position 0)\n")


def _repeat_first_member(text, member):
    """The file's text with one more top-level member put first."""
    return text.replace("{", "{" + member + ",", 1)


@pytest.mark.parametrize("which", ["instance", "polysystem", "completion-witness"])
def test_a_key_given_twice_exits_2(which, empty_gf11_symmetric, x1_gf2_completion, tmp_path, capsys):
    # every file is read by the one member walk, which refuses a repeated
    # top-level key rather than keep its last value
    instf, witf = empty_gf11_symmetric
    if which == "instance":
        badf = _write(tmp_path / "inst.json", _repeat_first_member(instf.read_text(), '"tau":999'))
        argv, key = ["verify", badf, str(witf)], "tau"
    elif which == "polysystem":
        sysf = instf.parent / "sys.json"
        badf = _write(tmp_path / "sys.json", _repeat_first_member(sysf.read_text(), '"num_vars":3'))
        argv, key = ["reduce", "symmetric", badf], "num_vars"
    else:
        instf, witf = x1_gf2_completion
        badf = _write(tmp_path / "wit.json", _repeat_first_member(witf.read_text(), '"ring":"gf:2"'))
        argv, key = ["verify", str(instf), badf], "ring"
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: field {key!r} is repeated (at position 0)\n")


@pytest.mark.parametrize("text", ["\ufeff", " [1]", "[1] x", ""], ids=["bom", "list", "extra", "empty"])
def test_a_file_that_is_no_object_exits_2_as_json_loads_words_it(text, x1_gf2_tensor, tmp_path, capsys):
    # the member walk refuses what json.loads refused, with its message,
    # whether the file is an instance or a witness
    instf, witf = x1_gf2_tensor
    try:
        json.loads(text if text != "\ufeff" else text + witf.read_text())
        reason = "top-level JSON value must be an object (at position 0)"
    except json.JSONDecodeError as e:
        reason = f"invalid JSON: {e} (at position {e.pos})"
    for argv in (["verify", "FILE", str(witf)], ["verify", str(instf), "FILE"]):
        base = (instf if argv[1] == "FILE" else witf).read_text()
        badf = _write(tmp_path / "bad.json", text + base if text == "\ufeff" else text)
        capsys.readouterr()
        assert main([badf if a == "FILE" else a for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {reason}\n"


@pytest.mark.parametrize(
    "fixture, bad, at",
    [
        ("x1_gf2_tensor", b"\xff", 1000),
        ("x1_gf2_tensor", b"\xe2\x82", 127),
        ("empty_gf11_symmetric", b"\xff", 20_000),
    ],
    ids=["invalid-start", "cut-sequence", "past-8-kib"],
)
@pytest.mark.parametrize("which", ["instance", "witness"])
def test_a_byte_that_is_no_utf8_is_named_at_its_offset_in_the_file(
    which, fixture, bad, at, request, tmp_path, monkeypatch, capsys
):
    # the witness is read a chunk at a time and the instance whole, and
    # either names a byte that is no UTF-8 at its offset in the file, as
    # decoding the whole file names it, past the first chunk or across two.
    # A text-mode file decodes 8 KiB of bytes at a time and names the offset
    # in those: the last case puts the byte past the first 8 KiB
    monkeypatch.setattr(jsonio, "_WINDOW", 64)
    instf, witf = request.getfixturevalue(fixture)
    files = {"instance": instf, "witness": witf}
    data = bytearray(files[which].read_bytes())
    data[at : at + len(bad)] = bad
    with pytest.raises(UnicodeDecodeError) as e:
        bytes(data).decode("utf-8")
    files[which] = tmp_path / "bad.json"
    files[which].write_bytes(data)
    capsys.readouterr()
    assert main(["verify", str(files["instance"]), str(files["witness"])]) == 2
    assert capsys.readouterr() == ("", f"error: {e.value}\n")
    assert f"in position {at}" in str(e.value)


class _SizedReads:
    """A file that records the size of each read of it."""

    def __init__(self, fh, sizes):
        self.fh, self.sizes = fh, sizes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def read(self, size=-1):
        self.sizes.append(size)
        return self.fh.read(size)


def _verify_with_no_tree(instf, witf, window, monkeypatch, capsys):
    """Verify a fixture with the witness read in chunks of ``window``
    characters, refusing any parse of either file whole; the size of each
    read of the witness, and the length of the window's buffer after each
    time it is refilled while the witness is read."""
    parsed, whole, sizes, buffers, reading = [], [], [], [], []
    real_loads, real_json_loads = jsonio.loads, json.loads
    monkeypatch.setattr(jsonio, "loads", lambda text: parsed.append(text) or real_loads(text))
    monkeypatch.setattr(json, "loads", lambda text, **kw: whole.append(text) or real_json_loads(text, **kw))
    monkeypatch.setattr(jsonio, "_WINDOW", window)
    real_open = open

    def sized_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return _SizedReads(fh, sizes) if str(path) == str(witf) else fh

    monkeypatch.setattr(cli, "open", sized_open, raising=False)
    real_failure, real_more = certify.failure, jsonio._Window.more
    monkeypatch.setattr(certify, "failure", lambda red, pieces: reading.append(red) or real_failure(red, pieces))

    def more(self, pos):
        pos = real_more(self, pos)
        if reading:
            buffers.append(len(self.buf))
        return pos

    monkeypatch.setattr(jsonio._Window, "more", more)
    capsys.readouterr()
    assert main(["verify", str(instf), str(witf)]) == 0
    assert capsys.readouterr().out == "verified\n"
    assert parsed == []
    assert whole == []
    return sizes, buffers


def _longest_term(witf):
    return max(len(canonical_dumps(t)) - 1 for t in json.loads(witf.read_text())["terms"])


def test_symmetric_verify_reads_no_tree_of_the_witness(empty_gf11_symmetric, monkeypatch, capsys):
    # neither file goes whole to jsonio.loads or json.loads: the instance's
    # members are walked, its entries and stars stepped over, and the
    # witness is read from its text term by term and summed once by the
    # packed kernel.  The text is read a chunk at a time, into a window
    # that holds one chunk and at most the term it cuts
    instf, witf = empty_gf11_symmetric
    sums = []
    real_sum = jsonio.sum_sym_decomposition_raw
    monkeypatch.setattr(
        jsonio, "sum_sym_decomposition_raw", lambda terms, dim, ring: sums.append(dim) or real_sum(terms, dim, ring)
    )
    size = len(witf.read_text())
    sizes, buffers = _verify_with_no_tree(instf, witf, 1024, monkeypatch, capsys)
    assert sums == [1131]
    assert sizes and all(0 < n <= 1024 for n in sizes)
    assert len(buffers) > size // 1024 and max(buffers) <= 1024 + _longest_term(witf)


def test_symmetric_verify_holds_no_list_of_the_terms(empty_gf11_symmetric, monkeypatch):
    # the reader feeds each cube term to the grouped sum as it reads it: the
    # sum is given a generator, never a list, and certify.failure peaks at
    # 2.9 MB traced on these files, 5.4 MB when the 3,162 decoded terms were
    # kept for the sum
    instf, witf = empty_gf11_symmetric
    red = certify.read_instance(instf.read_text())
    given = []
    real_sum = jsonio.sum_sym_decomposition_raw
    monkeypatch.setattr(
        jsonio, "sum_sym_decomposition_raw", lambda terms, *rest: given.append(terms) or real_sum(terms, *rest)
    )
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert certify.failure(red, cli._read_pieces(str(witf))) is None
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(given) == 1 and inspect.isgenerator(given[0])
    assert peak < 4_000_000, f"certify.failure peaked at {peak / 1e6:.1f} MB"


def test_tensor_verify_reads_no_tree_of_the_witness(x1_gf2_tensor, monkeypatch, capsys):
    # the same for the tensor witness, whose terms go straight into the sum
    instf, witf = x1_gf2_tensor
    size = len(witf.read_text())
    sizes, buffers = _verify_with_no_tree(instf, witf, 256, monkeypatch, capsys)
    assert sizes and all(0 < n <= 256 for n in sizes)
    assert len(buffers) > size // 256 and max(buffers) <= 256 + _longest_term(witf)


def test_completion_verify_reads_no_tree_of_the_witness(x1_q_completion, monkeypatch, capsys):
    # the same for a completion witness, whose ring comes after W: each row
    # is stepped over as text, then decoded once the ring is known, and
    # never twice; the instance's grid is stepped over too
    instf, witf = x1_q_completion
    rows = []
    real_scan = jsonio._scan

    def scan(text, pos):
        value, end = real_scan(text, pos)
        if type(value) is list and len(value) == 98 and type(value[0]) is str:
            rows.append(value)
        return value, end

    monkeypatch.setattr(jsonio, "_scan", scan)
    sizes, buffers = _verify_with_no_tree(instf, witf, 256, monkeypatch, capsys)
    assert sizes and all(0 < n <= 256 for n in sizes)
    assert rows == json.loads(witf.read_text())["matrix"]
    # W's text is kept, from its first row on, until the ring is read; the
    # kept text at least doubles at each read, so it is copied a few times
    assert len(buffers) <= (len(witf.read_text()) // 256).bit_length() + 1


def _scale_coordinate(terms, x, c):
    """Multiply coordinate x of each term's vector by c, over GF(11)."""
    for t in terms:
        t["v"] = [[i, str(int(v) * c % 11) if i == x else v] for i, v in t["v"]]


@pytest.mark.parametrize(
    "corrupt, still_grouped",
    [
        (lambda g: g[1].update(s="5"), True),  # one coefficient s_k
        (lambda g: _scale_coordinate(g[1:2], 3, 2), False),  # one w-coordinate of one term
        (lambda g: _scale_coordinate(g, 3, 2), True),  # that w-coordinate in all three
    ],
    ids=["s", "one-term-w", "all-terms-w"],
)
def test_verify_rejects_a_corrupted_gadget_group(corrupt, still_grouped, empty_gf11_symmetric, tmp_path, capsys):
    # terms 3..5 are the first pair correction, s_k (u + r_k w)^3 with
    # u = e_0 + e_1 and w[3] = 1; the grouped sum must see each change
    instf, witf = empty_gf11_symmetric
    wit = json.loads(witf.read_text())
    group = wit["terms"][3:6]
    assert [t["v"][:3] for t in group] == [[[0, "1"], [1, "1"], [3, r]] for r in ("3", "2", "1")]
    corrupt(group)
    D = symmetric_witness_parse(wit)
    after, _, d, _ = symmetric._collinear_run(D.raw[3], iter(D.raw[4:]), D.ring)
    assert (bool(d) and after is D.raw[6]) == still_grouped
    badf = _write(tmp_path / "bad.json", canonical_dumps(wit))
    capsys.readouterr()
    assert main(["verify", str(instf), badf]) == 4
    assert "verified" not in capsys.readouterr().out


def test_verify_refuses_boolean_indices_and_dim(x1_gf2_tensor, empty_gf11_symmetric, tmp_path, capsys):
    # JSON true is no integer, though Python reads it as 1
    instf, witf = x1_gf2_tensor

    def respell_ones(wit):
        for t in wit["terms"]:
            for key in "abc":
                t[key] = [[True if i == 1 else i, v] for i, v in t[key]]

    badf = _edited(witf, tmp_path / "bad.json", respell_ones)
    assert "[true," in (tmp_path / "bad.json").read_text()
    capsys.readouterr()
    assert main(["verify", str(instf), badf]) == 2
    assert "bad sparse vector entry" in capsys.readouterr().err
    instf, witf = empty_gf11_symmetric
    badf = _edited(witf, tmp_path / "dim.json", lambda wit: wit.update(dim=True))
    assert main(["verify", str(instf), badf]) == 2
    assert "dim must be a positive integer" in capsys.readouterr().err


def test_completion_witness_rank_from_unit_block(tmp_path, monkeypatch, capsys):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(11))
    instf = tmp_path / "inst.json"
    assert main(["reduce", "completion", sysf, "--out", str(instf)]) == 0
    capsys.readouterr()
    assert main(["witness", str(instf), "--solution", "0", "--out", str(tmp_path / "w.json")]) == 0
    assert "rank: 3" in capsys.readouterr().err

    real = certify.completion_witness

    def broken_unit_block(B, point):
        W = real(B, point)
        e = sigma.unit_label_positions(B)[0]
        rows = W.raw_rows()
        rows[e][e] = W.ring.canon(2)
        return type(W)(W.ring, rows)

    # the unit block is a specified block of B, so the verdict verify runs
    # refuses W where it leaves B, before a byte is written
    monkeypatch.setattr(certify, "completion_witness", broken_unit_block)
    e = sigma.unit_label_positions(certify.read_instance(instf.read_text()).B)[0]
    out = tmp_path / "x.json"
    assert main(["witness", str(instf), "--solution", "0", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == f"error: completion witness fails: mismatch at ({e},{e}): instance has 1, witness has 2\n"
    assert not out.exists()


def test_reduce_computes_sigma_once(tmp_path, monkeypatch):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(2))
    instf, witf = str(tmp_path / "inst.json"), str(tmp_path / "wit.json")
    real = sigma.sigma_system
    calls = []

    def counting(F):
        calls.append(F)
        return real(F)

    monkeypatch.setattr(sigma, "sigma_system", counting)
    monkeypatch.setattr(certify, "sigma_system", counting)
    # reduce builds sigma once; witness and verify each rebuild the
    # instance from its system, once
    for argv in (
        ["reduce", "completion", sysf, "--out", instf],
        ["witness", instf, "--solution", "0", "--out", witf],
        ["verify", instf, witf],
    ):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1


# SHA-256 of the completion witness of {x1} over Q at x1 = 0; any drift in
# the Gram construction or in the matrix encoding changes it
X1_Q_COMPLETION_WITNESS_SHA256 = "cdd1287c8102ef9cf4acb757bcd33474e05f7ebe6d3c5c3b611700188e72ac0a"


@pytest.fixture(scope="module")
def x1_q_completion(tmp_path_factory):
    """Instance and witness files of {x1} over Q, completion stage (98 labels)."""
    d = tmp_path_factory.mktemp("x1_q")
    sysf = _write_system(d / "sys.json", ["x1"], 1, QQ)
    instf, witf = d / "inst.json", d / "wit.json"
    assert main(["reduce", "completion", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "0", "--out", str(witf)]) == 0
    return instf, witf


def test_completion_witness_bytes_pinned(x1_q_completion):
    _, witf = x1_q_completion
    assert hashlib.sha256(witf.read_bytes()).hexdigest() == X1_Q_COMPLETION_WITNESS_SHA256


# SHA-256 of the completion witness of {2*x1 - 1} over Q at x1 = 1/2; the
# solution has a denominator, so the witness cells are proper fractions
HALF_Q_COMPLETION_WITNESS_SHA256 = "9b28db2f225ce9eded8a768cadf02a93e6499bda71c4a87be464ba6ddc341346"


def test_completion_witness_with_denominators_pinned(tmp_path):
    sysf = _write_system(tmp_path / "sys.json", ["2*x1 - 1"], 1, QQ)
    instf, witf = tmp_path / "inst.json", tmp_path / "wit.json"
    assert main(["reduce", "completion", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "1/2", "--out", str(witf)]) == 0
    assert len(json.loads(instf.read_text())["labels"]) == 602
    assert hashlib.sha256(witf.read_bytes()).hexdigest() == HALF_Q_COMPLETION_WITNESS_SHA256


def test_verify_reports_completion_rank(x1_q_completion, tmp_path, capsys):
    instf, witf = x1_q_completion
    grid = json.loads(instf.read_text())["grid"]
    n = len(grid)
    diag = next(i for i in range(n) if grid[i][i] is None)
    i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if grid[i][j] is None)

    def bumped(cells, name):
        wit = json.loads(witf.read_text())
        for a, b in cells:
            wit["matrix"][a][b] = str(Fraction(wit["matrix"][a][b]) + Fraction(1, 2))
        return _write(tmp_path / name, canonical_dumps(wit))

    # every specified cell still agrees, so only the exact rank can refuse:
    # a star on the diagonal adds a rank-one form, a symmetric pair off it
    # adds 2*x_i*x_j, a form of rank two
    capsys.readouterr()
    assert main(["verify", str(instf), bumped([(diag, diag)], "diag.json")]) == 4
    assert capsys.readouterr().out.strip() == "completion rank is 4, not 3"
    assert main(["verify", str(instf), bumped([(i, j), (j, i)], "pair.json")]) == 4
    assert capsys.readouterr().out.strip() == "completion rank is 5, not 3"


def test_verify_accepts_a_completion_with_no_elimination(x1_q_completion, monkeypatch, capsys):
    # the identity at the unit labels and W = W[:,E] W[E,:] prove rank 3;
    # an elimination only words a refusal
    def no_rank(rows, ring):
        raise AssertionError("rank_raw called on an accepted completion")

    monkeypatch.setattr(certify, "rank_raw", no_rank)
    instf, witf = x1_q_completion
    capsys.readouterr()
    assert main(["verify", str(instf), str(witf)]) == 0
    assert capsys.readouterr().out.strip() == "verified"


def _grid_not_a_list(inst, wit):
    inst["grid"] = 5


def _matrix_rows_not_lists(inst, wit):
    wit["matrix"] = [5] * len(wit["matrix"])


def _polynomials_not_a_list(inst, wit):
    inst["system"]["polynomials"] = 5


def _labels_not_a_list(inst, wit):
    inst["labels"] = 5


def _label_not_strings(inst, wit):
    inst["labels"][0] = [5, "1", "1"]


def _ragged_matrix(inst, wit):
    wit["matrix"][3] = wit["matrix"][3][:-1]


def _witness_ring_missing(inst, wit):
    del wit["ring"]


def _witness_ring_not_a_string(inst, wit):
    wit["ring"] = 5


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(_grid_not_a_list, "grid 5 differs from the instance's", id="grid"),
        pytest.param(_matrix_rows_not_lists, "matrix rows must be lists, got int", id="rows"),
        pytest.param(_polynomials_not_a_list, "polynomials must be a list of strings", id="polynomials"),
        pytest.param(_labels_not_a_list, "labels must be a list of string triples", id="labels"),
        pytest.param(_label_not_strings, 'labels [[5,"1","1"],', id="label"),
        pytest.param(_ragged_matrix, "ragged matrix: row 3 has 97 cells, row 0 has 98", id="ragged"),
        pytest.param(_witness_ring_missing, "missing field 'ring'", id="ring"),
        pytest.param(_witness_ring_not_a_string, "ring must be a string, got int", id="ring-type"),
    ],
)
def test_verify_malformed_completion_input_exits_2(x1_q_completion, tmp_path, capsys, corrupt, message):
    instf, witf = x1_q_completion
    inst, wit = json.loads(instf.read_text()), json.loads(witf.read_text())
    corrupt(inst, wit)
    badi = _write(tmp_path / "inst.json", canonical_dumps(inst))
    badw = _write(tmp_path / "wit.json", canonical_dumps(wit))
    capsys.readouterr()
    assert main(["verify", badi, badw]) == 2
    assert message in capsys.readouterr().err


def test_verify_refuses_an_assignment_of_the_wrong_length(tmp_path, capsys):
    # the point's length is checked against the variable count even when
    # the system has no polynomial to evaluate it on
    sysf = _write_system(tmp_path / "sys.json", [], 0, GF(11))
    instf, witf = tmp_path / "inst.json", tmp_path / "wit.json"
    assert main(["reduce", "completion", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "", "--out", str(witf)]) == 0
    badf = _edited(witf, tmp_path / "bad.json", lambda wit: wit.update(assignment=["5", "7"]))
    capsys.readouterr()
    assert main(["verify", str(instf), str(witf)]) == 0
    assert main(["verify", str(instf), badf]) == 2
    captured = capsys.readouterr()
    assert captured.out == "verified\n"
    assert captured.err == "error: assignment length mismatch\n"


def _rows_edited(edit):
    """An edit of a completion witness whose rows go through ``edit``."""
    return lambda wit: wit.update(matrix=edit(wit["matrix"]))


def _cell(i, j, value):
    def edit(rows):
        rows[i][j] = value
        return rows

    return edit


def _ring_first(wit):
    """The witness's text with its ring put before its matrix, so that the
    rows are read as the walk meets them."""
    ring = wit.pop("ring")
    return canonical_dumps({"ring": ring})[:-2] + "," + canonical_dumps(wit)[1:]


def _matrix_twice(wit):
    return canonical_dumps(wit)[:-2] + ',"matrix":[]}\n'


_UNCHANGED = lambda wit: None  # noqa: E731


_NO_MATRIX = "matrix must be a nonempty list of nonempty rows"
_OTHER_SHAPE = "witness shape differs from the instance"


@pytest.mark.parametrize(
    "edit, spell, message",
    [
        (
            _rows_edited(lambda rows: [*rows[:3], rows[3][:-1], *rows[4:]]),
            canonical_dumps,
            "ragged matrix: row 3 has 97 cells, row 0 has 98",
        ),
        (_rows_edited(_cell(2, 5, 5)), canonical_dumps, "scalar values are strings, got int"),
        (_rows_edited(_cell(2, 5, None)), canonical_dumps, "scalar values are strings, got NoneType"),
        (_rows_edited(_cell(2, 5, ["0"])), canonical_dumps, "scalar values are strings, got list"),
        (_rows_edited(_cell(2, 5, "x")), canonical_dumps, "bad rational literal 'x'"),
        (_rows_edited(lambda rows: [*rows[:4], "0", *rows[5:]]), canonical_dumps, "matrix rows must be lists, got str"),
        (_rows_edited(lambda rows: []), canonical_dumps, _NO_MATRIX),
        (_rows_edited(lambda rows: [[], *rows[1:]]), canonical_dumps, _NO_MATRIX),
        (_rows_edited(lambda rows: "0"), canonical_dumps, _NO_MATRIX),
        (_rows_edited(lambda rows: rows[:-1]), canonical_dumps, _OTHER_SHAPE),
        (_rows_edited(lambda rows: [*rows, rows[0]]), canonical_dumps, _OTHER_SHAPE),
        (_rows_edited(lambda rows: [row[:-1] for row in rows]), canonical_dumps, _OTHER_SHAPE),
        (lambda wit: wit.update(ring="gf:3"), canonical_dumps, "witness ring incompatible with the instance"),
        (lambda wit: wit.pop("matrix"), canonical_dumps, "missing field 'matrix'"),
        (lambda wit: wit.update(extra=1), canonical_dumps, "unexpected field 'extra' in a completion witness"),
        # the header is checked before the rows, and the rows before the point
        (
            lambda wit: wit.update(kind="tensor_witness", matrix=[]),
            canonical_dumps,
            "cannot verify a 'tensor_witness' witness against a completion instance",
        ),
        (lambda wit: wit.update(assignment=5, matrix=[[]]), canonical_dumps, _NO_MATRIX),
        (
            lambda wit: wit.update(assignment=5, matrix=wit["matrix"][:-1]),
            canonical_dumps,
            "assignment must be a list of values",
        ),
        (_UNCHANGED, _matrix_twice, "field 'matrix' is repeated"),
        (_rows_edited(_cell(2, 5, 5)), _ring_first, "scalar values are strings, got int"),
        (lambda wit: wit.update(ring="gf:3"), _ring_first, "witness ring incompatible with the instance"),
    ],
)
def test_completion_witness_reader_refusals(edit, spell, message, x1_q_completion, tmp_path, capsys):
    # each refusal of a completion witness, whose rows are read one at a
    # time, keeps the message it had when the witness was decoded whole
    instf, witf = x1_q_completion
    wit = json.loads(witf.read_text())
    edit(wit)
    badf = _write(tmp_path / "bad.json", spell(wit))
    capsys.readouterr()
    assert main(["verify", str(instf), badf]) == 2
    assert capsys.readouterr() == ("", f"error: {message} (at position 0)\n")


@pytest.mark.parametrize("spell", [_ring_first, lambda wit: _spaced(wit)], ids=["ring-first", "spaced"])
def test_a_completion_witness_spelled_otherwise_still_verifies(spell, x1_q_completion, tmp_path, capsys):
    # W is read as the walk meets it where the ring comes first, and kept
    # as text until the ring is known where it comes after; whitespace
    # anywhere changes nothing
    instf, witf = x1_q_completion
    badf = _write(tmp_path / "respelled.json", spell(json.loads(witf.read_text())))
    capsys.readouterr()
    assert main(["verify", str(instf), badf]) == 0
    assert capsys.readouterr() == ("verified\n", "")


def test_ring_beyond_the_primality_bound_exits_2(tmp_path, capsys):
    cnf = _write(tmp_path / "f.cnf", "p cnf 1 1\n1 0\n")
    # 2**89 - 1 is prime, but above the bound where Miller-Rabin with the
    # first 13 prime bases is a proof, so it is refused rather than guessed
    assert main(["encode-3sat", cnf, "--ring", f"gf:{2**89 - 1}"]) == 2
    assert "too large" in capsys.readouterr().err


@pytest.fixture(scope="module")
def x1_gf2_tensor(tmp_path_factory):
    """Instance and witness files of {x1} over GF(2), tensor stage (19 labels)."""
    d = tmp_path_factory.mktemp("x1_gf2")
    sysf = _write_system(d / "sys.json", ["x1"], 1, GF(2))
    instf, witf = d / "inst.json", d / "wit.json"
    assert main(["reduce", "tensor", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "0", "--out", str(witf)]) == 0
    return instf, witf


# SHA-256 of the tensor witnesses of {x1} at x1 = 0, over GF(2) and over Q;
# the Q one spells its values as Fractions and negates the completed value
# of every star, so drift in either changes it.  The Z instance's witness is
# over Q, its B taken into Q, so it is the Q instance's witness byte for byte
X1_TENSOR_WITNESS_SHA256 = {
    "x1_gf2_tensor": "d4ffeb250b9992968ea61e255ec283a449c29d8e1f71fd507482c55455114fe0",
    "x1_q_tensor": "6f0269d5785aecd31ef5114e26ffb3eea6dda09325bd7c7966e7a46a1f7397f6",
    "x1_z_tensor": "6f0269d5785aecd31ef5114e26ffb3eea6dda09325bd7c7966e7a46a1f7397f6",
}


@pytest.fixture(scope="module")
def x1_q_tensor(tmp_path_factory):
    """Instance and witness files of {x1} over Q, tensor stage (98 labels)."""
    d = tmp_path_factory.mktemp("x1_q_tensor")
    sysf = _write_system(d / "sys.json", ["x1"], 1, QQ)
    instf, witf = d / "inst.json", d / "wit.json"
    assert main(["reduce", "tensor", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "0", "--out", str(witf)]) == 0
    return instf, witf


@pytest.mark.parametrize("fixture", sorted(X1_TENSOR_WITNESS_SHA256))
def test_tensor_witness_bytes_pinned(fixture, request):
    _, witf = request.getfixturevalue(fixture)
    assert hashlib.sha256(witf.read_bytes()).hexdigest() == X1_TENSOR_WITNESS_SHA256[fixture]


# SHA-256 of the instance files of the fixtures; sigma's order and the
# printed polynomials reach the labels and the system, so drift in the
# polynomial arithmetic or its printing changes them
INSTANCE_SHA256 = {
    "empty_gf11_symmetric": "ed657580f246d365ecaa356cf97b591ee350ac265a083ff0d1c79ba7d904ae59",
    "x1_gf2_tensor": "91390fb3103ba25083750c54b51bb7d3e3eb436957e20ebf2f71c19d658c8c08",
    "x1_q_completion": "aba0b8aa8d8436904d1a19864b852d070521cfb9c9e9701ea4bbacf80d7116df",
    "x1_q_tensor": "288a4b68d5423a85598d1d52177878c7842946841fe46caf0b3d1b3b24ff6885",
}


@pytest.mark.parametrize("fixture", sorted(INSTANCE_SHA256))
def test_instance_bytes_pinned(fixture, request):
    instf, _ = request.getfixturevalue(fixture)
    assert hashlib.sha256(instf.read_bytes()).hexdigest() == INSTANCE_SHA256[fixture]


# SHA-256 of the completion instance of {x1*x2 - 1/3} over Q: two variables,
# and negative and fractional coefficients among the sigma elements
X1X2_Q_COMPLETION_INSTANCE_SHA256 = "35361c4ebd684be734414989902c7ebce8dd9ef17e15eb069b6bbcb5c77b0896"


def test_two_variable_completion_instance_pinned(tmp_path):
    sysf = _write_system(tmp_path / "sys.json", ["x1*x2 - 1/3"], 2, QQ)
    instf = tmp_path / "inst.json"
    assert main(["reduce", "completion", sysf, "--out", str(instf)]) == 0
    assert len(json.loads(instf.read_text())["labels"]) == 866
    assert hashlib.sha256(instf.read_bytes()).hexdigest() == X1X2_Q_COMPLETION_INSTANCE_SHA256


@pytest.mark.parametrize("fixture", ["x1_q_completion", "x1_gf2_tensor"])
def test_witness_solution_dashdash_exits_2(fixture, request, tmp_path, capsys):
    # argparse hands "--solution=--" over as an empty list, not a string
    instf, _ = request.getfixturevalue(fixture)
    out = tmp_path / "wit.json"
    capsys.readouterr()
    assert main(["witness", str(instf), "--solution=--", "--out", str(out)]) == 2
    assert "--solution needs comma-separated values" in capsys.readouterr().err
    assert not out.exists()


def _edited(instf, path, edit):
    inst = json.loads(instf.read_text())
    edit(inst)
    return _write(path, canonical_dumps(inst))


def test_edited_system_is_refused(x1_q_completion, empty_gf11_symmetric, tmp_path, capsys):
    # an instance is accepted only as the reduction of its own system, so a
    # stored system that no longer matches the rest of the file is refused
    # by witness and by verify, before any witness is built or summed
    sysf = _write_system(tmp_path / "sys.json", ["x1", "x1^2 + x1"], 1, GF(2))
    tinst, twit = tmp_path / "t.json", tmp_path / "tw.json"
    assert main(["reduce", "tensor", sysf, "--out", str(tinst)]) == 0
    assert main(["witness", str(tinst), "--solution", "0", "--out", str(twit)]) == 0
    cases = [  # alter, drop, and add (a constant is no polynomial of a system)
        (*x1_q_completion, "0", lambda system: system.update(polynomials=["x1 - 1"])),
        (tinst, twit, "0", lambda system: system["polynomials"].pop()),
        (*empty_gf11_symmetric, "", lambda system: system.update(num_vars=1, polynomials=["x1"])),
    ]
    for k, (instf, witf, solution, edit) in enumerate(cases):
        badf = _edited(instf, tmp_path / f"edited{k}.json", lambda inst: edit(inst["system"]))
        capsys.readouterr()
        assert main(["verify", badf, str(witf)]) == 2
        assert main(["witness", badf, "--solution", solution, "--out", str(tmp_path / "w.json")]) == 2
        captured = capsys.readouterr()
        assert "verified" not in captured.out
        assert "reduction of its system" in captured.err
        assert not (tmp_path / "w.json").exists()


_SOLUTIONS = {"x1_q_completion": "0", "x1_gf2_tensor": "0", "empty_gf11_symmetric": ""}


@pytest.mark.parametrize("fixture", sorted(_SOLUTIONS))
def test_an_instance_spelled_otherwise_still_verifies(fixture, request, tmp_path, capsys):
    # an instance is compared with its rebuild byte for byte, and field by
    # field only where the bytes differ: the same fields indented, in
    # another key order, are the same instance
    instf, witf = request.getfixturevalue(fixture)
    inst = json.loads(instf.read_text())
    respelled = _write(tmp_path / "inst.json", json.dumps(dict(reversed(inst.items())), indent=1))
    capsys.readouterr()
    assert main(["verify", respelled, str(witf)]) == 0
    assert capsys.readouterr().out == "verified\n"
    out = tmp_path / "wit.json"
    assert main(["witness", respelled, "--solution", _SOLUTIONS[fixture], "--out", str(out)]) == 0
    assert out.read_bytes() == witf.read_bytes()


def _brief(value):
    text = canonical_dumps(value).rstrip("\n")
    return text if len(text) <= 40 else text[:40] + "..."


@pytest.mark.parametrize("spelling", [True, 1.0], ids=["true", "1.0"])
@pytest.mark.parametrize("field", ["tau", "dims", "entries"])
def test_an_integer_spelled_true_or_1_0_exits_2(field, spelling, x1_gf2_tensor, tmp_path, capsys):
    # true reads as 1 and 1.0 equals 1, but neither is the integer the
    # rebuilt file holds, so both verify and witness name the field
    instf, witf = x1_gf2_tensor
    inst = json.loads(instf.read_text())
    rebuilt = inst[field]
    if field == "tau":
        inst[field] = spelling
    elif field == "dims":
        inst[field] = [spelling, *rebuilt[1:]]
    else:
        inst[field] = [[spelling, *rebuilt[0][1:]], *rebuilt[1:]]
    badf = _write(tmp_path / "bad.json", canonical_dumps(inst))
    message = (
        f"error: {field} {_brief(inst[field])} differs from the instance's {_brief(rebuilt)},"
        " the reduction of its system (at position 0)\n"
    )
    capsys.readouterr()
    assert main(["verify", badf, str(witf)]) == 2
    assert capsys.readouterr().err == message
    assert main(["witness", badf, "--solution", "0", "--out", str(tmp_path / "w.json")]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "w.json").exists()


def _no_sigma(F):
    raise AssertionError("sigma_system called")


def test_reduce_guards_the_label_count_before_sigma(tmp_path, monkeypatch, capsys):
    sysf = _write_system(tmp_path / "sys.json", ["x1^99999999"], 1, QQ)
    monkeypatch.setattr(certify, "sigma_system", _no_sigma)
    assert main(["reduce", "completion", sysf]) == 3
    assert "label count (lower bound) > bound 5000" in capsys.readouterr().err


def test_verify_guards_the_rebuild_before_sigma(x1_q_completion, tmp_path, monkeypatch, capsys):
    instf, witf = x1_q_completion
    badf = _edited(instf, tmp_path / "big.json", lambda inst: inst["system"].update(polynomials=["x1^99999999"]))
    monkeypatch.setattr(certify, "sigma_system", _no_sigma)
    capsys.readouterr()
    assert main(["verify", badf, str(witf)]) == 2
    assert "labels is not the reduction of its system" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("star_map", [1, 2, 3]), ("entries", 5)], ids=["star_map", "entries"]
)
def test_verify_malformed_tensor_instance_exits_2(x1_gf2_tensor, tmp_path, capsys, field, value):
    instf, witf = x1_gf2_tensor
    badf = _edited(instf, tmp_path / "bad.json", lambda inst: inst.update({field: value}))
    capsys.readouterr()
    assert main(["verify", badf, str(witf)]) == 2
    stored = canonical_dumps(value).strip()
    assert f"{field} {stored} differs from the instance's" in capsys.readouterr().err


def test_verify_refuses_a_star_holding_a_slice_0_value(x1_gf2_tensor, tmp_path, capsys):
    instf, witf = x1_gf2_tensor

    def fill_star(inst):
        i, j = inst["star_map"][0]
        inst["entries"] = sorted(inst["entries"] + [[i, j, 0, "1"]])

    badf = _edited(instf, tmp_path / "bad.json", fill_star)
    capsys.readouterr()
    assert main(["verify", badf, str(witf)]) == 2
    assert "entries " in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["tensor", "symmetric"])
def test_verify_witness_terms_not_a_list_exits_2(stage, x1_gf2_tensor, empty_gf11_symmetric, tmp_path, capsys):
    instf, witf = x1_gf2_tensor if stage == "tensor" else empty_gf11_symmetric
    badf = _edited(witf, tmp_path / "bad.json", lambda wit: wit.update(terms=5))
    capsys.readouterr()
    assert main(["verify", str(instf), badf]) == 2
    assert "terms must be a list" in capsys.readouterr().err


def _over_target(wit):
    wit["terms"] += [dict(wit["terms"][-1]) for _ in range(2)]


def _bad_last_term(wit):
    wit["terms"][-1]["c"] = [["1", "1"]]  # a string index


def _other_dims(wit):
    wit["dims"] = [19, 19, 131]


def _dims_below(wit):
    wit["dims"][2] -= 1


def _other_ring(wit):
    wit["ring"] = "gf:3"


@pytest.mark.parametrize(
    "edits, code, message",
    [
        ([_over_target, _bad_last_term], 2, "bad sparse vector entry"),
        ([_other_dims, _bad_last_term], 2, "witness dimensions differ"),
        ([_other_dims], 2, "witness dimensions differ"),
        ([_dims_below], 2, "error: witness dimensions differ from the instance (at position 0)\n"),
        ([_other_ring], 2, "witness ring incompatible"),
        ([_over_target], 4, "134 terms exceed the target rank 132"),
    ],
    ids=["malformed-over-target", "malformed-other-dims", "other-dims", "dims-below", "other-ring", "over-target"],
)
def test_verify_checks_a_tensor_witness_in_order(edits, code, message, x1_gf2_tensor, tmp_path, capsys):
    # verify reads the terms on one pass into the sum, and refuses in the
    # order dims, ring, parse of the terms, term count, sum: the terms are
    # read only against the instance's dims and ring, so dims below the
    # instance's are refused as dims, not as a term index past them, and a
    # malformed last term is an input error whatever the term count
    instf, witf = x1_gf2_tensor
    badf = _edited(witf, tmp_path / "bad.json", lambda wit: [edit(wit) for edit in edits])
    capsys.readouterr()
    assert main(["verify", str(instf), badf]) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


def _spaced(wit):
    """The witness with whitespace around every token."""
    text = json.dumps(wit, separators=(" ,\t", " :\r\n "))
    for c in "[]{}":
        text = text.replace(c, f" {c}\n")
    return f"\n\t {text} \r\n"


@pytest.mark.parametrize(
    "respell",
    [
        lambda wit: json.dumps(wit, indent=2),
        _spaced,
        lambda wit: json.dumps(dict(reversed(wit.items()))),  # terms before ring and dims
    ],
    ids=["indented", "spaced", "terms-first"],
)
def test_a_tensor_witness_spelled_otherwise_still_verifies(respell, x1_gf2_tensor, tmp_path, capsys):
    # the witness is read from its text member by member, whatever the
    # spacing, and terms met before the members that say how to read them
    # are read once those are known
    instf, witf = x1_gf2_tensor
    respelled = _write(tmp_path / "wit.json", respell(json.loads(witf.read_text())))
    capsys.readouterr()
    assert main(["verify", str(instf), respelled]) == 0
    assert capsys.readouterr().out == "verified\n"


def _truncated(text):
    return text[: len(text) // 2]  # inside a term


@pytest.mark.parametrize(
    "edit, message",
    [
        (_truncated, "invalid JSON: Expecting value: line 1 column 3717 (char 3716)"),
        (lambda text: text + "x", "invalid JSON: Extra data: line 2 column 1 (char 7432)"),
        # before the refusal, a repeated key was read as its last copy, and
        # this file, whose first terms are malformed, was verified
        (lambda text: '{"terms":[5],' + text[1:], "field 'terms' is repeated"),
        (lambda text: text.replace('"ring":"gf:2"', '"ring":"gf:2","ring":"gf:2"'), "field 'ring' is repeated"),
        (lambda text: text[: text.index('"terms":') + 8] + "5}\n", "terms must be a list of objects"),
        (lambda text: text.replace('"terms":[{', '"terms":[5,{'), "decomposition terms must be objects"),
        (lambda text: text[:-2] + ',"zzz":1}\n', "unexpected field 'zzz' in a tensor witness"),
    ],
    ids=["truncated", "trailing-data", "repeated-terms", "repeated-ring", "terms-not-a-list", "term-not-an-object", "field-after-terms"],
)
def test_a_malformed_tensor_witness_text_exits_2(edit, message, x1_gf2_tensor, tmp_path, capsys):
    # the verdict comes only once the whole text has been read, so a fault
    # after the terms, or in a repeated key, is refused as input however
    # the terms sum
    instf, witf = x1_gf2_tensor
    badf = _write(tmp_path / "bad.json", edit(witf.read_text()))
    capsys.readouterr()
    assert main(["verify", str(instf), badf]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message} (at position ")


def _cases(test):
    """Each case a parametrized test runs, as its keyword arguments."""
    marks = [m for m in getattr(test, "pytestmark", []) if m.name == "parametrize"]
    cases = [{}]
    for mark in marks:
        names = [n.strip() for n in mark.args[0].split(",")]
        rows = [getattr(row, "values", row) for row in mark.args[1]]  # a pytest.param's values
        rows = [row if len(names) > 1 else (row,) for row in rows]
        cases = [dict(case, **dict(zip(names, row))) for case in cases for row in rows]
    return cases


def _altered(wit):
    """The benchmark's altered witness: one value of the first term plus one."""
    pair = wit["terms"][0]["a"][0]
    pair[1] = str((int(pair[1]) + 1) % 2)


def _extra_entry(value):
    """The witness whose first term has one more c entry, in the last slice."""

    def edit(wit):
        wit["terms"][0]["c"].append([wit["dims"][2] - 1, value])

    return edit


def _cancelling(wit):
    """The benchmark's cancelling witness: the last term and its negation appended."""
    last = wit["terms"][-1]
    wit["terms"] += [last, dict(last, c=[[k, str(-int(v) % 2)] for k, v in last["c"]])]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_altered, "mismatch at (5, 5, 0): instance has 1, witness sums to 0\n"),
        # an entry where the instance has none: the smallest such key is named
        (_extra_entry("1"), "mismatch at (5, 5, 129): instance has 0, witness sums to 1\n"),
        (_cancelling, "134 terms exceed the target rank 132\n"),
    ],
    ids=["altered", "extra-entry", "cancelling"],
)
def test_a_tensor_witness_that_proves_nothing_exits_4(edit, message, x1_gf2_tensor, tmp_path, capsys):
    instf, witf = x1_gf2_tensor
    badf = _edited(witf, tmp_path / "bad.json", edit)
    capsys.readouterr()
    assert main(["verify", str(instf), badf]) == 4
    assert capsys.readouterr().out == message


# every test above that pins what verify says of a witness file
_WITNESS_PINS = [
    test_symmetric_witness_reader_refusals,
    test_symmetric_verify_outputs_are_pinned,
    test_verify_refuses_a_symmetric_witness_key_given_twice,
    test_a_file_that_is_no_object_exits_2_as_json_loads_words_it,
    test_verify_refuses_a_star_holding_a_slice_0_value,
    test_verify_witness_terms_not_a_list_exits_2,
    test_verify_checks_a_tensor_witness_in_order,
    test_a_tensor_witness_spelled_otherwise_still_verifies,
    test_a_malformed_tensor_witness_text_exits_2,
    test_a_tensor_witness_that_proves_nothing_exits_4,
    test_a_key_given_twice_exits_2,
    test_verify_reports_completion_rank,
    test_verify_malformed_completion_input_exits_2,
    test_verify_refuses_an_assignment_of_the_wrong_length,
    test_completion_witness_reader_refusals,
    test_a_completion_witness_spelled_otherwise_still_verifies,
]


@pytest.mark.parametrize("window", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("pin", _WITNESS_PINS, ids=lambda test: test.__name__.removeprefix("test_"))
def test_the_witness_pins_hold_in_any_window(pin, window, request, tmp_path, monkeypatch, capsys):
    # the witness is read through a window refilled a chunk at a time; a
    # chunk of a few characters cuts numbers, keys, terms and whitespace,
    # and changes no exit code and no message of any pin
    monkeypatch.setattr(jsonio, "_WINDOW", window)
    own = {"tmp_path": tmp_path, "capsys": capsys}
    names = inspect.signature(pin).parameters
    for case in _cases(pin):
        pin(**{name: case[name] if name in case else own.get(name) or request.getfixturevalue(name) for name in names})


@pytest.fixture(scope="module")
def x1_z_tensor(tmp_path_factory):
    """Instance and witness files of {x1} over Z, tensor stage (98 labels);
    the witness is over Q."""
    d = tmp_path_factory.mktemp("x1_z_tensor")
    sysf = _write_system(d / "sys.json", ["x1"], 1, ZZ)
    instf, witf = d / "inst.json", d / "wit.json"
    assert main(["reduce", "tensor", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "0", "--out", str(witf)]) == 0
    return instf, witf


def _first_value_plus(delta):
    """The witness with the first value of its first term raised by delta."""

    def edit(wit):
        pair = wit["terms"][0]["a"][0]
        pair[1] = str(Fraction(pair[1]) + Fraction(delta))

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_first_value_plus("1/2"), "mismatch at (16, 16, 0): instance has 1, witness sums to 1/2\n"),
        (_extra_entry("1/3"), "mismatch at (16, 16, 6336): instance has 0, witness sums to 1/3\n"),
    ],
    ids=["altered", "extra-entry"],
)
def test_verify_names_the_smallest_mismatch_over_q(edit, message, x1_z_tensor, tmp_path, capsys):
    # the packed sum of the Q witness is compared with the Z instance's walk
    # into Q; the refusal names the smallest (i, j, k) where they differ,
    # with the expected and the summed value
    instf, witf = x1_z_tensor
    badf = _edited(witf, tmp_path / "bad.json", edit)
    capsys.readouterr()
    assert main(["verify", str(instf), str(witf)]) == 0
    assert main(["verify", str(instf), badf]) == 4
    assert capsys.readouterr().out == "verified\n" + message


def test_the_tensor_stage_builds_no_tensor(x1_gf2_tensor, tmp_path, monkeypatch, capsys):
    # reduce, witness and verify walk the star-slice tensor from B and never
    # build it; witness checks its terms with the one tensor verdict verify
    # runs, and with nothing else
    instf, witf = x1_gf2_tensor
    built, checked = [], []
    build = tensors.DerksenInstance.tensor.fget
    monkeypatch.setattr(tensors.DerksenInstance, "tensor", property(lambda inst: built.append(inst) or build(inst)))
    real = certify.sum_verdict
    monkeypatch.setattr(certify, "sum_verdict", lambda red, *rest: checked.append(red) or real(red, *rest))
    monkeypatch.setattr(tensors, "verify_decomposition", None)
    inst2, wit2 = tmp_path / "inst.json", tmp_path / "wit.json"
    assert main(["reduce", "tensor", str(instf.parent / "sys.json"), "--out", str(inst2)]) == 0
    assert inst2.read_bytes() == instf.read_bytes()
    assert main(["witness", str(inst2), "--solution", "0", "--out", str(wit2)]) == 0
    assert wit2.read_bytes() == witf.read_bytes()
    assert len(checked) == 1
    capsys.readouterr()
    assert main(["verify", str(inst2), str(wit2)]) == 0
    assert capsys.readouterr().out == "verified\n"
    assert len(checked) == 2 and built == []


class _Unread:
    """A grid no code may read."""

    def __getitem__(self, index):
        raise AssertionError("a cell of B was read")

    def __iter__(self):
        raise AssertionError("a cell of B was read")


@pytest.mark.parametrize("fixture", ["x1_gf2_completion", "x1_gf2_tensor", "empty_gf11_symmetric"])
def test_witness_and_verify_each_run_the_stage_verdict_once(fixture, request, tmp_path, monkeypatch, capsys):
    # witness runs the verdict on what it built, verify on what it read,
    # once each; the builders only build: completion_witness reads no cell
    # of B, derksen_witness reads W only at the stars as its terms are
    # walked, and a symmetric witness sums no rank-1 terms
    instf, witf = request.getfixturevalue(fixture)
    stage = json.loads(instf.read_text())["kind"].removesuffix("_instance")
    verdicts, sums, reads = [], [], []
    verdict = "completion_verdict" if stage == "completion" else "sum_verdict"
    for name in ("completion_verdict", "sum_verdict"):
        real = getattr(certify, name)
        monkeypatch.setattr(certify, name, lambda *args, name=name, real=real: verdicts.append(name) or real(*args))
    real_sum = tensors.sum_terms_raw
    for module in (tensors, jsonio, certify):
        monkeypatch.setattr(
            module, "sum_terms_raw", lambda terms, dims, ring: sums.append(dims) or real_sum(terms, dims, ring)
        )
    real_completion, real_derksen = certify.completion_witness, certify.derksen_witness

    def completion_witness(B, point):
        grid, B.raw_grid = B.raw_grid, _Unread()
        try:
            return real_completion(B, point)
        finally:
            B.raw_grid = grid

    class Row(tuple):
        def __getitem__(self, j):
            reads.append(j)
            return tuple.__getitem__(self, j)

    def derksen_witness(inst, W):
        W.raw_grid = tuple(map(Row, W.raw_grid))
        D = real_derksen(inst, W)
        assert reads == []
        return D

    monkeypatch.setattr(certify, "completion_witness", completion_witness)
    monkeypatch.setattr(certify, "derksen_witness", derksen_witness)
    out = tmp_path / "wit.json"
    solution = "" if fixture.startswith("empty") else "0"
    assert main(["witness", str(instf), "--solution", solution, "--out", str(out)]) == 0
    assert out.read_bytes() == witf.read_bytes()
    assert verdicts == [verdict]
    tau = json.loads(instf.read_text()).get("tau")
    if stage == "tensor":
        # one sum, the verdict's; the sum and the text each walk the terms
        assert len(sums) == 1 and len(reads) == 2 * tau == 258
    else:
        assert sums == [] and reads == []
    verdicts.clear()
    sums.clear()
    capsys.readouterr()
    assert main(["verify", str(instf), str(witf)]) == 0
    assert capsys.readouterr().out == "verified\n"
    assert verdicts == [verdict]
    assert len(sums) == (stage == "tensor")


@pytest.mark.parametrize("fixture", ["x1_gf2_completion", "x1_gf2_tensor", "x1_z_tensor", "empty_gf11_symmetric"])
def test_witness_builds_each_piece_once(fixture, request, tmp_path, monkeypatch):
    # each witness is made once, from the stage before it: U is evaluated
    # once, an integer B is taken into Q once, and the padded tensor is
    # built once, piece by piece, by the rebuild of the instance, whose
    # padded tensor the symmetric witness is closed against
    instf, witf = request.getfixturevalue(fixture)
    stage = json.loads(instf.read_text())["kind"].removesuffix("_instance")
    calls = Counter()

    def counted(name, real, counts=lambda *args: True):
        def count(*args, **kwargs):
            calls[name] += counts(*args)
            return real(*args, **kwargs)

        return count

    monkeypatch.setattr(sigma.SymbolicU, "evaluate", counted("evaluate", sigma.SymbolicU.evaluate))
    change_ring = counted("change_ring", IncompleteMatrix.change_ring, lambda B, ring: ring != B.ring)
    monkeypatch.setattr(IncompleteMatrix, "change_ring", change_ring)
    monkeypatch.setattr(tensors.DerksenInstance, "tensor", property(counted("tensor", tensors.DerksenInstance.tensor.fget)))
    for owner, name in ((tensors, "pad_cubical"), (symmetric, "embed_S"), (symmetric, "build_curly_T")):
        count = counted(name, getattr(owner, name))
        for module in (tensors, symmetric, certify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, count)
    out = tmp_path / "wit.json"
    solution = "" if fixture.startswith("empty") else "0"
    assert main(["witness", str(instf), "--solution", solution, "--out", str(out)]) == 0
    assert out.read_bytes() == witf.read_bytes()
    want = {"evaluate": 1, "change_ring": int(fixture == "x1_z_tensor")}
    if stage == "symmetric":
        want.update(tensor=1, pad_cubical=1, embed_S=1, build_curly_T=1)
    assert {name: calls[name] for name in calls.keys() | want.keys()} == want


def test_verify_reads_a_tensor_witness_with_no_tree_of_it(x1_gf2_tensor, monkeypatch, capsys):
    # the terms are decoded one at a time as the text is read: no JSON
    # text as long as the witness is ever parsed whole
    instf, witf = x1_gf2_tensor
    size = len(witf.read_text())
    assert len(instf.read_text()) < size
    real = json.loads

    def loads(text, *args, **kwargs):
        if len(text) >= size:
            raise AssertionError("a text as long as the witness was parsed whole")
        return real(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", loads)
    capsys.readouterr()
    assert main(["verify", str(instf), str(witf)]) == 0
    assert capsys.readouterr().out == "verified\n"


def test_verify_refuses_a_huge_variable_count(x1_gf2_tensor, tmp_path, capsys):
    # the system is parsed without any num_vars-long allocation, then the
    # rebuild's guard refuses it before sigma is built
    instf, witf = x1_gf2_tensor
    badf = _edited(instf, tmp_path / "big.json", lambda inst: inst["system"].update(num_vars=4_000_000))
    capsys.readouterr()
    assert main(["verify", badf, str(witf)]) == 2
    assert "labels is not the reduction of its system" in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 200) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, max_examples=40, database=None)
@given(data=st.data())
def test_instance_field_mutations_exit_2(x1_gf2_tensor, empty_gf11_symmetric, data):
    # any change to one top-level field but kind (a file relabelled as a
    # bare tensor is another, legitimate input) is refused as input
    instf, witf = data.draw(st.sampled_from([x1_gf2_tensor, empty_gf11_symmetric]))
    inst = json.loads(instf.read_text())
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "add":
        key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in inst))
        inst[key] = data.draw(_JSON)
    else:
        key = data.draw(st.sampled_from(sorted(k for k in inst if k != "kind")))
        old = canonical_dumps(inst.pop(key))
        if action == "replace":
            inst[key] = data.draw(_JSON.filter(lambda v: canonical_dumps(v) != old))
    mutated = _write(instf.parent / "mutated.json", canonical_dumps(inst))
    assert main(["verify", mutated, str(witf)]) == 2


@pytest.fixture(scope="module")
def x1_gf2_completion(tmp_path_factory):
    """Instance and witness files of {x1} over GF(2), completion stage (19 labels)."""
    d = tmp_path_factory.mktemp("x1_gf2_completion")
    sysf = _write_system(d / "sys.json", ["x1"], 1, GF(2))
    instf, witf = d / "inst.json", d / "wit.json"
    assert main(["reduce", "completion", sysf, "--out", str(instf)]) == 0
    assert main(["witness", str(instf), "--solution", "0", "--out", str(witf)]) == 0
    return instf, witf


def _witness_meaning(wit):
    """The fields of a witness file and what its values say, read back
    through the parsers."""
    head = sorted(wit), type(wit["format_version"]), wit["kind"]
    if wit["kind"] == "completion_witness":
        ring = jsonio._ring_of(wit)
        matrix = raw_matrix_from_json(ring, wit["matrix"])
        return head, ring, matrix, jsonio.assignment_from_json(ring, wit["assignment"])
    if wit["kind"] == "tensor_witness":
        return head, tensor_witness_parse(wit)
    return head, symmetric_witness_parse(wit)


def _other_value(ring, spelling, nonzero=False):
    """The canonical spelling of another value of the ring, nonzero if asked."""
    v = ring.parse(spelling)
    return next(str(w) for d in (1, 2) if (w := ring.canon(v + d)) != v and (w or not nonzero))


def _mutated(data, fixtures):
    """A fixture's instance and witness files, and the witness as a tree
    with one top-level field replaced, deleted or added, or one matrix cell
    or one term replaced; or changed so that it stays well formed and
    reaches the verdict: one value changed to another of the ring (an
    assignment coordinate, or a coefficient or factor value of a term),
    one cell of W changed, or one term dropped or given twice."""
    instf, witf = data.draw(st.sampled_from(fixtures))
    wit = json.loads(witf.read_text())
    well_formed = ("value", "drop", "duplicate") if "terms" in wit else ("value", "cell")
    action = data.draw(st.sampled_from(["replace", "delete", "add", "item", *well_formed]))
    ring = _witness_ring(wit)
    if action in ("drop", "duplicate"):
        terms = wit["terms"]
        k = data.draw(st.integers(0, len(terms) - 1))
        terms[k : k + 1] = [] if action == "drop" else [terms[k]] * 2
    elif action == "value" and "terms" in wit:
        term = wit["terms"][data.draw(st.integers(0, len(wit["terms"]) - 1))]
        key = data.draw(st.sampled_from(sorted(k for k, v in term.items() if v)))
        if key == "s":
            term["s"] = _other_value(ring, term["s"], nonzero=True)
        else:
            pair = term[key][data.draw(st.integers(0, len(term[key]) - 1))]
            pair[1] = _other_value(ring, pair[1])
    elif action in ("value", "cell"):
        values = wit["assignment"] if action == "value" else data.draw(st.sampled_from(wit["matrix"]))
        k = data.draw(st.integers(0, len(values) - 1))
        values[k] = _other_value(ring, values[k])
    elif action == "add":
        key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in wit))
        wit[key] = data.draw(_JSON)
    elif action == "item":
        # a cell gets a small value, a term another term of the same file,
        # which is well formed and so reaches the exact sum; either may get
        # arbitrary JSON instead
        if "matrix" in wit:
            items = wit["matrix"][data.draw(st.integers(0, len(wit["matrix"]) - 1))]
            pool = st.integers(-3, 3).map(str)
        else:
            items = wit["terms"]
            pool = st.sampled_from(items)
        k = data.draw(st.integers(0, len(items) - 1))
        old = canonical_dumps(items[k])
        items[k] = data.draw((pool | _JSON).filter(lambda v: canonical_dumps(v) != old))
    else:
        key = data.draw(st.sampled_from(sorted(wit)))
        old = canonical_dumps(wit.pop(key))
        if action == "replace":
            wit[key] = data.draw(_JSON.filter(lambda v: canonical_dumps(v) != old))
    return instf, witf, wit


@settings(derandomize=True, max_examples=100, database=None)
@given(data=st.data())
def test_witness_mutations_exit_2_or_4(x1_gf2_completion, x1_gf2_tensor, empty_gf11_symmetric, data):
    # verify refuses a mutated file as input (2) or as a proof (4), and
    # accepts it only where it still says the same witness (a value
    # respelled, say "3" for "1" over GF(2))
    instf, witf, wit = _mutated(data, [x1_gf2_completion, x1_gf2_tensor, empty_gf11_symmetric])
    mutated = _write(witf.parent / "mutated.json", canonical_dumps(wit))
    code = main(["verify", str(instf), mutated])
    if code == 0:
        assert _witness_meaning(wit) == _witness_meaning(json.loads(witf.read_text()))
    else:
        assert code in (2, 4)


_CHECKS = Path(__file__).resolve().parent.parent / "bench" / "checks.py"


@pytest.fixture(scope="module")
def independent_checks():
    """bench/checks.py, loaded by path: output checks that share no code
    with tenred, and the verdicts they gave, by instance and witness text."""
    spec = importlib.util.spec_from_file_location("bench_checks", _CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    verdicts = {}

    def accepts(instf, wit) -> bool:
        key = instf, canonical_dumps(wit)
        if key not in verdicts:
            verdicts[key] = _checks_accept(checks, json.loads(instf.read_text()), wit)
        return verdicts[key]

    return accepts


def _checks_accept(checks, inst, wit) -> bool:
    """Whether bench/checks.py accepts a witness of an instance, the values
    of both read in the ring the witness names; any exception refuses."""
    try:
        field = checks.Field(wit["ring"])
        if inst["kind"] == "completion_instance":
            checks.check_completion_instance(inst, field)
            checks.check_completion_witness(inst, wit, field)
        elif inst["kind"] == "tensor_instance":
            entries = checks.check_tensor_instance(inst, field)
            checks.check_tensor_witness(entries, inst["target_rank"], wit, field)
        else:
            entries = checks.check_symmetric_instance(inst, field)
            checks.check_symmetric_witness(entries, inst["target_rank"], wit, field)
    except Exception:
        return False
    return True


def _agrees_with_the_checks(accepts, instf, wit, tmp):
    """verify exits 0 only where the independent checks accept, and on the
    tensor and symmetric stages they refuse what it refuses with exit 4;
    they never look at a completion's assignment, so a completion verify
    refuses may pass them."""
    path = _write(tmp / "checked.json", canonical_dumps(wit))
    code = main(["verify", str(instf), path])
    if code == 0:
        assert accepts(instf, wit)
    elif code == 4 and wit["kind"] != "completion_witness":
        assert not accepts(instf, wit)
    return code


def _witness_ring(wit):
    return RingDescriptor.from_str(wit["ring"])


def _negated(wit, term):
    """A term with the opposite sign: its c factor, or its coefficient, negated."""
    ring = _witness_ring(wit)
    neg = lambda v: str(ring.canon(-ring.parse(v)))  # noqa: E731
    if "s" in term:
        return dict(term, s=neg(term["s"]))
    return dict(term, c=[[k, neg(v)] for k, v in term["c"]])


def _cancelling(wit):
    """The last term and its negation appended: the same sum, two more terms."""
    last = wit["terms"][-1]
    wit["terms"] += [last, _negated(wit, last)]


def _merged(wit):
    """The cancelling pair's first term merged into the last term, whose
    factors it shares all of: one term of twice its c factor, or twice its
    coefficient, then the negation; the same sum, one more term."""
    ring = _witness_ring(wit)
    twice = lambda v: str(ring.canon(2 * ring.parse(v)))  # noqa: E731
    last = wit["terms"][-1]
    if "s" in last:
        doubled = dict(last, s=twice(last["s"]))
    else:
        doubled = dict(last, c=[[k, twice(v)] for k, v in last["c"]])
    wit["terms"][-1:] = [doubled, _negated(wit, last)]


def _split(wit):
    """One term split in two that share all but one factor: a factor of
    several entries split into its first entry and the rest, or a
    coefficient s into 1 and s - 1 (2 and s - 2 where s is 1); the same
    sum, one more term."""
    ring = _witness_ring(wit)
    terms = wit["terms"]
    for k, term in enumerate(terms):
        if "s" in term:
            s = ring.parse(term["s"])
            one = ring.canon(2 if s == 1 else 1)
            terms[k : k + 1] = [dict(term, s=str(one)), dict(term, s=str(ring.canon(s - one)))]
            return
        wide = next((f for f in "abc" if len(term[f]) > 1), None)
        if wide is not None:
            terms[k : k + 1] = [dict(term, **{wide: term[wide][:1]}), dict(term, **{wide: term[wide][1:]})]
            return
    raise AssertionError("no term to split")


def _over_the_next_prime(wit):
    """The witness relabelled as one over the next prime field, its values
    spelled as they were."""
    p = _witness_ring(wit).modulus
    wit["ring"] = f"gf:{next(q for q in range(p + 1, 2 * p + 2) if all(q % d for d in range(2, q)))}"


_SUM_KEEPING = {"cancelling": _cancelling, "merged": _merged, "split": _split}


@pytest.mark.parametrize("fixture", ["x1_gf2_completion", "x1_gf2_tensor", "x1_z_tensor", "empty_gf11_symmetric"])
def test_verify_agrees_with_the_independent_checks(fixture, independent_checks, request, tmp_path):
    # the witness as made, its terms changed in three ways that keep their
    # sum (each one past the target rank), and the witness relabelled as
    # one over another prime field
    instf, witf = request.getfixturevalue(fixture)
    wit = json.loads(witf.read_text())
    assert _agrees_with_the_checks(independent_checks, instf, wit, tmp_path) == 0
    if "terms" in wit:
        for name, change in _SUM_KEEPING.items():
            changed = json.loads(witf.read_text())
            change(changed)
            assert _agrees_with_the_checks(independent_checks, instf, changed, tmp_path) == 4, name
    if wit["ring"].startswith("gf:"):
        _over_the_next_prime(wit)
        assert _agrees_with_the_checks(independent_checks, instf, wit, tmp_path) == 2


# Examples of the mutation fuzz per fixture, 100 in all.  Drawn from one
# list, the derandomized draws gave the completion fixture 60 of 107 and
# the symmetric one 8; check_symmetric_witness expands every cube term in
# pure Python, about 2.5 s a witness, so the symmetric fixture keeps its 8
# and the other three share the rest evenly.
_MUTATION_EXAMPLES = {"x1_gf2_completion": 31, "x1_gf2_tensor": 31, "x1_z_tensor": 30, "empty_gf11_symmetric": 8}


@pytest.mark.parametrize("fixture", sorted(_MUTATION_EXAMPLES))
def test_verify_agrees_with_the_independent_checks_on_mutations(fixture, independent_checks, request):
    files = request.getfixturevalue(fixture)

    @settings(derandomize=True, max_examples=_MUTATION_EXAMPLES[fixture], database=None, deadline=None)
    @given(data=st.data())
    def agrees(data):
        instf, _, wit = _mutated(data, [files])
        _agrees_with_the_checks(independent_checks, instf, wit, instf.parent)

    agrees()


# Each fixture gets its own examples: drawn from one list of five, the
# derandomized draws never took x1_q_completion
@pytest.mark.parametrize(
    "fixture", ["x1_gf2_completion", "x1_q_completion", "x1_gf2_tensor", "x1_z_tensor", "empty_gf11_symmetric"]
)
def test_a_mutated_witness_reads_alike_in_any_window(fixture, request):
    # verify says the same of a witness read in chunks of a few characters
    # as of the file read in one piece, wherever the chunks cut its text
    files = request.getfixturevalue(fixture)

    @settings(derandomize=True, max_examples=8, database=None, deadline=None)
    @given(data=st.data(), window=st.integers(1, 100), spelled=st.sampled_from([canonical_dumps, _spaced]))
    def reads_alike(data, window, spelled):
        instf, witf, wit = _mutated(data, [files])
        text = spelled(wit)
        path = _write(witf.parent / "windowed.json", text)
        said = []
        for size in (len(text.encode()), window):  # the whole file in one piece, then in many
            with mock.patch.object(jsonio, "_WINDOW", size), redirect_stdout(io.StringIO()) as out:
                with redirect_stderr(io.StringIO()) as err:
                    said.append((main(["verify", str(instf), path]), out.getvalue(), err.getvalue()))
        assert said[0] == said[1]

    reads_alike()


@pytest.fixture(scope="module")
def empty_gf2_tensor(tmp_path_factory):
    """Instance file of the empty system over GF(2), tensor stage (7 x 7 x 1)."""
    d = tmp_path_factory.mktemp("empty_gf2")
    sysf = _write_system(d / "sys.json", [], 0, GF(2))
    instf = d / "inst.json"
    assert main(["reduce", "tensor", sysf, "--out", str(instf)]) == 0
    return instf


def _drop_first_entry(inst):
    inst["entries"].pop(0)


@pytest.mark.parametrize("edit", ["system", "entry"])
@pytest.mark.parametrize("which", ["rank", "srank"])
def test_oracle_rank_refuses_an_edited_instance(which, edit, empty_gf2_tensor, empty_gf11_symmetric, tmp_path, capsys):
    # rank and srank read an instance as certify does: as the reduction of
    # its own system, so a file that is not is refused before any search
    instf = empty_gf2_tensor if which == "rank" else empty_gf11_symmetric[0]
    if which == "rank":
        assert main(["oracle", "rank", str(instf), "--budget", "max_rank=1"]) == 0
    change = (lambda inst: inst["system"].update(num_vars=1, polynomials=["x1"])) if edit == "system" else _drop_first_entry
    badf = _edited(instf, tmp_path / "bad.json", change)
    capsys.readouterr()
    assert main(["oracle", which, badf, "--budget", "max_rank=1"]) == 2
    assert "reduction of its system" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj.update(num_vars=True),
        lambda obj: obj.update(comment="x"),
        lambda obj: obj.update(polynomials=["x١"]),  # an Arabic-Indic digit one
    ],
    ids=["num_vars-true", "unknown-field", "non-ascii-digit"],
)
def test_malformed_polysystem_exits_2(edit, tmp_path):
    obj = polysystem_file(_system(["x1"], 1, GF(2)))
    edit(obj)
    badf = _write(tmp_path / "bad.json", canonical_dumps(obj))
    assert main(["reduce", "completion", badf]) == 2
    assert main(["oracle", "solve", badf]) == 2


_POLY_CHARS = st.sampled_from(list("x0123456789^*+-/ ") + ["١", "²", "\t", "y"])


@settings(derandomize=True, max_examples=60, database=None)
@given(data=st.data())
def test_polysystem_mutations_never_trace_back(tmp_path_factory, data):
    # one top-level field replaced, deleted or added, or one polynomial
    # string edited at one character: reduce and oracle solve read the file
    # or refuse it (2), or stop at a guard (3) or a budget (5), never exit 1
    obj = polysystem_file(_system(["x1^2 + x1", "x1*x2 - 1"], 2, GF(3)))
    action = data.draw(st.sampled_from(["replace", "delete", "add", "polynomial"]))
    if action == "add":
        key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in obj))
        obj[key] = data.draw(_JSON)
    elif action == "polynomial":
        texts = obj["polynomials"]
        k = data.draw(st.integers(0, len(texts) - 1))
        text = texts[k]
        at = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 1))
        texts[k] = text[:at] + data.draw(st.text(_POLY_CHARS, max_size=2)) + text[at + cut :]
    else:
        key = data.draw(st.sampled_from(sorted(obj)))
        old = canonical_dumps(obj.pop(key))
        if action == "replace":
            obj[key] = data.draw(_JSON.filter(lambda v: canonical_dumps(v) != old))
    sysf = _write(tmp_path_factory.mktemp("mutated") / "sys.json", canonical_dumps(obj))
    assert main(["reduce", "completion", sysf, "--guard", "300"]) in (0, 2, 3)
    assert main(["oracle", "solve", sysf, "--budget", "max_candidates=100"]) in (0, 2, 5)


def _derksen_2x2_tensor():
    ring = GF(2)
    B = IncompleteMatrix(ring, [[1, None], [0, 1]])
    return tensor_file(build_derksen(B).tensor)


# stdout of oracle rank and srank on four small inputs: the least witness,
# value, exhausted and lower_bound, byte for byte
ORACLE_PINS = {
    "rank-readme-w": (
        "rank",
        lambda: json.loads(
            '{"format_version":1,"kind":"tensor","ring":"gf:2","dims":[2,2,2],'
            '"entries":[[0,0,1,"1"],[0,1,0,"1"],[1,0,0,"1"]]}'
        ),
        '{"exhausted":true,"format_version":1,"kind":"oracle_result","lower_bound":3,"oracle":"rank","value":3,'
        '"witness":[{"a":[[0,"1"]],"b":[[0,"1"]],"c":[[1,"1"]]},{"a":[[0,"1"]],"b":[[0,"1"],[1,"1"]],"c":[[0,"1"]]},'
        '{"a":[[0,"1"],[1,"1"]],"b":[[0,"1"]],"c":[[0,"1"]]}]}\n',
    ),
    "rank-derksen-2x2-gf2": (
        "rank",
        _derksen_2x2_tensor,
        '{"exhausted":true,"format_version":1,"kind":"oracle_result","lower_bound":3,"oracle":"rank","value":3,'
        '"witness":[{"a":[[0,"1"]],"b":[[0,"1"]],"c":[[1,"1"]]},{"a":[[0,"1"]],"b":[[0,"1"],[1,"1"]],"c":[[0,"1"],[1,"1"]]},'
        '{"a":[[0,"1"],[1,"1"]],"b":[[1,"1"]],"c":[[0,"1"]]}]}\n',
    ),
    "srank-cube-gf11": (
        "srank",
        lambda: symtensor_file(SymTensor(GF(11), ("a", "b"), {(1, 1, 1): 2})),
        '{"exhausted":true,"format_version":1,"kind":"oracle_result","lower_bound":1,"oracle":"srank","value":1,'
        '"witness":[{"s":"2","v":[[1,"1"]]}]}\n',
    ),
    "srank-pair-target-gf11": (
        "srank",
        lambda: symtensor_file(symmetric.pair_target(GF(11), 0)),
        '{"exhausted":true,"format_version":1,"kind":"oracle_result","lower_bound":3,"oracle":"srank","value":3,'
        '"witness":[{"s":"3","v":[[0,"1"],[1,"1"]]},{"s":"4","v":[[0,"1"],[1,"2"]]},{"s":"4","v":[[0,"1"],[1,"3"]]}]}\n',
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_PINS))
def test_oracle_result_bytes_pinned(case, tmp_path, capsys):
    which, make, expected = ORACLE_PINS[case]
    f = _write(tmp_path / "in.json", canonical_dumps(make()))
    capsys.readouterr()
    assert main(["oracle", which, f]) == 0
    assert capsys.readouterr().out == expected


def _completion_of_the_empty_system(d):
    instf = d / "inst.json"
    assert main(["reduce", "completion", _write_system(d / "sys.json", [], 0, GF(11)), "--out", str(instf)]) == 0
    return str(instf)


# each kind of file the command line writes, and the type of an oracle's
# witness: a fixture's instance (0) or witness (1), or the argv of the
# command that writes it, given a scratch directory
WRITTEN_FILES = {
    "polysystem": lambda d: ["encode-3sat", _write(d / "f.cnf", "p cnf 3 1\n1 2 3 0\n")],
    "completion_instance": ("x1_gf2_completion", 0),
    "completion_witness": ("x1_gf2_completion", 1),
    "tensor_instance": ("x1_gf2_tensor", 0),
    "tensor_witness": ("x1_gf2_tensor", 1),
    "symmetric_instance": ("empty_gf11_symmetric", 0),
    "symmetric_witness": ("empty_gf11_symmetric", 1),
    "oracle_result-decomposition": lambda d: [
        "oracle", "rank", _write(d / "t.json", canonical_dumps(_derksen_2x2_tensor()))
    ],
    "oracle_result-symmetric-decomposition": lambda d: [
        "oracle", "srank", _write(d / "s.json", canonical_dumps(symtensor_file(symmetric.pair_target(GF(11), 0))))
    ],
    "oracle_result-matrix": lambda d: ["oracle", "minrank", _completion_of_the_empty_system(d)],
    "oracle_result-value": lambda d: ["oracle", "solve", _system_file(d, ["x1^2 - x1 - 1"], GF(11))],
}


@pytest.mark.parametrize("case", sorted(WRITTEN_FILES))
def test_every_written_file_is_canonical(case, request, tmp_path, capsys):
    # each file is written by one writer that orders its members; whatever
    # it streams, the text is the canonical dump of the tree it reads as
    make = WRITTEN_FILES[case]
    if callable(make):
        assert main(make(tmp_path)) == 0
        text = capsys.readouterr().out
    else:
        fixture, which = make
        text = request.getfixturevalue(fixture)[which].read_text(encoding="utf-8")
    obj = json.loads(text)
    assert obj["kind"] == case.split("-")[0]
    assert text == canonical_dumps(obj)
    witness = obj.get("witness")
    if case == "oracle_result-value":
        assert witness is None and obj["value"]
    elif case == "oracle_result-matrix":
        assert witness and all(type(v) is str for row in witness for v in row)
    elif case == "oracle_result-decomposition":
        assert witness and all(term.keys() == {"a", "b", "c"} for term in witness)
    elif case == "oracle_result-symmetric-decomposition":
        assert witness and all(term.keys() == {"s", "v"} for term in witness)


def _cubes_gf101():
    """x^3 + y^3 + z^3 over GF(101): 10,303 directions, no decomposition of
    one or two cubes."""
    r = GF(101)
    return symtensor_file(SymTensor(r, ("x", "y", "z"), {(i, i, i): 1 for i in range(3)}))


def _bare_40x1x1_gf2():
    return {"format_version": 1, "kind": "tensor", "ring": "gf:2", "dims": [40, 1, 1], "entries": [[0, 0, 0, "1"]]}


@pytest.mark.parametrize(
    "which, make, budget, lower_bounds",
    [
        ("srank", _cubes_gf101, "max_candidates=1000", {1}),
        # only the deadline can stop this one; where it falls may vary
        ("srank", _cubes_gf101, "max_candidates=100000000,max_seconds=1", {1, 2}),
        ("rank", _bare_40x1x1_gf2, "max_candidates=10", {1}),
        # 19 labels: 524,287 directions per factor, 2.7e11 pairs
        ("rank", "x1_gf2_tensor", None, {1}),
    ],
    ids=["srank-candidates", "srank-deadline", "rank-40x1x1", "rank-x1-gf2-instance"],
)
def test_oracle_stops_at_its_budget(which, make, budget, lower_bounds, run_tenred, request, tmp_path):
    # a search over budget reports how far it got, within the child's
    # memory and time limits, and allocates no candidate beyond the budget
    if isinstance(make, str):
        f = request.getfixturevalue(make)[0]
    else:
        f = _write(tmp_path / "in.json", canonical_dumps(make()))
    proc = run_tenred("oracle", which, f, *(["--budget", budget] if budget else []))
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    assert res["exhausted"] is False and res["value"] is None
    assert res["lower_bound"] in lower_bounds


# README's w.json and pair_target(0) over GF(11), as the pins build them
_tensor_w = ORACLE_PINS["rank-readme-w"][1]
_symtensor_pair_target = ORACLE_PINS["srank-pair-target-gf11"][1]


def _set_index(value, position=0):
    def edit(obj):
        obj["entries"][0][position] = value
    return edit


_BARE = {"tensor": ("rank", _tensor_w), "symtensor": ("srank", _symtensor_pair_target)}
_BARE_EDITS = {
    "index-true": _set_index(True),
    "index-float": _set_index(1.0),
    "index-half": _set_index(0.5),
    "repeated-key": lambda obj: obj["entries"].append([*obj["entries"][0][:3], "0"]),
    "unknown-field": lambda obj: obj.update(comment="x"),
}


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        *(pytest.param(kind, edit, None, id=f"{kind}-{name}") for kind in _BARE for name, edit in _BARE_EDITS.items()),
        # the readers refuse what would break the trusted Tensor3 and SymTensor
        pytest.param("tensor", _set_index(2, 2), "entry (0,0,2) outside (2, 2, 2)", id="tensor-entry-outside-dims"),
        pytest.param(
            "tensor", lambda obj: obj.update(dims=[2, 0, 2]), "dimensions must be three positive counts", id="tensor-zero-dim"
        ),
        pytest.param(
            "symtensor", _set_index(2, 2), "entry (0, 0, 2) outside 2 indices", id="symtensor-entry-outside-indices"
        ),
        pytest.param(
            "symtensor",
            lambda obj: obj["entries"].append([0, 1, 0, "2"]),
            "conflicting values for permutations of (0, 0, 1): 1 and 2",
            id="symtensor-conflicting-permutations",
        ),
        pytest.param(
            "symtensor",
            lambda obj: obj.update(index_names=["v1", "v1"]),
            "index names must be unique",
            id="symtensor-repeated-name",
        ),
    ],
)
def test_malformed_bare_file_exits_2(kind, edit, message, tmp_path, capsys):
    which, make = _BARE[kind]
    obj = make()
    edit(obj)
    badf = _write(tmp_path / "bad.json", canonical_dumps(obj))
    capsys.readouterr()
    assert main(["oracle", which, badf]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if message is not None:
        assert err == f"error: {message} (at position 0)\n"


_INDEX = st.integers(-1, 3) | st.booleans() | st.floats(-1, 3) | st.text(max_size=2) | st.none()


@settings(derandomize=True, max_examples=60, database=None)
@given(data=st.data())
def test_bare_file_mutations_never_trace_back(tmp_path_factory, data):
    # one top-level field replaced, deleted or added, or one entry index or
    # value replaced: oracle rank and srank under a small budget, and verify
    # against the file's own least witness, read the file or refuse it (2),
    # reject the witness (4) or stop at a budget (5), never exit 1
    which, make, search, witness_text = data.draw(
        st.sampled_from(
            [
                ("rank", _tensor_w, tensor_rank_bruteforce, lambda D: "".join(jsonio.tensor_witness_text(D))),
                (
                    "srank",
                    _symtensor_pair_target,
                    symmetric_rank_bruteforce,
                    lambda D: "".join(jsonio.symmetric_witness_text(D)),
                ),
            ]
        )
    )
    d = tmp_path_factory.mktemp("bare")
    obj = make()
    witness = search(certify.read_instance(canonical_dumps(obj)).tensor).witness
    witf = _write(d / "wit.json", witness_text(witness))
    action = data.draw(st.sampled_from(["replace", "delete", "add", "entry"]))
    if action == "add":
        key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in obj))
        obj[key] = data.draw(_JSON)
    elif action == "entry":
        entry = obj["entries"][data.draw(st.integers(0, len(obj["entries"]) - 1))]
        at = data.draw(st.integers(0, 3))
        entry[at] = data.draw(_INDEX if at < 3 else st.integers(-3, 3).map(str) | _JSON)
    else:
        key = data.draw(st.sampled_from(sorted(obj)))
        old = canonical_dumps(obj.pop(key))
        if action == "replace":
            obj[key] = data.draw(_JSON.filter(lambda v: canonical_dumps(v) != old))
    f = _write(d / "in.json", canonical_dumps(obj))
    assert main(["oracle", which, f, "--budget", "max_candidates=500"]) in (0, 2, 4, 5)
    assert main(["verify", f, witf]) in (0, 2, 4, 5)


def _tensor_verify_with_last_term(fx, d, **fields):
    """verify of the tensor fixture against its witness with fields of the last term replaced."""
    instf, witf = fx["tensor"]
    return ["verify", str(instf), _edited(witf, d / "w.json", lambda wit: wit["terms"][-1].update(fields))]


def _system_file(d, texts, ring):
    return _write_system(d / "s.json", texts, 1, ring)


# exit code and argv of one command per case, given the fixture files and a
# scratch directory
GC_CASES = {
    "encode-3sat": (0, lambda fx, d: ["encode-3sat", _write(d / "f.cnf", "p cnf 1 1\n1 0\n"), "--ring", "gf:2"]),
    "reduce-tensor": (0, lambda fx, d: ["reduce", "tensor", _system_file(d, ["x1"], GF(2))]),
    "witness-symmetric": (0, lambda fx, d: ["witness", str(fx["sym"][0]), "--solution", ""]),
    "verify-completion": (0, lambda fx, d: ["verify", *map(str, fx["comp"])]),
    "verify-tensor": (0, lambda fx, d: ["verify", *map(str, fx["tensor"])]),
    "verify-symmetric": (0, lambda fx, d: ["verify", *map(str, fx["sym"])]),
    # a malformed index, met inside the streamed sum
    "verify-malformed-term": (2, lambda fx, d: _tensor_verify_with_last_term(fx, d, a=[["0", "1"]])),
    "reduce-guard": (3, lambda fx, d: ["reduce", "completion", _system_file(d, ["x1"], GF(2)), "--guard", "10"]),
    "verify-mismatch": (4, lambda fx, d: _tensor_verify_with_last_term(fx, d, c=[[1, "1"]])),
    "oracle-solve": (0, lambda fx, d: ["oracle", "solve", _system_file(d, ["x1^2 - x1 - 1"], GF(11))]),
    "oracle-minrank": (5, lambda fx, d: ["oracle", "minrank", str(fx["comp"][0]), "--budget", "max_candidates=2"]),
    "oracle-rank": (0, lambda fx, d: ["oracle", "rank", str(fx["tensor"][0]), "--budget", "max_candidates=10"]),
    "oracle-srank": (
        0,
        lambda fx, d: [
            "oracle", "srank", _write(d / "s.json", canonical_dumps(ORACLE_PINS["srank-cube-gf11"][1]())),
            "--budget", "max_rank=1",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(GC_CASES))
def test_commands_leave_the_collector_as_found_and_no_cycles(
    case, x1_gf2_completion, x1_gf2_tensor, empty_gf11_symmetric, tmp_path, capsys
):
    # main switches the cyclic collector off for the command alone, which is
    # sound only if the command leaves no cyclic garbage beyond what parsing
    # its arguments leaves
    code, make = GC_CASES[case]
    argv = make({"comp": x1_gf2_completion, "tensor": x1_gf2_tensor, "sym": empty_gf11_symmetric}, tmp_path)
    gc.collect()
    build_parser().parse_args(argv)
    parsed = gc.collect()
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(argv) == code
            assert gc.isenabled() == enabled
            assert gc.collect() <= parsed
        finally:
            gc.enable()
        capsys.readouterr()


# peak RSS in MiB (VmHWM / 1024) of witness and verify on the clause
# (1 2 3) tensor rung, each bound between the peak with the exact sum
# reduced as it is made (379 and 363 MiB) and the peak when it kept its
# unreduced values (421 and 406 MiB); verify peaked above 500 MiB when the
# witness's 111 MB text was read whole
RUNG_TENSOR_PEAK_MB = {"witness": 400, "verify": 385}


@pytest.mark.slow
def test_the_three_variable_tensor_rung_fits_in_1_gib(tmp_path):
    # clause (1 2 3) over GF(2) at the tensor stage: 1,387 labels, a 61 MB
    # instance and a 110 MB witness of 1,901,517 terms; verify used to
    # parse the witness into a tree, and peaked at 2.5 GB, and witness and
    # verify later peaked at 705 MB on the JSON tree of the instance
    cnf = _write(tmp_path / "f.cnf", "p cnf 3 1\n1 2 3 0\n")
    sysf, instf, witf = tmp_path / "sys.json", tmp_path / "inst.json", tmp_path / "wit.json"
    assert main(["encode-3sat", cnf, "--ring", "gf:2", "--out", str(sysf)]) == 0
    run = tenred_runner(memory_bytes=1 << 30, timeout_s=600, peak=True)
    for argv in (
        ["reduce", "tensor", sysf, "--out", instf],
        ["witness", instf, "--solution", "1,0,0", "--out", witf],
        ["verify", instf, witf],
    ):
        proc = run(*argv)
        assert proc.returncode == 0, (argv[0], proc.stderr)
        if argv[0] in RUNG_TENSOR_PEAK_MB:
            peak_mb = int(proc.stderr.splitlines()[-1]) / 1024
            assert peak_mb < RUNG_TENSOR_PEAK_MB[argv[0]], f"{argv[0]} peaked at {peak_mb:.0f} MB"
    assert proc.stdout == "verified\n"


# peak RSS in MiB (VmHWM / 1024) of reduce, witness and verify on the
# clause (1 2 3) completion rung, each bound between the peak with the grid
# and W written and read a row at a time (39, 50 and 57 MiB) and the peak
# when both were whole JSON trees (72, 87 and 87 MiB)
RUNG_COMPLETION_PEAK_MB = {"reduce": 56, "witness": 69, "verify": 72}


def test_the_three_variable_completion_rung_peaks_below_its_bounds(tmp_path):
    # clause (1 2 3) over GF(2) at the completion stage: 1,387 labels, a
    # 9.7 MB instance and a 7.7 MB witness
    cnf = _write(tmp_path / "f.cnf", "p cnf 3 1\n1 2 3 0\n")
    sysf, instf, witf = tmp_path / "sys.json", tmp_path / "inst.json", tmp_path / "wit.json"
    assert main(["encode-3sat", cnf, "--ring", "gf:2", "--out", str(sysf)]) == 0
    run = tenred_runner(timeout_s=120, peak=True)
    for argv in (
        ["reduce", "completion", sysf, "--out", instf],
        ["witness", instf, "--solution", "1,0,0", "--out", witf],
        ["verify", instf, witf],
    ):
        proc = run(*argv)
        assert proc.returncode == 0, (argv[0], proc.stderr)
        peak_mb = int(proc.stderr.splitlines()[-1]) / 1024
        assert peak_mb < RUNG_COMPLETION_PEAK_MB[argv[0]], f"{argv[0]} peaked at {peak_mb:.0f} MB"
        if argv[0] == "witness":
            assert "verification: verified" in proc.stderr.splitlines()
    assert proc.stdout == "verified\n"
