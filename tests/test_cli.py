import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenred import certify, jsonio, sigma, symmetric
from tenred.cli import main
from tenred.jsonio import (
    canonical_dumps,
    completion_instance_file,
    polysystem_file,
    symtensor_file,
    tensor_file,
)
from tenred.oracle import symmetric_rank_bruteforce, tensor_rank_bruteforce
from tenred.polysys import PolySystem, parse_polynomial
from tenred.rings import GF, QQ, ZZ, Scalar
from tenred.sigma import IncompleteMatrix, build_B
from tenred.symmetric import SymDecomposition, SymTensor, SymTerm
from tenred.tensors import build_derksen


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
    B = IncompleteMatrix(
        ring,
        [[Scalar(ring, 1), None], [Scalar(ring, 0), Scalar(ring, 1)]],
    )
    T = build_derksen(B).tensor
    f = _write(tmp_path / "t.json", canonical_dumps(tensor_file(T)))
    assert main(["oracle", "rank", f]) == 0
    res = _stdout_json(capsys)
    assert res["value"] == 3
    assert res["exhausted"] is True
    assert len(res["witness"]) == 3


def test_oracle_srank_small(tmp_path, capsys):
    ring = GF(11)
    S = SymTensor(ring, ("a", "b"), {(1, 1, 1): Scalar(ring, 2)})
    f = _write(tmp_path / "s.json", canonical_dumps(symtensor_file(S)))
    assert main(["oracle", "srank", f]) == 0
    res = _stdout_json(capsys)
    assert res["value"] == 1
    assert res["exhausted"] is True


def test_oracle_srank_over_capability(tmp_path):
    ring = GF(11)
    S = SymTensor(ring, ("a", "b", "c", "d"), {(0, 0, 0): Scalar(ring, 1)})
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
    B = IncompleteMatrix(ring, [[Scalar(ring, 1), None]])
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

    def corrupt_first(u, w, a):
        D = real(u, w, a)
        calls.append(1)
        if len(calls) > 1 or not D.terms:
            return D
        bad = SymTerm(D.terms[0].s * Scalar(D.ring, 2), D.terms[0].v)
        return SymDecomposition(D.ring, D.dim, (bad,) + D.terms[1:])

    monkeypatch.setattr(symmetric, "sym_pair_decompose", corrupt_first)
    out = tmp_path / "wit.json"
    capsys.readouterr()
    assert main(["witness", str(instf), "--solution", "", "--out", str(out)]) == 4
    assert "symmetric witness fails" in capsys.readouterr().err
    assert not out.exists()


def test_completion_witness_rank_from_unit_block(tmp_path, monkeypatch, capsys):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(11))
    instf = tmp_path / "inst.json"
    assert main(["reduce", "completion", sysf, "--out", str(instf)]) == 0
    capsys.readouterr()
    assert main(["witness", str(instf), "--solution", "0", "--out", str(tmp_path / "w.json")]) == 0
    assert "rank: 3" in capsys.readouterr().err

    real = certify.completion_witness

    def broken_unit_block(F, point, B=None):
        W = real(F, point, B=B)
        e = sigma.unit_label_positions(B)[0]
        rows = [list(r) for r in W.rows]
        rows[e][e] = Scalar(W.ring, 2)
        return type(W)(W.ring, rows)

    monkeypatch.setattr(certify, "completion_witness", broken_unit_block)
    assert main(["witness", str(instf), "--solution", "0", "--out", str(tmp_path / "x.json")]) == 4
    assert "not the identity at the unit labels" in capsys.readouterr().err


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
# of every star, so drift in either changes it
X1_TENSOR_WITNESS_SHA256 = {
    "x1_gf2_tensor": "d4ffeb250b9992968ea61e255ec283a449c29d8e1f71fd507482c55455114fe0",
    "x1_q_tensor": "6f0269d5785aecd31ef5114e26ffb3eea6dda09325bd7c7966e7a46a1f7397f6",
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
        matrix = jsonio.raw_matrix_from_json(ring, wit["matrix"])
        return head, ring, matrix, jsonio.assignment_from_json(ring, wit["assignment"])
    if wit["kind"] == "tensor_witness":
        return head, jsonio.tensor_witness_parse(wit)
    return head, jsonio.symmetric_witness_parse(wit)


@settings(derandomize=True, max_examples=100, database=None)
@given(data=st.data())
def test_witness_mutations_exit_2_or_4(x1_gf2_completion, x1_gf2_tensor, empty_gf11_symmetric, data):
    # one top-level field replaced, deleted or added, or one matrix cell or
    # one term replaced: verify refuses the file as input (2) or as a proof
    # (4), and accepts it only where it still says the same witness (a
    # value respelled, say "3" for "1" over GF(2))
    instf, witf = data.draw(st.sampled_from([x1_gf2_completion, x1_gf2_tensor, empty_gf11_symmetric]))
    wit = json.loads(witf.read_text())
    action = data.draw(st.sampled_from(["replace", "delete", "add", "item"]))
    if action == "add":
        key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in wit))
        wit[key] = data.draw(_JSON)
    elif action == "item":
        # a well-formed symmetric term would cost a full sum of 3,162
        # terms, so the symmetric file gets arbitrary JSON only
        if "matrix" in wit:
            items = wit["matrix"][data.draw(st.integers(0, len(wit["matrix"]) - 1))]
            pool = st.integers(-3, 3).map(str)
        else:
            items = wit["terms"]
            pool = st.sampled_from(items) if wit["kind"] == "tensor_witness" else st.nothing()
        k = data.draw(st.integers(0, len(items) - 1))
        old = canonical_dumps(items[k])
        items[k] = data.draw((_JSON | pool).filter(lambda v: canonical_dumps(v) != old))
    else:
        key = data.draw(st.sampled_from(sorted(wit)))
        old = canonical_dumps(wit.pop(key))
        if action == "replace":
            wit[key] = data.draw(_JSON.filter(lambda v: canonical_dumps(v) != old))
    mutated = _write(witf.parent / "mutated.json", canonical_dumps(wit))
    code = main(["verify", str(instf), mutated])
    if code == 0:
        assert _witness_meaning(wit) == _witness_meaning(json.loads(witf.read_text()))
    else:
        assert code in (2, 4)


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
    B = IncompleteMatrix(ring, [[Scalar(ring, 1), None], [Scalar(ring, 0), Scalar(ring, 1)]])
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
        lambda: symtensor_file(SymTensor(GF(11), ("a", "b"), {(1, 1, 1): Scalar(GF(11), 2)})),
        '{"exhausted":true,"format_version":1,"kind":"oracle_result","lower_bound":1,"oracle":"srank","value":1,'
        '"witness":[{"s":"2","v":[[1,"1"]]}]}\n',
    ),
    "srank-pair-target-gf11": (
        "srank",
        lambda: symtensor_file(symmetric.pair_target(Scalar(GF(11), 0))),
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


def _cubes_gf101():
    """x^3 + y^3 + z^3 over GF(101): 10,303 directions, no decomposition of
    one or two cubes."""
    r = GF(101)
    return symtensor_file(SymTensor(r, ("x", "y", "z"), {(i, i, i): Scalar(r, 1) for i in range(3)}))


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


def _set_index(value):
    def edit(obj):
        obj["entries"][0][0] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set_index(True),
        _set_index(1.0),
        _set_index(0.5),
        lambda obj: obj["entries"].append([*obj["entries"][0][:3], "0"]),
        lambda obj: obj.update(comment="x"),
    ],
    ids=["index-true", "index-float", "index-half", "repeated-key", "unknown-field"],
)
@pytest.mark.parametrize("which, make", [("rank", _tensor_w), ("srank", _symtensor_pair_target)], ids=["tensor", "symtensor"])
def test_malformed_bare_file_exits_2(which, make, edit, tmp_path, capsys):
    obj = make()
    edit(obj)
    badf = _write(tmp_path / "bad.json", canonical_dumps(obj))
    capsys.readouterr()
    assert main(["oracle", which, badf]) == 2
    assert "error:" in capsys.readouterr().err


_INDEX = st.integers(-1, 3) | st.booleans() | st.floats(-1, 3) | st.text(max_size=2) | st.none()


@settings(derandomize=True, max_examples=60, database=None)
@given(data=st.data())
def test_bare_file_mutations_never_trace_back(tmp_path_factory, data):
    # one top-level field replaced, deleted or added, or one entry index or
    # value replaced: oracle rank and srank under a small budget, and verify
    # against the file's own least witness, read the file or refuse it (2),
    # reject the witness (4) or stop at a budget (5), never exit 1
    which, make, search, witness_file = data.draw(
        st.sampled_from(
            [
                ("rank", _tensor_w, tensor_rank_bruteforce, jsonio.tensor_witness_file),
                ("srank", _symtensor_pair_target, symmetric_rank_bruteforce, jsonio.symmetric_witness_file),
            ]
        )
    )
    d = tmp_path_factory.mktemp("bare")
    obj = make()
    witness = search(certify.read_instance(obj).tensor).witness
    witf = _write(d / "wit.json", canonical_dumps(witness_file(witness)))
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
