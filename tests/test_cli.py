import hashlib
import json
from fractions import Fraction

import pytest

from tenred import cli, sigma, symmetric
from tenred.cli import main
from tenred.jsonio import (
    canonical_dumps,
    completion_instance_file,
    polysystem_file,
    symtensor_file,
    tensor_file,
)
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
    assert "not the star-slice tensor of its matrix" in capsys.readouterr().err


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

    real = cli.completion_witness

    def broken_unit_block(F, point, B=None):
        W = real(F, point, B=B)
        e = sigma.unit_label_positions(B)[0]
        rows = [list(r) for r in W.rows]
        rows[e][e] = Scalar(W.ring, 2)
        return type(W)(W.ring, rows)

    monkeypatch.setattr(cli, "completion_witness", broken_unit_block)
    assert main(["witness", str(instf), "--solution", "0", "--out", str(tmp_path / "x.json")]) == 4
    assert "not the identity at the unit labels" in capsys.readouterr().err


def test_reduce_computes_sigma_once(tmp_path, monkeypatch):
    sysf = _write_system(tmp_path / "sys.json", ["x1"], 1, GF(2))
    real = sigma.sigma_system
    calls = []

    def counting(F):
        calls.append(F)
        return real(F)

    monkeypatch.setattr(sigma, "sigma_system", counting)
    monkeypatch.setattr(cli, "sigma_system", counting)
    assert main(["reduce", "completion", sysf, "--out", str(tmp_path / "inst.json")]) == 0
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
        pytest.param(_grid_not_a_list, "grid must be a nonempty list of nonempty rows", id="grid"),
        pytest.param(_matrix_rows_not_lists, "matrix rows must be lists, got int", id="rows"),
        pytest.param(_polynomials_not_a_list, "polynomials must be a list of strings", id="polynomials"),
        pytest.param(_labels_not_a_list, "labels must be a list of string triples", id="labels"),
        pytest.param(_label_not_strings, "label must be a string triple, got [5, '1', '1']", id="label"),
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
