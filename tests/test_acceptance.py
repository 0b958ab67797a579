"""End-to-end checks for the shipping gate, one test per numbered criterion.

Every comparison is exact (integer, rational, or prime-field equality);
the only tolerances are the wall-clock limits, which are asserted.  Each
test prints a single CRITERION NN PASS/FAIL line with its elapsed time.
"""

import contextlib
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import tenred
from tenred.jsonio import canonical_dumps
from tenred.linalg import DenseMatrix, matrix_rank
from tenred.oracle import (
    SearchBudget,
    min_completion_rank,
    slice_lemma_check,
    solve_system_bruteforce,
    symmetric_rank_bruteforce,
    tensor_rank_bruteforce,
)
from tenred.polysys import CnfFormula, PolySystem, encode_3sat, parse_polynomial
from tenred.rings import GF, QQ
from tenred.sigma import (
    IncompleteMatrix,
    SymbolicU,
    build_B,
    completion_witness,
    count_labels,
    sigma_system,
)
from tenred.symmetric import (
    build_curly_T,
    embed_S,
    pair_target,
    symmetric_witness,
    verify_symmetric_decomposition,
    waring_gadget,
)
from tenred.tensors import (
    Decomposition,
    Tensor3,
    build_derksen,
    derksen_witness,
    verify_decomposition,
)
from reference import inverse_3x3, matmul, point, polysystem_file, sum_decomposition_raw, symtensor_file, transpose, vec
from test_jsonio import tensor_file
from test_sigma import extract_solution


@contextlib.contextmanager
def _criterion(capsys, num, name, limit_s):
    t0 = time.monotonic()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.monotonic() - t0
        ok = not failed and (limit_s is None or elapsed < limit_s)
        verdict = "PASS" if ok else "FAIL"
        bound = "" if limit_s is None else f", limit {limit_s:g}s"
        with capsys.disabled():
            print(f"\nCRITERION {num:02d} {verdict}: {name} ({elapsed:.1f}s{bound})")
    if limit_s is not None:
        assert elapsed < limit_s, f"{name} took {elapsed:.1f}s, limit {limit_s:g}s"


def _system(texts, num_vars, ring):
    return PolySystem(ring, num_vars, [parse_polynomial(t, num_vars, ring) for t in texts])


@pytest.fixture(scope="module")
def system_q():
    F = _system(["x1^2 - x1"], 1, QQ)
    return F, build_B(F, guard=None)


@pytest.fixture(scope="module")
def system_gf11():
    F = _system(["x1^2 - x1 - 1"], 1, GF(11))
    return F, build_B(F, guard=None)


def _rational_solutions(F):
    # the system is one monic integer quadratic, so every rational root is
    # an integer of magnitude at most 1 + the largest coefficient (= 2);
    # scanning that range is exhaustive
    out = []
    for t in range(-2, 3):
        if F.first_violation((QQ.canon(t),)) is None:
            out.append(t)
    return out


def _field_solutions(F):
    return [list(a.values) for a in solve_system_bruteforce(F)]


def _random_invertible(ring, rng):
    while True:
        if ring == QQ:
            rows = [[ring.canon(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        else:
            rows = [[rng.randrange(ring.modulus) for _ in range(3)] for _ in range(3)]
        g = DenseMatrix(ring, rows)
        if matrix_rank(g) == 3:
            return g


def _two_by_two_family():
    ring = GF(2)
    out = []
    for star_count in (1, 2):
        for stars in itertools.combinations(range(4), star_count):
            free = [p for p in range(4) if p not in stars]
            for values in itertools.product((0, 1), repeat=len(free)):
                cells = [None] * 4
                for p, v in zip(free, values):
                    cells[p] = v
                out.append(IncompleteMatrix(ring, [cells[:2], cells[2:]]))
    return out


def _slice_lemma_family():
    ring = GF(2)
    lines = [(0, 1), (1, 0), (1, 1)]
    family = []
    for payload in itertools.product((0, 1), repeat=4):
        for u in lines:
            for v in lines:
                entries = {}
                for i in range(2):
                    for j in range(2):
                        if payload[2 * i + j]:
                            entries[(i, j, 0)] = 1
                        if u[i] * v[j]:
                            entries[(i, j, 1)] = 1
                family.append(Tensor3(ring, (2, 2, 2), entries))
    return family


def _random_cubic_instances():
    ring = QQ
    rng = random.Random(20260814)
    out = []
    for i in range(10):
        terms = []
        for _ in range(i % 3 + 1):
            vecs = []
            for _ in range(3):
                entries = [Fraction(0), Fraction(0)]
                while not any(entries):
                    entries = [
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)
                    ]
                vecs.append(vec(ring, entries))
            terms.append(tuple(vecs))
        D = Decomposition(ring, (2, 2, 2), terms)
        T = Tensor3(ring, (2, 2, 2), sum_decomposition_raw(D))
        out.append((T, D))
    return out


def test_criterion_01_waring_identity(capsys):
    with _criterion(capsys, 1, "Waring gadget identity", 1.0):
        D = waring_gadget(QQ, Fraction(0))
        assert [s for s, _ in D.raw] == [
            Fraction(-27, 40),
            Fraction(-1, 8),
            Fraction(4, 5),
        ]
        assert [v[1] for _, v in D.raw] == [Fraction(-2, 3), 2, 1]

        rng = random.Random(41)
        rational = {Fraction(0), Fraction(1)}
        while len(rational) < 50:
            rational.add(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
        values = [(QQ, a) for a in sorted(rational)]
        values += [(GF(11), a) for a in range(11)]
        for ring, a in values:
            D = waring_gadget(ring, a)
            assert len(D) == 3
            ok, mismatch = verify_symmetric_decomposition(pair_target(ring, a), D)
            assert ok, mismatch


def test_criterion_02_gadget_srank_three(capsys):
    with _criterion(capsys, 2, "gadget symmetric rank pinned at 3", 60.0):
        A = pair_target(GF(11), 0)
        pairs_only = symmetric_rank_bruteforce(A, SearchBudget(max_rank=2))
        assert pairs_only.value is None
        assert pairs_only.lower_bound == 3
        full = symmetric_rank_bruteforce(A)
        assert full.value == 3
        assert full.exhausted
        ok, mismatch = verify_symmetric_decomposition(A, full.witness)
        assert ok, mismatch


def test_criterion_03_rank3_completions(capsys, system_q, system_gf11):
    with _criterion(capsys, 3, "rank-3 completions from solutions", 120.0):
        F1, B1 = system_q
        sigma1 = sigma_system(F1)
        assert len(sigma1) == 9
        assert B1.nrows == 386 == 9**3 - 7**3
        assert count_labels(sigma1) == 386

        for (F, B), solutions in (
            (system_q, _rational_solutions(system_q[0])),
            (system_gf11, _field_solutions(system_gf11[0])),
        ):
            t0 = time.monotonic()
            assert solutions == ([0, 1] if F.ring == QQ else [[4], [8]])
            for sol in solutions:
                values = sol if isinstance(sol, list) else [sol]
                xi = point(F.ring, values)
                W = completion_witness(B, xi)
                raw = W.raw_rows()
                for i in range(B.nrows):
                    for j in range(B.ncols):
                        want = B.raw_grid[i][j]
                        assert want is None or raw[i][j] == want
                assert matrix_rank(W) == 3
            assert time.monotonic() - t0 < 60.0


def test_criterion_04_extraction_round_trip(capsys, system_q, system_gf11):
    with _criterion(capsys, 4, "factor extraction round trip", 30.0):
        rng = random.Random(17)
        for (F, B), solutions in (
            (system_q, ([0], [1])),
            (system_gf11, ([4], [8])),
        ):
            for values in solutions:
                xi = point(F.ring, values)
                U = SymbolicU(B.row_labels).evaluate(xi, F.ring)
                for _ in range(20):
                    g = _random_invertible(F.ring, rng)
                    P = matmul(transpose(inverse_3x3(g)), U)
                    L = matmul(g, U)
                    recovered = extract_solution(P, L, B)
                    assert recovered == xi


def test_criterion_05_star_slice_witness(capsys, system_q, system_gf11):
    with _criterion(capsys, 5, "star-slice tensor witness size", 120.0):
        for (F, B), first in ((system_q, 0), (system_gf11, 4)):
            t0 = time.monotonic()
            inst = build_derksen(B)
            xi = point(F.ring, [first])
            W = completion_witness(B, xi)
            D = derksen_witness(inst, W)
            assert len(list(D.raw)) == inst.tau + 3
            ok, mismatch = verify_decomposition(inst.tensor, D)
            assert ok, mismatch
            assert time.monotonic() - t0 < 60.0


def test_criterion_06_rank_equals_tau_plus_minrank(capsys):
    with _criterion(capsys, 6, "tensor rank equals tau plus min completion rank", 300.0):
        family = _two_by_two_family()
        assert len(family) == 56
        for B in family:
            inst = build_derksen(B)
            by_tensor = tensor_rank_bruteforce(inst.tensor)
            by_completion = min_completion_rank(B)
            assert by_tensor.exhausted
            assert by_completion.exhausted
            assert by_tensor.value == inst.tau + by_completion.value


def test_criterion_07_slice_lemma(capsys):
    with _criterion(capsys, 7, "slice lemma on rank-one gadget slices", 300.0):
        family = _slice_lemma_family()
        assert len(family) == 144
        for T in family:
            assert slice_lemma_check(T, 1)


def test_criterion_08_symmetric_pipeline(capsys):
    with _criterion(capsys, 8, "symmetric pipeline term bound and identity", 600.0):
        instances = _random_cubic_instances()
        assert len(instances) == 10
        for T, D in instances:
            t0 = time.monotonic()
            # the transversal support assertion is enforced during
            # construction; a violation aborts with StructureError
            curly = build_curly_T(embed_S(T), 2)
            W = symmetric_witness(curly, D)
            assert len(W) <= len(D.raw) + 27
            assert curly.size == 15
            ok, mismatch = verify_symmetric_decomposition(curly, W)
            assert ok, mismatch
            assert time.monotonic() - t0 < 60.0


def _sat_bits(formula):
    out = []
    for bits in itertools.product((0, 1), repeat=formula.num_vars):
        ok = all(any(bits[v] for v in clause) for clause in formula.clauses)
        ok = ok and all(bits[u] != bits[v] for u, v in formula.disequalities)
        if ok:
            out.append(bits)
    return out


def test_criterion_09_encoder_fidelity(capsys):
    with _criterion(capsys, 9, "3-SAT encoder fidelity", 10.0):
        for clause in ((0, 1, 2), (0, 1), (0,)):
            system = encode_3sat(CnfFormula(3, (clause,), ()))
            for bits in itertools.product((0, 1), repeat=3):
                solves = system.first_violation(bits) is None
                assert solves == any(bits[v] for v in clause)
        system = encode_3sat(CnfFormula(2, (), ((0, 1),)))
        for bits in itertools.product((0, 1), repeat=2):
            assert (system.first_violation(bits) is None) == (bits[0] != bits[1])

        formulas = [
            CnfFormula(3, ((0, 1, 2),), ()),
            CnfFormula(3, ((0, 1, 2), (0, 1)), ((0, 2),)),
            CnfFormula(4, ((0, 1, 2), (1, 2, 3), (0, 2, 3)), ((0, 3),)),
            CnfFormula(3, (), ((0, 1), (0, 2), (1, 2))),
            CnfFormula(2, (), ()),
        ]
        for formula in formulas:
            expected = sorted(_sat_bits(formula))
            for ring in (GF(2), GF(11)):
                F = encode_3sat(formula).change_ring(ring)
                got = sorted(a.values for a in solve_system_bruteforce(F))
                assert got == expected


def _cli_env():
    """Environment in which ``python -m tenred`` imports the package under test.

    The directory holding the imported ``tenred`` goes first on PYTHONPATH, so
    neither the working directory, a relative PYTHONPATH nor another installed
    copy can change which code the child process runs.
    """
    env = dict(os.environ)
    root = str(Path(tenred.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def test_criterion_10_determinism(capsys, tmp_path, system_q, system_gf11):
    env = _cli_env()
    with _criterion(capsys, 10, "byte-identical reduction outputs", None):
        for name, (F, _) in (("idempotent", system_q), ("shifted", system_gf11)):
            sysf = tmp_path / f"{name}.json"
            sysf.write_text(canonical_dumps(polysystem_file(F)), encoding="utf-8")
            for stage in ("completion", "tensor"):
                digests = set()
                for threads in ("1", "4"):
                    out = tmp_path / f"{name}-{stage}-t{threads}.json"
                    proc = subprocess.run(
                        [sys.executable, "-m", "tenred", "reduce", stage, str(sysf),
                         "--threads", threads, "--out", str(out)],
                        capture_output=True,
                        text=True,
                        env=env,
                    )
                    assert proc.returncode == 0, proc.stderr
                    digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
                assert len(digests) == 1

        # instances outside the polysystem pipeline: two independent
        # constructions must serialize to the same bytes
        first = [canonical_dumps(tensor_file(build_derksen(B).tensor)) for B in _two_by_two_family()]
        second = [canonical_dumps(tensor_file(build_derksen(B).tensor)) for B in _two_by_two_family()]
        assert first == second
        assert [canonical_dumps(tensor_file(T)) for T in _slice_lemma_family()] == [
            canonical_dumps(tensor_file(T)) for T in _slice_lemma_family()
        ]
        curly = [
            canonical_dumps(symtensor_file(build_curly_T(embed_S(T), 2)))
            for T, _ in _random_cubic_instances()
        ]
        again = [
            canonical_dumps(symtensor_file(build_curly_T(embed_S(T), 2)))
            for T, _ in _random_cubic_instances()
        ]
        assert curly == again
