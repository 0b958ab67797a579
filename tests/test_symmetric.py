import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenred import certify, symmetric
from tenred.errors import (
    FieldTooSmallError,
    StructureError,
    VerificationError,
)
from tenred.jsonio import symtensor_parse
from tenred.linalg import DenseMatrix
from tenred.rings import GF, QQ, ZZ
from tenred.symmetric import (
    PairIndex,
    SymDecomposition,
    SymTensor,
    block_names,
    build_curly_T,
    build_L_pi,
    check_mixed_block_zero,
    embed_S,
    letter_offset,
    padded_names,
    padded_size,
    pair_indices,
    pair_target,
    sum_sym_decomposition_raw,
    sym_pair_decompose,
    symmetric_upper_witness,
    symmetric_witness,
    verify_symmetric_decomposition,
    waring_gadget,
)
from tenred.tensors import Decomposition, Tensor3

from reference import dict_mismatch, sum_decomposition_raw, sum_sym_decomposition_reference, sym_entry, unpacked
from reference import sum_sym_list_kernel
from reference import vec as _vec


def _names(size):
    return tuple(f"e{i}" for i in range(size))


# Lemma helpers: relabelling, rescaling and twin removal preserve symmetric
# rank.  The reduction never calls them; the lemma tests below check them.


def pq_unit(pi, n, ring):
    """Symmetric 0/1 matrix supported on the pair's block, 3n x 3n."""
    if pi.q > n:
        raise ValueError(f"pair {pi} outside 1..{n}")
    ap = letter_offset(pi.letter, n) + pi.p - 1
    aq = letter_offset(pi.letter, n) + pi.q - 1
    z, o = ring.canon(0), ring.canon(1)
    rows = [[z] * (3 * n) for _ in range(3 * n)]
    for r in (ap, aq):
        for c in (ap, aq):
            rows[r][c] = o
    return DenseMatrix(ring, rows)


def monomial_transform(T, rho, f):
    """Relabel indices by a permutation and rescale by a nonzero weight.

    The image has entries f_i f_j f_k T(rho(i)|rho(j)|rho(k)); symmetric
    ranks are preserved, and decompositions map through
    transform_sym_decomposition with the same term count.
    """
    size = T.size
    if sorted(rho) != list(range(size)):
        raise ValueError("rho is not a permutation of the index positions")
    if len(f) != size:
        raise ValueError("weight vector length mismatch")
    if not all(f):
        raise ValueError("weights must be nonzero")
    inv = [0] * size
    for i, target in enumerate(rho):
        inv[target] = i
    fraw = f
    raw = {}
    for (a, b, c), v in T.entries.items():
        x, y, z = sorted((inv[a], inv[b], inv[c]))
        raw[(x, y, z)] = T.ring.canon(fraw[x] * fraw[y] * fraw[z] * v)
    names = tuple(T.index_names[rho[i]] for i in range(size))
    return SymTensor(T.ring, names, raw)


def transform_sym_decomposition(D, rho, f):
    """Image of a decomposition under monomial_transform, term for term."""
    fraw = f
    terms = [
        (s, D.ring.canon_map({i: fraw[i] * v.get(rho[i], 0) for i in range(D.dim)}))
        for s, v in D.raw
    ]
    return SymDecomposition(D.ring, D.dim, terms)


def scale_tensor(T, s):
    if not s:
        raise ValueError("scale factor must be nonzero")
    raw = {k: T.ring.canon(v * s) for k, v in T.entries.items()}
    return SymTensor(T.ring, T.index_names, raw)


def scale_sym_decomposition(D, s):
    return SymDecomposition(D.ring, D.dim, [(D.ring.canon(c * s), v) for c, v in D.raw])


def is_twin(T, dup, orig):
    """Whether the slices at the two indices coincide entrywise."""
    size = T.size
    for y in range(size):
        for z in range(y, size):
            if sym_entry(T, dup, y, z) != sym_entry(T, orig, y, z):
                return False
    return True


def remove_twin(T, dup, orig):
    """Drop a duplicate index whose slices equal those of another index."""
    if dup == orig:
        raise ValueError("an index cannot be its own twin")
    if not is_twin(T, dup, orig):
        raise ValueError(f"index {dup} is not a twin of {orig}")
    remap = {}
    names = []
    for i, name in enumerate(T.index_names):
        if i == dup:
            continue
        remap[i] = len(names)
        names.append(name)
    raw = {}
    for (a, b, c), v in T.entries.items():
        if dup in (a, b, c):
            continue
        raw[(remap[a], remap[b], remap[c])] = v
    return SymTensor(T.ring, tuple(names), raw)


def test_index_layout():
    assert block_names(2) == ("i1", "i2", "j1", "j2", "k1", "k2")
    assert letter_offset("I", 2) == 0
    assert letter_offset("J", 2) == 2
    assert letter_offset("K", 2) == 4
    assert len(pair_indices(1)) == 3
    assert len(pair_indices(2)) == 9
    assert padded_size(1) == 6
    assert padded_size(2) == 15
    assert len(padded_names(2)) == 15
    for n in (1, 2, 5):
        names = padded_names(n)
        for pi in pair_indices(n):
            assert names[symmetric._pair_position(pi, n)] == pi.name
    pi = PairIndex("J", 1, 2)
    assert pi.name == "pair_J_1_2"
    assert pi.is_strict
    assert not PairIndex("I", 1, 1).is_strict
    with pytest.raises(ValueError):
        PairIndex("X", 1, 1)
    with pytest.raises(ValueError):
        PairIndex("I", 2, 1)


def _symtensor_file(names, entries):
    return {"format_version": 1, "kind": "symtensor", "ring": "Z", "index_names": list(names), "entries": entries}


def test_symtensor_canonicalization():
    # a symtensor file's reader stores each entry on its sorted triple and
    # drops zeros; the refusals of conflicting permutations, indices out of
    # range and repeated names are in tests/test_cli.py
    T = symtensor_parse(_symtensor_file(_names(3), [[2, 1, 0, "5"], [0, 0, 1, "0"]]))
    assert T.nnz == 1
    assert T.entries == {(0, 1, 2): 5}
    assert T.index_names == _names(3)
    for perm in itertools.permutations((0, 1, 2)):
        assert sym_entry(T, *perm) == 5
    assert sym_entry(T, 0, 0, 1) == 0
    assert sorted(T.entries.items()) == [((0, 1, 2), 5)]
    ok = symtensor_parse(_symtensor_file(_names(3), [[0, 1, 2, "1"], [2, 1, 0, "1"]]))
    assert ok.nnz == 1


def test_verify_symmetric_decomposition():
    ring = QQ
    v = _vec(ring, [1, 2])
    D = SymDecomposition(ring, 2, [(ring.canon(1), v)])
    cube = SymTensor(
        ring,
        _names(2),
        {
            (0, 0, 0): ring.canon(1),
            (0, 0, 1): ring.canon(2),
            (0, 1, 1): ring.canon(4),
            (1, 1, 1): ring.canon(8),
        },
    )
    ok, mismatch = verify_symmetric_decomposition(cube, D)
    assert ok and mismatch is None
    off = SymTensor(ring, _names(2), {(0, 0, 0): ring.canon(1)})
    ok2, mismatch2 = verify_symmetric_decomposition(off, D)
    assert not ok2
    assert mismatch2[0] == (0, 0, 1)
    assert mismatch2[1] == 0 and mismatch2[2] == 2


def test_embed_S():
    ring = QQ
    T = Tensor3(ring, (1, 1, 1), {(0, 0, 0): ring.canon(1)})
    S = embed_S(T)
    assert S.size == 3
    assert S.index_names == ("i1", "j1", "k1")
    for perm in itertools.permutations((0, 1, 2)):
        assert sym_entry(S, *perm) == 1
    assert S.nnz == 1
    assert sym_entry(S, 0, 0, 1) == 0

    assert embed_S(Tensor3(ring, (2, 2, 2), {})).is_zero
    T2 = Tensor3(ring, (2, 2, 2), {(0, 1, 1): ring.canon(7)})
    S2 = embed_S(T2)
    assert sym_entry(S2, 0, 3, 5) == 7
    assert sym_entry(S2, 0, 1, 2) == 0
    with pytest.raises(ValueError):
        embed_S(Tensor3(ring, (1, 2, 2), {}))


def test_pq_unit():
    ring = GF(11)
    diag = pq_unit(PairIndex("I", 1, 1), 2, ring)
    assert diag.raw_grid[0][0] == 1
    assert sum(1 for i in range(6) for j in range(6) if diag.raw_grid[i][j]) == 1
    strict = pq_unit(PairIndex("J", 1, 2), 2, ring)
    hot = {(i, j) for i in range(6) for j in range(6) if strict.raw_grid[i][j]}
    assert hot == {(2, 2), (2, 3), (3, 2), (3, 3)}
    with pytest.raises(ValueError):
        pq_unit(PairIndex("I", 1, 3), 2, ring)


def test_build_curly_T_n1():
    ring = GF(11)
    T = Tensor3(ring, (1, 1, 1), {(0, 0, 0): ring.canon(1)})
    curly = build_curly_T(embed_S(T), 1)
    assert curly.size == 6
    assert curly.index_names == ("i1", "j1", "k1", "pair_I_1_1", "pair_J_1_1", "pair_K_1_1")
    assert curly.entries == {(0, 1, 2): 1, (0, 0, 3): 1, (1, 1, 4): 1, (2, 2, 5): 1}


def test_build_curly_T_pair_rules():
    ring = GF(11)
    S = SymTensor(ring, block_names(2), {})
    curly = build_curly_T(S, 2)
    assert curly.size == 15
    # the slice of the strict pair (i1, i2) carries exactly its 2x2 block
    pos = dict(zip(curly.index_names, range(15)))
    z = pos["pair_I_1_2"]
    assert sym_entry(curly, 0, 1, z) == 1
    assert sym_entry(curly, 0, 0, z) == 1
    assert sym_entry(curly, 1, 1, z) == 1
    assert sym_entry(curly, 2, 2, z) == 0
    z2 = pos["pair_J_1_1"]
    assert sym_entry(curly, 2, 2, z2) == 1
    assert sym_entry(curly, 2, 3, z2) == 0
    # two pair indices in one triple always give zero
    assert sym_entry(curly, z, z2, 0) == 0
    assert sym_entry(curly, z, z, 0) == 0
    with pytest.raises(ValueError):
        build_curly_T(S, 3)


def test_monomial_transform_identity_and_errors():
    ring = GF(11)
    T = build_curly_T(embed_S(Tensor3(ring, (1, 1, 1), {(0, 0, 0): ring.canon(1)})), 1)
    ident = monomial_transform(T, list(range(6)), [ring.canon(1)] * 6)
    assert ident == T
    with pytest.raises(ValueError):
        monomial_transform(T, [0, 0, 2, 3, 4, 5], [ring.canon(1)] * 6)
    with pytest.raises(ValueError):
        monomial_transform(T, list(range(6)), [ring.canon(1)] * 5)
    with pytest.raises(ValueError):
        monomial_transform(T, list(range(6)), [ring.canon(0)] + [ring.canon(1)] * 5)


def test_monomial_transform_maps_decompositions():
    ring = GF(11)
    rng = random.Random(2)
    T = Tensor3(ring, (1, 1, 1), {(0, 0, 0): ring.canon(1)})
    D = Decomposition(ring, (1, 1, 1), [({0: 1}, {0: 1}, {0: 1})])
    curly = build_curly_T(embed_S(T), 1)
    W = symmetric_witness(curly, D)
    rho = list(range(6))
    rng.shuffle(rho)
    f = [ring.canon(rng.randrange(1, 11)) for _ in range(6)]
    image = monomial_transform(curly, rho, f)
    mapped = transform_sym_decomposition(W, rho, f)
    assert len(mapped) == len(W)
    ok, _ = verify_symmetric_decomposition(image, mapped)
    assert ok


def test_scale_round_trip():
    ring = GF(11)
    T = build_curly_T(embed_S(Tensor3(ring, (1, 1, 1), {(0, 0, 0): ring.canon(1)})), 1)
    s = ring.canon(7)
    back = scale_tensor(scale_tensor(T, s), ring.inverse(s))
    assert back == T
    with pytest.raises(ValueError):
        scale_tensor(T, ring.canon(0))
    D = SymDecomposition(ring, 6, [(1, {0: 1})])
    scaled = scale_sym_decomposition(D, s)
    assert scaled.raw[0][0] == s


def test_twin_round_trip():
    ring = GF(11)
    T = build_curly_T(embed_S(Tensor3(ring, (1, 1, 1), {(0, 0, 0): ring.canon(1)})), 1)
    size = T.size
    dup = size
    names = T.index_names + ("copy_of_0",)

    def image(i):
        return 0 if i == dup else i

    entries = {}
    for x in range(size + 1):
        for y in range(x, size + 1):
            for z in range(y, size + 1):
                v = sym_entry(T, image(x), image(y), image(z))
                if v:
                    entries[(x, y, z)] = v
    dup_T = SymTensor(ring, names, entries)
    assert is_twin(dup_T, dup, 0)
    assert not is_twin(dup_T, dup, 1)
    back = remove_twin(dup_T, dup, 0)
    assert back == T
    with pytest.raises(ValueError):
        remove_twin(dup_T, dup, 1)
    with pytest.raises(ValueError):
        remove_twin(dup_T, 2, 2)


def test_waring_gadget_frozen_rational_values():
    D = waring_gadget(QQ, Fraction(0))
    assert len(D) == 3
    s = [c for c, _ in D.raw]
    r = [v[1] for _, v in D.raw]
    assert s == [Fraction(-27, 40), Fraction(-1, 8), Fraction(4, 5)]
    assert r == [Fraction(-2, 3), 2, 1]
    assert all(v[0] == 1 for _, v in D.raw)


# (s_t, r_t) of each gadget's cubes s_t (e_1 + r_t e_2)^3, a = 1 (the
# rescaled gadget) included: a change to the search or the solve shows here
_GADGET_PINS = {
    GF(11): {
        0: [(4, 3), (4, 2), (3, 1)], 1: [(6, 3), (1, 6), (5, 2)], 2: [(1, 7), (2, 3), (10, 1)],
        3: [(4, 8), (3, 2), (7, 1)], 4: [(2, 7), (7, 2), (6, 1)], 5: [(7, 5), (1, 2), (8, 1)],
        6: [(7, 10), (9, 2), (1, 1)], 7: [(7, 6), (7, 3), (4, 1)], 8: [(3, 4), (3, 3), (2, 1)],
        9: [(9, 6), (2, 2), (9, 1)], 10: [(1, 4), (10, 2), (10, 1)],
    },
    GF(13): {
        0: [(12, 8), (8, 2), (6, 1)], 1: [(3, 3), (12, 6), (12, 2)], 2: [(6, 8), (11, 3), (11, 1)],
        3: [(10, 5), (10, 2), (9, 1)], 4: [(9, 3), (5, 2), (3, 1)], 5: [(12, 4), (12, 2), (7, 1)],
        6: [(5, 6), (9, 2), (5, 1)], 7: [(4, 12), (2, 2), (1, 1)], 8: [(10, 6), (4, 3), (7, 1)],
        9: [(11, 12), (7, 3), (4, 1)], 10: [(1, 7), (11, 2), (11, 1)], 11: [(8, 9), (4, 2), (12, 1)],
        12: [(3, 10), (1, 2), (8, 1)],
    },
    QQ: {
        Fraction(0): [(Fraction(-27, 40), Fraction(-2, 3)), (Fraction(-1, 8), 2), (Fraction(4, 5), 1)],
        Fraction(1): [(Fraction(-4, 3), 3), (Fraction(1, 12), 6), (Fraction(9, 4), 2)],
        Fraction(2): [(Fraction(-8, 3), Fraction(3, 2)), (Fraction(1, 6), 3), (Fraction(9, 2), 1)],
        Fraction(1, 2): [(Fraction(-1, 3), -1), (Fraction(-1, 6), 2), (1, 1)],
        Fraction(-3): [(Fraction(-729, 220), Fraction(-2, 9)), (Fraction(-1, 20), 2), (Fraction(4, 11), 1)],
    },
}


@pytest.mark.parametrize("ring", list(_GADGET_PINS), ids=str)
def test_waring_gadget_pinned_values(ring):
    for a, pinned in _GADGET_PINS[ring].items():
        D = waring_gadget(ring, a)
        assert [(s, v[1]) for s, v in D.raw] == pinned, a
        assert all(v.keys() == {0, 1} and v[0] == 1 for _, v in D.raw)
        assert all(type(x) is type(ring.canon(0)) for s, v in D.raw for x in (s, v[1]))


def _check_moments(D, ring, a):
    s = [c for c, _ in D.raw]
    r = [v[1] for _, v in D.raw]
    assert all(v[0] == 1 for _, v in D.raw)
    for power, want in enumerate((a, 1, 0, 0)):
        total = ring.canon(sum(st * rt**power for st, rt in zip(s, r)))
        assert total == want
    ok, _ = verify_symmetric_decomposition(pair_target(ring, a), D)
    assert ok


def test_waring_gadget_moment_identities_rational():
    rng = random.Random(9)
    seen = {Fraction(0), Fraction(1)}
    values = [Fraction(0), Fraction(1)]
    while len(values) < 50:
        cand = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if cand not in seen:
            seen.add(cand)
            values.append(cand)
    for a in values:
        _check_moments(waring_gadget(QQ, a), QQ, a)


def test_waring_gadget_all_residues_gf11():
    for a in range(11):
        D = waring_gadget(GF(11), a)
        assert len(D) == 3
        _check_moments(D, GF(11), a)


def test_waring_gadget_field_requirements():
    for p in (2, 3, 5, 7):
        with pytest.raises(FieldTooSmallError):
            waring_gadget(GF(p), 0)
    with pytest.raises(ValueError):
        waring_gadget(ZZ, 0)


def test_sym_pair_decompose_standard_basis():
    a = Fraction(3)
    direct = waring_gadget(QQ, a)
    via = SymDecomposition(QQ, 2, sym_pair_decompose(QQ, {0: Fraction(1)}, {1: Fraction(1)}, a))
    assert via == direct


def test_sym_pair_decompose_degenerate():
    u = _vec(QQ, [1, 2, 0])
    empty = sym_pair_decompose(QQ, u, {}, Fraction(0))
    assert len(empty) == 0
    single = sym_pair_decompose(QQ, u, {}, Fraction(1))
    assert len(single) == 1
    assert single[0][0] == 1 and single[0][1] == u


def _pair_span_target(ring, size, u, w, a):
    entries = {}
    for x in range(size):
        for y in range(x, size):
            for z in range(y, size):
                ux, uy, uz = u.get(x, 0), u.get(y, 0), u.get(z, 0)
                val = a * ux * uy * uz + ux * uy * w.get(z, 0) + ux * w.get(y, 0) * uz + w.get(x, 0) * uy * uz
                if ring.canon(val):
                    entries[(x, y, z)] = ring.canon(val)
    return SymTensor(ring, _names(size), entries)


def test_sym_pair_decompose_random_gf11():
    ring = GF(11)
    rng = random.Random(4)
    a = 5
    found = 0
    while found < 8:
        u = _vec(ring, [rng.randrange(11) for i in range(4)])
        w = _vec(ring, [rng.randrange(11) for i in range(4)])
        if not u or not w:
            continue
        pivot = min(u)
        k = w.get(pivot, 0) * ring.inverse(u[pivot])
        if w == ring.canon_map({i: k * v for i, v in u.items()}):
            continue
        found += 1
        D = SymDecomposition(ring, 4, sym_pair_decompose(ring, u, w, a))
        assert len(D) <= 3
        ok, _ = verify_symmetric_decomposition(_pair_span_target(ring, 4, u, w, a), D)
        assert ok


def test_sym_pair_decompose_rejects_dependence():
    u = _vec(QQ, [1, 2])
    with pytest.raises(ValueError):
        sym_pair_decompose(QQ, u, QQ.canon_map({i: 3 * v for i, v in u.items()}), Fraction(0))
    with pytest.raises(ValueError):
        sym_pair_decompose(QQ, {}, _vec(QQ, [1, 0]), Fraction(0))


def test_check_mixed_block_zero():
    ring = GF(11)
    U = SymTensor(ring, block_names(1), {(0, 1, 2): ring.canon(1)})
    with pytest.raises(ValueError):
        check_mixed_block_zero(U, 1)
    ok = SymTensor(ring, block_names(1), {(0, 0, 1): ring.canon(1)})
    check_mixed_block_zero(ok, 1)
    with pytest.raises(ValueError):
        check_mixed_block_zero(ok, 2)


def test_build_L_pi_zero_U():
    ring = GF(11)
    n = 2
    U = SymTensor(ring, block_names(n), {})
    pi = PairIndex("I", 1, 2)
    tensor, deco = build_L_pi(U, pi)
    assert len(deco) <= 3
    pos = dict(zip(padded_names(n), range(padded_size(n))))
    z = pos["pair_I_1_2"]
    assert tensor.entries == {
        (0, 0, z): 1,
        (0, 1, z): 1,
        (1, 1, z): 1,
    }
    assert sym_entry(tensor, z, z, 0) == 0
    with pytest.raises(ValueError):
        build_L_pi(U, PairIndex("I", 1, 1))


def test_build_L_pi_collects_slice_values():
    ring = GF(11)
    n = 2
    # U(i1, i2, j1) = 4 must appear in w at j1; U(i1, i2, i1) is ignored (t <= q)
    U = SymTensor(
        ring,
        block_names(n),
        {(0, 1, 2): ring.canon(4), (0, 0, 1): ring.canon(9)},
    )
    pi = PairIndex("I", 1, 2)
    tensor, deco = build_L_pi(U, pi)
    pos = dict(zip(padded_names(n), range(padded_size(n))))
    z = pos["pair_I_1_2"]
    assert sym_entry(tensor, 0, 1, 2) == 4
    assert sym_entry(tensor, 0, 0, 2) == 4
    assert sym_entry(tensor, 1, 1, 2) == 4
    assert sym_entry(tensor, 0, 1, z) == 1
    ok, _ = verify_symmetric_decomposition(tensor, deco)
    assert ok


def test_build_L_pi_rejects_mixed_U():
    ring = GF(11)
    U = SymTensor(ring, block_names(2), {(0, 2, 4): ring.canon(1)})
    with pytest.raises(ValueError):
        build_L_pi(U, PairIndex("I", 1, 2))


def test_symmetric_upper_witness_zero_n1():
    ring = GF(11)
    U = SymTensor(ring, block_names(1), {})
    D = symmetric_upper_witness(U, 1)
    assert len(D) <= 9
    ok, _ = verify_symmetric_decomposition(build_curly_T(U, 1), D)
    assert ok


def _random_admissible_U(ring, n, rng):
    entries = {}
    size = 3 * n
    for x in range(size):
        for y in range(x, size):
            for z in range(y, size):
                if {x // n, y // n, z // n} == {0, 1, 2}:
                    continue
                v = rng.randrange(ring.modulus)
                if v:
                    entries[(x, y, z)] = v
    return SymTensor(ring, block_names(n), entries)


def test_symmetric_upper_witness_random_n2():
    ring = GF(11)
    rng = random.Random(8)
    for _ in range(5):
        U = _random_admissible_U(ring, 2, rng)
        D = symmetric_upper_witness(U, 2)
        assert len(D) <= 9 * 2 * 1 // 2 + 9 * 2 == 27
        ok, _ = verify_symmetric_decomposition(build_curly_T(U, 2), D)
        assert ok


def test_symmetric_upper_witness_field_rules():
    with pytest.raises(FieldTooSmallError):
        symmetric_upper_witness(SymTensor(GF(7), block_names(1), {}), 1)
    with pytest.raises(ValueError):
        symmetric_upper_witness(SymTensor(ZZ, block_names(1), {}), 1)


def _padded(T):
    """The padded symmetrization of a cubical tensor, as a symmetric
    instance holds it."""
    return build_curly_T(embed_S(T), T.dims[0])


def _unit_cube_instance(ring):
    T = Tensor3(ring, (1, 1, 1), {(0, 0, 0): ring.canon(1)})
    D = Decomposition(ring, (1, 1, 1), [({0: 1}, {0: 1}, {0: 1})])
    return T, D


def test_symmetric_witness_n1():
    ring = GF(11)
    T, D = _unit_cube_instance(ring)
    W = symmetric_witness(_padded(T), D)
    assert len(W) == 10
    ok, _ = verify_symmetric_decomposition(build_curly_T(embed_S(T), 1), W)
    assert ok


def test_symmetric_witness_zero_tensor():
    ring = GF(11)
    T = Tensor3(ring, (2, 2, 2), {})
    D = Decomposition(ring, (2, 2, 2), [])
    W = symmetric_witness(_padded(T), D)
    assert len(W) <= 27
    ok, _ = verify_symmetric_decomposition(build_curly_T(embed_S(T), 2), W)
    assert ok


def test_symmetric_witness_n2_rank2():
    ring = QQ
    rng = random.Random(6)
    terms = []
    for _ in range(2):
        terms.append(tuple(_vec(ring, [rng.randint(1, 3) for _ in range(2)]) for _ in range(3)))
    D = Decomposition(ring, (2, 2, 2), terms)
    T = Tensor3(ring, (2, 2, 2), sum_decomposition_raw(D))
    W = symmetric_witness(_padded(T), D)
    assert len(W) <= 2 + 27
    ok, _ = verify_symmetric_decomposition(build_curly_T(embed_S(T), 2), W)
    assert ok


def test_symmetric_witness_rejects_bad_decomposition():
    ring = GF(11)
    T, _ = _unit_cube_instance(ring)
    bad = Decomposition(ring, (1, 1, 1), [({0: 1}, {0: 1}, {0: 2})])
    with pytest.raises(VerificationError):
        symmetric_witness(_padded(T), bad)
    with pytest.raises(ValueError):
        symmetric_witness(_padded(T), Decomposition(ring, (1, 2, 2), []))
    qt, qd = _unit_cube_instance(GF(7))
    with pytest.raises(FieldTooSmallError):
        symmetric_witness(_padded(qt), qd)


def test_symmetric_witness_n1_minimal_in_family():
    """No 9-term decomposition exists among the witness directions.

    The 10-term witness for the n=1 unit cube is matched from below by
    exhausting every subset of its own direction family (plus the three
    payload unit vectors): no subset of at most 9 directions reproduces
    the padded tensor.
    """
    from tenred.oracle import SearchBudget, restricted_symmetric_search

    ring = GF(11)
    T, D = _unit_cube_instance(ring)
    curly = build_curly_T(embed_S(T), 1)
    W = symmetric_witness(curly, D)
    candidates = [v for _, v in W.raw] + [{i: 1} for i in range(3)]
    assert len(candidates) == 13
    res = restricted_symmetric_search(
        curly, candidates, max_terms=9, budget=SearchBudget(max_candidates=10_000)
    )
    assert res.exhausted
    assert res.value is None
    assert res.lower_bound == 10


def _kernel_sum(D):
    """The packed sum of the kernel as a canonical (x, y, z)-keyed map."""
    return unpacked(sum_sym_decomposition_raw(D.raw, D.dim, D.ring), D.ring, (D.dim,) * 3)


@pytest.mark.parametrize("ring", [GF(11), QQ], ids=str)
def test_sum_sym_decomposition_raw_matches_reference(ring):
    rng = random.Random(41)

    def value():
        if ring == QQ:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.randrange(ring.modulus)

    for trial in range(40):
        dim = rng.randint(1, 9)
        terms = []
        for _ in range(rng.randint(0, 6)):
            v = ring.canon_map({i: value() for i in rng.sample(range(dim), rng.randint(1, dim))})
            s = value()
            if not v or not s:
                continue
            terms.append((s, v))
            if rng.random() < 0.4:
                # a cancelling twin: the pair sums to zero everywhere
                terms.append((ring.canon(-s), v))
        D = SymDecomposition(ring, dim, terms)
        got = _kernel_sum(D)
        assert got == sum_sym_decomposition_reference(D), trial
        assert all(x <= y <= z for x, y, z in got)
    v = _vec(ring, [1, 2, 0, 3])
    s = ring.canon(5)
    assert _kernel_sum(SymDecomposition(ring, 4, [(s, v), (ring.canon(-s), v)])) == {}


def _nonzero(ring):
    if ring == QQ:
        return st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    if ring == ZZ:
        return st.integers(-3, 3).filter(bool)
    return st.integers(1, ring.modulus - 1)


@settings(derandomize=True, database=None, max_examples=40)
@given(data=st.data())
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("ring", [GF(2), GF(11), QQ, ZZ], ids=str)
def test_packed_check_matches_the_tuple_keyed_reference(ring, dim, data):
    # random cubes, and as expected tensor their reference sum with a few
    # entries changed, dropped or added: the packed sum unpacks to the
    # reference sum, and the check names the mismatch the smallest-key
    # rule of the tuple-keyed compare picks, with the same two values
    value = _nonzero(ring).map(ring.canon)
    vec = st.dictionaries(st.integers(0, dim - 1), value, min_size=1, max_size=dim)
    D = SymDecomposition(ring, dim, data.draw(st.lists(st.tuples(value, vec), max_size=5)))
    got = sum_sym_decomposition_reference(D)
    want = dict(got)
    triples = list(itertools.combinations_with_replacement(range(dim), 3))
    for key in data.draw(st.lists(st.sampled_from(triples), max_size=3)):
        v = data.draw(st.none() | value)
        if v is None:
            want.pop(key, None)
        else:
            want[key] = v
    assert _kernel_sum(D) == got
    T = SymTensor(ring, _names(dim), want)
    assert verify_symmetric_decomposition(T, D) == dict_mismatch(want, got)


def _line_terms(data, ring, dim, u_support, w_support):
    """Terms s_k (u + r_k w)^3, u on u_support and w on w_support."""
    value = _nonzero(ring)
    # over Z a run needs d = (r_2 - r_1) w to be 1 or -1 at its pivot
    pivot_value = st.sampled_from([-1, 1]) if ring == ZZ else value
    r_value = st.integers(1, 3) if ring == ZZ else value
    u = ring.canon_map({i: data.draw(value) for i in u_support})
    w = ring.canon_map({i: data.draw(pivot_value if i == min(w_support) else value) for i in w_support})
    if ring in (GF(11), QQ) and data.draw(st.booleans()):
        # a real Waring gadget: its moments make mu_2 = mu_3 = 0
        gadget = waring_gadget(ring, ring.canon(data.draw(st.integers(0, 10))))
        coeffs = [(s, v[1]) for s, v in gadget.raw]
    else:
        k = data.draw(st.integers(2, 8))
        coeffs = [(ring.canon(data.draw(value)), ring.canon(data.draw(r_value))) for _ in range(k)]
    return [(s, ring.canon_map({i: u.get(i, 0) + r * w.get(i, 0) for i in u.keys() | w.keys()})) for s, r in coeffs]


@settings(derandomize=True, database=None, max_examples=120)
@given(ring=st.sampled_from([GF(11), GF(2), QQ, ZZ]), data=st.data())
def test_grouped_sum_matches_per_term_expansion(ring, data):
    dim = data.draw(st.integers(2, 7))
    indices = st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True)
    value = _nonzero(ring)
    terms = []
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(["gadget", "support", "repeat", "overlap", "lone"]))
        if kind == "gadget":
            # u and w on disjoint supports, as in every padding piece
            support = data.draw(indices.filter(lambda s: len(s) >= 2))
            cut = data.draw(st.integers(1, len(support) - 1))
            terms += _line_terms(data, ring, dim, support[:cut], support[cut:])
        elif kind == "overlap":
            # u inside the support of w, so the run's u and d overlap and
            # mu_2, mu_3 are nonzero for most coefficients
            w_support = sorted(data.draw(indices))
            x = data.draw(st.sampled_from(w_support[1:] or w_support))
            terms += _line_terms(data, ring, dim, [x], w_support)
        elif kind == "support":
            # one support, values drawn independently: rarely collinear
            support = data.draw(indices)
            for _ in range(data.draw(st.integers(2, 4))):
                v = ring.canon_map({i: data.draw(value) for i in support})
                terms.append((ring.canon(data.draw(value)), v))
        else:
            v = ring.canon_map({i: data.draw(value) for i in data.draw(indices)})
            for _ in range(data.draw(st.integers(2, 3)) if kind == "repeat" else 1):
                terms.append((ring.canon(data.draw(value)), v))
    D = SymDecomposition(ring, dim, terms)
    assert _kernel_sum(D) == sum_sym_decomposition_reference(D)


def _run_from(raw, i, ring):
    """The run ``_collinear_run`` finds from raw[i], fed the later terms one
    at a time: the index of the term after it (None at the end) and its
    (u, d, mu), or None where raw[i] starts no run and is taken alone."""
    after, u, d, mu = symmetric._collinear_run(raw[i], iter(raw[i + 1 :]), ring)
    if not d:  # raw[i] alone: u = v, mu = (s, 0, 0, 0)
        assert (u, mu) == (raw[i][1], [raw[i][0], 0, 0, 0])
    j = None if after is None else next(k for k, t in enumerate(raw) if t is after and k > i)
    return j, (u, d, mu) if d else None


def _grouped_terms(data, ring, dim):
    """Raw cube terms drawn to exercise the runs: Waring lines and other
    collinear runs, a run broken by a term on its support off its line, a
    run whose last term is the last one, equal vectors in a row, terms on
    one support drawn independently, and lone terms."""
    indices = st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True)
    value = _nonzero(ring)
    terms = []
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(["line", "broken", "equal", "support", "lone"]))
        if kind in ("line", "broken"):
            support = data.draw(indices.filter(lambda s: len(s) >= 2))
            cut = data.draw(st.integers(1, len(support) - 1))
            line = _line_terms(data, ring, dim, support[:cut], support[cut:])
            if kind == "broken":
                # twice the first vector: on the line's support, off the line,
                # put after the two terms that always start the run
                s, v = line[0]
                k = data.draw(st.integers(2, len(line)))
                line.insert(k, (s, ring.canon_map({i: 2 * x for i, x in v.items()})))
            terms += line
        elif kind == "equal":
            v = ring.canon_map({i: data.draw(value) for i in data.draw(indices)})
            terms += [(ring.canon(data.draw(value)), v), (ring.canon(data.draw(value)), dict(v))]
        elif kind == "support":
            support = data.draw(indices)
            for _ in range(data.draw(st.integers(2, 3))):
                terms.append((ring.canon(data.draw(value)), ring.canon_map({i: data.draw(value) for i in support})))
        else:
            v = ring.canon_map({i: data.draw(value) for i in data.draw(indices)})
            terms.append((ring.canon(data.draw(value)), v))
    return terms


@settings(derandomize=True, database=None, max_examples=150)
@given(ring=st.sampled_from([GF(11), GF(13), QQ]), data=st.data())
def test_streamed_grouped_sum_equals_the_list_kernel(ring, data):
    # the grouped sum, fed the terms one at a time, forms the runs the list
    # kernel formed and adds them in the same order: the packed maps are
    # equal, made canonical as the grouped sum returns its map
    dim = data.draw(st.integers(2, 7))
    terms = _grouped_terms(data, ring, dim)
    got = sum_sym_decomposition_raw((t for t in terms), dim, ring)
    assert got == ring.canon_map(sum_sym_list_kernel(terms, dim, ring))
    assert unpacked(got, ring, (dim,) * 3) == sum_sym_decomposition_reference(SymDecomposition(ring, dim, terms))


_COEFFS = ((1, 1), (2, 2), (3, 3), (5, 4))  # (s, r) of the cubes s (u + r w)^3 on one line


@pytest.mark.parametrize("ring", [GF(11), GF(13), QQ], ids=str)
def test_streamed_grouped_sum_on_the_edge_cases(ring):
    # each case next to the run it is about: a run broken on its support,
    # a run ending at the last term, a single term, no terms, equal vectors
    u, w = _vec(ring, [1, 1, 0, 0]), _vec(ring, [0, 0, 3, 1])
    line = [(ring.canon(s), ring.canon_map({i: u.get(i, 0) + r * w.get(i, 0) for i in range(4)})) for s, r in _COEFFS]
    off = (ring.canon(1), _vec(ring, [1, 1, 4, 4]))  # the support of the line, off it
    lone = (ring.canon(7), _vec(ring, [0, 2, 0, 5]))
    cases = {
        "broken": line[:2] + [off] + line[2:],
        "ends-last": [lone] + line,
        "single": [lone],
        "none": [],
        "equal": [lone, (ring.canon(3), dict(lone[1])), *line],
    }
    for name, terms in cases.items():
        fed = []

        def feed():
            for t in terms:
                fed.append(t)
                yield t

        got = sum_sym_decomposition_raw(feed(), 4, ring)
        assert fed == terms, name
        assert got == ring.canon_map(sum_sym_list_kernel(terms, 4, ring)), name
        want = sum_sym_decomposition_reference(SymDecomposition(ring, 4, terms))
        assert unpacked(got, ring, (4, 4, 4)) == want, name
    # the line alone is one run of four, broken it is two runs and a lone term
    assert _run_from(line, 0, ring)[0] is None
    assert _run_from(cases["broken"], 0, ring)[0] == 2 and _run_from(cases["broken"], 2, ring)[0] == 4


def test_collinear_run_groups_a_gadget_exactly():
    ring = GF(11)
    u, w = _vec(ring, [1, 1, 0, 0, 0]), _vec(ring, [0, 0, 3, 0, 7])
    piece = sym_pair_decompose(ring, u, w, 4)
    lone = (1, _vec(ring, [0, 0, 1, 1, 1]))
    raw = [lone, *piece, lone]
    # the lone term shares no support with the gadget; the gadget's three
    # terms form one run, with mu_0 = a and mu_2 = mu_3 = 0 as it was solved
    assert _run_from(raw, 0, ring) == (1, None)
    j, (ru, rd, mu) = _run_from(raw, 1, ring)
    assert j == 4 and mu[0] == 4 and mu[2] == mu[3] == 0
    assert set(ru) == {0, 1} and set(rd) == {2, 4}
    assert _run_from(raw, 4, ring) == (None, None)
    # over Z a run needs a pivot of d equal to 1 or -1
    v1, v2, v3 = (_vec(ZZ, [1, r, 2 * r]) for r in (1, 3, 5))
    assert _run_from([(1, v1), (1, v2), (1, v3)], 0, ZZ)[1] is None
    v1, v2, v3 = (_vec(ZZ, [1, r, 2 * r]) for r in (1, 2, 3))
    assert _run_from([(1, v1), (1, v2), (1, v3)], 0, ZZ)[0] is None  # the run ends with the terms


def _corrupt_pair_pieces(monkeypatch):
    """Make every sym_pair_decompose result double its first coefficient."""
    real = symmetric.sym_pair_decompose

    def corrupt(ring, u, w, a):
        terms = real(ring, u, w, a)
        if not terms:
            return terms
        (s, v), *rest = terms
        return [(ring.canon(2 * s), v), *rest]

    monkeypatch.setattr(symmetric, "sym_pair_decompose", corrupt)


def _symmetric_verdict(T, W):
    """The verdict ``verify`` gives W's terms against the padded tensor of T."""
    red = certify.Reduction("symmetric", None, expected=_padded(T))
    return certify.sum_verdict(red, T.ring, len(W), sum_sym_decomposition_raw(W.raw, W.dim, W.ring))


def test_symmetric_witness_final_check_catches_corrupt_pieces(monkeypatch):
    # symmetric_witness returns the corrupt pieces unchecked; the verdict
    # refuses them and names the first entry they miss
    ring = GF(11)
    T, D = _unit_cube_instance(ring)
    _corrupt_pair_pieces(monkeypatch)
    W = symmetric_witness(_padded(T), D)
    assert _symmetric_verdict(T, W) == "mismatch at (0, 0, 0): instance has 0, witness sums to 5"


def test_public_entry_points_keep_their_checks(monkeypatch):
    ring = GF(11)
    _corrupt_pair_pieces(monkeypatch)
    U = SymTensor(ring, block_names(2), {})
    with pytest.raises(StructureError, match="padded witness fails"):
        symmetric_upper_witness(U, 2)
    with pytest.raises(StructureError, match="pair correction decomposition fails"):
        build_L_pi(U, PairIndex("J", 1, 2))


def test_upper_witness_refuses_an_entry_on_three_letters():
    U = SymTensor(GF(11), block_names(2), {(0, 2, 4): 1})
    with pytest.raises(ValueError, match="spans all three index copies"):
        symmetric_upper_witness(U, 2)


def test_upper_terms_leave_an_entry_on_three_letters_in_the_residual():
    # _upper_terms does not scan U for such an entry; it lies in no pair's
    # slice, so it stays on the working map and the residual check refuses it
    U = SymTensor(GF(11), block_names(2), {(0, 2, 4): 1})
    with pytest.raises(StructureError, match="residual entry at pairwise distinct indices"):
        _upper_terms(U, 2)


def test_symmetric_witness_checks_each_gadget_once(monkeypatch):
    """Each gadget's own check once, and no check of the whole sum, which
    the verdict makes once."""
    ring = GF(11)
    rng = random.Random(3)
    terms = [tuple(_vec(ring, [rng.randrange(11) for _ in range(2)]) for _ in range(3)) for _ in range(2)]
    D = Decomposition(ring, (2, 2, 2), terms)
    T = Tensor3(ring, (2, 2, 2), sum_decomposition_raw(D))
    checks = []
    real_verify = symmetric.verify_symmetric_decomposition

    def counting_verify(S, W):
        checks.append(W.dim)
        return real_verify(S, W)

    monkeypatch.setattr(symmetric, "verify_symmetric_decomposition", counting_verify)
    # the verdict takes the witness's sum, and compares it once
    real_compare = certify.first_mismatch

    def counting_compare(want, got, dims):
        checks.append(dims[0])
        return real_compare(want, got, dims)

    monkeypatch.setattr(certify, "first_mismatch", counting_compare)
    symmetric.waring_gadget.cache_clear()
    W = symmetric_witness(_padded(T), D)
    info = symmetric.waring_gadget.cache_info()
    # the three pair corrections share the a = 0 gadget: solved once, then reused
    assert info.misses and info.hits >= 2
    # every solved gadget checks its 2-dimensional target; the witness is not summed
    assert checks == [2] * info.misses
    assert _symmetric_verdict(T, W) is None
    assert checks == [2] * info.misses + [W.dim]


def _upper_terms(U, n):
    """``symmetric._upper_terms`` given the padded tensor of U as its working map."""
    return symmetric._upper_terms(build_curly_T(U, n).entries, n, U.ring)


def _reference_upper_terms(U, n):
    """The padding terms as each pair's correction tensor builds them: the
    public build_L_pi with its check, the sum of the corrections taken off
    the padded tensor, and the residual split by sym_pair_decompose."""
    ring = U.ring
    size = padded_size(n)
    terms, l_total = [], {}
    for pi in pair_indices(n):
        if pi.is_strict:
            l_tensor, l_deco = build_L_pi(U, pi)
            terms.extend(l_deco.raw)
            for key, v in l_tensor.entries.items():
                l_total[key] = l_total.get(key, 0) + v
    phi = dict(build_curly_T(U, n).entries)
    for key, v in l_total.items():
        phi[key] = phi.get(key, 0) - v
    diag, off_diag = {}, {}
    for (x, y, z), v in ring.canon_map(phi).items():
        assert x == y or y == z, "residual entry at pairwise distinct indices"
        if x == y == z:
            diag[x] = v
        elif x == y:
            off_diag.setdefault(x, {})[z] = v
        else:
            off_diag.setdefault(y, {})[x] = v
    for u_idx in range(3 * n):
        a = diag.get(u_idx, ring.canon(0))
        m = off_diag.get(u_idx, {})
        if a or m:
            terms.extend(sym_pair_decompose(ring, {u_idx: ring.canon(1)}, m, a))
    return SymDecomposition(ring, size, terms)


@settings(derandomize=True, database=None, max_examples=60)
@given(ring=st.sampled_from([GF(11), GF(13), QQ]), data=st.data())
def test_upper_terms_match_the_correction_tensor_construction(ring, data):
    n = data.draw(st.integers(1, 4))
    keys = [
        key
        for key in itertools.combinations_with_replacement(range(3 * n), 3)
        if len({i // n for i in key}) < 3
    ]
    chosen = data.draw(st.lists(st.sampled_from(keys), max_size=12, unique=True))
    value = _nonzero(ring)
    U = SymTensor(ring, block_names(n), {key: ring.canon(data.draw(value)) for key in chosen})
    got = _upper_terms(U, n)
    assert got.raw == _reference_upper_terms(U, n).raw
