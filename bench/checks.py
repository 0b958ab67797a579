"""Output checks that read the artifacts as plain JSON.

Nothing here imports ``tenred``: each check recomputes what it needs with
its own exact arithmetic, so a fault shared by the program and its own
verifier still shows.  Every check raises ``CheckError`` on the first
disagreement.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


class Field:
    """Exact values of one ring spelling: ``Q``, ``Z`` or ``gf:p``."""

    def __init__(self, spec: str):
        self.p = int(spec[3:]) if spec.startswith("gf:") else None
        _require(self.p is not None or spec in ("Q", "Z"), f"unknown ring {spec!r}")

    def value(self, text: str):
        _require(isinstance(text, str), f"scalar {text!r} is not a string")
        return int(text) % self.p if self.p else Fraction(text)

    def norm(self, v):
        return v % self.p if self.p else v

    def units(self) -> set:
        """The spellings of +1 and -1 (one spelling over GF(2))."""
        return {"1", str(self.p - 1)} if self.p else {"1", "-1"}


def check_system(obj: dict, num_vars: int, num_clauses: int, ring: str) -> None:
    _require(obj.get("kind") == "polysystem", "system file has the wrong kind")
    _require(obj.get("ring") == ring, f"system ring {obj.get('ring')!r} is not {ring}")
    _require(obj.get("num_vars") == num_vars, "system has the wrong variable count")
    # one booleanity polynomial per variable, one polynomial per clause
    _require(
        len(obj.get("polynomials", ())) == num_vars + num_clauses,
        "system has the wrong polynomial count",
    )


def check_labels(labels: list, field: Field) -> int:
    """|H| = m^3 - (m-u)^3 over the m distinct coordinates, u of them +-1."""
    coords = {c for lab in labels for c in lab}
    m = len(coords)
    u = len(coords & field.units())
    _require(all(len(lab) == 3 for lab in labels), "a label is not a triple")
    _require(len({tuple(lab) for lab in labels}) == len(labels), "labels repeat")
    _require(
        len(labels) == m**3 - (m - u) ** 3,
        f"{len(labels)} labels, but m={m}, u={u} gives {m**3 - (m - u) ** 3}",
    )
    return len(labels)


def unit_label_positions(labels: list) -> list[int]:
    pos = {tuple(lab): i for i, lab in enumerate(labels)}
    units = (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1"))
    _require(all(u in pos for u in units), "a unit label is missing")
    return [pos[u] for u in units]


def check_completion_instance(inst: dict, field: Field) -> None:
    _require(inst.get("kind") == "completion_instance", "not a completion instance")
    n = check_labels(inst["labels"], field)
    grid = inst["grid"]
    _require(len(grid) == n and all(len(row) == n for row in grid), "grid is not |H| x |H|")
    nulls = sum(v is None for row in grid for v in row)
    _require(inst["tau"] == nulls, f"tau {inst['tau']} but {nulls} null cells")


def check_completion_witness(inst: dict, wit: dict, field: Field) -> None:
    """W agrees with every specified cell and is exactly rank 3."""
    _require(wit.get("kind") == "completion_witness", "not a completion witness")
    grid = inst["grid"]
    W = [[field.value(v) for v in row] for row in wit["matrix"]]
    n = len(grid)
    _require(len(W) == n and all(len(row) == n for row in W), "witness shape differs")
    for i, (grow, wrow) in enumerate(zip(grid, W)):
        for j, g in enumerate(grow):
            if g is not None and field.value(g) != wrow[j]:
                raise CheckError(f"witness disagrees with the instance at ({i},{j})")
    E = unit_label_positions(inst["labels"])
    for a, i in enumerate(E):
        for b, j in enumerate(E):
            _require(W[i][j] == (1 if a == b else 0), "unit-label block is not the identity")
    # rank >= 3 from the identity block; rank <= 3 since W = W[:,E] W[E,:]
    r0, r1, r2 = (W[e] for e in E)
    for i, row in enumerate(W):
        c0, c1, c2 = (row[e] for e in E)
        for j, v in enumerate(row):
            if field.norm(c0 * r0[j] + c1 * r1[j] + c2 * r2[j]) != v:
                raise CheckError(f"W differs from W[:,E] W[E,:] at ({i},{j})")


def _entries(obj: dict, field: Field) -> dict:
    out = {}
    for i, j, k, v in obj["entries"]:
        key = (i, j, k)
        _require(key not in out, f"entry {key} repeats")
        out[key] = field.value(v)
    return out


def _sparse(pairs, field: Field) -> list:
    return [(i, field.value(v)) for i, v in pairs]


def check_tensor_instance(inst: dict, field: Field) -> dict:
    """Label count, tau = stars = slices - 1, target tau + 3; returns the entries."""
    _require(inst.get("kind") == "tensor_instance", "not a tensor instance")
    n = check_labels(inst["labels"], field)
    tau = inst["tau"]
    stars = [tuple(s) for s in inst["star_map"]]
    _require(len(stars) == tau and len(set(stars)) == tau, "star_map is not tau distinct cells")
    _require(inst["dims"] == [n, n, tau + 1], f"dims {inst['dims']} are not [|H|, |H|, tau+1]")
    _require(inst["target_rank"] == tau + 3, "tensor target rank is not tau + 3")
    entries = _entries(inst, field)
    star_slices = {}
    for (i, j, k), v in entries.items():
        if k:
            _require(k not in star_slices, f"slice {k} has more than one entry")
            star_slices[k] = ((i, j), v)
    for t, cell in enumerate(stars, start=1):
        _require(star_slices.get(t) == (cell, 1), f"slice {t} is not the unit at star {cell}")
        _require((cell[0], cell[1], 0) not in entries, f"star {cell} holds a value in slice 0")
    _require(len(star_slices) == tau, "a slice beyond tau holds an entry")
    return entries


def check_tensor_witness(entries: dict, target: int, wit: dict, field: Field) -> None:
    """The terms sum to the instance entries, with no more terms than the target."""
    _require(wit.get("kind") == "tensor_witness", "not a tensor witness")
    terms = wit["terms"]
    _require(len(terms) <= target, f"{len(terms)} terms exceed the target {target}")
    acc: dict = {}
    for t in terms:
        a, b, c = _sparse(t["a"], field), _sparse(t["b"], field), _sparse(t["c"], field)
        for i, va in a:
            for j, vb in b:
                ab = va * vb
                for k, vc in c:
                    key = (i, j, k)
                    acc[key] = acc.get(key, 0) + ab * vc
    total = {k: field.norm(v) for k, v in acc.items() if field.norm(v) != 0}
    _compare(entries, total)


def check_symmetric_instance(inst: dict, field: Field) -> dict:
    """Index count 3m + 3m(m+1)/2 and target (tau+3) + 9m(m-1)/2 + 9m."""
    _require(inst.get("kind") == "symmetric_instance", "not a symmetric instance")
    n = check_labels(inst["labels"], field)
    tau, m = inst["tau"], inst["payload_size"]
    _require(len(inst["star_map"]) == tau, "star_map length is not tau")
    _require(m == max(n, tau + 1), "payload size is not max(|H|, tau + 1)")
    _require(
        len(inst["index_names"]) == 3 * m + 3 * m * (m + 1) // 2,
        f"{len(inst['index_names'])} indices for payload size {m}",
    )
    _require(
        inst["target_rank"] == (tau + 3) + 9 * m * (m - 1) // 2 + 9 * m,
        f"symmetric target {inst['target_rank']} is not (tau+3) + 9m(m-1)/2 + 9m",
    )
    entries = _entries(inst, field)
    _require(all(i <= j <= k for i, j, k in entries), "an entry key is not sorted")
    return entries


def check_symmetric_witness(entries: dict, target: int, wit: dict, field: Field) -> None:
    """The cube terms s v(x)v(x)v sum to the instance on sorted index triples."""
    _require(wit.get("kind") == "symmetric_witness", "not a symmetric witness")
    terms = wit["terms"]
    _require(len(terms) <= target, f"{len(terms)} terms exceed the target {target}")
    acc: dict = {}
    for t in terms:
        s = field.value(t["s"])
        v = sorted(_sparse(t["v"], field))
        for (x, vx), (y, vy), (z, vz) in combinations_with_replacement(v, 3):
            key = (x, y, z)
            acc[key] = acc.get(key, 0) + s * vx * vy * vz
    total = {k: field.norm(v) for k, v in acc.items() if field.norm(v) != 0}
    _compare(entries, total)


def _compare(want: dict, got: dict) -> None:
    if want == got:
        return
    key = min(set(want) ^ set(got) or {k for k in want if want[k] != got[k]})
    raise CheckError(f"terms sum to {got.get(key, 0)} at {key}, the instance has {want.get(key, 0)}")
