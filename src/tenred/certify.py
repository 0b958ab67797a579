"""What a ``verified`` line proves, and the one path from a system to an instance.

An instance is its system.  ``reduce_system`` is the only code that turns
a polynomial system F into an instance file, and ``read_instance`` accepts
a completion, tensor or symmetric instance file only if it *is* that
reduction: it rebuilds the instance from the file's own ``system`` and
refuses (exit 2) a file whose canonical JSON differs from the rebuilt one
in any top-level field, a missing or an extra field included.  The
rebuild's guards are the file's own label count and, on the symmetric
stage, its index count, so reading never builds more than the file
already lists.  Every claim below is therefore about the reduction of the
file's system F, never about numbers stored next to it.

``verify`` runs the same three steps on every stage: the witness ring must
be the instance's ring, or a field an integer instance embeds in (only Q
for a completion); the term count may not exceed the target rank worked
out from the rebuilt instance; then one exact check.  A ``verified`` line
means, over the witness ring:

* completion: the witness assignment solves F, the witness matrix agrees
  with B(F) at every specified cell, and its exact rank is 3;
* tensor: at most tau+3 rank-1 terms sum exactly to the star-slice tensor
  of B(F), so that tensor has rank at most tau+3;
* symmetric: at most (tau+3) + 4.5(m^2+m) cube terms sum exactly to the
  padded symmetrization of the size-m payload, so its symmetric rank is
  at most that.

By the reduction, each bound can be met exactly when F has a solution in
that field.  A bare ``tensor`` or ``symtensor`` file carries no system and
no target: ``verified`` then says only that the terms sum exactly to the
stored tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import jsonio
from .errors import GuardExceededError, ParseError, StructureError
from .linalg import rank_raw
from .polysys import Assignment, PolySystem
from .rings import QQ, Scalar, ZZ
from .sigma import IncompleteMatrix, SymbolicU, build_B, completion_witness, sigma_system, unit_block_mismatch
from .symmetric import (
    SymTensor,
    build_curly_T,
    embed_S,
    padded_size,
    padding_terms,
    require_big_field,
    symmetric_witness,
    verify_symmetric_decomposition,
)
from .tensors import (
    Decomposition,
    DerksenInstance,
    Rank1Term,
    Tensor3,
    build_derksen,
    derksen_witness,
    pad_cubical,
    verify_decomposition,
)

STAGES = {"completion_instance": "completion", "tensor_instance": "tensor", "symmetric_instance": "symmetric"}
WITNESS_FIELDS = {"completion": ("assignment", "matrix"), "tensor": ("dims", "terms"), "symmetric": ("dim", "terms")}


@dataclass(frozen=True)
class Reduction:
    """An instance and what a witness of it must prove.

    Witness terms must sum to ``tensor``, at most ``target_rank`` of them;
    both are None at the completion stage.  A bare tensor file has only
    these two.
    """

    stage: str
    B: IncompleteMatrix | None
    inst: DerksenInstance | None = None
    tensor: Tensor3 | SymTensor | None = None
    target_rank: int | None = None


def _guard_sigma(F: PolySystem, guard: int | None) -> None:
    """Refuse F on a lower bound of |H|, before sigma is built.

    sigma holds 0, 1 and each variable; it also holds 1 and the D prefix
    products, of distinct degrees 1..D, of a monomial of top degree D.  So
    |sigma| >= m = max(n, D) + 2, and |H| >= m^3 - (m-1)^3.
    """
    m = max([F.num_vars] + [f.degree for f in F.polynomials]) + 2
    bound = m**3 - (m - 1) ** 3
    if guard is not None and bound > guard:
        raise GuardExceededError(bound, guard, "label count (lower bound)")


def reduce_system(
    F: PolySystem,
    stage: str,
    guard: int | None,
    index_guard: int | None,
    report: Callable[[str, object], None],
) -> tuple[dict, Reduction]:
    """The instance file of a stage built from F, and the reduction itself.

    ``guard`` bounds the label count and ``index_guard`` the symmetric
    index count; None disables either.  Sizes are reported to ``report``
    as they become known.
    """
    if stage == "symmetric":
        require_big_field(F.ring)
    _guard_sigma(F, guard)
    sigma = sigma_system(F)
    report("sigma", len(sigma))
    B = build_B(F, guard=guard, sigma=sigma)
    report("labels", B.nrows)
    report("tau", B.tau)
    if stage == "completion":
        return jsonio.completion_instance_file(B), Reduction(stage, B)
    m = max(B.nrows, B.tau + 1)
    if stage == "symmetric" and index_guard is not None and padded_size(m) > index_guard:
        raise GuardExceededError(padded_size(m), index_guard, "symmetric indices")
    inst = build_derksen(B)
    report("target_rank", inst.target_rank)
    if stage == "tensor":
        return jsonio.tensor_instance_file(inst, B), Reduction(stage, B, inst, inst.tensor, inst.target_rank)
    S = build_curly_T(embed_S(pad_cubical(inst.tensor)), m)
    target = inst.target_rank + padding_terms(m)
    report("symmetric_indices", S.size)
    report("symmetric_target_rank", target)
    return jsonio.symmetric_instance_file(S, target, m, inst, B), Reduction(stage, B, inst, S, target)


def _listed(obj: dict, field: str) -> int:
    """How many items the file lists in a field, as a guard for its rebuild."""
    items = jsonio._need(obj, field)
    if not isinstance(items, list):
        raise ParseError(f"{field} must be a list of {'string triples' if field == 'labels' else 'strings'}", 0)
    return len(items)


def _brief(value) -> str:
    text = jsonio.canonical_dumps(value).rstrip("\n")
    return text if len(text) <= 40 else text[:40] + "..."


def _difference(stored: dict, rebuilt: dict) -> str:
    """The first top-level field, in sorted key order, where two files differ."""
    dump = jsonio.canonical_dumps
    for key in sorted(stored.keys() | rebuilt.keys()):
        if key not in stored:
            return f"missing field {key!r}"
        if key not in rebuilt:
            return f"unexpected field {key!r}"
        if dump(stored[key]) != dump(rebuilt[key]):
            shown = f"{key} {_brief(stored[key])} differs from the instance's {_brief(rebuilt[key])}"
            return f"{shown}, the reduction of its system"


def read_instance(obj: dict) -> Reduction:
    """The reduction an instance file is, as the module docstring says; a
    bare tensor or symtensor file is read as it stands."""
    kind = obj.get("kind")
    if kind == "tensor":
        return Reduction("tensor", None, tensor=jsonio.tensor_parse(obj))
    if kind == "symtensor":
        return Reduction("symmetric", None, tensor=jsonio.symtensor_parse(obj))
    stage = STAGES.get(kind) if isinstance(kind, str) else None
    if stage is None:
        raise ParseError(f"expected an instance file, got {kind!r}", 0)
    F = jsonio.system_from_json(jsonio._need(obj, "system"))
    labels = _listed(obj, "labels")
    indices = _listed(obj, "index_names") if stage == "symmetric" else None
    try:
        rebuilt, red = reduce_system(F, stage, labels, indices, lambda key, value: None)
    except GuardExceededError as e:
        field = "index_names" if e.what == "symmetric indices" else "labels"
        raise ParseError(f"{field} is not the reduction of its system ({e})", 0) from e
    if jsonio.canonical_dumps(rebuilt) != jsonio.canonical_dumps(obj):
        raise ParseError(_difference(obj, rebuilt), 0)
    return red


def witness_file(red: Reduction, solution: str, report: Callable[[str, object], None]) -> dict:
    """The witness file a solution, comma-separated values, induces.

    Witnesses live over Q for an integer instance, else over its ring.
    Each stage's witness is checked by its builder before it is returned.
    """
    B = red.B
    field = QQ if B.ring == ZZ else B.ring
    values = [v.strip() for v in solution.split(",") if v.strip()]
    try:
        point = Assignment(tuple(Scalar.from_str(field, v) for v in values))
    except ValueError as e:
        raise ParseError(f"bad solution value: {e}", 0) from e
    W = completion_witness(B.system, point, B=B)
    if red.stage == "completion":
        # W = U^T U with three rows in U, so rank(W) <= 3; the identity at
        # the unit labels gives rank(W) >= 3 without an elimination
        bad = unit_block_mismatch(W.raw_grid, B)
        if bad is not None:
            raise StructureError(f"completion is not the identity at the unit labels, cell {bad}")
        report("rank", 3)
        report("verification", "verified")
        return jsonio.completion_witness_file(point, W)
    inst = red.inst if B.ring == field else build_derksen(B.change_ring(field))
    U = SymbolicU(inst.source.row_labels).evaluate(point, field)
    D = derksen_witness(inst, W, U, U)
    if red.stage == "tensor":
        report("terms", len(D.terms))
        report("verification", "verified")
        return jsonio.tensor_witness_file(D)
    padded = pad_cubical(inst.tensor)
    m = padded.dims[0]
    Dp = Decomposition(field, padded.dims, [Rank1Term(t.a.pad(m), t.b.pad(m), t.c.pad(m)) for t in D.terms])
    WS = symmetric_witness(padded, Dp)
    report("terms", len(WS.terms))
    report("target_rank", red.target_rank)
    report("verification", "verified")
    return jsonio.symmetric_witness_file(WS)


def _completion_failure(B: IncompleteMatrix, wit: dict) -> str | None:
    ring = jsonio._ring_of(wit)
    rows = jsonio.raw_matrix_from_json(ring, jsonio._need(wit, "matrix"))
    point = jsonio.assignment_from_json(ring, jsonio._need(wit, "assignment"))
    if len(rows) != B.nrows or len(rows[0]) != B.ncols:
        raise ParseError("witness shape differs from the instance", 0)
    if B.ring != ring:
        if B.ring != ZZ or ring != QQ:
            raise ParseError("witness ring incompatible with the instance", 0)
        B = B.change_ring(ring)
    bad = B.system.change_ring(ring).first_violation(point.values)
    if bad is not None:
        return f"assignment fails: {bad[0]} evaluates to {bad[1]}"
    for i, (row, expect_row) in enumerate(zip(rows, B.raw_grid)):
        for j, expect in enumerate(expect_row):
            if expect is not None and row[j] != expect:
                return f"mismatch at ({i},{j}): instance has {expect}, witness has {row[j]}"
    r = rank_raw(rows, ring)  # last: it mutates the rows
    return None if r == 3 else f"completion rank is {r}, not 3"


def failure(red: Reduction, wit: dict) -> str | None:
    """Why a witness file does not prove what the module docstring says, or None."""
    if wit.get("kind") != f"{red.stage}_witness":
        raise ParseError(f"cannot verify a {wit.get('kind')!r} witness against a {red.stage} instance", 0)
    jsonio._only_fields(wit, f"{red.stage} witness", *WITNESS_FIELDS[red.stage])
    if red.stage == "completion":
        return _completion_failure(red.B, wit)
    T = red.tensor
    if red.stage == "tensor":
        D = jsonio.tensor_witness_parse(wit)
        if D.dims != T.dims:
            raise ParseError("witness dimensions differ from the instance", 0)
        if T.ring != D.ring:
            if T.ring != ZZ or not D.ring.is_field:
                raise ParseError("witness ring incompatible with the instance", 0)
            T = T.change_ring(D.ring)
        exact = verify_decomposition
    else:
        D = jsonio.symmetric_witness_parse(wit)
        if D.dim != T.size:
            raise ParseError("witness dimension differs from the instance", 0)
        if T.ring != D.ring:
            raise ParseError("witness ring incompatible with the instance", 0)
        exact = verify_symmetric_decomposition
    # a witness longer than the target proves nothing about the rank
    # bound, however exactly it sums
    if red.target_rank is not None and len(D.terms) > red.target_rank:
        return f"{len(D.terms)} terms exceed the target rank {red.target_rank}"
    ok, mismatch = exact(T, D)
    if ok:
        return None
    key, want, got = mismatch
    return f"mismatch at {key}: instance has {want}, witness sums to {got}"
