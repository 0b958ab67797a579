"""What a ``verified`` line proves, and the one path from a system to an instance.

An instance is its system.  ``reduce_system`` is the only code that turns
a polynomial system F into an instance file, whose canonical text it gives
in pieces on every stage, as ``jsonio``'s one file writer orders and
streams them; ``read_instance`` accepts a completion, tensor or symmetric
instance file only if it *is* that reduction: it rebuilds the instance
from the file's own ``system`` and refuses (exit 2) a file whose canonical
JSON differs from the rebuilt one in any top-level field, a missing or an
extra field included.  It walks the file's top-level members with no tree
of its entries and stars, which are stepped over where their text is a
plain list of flat lists, keeps only the system and two counts through the
rebuild, then compares the file's text with the rebuilt canonical text,
piece by piece as the rebuild writes it; only text that differs is parsed
again and compared field by field, so a file spelled otherwise (indented,
keys reordered) is still accepted.  The rebuild's guards are the file's
own label count and, on the symmetric stage, its index count, so reading
never builds more than the file already lists.  Every claim below is
therefore about the reduction of the file's system F, never about numbers
stored next to it.

``verify`` runs the same steps on every stage: the witness ring must be
the instance's ring, or a field an integer instance embeds in (only Q for
a completion), and on the term stages it and the dimensions are checked
before any term is read; then the stage's verdict (``completion_verdict``,
or ``sum_verdict`` on the term stages) decides, once: the term count may
not exceed the target rank worked out from the rebuilt instance, and one
exact check follows.  ``witness`` makes each stage's witness once, from
the stage before it: B is taken into the witness field once, the
completion W is built from it and the point, the tensor terms from W
alone, and the symmetric terms from those and the padded tensor the
rebuild already holds.  It calls the same verdict, once, on what it
built, before any byte is written, so its ``verification: verified``
says what ``verify``'s ``verified`` says; the builders it calls only
build.  A ``verified`` line means, over the witness ring:

* completion: the witness assignment solves F, the witness matrix W agrees
  with B(F) at every specified cell, and its exact rank is 3: those cells
  make W the identity at the unit labels E, and W = W[:,E] W[E,:] holds;
* tensor: at most tau+3 rank-1 terms sum exactly to the star-slice tensor
  of B(F), so that tensor has rank at most tau+3;
* symmetric: at most (tau+3) + 4.5(m^2+m) cube terms sum exactly to the
  padded symmetrization of the size-m payload, so its symmetric rank is
  at most that.

A witness is read from its text one term, or one row of W, at a time,
with no JSON tree of it and never as one text: the file is read in
pieces, through a window that holds one piece and the term being
decoded.  A tensor or cube term goes straight into the exact sum, with no
list of the terms, and a row of W is kept as a list of raw values.  The
verdict comes only once the whole text has been read, so a fault anywhere
in the file is refused as input first.  The one packed sum is then
compared with the expected entries: the star-slice tensor's, walked from
B and never stored, or the padded tensor's.

By the reduction, each bound can be met exactly when F has a solution in
that field.  A bare ``tensor`` or ``symtensor`` file carries no system and
no target: ``verified`` then says only that the terms sum exactly to the
stored tensor.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_not
from typing import Callable, Iterable

from . import jsonio
from .errors import GuardExceededError, ParseError, VerificationError
from .linalg import factors_through_units, rank_raw
from .polysys import Assignment, PolySystem
from .rings import QQ, ZZ
from .sigma import IncompleteMatrix, build_B, completion_witness, sigma_system, unit_label_positions
from .symmetric import (
    SymTensor,
    build_curly_T,
    embed_S,
    padded_size,
    padding_terms,
    require_big_field,
    sum_sym_decomposition_raw,
    symmetric_witness,
)
from .tensors import (
    DerksenInstance,
    Tensor3,
    build_derksen,
    derksen_witness,
    first_mismatch,
    pad_cubical,
    sum_terms_raw,
)

STAGES = {"completion_instance": "completion", "tensor_instance": "tensor", "symmetric_instance": "symmetric"}
WITNESS_FIELDS = {"completion": ("assignment", "matrix"), "tensor": ("dims", "terms"), "symmetric": ("dim", "terms")}


@dataclass(frozen=True)
class Reduction:
    """An instance and what a witness of it must prove.

    Witness terms must sum to ``expected``, at most ``target_rank`` of
    them; both are None at the completion stage.  On the tensor stage it is
    the star-slice tensor of B, walked from B; on the symmetric stage the
    padded tensor.  A bare tensor file has only these two.
    """

    stage: str
    B: IncompleteMatrix | None
    expected: DerksenInstance | Tensor3 | SymTensor | None = None
    target_rank: int | None = None

    @property
    def tensor(self) -> Tensor3 | SymTensor | None:
        """``expected`` as a tensor, the tensor stage's built on each access."""
        e = self.expected
        return e.tensor if isinstance(e, DerksenInstance) else e


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
) -> tuple[Iterable[str], Reduction]:
    """The canonical text of the instance file of a stage built from F, in
    pieces, and the reduction itself.

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
        return jsonio.completion_instance_text(B), Reduction(stage, B)
    m = max(B.nrows, B.tau + 1)
    if stage == "symmetric" and index_guard is not None and padded_size(m) > index_guard:
        raise GuardExceededError(padded_size(m), index_guard, "symmetric indices")
    inst = build_derksen(B)
    report("target_rank", inst.target_rank)
    if stage == "tensor":
        return jsonio.tensor_instance_text(inst, B), Reduction(stage, B, inst, inst.target_rank)
    S = build_curly_T(embed_S(pad_cubical(inst.tensor)), m)
    target = inst.target_rank + padding_terms(m)
    report("symmetric_indices", S.size)
    report("symmetric_target_rank", target)
    return jsonio.symmetric_instance_text(S, target, m, B), Reduction(stage, B, S, target)


def _listed(obj: dict, field: str) -> int:
    """How many items the file lists in a field, as a guard for its rebuild."""
    items = jsonio._need(obj, field)
    if not isinstance(items, list):
        raise ParseError(f"{field} must be a list of {'string triples' if field == 'labels' else 'strings'}", 0)
    return len(items)


def _brief(value) -> str:
    text = jsonio.canonical_dumps(value).rstrip("\n")
    return text if len(text) <= 40 else text[:40] + "..."


def _difference(stored: dict, rebuilt: dict) -> str | None:
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


def read_instance(text: str, *kinds: str) -> Reduction:
    """The reduction an instance file's text is, as the module docstring
    says; a bare tensor or symtensor file is read as it stands.  Given
    ``kinds``, a file of any other kind is refused first.

    The grid, entries and stars are stepped over by ``jsonio.members``
    where their text is a plain list of flat lists, as a reduction writes
    them: the comparison with the rebuilt text checks them byte for byte.
    A bare file, a small oracle input, is decoded whole."""
    obj = jsonio.members(text, "entries", "grid", "star_map")
    if kinds:
        jsonio.expect_kind(obj, *kinds)
    kind = obj.get("kind")
    if kind in ("tensor", "symtensor"):
        obj = jsonio.loads(text)
    if kind == "tensor":
        return Reduction("tensor", None, expected=jsonio.tensor_parse(obj))
    if kind == "symtensor":
        return Reduction("symmetric", None, expected=jsonio.symtensor_parse(obj))
    stage = STAGES.get(kind) if isinstance(kind, str) else None
    if stage is None:
        raise ParseError(f"expected an instance file, got {kind!r}", 0)
    F = jsonio.system_from_json(jsonio._need(obj, "system"))
    labels = _listed(obj, "labels")
    indices = _listed(obj, "index_names") if stage == "symmetric" else None
    del obj  # the rebuild is compared with the text, not with these members
    try:
        rebuilt, red = reduce_system(F, stage, labels, indices, lambda key, value: None)
    except GuardExceededError as e:
        field = "index_names" if e.what == "symmetric indices" else "labels"
        raise ParseError(f"{field} is not the reduction of its system ({e})", 0) from e
    reason = _text_difference(text, rebuilt)
    if reason is not None:
        raise ParseError(reason, 0)
    return red


def _text_difference(text: str, pieces: Iterable[str]) -> str | None:
    """Where a file's text differs from the canonical text given in pieces,
    as ``_difference`` says it, or None.  Each piece is compared with the
    text where the one before it ended; only when the bytes differ are both
    parsed, the rebuilt text made of the text that matched and the pieces
    not yet compared, as the file may be the same one spelled otherwise
    (indented, keys reordered), or differ in some field."""
    pos = 0
    pieces = iter(pieces)
    for piece in pieces:
        if not text.startswith(piece, pos):
            break
        pos += len(piece)
    else:
        if pos == len(text):
            return None
        piece = ""
    return _difference(jsonio.loads(text), json.loads("".join([text[:pos], piece, *pieces])))


def witness_file(red: Reduction, solution: str, report: Callable[[str, object], None]) -> Iterable[str]:
    """The canonical text of the witness file a solution, comma-separated
    values, induces, in pieces, made as they are read.

    Witnesses live over Q for an integer instance, else over its ring,
    and each is made once, from the one before it, as the module docstring
    says.  What is built goes to the stage's verdict, the one ``verify``
    runs, before it is returned; a refusal raises VerificationError.
    """
    field = QQ if red.B.ring == ZZ else red.B.ring
    values = [v.strip() for v in solution.split(",") if v.strip()]
    try:
        point = Assignment(field, tuple(field.parse(v) for v in values))
    except ValueError as e:
        raise ParseError(f"bad solution value: {e}", 0) from e
    B = red.B.change_ring(field)
    W = completion_witness(B, point)
    if red.stage == "completion":
        reason = completion_verdict(red, field, point.values, W.raw_grid)
        facts = [("rank", 3)]
        text = jsonio.completion_witness_text(point, W)
    else:
        D = derksen_witness(DerksenInstance(B), W)
        if red.stage == "tensor":
            reason = sum_verdict(red, field, len(D), sum_terms_raw(D.raw, D.dims, field))
            facts = [("terms", len(D))]
            text = jsonio.tensor_witness_text(D)
        else:
            WS = symmetric_witness(red.expected, D)
            reason = sum_verdict(red, field, len(WS), sum_sym_decomposition_raw(WS.raw, WS.dim, field))
            facts = [("terms", len(WS)), ("target_rank", red.target_rank)]
            text = jsonio.symmetric_witness_text(WS)
    if reason is not None:
        raise VerificationError(f"{red.stage} witness fails: {reason}")
    for key, value in facts:
        report(key, value)
    report("verification", "verified")
    return text


def completion_verdict(red: Reduction, ring, values: tuple, rows) -> str | None:
    """Why a point and a square matrix W, raw values over ``ring`` of the
    instance's shape, do not prove the completion claim, or None: the point
    must solve F, W must agree with B at every specified cell, and W must
    have rank 3.  The specified cells make W the identity at the unit
    labels, so W has rank 3 exactly when it factors through them; only a
    refusal eliminates, on a copy of the rows."""
    B = red.B
    bad = B.system.change_ring(ring).first_violation(values)
    if bad is not None:
        return f"assignment fails: {bad[0]} evaluates to {bad[1]}"
    # an integer cell equals its image in Q, so B is compared as it is
    equal = set()  # the id pairs of cell objects found equal, both kept alive by the rows
    for i, (row, expect_row) in enumerate(zip(rows, B.raw_grid)):
        for j in compress(range(len(expect_row)), map(is_not, expect_row, repeat(None))):  # the specified cells
            if (pair := (id(row[j]), id(expect_row[j]))) not in equal:
                if row[j] != expect_row[j]:
                    return f"mismatch at ({i},{j}): instance has {expect_row[j]}, witness has {row[j]}"
                equal.add(pair)
    if factors_through_units(rows, unit_label_positions(B), ring):
        return None
    return f"completion rank is {rank_raw([list(row) for row in rows], ring)}, not 3"


def sum_verdict(red: Reduction, ring, count: int, total: dict | None) -> str | None:
    """Why ``count`` terms over ``ring``, rank-1 or cube terms as the stage
    has, whose exact packed sum is ``total`` (None past the target), do not
    prove the stage's claim, or None; the sum is popped from, and the
    expected entries are taken into ``ring`` as they are walked."""
    # a witness longer than the target proves nothing about the rank
    # bound, however exactly it sums
    if red.target_rank is not None and count > red.target_rank:
        return f"{count} terms exceed the target rank {red.target_rank}"
    T = red.expected
    want, dims = (T.entries.items(), (T.size,) * 3) if isinstance(T, SymTensor) else (T.items(), T.dims)
    if ring != T.ring:  # an integer instance checked over a field
        want = ((key, ring.canon(v)) for key, v in want)
    ok, mismatch = first_mismatch(want, total, dims)
    return None if ok else "mismatch at {}: instance has {}, witness sums to {}".format(*mismatch)


def _check_header(red: Reduction, wit: dict) -> None:
    """Refuse a witness of another stage, or with a field its stage has not."""
    if wit.get("kind") != f"{red.stage}_witness":
        raise ParseError(f"cannot verify a {wit.get('kind')!r} witness against a {red.stage} instance", 0)
    jsonio._only_fields(wit, f"{red.stage} witness", *WITNESS_FIELDS[red.stage])


def _embeds(instance_ring, ring) -> bool:
    """Whether a witness over ``ring`` may prove a claim over ``instance_ring``."""
    return ring == instance_ring or instance_ring == ZZ and ring.is_field


def failure(red: Reduction, pieces: Iterable[str]) -> str | None:
    """Why a witness file, given as its text in pieces, does not prove what
    the module docstring says, or None.  The file is refused as input
    first; the stage's verdict then decides.  Every witness is read from
    its pieces through one window of its text, a term or a row of W at a
    time, with no tree of it."""
    if red.stage == "completion":
        B, head = red.B, {}

        def rows_plan(members: dict) -> tuple:
            # W is read in the witness's ring, at most as many rows as B
            # has; the point, the shape and the ring's fit are checked after
            _check_header(red, members)
            head.update(members)
            return jsonio._ring_of(members), None, B.nrows

        ring, _, count, rows = jsonio.completion_witness_rows(pieces, rows_plan)
        point = jsonio.assignment_from_json(ring, jsonio._need(head, "assignment"))
        if count != B.nrows or len(rows[0]) != B.ncols:
            raise ParseError("witness shape differs from the instance", 0)
        if B.ring != ring and (B.ring != ZZ or ring != QQ):
            raise ParseError("witness ring incompatible with the instance", 0)
        return completion_verdict(red, ring, point.values, rows)
    T = red.expected
    limit = sys.maxsize if red.target_rank is None else red.target_rank
    symmetric = red.stage == "symmetric"
    shape = T.size if symmetric else T.dims

    def plan(head: dict) -> tuple:
        # the terms are read only against the instance's shape and ring
        _check_header(red, head)
        ring = jsonio._ring_of(head)
        dims = jsonio._dim_of(head) if symmetric else jsonio._dims_of(head)
        if dims != shape:
            raise ParseError(f"witness {'dimension differs' if symmetric else 'dimensions differ'} from the instance", 0)
        if not (ring == T.ring if symmetric else _embeds(T.ring, ring)):
            raise ParseError("witness ring incompatible with the instance", 0)
        return ring, dims, limit

    ring, _, count, total = (jsonio.symmetric_witness_sum if symmetric else jsonio.tensor_witness_sum)(pieces, plan)
    return sum_verdict(red, ring, count, total)
