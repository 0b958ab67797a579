"""Command-line front end for the reduction pipeline.

Commands: encode-3sat, reduce, witness, oracle, verify.  Primary output
(instance, witness, or result JSON) goes to --out or stdout and is
byte-deterministic; progress reports and timings go to stderr.

Exit codes: 0 success, 2 parse or input error, 3 guard exceeded,
4 verification failure, 5 budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import jsonio
from .errors import (
    BudgetExceededError,
    FieldTooSmallError,
    GuardExceededError,
    ParseError,
    StructureError,
    VerificationError,
)
from .linalg import matrix_rank
from .oracle import (
    SearchBudget,
    min_completion_rank,
    solve_system_bruteforce,
    symmetric_rank_bruteforce,
    tensor_rank_bruteforce,
)
from .polysys import Assignment, parse_dimacs, encode_3sat
from .rings import QQ, RingDescriptor, Scalar, ZZ
from .sigma import SymbolicU, build_B, completion_witness, sigma_system, unit_block_mismatch
from .symmetric import (
    build_curly_T,
    embed_S,
    padded_size,
    symmetric_witness,
)
from .tensors import (
    Decomposition,
    DerksenInstance,
    Rank1Term,
    build_derksen,
    derksen_witness,
    pad_cubical,
    verify_decomposition,
)
from .symmetric import verify_symmetric_decomposition

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4
EXIT_BUDGET = 5


def _report(key: str, value) -> None:
    print(f"{key}: {value}", file=sys.stderr)


def _emit(obj: dict, out: str | None) -> None:
    text = jsonio.canonical_dumps(obj)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}", 0) from e


def _load(path: str) -> dict:
    return jsonio.loads(_read_text(path))


def _expect_kind(obj: dict, *kinds: str) -> str:
    kind = obj.get("kind")
    if kind not in kinds:
        raise ParseError(f"expected a {' or '.join(kinds)} file, got {kind!r}", 0)
    return kind


def _parse_budget(spec: str | None) -> SearchBudget:
    if not spec:
        return SearchBudget()
    fields = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        try:
            if key in ("max_rank", "max_candidates"):
                fields[key] = int(value)
            elif key == "max_seconds":
                fields[key] = float(value)
            else:
                raise ValueError(f"unknown budget field {key!r}")
        except ValueError as e:
            raise ParseError(f"bad budget spec: {e}", 0) from e
    try:
        return SearchBudget(**fields)
    except ValueError as e:
        raise ParseError(f"bad budget spec: {e}", 0) from e


def _parse_solution(text: str, ring: RingDescriptor) -> Assignment:
    values = [v.strip() for v in text.split(",")] if text.strip() else []
    values = [v for v in values if v]
    try:
        return Assignment(tuple(Scalar.from_str(ring, v) for v in values))
    except ValueError as e:
        raise ParseError(f"bad solution value: {e}", 0) from e


def _field_of(ring: RingDescriptor) -> RingDescriptor:
    if ring == ZZ:
        return QQ
    if not ring.is_field:
        raise ParseError(f"no fraction field available for {ring}", 0)
    return ring


def cmd_encode(args) -> int:
    formula = parse_dimacs(_read_text(args.cnf))
    F = encode_3sat(formula)
    if args.ring is not None:
        F = F.change_ring(RingDescriptor.from_str(args.ring))
    _report("variables", F.num_vars)
    _report("polynomials", len(F.polynomials))
    _emit(jsonio.polysystem_file(F), args.out)
    return EXIT_OK


def _threads_ok(n: int) -> None:
    # accepted for interface stability; all work is serial and
    # deterministic, so thread count cannot change any output byte
    if n < 1:
        raise ParseError("--threads must be at least 1", 0)


def cmd_reduce(args) -> int:
    _threads_ok(args.threads)
    obj = _load(args.system)
    _expect_kind(obj, "polysystem")
    F = jsonio.system_from_json(obj)
    if args.ring is not None:
        target = RingDescriptor.from_str(args.ring)
        if target != F.ring:
            F = F.change_ring(target)
    guard = args.guard if args.guard > 0 else None
    t0 = time.monotonic()
    sigma = sigma_system(F)
    _report("sigma", len(sigma))
    B = build_B(F, guard=guard, sigma=sigma)
    _report("labels", B.nrows)
    _report("tau", B.tau)
    if args.stage == "completion":
        out_obj = jsonio.completion_instance_file(B)
    else:
        inst = build_derksen(B)
        _report("target_rank", inst.target_rank)
        if args.stage == "tensor":
            out_obj = jsonio.tensor_instance_file(inst, B)
        else:
            if F.ring.field_size is not None and F.ring.field_size < 9:
                raise FieldTooSmallError(
                    f"symmetric stage needs at least 9 field elements, {F.ring} has {F.ring.field_size}"
                )
            if not F.ring.is_field:
                raise ParseError("symmetric stage needs a field ring (use --ring)", 0)
            m = max(inst.tensor.dims[0], inst.tensor.dims[2])
            size = padded_size(m)
            if guard is not None and size > guard:
                raise GuardExceededError(size, guard, "symmetric indices")
            padded = pad_cubical(inst.tensor)
            curly = build_curly_T(embed_S(padded), m)
            target = inst.target_rank + _padding_terms(m)
            _report("symmetric_indices", size)
            _report("symmetric_target_rank", target)
            out_obj = jsonio.symmetric_instance_file(curly, target, m, inst, B)
    _report("time_s", f"{time.monotonic() - t0:.3f}")
    _emit(out_obj, args.out)
    return EXIT_OK


def _field_instance(inst: DerksenInstance, field: RingDescriptor) -> DerksenInstance:
    if inst.tensor.ring == field:
        return inst
    return DerksenInstance(
        inst.tensor.change_ring(field),
        inst.tau,
        inst.star_map,
        inst.source.change_ring(field),
    )


def cmd_witness(args) -> int:
    _threads_ok(args.threads)
    obj = _load(args.instance)
    kind = _expect_kind(
        obj, "completion_instance", "tensor_instance", "symmetric_instance"
    )
    t0 = time.monotonic()
    if kind == "completion_instance":
        B = jsonio.completion_instance_parse(obj)
        F = B.system
        field = _field_of(F.ring)
        point = _parse_solution(args.solution, field)
        W = completion_witness(F, point, B=B)
        # W = U^T U with three rows in U, so rank(W) <= 3; the identity at
        # the unit labels gives rank(W) >= 3 without an elimination
        bad = unit_block_mismatch(W.raw_rows(), B)
        if bad is not None:
            raise StructureError(f"completion is not the identity at the unit labels, cell {bad}")
        _report("rank", 3)
        _report("verification", "verified")
        out_obj = jsonio.completion_witness_file(point, W)
    elif kind == "tensor_instance":
        inst, F = jsonio.tensor_instance_parse(obj)
        field = _field_of(F.ring)
        point = _parse_solution(args.solution, field)
        W = completion_witness(F, point, B=inst.source)
        fi = _field_instance(inst, field)
        U = SymbolicU(fi.source.row_labels).evaluate(point, field)
        D = derksen_witness(fi, W, U, U)
        _report("terms", len(D.terms))
        _report("verification", "verified")
        out_obj = jsonio.tensor_witness_file(D)
    else:
        S, _, m, inst, F = jsonio.symmetric_instance_parse(obj)
        field = _field_of(F.ring)
        point = _parse_solution(args.solution, field)
        W = completion_witness(F, point, B=inst.source)
        fi = _field_instance(inst, field)
        U = SymbolicU(fi.source.row_labels).evaluate(point, field)
        D = derksen_witness(fi, W, U, U)
        padded = pad_cubical(fi.tensor)
        Dp = Decomposition(
            field,
            padded.dims,
            [Rank1Term(t.a.pad(m), t.b.pad(m), t.c.pad(m)) for t in D.terms],
        )
        stored = S if S.ring == field else None
        computed = build_curly_T(embed_S(padded), m)
        if stored is not None and stored != computed:
            raise VerificationError("instance tensor disagrees with its system")
        WS = symmetric_witness(padded, Dp)
        _report("terms", len(WS.terms))
        _report("target_rank", inst.target_rank + _padding_terms(m))
        _report("verification", "verified")
        out_obj = jsonio.symmetric_witness_file(WS)
    _report("time_s", f"{time.monotonic() - t0:.3f}")
    _emit(out_obj, args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    budget = _parse_budget(args.budget)
    obj = _load(args.file)
    t0 = time.monotonic()
    if args.which == "solve":
        _expect_kind(obj, "polysystem")
        F = jsonio.system_from_json(obj)
        sols = solve_system_bruteforce(F, budget)
        _report("solutions", len(sols))
        out_obj = jsonio.oracle_result_file(
            "solve",
            [jsonio.assignment_to_json(s) for s in sols],
            None,
            True,
            None,
        )
    elif args.which == "minrank":
        _expect_kind(obj, "completion_instance")
        B = jsonio.completion_instance_parse(obj)
        res = min_completion_rank(B, budget)
        _report("min_rank", res.value)
        out_obj = jsonio.oracle_result_file(
            "minrank",
            res.value,
            jsonio.matrix_to_json(res.witness),
            res.exhausted,
            res.lower_bound,
        )
    elif args.which == "rank":
        _expect_kind(obj, "tensor", "tensor_instance")
        T = jsonio.tensor_parse(obj)
        res = tensor_rank_bruteforce(T, budget)
        _report("rank", res.value)
        out_obj = jsonio.oracle_result_file(
            "rank",
            res.value,
            None if res.witness is None else jsonio.decomposition_to_json(res.witness),
            res.exhausted,
            res.lower_bound,
        )
    else:
        _expect_kind(obj, "symtensor", "symmetric_instance")
        S = jsonio.symtensor_parse(obj)
        res = symmetric_rank_bruteforce(S, budget)
        _report("srank", res.value)
        out_obj = jsonio.oracle_result_file(
            "srank",
            res.value,
            None if res.witness is None else jsonio.sym_decomposition_to_json(res.witness),
            res.exhausted,
            res.lower_bound,
        )
    _report("time_s", f"{time.monotonic() - t0:.3f}")
    _emit(out_obj, args.out)
    return EXIT_OK


def _padding_terms(m: int) -> int:
    """Terms the unit-slice padding of a size-m payload adds: 4.5(m^2+m)."""
    return 9 * m * (m - 1) // 2 + 9 * m


def _tensor_instance(inst_obj: dict):
    """The tensor of a tensor_instance file and its target rank tau+3.

    The tensor must be the star-slice tensor of the file's own matrix, so
    tau is its own star count and the target belongs to the tensor that
    verify sums against.  The matrix is dropped on return, before the sum.
    """
    inst, _ = jsonio.tensor_instance_parse(inst_obj)
    if build_derksen(inst.source).tensor != inst.tensor:
        raise ParseError("instance tensor is not the star-slice tensor of its matrix", 0)
    return inst.tensor, inst.target_rank


def _symmetric_instance(inst_obj: dict):
    """The padded tensor of a symmetric_instance file and its target rank.

    As _tensor_instance for the payload, which must also pad to the stored
    tensor; the padding adds 4.5(m^2+m) terms to the payload's tau+3.
    """
    S, _, m, inst, _ = jsonio.symmetric_instance_parse(inst_obj)
    T = build_derksen(inst.source).tensor
    if T != inst.tensor or build_curly_T(embed_S(pad_cubical(T)), m) != S:
        raise ParseError("instance tensor is not the padded star-slice tensor of its matrix", 0)
    return S, inst.target_rank + _padding_terms(m)


def _over_target(inst_obj: dict, target: int, terms: int) -> bool:
    """Whether a witness of this many terms exceeds the instance's target rank.

    ``target`` is worked out from the instance, not read from it: a stored
    target_rank that differs is an input error.  A witness longer than the
    target proves nothing about the rank bound, however exactly it sums,
    so verify rejects it.
    """
    stored = jsonio._need(inst_obj, "target_rank")
    if type(stored) is not int or stored != target:
        raise ParseError(f"target_rank {stored!r} differs from the instance's {target}", 0)
    if terms > target:
        print(f"{terms} terms exceed the target rank {target}")
        return True
    return False


def cmd_verify(args) -> int:
    inst_obj = _load(args.instance)
    wit_obj = _load(args.witness)
    ikind = inst_obj.get("kind")
    wkind = wit_obj.get("kind")
    if ikind == "completion_instance" and wkind == "completion_witness":
        B = jsonio.completion_instance_parse(inst_obj)
        wring = RingDescriptor.from_str(wit_obj["ring"])
        W = jsonio.matrix_from_json(wring, jsonio._need(wit_obj, "matrix"))
        point = jsonio.assignment_from_json(wring, jsonio._need(wit_obj, "assignment"))
        if W.nrows != B.nrows or W.ncols != B.ncols:
            raise ParseError("witness shape differs from the instance", 0)
        if B.ring != wring:
            if B.ring != ZZ or wring != QQ:
                raise ParseError("witness ring incompatible with the instance", 0)
            B = B.change_ring(wring)
        bad = B.system.change_ring(wring).first_violation(point.values)
        if bad is not None:
            print(f"assignment fails: {bad[0]} evaluates to {bad[1]}")
            return EXIT_VERIFY
        wraw = W.raw_rows()
        for i in range(B.nrows):
            for j in range(B.ncols):
                expect = B.raw_grid[i][j]
                if expect is not None and wraw[i][j] != expect:
                    print(
                        f"mismatch at ({i},{j}): instance has "
                        f"{Scalar(wring, expect)}, witness has {Scalar(wring, wraw[i][j])}"
                    )
                    return EXIT_VERIFY
        r = matrix_rank(W)
        if r != 3:
            print(f"completion rank is {r}, not 3")
            return EXIT_VERIFY
    elif ikind in ("tensor", "tensor_instance") and wkind == "tensor_witness":
        if ikind == "tensor_instance":
            T, target = _tensor_instance(inst_obj)
        else:
            T, target = jsonio.tensor_parse(inst_obj), None
        D = jsonio.tensor_witness_parse(wit_obj)
        if tuple(D.dims) != T.dims:
            raise ParseError("witness dimensions differ from the instance", 0)
        if T.ring != D.ring:
            if T.ring != ZZ or not D.ring.is_field:
                raise ParseError("witness ring incompatible with the instance", 0)
            T = T.change_ring(D.ring)
        if target is not None and _over_target(inst_obj, target, len(D.terms)):
            return EXIT_VERIFY
        ok, mismatch = verify_decomposition(T, D)
        if not ok:
            key, want, got = mismatch
            print(f"mismatch at {key}: instance has {want}, witness sums to {got}")
            return EXIT_VERIFY
    elif ikind in ("symtensor", "symmetric_instance") and wkind == "symmetric_witness":
        if ikind == "symmetric_instance":
            S, target = _symmetric_instance(inst_obj)
        else:
            S, target = jsonio.symtensor_parse(inst_obj), None
        D = jsonio.symmetric_witness_parse(wit_obj)
        if D.dim != S.size:
            raise ParseError("witness dimension differs from the instance", 0)
        if S.ring != D.ring:
            raise ParseError("witness ring incompatible with the instance", 0)
        if target is not None and _over_target(inst_obj, target, len(D.terms)):
            return EXIT_VERIFY
        ok, mismatch = verify_symmetric_decomposition(S, D)
        if not ok:
            key, want, got = mismatch
            print(f"mismatch at {key}: instance has {want}, witness sums to {got}")
            return EXIT_VERIFY
    else:
        raise ParseError(
            f"cannot verify a {wkind!r} witness against a {ikind!r} instance", 0
        )
    print("verified")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenred",
        description="Exact reductions from polynomial systems to tensor rank, with verifiable witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode-3sat", help="encode a DIMACS-style formula as a polynomial system")
    enc.add_argument("cnf", help="input formula file")
    enc.add_argument("--ring", help="target ring (Z, Q, or gf:p); default Z")
    enc.add_argument("--out", help="output path (default stdout)")
    enc.set_defaults(func=cmd_encode)

    red = sub.add_parser("reduce", help="build a completion, tensor, or symmetric instance")
    red.add_argument("stage", choices=["completion", "tensor", "symmetric"])
    red.add_argument("system", help="polysystem JSON file")
    red.add_argument("--guard", type=int, default=5000, help="size guard (0 disables)")
    red.add_argument("--ring", help="convert the system to this ring first")
    red.add_argument("--out", help="output path (default stdout)")
    red.add_argument("--threads", type=int, default=1, help="worker count (speed only)")
    red.set_defaults(func=cmd_reduce)

    wit = sub.add_parser("witness", help="produce a verified witness from a solution")
    wit.add_argument("instance", help="instance JSON file")
    wit.add_argument("--solution", required=True, help="comma-separated values, one per variable")
    wit.add_argument("--out", help="output path (default stdout)")
    wit.add_argument("--threads", type=int, default=1, help="worker count (speed only)")
    wit.set_defaults(func=cmd_witness)

    orc = sub.add_parser("oracle", help="run a brute-force reference search")
    orc.add_argument("which", choices=["solve", "minrank", "rank", "srank"])
    orc.add_argument("file", help="input JSON file")
    orc.add_argument("--budget", help="e.g. max_rank=4,max_candidates=100000,max_seconds=60")
    orc.add_argument("--out", help="output path (default stdout)")
    orc.set_defaults(func=cmd_oracle)

    ver = sub.add_parser("verify", help="check a witness against an instance")
    ver.add_argument("instance", help="instance JSON file")
    ver.add_argument("witness", help="witness JSON file")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except GuardExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GUARD
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (VerificationError, StructureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except (FieldTooSmallError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
