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

from . import certify, jsonio
from .errors import (
    BudgetExceededError,
    FieldTooSmallError,
    GuardExceededError,
    ParseError,
    StructureError,
    VerificationError,
)
from .oracle import (
    SearchBudget,
    min_completion_rank,
    solve_system_bruteforce,
    symmetric_rank_bruteforce,
    tensor_rank_bruteforce,
)
from .polysys import parse_dimacs, encode_3sat
from .rings import RingDescriptor

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


def _expect_kind(obj: dict, *kinds: str) -> None:
    kind = obj.get("kind")
    if kind not in kinds:
        raise ParseError(f"expected a {' or '.join(kinds)} file, got {kind!r}", 0)


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
    F = jsonio.polysystem_parse(obj)
    if args.ring is not None:
        target = RingDescriptor.from_str(args.ring)
        if target != F.ring:
            F = F.change_ring(target)
    guard = args.guard if args.guard > 0 else None
    t0 = time.monotonic()
    out_obj, _ = certify.reduce_system(F, args.stage, guard, guard, _report)
    _report("time_s", f"{time.monotonic() - t0:.3f}")
    _emit(out_obj, args.out)
    return EXIT_OK


def cmd_witness(args) -> int:
    _threads_ok(args.threads)
    if not isinstance(args.solution, str):  # argparse reads "--solution=--" as []
        raise ParseError("--solution needs comma-separated values, got '--'", 0)
    obj = _load(args.instance)
    _expect_kind(obj, *certify.STAGES)
    t0 = time.monotonic()
    red = certify.read_instance(obj)
    del obj
    out_obj = certify.witness_file(red, args.solution, _report)
    _report("time_s", f"{time.monotonic() - t0:.3f}")
    _emit(out_obj, args.out)
    return EXIT_OK


# the files each rank search reads, the search, and its witness encoder
_RANK_SEARCHES = {
    "rank": (("tensor", "tensor_instance"), tensor_rank_bruteforce, jsonio.decomposition_to_json),
    "srank": (("symtensor", "symmetric_instance"), symmetric_rank_bruteforce, jsonio.sym_decomposition_to_json),
}


def cmd_oracle(args) -> int:
    budget = _parse_budget(args.budget)
    obj = _load(args.file)
    t0 = time.monotonic()
    if args.which == "solve":
        _expect_kind(obj, "polysystem")
        F = jsonio.polysystem_parse(obj)
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
        res = min_completion_rank(certify.read_instance(obj).B, budget)
        _report("min_rank", res.value)
        out_obj = jsonio.oracle_result_file(
            "minrank",
            res.value,
            jsonio.matrix_to_json(res.witness),
            res.exhausted,
            res.lower_bound,
        )
    else:
        kinds, search, to_json = _RANK_SEARCHES[args.which]
        _expect_kind(obj, *kinds)
        res = search(certify.read_instance(obj).tensor, budget)
        _report(args.which, res.value)
        out_obj = jsonio.oracle_result_file(
            args.which,
            res.value,
            None if res.witness is None else to_json(res.witness),
            res.exhausted,
            res.lower_bound,
        )
    _report("time_s", f"{time.monotonic() - t0:.3f}")
    _emit(out_obj, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    # the witness is loaded after the instance is read, and the loaded and
    # rebuilt instance files are gone by then
    red = certify.read_instance(_load(args.instance))
    reason = certify.failure(red, _load(args.witness))
    print(reason or "verified")
    return EXIT_OK if reason is None else EXIT_VERIFY


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
