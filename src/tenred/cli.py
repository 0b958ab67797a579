"""Command-line front end for the reduction pipeline.

Commands: encode-3sat, reduce, witness, oracle, verify.  Primary output
(instance, witness, or result JSON) goes to --out or stdout and is
byte-deterministic; progress reports and timings go to stderr.

Exit codes: 0 success, 2 parse or input error, 3 guard exceeded,
4 verification failure, 5 budget exceeded.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from typing import Iterator

from . import certify, jsonio
from .errors import (
    BudgetExceededError,
    FieldTooSmallError,
    GuardExceededError,
    ParseError,
    StructureError,
    VerificationError,
)
from .polysys import parse_dimacs, encode_3sat
from .rings import RingDescriptor
from .sigma import LABEL_GUARD

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4
EXIT_BUDGET = 5


def _report(key: str, value) -> None:
    print(f"{key}: {value}", file=sys.stderr)


def _emit(pieces, out: str | None) -> None:
    """Write a file given as its canonical text in pieces."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}", 0) from e


def _read_pieces(path: str) -> Iterator[str]:
    """The text of a file as ``_read_text`` reads it, in pieces of at most
    ``jsonio._WINDOW`` characters, read as they are asked for.  A byte
    that is no UTF-8 is refused at its offset in the file, as a whole read
    refuses it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            while piece := fh.read(jsonio._WINDOW):
                yield piece
    except UnicodeDecodeError:
        # a piece's decoder names the offset in the piece; the whole file's
        # decode raises the same error at the offset in the file
        with open(path, "rb") as fh:
            fh.read().decode("utf-8")
        raise
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}", 0) from e


def _parse_budget(spec: str | None, budget_type):
    if not spec:
        return budget_type()
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
        return budget_type(**fields)
    except ValueError as e:
        raise ParseError(f"bad budget spec: {e}", 0) from e


def cmd_encode(args) -> int:
    formula = parse_dimacs(_read_text(args.cnf))
    F = encode_3sat(formula)
    if args.ring is not None:
        F = F.change_ring(RingDescriptor.from_str(args.ring))
    _report("variables", F.num_vars)
    _report("polynomials", len(F.polynomials))
    _emit(jsonio.polysystem_text(F), args.out)
    return EXIT_OK


def _threads_ok(n: int) -> None:
    # accepted for interface stability; all work is serial and
    # deterministic, so thread count cannot change any output byte
    if n < 1:
        raise ParseError("--threads must be at least 1", 0)


def cmd_reduce(args) -> int:
    _threads_ok(args.threads)
    F = jsonio.polysystem_parse(_read_text(args.system))
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
    text = _read_text(args.instance)
    t0 = time.monotonic()
    red = certify.read_instance(text, *certify.STAGES)
    del text
    pieces = certify.witness_file(red, args.solution, _report)
    del red  # the witness text is made from W and the stars, not the instance tensor
    _report("time_s", f"{time.monotonic() - t0:.3f}")
    _emit(pieces, args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle  # the one command that searches; the others never load it

    budget = _parse_budget(args.budget, oracle.SearchBudget)
    text = _read_text(args.file)
    t0 = time.monotonic()
    if args.which == "solve":
        F = jsonio.polysystem_parse(text)
        sols = oracle.solve_system_bruteforce(F, budget)
        _report("solutions", len(sols))
        out_obj = jsonio.oracle_result_text(
            "solve",
            [jsonio.assignment_to_json(s) for s in sols],
            None,
            True,
            None,
        )
    elif args.which == "minrank":
        res = oracle.min_completion_rank(certify.read_instance(text, "completion_instance").B, budget)
        _report("min_rank", res.value)
        out_obj = jsonio.oracle_result_text(
            "minrank",
            res.value,
            res.witness,
            res.exhausted,
            res.lower_bound,
        )
    else:
        # the files each rank search reads, and the search; its witness, a
        # decomposition, goes to oracle_result_text as it is
        kinds, search = {
            "rank": (("tensor", "tensor_instance"), oracle.tensor_rank_bruteforce),
            "srank": (("symtensor", "symmetric_instance"), oracle.symmetric_rank_bruteforce),
        }[args.which]
        res = search(certify.read_instance(text, *kinds).tensor, budget)
        _report(args.which, res.value)
        out_obj = jsonio.oracle_result_text(args.which, res.value, res.witness, res.exhausted, res.lower_bound)
    _report("time_s", f"{time.monotonic() - t0:.3f}")
    _emit(out_obj, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    # the witness is read after the instance, whose text and rebuild are
    # gone by then, and only as the check asks for its pieces
    red = certify.read_instance(_read_text(args.instance))
    reason = certify.failure(red, _read_pieces(args.witness))
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
    red.add_argument("--guard", type=int, default=LABEL_GUARD, help="size guard (0 disables)")
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
    # No command makes a reference cycle, so the cyclic collector would only
    # walk the many objects a large file reads into; reference counting frees
    # everything.  The previous state comes back for in-process callers.
    enabled = gc.isenabled()
    gc.disable()
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
    finally:
        if enabled:
            gc.enable()
            # the young generation holds every object the command left; with
            # its first collection at exit instead, a tensor witness peaked
            # 2.4 MB higher
            gc.collect(0)


if __name__ == "__main__":
    sys.exit(main())
