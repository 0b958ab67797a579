"""One traced pass of a workload, run in process through ``tenred.cli.main``.

Usage: python3 bench/tracer.py SPEC_JSON

SPEC_JSON names the work directory, the CNF, the ring, the stage and the
solution.  The pass (encode-3sat, reduce, witness, verify) runs in this
process with every public function listed in ``TRACED`` wrapped in each
``tenred`` module namespace that binds it, and writes ``system.json``,
``instance.json`` and ``witness.json`` in the work directory.  Each wrapper
records a span and charges its duration to the enclosing span, so a
function's self time is its inclusive time minus that of its wrapped
callees.  The last line of standard output is one JSON object with
per-command self times and call counts, the counts taken from return
values, each command's exit code and time, and the tracer's own cost.

That cost is the number of wrapped calls times the cost of one wrapped
call over a bare one, timed on a no-op.  The difference between a traced
and an untraced pass would hide it: one execution on a shared host varies
by 15-25 %, seconds on these passes, while the wrappers cost microseconds
a call.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time

# (layer metric, module, attribute); an attribute "Class.method" wraps the method.
TRACED = [
    ("polysys.parse_polynomial", "polysys", "parse_polynomial"),
    ("polysys.encode_3sat", "polysys", "encode_3sat"),
    ("sigma.sigma_system", "sigma", "sigma_system"),
    ("sigma.build_B", "sigma", "build_B"),
    ("sigma.completion_witness", "sigma", "completion_witness"),
    ("sigma.SymbolicU.evaluate", "sigma", "SymbolicU.evaluate"),
    ("linalg.matrix_rank", "linalg", "matrix_rank"),
    ("tensors.build_derksen", "tensors", "build_derksen"),
    ("tensors.derksen_witness", "tensors", "derksen_witness"),
    ("tensors.verify_decomposition", "tensors", "verify_decomposition"),
    ("symmetric.build_curly_T", "symmetric", "build_curly_T"),
    ("symmetric.symmetric_witness", "symmetric", "symmetric_witness"),
    ("symmetric.symmetric_upper_witness", "symmetric", "symmetric_upper_witness"),
    ("symmetric.build_L_pi", "symmetric", "build_L_pi"),
    ("symmetric.waring_gadget", "symmetric", "waring_gadget"),
    ("symmetric.verify_symmetric_decomposition", "symmetric", "verify_symmetric_decomposition"),
    ("cli.reduce", "cli", "cmd_reduce"),
    ("cli.witness", "cli", "cmd_witness"),
    ("cli.verify", "cli", "cmd_verify"),
]


def _jsonio_group(name: str) -> str | None:
    """jsonio functions fall into four groups: writers, dumps, loads, readers."""
    if name == "canonical_dumps":
        return "jsonio.dumps"
    if name == "loads":
        return "jsonio.loads"
    if name.endswith(("_file", "_to_json")):
        return "jsonio.encode"
    if name.endswith(("_parse", "_from_json")):
        return "jsonio.decode"
    return None


# Sizes read from return values: counter -> (layer metric, value of the result).
COUNTERS = {
    "sigma.sigma_system": [("sigma.closure_size", len)],
    "sigma.build_B": [("sigma.labels", lambda B: B.nrows), ("sigma.stars", lambda B: B.tau)],
    "tensors.build_derksen": [("tensors.nnz", lambda inst: inst.tensor.nnz)],
    "tensors.derksen_witness": [("tensors.terms", len)],
    "symmetric.build_curly_T": [("symmetric.indices", lambda S: S.size)],
    "symmetric.symmetric_witness": [("symmetric.terms", len)],
}


class Recorder:
    """Spans kept in memory: per command, each name's self time and calls."""

    def __init__(self):
        self.stack: list[list] = []
        self.command = None
        self.spans: dict[str, dict[str, list]] = {}
        self.counts: dict[str, int] = {}

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name, ())

        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                dur = time.perf_counter() - frame[0]
                if self.stack:
                    self.stack[-1][1] += dur
                agg = self.spans.setdefault(self.command, {}).setdefault(name, [0.0, 0])
                agg[0] += dur - frame[1]
                agg[1] += 1
            for counter, size in counters:
                self.counts[counter] = max(self.counts.get(counter, 0), size(result))
            return result

        traced.__wrapped__ = fn
        return traced


def install(rec: Recorder) -> None:
    import tenred.cli  # noqa: F401  (loads every module the commands use)

    modules = [m for n, m in sys.modules.items() if n == "tenred" or n.startswith("tenred.")]
    targets = []
    for metric, mod, attr in TRACED:
        owner = sys.modules[f"tenred.{mod}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, rec.wrap(metric, getattr(cls, meth)))
        else:
            targets.append((metric, getattr(owner, attr)))
    jsonio = sys.modules["tenred.jsonio"]
    for attr, fn in list(vars(jsonio).items()):
        group = _jsonio_group(attr)
        if group and callable(fn) and getattr(fn, "__module__", None) == jsonio.__name__:
            targets.append((group, fn))
    for metric, fn in targets:
        wrapper = rec.wrap(metric, fn)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapper)


def wrapper_cost(calls: int = 100_000, reps: int = 5) -> float:
    """Seconds one wrapped call costs over a bare call: median of ``reps`` timings."""

    def noop():
        return None

    rec = Recorder()
    wrapped = rec.wrap("noop", noop)
    costs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - t1 - (t1 - t0)) / calls)
    return statistics.median(costs)


def run_pass(main, spec: dict, rec: Recorder) -> dict:
    wd = spec["workdir"]
    files = {key: f"{wd}/{key}.json" for key in ("system", "instance", "witness")}
    commands = [
        ("encode", ["encode-3sat", spec["cnf"], "--ring", spec["ring"], "--out", files["system"]]),
        ("reduce", ["reduce", spec["stage"], files["system"], "--out", files["instance"]]),
        ("witness", ["witness", files["instance"], "--solution", spec["solution"], "--out", files["witness"]]),
        ("verify", ["verify", files["instance"], files["witness"]]),
    ]
    times, codes = {}, {}
    for command, argv in commands:
        rec.command = command
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        times[command] = time.perf_counter() - t0
        codes[command] = code
        if command == "verify" and out.getvalue() != "verified\n":
            codes[command] = f"printed {out.getvalue()!r}"
    return {"times": times, "codes": codes}


def main() -> int:
    spec = json.loads(sys.argv[1])
    from tenred import cli

    rec = Recorder()
    install(rec)
    result = run_pass(cli.main, spec, rec)
    calls = sum(agg[1] for per_name in rec.spans.values() for agg in per_name.values())
    result.update(spans=rec.spans, counts=rec.counts, overhead_s=calls * wrapper_cost())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
