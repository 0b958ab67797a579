"""Benchmark of the tenred command line: reduce, witness and verify.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/tenred``.  Every
command is a fresh ``python -m tenred`` process, one at a time, as a user
runs them.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` times the commands.  Set-up encodes the workload's CNF;
then whole rounds run until S seconds have passed.  A round is a fixed
number of passes (reduce -> witness -> verify), repeats of the cheap
commands (``encode-3sat`` and reduce) spread between them, and the
workload's rejection operations, which feed ``verify`` a broken witness and
are not timed.  Each time reported is the median over the run.

``--trace 1`` runs one pass in process through ``bench/tracer.py`` and
reports per-layer self times, call counts and sizes.

``--workload smoke`` runs every output check and rejection operation on
the clause (1) over GF(2) in a few seconds and prints the same result line.

The seed picks the satisfying assignment among those found by truth table
and sets ``PYTHONHASHSEED`` for the child processes.  Results and traces
are written under ``.bench_out/`` at the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

sys.dont_write_bytecode = True  # keep bench/ free of build output
import checks  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
SETUP_REPS = 7  # encode-3sat executions per run: one before the round, the rest in it


@dataclass(frozen=True)
class Workload:
    cnf: str
    ring: str
    stage: str
    rejections: tuple[str, ...]  # "altered" must exit 4; so must "cancelling"
    passes: int = 1  # passes per round
    reduces: int = 1  # reduce executions per pass


# Why each workload, and why these sizes: see bench/README.md.
WORKLOADS = {
    "completion-q-1var": Workload("p cnf 1 0\n", "Q", "completion", ("altered",), passes=2, reduces=2),
    "tensor-gf2-1var": Workload(
        "p cnf 1 1\n1 0\n", "gf:2", "tensor", ("altered", "cancelling"), passes=3, reduces=2
    ),
    "symmetric-empty-gf11": Workload(
        "p cnf 0 0\n", "gf:11", "symmetric", ("cancelling",), passes=2, reduces=4
    ),
}
SMOKE = [
    Workload("p cnf 1 1\n1 0\n", "gf:2", "completion", ("altered",)),
    Workload("p cnf 1 1\n1 0\n", "gf:2", "tensor", ("altered", "cancelling")),
    Workload("", "gf:11", "symmetric", ("altered", "cancelling")),
]

END_TO_END = [
    ("setup_s", "s"),
    ("reduce_s", "s"),
    ("witness_s", "s"),
    ("verify_s", "s"),
    ("pipeline_s", "s"),
    ("reduce_rss_mb", "MB"),
    ("witness_rss_mb", "MB"),
    ("verify_rss_mb", "MB"),
    ("instance_bytes", "bytes"),
    ("witness_bytes", "bytes"),
]

PER_LAYER = [
    "polysys.parse_polynomial.self_s",
    "polysys.parse_polynomial.calls",
    "polysys.encode_3sat.self_s",
    "sigma.sigma_system.self_s",
    "sigma.sigma_system.calls",
    "sigma.build_B.self_s",
    "sigma.completion_witness.self_s",
    "sigma.SymbolicU.evaluate.self_s",
    "sigma.closure_size",
    "sigma.labels",
    "sigma.stars",
    "linalg.matrix_rank.self_s",
    "linalg.matrix_rank.calls",
    "tensors.build_derksen.self_s",
    "tensors.derksen_witness.self_s",
    "tensors.verify_decomposition.self_s",
    "tensors.verify_decomposition.calls",
    "tensors.nnz",
    "tensors.terms",
    "symmetric.build_curly_T.self_s",
    "symmetric.symmetric_witness.self_s",
    "symmetric.symmetric_upper_witness.self_s",
    "symmetric.build_L_pi.self_s",
    "symmetric.build_L_pi.calls",
    "symmetric.waring_gadget.self_s",
    "symmetric.waring_gadget.calls",
    "symmetric.verify_symmetric_decomposition.self_s",
    "symmetric.verify_symmetric_decomposition.calls",
    "symmetric.indices",
    "symmetric.terms",
    "jsonio.encode.self_s",
    "jsonio.dumps.self_s",
    "jsonio.loads.self_s",
    "jsonio.decode.self_s",
    "cli.reduce.self_s",
    "cli.witness.self_s",
    "cli.verify.self_s",
    "trace.overhead_s",
]


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def solutions(cnf: str) -> list[str]:
    """Every satisfying 0/1 assignment of a positive CNF, as --solution text."""
    header, *lines = cnf.split("\n")
    n = int(header.split()[2])
    clauses = [[int(x) for x in line.split()[:-1]] for line in lines if line.strip()]
    return [
        ",".join(map(str, bits))
        for bits in product((0, 1), repeat=n)
        if all(any(bits[lit - 1] for lit in clause) for clause in clauses)
    ]


def canonical(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Runs one `python -m tenred ARGS...` per JSON line on stdin, in its working
# directory, and answers [exit code, wall seconds, peak RSS in KiB].  Linux
# carries the spawning process's peak RSS into a child's ru_maxrss across
# fork and exec, so the children are spawned from this small process and
# not from the benchmark, whose peak grows when it parses the artifacts.
LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    with open("stdout.txt", "wb") as out, open("stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "tenred", *json.loads(line)], stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, seconds, usage.ru_maxrss]), flush=True)
"""


class Runner:
    """Runs ``python -m tenred`` children one at a time and keeps the tally."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed % 2**32))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.launcher = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env, cwd=workdir,
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def cli(self, *args: str) -> tuple[int, float, float, str]:
        """Exit code, wall seconds, peak RSS in MB, and standard output."""
        self.launcher.stdin.write(json.dumps(args) + "\n")
        self.launcher.stdin.flush()
        code, seconds, maxrss_kib = json.loads(self.launcher.stdout.readline())
        return code, seconds, maxrss_kib / 1024, (self.workdir / "stdout.txt").read_text()

    def operation(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def reject(self, kind: str) -> None:
        """Verify instance.json against <kind>.json, which must exit 4."""
        code, _, _, out = self.cli("verify", "instance.json", f"{kind}.json")
        self.operation(code == 4, f"verify of the {kind} witness exited {code}: {out.strip()!r}")


def encode_argv(w: Workload) -> tuple[str, ...]:
    return ("encode-3sat", "formula.cnf", "--ring", w.ring, "--out", "system.json")


def setup(runner: Runner, w: Workload, state: dict) -> tuple[Path, float]:
    """Write the CNF and encode it once; returns the system file and the time.

    The other set-up executions run within the round (``round_schedule``),
    and must write the same bytes as this one.
    """
    (runner.workdir / "formula.cnf").write_text(w.cnf)
    system = runner.workdir / "system.json"
    code, seconds, _, _ = runner.cli(*encode_argv(w))
    if code != 0:
        raise RuntimeError(f"encode-3sat exited {code}: {(runner.workdir / 'stderr.txt').read_text()}")
    state.setdefault("digests", {})["encode"] = sha256(system)
    header = w.cnf.split()
    checks.check_system(json.loads(system.read_text()), int(header[2]), int(header[3]), w.ring)
    return system, seconds


def altered_witness(wit: dict, field: checks.Field, stage: str, unit: int) -> dict:
    """The witness with one value changed (plus one, in the ring)."""
    wit = json.loads(json.dumps(wit))
    if stage == "completion":
        # the unit label's diagonal cell is specified, so the change must be caught
        row, col = wit["matrix"][unit], unit
    else:
        row, col = wit["terms"][0]["a" if stage == "tensor" else "v"][0], 1
    row[col] = str(field.norm(field.value(row[col]) + 1))
    return wit


def cancelling_witness(wit: dict, field: checks.Field, stage: str, unit: int) -> dict:
    """The witness with a term and its negation appended: same sum, two more terms."""
    neg = lambda text: str(field.norm(-field.value(text)))  # noqa: E731
    wit = json.loads(json.dumps(wit))
    last = wit["terms"][-1]
    if stage == "tensor":
        twin = dict(last, c=[[k, neg(v)] for k, v in last["c"]])
    else:
        twin = dict(last, s=neg(last["s"]))
    wit["terms"] += [last, twin]
    return wit


def workdir() -> tempfile.TemporaryDirectory:
    """A scratch directory under .bench_out/, removed with everything in it."""
    OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="work-", dir=OUT)


def check_outputs(w: Workload, instance: Path, witness: Path) -> None:
    """Runs the independent checks on one instance and witness."""
    field = checks.Field(w.ring)
    inst = json.loads(instance.read_text())
    wit = json.loads(witness.read_text())
    if w.stage == "completion":
        checks.check_completion_instance(inst, field)
        checks.check_completion_witness(inst, wit, field)
    elif w.stage == "tensor":
        entries = checks.check_tensor_instance(inst, field)
        checks.check_tensor_witness(entries, inst["target_rank"], wit, field)
    else:
        entries = checks.check_symmetric_instance(inst, field)
        checks.check_symmetric_witness(entries, inst["target_rank"], wit, field)


def write_rejections(w: Workload, instance: Path, witness: Path) -> dict[str, Path]:
    field = checks.Field(w.ring)
    wit = json.loads(witness.read_text())
    unit = 0
    if w.stage == "completion":
        unit = checks.unit_label_positions(json.loads(instance.read_text())["labels"])[0]
    files = {}
    for kind in w.rejections:
        make = altered_witness if kind == "altered" else cancelling_witness
        path = instance.parent / f"{kind}.json"
        path.write_bytes(canonical(make(wit, field, w.stage, unit)))
        files[kind] = path
    return files


def round_schedule(w: Workload, system: str, solution: str) -> list[tuple]:
    """The operations of one round, in order: (name, argv, output file, pass).

    The first reduce, witness and verify of each pass make the pass.  The
    repeats of reduce and the set-up executions of encode-3sat are spread
    over the rest of the round, so that a run's median covers more of the
    host's drift than back-to-back executions would.  A rejection's name is
    its kind; the pass of a rejection or a repeat is None.
    """
    main = []
    for p in range(w.passes):
        main += [
            ("reduce", ("reduce", w.stage, system, "--out", "instance.json"), "instance.json", p),
            ("witness", ("witness", "instance.json", "--solution", solution, "--out", "witness.json"),
             "witness.json", p),
            ("verify", ("verify", "instance.json", "witness.json"), None, p),
        ]
    main += [(kind, (), None, None) for kind in w.rejections]
    reduce = (*main[0][:3], None)
    encode = ("encode", encode_argv(w), system, None)
    repeats = [[reduce] * ((w.reduces - 1) * w.passes), [encode] * (SETUP_REPS - 1)]
    slots = len(main) - 1  # after every operation from the first witness on
    schedule = main[:1]
    for k in range(slots):
        schedule.append(main[k + 1])
        for extras in repeats:
            schedule += extras[k * len(extras) // slots:(k + 1) * len(extras) // slots]
    return schedule


def run_round(runner: Runner, w: Workload, system: Path, samples: dict, state: dict) -> None:
    wd = runner.workdir
    digests = state.setdefault("digests", {})
    passes: dict[int, dict[str, float]] = {}
    for name, argv, output, p in round_schedule(w, system.name, state["solution"]):
        if name in w.rejections:
            if "rejections" not in state:
                state["rejections"] = write_rejections(w, wd / "instance.json", wd / "witness.json")
            runner.reject(name)
            continue
        code, seconds, rss, out = runner.cli(*argv)
        expect = "" if output else "verified\n"
        if not runner.operation(code == 0 and out == expect, f"{name} exited {code}: {out!r}"):
            continue
        if name == "encode":
            samples["setup_s"].append(seconds)
        else:
            samples[f"{name}_s"].append(seconds)
            samples[f"{name}_rss_mb"].append(rss)
        if p is not None:
            passes.setdefault(p, {})[name] = seconds
        if output:
            digest = sha256(wd / output)
            if digests.setdefault(name, digest) != digest:
                runner.problems.append(f"{name} wrote different bytes on a repeat")
                state["correct"] = False
            if name != "encode":
                samples[f"{'instance' if name == 'reduce' else 'witness'}_bytes"].append((wd / output).stat().st_size)
    samples["pipeline_s"] += [sum(t.values()) for t in passes.values() if len(t) == 3]


def final_checks(runner: Runner, w: Workload, state: dict) -> None:
    wd = runner.workdir
    if "rejections" not in state:
        state["correct"] = False
        return
    try:
        check_outputs(w, wd / "instance.json", wd / "witness.json")
    except checks.CheckError as e:
        runner.problems.append(f"check failed: {e}")
        state["correct"] = False


def timed(w: Workload, seed: int, seconds: float) -> dict:
    with workdir() as tmp, Runner(Path(tmp), seed) as runner:
        state = {"solution": random.Random(seed).choice(solutions(w.cnf)), "correct": True}
        system, setup_time = setup(runner, w, state)
        samples = {m: [] for m, _ in END_TO_END}
        samples["setup_s"].append(setup_time)
        t0 = time.perf_counter()
        rounds = 0
        while True:
            run_round(runner, w, system, samples, state)
            rounds += 1
            if time.perf_counter() - t0 >= seconds:
                break
        final_checks(runner, w, state)
        metrics = {
            m: {"value": statistics.median(samples[m]), "unit": unit}
            for m, unit in END_TO_END
            if samples[m]
        }
        if len(metrics) != len(END_TO_END):
            state["correct"] = False
        detail = {"rounds": rounds, "solution": state["solution"], "samples": samples}
        return result(runner, state["correct"], metrics, detail)


def traced(name: str, w: Workload, seed: int) -> dict:
    with workdir() as tmp, Runner(Path(tmp), seed) as runner:
        wd = runner.workdir
        (wd / "formula.cnf").write_text(w.cnf)
        solution = random.Random(seed).choice(solutions(w.cnf))
        spec = {"workdir": str(wd), "cnf": "formula.cnf", "ring": w.ring, "stage": w.stage, "solution": solution}
        with open(wd / "trace.txt", "wb") as out:
            subprocess.run(
                [sys.executable, str(Path(__file__).with_name("tracer.py")), json.dumps(spec)],
                stdout=out, env=runner.env, cwd=wd, check=True,
            )
        trace = json.loads((wd / "trace.txt").read_text().splitlines()[-1])
        for command in ("reduce", "witness", "verify"):
            code = trace["codes"][command]
            runner.operation(code == 0, f"traced {command} returned {code!r}")
        state = {"correct": True, "rejections": write_rejections(w, wd / "instance.json", wd / "witness.json")}
        for kind in w.rejections:
            runner.reject(kind)
        final_checks(runner, w, state)
        metrics = layer_metrics(trace)
        OUT.joinpath(f"trace-{name}-seed{seed}.json").write_bytes(canonical(trace))
        return result(runner, state["correct"], metrics, {"solution": solution})


def layer_metrics(trace: dict) -> dict:
    totals: dict[str, float] = {}
    for per_name in trace["spans"].values():
        for span, (self_s, calls) in per_name.items():
            totals[f"{span}.self_s"] = totals.get(f"{span}.self_s", 0.0) + self_s
            totals[f"{span}.calls"] = totals.get(f"{span}.calls", 0) + calls
    totals.update(trace["counts"])
    totals["trace.overhead_s"] = trace["overhead_s"]
    return {m: {"value": totals.get(m, 0), "unit": unit_of(m)} for m in PER_LAYER}


def result(runner: Runner, correct: bool, metrics: dict, detail: dict) -> dict:
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "_detail": dict(detail, problems=runner.problems),
    }


def smoke(seed: int) -> dict:
    """Every check and rejection on the smallest inputs, in a few seconds.

    The completion and tensor stages run on the clause (1) over GF(2).  No
    clause reaches the symmetric stage (any non-empty system trips its size
    guard, and the smallest input takes seconds to witness), so the
    symmetric check and rejections run on a hand-made sum of two cubes over
    GF(11).  Each check must also refuse every broken witness.
    """
    correct, attempted, failed, problems = True, 0, 0, []
    for w in SMOKE:
        with workdir() as tmp, Runner(Path(tmp), seed) as runner:
            wd = runner.workdir
            if w.stage == "symmetric":
                state, check = symmetric_smoke(runner, w)
            else:
                state = {"solution": random.Random(seed).choice(solutions(w.cnf)), "correct": True}
                system, _ = setup(runner, w, state)
                run_round(runner, w, system, {m: [] for m, _ in END_TO_END}, state)
                final_checks(runner, w, state)
                check = lambda path: check_outputs(w, wd / "instance.json", path)  # noqa: E731
            for kind, path in state.get("rejections", {}).items():
                try:
                    check(path)
                except checks.CheckError:
                    continue
                runner.problems.append(f"the {w.stage} checks accept the {kind} witness")
                state["correct"] = False
            correct &= state["correct"]
            attempted += runner.attempted
            failed += runner.failed
            problems += runner.problems
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {},
            "_detail": {"problems": problems}}


def symmetric_smoke(runner: Runner, w: Workload) -> tuple[dict, Callable[[Path], None]]:
    """A symmetric instance of three indices whose entries are 3 u^3 + 7 v^3;
    returns the run state and the witness check."""
    field = checks.Field(w.ring)
    terms = [{"s": "3", "v": [[0, "1"], [2, "5"]]}, {"s": "7", "v": [[1, "2"], [2, "1"]]}]
    entries: dict = {}
    for t in terms:
        s, v = field.value(t["s"]), [(i, field.value(x)) for i, x in t["v"]]
        for (i, x), (j, y), (k, z) in product(v, repeat=3):
            if i <= j <= k:
                entries[(i, j, k)] = field.norm(entries.get((i, j, k), 0) + s * x * y * z)
    entries = {key: v for key, v in entries.items() if v}
    wd = runner.workdir
    (wd / "instance.json").write_bytes(canonical({
        "format_version": 1, "kind": "symmetric_instance", "ring": w.ring,
        "index_names": ["i1", "i2", "i3"], "target_rank": len(terms),
        "entries": [[*key, str(v)] for key, v in sorted(entries.items())],
    }))
    (wd / "witness.json").write_bytes(canonical({
        "format_version": 1, "kind": "symmetric_witness", "ring": w.ring, "dim": 3, "terms": terms,
    }))
    code, _, _, out = runner.cli("verify", "instance.json", "witness.json")
    runner.operation(code == 0 and out == "verified\n", f"verify exited {code}: {out!r}")

    def check(path: Path) -> None:
        wit = json.loads(path.read_text())
        checks.check_symmetric_witness(entries, len(terms), wit, field)

    state = {"correct": True, "rejections": write_rejections(w, wd / "instance.json", wd / "witness.json")}
    try:
        check(wd / "witness.json")
    except checks.CheckError as e:
        runner.problems.append(f"check failed: {e}")
        state["correct"] = False
    for kind in state["rejections"]:
        runner.reject(kind)
    return state, check


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "smoke"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "tenred" / "__main__.py").is_file():
        print(f"error: no tenred sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "smoke":
        res = smoke(args.seed)
    elif args.trace:
        res = traced(args.workload, WORKLOADS[args.workload], args.seed)
    else:
        res = timed(WORKLOADS[args.workload], args.seed, args.seconds)
    detail = res.pop("_detail")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.joinpath(f"result-{name}.json").write_bytes(canonical(dict(res, detail=detail)))
    for problem in detail["problems"]:
        print(f"note: {problem}", file=sys.stderr)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
