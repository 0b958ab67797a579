import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import tenred

settings.register_profile(
    "default",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

CHILD_MEMORY_BYTES = 1 << 30
CHILD_TIMEOUT_S = 20.0


# runs the tenred command line, then writes the process's peak RSS in KiB
# as the last line of its standard error: the VmHWM of its own memory, as
# getrusage's ru_maxrss also counts the RSS of the process that forked it,
# the test run, which a full run grows past a small command's peak
_WITH_PEAK = (
    "import sys; from tenred.cli import main; code = main(sys.argv[1:]); "
    "print(next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM:')), "
    "file=sys.stderr); sys.exit(code)"
)


def tenred_runner(memory_bytes: int = CHILD_MEMORY_BYTES, timeout_s: float = CHILD_TIMEOUT_S, peak: bool = False):
    """A function that runs ``python -m tenred ARGS`` in a child process
    capped at ``memory_bytes`` of address space and ``timeout_s``, so that
    a command which outgrows its budget fails the test quickly instead of
    exhausting the host.  With ``peak``, the child also reports its peak
    RSS in KiB as the last line of its standard error.

    The directory holding the imported ``tenred`` goes first on PYTHONPATH,
    so the child runs the code under test.  It returns the CompletedProcess;
    a timeout raises ``subprocess.TimeoutExpired``.
    """
    env = dict(os.environ)
    root = str(Path(tenred.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))

    def run(*args):
        return subprocess.run(
            [sys.executable, *(["-c", _WITH_PEAK] if peak else ["-m", "tenred"]), *map(str, args)],
            capture_output=True,
            text=True,
            env=env,
            timeout=timeout_s,
            preexec_fn=limit_memory,
        )

    return run


@pytest.fixture
def run_tenred():
    """``tenred_runner`` at 1 GiB and 20 s."""
    return tenred_runner()
