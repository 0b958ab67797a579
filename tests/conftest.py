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


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


@pytest.fixture
def run_tenred():
    """Run ``python -m tenred ARGS`` in a child process capped at 1 GiB of
    address space and 20 s, so that a command which outgrows its budget
    fails the test quickly instead of exhausting the host.

    The directory holding the imported ``tenred`` goes first on PYTHONPATH,
    so the child runs the code under test.  Returns the CompletedProcess;
    a timeout raises ``subprocess.TimeoutExpired``.
    """
    env = dict(os.environ)
    root = str(Path(tenred.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "tenred", *map(str, args)],
            capture_output=True,
            text=True,
            env=env,
            timeout=CHILD_TIMEOUT_S,
            preexec_fn=_limit_memory,
        )

    return run
