import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent / "src"
sys.path.insert(0, str(SRC))


def _run_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


@pytest.fixture
def run_optimized():
    """Run a Python snippet under ``python -O`` with this checkout importable."""

    def run(code: str) -> subprocess.CompletedProcess:
        return _run_python("-O", "-c", code)

    return run


@pytest.fixture
def run_module():
    """Run ``python -m starforest ARGS`` as its own process with this checkout importable.

    With ``address_space`` (bytes) the child first caps its own address space
    with ``RLIMIT_AS``, so a run that would grow without bound fails fast
    inside the child instead of taking the machine's memory.
    """

    def run(*argv: str, address_space: int | None = None) -> subprocess.CompletedProcess:
        if address_space is None:
            return _run_python("-m", "starforest", *argv)
        code = (
            "import resource, runpy, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space}))\n"
            f"sys.argv = ['starforest', *{list(argv)!r}]\n"
            "runpy.run_module('starforest', run_name='__main__', alter_sys=True)\n"
        )
        return _run_python("-c", code)

    return run
