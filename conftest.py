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
    """Run ``python -m starforest ARGS`` as its own process with this checkout importable."""

    def run(*argv: str) -> subprocess.CompletedProcess:
        return _run_python("-m", "starforest", *argv)

    return run
