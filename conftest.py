import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent / "src"
sys.path.insert(0, str(SRC))


@pytest.fixture
def run_optimized():
    """Run a Python snippet under ``python -O`` with this checkout importable."""

    def run(code: str) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        return subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)

    return run
