"""The package namespace: `import echochain` loads nothing but its
version, which states the one in pyproject.toml."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import echochain


def test_import_loads_no_submodule_and_no_numpy(tmp_path):
    script = """
import sys

import echochain

loaded = sorted(m for m in sys.modules if m.startswith("echochain.") or m == "numpy")
assert not loaded, loaded
print(echochain.__version__)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(echochain.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    version = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"]
    assert result.stdout.strip() == version == echochain.__version__
