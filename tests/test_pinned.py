"""Every golden test (marker `golden`) holds at each of numpy's CPU
dispatch paths and each OpenBLAS kernel: a host with dispatched SIMD
targets runs them once more with all of those targets disabled, and a
host whose OpenBLAS picks its kernels per CPU runs them once more under
each of two older kernels, against the same golden set."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import echochain

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).parents[1]
# the dispatched targets this host runs; disabling them all leaves the
# baseline kernels
DISPATCHED = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
# a DYNAMIC_ARCH build reads OPENBLAS_CORETYPE at load to pick its kernels
BLAS = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
DYNAMIC_OPENBLAS = "DYNAMIC_ARCH" in BLAS.get("openblas configuration", "")


def run_golden_set(**env: str) -> None:
    """Run `-m golden` in a subprocess whose environment adds `env`."""
    env = dict(os.environ, **env, PYTHONPATH=str(Path(echochain.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q", "-m", "golden"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    # exit 5 means no test was collected, 1 that one failed
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]


@pytest.mark.skipif(not DISPATCHED, reason="this process runs the baseline kernels")
def test_baseline_kernels_keep_the_golden_set():
    run_golden_set(NPY_DISABLE_CPU_FEATURES=" ".join(DISPATCHED))


@pytest.mark.skipif(not DYNAMIC_OPENBLAS, reason="OpenBLAS here is not a DYNAMIC_ARCH build")
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_other_openblas_kernels_keep_the_golden_set(coretype):
    run_golden_set(OPENBLAS_CORETYPE=coretype)
