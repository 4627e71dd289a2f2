"""Every golden test (marker `golden`) holds at each of numpy's CPU
dispatch paths: a host with dispatched SIMD targets runs them once more
with all of those targets disabled, against the same golden set."""
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.skipif(not DISPATCHED, reason="this process runs the baseline kernels")
def test_baseline_kernels_keep_the_golden_set():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(DISPATCHED),
               PYTHONPATH=str(Path(echochain.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q", "-m", "golden"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    # exit 5 means no test was collected, 1 that one failed
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
