"""Both of numpy's x86 dispatch paths keep their pinned bits: a host
with the x86-64-v3 kernels also runs every golden test once more with
them disabled, the sweeps and the noisy curve against the baseline set
and the mean field against its one set."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import echochain
from pinned import BASELINE_DISPATCH, DISPATCHED

ROOT = Path(__file__).parents[1]
GOLDEN_TESTS = [
    "tests/test_meanfield.py::TestGoldenBits",
    "tests/test_cli.py::test_meanfield_csv_is_byte_identical_to_golden",
    "tests/test_cli.py::test_sweep_csvs_are_byte_identical_to_golden",
    "tests/test_cli.py::test_noisy_transfer_curve_is_byte_identical_to_golden",
    "tests/test_cli.py::test_reliable_fits_warn_nothing_and_keep_golden_bytes",
]


@pytest.mark.skipif(BASELINE_DISPATCH, reason="this process checks the baseline set itself")
def test_baseline_kernels_keep_the_baseline_set():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(DISPATCHED),
               PYTHONPATH=str(Path(echochain.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *GOLDEN_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
    assert "golden set: baseline" in result.stdout
    assert "22 passed" in result.stdout
