"""The golden set this process checks, chosen by numpy's CPU dispatch.

numpy fuses complex multiplies (FMA) in its x86-64-v3 kernels and above
but not in its x86-64 baseline kernels, so the mean-field and noisy
sweep bytes differ in their last digits between the two.  The goldens
in `tests/golden` and inline in the tests were recorded at v3 and
above; `tests/golden/baseline` holds the same cases recorded by the same
calls under NPY_DISABLE_CPU_FEATURES naming every dispatched target.  A
process whose numpy runs the baseline kernels on x86 checks that set.
"""
import json
from pathlib import Path

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# numpy releases without an X86_V3 entry name AVX2 and FMA3 alone
_V3 = __cpu_features__.get(
    "X86_V3", __cpu_features__.get("AVX2", False) and __cpu_features__.get("FMA3", False))
BASELINE_DISPATCH = "AVX2" in __cpu_features__ and not _V3

# the dispatched targets this host runs; disabling them all leaves the
# baseline kernels
DISPATCHED = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]

GOLDEN_SET = "baseline" if BASELINE_DISPATCH else "default"
GOLDEN = Path(__file__).parent / "golden"
if BASELINE_DISPATCH:
    GOLDEN /= "baseline"


def pinned(case: str, expected):
    """`expected`, the value of `case` at x86-64-v3 and above, or the
    baseline set's value when this process runs the baseline kernels."""
    if not BASELINE_DISPATCH:
        return expected
    return json.loads((GOLDEN / "meanfield_bits.json").read_text())[case]
