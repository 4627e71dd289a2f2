"""The golden set this process checks, chosen by numpy's CPU dispatch.

numpy fuses complex multiplies (FMA) in its x86-64-v3 kernels and above
but not in its x86-64 baseline kernels, so the sweep and noisy curve
bytes differ in their last digits between the two.  Their goldens in
`tests/golden` were recorded at v3 and above; `tests/golden/baseline`
holds the same cases recorded by the same calls under
NPY_DISABLE_CPU_FEATURES naming every dispatched target.  A process
whose numpy runs the baseline kernels on x86 checks that set.  The
mean-field goldens hold on every dispatch (the closed form makes no
complex product, and their n=4 quantum rows agree on both), so they
have one set, in `tests/golden`.
"""
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

