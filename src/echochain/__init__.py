"""Exact spin-chain toolkit: Loschmidt-echo and perfect-state-transfer
tests of ferromagnetic Heisenberg dynamics realized with
antiferromagnetic pulses, plus a classical mean-field baseline and a
gate-noise robustness harness.

The package exports the production API only; the dense 2^n test
oracle is the module `echochain.statevec`.
"""

from .chain import ChainSpec, transfer_chain, uniform_echo_chain
from .echo import EchoConfig
from .gates import (
    DELTA_EPS,
    EPS_SINGLET,
    EPS_TRIPLET,
    SINGLET,
    afm_duration_for_fm,
    wrap_period,
)
from .meanfield import meanfield_echo_curve
from .noise import (
    FitResult,
    NoiseModel,
    fidelity,
    fidelity_curve,
    loglog_fit,
    slope_vs_n,
)
from .transfer import TransferConfig, default_transfer_steps
from .trotter import MODE_DIRECT, MODE_SIMULATED_FM, TrotterPlan

__version__ = "0.1.0"
