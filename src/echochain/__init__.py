"""Exact spin-chain toolkit: Loschmidt-echo and perfect-state-transfer
tests of ferromagnetic Heisenberg dynamics realized with
antiferromagnetic pulses, plus a classical mean-field baseline and a
gate-noise robustness harness.

Importing the package loads nothing else; import a submodule for its
API.  The dense 2^n test oracle is the module `echochain.statevec`.
"""

__version__ = "0.1.0"
