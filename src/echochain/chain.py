"""Chain specifications: the echo chain and the engineered transfer chain.

A ChainSpec fixes the Hamiltonian

    H = s * prefactor * sum_b J_b S_i.S_{i+1}  +  sum_i B_i sigma^z_i

with s = +1 for an antiferromagnetic chain and s = -1 for a
ferromagnetic one.  sigma^z is the Pauli matrix (eigenvalues +-1); the
transfer chain below achieves unit end-to-end fidelity at t = pi/2
under exactly this normalization, which pins the convention.

Runs evolve under H in the one-magnon sector (`echochain.sector`); the
dense test oracle builds the full 2^n H (`echochain.statevec`).  The
odd/even grouping of the bonds is `echochain.trotter`'s.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGN_FM = "fm"
SIGN_AFM = "afm"


@dataclass
class ChainSpec:
    """Couplings, fields, interaction sign, and exchange prefactor."""

    n: int
    couplings: np.ndarray   # J_{i,i+1}, length n-1, nonnegative
    fields: np.ndarray      # B_i, length n
    sign: str = SIGN_AFM
    exchange_prefactor: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 sites, got {self.n}")
        self.couplings = np.asarray(self.couplings, dtype=float)
        self.fields = np.asarray(self.fields, dtype=float)
        if self.couplings.shape != (self.n - 1,):
            raise ValueError(f"expected {self.n - 1} couplings")
        if self.fields.shape != (self.n,):
            raise ValueError(f"expected {self.n} fields")
        if np.any(self.couplings < 0):
            raise ValueError("couplings must be nonnegative")
        if self.sign not in (SIGN_FM, SIGN_AFM):
            raise ValueError(f"sign must be '{SIGN_FM}' or '{SIGN_AFM}'")
        if self.exchange_prefactor <= 0:
            raise ValueError("exchange prefactor must be positive")


def uniform_echo_chain(n: int, j: float) -> ChainSpec:
    """Uniform chain with the (1,2) bond turned off: the first spin stays
    a reference while the rest of the chain evolves."""
    if n < 3:
        raise ValueError(f"echo chain needs at least 3 sites, got {n}")
    if j <= 0:
        raise ValueError(f"coupling must be positive, got {j}")
    couplings = np.full(n - 1, float(j))
    couplings[0] = 0.0
    return ChainSpec(n=n, couplings=couplings, fields=np.zeros(n), sign=SIGN_AFM)


def transfer_chain(n: int) -> ChainSpec:
    """Engineered mirror-transfer chain: J_{i,i+1} = sqrt(i(n-i)) and
    compensating fields B_i = (J_{i,i+1} + J_{i-1,i}) / 2 with the
    boundary convention J_{0,1} = J_{n,n+1} = 0."""
    if n < 2:
        raise ValueError(f"need at least 2 sites, got {n}")
    i = np.arange(1, n, dtype=float)
    couplings = np.sqrt(i * (n - i))
    padded = np.concatenate([[0.0], couplings, [0.0]])
    fields = 0.5 * (padded[1:] + padded[:-1])
    return ChainSpec(
        n=n, couplings=couplings, fields=fields, sign=SIGN_FM, exchange_prefactor=2.0
    )

