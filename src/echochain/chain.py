"""Chain specifications, the odd/even bond partition, and a dense
exact-evolution oracle (tests and oracle-check compare the one-magnon
engine in `echochain.sector` against it).

A ChainSpec fixes the Hamiltonian

    H = s * prefactor * sum_b J_b S_i.S_{i+1}  +  sum_i B_i sigma^z_i

with s = +1 for an antiferromagnetic chain and s = -1 for a
ferromagnetic one.  sigma^z is the Pauli matrix (eigenvalues +-1); the
transfer chain below achieves unit end-to-end fidelity at t = pi/2
under exactly this normalization, which pins the convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .statevec import StateVector

SIGN_FM = "fm"
SIGN_AFM = "afm"

ORACLE_MAX_SITES = 14


class ResourceLimitError(RuntimeError):
    """Requested dense-oracle size exceeds the configured limit."""


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


@dataclass
class BondPartition:
    """Bonds grouped so every bond within a group shares no site."""

    odd_bonds: list[tuple[int, int]]
    even_bonds: list[tuple[int, int]]


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


def partition_odd_even(spec: ChainSpec) -> BondPartition:
    """Split nonzero bonds by the parity of their starting site."""
    odd: list[tuple[int, int]] = []
    even: list[tuple[int, int]] = []
    for b, j in enumerate(spec.couplings):
        if j == 0.0:
            continue
        start = b + 1
        (odd if start % 2 == 1 else even).append((start, start + 1))
    return BondPartition(odd_bonds=odd, even_bonds=even)


def dense_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Assemble H as a dense real-symmetric 2^n x 2^n matrix."""
    if spec.n > ORACLE_MAX_SITES:
        raise ResourceLimitError(
            f"dense oracle limited to {ORACLE_MAX_SITES} sites, got {spec.n}"
        )
    n = spec.n
    dim = 1 << n
    idx = np.arange(dim)
    h = np.zeros((dim, dim))
    diag = np.zeros(dim)
    s = 1.0 if spec.sign == SIGN_AFM else -1.0
    for b, j in enumerate(spec.couplings):
        if j == 0.0:
            continue
        c = s * spec.exchange_prefactor * j
        pi = n - (b + 1)
        pj = n - (b + 2)
        differ = ((idx >> pi) & 1) != ((idx >> pj) & 1)
        diag += np.where(differ, -0.25 * c, 0.25 * c)
        flip = idx[differ]
        h[flip, flip ^ ((1 << pi) | (1 << pj))] += 0.5 * c
    for site in range(1, n + 1):
        b_i = spec.fields[site - 1]
        if b_i == 0.0:
            continue
        p = n - site
        diag += b_i * np.where(((idx >> p) & 1) == 0, 1.0, -1.0)
    h[idx, idx] += diag
    return h


@lru_cache(maxsize=16)
def _eigensystem(
    n: int, sign: str, prefactor: float, couplings: bytes, fields: bytes
) -> tuple[np.ndarray, np.ndarray]:
    spec = ChainSpec(
        n=n,
        couplings=np.frombuffer(couplings, dtype=float),
        fields=np.frombuffer(fields, dtype=float),
        sign=sign,
        exchange_prefactor=prefactor,
    )
    return np.linalg.eigh(dense_hamiltonian(spec))


def exact_evolve(spec: ChainSpec, state: StateVector, t: float) -> StateVector:
    """exp(-i H t)|psi> via a cached eigendecomposition of the dense H.

    Returns a fresh StateVector; the input is not modified.
    """
    if spec.n != state.num_sites:
        raise ValueError("chain and state site counts differ")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    w, v = _eigensystem(
        spec.n,
        spec.sign,
        spec.exchange_prefactor,
        spec.couplings.tobytes(),
        spec.fields.tobytes(),
    )
    coefficients = _real_matvec(v.T, state.amplitudes) * np.exp(-1j * w * t)
    return StateVector(spec.n, _real_matvec(v, coefficients))


def _real_matvec(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for real m and complex z.  Multiplying the real and the
    imaginary part apart keeps numpy from copying m to complex."""
    return m @ z.real + 1j * (m @ z.imag)
