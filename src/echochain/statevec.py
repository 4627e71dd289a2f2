"""Dense state-vector kernels for chains of spin-1/2 sites.

Encoding convention used throughout the package: sites are numbered
1..n, site 1 is the most significant bit of the amplitude index, and
bit value 0 means spin-up.  A chain state is a complex vector of
length 2**n with index = sum_i b_i * 2**(n-i).

Gates act in place on the amplitude array (a state is owned by one
evolution at a time); functions return the mutated StateVector so
calls can be chained.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

NORM_TOL = 1e-10
UNITARITY_TOL = 1e-12

# The two-spin singlet in the |b_i b_j> = {00, 01, 10, 11} basis.
SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / sqrt(2.0)


class InvalidGateError(ValueError):
    """Raised when a gate matrix fails the unitarity check."""


@dataclass
class StateVector:
    """Full amplitude vector of an n-site spin chain.

    Attributes:
        num_sites: number of spin-1/2 sites, at least 2.
        amplitudes: complex array of length 2**num_sites.
    """

    num_sites: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.num_sites}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.num_sites,):
            raise ValueError(
                f"amplitude array has shape {self.amplitudes.shape}, "
                f"expected ({1 << self.num_sites},)"
            )


def prepare_singlet_head(n: int) -> StateVector:
    """(|01> - |10>)/sqrt(2) on sites 1-2, spin-up everywhere else."""
    if n < 2:
        raise ValueError(f"need at least 2 sites, got {n}")
    amplitudes = np.zeros(1 << n, dtype=complex)
    amplitudes[1 << (n - 2)] = 1.0 / sqrt(2.0)   # |01 0...0>
    amplitudes[1 << (n - 1)] = -1.0 / sqrt(2.0)  # |10 0...0>
    return StateVector(n, amplitudes)


def _pair_view(state: StateVector, i: int, j: int) -> np.ndarray:
    """Reshape amplitudes so axes 1 and 3 are the bits of sites i < j."""
    n = state.num_sites
    return state.amplitudes.reshape(
        1 << (i - 1), 2, 1 << (j - i - 1), 2, 1 << (n - j)
    )


def apply_two_site(state: StateVector, i: int, j: int, u: np.ndarray) -> StateVector:
    """Apply a 4x4 unitary to sites (i, j), identity elsewhere, in place.

    The matrix basis order is |b_i b_j> in {00, 01, 10, 11}.  Raises
    InvalidGateError if u is not unitary within 1e-12.
    """
    n = state.num_sites
    if not (1 <= i < j <= n):
        raise ValueError(f"invalid site pair ({i}, {j}) for n={n}")
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise InvalidGateError(f"gate must be 4x4, got {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(4))) > UNITARITY_TOL:
        raise InvalidGateError("gate is not unitary within 1e-12")
    view = _pair_view(state, i, j)
    blocks = np.stack(
        [view[:, 0, :, 0, :], view[:, 0, :, 1, :], view[:, 1, :, 0, :], view[:, 1, :, 1, :]]
    )
    shape = blocks.shape
    out = (u @ blocks.reshape(4, -1)).reshape(shape)
    view[:, 0, :, 0, :] = out[0]
    view[:, 0, :, 1, :] = out[1]
    view[:, 1, :, 0, :] = out[2]
    view[:, 1, :, 1, :] = out[3]
    return state


def apply_single_site_phase(state: StateVector, i: int, phi: float) -> StateVector:
    """Apply exp(-i phi sigma^z_i) in place.

    Amplitudes with b_i = 0 pick up exp(-i phi), those with b_i = 1
    pick up exp(+i phi).
    """
    n = state.num_sites
    if not (1 <= i <= n):
        raise ValueError(f"site {i} out of range for n={n}")
    view = state.amplitudes.reshape(1 << (i - 1), 2, 1 << (n - i))
    view[:, 0, :] *= np.exp(-1j * phi)
    view[:, 1, :] *= np.exp(+1j * phi)
    return state


def pair_projection_fidelity(
    state: StateVector, pair: tuple[int, int], target: np.ndarray
) -> float:
    """<psi| (|target><target| on pair x identity) |psi>.

    `target` is a normalized two-spin state in the |b_i b_j> basis of
    the given (ordered) pair; the pair sites may be any two distinct
    sites of the chain.
    """
    i, j = pair
    n = state.num_sites
    if i == j or not (1 <= i <= n) or not (1 <= j <= n):
        raise ValueError(f"invalid pair ({i}, {j}) for n={n}")
    t = np.asarray(target, dtype=complex).reshape(4)
    if abs(np.linalg.norm(t) - 1.0) > 1e-8:
        raise ValueError("target two-spin state must be normalized")
    if i > j:
        i, j = j, i
        t = t[[0, 2, 1, 3]]
    view = _pair_view(state, i, j)
    blocks = np.stack(
        [view[:, 0, :, 0, :], view[:, 0, :, 1, :], view[:, 1, :, 0, :], view[:, 1, :, 1, :]]
    ).reshape(4, -1)
    overlaps = t.conj() @ blocks
    return float(np.sum(np.abs(overlaps) ** 2))


def total_sz(state: StateVector) -> float:
    """Total magnetization sum_i <S^z_i> (spin-up counts +1/2)."""
    n = state.num_sites
    total = 0.0
    for site in range(1, n + 1):
        view = state.amplitudes.reshape(1 << (site - 1), 2, 1 << (n - site))
        p_up = float(np.sum(np.abs(view[:, 0, :]) ** 2))
        p_down = float(np.sum(np.abs(view[:, 1, :]) ** 2))
        total += 0.5 * (p_up - p_down)
    return total


def norm(state: StateVector) -> float:
    return float(np.linalg.norm(state.amplitudes))


def check_norm(state: StateVector, tol: float = NORM_TOL) -> None:
    """Alarm when the norm drifts past `tol` from unity."""
    drift = abs(norm(state) - 1.0)
    if drift > tol:
        raise RuntimeError(f"state norm drifted by {drift:.3e} (tolerance {tol:.1e})")
