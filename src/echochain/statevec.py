"""The dense 2^n oracle that the tests and oracle-check (`echochain.checks`)
compare the one-magnon engine (`echochain.sector`) against; no command
runs it.  It holds state vectors, the two-spin SINGLET that scores a
pair, gate kernels, the chain Hamiltonian, exact evolution (up to
ORACLE_MAX_SITES sites) and gate-by-gate noisy plan execution.

Sites are numbered 1..n, site 1 is the most significant bit of the
amplitude index, and bit value 0 means spin-up.  Gates act in place on
the amplitude array and return the mutated StateVector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import SIGN_AFM, ChainSpec
from .noise import NoiseModel
from .trotter import TrotterPlan

NORM_TOL = 1e-10
UNITARITY_TOL = 1e-12
ORACLE_MAX_SITES = 14

# The two-spin singlet in the |b_i b_j> = {00, 01, 10, 11} basis.
SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class ResourceLimitError(RuntimeError):
    """Requested dense-oracle size exceeds the configured limit."""


class InvalidGateError(ValueError):
    """Raised when a gate matrix fails the unitarity check."""


def heisenberg_pair_coupling() -> np.ndarray:
    """The 4x4 matrix S1.S2 built from Pauli tensor products."""
    return sum(0.25 * np.kron(_PAULI[a], _PAULI[a]) for a in "xyz")


def exchange_unitary(theta: float) -> np.ndarray:
    """exp(-i theta S1.S2) in the |b_i b_j> = {00, 01, 10, 11} basis.

    Uses the closed form e^{i theta/4} (cos(theta/2) I - i sin(theta/2) SWAP),
    which is checked against `exchange_unitary_reference` by the test
    suite and the oracle-check command.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    half = 0.5 * theta
    return np.exp(0.25j * theta) * (
        math.cos(half) * np.eye(4, dtype=complex) - 1j * math.sin(half) * _SWAP
    )


def exchange_unitary_reference(theta: float) -> np.ndarray:
    """Independent oracle: exp(-i theta S1.S2) via eigendecomposition."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    w, v = np.linalg.eigh(heisenberg_pair_coupling())
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


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
    amplitudes[1 << (n - 2)] = 1.0 / math.sqrt(2.0)   # |01 0...0>
    amplitudes[1 << (n - 1)] = -1.0 / math.sqrt(2.0)  # |10 0...0>
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


def check_norm(state: StateVector) -> None:
    """Alarm when the norm drifts past NORM_TOL from unity or is not a
    number."""
    drift = abs(norm(state) - 1.0)
    if not drift <= NORM_TOL:
        raise RuntimeError(f"state norm drifted by {drift:.3e} (tolerance {NORM_TOL:.1e})")


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


def exact_evolve(spec: ChainSpec, state: StateVector, t: float) -> StateVector:
    """exp(-i H t)|psi> via an eigendecomposition of the dense H.

    Returns a fresh StateVector; the input is not modified.
    """
    if spec.n != state.num_sites:
        raise ValueError("chain and state site counts differ")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    w, v = np.linalg.eigh(dense_hamiltonian(spec))
    coefficients = _real_matvec(v.T, state.amplitudes) * np.exp(-1j * w * t)
    return StateVector(spec.n, _real_matvec(v, coefficients))


def _real_matvec(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for real m and complex z.  Multiplying the real and the
    imaginary part apart keeps numpy from copying m to complex."""
    return m @ z.real + 1j * (m @ z.imag)


def sample_eta(rng: np.random.Generator, v: float) -> float:
    """One multiplicative error draw; exactly 0.0 when v = 0."""
    if v < 0:
        raise ValueError(f"noise strength must be nonnegative, got {v}")
    return float(rng.standard_normal()) * v


def execute_plan(
    plan: TrotterPlan,
    state: StateVector,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
    row: int = 0,
) -> StateVector:
    """Apply every layer of every step in order, gate by gate, with the
    plan's angle row `row`, mutating `state`.

    Under a NoiseModel every exchange angle becomes theta*(1 + eta)
    with a fresh eta per gate per step; field phases are perturbed the
    same way only when the model requests it.
    """
    if plan.num_sites != state.num_sites or len(plan.blocks) != 1:
        raise ValueError("plan and state site counts differ, or the plan holds several chains")
    if noise is not None and rng is None:
        raise ValueError("noisy execution needs an explicit rng")
    sites = np.arange(1, plan.num_sites + 1)
    for _ in range(plan.blocks[0].steps):
        for layer in plan.layers:
            angles = layer.angles[row].tolist()
            if layer.right is not None:
                for i, j, theta in zip(sites[layer.left].tolist(), sites[layer.right].tolist(),
                                       angles):
                    if noise is not None:
                        theta = theta * (1.0 + sample_eta(rng, noise.v))
                    apply_two_site(state, i, j, exchange_unitary(theta))
            else:
                for site, phi in zip(sites[layer.left].tolist(), angles):
                    if noise is not None and noise.include_fields:
                        phi = phi * (1.0 + sample_eta(rng, noise.v))
                    apply_single_site_phase(state, site, phi)
    check_norm(state)
    return state
