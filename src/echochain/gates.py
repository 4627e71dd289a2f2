"""Two-spin Heisenberg exchange pulses and the duration mapping that lets
an antiferromagnetic pulse stand in for ferromagnetic evolution.

All angles are dimensionless (theta = coupling x duration, hbar = 1).
The two-spin exchange S1.S2 has eigenvalue -3/4 on the singlet and
+1/4 on each triplet; the splitting of -1 makes the evolution periodic
with period 2*pi/J, which is the resource exploited by the mapping:
running the antiferromagnet to the complement of the period reproduces
the ferromagnetic evolution up to a global phase.
"""
from __future__ import annotations

import math
import numpy as np

EPS_SINGLET = -0.75
EPS_TRIPLET = 0.25
DELTA_EPS = EPS_SINGLET - EPS_TRIPLET  # -1

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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


def wrap_period(j_fm: float) -> float:
    """Duration after which two-spin evolution at strength j_fm is a
    global phase: 2*pi / (j_fm |delta eps|)."""
    if j_fm <= 0:
        raise ValueError(f"coupling must be positive, got {j_fm}")
    return 2.0 * math.pi / (j_fm * abs(DELTA_EPS))


def fits_wrap_period(t: float, j_fm: float) -> bool:
    """0 <= t <= one wrap period, forgiving the rounding of a duration
    computed as a quotient (t / n_steps)."""
    return 0 <= t <= wrap_period(j_fm) * (1.0 + 1e-12) + 1e-12


def afm_duration_for_fm(t: float, j_afm: float, j_fm: float) -> float:
    """Antiferromagnetic pulse duration t' that reproduces ferromagnetic
    evolution of duration t (strength j_fm) up to a global phase:

        t' = (j_fm / j_afm) (2 pi / (j_fm |delta eps|) - t)

    Requires 0 <= t <= one wrap period; a longer evolution must be split
    into more Trotter steps.
    """
    if j_afm <= 0 or j_fm <= 0:
        raise ValueError("couplings must be positive")
    if t < 0:
        raise ValueError(f"duration must be nonnegative, got {t}")
    period = wrap_period(j_fm)
    if not fits_wrap_period(t, j_fm):
        raise ValueError(
            f"duration {t} exceeds the wrap period {period}; use more steps"
        )
    return max((j_fm / j_afm) * (period - t), 0.0)


def field_phase(b: float, tau: float) -> float:
    """Accumulated phase b*tau of exp(-i b tau sigma^z)."""
    if tau < 0:
        raise ValueError(f"duration must be nonnegative, got {tau}")
    return b * tau
