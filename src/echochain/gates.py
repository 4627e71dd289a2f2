"""Two-spin Heisenberg exchange pulses and the duration mapping that lets
an antiferromagnetic pulse stand in for ferromagnetic evolution.

All angles are dimensionless (theta = coupling x duration, hbar = 1).
The two-spin exchange S1.S2 has eigenvalue -3/4 on the singlet and
+1/4 on each triplet; the splitting of -1 makes the evolution periodic
with period 2*pi/J, which is the resource exploited by the mapping:
running the antiferromagnet to the complement of the period reproduces
the ferromagnetic evolution up to a global phase.

The 4x4 gate exp(-i theta S1.S2) is in the dense test oracle,
`echochain.statevec`; `echochain.sector` applies it as a bond phase.
"""
from __future__ import annotations

import math
import numpy as np

EPS_SINGLET = -0.75
EPS_TRIPLET = 0.25
DELTA_EPS = EPS_SINGLET - EPS_TRIPLET  # -1

# The two-spin singlet in the |b_i b_j> = {00, 01, 10, 11} basis.
SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def wrap_period(j_fm: float) -> float:
    """Duration after which two-spin evolution at strength j_fm is a
    global phase: 2*pi / (j_fm |delta eps|)."""
    if j_fm <= 0:
        raise ValueError(f"coupling must be positive, got {j_fm}")
    period = 2.0 * math.pi / (float(j_fm) * abs(DELTA_EPS))
    if not math.isfinite(period):
        raise ValueError(f"coupling {j_fm!r} is too weak: its wrap period overflows")
    return period


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

