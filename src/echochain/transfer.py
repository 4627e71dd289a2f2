"""Perfect state transfer: the engineered chain carries the head
singlet to the far end of the chain at t = pi/2, scored by the singlet
projection of the last two spins.  `TransferConfig` names its one leg,
which `echochain.noise` runs as single runs (`fidelity`), curves and
robustness sweeps.

Engines:
  exact              continuous evolution of the head singlet in closed form
                     (noise-free by definition)
  trotter-direct     three-term plan with literal ferromagnetic angles
  trotter-simfm      three-term plan with every exchange realized as a
                     mapped antiferromagnetic pulse
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import sector
from .chain import transfer_chain
from .noise import NoiseModel, Seed
from .trotter import MODE_DIRECT, MODE_SIMULATED_FM, THREE_TERM, TimeBudgetError, check_plan

ENGINE_EXACT = "exact"
ENGINE_TROTTER_DIRECT = "trotter-direct"
ENGINE_TROTTER_SIMFM = "trotter-simfm"
ENGINES = (ENGINE_EXACT, ENGINE_TROTTER_DIRECT, ENGINE_TROTTER_SIMFM)

# Smallest power-of-two step count keeping the noise-free trotter-direct
# fidelity within 1e-4 of the exact engine's at t = pi/2
# (scripts/calibrate_transfer_steps.py regenerates this table).
DEFAULT_TRANSFER_STEPS = {
    2: 1,
    3: 16,
    4: 8,
    5: 32,
    6: 16,
    7: 32,
    8: 32,
    9: 64,
    10: 64,
    11: 64,
    12: 64,
}


def default_transfer_steps(n: int) -> int:
    """Calibrated step count; quadratic extrapolation past the table."""
    if n in DEFAULT_TRANSFER_STEPS:
        return DEFAULT_TRANSFER_STEPS[n]
    largest = max(DEFAULT_TRANSFER_STEPS)
    scale = (n / largest) ** 2
    return 1 << math.ceil(math.log2(DEFAULT_TRANSFER_STEPS[largest] * scale))


@dataclass(frozen=True)
class TransferConfig:
    n: int
    t: float = math.pi / 2
    n_steps: int | None = None  # None -> calibrated default
    engine: str = ENGINE_EXACT
    noise: NoiseModel | None = None
    seed: Seed = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 sites, got {self.n}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine '{self.engine}'")
        if self.n_steps is not None and self.n_steps < 1:
            raise ValueError(f"need at least one step, got {self.n_steps}")
        if self.engine == ENGINE_EXACT and self.noise is not None and self.noise.v > 0:
            raise ValueError("the exact engine is noise-free; use a trotter engine")
        # t is the longest time this config runs, checked last: a trotter
        # engine's plan raises past its wrap budget, the exact engine where
        # t*w overflows
        if not (math.isfinite(self.t) and self.t >= 0):
            raise TimeBudgetError(f"evolution time must be finite and >= 0, got {self.t}")
        ((split, spec, mode),) = self.legs()
        if mode is None:
            sector.exact_phases(spec, self.t)
        else:
            check_plan(split, spec, self.t, self.steps, mode)

    @property
    def steps(self) -> int:
        """n_steps, or the calibrated default when it is None."""
        return self.n_steps or default_transfer_steps(self.n)

    @property
    def pair(self) -> tuple[int, int]:
        """The far-end pair whose singlet fidelity scores the transfer."""
        return (self.n - 1, self.n)

    def legs(self) -> tuple[tuple, ...]:
        """The one leg as (split, chain, plan mode); the exact engine's
        mode is None, continuous evolution.  Every half step
        t / (2 steps) of a trotter engine must fit one wrap period
        2*pi/g of the strongest bond g, so t may reach
        2 * steps * 2*pi/g."""
        mode = {ENGINE_EXACT: None, ENGINE_TROTTER_DIRECT: MODE_DIRECT,
                ENGINE_TROTTER_SIMFM: MODE_SIMULATED_FM}[self.engine]
        return ((THREE_TERM, transfer_chain(self.n), mode),)
