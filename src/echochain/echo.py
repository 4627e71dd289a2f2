"""Loschmidt echo: forward evolution under the simulated ferromagnet,
backward under the antiferromagnet, scored by singlet revival on the
first pair.  `EchoConfig` runs its own batches, which
`echochain.noise` turns into single runs (`fidelity`), curves and
robustness sweeps.

Both legs share one Trotter step count.  Because the forward gates are
exact inverses of the backward gates up to global phases (each forward
pulse is the 2*pi complement of the matching backward pulse), the
noise-free trotterized echo revives exactly; running the backward leg
as continuous exact evolution instead exposes the forward Trotter
error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import sector
from .chain import uniform_echo_chain
from .noise import GateNoise, NoiseModel, Seed
from .trotter import MODE_DIRECT, MODE_SIMULATED_FM, check_second_order, second_order_plan

BACKWARD_TROTTERIZED = "trotterized"
BACKWARD_EXACT = "exact-continuous"


@dataclass
class EchoConfig:
    n: int
    t: float
    n_steps: int
    j: float = 1.0
    backward_mode: str = BACKWARD_TROTTERIZED
    noise: NoiseModel | None = None
    seed: Seed = 0
    pair = (1, 2)  # the pair whose singlet revival scores the echo

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"echo needs at least 3 sites, got {self.n}")
        if self.n_steps < 1:
            raise ValueError(f"need at least one step, got {self.n_steps}")
        if not (math.isfinite(self.j) and self.j > 0):
            raise ValueError(f"coupling must be finite and positive, got {self.j}")
        if self.backward_mode not in (BACKWARD_TROTTERIZED, BACKWARD_EXACT):
            raise ValueError(f"unknown backward mode '{self.backward_mode}'")
        # t is the longest time this config runs; the simulated
        # ferromagnet's plan raises past its wrap budget, and the direct
        # leg's budget is the same
        check_second_order(uniform_echo_chain(self.n, self.j), self.t, self.n_steps,
                           MODE_SIMULATED_FM)

    @property
    def steps(self) -> int:
        """Trotter steps per leg."""
        return self.n_steps

    def final_states(self, times: Sequence[float], noise: GateNoise | None) -> np.ndarray:
        """One echo per row: row r runs for times[r] (or times[0] for every
        row) and draws its gate errors from row r of `noise`."""
        spec = uniform_echo_chain(self.n, self.j)
        c = sector.singlet_head(len(noise) if noise is not None else len(times), self.n)
        sector.evolve(c, second_order_plan(spec, times, self.n_steps, MODE_SIMULATED_FM), noise)
        if self.backward_mode == BACKWARD_TROTTERIZED:
            sector.evolve(c, second_order_plan(spec, times, self.n_steps, MODE_DIRECT), noise)
        else:
            # Continuous antiferromagnetic return; used as a probe of the
            # forward leg's Trotter error, so it is never noisy.
            c = sector.exact_evolve(spec, c, times)
        sector.check_norm(c)
        return c
