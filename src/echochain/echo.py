"""Loschmidt echo: forward evolution under the simulated ferromagnet,
backward under the antiferromagnet, scored by singlet revival on the
first pair.  `EchoConfig` names its two legs, which `echochain.noise`
runs as single runs (`fidelity`), curves and robustness sweeps.

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

from .chain import uniform_echo_chain
from .noise import NoiseModel, Seed
from .trotter import MODE_DIRECT, MODE_SIMULATED_FM, SECOND_ORDER, check_plan

BACKWARD_TROTTERIZED = "trotterized"
BACKWARD_EXACT = "exact-continuous"


@dataclass(frozen=True)
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
        # t is the longest time this config runs; the forward leg's plan
        # raises past its wrap budget, and the direct leg's budget is the same
        split, spec, mode = self.legs()[0]
        check_plan(split, spec, self.t, self.n_steps, mode)

    @property
    def steps(self) -> int:
        """Trotter steps per leg."""
        return self.n_steps

    def legs(self) -> tuple[tuple, ...]:
        """The forward and backward legs as (split, chain, plan mode);
        a mode of None runs the chain continuously."""
        spec = uniform_echo_chain(self.n, self.j)
        # The continuous antiferromagnetic return probes the forward
        # leg's Trotter error, so it is never noisy.
        backward = MODE_DIRECT if self.backward_mode == BACKWARD_TROTTERIZED else None
        return ((SECOND_ORDER, spec, MODE_SIMULATED_FM), (SECOND_ORDER, spec, backward))
