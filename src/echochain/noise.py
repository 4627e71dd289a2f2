"""Gate-error model, Monte-Carlo trial orchestration, and the log-log
infidelity fit.

Every exchange angle theta executed under a NoiseModel becomes
theta * (1 + eta) with eta ~ Normal(0, v^2) drawn fresh per gate per
step.  This multiplies the coupling at fixed duration, so a long pulse
(the near-2*pi antiferromagnetic pulses of the simulated ferromagnet)
is proportionally more sensitive than a short one.

Trials are seeded with SeedSequence([master_seed, trial]) so every
trial has an independent stream and results do not depend on how the
trials are batched.  All trials of a sweep at one chain length run as
one batch of the one-magnon engine (`echochain.sector`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

Seed = int | tuple[int, ...]


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative Gaussian gate error of standard deviation v.

    Field phases are perturbed only when include_fields is set; the
    default error model touches exchange couplings only.
    """

    v: float
    include_fields: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v) and self.v >= 0):
            raise ValueError(f"noise strength must be finite and >= 0, got {self.v}")


def make_rng(seed: Seed) -> np.random.Generator:
    """Deterministic generator from an int or a tuple of ints."""
    if isinstance(seed, (tuple, list)):
        entropy: int | Sequence[int] = [int(s) for s in seed]
    else:
        entropy = int(seed)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def child_seed(seed: Seed, index: int) -> tuple[int, ...]:
    """Derive an independent sub-stream seed (order-insensitive)."""
    if isinstance(seed, (tuple, list)):
        return (*[int(s) for s in seed], int(index))
    return (int(seed), int(index))


class GateNoise:
    """Gate errors for a batch of trials, one independent stream per row.

    Row r draws standard normals z from make_rng(seeds[r]) in gate
    execution order and perturbs an angle by eta = z * v[r]: the same
    values, bit for bit, that the dense oracle's
    `echochain.statevec.sample_eta` draws one gate at a time.
    """

    def __init__(self, seeds: Sequence[Seed], v, include_fields: bool = False) -> None:
        self.v = np.asarray(v, dtype=float).reshape(-1, 1)
        if self.v.shape[0] != len(seeds):
            raise ValueError(f"{len(seeds)} seeds but {self.v.shape[0]} noise strengths")
        if not np.all(np.isfinite(self.v) & (self.v >= 0)):
            raise ValueError("noise strength must be finite and >= 0")
        self.include_fields = include_fields
        self._rngs = [make_rng(seed) for seed in seeds]

    def __len__(self) -> int:
        return len(self._rngs)

    def take(self, count: int) -> np.ndarray:
        """The next `count` errors of every row, shape (rows, count)."""
        z = np.empty((len(self._rngs), count))
        for row, rng in zip(z, self._rngs):
            rng.standard_normal(out=row)
        return z * self.v


def model_noise(model: NoiseModel | None, seeds: Sequence[Seed]) -> GateNoise | None:
    """One stream per seed at the model's strength; None without a model."""
    if model is None:
        return None
    return GateNoise(seeds, np.full(len(seeds), model.v), model.include_fields)


@dataclass(frozen=True)
class TrialRunner:
    """Noisy trials of one protocol at one chain length.

    `infidelities(noise)` runs one trial per row of a GateNoise as one
    batch; `n_steps` is the Trotter step count the runner resolved.
    """

    n_steps: int
    infidelities: Callable[[GateNoise], np.ndarray]


@dataclass
class TrialStats:
    """Mean and spread of infidelity over repeated noisy runs."""

    protocol: str
    n: int
    v: float
    trials: int
    steps: int  # Trotter steps per leg, as the runner resolved them
    mean_infidelity: float
    std_infidelity: float
    infidelities: np.ndarray = field(repr=False)


@dataclass
class FitResult:
    """Least-squares line through (log v, log I)."""

    a: float
    b: float
    r_squared: float
    residuals: np.ndarray = field(repr=False)

    @property
    def reliable(self) -> bool:
        """A slope counts as a robustness exponent only when the
        power-law fit is tight; anything below 0.95 flags the points."""
        return self.r_squared >= 0.95


def _trial_stats(
    protocol: str, n: int, v: float, steps: int, infidelities: np.ndarray
) -> TrialStats:
    if not np.all((infidelities >= -1e-12) & (infidelities <= 1 + 1e-12)):
        raise RuntimeError("trial infidelity left [0, 1]")
    return TrialStats(
        protocol=protocol,
        n=n,
        v=v,
        trials=len(infidelities),
        steps=steps,
        mean_infidelity=float(infidelities.mean()),
        std_infidelity=float(infidelities.std()),
        infidelities=infidelities,
    )


def _batch_stats(
    runner: TrialRunner,
    protocol: str,
    n: int,
    v_grid: Sequence[float],
    base_seeds: Sequence[Seed],
    trials: int,
    include_fields: bool,
) -> list[TrialStats]:
    """Every trial at every v_grid[i] as one batch; trial k of v_grid[i]
    draws its gate errors from child_seed(base_seeds[i], k)."""
    seeds = [child_seed(base, k) for base in base_seeds for k in range(trials)]
    noise = GateNoise(seeds, np.repeat(v_grid, trials), include_fields)
    rows = runner.infidelities(noise).reshape(len(v_grid), trials)
    return [_trial_stats(protocol, n, v, runner.n_steps, row) for v, row in zip(v_grid, rows)]


def loglog_fit(points: Iterable[tuple[float, float]]) -> FitResult:
    """Ordinary least squares of log(I) = a + b log(v).

    Raises ValueError on fewer than 3 points or any nonpositive v or I
    (the caller should drop such points).
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    if any(v <= 0 or i <= 0 for v, i in pts):
        raise ValueError("all v and infidelities must be positive")
    log_v = np.log([v for v, _ in pts])
    log_i = np.log([i for _, i in pts])
    b, a = np.polyfit(log_v, log_i, 1)
    predicted = a + b * log_v
    residuals = log_i - predicted
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((log_i - log_i.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(a=float(a), b=float(b), r_squared=r_squared, residuals=residuals)


def default_v_grid(
    v_min: float = 1e-3, v_max: float = 1e-1, points: int = 8
) -> np.ndarray:
    """Log-spaced error strengths for robustness sweeps."""
    if not 0 < v_min < v_max < math.inf or points < 3:
        raise ValueError("grid must be finite, positive, increasing, with >= 3 points")
    return np.geomspace(v_min, v_max, points)


def protocol_runner(protocol: str, **params) -> TrialRunner:
    """Trial runner for one of the named protocols.

    For 'echo': params n, j, t, n_steps, backward_mode.
    For 'transfer': params n, t, n_steps, engine.
    Imports are deferred so the protocol modules can depend on this one.
    """
    if protocol == "echo":
        from .echo import EchoConfig, echo_infidelities

        config = EchoConfig(
            n=params["n"],
            j=params.get("j", 1.0),
            t=params.get("t", math.pi / 2),
            n_steps=params.get("n_steps", 4),
            backward_mode=params.get("backward_mode", "trotterized"),
        )
        return TrialRunner(config.n_steps, lambda noise: echo_infidelities(config, noise))
    if protocol == "transfer":
        from .transfer import TransferConfig, transfer_infidelities

        config = TransferConfig(
            n=params["n"],
            t=params.get("t", math.pi / 2),
            n_steps=params.get("n_steps"),
            engine=params.get("engine", "trotter-simfm"),
        )
        return TrialRunner(
            config.resolved_steps, lambda noise: transfer_infidelities(config, noise)
        )
    raise ValueError(f"unknown protocol '{protocol}'")


def slope_vs_n(
    protocol: str,
    n_range: Sequence[int],
    v_grid: Sequence[float],
    trials: int,
    master_seed: Seed,
    *,
    on_stats: Callable[[TrialStats], None] | None = None,
    include_fields: bool = False,
    **params,
) -> list[tuple[int, FitResult]]:
    """One log-log fit per chain length.

    Each (n, v) point runs `trials` noisy repetitions seeded from
    (master_seed, n, v-index, trial); every trial of one n runs in one
    batch.  Points with zero mean infidelity are dropped before fitting.
    on_stats, when given, receives every TrialStats as it is produced
    (for CSV capture).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    v_grid = [float(v) for v in v_grid]
    results: list[tuple[int, FitResult]] = []
    for n in n_range:
        runner = protocol_runner(protocol, n=n, **params)
        bases = [child_seed(child_seed(master_seed, n), vi) for vi in range(len(v_grid))]
        points: list[tuple[float, float]] = []
        for stats in _batch_stats(runner, protocol, n, v_grid, bases, trials, include_fields):
            if on_stats is not None:
                on_stats(stats)
            if stats.mean_infidelity > 0:
                points.append((stats.v, stats.mean_infidelity))
        results.append((n, loglog_fit(points)))
    return results
