"""Gate-error model, the one execution path for protocol runs, curves
and sweeps, and the log-log infidelity fit.

Every exchange angle theta executed under a NoiseModel becomes
theta * (1 + eta) with eta ~ Normal(0, v^2) drawn fresh per gate per
step.  This multiplies the coupling at fixed duration, so a long pulse
(the near-2*pi antiferromagnetic pulses of the simulated ferromagnet)
is proportionally more sensitive than a short one.

A protocol config (`echochain.echo.EchoConfig` or
`echochain.transfer.TransferConfig`, imported for type hints only) runs
its own batch of final states and names the pair it scores, so
`fidelity`, `fidelity_curve` and `slope_vs_n` serve both protocols: a
single run is a one-row batch drawn from config.seed itself.  Trials are
seeded with SeedSequence([master_seed, trial]) so every trial has an
independent stream and results do not depend on how the trials are
batched.  All trials of a sweep at one chain length run as one batch
of the one-magnon engine (`echochain.sector`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from . import sector

if TYPE_CHECKING:
    from .echo import EchoConfig
    from .transfer import TransferConfig

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


@dataclass
class TrialStats:
    """Mean and spread of infidelity over repeated noisy runs."""

    n: int
    v: float
    trials: int
    steps: int  # Trotter steps per leg, as the config resolved them
    mean_infidelity: float
    std_infidelity: float
    infidelities: np.ndarray = field(repr=False)


@dataclass
class FitResult:
    """Least-squares line through (log v, log I) of the (v, I) points."""

    a: float
    b: float
    r_squared: float
    residuals: np.ndarray = field(repr=False)
    points: list[tuple[float, float]] = field(repr=False)

    @property
    def reliable(self) -> bool:
        """A slope counts as a robustness exponent only when the
        power-law fit is tight; anything below 0.95 flags the points."""
        return self.r_squared >= 0.95


def _trial_stats(n: int, v: float, steps: int, infidelities: np.ndarray) -> TrialStats:
    if not np.all((infidelities >= -1e-12) & (infidelities <= 1 + 1e-12)):
        raise RuntimeError("trial infidelity left [0, 1]")
    return TrialStats(
        n=n,
        v=v,
        trials=len(infidelities),
        steps=steps,
        mean_infidelity=float(infidelities.mean()),
        std_infidelity=float(infidelities.std()),
        infidelities=infidelities,
    )


def _batch_stats(
    config: EchoConfig | TransferConfig,
    v_grid: Sequence[float],
    base_seeds: Sequence[Seed],
    trials: int,
    include_fields: bool,
) -> list[TrialStats]:
    """Every trial of `config` at every v_grid[i] as one batch; trial k
    of v_grid[i] draws its gate errors from child_seed(base_seeds[i], k)."""
    seeds = [child_seed(base, k) for base in base_seeds for k in range(trials)]
    noise = GateNoise(seeds, np.repeat(v_grid, trials), include_fields)
    c = config.final_states([config.t], noise)
    rows = (1.0 - sector.singlet_fidelity(c, *config.pair)).reshape(len(v_grid), trials)
    return [_trial_stats(config.n, v, config.steps, row) for v, row in zip(v_grid, rows)]


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
    return FitResult(
        a=float(a), b=float(b), r_squared=r_squared, residuals=residuals, points=pts
    )


def default_v_grid(
    v_min: float = 1e-3, v_max: float = 1e-1, points: int = 8
) -> np.ndarray:
    """Log-spaced error strengths for robustness sweeps."""
    if not 0 < v_min < v_max < math.inf or points < 3:
        raise ValueError("grid must be finite, positive, increasing, with >= 3 points")
    return np.geomspace(v_min, v_max, points)


def fidelity(config: EchoConfig | TransferConfig) -> float:
    """One run of `config` at config.t, drawing its gate errors from
    config.seed itself, scored by the singlet fidelity of its pair."""
    c = config.final_states([config.t], model_noise(config.noise, [config.seed]))
    value = float(sector.singlet_fidelity(c, *config.pair)[0])
    if not -1e-12 <= value <= 1 + 1e-12:
        raise ValueError(f"fidelity {value} outside [0, 1]")
    return value


def fidelity_curve(
    config: EchoConfig | TransferConfig, t_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """One run of `config` per grid point, all in one batch, scored by
    the singlet fidelity of its pair; point k draws its gate errors from
    the sub-seed (config.seed, k).  Every point lies in [0, config.t],
    the times the config checked when it was built."""
    times = [float(t) for t in t_grid]
    if not times:
        return []
    outside = [t for t in times if not 0 <= t <= config.t]
    if outside:
        raise ValueError(f"evolution time must lie in [0, {config.t!r}], got {outside[0]!r}")
    seeds = [child_seed(config.seed, k) for k in range(len(times))]
    c = config.final_states(times, model_noise(config.noise, seeds))
    return list(zip(times, sector.singlet_fidelity(c, *config.pair).tolist()))


def slope_vs_n(
    configs: Sequence[EchoConfig | TransferConfig],
    v_grid: Sequence[float],
    trials: int,
    master_seed: Seed,
    *,
    on_stats: Callable[[TrialStats], None] | None = None,
    include_fields: bool = False,
) -> list[tuple[int, FitResult]]:
    """One log-log fit per config, each config one chain length.

    Each (n, v) point runs `trials` noisy repetitions of config.t seeded
    from (master_seed, n, v-index, trial); every trial of one n runs in
    one batch.  Points with zero mean infidelity are dropped before
    fitting.  on_stats, when given, receives every TrialStats as it is
    produced (for CSV capture).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    v_grid = [float(v) for v in v_grid]
    results: list[tuple[int, FitResult]] = []
    for config in configs:
        bases = [child_seed(child_seed(master_seed, config.n), vi) for vi in range(len(v_grid))]
        points: list[tuple[float, float]] = []
        for stats in _batch_stats(config, v_grid, bases, trials, include_fields):
            if on_stats is not None:
                on_stats(stats)
            if stats.mean_infidelity > 0:
                points.append((stats.v, stats.mean_infidelity))
        results.append((config.n, loglog_fit(points)))
    return results
