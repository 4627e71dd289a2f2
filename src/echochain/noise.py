"""Gate-error model, the one execution path for protocol runs, curves
and sweeps, and the log-log infidelity fit.

Every exchange angle theta executed under a NoiseModel becomes
theta * (1 + eta) with eta ~ Normal(0, v^2) drawn fresh per gate per
step.  This multiplies the coupling at fixed duration, so a long pulse
(the near-2*pi antiferromagnetic pulses of the simulated ferromagnet)
is proportionally more sensitive than a short one.

A protocol config (`echochain.echo.EchoConfig` or
`echochain.transfer.TransferConfig`, imported for type hints only)
names its legs (a Trotter plan's split, chain and mode, or continuous
evolution) and the pair it scores, not the noise and seed of a run, and
`_pair_fidelities` runs one config, or the configs of one sweep, as
blocks of one batch of the one-magnon engine (`echochain.sector`).  So
`fidelity`, `fidelity_curve` and `slope_vs_n` serve both protocols on
one path: a single run is a one-row batch of one block drawn from its
seed itself, a curve one block with a row per time, and
`_pair_fidelities` checks every score against [0, 1] and refuses noise
on the exact engine.  A sweep's configs run one set of legs, one
protocol, engine and backward mode at several chain lengths, and
`slope_vs_n` refuses any others.  Its trial k of chain n at v_grid[i]
is seeded with SeedSequence([master_seed, n, i, k]), so every trial has
an independent stream and results do not depend on how the trials are
batched.  A sweep runs its chains together
up to an amplitude cap (`_batches`, in run order), every trial of each
in the batch, and returns each chain's (v, trials) infidelities with
the log-log fit of their row means.

A batch's streams are seeded together: `GateNoise` runs numpy's
SeedSequence hash (integer arithmetic with fixed constants, the same
for every input) as uint32 column operations over all rows with the
same number of entropy words, and starts each row's PCG64 from its four
hashed words.  Every stream is bit for bit the one
`make_rng(seed)` = default_rng(SeedSequence(seed)) gives, which the
dense oracle and `echochain.checks` still use one seed at a time.
`numpy.random` is imported on the first draw, not with this module, so
commands that never draw noise never load it.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from . import sector
from .trotter import TimeBudgetError, batch_plan

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


def _entries(seed: Seed) -> Iterator[int]:
    """The ints of `seed`, one by one: SeedSequence hashes an int n
    exactly as it hashes [n]."""
    return map(operator.index, seed if isinstance(seed, (tuple, list)) else (seed,))


def make_rng(seed: Seed) -> np.random.Generator:
    """Deterministic generator from an int or a tuple of ints."""
    return np.random.default_rng(np.random.SeedSequence(list(_entries(seed))))


def child_seed(seed: Seed, index: int) -> tuple[int, ...]:
    """Derive an independent sub-stream seed (order-insensitive)."""
    return (*_entries(seed), operator.index(index))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its
# default pool of 4 uint32 words.  A hash call xors a word with the
# running constant h, multiplies it by h * MULT and xor-shifts it; h
# advances the same way whatever the data.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16


def _entropy_bytes(seed: Seed) -> bytes:
    """The words SeedSequence assembles from `seed`, little-endian: each
    int as its 32-bit words, low word first, and 0 as one zero word."""
    words = []
    for entry in _entries(seed):
        if entry < 0:
            raise ValueError("expected non-negative integer")
        words.append(entry.to_bytes(max(1, -(-entry.bit_length() // 32)) * 4, "little"))
    return b"".join(words)


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The running constant before each of `calls` hash calls, then after the last."""
    constants = [init]
    for _ in range(calls):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants, dtype=np.uint32)


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """One hash call per column of `values`, column k with constants[k]
    and constants[k + 1]; columns broadcast against the constants."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's mix of pool words x with hashed words y."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, uint64) for every row of the
    (rows, words) uint32 entropy, as a (rows, 4) uint64 array.

    Each loop runs the hash calls of numpy's own loops in their order;
    the calls of one pool column's mixing read that column only, so
    they run together.
    """
    rows, count = entropy.shape
    extra = max(count - _POOL, 0)
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    pool = np.zeros((rows, _POOL), dtype=np.uint32)
    pool[:, :min(count, _POOL)] = entropy[:, :_POOL]
    pool = _hashmix(pool, constants[:_POOL + 1])
    call = _POOL
    # mix every pool word into every other one
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        hashed = _hashmix(pool[:, src:src + 1], constants[call:call + _POOL])
        pool[:, dst] = _mix(pool[:, dst], hashed)
        call += _POOL - 1
    # then every word past the pool into each pool word
    for src in range(_POOL, count):
        pool = _mix(pool, _hashmix(entropy[:, src:src + 1], constants[call:call + _POOL + 1]))
        call += _POOL
    # generate_state: 8 uint32 words cycling through the pool, read as
    # 4 little-endian uint64 words
    state = _hashmix(np.tile(pool, 2), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _hashed_seed_class() -> type:
    """An ISeedSequence handing PCG64 one row's hashed state words,
    defined on first use so that importing this module does not load
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != _POOL or np.dtype(dtype) != np.uint64:
                raise ValueError("holds the 4 uint64 words PCG64 asks for only")
            return self.state

    return HashedSeed


def _generators(seeds: Sequence[Seed]) -> list[np.random.Generator]:
    """make_rng(seed) for every seed, hashed one batch per entropy word
    count rather than one seed at a time."""
    from numpy.random import PCG64, Generator

    hashed_seed = _hashed_seed_class()
    by_width: dict[int, list[int]] = {}
    entropy = [_entropy_bytes(seed) for seed in seeds]
    for row, words in enumerate(entropy):
        by_width.setdefault(len(words), []).append(row)
    generators: list = [None] * len(seeds)
    for width, rows in by_width.items():
        words = np.frombuffer(b"".join(entropy[r] for r in rows), dtype="<u4")
        states = _seed_states(words.astype(np.uint32).reshape(len(rows), width // 4))
        for row, state in zip(rows, states):
            generators[row] = Generator(PCG64(hashed_seed(state)))
    return generators


class GateNoise:
    """Gate errors for a batch of trials, one independent stream per row.

    Row r draws standard normals z from the stream make_rng(seeds[r])
    gives, in gate execution order, and perturbs an angle by
    eta = z * v[r]: the same values, bit for bit, that the dense
    oracle's `echochain.statevec.sample_eta` draws one gate at a time.
    """

    def __init__(self, seeds: Sequence[Seed], v, include_fields: bool = False) -> None:
        self.v = np.asarray(v, dtype=float).reshape(-1, 1)
        if self.v.shape[0] != len(seeds):
            raise ValueError(f"{len(seeds)} seeds but {self.v.shape[0]} noise strengths")
        if not np.all(np.isfinite(self.v) & (self.v >= 0)):
            raise ValueError("noise strength must be finite and >= 0")
        self.include_fields = include_fields
        self._rngs = _generators(seeds)

    def __len__(self) -> int:
        return len(self._rngs)

    def take(self, count: int, rows: slice = slice(None)) -> np.ndarray:
        """The next `count` errors of each of `rows`, shape (rows, count)."""
        rngs = self._rngs[rows]
        z = np.empty((len(rngs), count))
        for row, rng in zip(z, rngs):
            rng.standard_normal(out=row)
        z *= self.v[rows]
        return z


def model_noise(model: NoiseModel | None, seeds: Sequence[Seed]) -> GateNoise | None:
    """One stream per seed at the model's strength; None at none or 0."""
    if model is None or model.v == 0:
        return None
    return GateNoise(seeds, np.full(len(seeds), model.v), model.include_fields)


@dataclass
class FitResult:
    """Least-squares line through (log v, log I) of the (v, I) points."""

    a: float
    b: float
    r_squared: float
    points: list[tuple[float, float]] = field(repr=False)

    @property
    def reliable(self) -> bool:
        """A slope counts as a robustness exponent only when the
        power-law fit is tight; anything below 0.95 flags the points."""
        return self.r_squared >= 0.95


def _pair_fidelities(
    configs: Sequence[EchoConfig | TransferConfig],
    times: Sequence[Sequence[float]],
    rows: Sequence[int],
    noise: GateNoise | None,
) -> list[np.ndarray]:
    """One batched pass over every config's rows: block b is configs[b]
    on rows[b] rows, with times[b] one time per row or one for all of
    them, and the configs come by descending step count.  Returns each
    block's singlet fidelities of its config's pair, after the one
    check that every score lies in [0, 1].

    Each row is padded with zero amplitudes to the longest chain.  Plan
    legs run as one `sector.evolve` pass over the batch; continuous legs
    run `sector.exact_evolve` on each block's own sites and take no
    noise.  Its callers pass one config, or the configs of one sweep,
    which run one set of legs.
    """
    starts = np.cumsum([0, *rows]).tolist()
    legs = [config.legs() for config in configs]
    if noise is not None and np.any(noise.v > 0) and all(mode is None for _, _, mode in legs[0]):
        raise ValueError("the exact engine is noise-free; use a trotter engine")
    c = sector.singlet_head(starts[-1], max(config.n for config in configs))
    for leg in zip(*legs):
        split, _, mode = leg[0]
        if mode is not None:
            chains = [(spec, t, config.steps, count)
                      for (_, spec, _), t, config, count in zip(leg, times, configs, rows)]
            sector.evolve(c, batch_plan(split, chains, mode), noise)
            continue
        for (_, spec, _), t, start, stop in zip(leg, times, starts, starts[1:]):
            c[start:stop, :spec.n] = sector.exact_evolve(spec, c[start:stop, :spec.n], t)
    scores = []
    for config, start, stop in zip(configs, starts, starts[1:]):
        block = c[start:stop, :config.n]
        sector.check_norm(block)
        scores.append(sector.singlet_fidelity(block, *config.pair))
    if not all(np.all((f >= -1e-12) & (f <= 1 + 1e-12)) for f in scores):
        raise RuntimeError("singlet fidelity left [0, 1]")
    return scores


def _batch_trials(
    configs: Sequence[EchoConfig | TransferConfig],
    v_grid: Sequence[float],
    trials: int,
    master_seed: Seed,
    include_fields: bool,
) -> list[np.ndarray]:
    """Every trial of every config at every v_grid[i] as one batch, the
    configs in run order (`_batches`): each config's contiguous
    (len(v_grid), trials) infidelities, in the configs' order.  Trial k
    of a config at v_grid[i] draws its gate errors from
    (master_seed, config.n, i, k)."""
    rows = len(v_grid) * trials
    seeds = [(*_entries(master_seed), config.n, i, k)
             for config in configs for i in range(len(v_grid)) for k in range(trials)]
    v = np.tile(np.repeat(v_grid, trials), len(configs))
    scores = _pair_fidelities(configs, [[config.t] for config in configs], [rows] * len(configs),
                              GateNoise(seeds, v, include_fields))
    return [(1.0 - f).reshape(len(v_grid), trials) for f in scores]


def loglog_fit(points: Iterable[tuple[float, float]]) -> FitResult:
    """Ordinary least squares of log(I) = a + b log(v), in closed form:
    b = sum (x - x_mean)(y - y_mean) / sum (x - x_mean)^2 and
    a = y_mean - b x_mean.  Each log is `math.log` and each sum a
    correctly rounded `math.fsum`, so the fit's bits depend on no BLAS,
    LAPACK or SIMD kernel.

    Raises ValueError on fewer than 3 points, any nonpositive v or I
    (the caller should drop such points), or no spread in log v.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    if any(v <= 0 or i <= 0 for v, i in pts):
        raise ValueError("all v and infidelities must be positive")
    log_v = [math.log(v) for v, _ in pts]
    log_i = [math.log(i) for _, i in pts]
    x_mean = math.fsum(log_v) / len(pts)
    y_mean = math.fsum(log_i) / len(pts)
    dx = [x - x_mean for x in log_v]
    dy = [y - y_mean for y in log_i]
    ss_x = math.fsum(d * d for d in dx)
    if ss_x == 0.0:
        raise ValueError("all log v are equal, so the slope is undefined")
    b = math.fsum(p * q for p, q in zip(dx, dy)) / ss_x
    a = y_mean - b * x_mean
    residuals = [y - (a + b * x) for x, y in zip(log_v, log_i)]
    ss_res = math.fsum(r * r for r in residuals)
    ss_tot = math.fsum(d * d for d in dy)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(a=a, b=b, r_squared=r_squared, points=pts)


def default_v_grid(
    v_min: float = 1e-3, v_max: float = 1e-1, points: int = 8
) -> np.ndarray:
    """Log-spaced error strengths for robustness sweeps, whose logs (as
    `loglog_fit` takes them) increase strictly, so that no sweep runs
    toward a fit without a slope."""
    if not 0 < v_min < v_max < math.inf or points < 3:
        raise ValueError("grid must be finite, positive, increasing, with >= 3 points")
    grid = np.geomspace(v_min, v_max, points)
    logs = [math.log(v) for v in grid.tolist()]
    if not all(a < b for a, b in zip(logs, logs[1:])):
        raise ValueError(f"v_min {v_min!r} and v_max {v_max!r} are too close for {points} "
                         "points: the logs of the grid must increase strictly")
    return grid


def fidelity(config: EchoConfig | TransferConfig, noise: NoiseModel | None = None,
             seed: Seed = 0) -> float:
    """One run of `config` at config.t, drawing the gate errors of
    `noise` from `seed` itself, scored by the singlet fidelity of its pair."""
    return float(_pair_fidelities([config], [[config.t]], [1], model_noise(noise, [seed]))[0][0])


def fidelity_curve(config: EchoConfig | TransferConfig, t_grid: Sequence[float],
                   noise: NoiseModel | None = None,
                   seed: Seed = 0) -> list[tuple[float, float]]:
    """One run of `config` per grid point, all in one batch, scored by
    the singlet fidelity of its pair; point k draws the gate errors of
    `noise` from the sub-seed (seed, k).  Every point lies in
    [0, config.t], the times the config checked when it was built."""
    times = [float(t) for t in t_grid]
    if not times:
        return []
    outside = [t for t in times if not 0 <= t <= config.t]
    if outside:
        raise TimeBudgetError(f"evolution time must lie in [0, {config.t!r}], got {outside[0]!r}")
    seeds = [child_seed(seed, k) for k in range(len(times))]
    fidelities = _pair_fidelities([config], [times], [len(times)], model_noise(noise, seeds))[0]
    return list(zip(times, fidelities.tolist()))


# A chain joins a batch while the batch holds at most BATCH_AMPLITUDES
# amplitudes (rows x longest chain).  A shared pass saves numpy's
# per-call cost, which dominates small batches; past the cap a batch's
# arrays outgrow the core's cache, so that a shared pass was measured
# slower than one pass per chain (README, "Library layout").  Chains of
# any lengths may share a batch: many chains fit only when the arrays
# are small, where numpy's per-call cost outweighs the pads' arithmetic.
BATCH_AMPLITUDES = 1 << 13


def _batches(configs: Sequence[EchoConfig | TransferConfig], rows: int) -> list[list[int]]:
    """Indexes of the configs that run as one batch, `rows` rows each,
    longest chains first, each batch in run order: by descending step
    count and longest chain first among equal step counts."""
    batches: list[list[int]] = []
    batch: list[int] = []
    for index in sorted(range(len(configs)), key=lambda i: -configs[i].n):
        longest = configs[batch[0]].n if batch else configs[index].n
        if batch and (len(batch) + 1) * rows * longest > BATCH_AMPLITUDES:
            batches.append(batch)
            batch = []
        batch.append(index)
    if batch:
        batches.append(batch)
    # sorted stably, so chains of equal step count stay longest first
    return [sorted(batch, key=lambda i: -configs[i].steps) for batch in batches]


def slope_vs_n(
    configs: Sequence[EchoConfig | TransferConfig],
    v_grid: Sequence[float],
    trials: int,
    master_seed: Seed,
    *,
    include_fields: bool = False,
) -> list[tuple[np.ndarray, FitResult]]:
    """One (infidelities, fit) pair per config, each config one chain
    length, in the configs' order: infidelities[i, k] is trial k at
    v_grid[i], and fit the log-log fit of the row means.

    Each (n, v) point runs `trials` noisy repetitions of config.t seeded
    from (master_seed, n, v-index, trial).  Chains run together up to an
    amplitude cap (`_batches`), every trial of each in the batch.  Points
    with zero mean infidelity are dropped before fitting, and a chain
    left with fewer than 3 points raises ValueError naming its n.
    Configs that run different legs, no trials, or fewer than the 3
    error strengths a fit needs raise ValueError before any trial runs.
    """
    if len({tuple((split, mode) for split, _, mode in c.legs()) for c in configs}) > 1:
        raise ValueError("the configs of one sweep must run the same legs")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    v_grid = [float(v) for v in v_grid]
    if len(v_grid) < 3:
        raise ValueError(f"need at least 3 noise strengths to fit, got {len(v_grid)}")
    infidelities: dict[int, np.ndarray] = {}
    for batch in _batches(configs, len(v_grid) * trials):
        infidelities.update(zip(batch, _batch_trials([configs[b] for b in batch], v_grid,
                                                     trials, master_seed, include_fields)))
    results: list[tuple[np.ndarray, FitResult]] = []
    for b, config in enumerate(configs):
        rows = infidelities[b]
        points = [(v, mean) for v, mean in zip(v_grid, rows.mean(axis=1).tolist()) if mean > 0]
        try:
            fit = loglog_fit(points)
        except ValueError as exc:
            raise ValueError(f"cannot fit n={config.n}: {len(points)} of {len(v_grid)} noise "
                             f"strengths gave a mean infidelity above zero ({exc})") from exc
        results.append((rows, fit))
    return results
