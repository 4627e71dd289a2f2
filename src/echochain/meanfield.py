"""Classical mean-field baseline for the echo.

The chain state is kept factorized: one two-spin wavefunction for the
entangled head pair and an independent spinor for every later site.
Two-body exchange is replaced by time-dependent local fields built
from neighbor spin expectations, and the coupled equations are
integrated with classical fourth-order Runge-Kutta (fields recomputed
at every internal stage).

From the echo's initial state (singlet head pair, every later spin up)
every field stays along z: the pair's <S_2> has no transverse part and
neither has any later spin.  A z field only turns phases, so p00, p11
and every down amplitude start at 0.0 and stay exactly 0.0 in floating
point as well: each of their updates multiplies or adds exact zeros.
The integrator therefore advances only the n amplitudes that can be
nonzero, as a site-major (n, rows) complex array c:

  c[0]  p01 of the head pair     c[1]  p10 of the head pair
  c[k]  site k+1's up amplitude, k >= 2

On each of them it makes the floating-point operations the general
(n, 2)-spinor integrator makes, in the same order, and drops only the
terms that are exact zeros (x + 0 is x), so every bit is the same; the
tests keep the general integrator as the oracle that checks this.  A
curve is one batched pass: every grid point is a row, and one RK4
kernel advances all rows, each with its own drive segments and step
size.  With a few rows each step costs numpy call overhead, not
arithmetic, so the kernel writes every result into a buffer made once
per epoch and pairs operands of one shape: each site's row block is
contiguous, and a step size is stored at full shape, not broadcast.
Each epoch also records its step once, as a list of numpy calls bound
to their operands and positional outputs, so a step runs those calls
and looks nothing up.
Each point comes back as a plain (singlet revival, final slots) pair,
with the slots expanded back to (n, 2) spinors.

Two drive schedules are implemented because a literal +-H mean-field
echo provably self-cancels for this initial state (every field stays
along z and the accumulated phases unwind):

  continuous      forward with the ferromagnetic sign for t, backward
                  with the antiferromagnetic sign for t.
  mirrored-pulse  the same antiferromagnetic pulse train the quantum
                  forward leg uses, built from `trotter.SECOND_ORDER`
                  and `trotter.bond_groups`: per step, a 2*pi-complement
                  pulse of tau/divisor on each layer's bond group,
                  followed by the short backward pulses tau/divisor;
                  this is the schedule that fails to revive
                  (analytically cos^2(N*pi/2) for N steps).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .chain import ChainSpec, uniform_echo_chain
from .gates import SINGLET, afm_duration_for_fm
from .trotter import SECOND_ORDER, bond_groups

SCHEDULE_CONTINUOUS = "continuous"
SCHEDULE_MIRRORED = "mirrored-pulse"
SCHEDULES = (SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED)
# Most batched RK4 steps one curve's pass may take: its longest row's
# step count.  One step of a 59-row curve at n = 10 takes 45-70 us on
# a 2-core host, so a full pass takes 8-12 minutes; the default
# `echo --with-meanfield` takes about 302 000 steps.
MAX_PASS_STEPS = 10**7


class StepBudgetError(ValueError):
    """A curve's step size would take more than MAX_PASS_STEPS steps."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4; dt is in units of 1/J."""

    dt: float = 1e-3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"step size must be positive and finite, got {self.dt}")


def _initial_amplitudes(n: int) -> np.ndarray:
    """The echo's initial state as its n live amplitudes: the singlet
    head pair's p01 and p10, then each later site's up amplitude."""
    c = np.ones(n, dtype=complex)
    c[:2] = SINGLET[1:3]
    return c


def _slots(c: np.ndarray) -> np.ndarray:
    """Site-major amplitudes (n, rows) as slot arrays (rows, n, 2):
    slots 0 and 1 are the head pair's rows (p00, p01) and (p10, p11),
    and slot k >= 2 is site k+1's spinor (up, down).  Every other entry
    is 0."""
    slots = np.zeros(c.shape[::-1] + (2,), dtype=complex)
    slots[:, 0, 1] = c[0]
    slots[:, 1:, 0] = c[1:].T
    return slots


class _Epoch:
    """One epoch's RK4 step for one batch of rows, recorded once: what
    stays fixed while the batch advances through the epoch (the
    couplings of each site to its right and left neighbor, the step
    sizes, the work arrays and the views they are read and written
    through) bound into `calls`, the step's numpy calls in order.  A
    step is then `for call in calls: call()` on the batch c the epoch
    was built for, with no lookups or keyword arguments per call.

    Every array is site-major, (sites, rows), so each site's values
    for all rows are one contiguous block, and every ufunc call pairs
    operands of one shape: no call broadcasts, which is why the step
    sizes and the constant factors are stored at full shape.  Views
    that pick sites are taken on flat buffers, because numpy runs a
    1-d operand of any stride on its fast path but sends an n-d one
    that is not contiguous through its general iterator.

    The padded |c|^2 buffer w holds slots 0..n-1 and a zero past the
    last site; each derivative turns slot 1 into the head pair's
    2 <S_2^z> and halves slots 1..n-1 into <S^z>.  Slot k >= 1 sits on
    site k+1, so its right neighbor is w[k+1] and its left one w[k-1].
    Slot 1's left neighbor w[0] is |p01|^2, which meets only the zero
    (1,2) bond, so it adds the same zero as site 1's zero spin.  Slot 0
    sits on site 2 as well, but p01's site-2 spin is down, so it turns
    with -hz.
    """

    def __init__(self, js: np.ndarray, step: np.ndarray, c: np.ndarray) -> None:
        n, rows = js.shape
        # complex, so a step times a complex array needs no cast;
        # dt / 6.0 is taken in real arithmetic first, because complex
        # division multiplies by a rounded reciprocal
        dt, half, sixth = np.empty((3, n, rows), dtype=complex)
        dt[...], half[...], sixth[...] = step, 0.5 * step, step / 6.0
        twos = np.full((n, rows), 2 + 0j)
        minus_half_i = np.full((n, rows), -0.5j)
        k1, k2, k3, k4 = np.empty((4, n, rows), dtype=complex)
        stage = np.empty((n, rows), dtype=complex)
        js = js.reshape(-1)
        j_right, j_left = js[rows:], js[:-rows]
        w = np.zeros((n + 1) * rows)
        w_live = w[:-rows].reshape(n, rows)
        w_p01, w_p10, w_sites = w[:rows], w[rows:2 * rows], w[rows:-rows]
        w_right, w_left = w[2 * rows:], w[:-2 * rows]
        halves = np.full((n - 1) * rows, 0.5)
        from_right, from_left = np.empty((2, (n - 1) * rows))
        # the field as a complex array, so hz * c needs no cast either
        hz = np.zeros((n, rows), dtype=complex)
        hz_real = hz.reshape(-1).real
        hz_p01, hz_site2, hz_sites = hz_real[:rows], hz_real[rows:2 * rows], hz_real[rows:]
        # the squares of the pair's float view, p01's (re, im, re, ...)
        # over p10's, and their sum over the pair
        pair_squares = np.empty((2, 2 * rows))
        pair_sum = np.empty(2 * rows)
        pair_re, pair_im = pair_sum[0::2], pair_sum[1::2]
        spin_squares = np.empty((n, rows), dtype=complex)
        spin_re = spin_squares.reshape(-1).real[2 * rows:]
        # each amplitude's divisor, complex with a zero imaginary part,
        # as numpy casts a float divisor of a complex array
        norm = np.zeros((n, rows), dtype=complex)
        norm_real = norm.reshape(-1).real
        norm_p01, norm_p10, norm_sites = (
            norm_real[:rows], norm_real[rows:2 * rows], norm_real[2 * rows:]
        )

        def derivative(x: np.ndarray, out: np.ndarray) -> list[partial]:
            """dc/dt = -i/2 hz x into out for every live amplitude of x,
            hz the signed z field of its slot."""
            return [
                partial(np.abs, x, w_live),
                partial(np.square, w_live, w_live),
                # <S_2^z> = 0.5 (|p10|^2 - |p01|^2), <S_k^z> = 0.5 |up_k|^2
                partial(np.subtract, w_p10, w_p01, w_p10),
                partial(np.multiply, halves, w_sites, w_sites),
                # each site's right neighbor first, then its left one
                partial(np.multiply, j_right, w_right, from_right),
                partial(np.multiply, j_left, w_left, from_left),
                partial(np.add, from_right, from_left, hz_sites),
                partial(np.negative, hz_site2, hz_p01),
                partial(np.multiply, hz, x, out),
                partial(np.multiply, out, minus_half_i, out),
            ]

        self.c = c
        self.calls = [
            *derivative(c, k1),
            partial(np.multiply, half, k1, stage),
            partial(np.add, c, stage, stage),
            *derivative(stage, k2),
            partial(np.multiply, half, k2, stage),
            partial(np.add, c, stage, stage),
            *derivative(stage, k3),
            partial(np.multiply, dt, k3, stage),
            partial(np.add, c, stage, stage),
            *derivative(stage, k4),
            # c + dt/6 (k1 + 2 k2 + 2 k3 + k4)
            partial(np.multiply, twos, k2, k2),
            partial(np.add, k1, k2, k1),
            partial(np.multiply, twos, k3, k3),
            partial(np.add, k1, k3, k1),
            partial(np.add, k1, k4, k1),
            partial(np.multiply, sixth, k1, k1),
            partial(np.add, c, k1, c),
            # Both norms are np.linalg.norm's.  A whole vector's is the
            # dot of its real parts plus that of its imaginary parts,
            # which over the pair's (0, p01, p10, 0) is
            # (re01^2 + re10^2) + (im01^2 + im10^2); a spinor's sums
            # (x* x).real, whose down term is 0.
            partial(np.square, c[:2].view(float), pair_squares),
            partial(np.add, pair_squares[0], pair_squares[1], pair_sum),
            partial(np.add, pair_re, pair_im, norm_p01),
            partial(np.sqrt, norm_p01, norm_p01),
            partial(np.copyto, norm_p10, norm_p01),
            partial(np.conjugate, c, spin_squares),
            partial(np.multiply, spin_squares, c, spin_squares),
            partial(np.sqrt, spin_re, norm_sites),
            partial(np.divide, c, norm, c),
        ]


def _rk4_update(c: np.ndarray, epoch: _Epoch) -> np.ndarray:
    """One RK4 step of every row of the site-major amplitudes c, in
    place, then renormalization of the pair and each spin; returns c.
    c must be the array the epoch was built for: its calls are bound
    to c and its views."""
    if c is not epoch.c:
        raise ValueError("the epoch was built for another amplitude array")
    for call in epoch.calls:
        call()
    return c


def _signed_couplings(couplings: np.ndarray, sign: float) -> np.ndarray:
    """sign * J per bond plus a zero bond past the last site: js[i] =
    sign * J_(i+1, i+2), the coupling of site i+1 to its right neighbor."""
    return sign * np.append(couplings, 0.0)


def _schedule_segments(
    spec: ChainSpec, t: float, schedule: str, n_steps: int, sign_convention: int
) -> Iterable[tuple[float, np.ndarray]]:
    """(duration, signed couplings) drive segments, in order.  The pulse
    train is generated lazily, so a row past the step budget stops
    early whatever the pulse count."""
    if schedule == SCHEDULE_CONTINUOUS:
        return [
            (t, _signed_couplings(spec.couplings, sign_convention)),
            (t, _signed_couplings(spec.couplings, -sign_convention)),
        ]
    # each bond group's own couplings, the others' zero
    drive = {}
    for group, bonds in bond_groups(spec).items():
        masked = np.zeros_like(spec.couplings)
        masked[bonds] = spec.couplings[bonds]
        drive[group] = _signed_couplings(masked, -sign_convention)
    j = float(np.max(spec.couplings))
    tau = t / n_steps
    forward = [(afm_duration_for_fm(tau / divisor, j, j), drive[group])
               for group, divisor in SECOND_ORDER]
    backward = [(tau / divisor, drive[group]) for group, divisor in SECOND_ORDER]
    return itertools.chain.from_iterable(
        itertools.chain(itertools.repeat(forward, n_steps), itertools.repeat(backward, n_steps))
    )


def _row_segments(
    spec: ChainSpec, t: float, schedule: str, n_steps: int, sign_convention: int, dt: float
) -> list[tuple[int, float, np.ndarray]]:
    """(steps, step size, signed couplings) of each driven segment of
    one grid point; a zero-duration echo applies no drive at all.
    Raises StepBudgetError once the segments pass MAX_PASS_STEPS steps
    in all."""
    if t == 0:
        return []
    segments = []
    total = 0
    for duration, js in _schedule_segments(spec, t, schedule, n_steps, sign_convention):
        if duration > 0:
            # an infinite count stops one step past the budget
            steps = max(1, math.ceil(min(duration / dt, MAX_PASS_STEPS + 1)))
            total += steps
            if total > MAX_PASS_STEPS:
                remedy = ("a larger step" if schedule == SCHEDULE_CONTINUOUS
                          else "a larger step or fewer pulses")
                raise StepBudgetError(
                    f"leg duration {t!r} takes more than the budget of {MAX_PASS_STEPS} "
                    f"RK4 steps of at most {dt!r} per pass; use {remedy}"
                )
            segments.append((steps, duration / steps, js))
    return segments


def meanfield_echo_curve(
    n: int,
    j: float,
    grid: Sequence[float],
    integrator: IntegratorConfig | None = None,
    schedule: str = SCHEDULE_CONTINUOUS,
    n_steps: int = 1,
    sign_convention: int = -1,
) -> list[tuple[float, np.ndarray]]:
    """Mean-field echo at every leg duration in grid, in one batched
    RK4 pass: one row per grid point, each with its own segments,
    couplings, sign and step size.  The rows advance together one epoch
    (a stretch with no segment boundary in any row) at a time, and a
    row drops out once its drive is done, so the pass takes as many
    batched steps as the longest row.  A row's bits depend only on its
    own leg duration, whatever the grid's order or size.  Each row
    returns its singlet revival and its final (n, 2) slot array, laid
    out as `_slots` lays it out.

    sign_convention is the multiplier applied to the ferromagnetic-leg
    mean fields (-1 matches the Hamiltonian sign; +1 is the literal
    positive-J reading); the backward leg always gets the opposite
    sign.

    Every row is planned before any step runs; a row past
    MAX_PASS_STEPS steps raises StepBudgetError, a ValueError.
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule '{schedule}'")
    if sign_convention not in (-1, 1):
        raise ValueError(f"sign convention must be +1 or -1, got {sign_convention}")
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    if not (math.isfinite(j) and j > 0):
        raise ValueError(f"coupling must be finite and positive, got {j}")
    times = [float(t) for t in grid]
    for t in times:
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"leg duration must be finite and nonnegative, got {t}")
    config = integrator or IntegratorConfig()
    spec = uniform_echo_chain(n, j)
    dt = config.dt / j
    plans = [
        _row_segments(spec, t, schedule, n_steps, sign_convention, dt) for t in times
    ]
    c = np.repeat(_initial_amplitudes(n)[:, None], len(times), axis=1)
    position = [0] * len(times)
    left = [plan[0][0] if plan else 0 for plan in plans]
    active = [r for r, plan in enumerate(plans) if plan]
    while active:
        segments = [plans[r][position[r]] for r in active]
        batch = c.take(active, axis=1)
        epoch = _Epoch(
            np.stack([segment[2] for segment in segments], axis=1),
            np.array([segment[1] for segment in segments]),
            batch,
        )
        steps = min(left[r] for r in active)
        for _ in range(steps):
            batch = _rk4_update(batch, epoch)
        c[:, active] = batch
        for r in active:
            left[r] -= steps
            if left[r] == 0:
                position[r] += 1
                if position[r] < len(plans[r]):
                    left[r] = plans[r][position[r]][0]
        active = [r for r in active if left[r] > 0]
    results = []
    for slots in _slots(c):
        fidelity = float(abs(np.vdot(SINGLET, slots[:2].reshape(4))) ** 2)
        if not -1e-12 <= fidelity <= 1 + 1e-12:
            raise ValueError(f"fidelity {fidelity} outside [0, 1]")
        results.append((fidelity, slots))
    return results
