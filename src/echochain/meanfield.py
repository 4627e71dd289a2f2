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
nonzero, as a (rows, n) complex array c:

  c[:, 0]  p01 of the head pair     c[:, 1]  p10 of the head pair
  c[:, k]  site k+1's up amplitude, k >= 2

On each of them it makes the floating-point operations the general
(n, 2)-spinor integrator makes, in the same order, and drops only the
terms that are exact zeros (x + 0 is x), so every bit is the same; the
tests keep the general integrator as the oracle that checks this.  A
curve is one batched pass: every grid point is a row, and one RK4
kernel advances all rows, each with its own drive segments and step
size.  Each point comes back as a plain (singlet revival, final slots)
pair, with the slots expanded back to (n, 2) spinors.

Two drive schedules are implemented because a literal +-H mean-field
echo provably self-cancels for this initial state (every field stays
along z and the accumulated phases unwind):

  continuous      forward with the ferromagnetic sign for t, backward
                  with the antiferromagnetic sign for t.
  mirrored-pulse  the same antiferromagnetic pulse train the quantum
                  forward leg uses (per-step 2*pi-complement pulses on
                  the odd/even bond groups) followed by the short
                  backward pulses; this is the schedule that fails to
                  revive (analytically cos^2(N*pi/2) for N steps).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import ChainSpec, partition_odd_even, uniform_echo_chain
from .gates import SINGLET, afm_duration_for_fm

SCHEDULE_CONTINUOUS = "continuous"
SCHEDULE_MIRRORED = "mirrored-pulse"
SCHEDULES = (SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED)


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
    """Amplitudes (rows, n) as slot arrays (rows, n, 2): slots 0 and 1
    are the head pair's rows (p00, p01) and (p10, p11), and slot k >= 2
    is site k+1's spinor (up, down).  Every other entry is 0."""
    slots = np.zeros(c.shape + (2,), dtype=complex)
    slots[:, 0, 1] = c[:, 0]
    slots[:, 1:, 0] = c[:, 1:]
    return slots


class _Epoch:
    """What stays fixed while a batch of rows advances through one
    epoch: the couplings of each site to its right and left neighbor,
    the step columns, and the work arrays of `_derivative` and
    `_rk4_update` with the views they read and write.

    The padded <S^z> row sz holds site 1 (which couples to nothing),
    the head pair's site 2, sites 3..n, and a zero spin past the last
    site.  Slot k >= 1 sits on site k+1, so the fields of slots 1..n-1
    are the site fields of sites 2..n.  Slot 0 sits on site 2 as well,
    but p01's site-2 spin is down, so it turns with -hz.
    """

    def __init__(self, js: np.ndarray, step: np.ndarray) -> None:
        rows, n = js.shape
        self.j_right, self.j_left = js[:, 1:], js[:, :-1]
        # complex columns, so a step times a complex array needs no cast;
        # dt / 6.0 is taken in real arithmetic first, because complex
        # division multiplies by a rounded reciprocal
        dt = step[:, None]
        self.dt, self.half, self.sixth = (
            column.astype(complex) for column in (dt, 0.5 * dt, dt / 6.0)
        )
        self.w = np.empty((rows, n))
        self.w_p01, self.w_p10, self.w_sites = self.w[:, 0], self.w[:, 1], self.w[:, 1:]
        sz = np.zeros((rows, n + 1))
        self.sz_sites, self.sz_right, self.sz_left = sz[:, 1:-1], sz[:, 2:], sz[:, :-2]
        self.from_left = np.empty((rows, n - 1))
        # the field as a complex array, so hz * c needs no cast either
        self.hz = np.zeros((rows, n), dtype=complex)
        self.hz_p01, self.hz_site2 = self.hz.real[:, 0], self.hz.real[:, 1]
        self.hz_sites = self.hz.real[:, 1:]
        # the pair as (p00, p01, p10, p11), with p00 = p11 = 0
        pair = np.zeros((rows, 1, 4), dtype=complex)
        self.live_pair = pair[:, 0, 1:3]
        self.re, self.im = pair.real, pair.imag
        self.re_t, self.im_t = self.re.transpose(0, 2, 1), self.im.transpose(0, 2, 1)


def _derivative(c: np.ndarray, epoch: _Epoch) -> np.ndarray:
    """dc/dt = -i/2 hz c for every live amplitude, hz the signed z
    field of its slot."""
    e = epoch
    np.abs(c, out=e.w)
    np.square(e.w, out=e.w)
    # <S_2^z> = 0.5 (|p10|^2 - |p01|^2), <S_k^z> = 0.5 |up_k|^2
    np.subtract(e.w_p10, e.w_p01, out=e.w_p10)
    np.multiply(0.5, e.w_sites, out=e.sz_sites)
    # each site's right neighbor first, then its left one
    np.multiply(e.j_right, e.sz_right, out=e.hz_sites)
    np.multiply(e.j_left, e.sz_left, out=e.from_left)
    np.add(e.hz_sites, e.from_left, out=e.hz_sites)
    np.negative(e.hz_site2, out=e.hz_p01)
    d = e.hz * c
    d *= -0.5j
    return d


def _rk4_update(c: np.ndarray, epoch: _Epoch) -> np.ndarray:
    """One RK4 step of every row, then renormalization of the pair and
    each spin."""
    k1 = _derivative(c, epoch)
    k2 = _derivative(c + epoch.half * k1, epoch)
    k3 = _derivative(c + epoch.half * k2, epoch)
    k4 = _derivative(c + epoch.dt * k3, epoch)
    new = c + epoch.sixth * (k1 + 2 * k2 + 2 * k3 + k4)
    # Both norms are np.linalg.norm's.  A whole vector's is a BLAS dot
    # of the real parts plus one of the imaginary parts, here taken row
    # by row through matmul over all four pair amplitudes with the same
    # strides; a spinor's sums (x* x).real, whose down term is 0.
    pair, spins = new[:, :2], new[:, 2:]
    epoch.live_pair[...] = pair
    pair /= np.sqrt(epoch.re @ epoch.re_t + epoch.im @ epoch.im_t)[:, 0]
    spins /= np.sqrt((new.conj() * new).real)[:, 2:]
    return new


def _signed_couplings(couplings: np.ndarray, sign: float) -> np.ndarray:
    """sign * J per bond plus a zero bond past the last site: js[i] =
    sign * J_(i+1, i+2), the coupling of site i+1 to its right neighbor."""
    return sign * np.append(couplings, 0.0)


def _masked_couplings(spec: ChainSpec, bonds: list[tuple[int, int]]) -> np.ndarray:
    masked = np.zeros_like(spec.couplings)
    for i, _ in bonds:
        masked[i - 1] = spec.couplings[i - 1]
    return masked


def _schedule_segments(
    spec: ChainSpec, t: float, schedule: str, n_steps: int, sign_convention: int
) -> list[tuple[float, np.ndarray]]:
    """(duration, signed couplings) drive segments."""
    if schedule == SCHEDULE_CONTINUOUS:
        return [
            (t, _signed_couplings(spec.couplings, sign_convention)),
            (t, _signed_couplings(spec.couplings, -sign_convention)),
        ]
    part = partition_odd_even(spec)
    odd = _signed_couplings(_masked_couplings(spec, part.odd_bonds), -sign_convention)
    even = _signed_couplings(_masked_couplings(spec, part.even_bonds), -sign_convention)
    j = float(np.max(spec.couplings))
    tau = t / n_steps
    pulse_half = afm_duration_for_fm(tau / 2, j, j)
    pulse_full = afm_duration_for_fm(tau, j, j)
    forward = [(pulse_half, odd), (pulse_full, even), (pulse_half, odd)]
    backward = [(tau / 2, odd), (tau, even), (tau / 2, odd)]
    return forward * n_steps + backward * n_steps


def _row_segments(
    spec: ChainSpec, t: float, schedule: str, n_steps: int, sign_convention: int, dt: float
) -> list[tuple[int, float, np.ndarray]]:
    """(steps, step size, signed couplings) of each driven segment of
    one grid point; a zero-duration echo applies no drive at all."""
    if t == 0:
        return []
    segments = []
    for duration, js in _schedule_segments(spec, t, schedule, n_steps, sign_convention):
        if duration > 0:
            steps = max(1, math.ceil(duration / dt))
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
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule '{schedule}'")
    if sign_convention not in (-1, 1):
        raise ValueError(f"sign convention must be +1 or -1, got {sign_convention}")
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    times = [float(t) for t in grid]
    for t in times:
        if not t >= 0:
            raise ValueError(f"leg duration must be nonnegative, got {t}")
    config = integrator or IntegratorConfig()
    spec = uniform_echo_chain(n, j)
    dt = config.dt / j
    plans = [
        _row_segments(spec, t, schedule, n_steps, sign_convention, dt) for t in times
    ]
    c = np.repeat(_initial_amplitudes(n)[None], len(times), axis=0)
    position = [0] * len(times)
    left = [plan[0][0] if plan else 0 for plan in plans]
    active = [r for r, plan in enumerate(plans) if plan]
    while active:
        segments = [plans[r][position[r]] for r in active]
        epoch = _Epoch(
            np.array([segment[2] for segment in segments]),
            np.array([segment[1] for segment in segments]),
        )
        batch = c[active]
        steps = min(left[r] for r in active)
        for _ in range(steps):
            batch = _rk4_update(batch, epoch)
        c[active] = batch
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
