"""Classical mean-field baseline for the echo.

The chain state is kept factorized: one two-spin wavefunction for the
entangled head pair and an independent spinor for every later site.
Two-body exchange is replaced by time-dependent local fields built
from neighbor spin expectations, and the coupled equations are
integrated with classical fourth-order Runge-Kutta (fields recomputed
at every internal stage).  A curve is one batched pass: every grid
point is a row of a (rows, n, 2) spinor array, and one RK4 kernel
advances all rows, each with its own drive segments and step size.
Each point comes back as a plain (singlet revival, final slots) pair.

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


def _initial_slots(n: int) -> np.ndarray:
    """The echo's initial state as n spinors, (n, 2): slots 0 and 1 are
    the singlet head pair's rows (p00, p01) and (p10, p11), each acted
    on at site 2's index, and slot k >= 2 is site k+1, spin up."""
    slots = np.zeros((n, 2), dtype=complex)
    slots[:2] = SINGLET.reshape(2, 2)
    slots[2:, 0] = 1.0
    return slots


def _site_fields(psi: np.ndarray, js: np.ndarray) -> np.ndarray:
    """Mean field on sites 2..n, (rows, n-1, 3), for a batch of slot
    arrays psi (rows, n, 2).  js (rows, n) holds each row's signed
    couplings, js[:, i] = sign * J_(i+1, i+2), with a zero bond past
    the last site."""
    rows, n, _ = psi.shape
    z = (psi[..., 0].conj() * psi[..., 1]).view(float).reshape(rows, n, 2)
    w = np.abs(psi) ** 2
    # <S> per site, padded with a zero spin for site 1, which couples to
    # nothing (the (1,2) bond is off), and one past the last site.  The
    # pair's <S_2> sums its two rows, in the order of
    # rho2 = p00 p01* + p10 p11* and 0.5 (w00 + w10 - w01 - w11).
    s_exp = np.zeros((rows, n + 1, 3))
    s_exp[:, 1, :2] = z[:, 0] + z[:, 1]
    s_exp[:, 1, 2] = 0.5 * (w[:, 0, 0] + w[:, 1, 0] - w[:, 0, 1] - w[:, 1, 1])
    s_exp[:, 2:n, :2] = z[:, 2:]
    s_exp[:, 2:n, 2] = 0.5 * (w[:, 2:, 0] - w[:, 2:, 1])
    j = js[:, :, None]
    # each site's right neighbor first, then its left one
    return j[:, 1:] * s_exp[:, 2:] + j[:, :-1] * s_exp[:, :-2]


_PLUS_MINUS = np.array([1.0, -1.0])


def _derivative(psi: np.ndarray, js: np.ndarray) -> np.ndarray:
    """d psi / dt = -i/2 (h . sigma) psi for every slot; both pair rows
    see site 2's field.  A slot (a, b) gets -i/2 times
    (hz a + (hx - i hy) b, (hx + i hy) a - hz b)."""
    h = _site_fields(psi, js)
    h = np.concatenate((h[:, :1], h), axis=1)
    hz = h[..., 2:] * _PLUS_MINUS
    transverse = h[..., :1] - 1j * (h[..., 1:2] * _PLUS_MINUS)
    d = hz * psi + transverse * psi[..., ::-1]
    d *= -0.5j
    return d


def _rk4_update(psi: np.ndarray, js: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """One RK4 step of every row, each with its own signed couplings and
    step dt (rows,), then renormalization of the pair and each spinor."""
    dt = dt[:, None, None]
    half = 0.5 * dt
    k1 = _derivative(psi, js)
    k2 = _derivative(psi + half * k1, js)
    k3 = _derivative(psi + half * k2, js)
    k4 = _derivative(psi + dt * k3, js)
    new = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    # Both norms are np.linalg.norm's.  A whole vector's is a BLAS dot
    # of the real parts plus one of the imaginary parts, here taken row
    # by row through matmul with the same strides; a norm along an axis
    # sums (x* x).real.
    pair = new[:, :2].reshape(-1, 1, 4)
    re, im = pair.real, pair.imag
    new[:, :2] /= np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))
    spins = new[:, 2:]
    spins /= np.sqrt(np.add.reduce((spins.conj() * spins).real, axis=2, keepdims=True))
    return new


def _signed_couplings(couplings: np.ndarray, sign: float) -> np.ndarray:
    """sign * J per bond plus a zero bond past the last site, the js of
    `_site_fields`."""
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
    out as `_initial_slots` lays out the initial one.

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
    psi = np.repeat(_initial_slots(n)[None], len(times), axis=0)
    position = [0] * len(times)
    left = [plan[0][0] if plan else 0 for plan in plans]
    active = [r for r, plan in enumerate(plans) if plan]
    while active:
        segments = [plans[r][position[r]] for r in active]
        step = np.array([segment[1] for segment in segments])
        js = np.array([segment[2] for segment in segments])
        batch = psi[active]
        epoch = min(left[r] for r in active)
        for _ in range(epoch):
            batch = _rk4_update(batch, js, step)
        psi[active] = batch
        for r in active:
            left[r] -= epoch
            if left[r] == 0:
                position[r] += 1
                if position[r] < len(plans[r]):
                    left[r] = plans[r][position[r]][0]
        active = [r for r in active if left[r] > 0]
    results = []
    for slots in psi:
        fidelity = float(abs(np.vdot(SINGLET, slots[:2].reshape(4))) ** 2)
        if not -1e-12 <= fidelity <= 1 + 1e-12:
            raise ValueError(f"fidelity {fidelity} outside [0, 1]")
        results.append((fidelity, slots))
    return results
