"""Classical mean-field baseline for the echo, in closed form.

The chain state is kept factorized: one two-spin wavefunction for the
entangled head pair and an independent spinor for every later site.
Two-body exchange is replaced by local fields built from neighbor spin
expectations, h_k = sum over neighbors l of J_kl <S_l>, and each factor
turns under its own field, d psi / dt = -i/2 (h . sigma) psi.

From the echo's initial state (singlet head pair, every later spin up)
every field stays along z: the pair's <S_2> has no transverse part and
neither has any later spin.  A z field only turns phases, so p00, p11
and every down amplitude stay 0, every other amplitude keeps its
modulus, and so every field stays constant for as long as a drive
segment lasts.  The flow is then solved exactly on the n amplitudes
that can be nonzero:

  c[0]  p01 of the head pair     c[1]  p10 of the head pair
  c[k]  site k+1's up amplitude, k >= 2

At the end of the drive c_k = c_k(0) exp(-i/2 Phi_k), where Phi_k sums,
over the drive segments, the segment's duration times slot k's z field.
The fields come once from the initial |c|^2: site 2's <S^z> is the
pair's 0.5 (|p10|^2 - |p01|^2) = 0, and each later site's is 0.5.  Slot
0 sits on site 2 as well, but p01's site-2 spin is down, so it turns
with minus site 2's field.  The singlet revival |<singlet|pair>|^2 is
cos^2 of half the relative phase p01 and p10 gain, (Phi_1 - Phi_0) / 4,
taken in real arithmetic.  A row costs O(n) per segment of one drive
step, whatever its duration or pulse count: the steps repeat, so one
step's phases are scaled by their count.  The tests keep the general
(n, 2)-spinor RK4 integrator as the oracle this must match, and check
on it that the zero amplitudes stay exactly 0.

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

import math
from typing import Sequence

import numpy as np

from .chain import ChainSpec, uniform_echo_chain
from .gates import SINGLET, afm_duration_for_fm
from .trotter import SECOND_ORDER, bond_groups

SCHEDULE_CONTINUOUS = "continuous"
SCHEDULE_MIRRORED = "mirrored-pulse"
SCHEDULES = (SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED)


def _initial_amplitudes(n: int) -> np.ndarray:
    """The echo's initial state as its n live amplitudes, all real: the
    singlet head pair's p01 and p10, then each later site's up amplitude."""
    c = np.ones(n)
    c[:2] = SINGLET[1:3].real
    return c


def _slots(c: np.ndarray) -> np.ndarray:
    """Live amplitudes (n,) as a slot array (n, 2): slots 0 and 1 are
    the head pair's rows (p00, p01) and (p10, p11), and slot k >= 2 is
    site k+1's spinor (up, down).  Every other entry is 0."""
    slots = np.zeros((len(c), 2), dtype=complex)
    slots[0, 1] = c[0]
    slots[1:, 0] = c[1:]
    return slots


def _signed_couplings(couplings: np.ndarray, sign: float) -> np.ndarray:
    """sign * J per bond plus a zero bond past the last site: js[i] =
    sign * J_(i+1, i+2), the coupling of site i+1 to its right neighbor."""
    return sign * np.append(couplings, 0.0)


def _schedule_segments(
    spec: ChainSpec, t: float, schedule: str, n_steps: int, sign_convention: int
) -> tuple[int, list[tuple[float, np.ndarray]], list[tuple[float, np.ndarray]]]:
    """The drive as (repeats, forward, backward): the forward step's
    (duration, signed couplings) segments run `repeats` times in order,
    then the backward step's."""
    if schedule == SCHEDULE_CONTINUOUS:
        return (1, [(t, _signed_couplings(spec.couplings, sign_convention))],
                [(t, _signed_couplings(spec.couplings, -sign_convention))])
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
    return n_steps, forward, backward


def _z_fields(js: np.ndarray, spin_z: np.ndarray) -> np.ndarray:
    """The z field each live amplitude turns with under the signed
    couplings js, from <S^z> of sites 1..n and a zero past the last.
    Slot k >= 1 sits on site k+1 and sees its right neighbor, then its
    left one; slot 0 turns with minus slot 1's field."""
    hz = np.empty(len(js))
    hz[1:] = js[1:] * spin_z[2:] + js[:-1] * spin_z[:-2]
    hz[0] = -hz[1]
    return hz


def meanfield_echo_curve(
    n: int,
    j: float,
    grid: Sequence[float],
    schedule: str = SCHEDULE_CONTINUOUS,
    n_steps: int = 1,
    sign_convention: int = -1,
) -> list[tuple[float, np.ndarray]]:
    """Mean-field echo at every leg duration in grid, one row per grid
    point; a row depends only on its own leg duration.  Each row
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
    if not (math.isfinite(j) and j > 0):
        raise ValueError(f"coupling must be finite and positive, got {j}")
    times = [float(t) for t in grid]
    for t in times:
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"leg duration must be finite and nonnegative, got {t}")
    spec = uniform_echo_chain(n, j)
    c = _initial_amplitudes(n)
    # site 1 meets only the zero (1,2) bond, so its <S^z> enters as 0
    spin_z = np.zeros(n + 1)
    spin_z[1] = 0.5 * (c[1] ** 2 - c[0] ** 2)
    spin_z[2:n] = 0.5 * c[2:] ** 2
    results = []
    for t in times:
        phi = np.zeros(n)
        # a zero-duration echo applies no drive at all
        if t > 0:
            repeats, forward, backward = _schedule_segments(
                spec, t, schedule, n_steps, sign_convention
            )
            for duration, js in forward + backward:
                phi += duration * _z_fields(js, spin_z)
            phi *= repeats
        fidelity = math.cos((phi[1] - phi[0]) / 4) ** 2
        if not -1e-12 <= fidelity <= 1 + 1e-12:
            raise ValueError(f"fidelity {fidelity} outside [0, 1]")
        final = np.empty(n, dtype=complex)
        final.real = c * np.cos(-0.5 * phi)
        final.imag = c * np.sin(-0.5 * phi)
        results.append((fidelity, _slots(final)))
    return results
