"""Classical mean-field baseline for the echo, in closed form.

The mean field factorizes the chain into the entangled head pair and
one spinor per later site; each factor turns under a local field,
d psi / dt = -i/2 (h . sigma) psi, h_k = sum over neighbors l of
s J_kl <S_l>, with s the sign of the drive segment.

From the echo's initial state (singlet head pair, every later spin up)
every field stays along z and constant, so each factor only gains
phases.  The revival |<singlet|pair>|^2 is cos^2 of a quarter of the
relative phase of the pair's p10 and p01 amplitudes.  Both turn with
site 2's z field, p01 (site 2 down) with its negative.  Bond (1,2) is
off and <S_2> = 0, so that field is s J_23 <S_3^z> = s J_23 / 2 on any
chain of n >= 3 sites: the revival is the same for every n.  Flipping
s on every segment negates every phase exactly, and cos^2 is even, so
both sign conventions give the same revival too; the segments here
give the ferromagnetic leg the Hamiltonian's sign, s = -1.  A row sums
one drive step's segments, duration times field, and scales the sum by
the step count.  The tests check this against an RK4 integrator of the
full n-site spinor flow.

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

from .chain import uniform_echo_chain
from .gates import afm_duration_for_fm
from .trotter import SECOND_ORDER, bond_groups

SCHEDULE_CONTINUOUS = "continuous"
SCHEDULE_MIRRORED = "mirrored-pulse"
SCHEDULES = (SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED)


def meanfield_echo_curve(
    j: float,
    grid: Sequence[float],
    schedule: str = SCHEDULE_CONTINUOUS,
    n_steps: int = 1,
) -> list[float]:
    """The mean-field singlet revival at every leg duration in grid, one
    per grid point; each depends only on its own leg duration."""
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule '{schedule}'")
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    if not (math.isfinite(j) and j > 0):
        raise ValueError(f"coupling must be finite and positive, got {j}")
    times = [float(t) for t in grid]
    for t in times:
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"leg duration must be finite and nonnegative, got {t}")
    j = float(j)
    # bond (2,3)'s group: the one nonzero bond of the shortest echo chain
    (pair_group,) = [group for group, bonds in bond_groups(uniform_echo_chain(3, j)).items()
                     if bonds.size]
    revivals = []
    for t in times:
        phi10 = 0.0
        # a zero-duration echo applies no drive at all; otherwise the
        # drive step's (duration, signed J_23) segments, forward first
        if t > 0:
            if schedule == SCHEDULE_CONTINUOUS:
                repeats, segments = 1, [(t, -j), (t, j)]
            else:
                repeats, tau = n_steps, t / n_steps
                drive = [(divisor, j if group == pair_group else 0.0)
                         for group, divisor in SECOND_ORDER]
                segments = [(afm_duration_for_fm(tau / divisor, j, j), j23)
                            for divisor, j23 in drive]
                segments += [(tau / divisor, j23) for divisor, j23 in drive]
            for duration, j23 in segments:
                phi10 += duration * (0.5 * j23)
            phi10 *= repeats
        # p01 turns with minus p10's field at every segment
        phi01 = -phi10
        revivals.append(math.cos((phi10 - phi01) / 4) ** 2)
    return revivals
