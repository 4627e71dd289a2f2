"""Second-order Trotter plans for chain evolution, as arrays.

A plan holds the layers of ONE Trotter step, each with the angles of
its gates for every row of a batch, and its blocks: the rows of each
chain with the chain's repeat count N.  `batch_plan` builds every
plan.  A plan of one chain has one block; a plan of several lays
chains of several lengths out on the longest one, each chain's gates
leading every layer and the gates past them given angle 0 on its rows.

Two-term plans use the palindromic split SECOND_ORDER (odd/2, even,
odd/2); three-term plans (for chains with fields) use THREE_TERM
(odd/2, even/2, field, even/2, odd/2).  A bond's group is the parity
of its first site, counted from 1 (`bond_groups`), so bonds within a
group share no site: the gates of a layer commute and may execute in
any order.  These two splits and this grouping are the one statement
of a run's pulse sequence; the mean-field mirrored-pulse train reads
them too.

A layer's sites are built once per plan: a slice where they are
evenly spaced (stride 2 for bonds), so `c[:, sites]` is a view of a
batch, or an index array where a chain's nonzero bonds or fields are
unevenly spaced; `c[:, sites]` reads either.  A layer's angles are its
own `(rows, width)` array, built once per batch from tau = times / N,
one row per row of the batch.  Runs execute plans with
`echochain.sector.evolve`; the dense test oracle replays the same
arrays of a one-chain plan one row at a time with
`echochain.statevec.execute_plan`.

Modes:
  direct        exchange angle = sign * prefactor * J * tau, the
                literal sub-evolution of the chain Hamiltonian.
  simulated-fm  every ferromagnetic sub-evolution is replaced by an
                antiferromagnetic pulse of the mapped duration; each
                bond is mapped independently through its own strength,
                so every angle is the nonnegative 2*pi - g*tau.

Both modes keep every exchange slice within one wrap period of its
bond, checked once per chain against its strongest bond of each layer:
the simulated ferromagnet cannot map a longer slice, and a direct
slice that long is far outside the Trotter product's accuracy.
`check_plan` makes every check of a plan, this budget included,
without building its angles, so a protocol config can check its
longest time when it is built and build only the plans it runs;
`batch_plan` reads the layout it returns.
A check that blames the time raises `TimeBudgetError`, and only after
every check that does not, so that one pass tells a bad time apart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import SIGN_AFM, ChainSpec
from .gates import DELTA_EPS, fits_wrap_period, wrap_period

MODE_DIRECT = "direct"
MODE_SIMULATED_FM = "simulated-fm"

# One Trotter step as (bond group or "field", divisor of tau) per layer.
SECOND_ORDER = (("odd", 2), ("even", 1), ("odd", 2))
THREE_TERM = (("odd", 2), ("even", 2), ("field", 1), ("even", 2), ("odd", 2))


class TimeBudgetError(ValueError):
    """A run's time is at fault: not finite, negative, past the wrap
    budget of its steps or the time its config checked, or so long that
    an exact evolution's phase t*w overflows."""


@dataclass(frozen=True)
class Layer:
    """Gates of one layer, 0-based sites.  An exchange layer turns the
    bonds (left[k], right[k]); a field layer (right is None) turns the
    sigma^z phase of the sites `left`.  Each is a slice or an index
    array, as the module docstring says."""

    left: slice | np.ndarray
    right: slice | np.ndarray | None
    # (rows, width): row r's angle of every gate of the layer
    angles: np.ndarray

    @property
    def width(self) -> int:  # gates in the layer
        return self.angles.shape[1]


@dataclass(frozen=True)
class Block:
    """The rows of one chain in a plan: from `start` up to the next
    block's start, the last block up to the end of the batch.  They run
    `steps` Trotter steps of their chain's gates, the first widths[k]
    gates of layer k; the layer's other gates are pads of angle 0."""

    start: int
    steps: int
    widths: tuple[int, ...]  # one per layer


@dataclass(frozen=True)
class TrotterPlan:
    num_sites: int  # the longest chain's
    layers: tuple[Layer, ...]  # the nonempty layers of one step, in order
    blocks: tuple[Block, ...]  # by descending step count


def _sites(index: np.ndarray) -> slice | np.ndarray:
    """Evenly spaced sites as a slice, so indexing gives a view."""
    sites = index.tolist()
    stride = sites[1] - sites[0] if len(sites) > 1 else 1
    if sites != list(range(sites[0], sites[-1] + 1, stride)):
        return index
    return slice(sites[0], sites[-1] + 1, stride)


def bond_groups(spec: ChainSpec) -> dict[str, np.ndarray]:
    """The 0-based first sites of the chain's nonzero bonds by group,
    "odd" and "even": the parity of a bond's first site, counted from 1."""
    bonds = np.flatnonzero(spec.couplings)
    odd = bonds % 2 == 0
    return {"odd": bonds[odd], "even": bonds[~odd]}


def check_plan(split, spec: ChainSpec, times, n_steps: int, mode: str):
    """Make every check of a one-chain plan of `split` without building
    its angles: mode, step count, each layer's strongest bond, then the
    times and the wrap budget (TimeBudgetError).  Returns the times as
    an array and (group, divisor, first sites, strengths) per layer of
    the split, empty layers included."""
    if mode not in (MODE_DIRECT, MODE_SIMULATED_FM):
        raise ValueError(f"unknown mode '{mode}'")
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    groups = {group: (index, spec.exchange_prefactor * spec.couplings[index])
              for group, index in bond_groups(spec).items()}
    index = np.flatnonzero(spec.fields)
    groups["field"] = (index, spec.fields[index])
    strongest = {group: float(g.max()) for group, (_, g) in groups.items()
                 if group != "field" and len(g)}
    budget = [(divisor, strongest[group]) for group, divisor in split if group in strongest]
    # a bond too weak to have a wrap period is no fault of the time
    longest = min((n_steps * divisor * wrap_period(g) for divisor, g in budget), default=0.0)
    times = np.asarray(times, dtype=float).reshape(-1)
    bad = times[~(np.isfinite(times) & (times >= 0))]
    if len(bad):
        raise TimeBudgetError(f"invalid evolution time {float(bad[0])}")
    t_max = float(np.max(times, initial=0.0))
    if not all(fits_wrap_period(t_max / n_steps / divisor, g) for divisor, g in budget):
        raise TimeBudgetError(
            f"time {t_max!r} is past the wrap budget {longest!r} of {n_steps} steps "
            "(each slice within one wrap period of its layer's strongest bond); "
            "use more steps"
        )
    return times, [(group, divisor, *groups[group]) for group, divisor in split]


def batch_plan(
    split, chains: Sequence[tuple[ChainSpec, Sequence[float], int, int]], mode: str
) -> TrotterPlan:
    """One plan for a batch of chains: block b runs chains[b] = (spec,
    times, n_steps, rows) on `rows` rows, with one time per row or one
    for all of them, and the blocks come by descending step count.  Each
    layer holds one angle row per row.

    Each layer holds the gates of its kind of every chain, laid out on
    the longest one, and a chain's own gates must lead the layer.  Its
    rows turn the layer's other gates (pads) by exactly 0: a pad bond
    must have a site past the chain's end, where the row's amplitude is
    0, so it leaves the row unchanged bit for bit; it takes no gate
    error.
    """
    layouts = [check_plan(split, spec, times, n_steps, mode) for spec, times, n_steps, _ in chains]
    steps = [n_steps for _, _, n_steps, _ in chains]
    if steps != sorted(steps, reverse=True):
        raise ValueError("a plan's chains must come by descending step count")
    starts = np.cumsum([0] + [rows for *_, rows in chains]).tolist()
    if any(len(times) not in (1, rows) for (times, _), (*_, rows) in zip(layouts, chains)):
        raise ValueError("a chain needs one time per row, or one for all")
    # every chain's gates of a layer are the first of the longest chain's
    firsts = [max((layout[k][2] for _, layout in layouts), key=len) for k in range(len(split))]
    taus = [(times / n_steps)[:, None] for (times, _), (_, _, n_steps, _) in zip(layouts, chains)]
    widths: list[list[int]] = [[] for _ in chains]
    layers: list[Layer] = []
    for k, first in enumerate(firsts):
        if not len(first):
            continue
        group, divisor = split[k]
        angles = np.zeros((starts[-1], len(first)))
        for b, ((spec, _, n_steps, _), (times, layout)) in enumerate(zip(chains, layouts)):
            index, g = layout[k][2:]
            width = len(index)
            # the chain's gates lead the layer, and its first pad bond
            # reaches past the chain's end (a pad field may sit anywhere)
            leads = index is first or np.array_equal(index, first[:width])
            if not leads or group != "field" and width < len(first) and \
                    first[width] < spec.n - 1:
                raise ValueError("a chain's gates must lead each layer, and its pad bonds "
                                 "must reach past its end")
            tau = taus[b]
            span = tau / 2 if divisor == 2 else tau
            if group == "field":
                theta = g * span
            elif mode == MODE_DIRECT:
                sign = 1.0 if spec.sign == SIGN_AFM else -1.0
                theta = sign * g * span
            else:
                # g * gates.afm_duration_for_fm(span, g, g), same operations:
                # the AFM pulse at the bond's own strength, so the executed
                # angle g * t' = 2*pi - g*span is what the hardware applies.
                period = 2.0 * math.pi / (g * abs(DELTA_EPS))
                theta = g * np.maximum((g / g) * (period - span), 0.0)
            angles[starts[b]:starts[b + 1], :width] = theta
            widths[b].append(width)
        left = _sites(first)
        if group == "field":
            layers.append(Layer(left, None, angles))
        else:
            right = first + 1 if isinstance(left, np.ndarray) else \
                slice(left.start + 1, left.stop + 1, left.step)
            layers.append(Layer(left, right, angles))
    return TrotterPlan(
        num_sites=max(spec.n for spec, *_ in chains), layers=tuple(layers),
        blocks=tuple(Block(start, n_steps, tuple(own))
                     for start, n_steps, own in zip(starts, steps, widths)),
    )

