"""Second-order Trotter plans for chain evolution, as arrays.

A plan holds the layers of ONE Trotter step, the angles of every gate
of that step for every row of a batch, and the repeat count N.
Two-term plans use the palindromic split (odd/2, even, odd/2);
three-term plans (for chains with fields) use (odd/2, even/2, field,
even/2, odd/2).  Bonds within a layer share no site, so the gates of a
layer commute and may execute in any order.

A layer's sites are built once per chain: a slice where they are
evenly spaced (stride 2 for bonds), so `c[:, sites]` is a view of a
batch, or an index array where a chain's nonzero bonds or fields are
unevenly spaced; `c[:, sites]` reads either.  The angles are one
`(rows, gates)` array built once per batch from tau = times / N, one
row per time.  Runs execute plans with `echochain.sector.evolve`; the
dense test oracle replays the same arrays one row at a time with
`echochain.statevec.execute_plan`.

Modes:
  direct        exchange angle = sign * prefactor * J * tau, the
                literal sub-evolution of the chain Hamiltonian.
  simulated-fm  every ferromagnetic sub-evolution is replaced by an
                antiferromagnetic pulse of the mapped duration; each
                bond is mapped independently through its own strength,
                so every angle is the nonnegative 2*pi - g*tau.

Both modes keep every exchange slice within one wrap period of its
bond, checked once per batch against the strongest bond of each layer:
the simulated ferromagnet cannot map a longer slice, and a direct
slice that long is far outside the Trotter product's accuracy.
`check_second_order` and `check_three_term` make every check of a plan,
this budget included, without building its angles, so a protocol
config can check its longest time when it is built and build only the
plans it runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import SIGN_AFM, ChainSpec, partition_odd_even
from .gates import DELTA_EPS, fits_wrap_period, wrap_period

MODE_DIRECT = "direct"
MODE_SIMULATED_FM = "simulated-fm"

# One Trotter step as (bond group or "field", divisor of tau) per layer.
_SECOND_ORDER = (("odd", 2), ("even", 1), ("odd", 2))
_THREE_TERM = (("odd", 2), ("even", 2), ("field", 1), ("even", 2), ("odd", 2))


@dataclass(frozen=True)
class Layer:
    """Gates of one layer, 0-based sites.  An exchange layer turns the
    bonds (left[k], right[k]); a field layer (right is None) turns the
    sigma^z phase of the sites `left`.  Each is a slice or an index
    array, as the module docstring says."""

    left: slice | np.ndarray
    right: slice | np.ndarray | None
    width: int  # gates in the layer


@dataclass(frozen=True)
class TrotterPlan:
    num_sites: int
    layers: tuple[Layer, ...]  # the nonempty layers of one step, in order
    # (rows, gates): row r's angle of every gate of one step, layer by
    # layer; the same step runs `steps` times.
    angles: np.ndarray
    steps: int


def _sites(index: np.ndarray) -> slice | np.ndarray:
    """Evenly spaced sites as a slice, so indexing gives a view."""
    stride = int(index[1] - index[0]) if len(index) > 1 else 1
    sites = slice(int(index[0]), int(index[-1]) + 1, stride)
    return sites if np.array_equal(np.arange(sites.stop)[sites], index) else index


def _layout(spec: ChainSpec, times, n_steps: int, mode: str, split):
    """The times as an array and (group, divisor, first sites,
    strengths) per nonempty layer, after every check a plan makes:
    mode, step count, times and the wrap budget."""
    if mode not in (MODE_DIRECT, MODE_SIMULATED_FM):
        raise ValueError(f"unknown mode '{mode}'")
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    times = np.asarray(times, dtype=float).reshape(-1)
    bad = times[~(np.isfinite(times) & (times >= 0))]
    if len(bad):
        raise ValueError(f"invalid evolution time {float(bad[0])}")
    part = partition_odd_even(spec)
    bonds = {"odd": part.odd_bonds, "even": part.even_bonds}
    layout = []
    for group, divisor in split:
        if group == "field":
            index = np.flatnonzero(spec.fields)
            strength = spec.fields[index]
        else:
            index = np.array([i for i, _ in bonds[group]], dtype=np.intp) - 1
            strength = spec.exchange_prefactor * spec.couplings[index]
        if len(index):
            layout.append((group, divisor, index, strength))
    budget = [(divisor, float(np.max(g))) for group, divisor, _, g in layout if group != "field"]
    t_max = float(np.max(times, initial=0.0))
    if not all(fits_wrap_period(t_max / n_steps / divisor, g) for divisor, g in budget):
        longest = min(n_steps * divisor * wrap_period(g) for divisor, g in budget)
        raise ValueError(
            f"time {t_max!r} is past the wrap budget {longest!r} of {n_steps} steps "
            "(each slice within one wrap period of its layer's strongest bond); "
            "use more steps"
        )
    return times, layout


def _plan(spec: ChainSpec, times, n_steps: int, mode: str, split) -> TrotterPlan:
    times, layout = _layout(spec, times, n_steps, mode, split)
    tau = (times / n_steps)[:, None]
    sign = 1.0 if spec.sign == SIGN_AFM else -1.0
    layers: list[Layer] = []
    columns: list[np.ndarray] = [np.empty((len(times), 0))]
    for group, divisor, index, g in layout:
        span = tau / 2 if divisor == 2 else tau
        if group == "field":
            layers.append(Layer(_sites(index), None, len(index)))
            columns.append(g * span)
            continue
        if mode == MODE_DIRECT:
            theta = sign * g * span
        else:
            # g * gates.afm_duration_for_fm(span, g, g), same operations:
            # the AFM pulse at the bond's own strength, so the executed
            # angle g * t' = 2*pi - g*span is what the hardware applies.
            period = 2.0 * math.pi / (g * abs(DELTA_EPS))
            theta = g * np.maximum((g / g) * (period - span), 0.0)
        layers.append(Layer(_sites(index), _sites(index + 1), len(index)))
        columns.append(theta)
    return TrotterPlan(
        num_sites=spec.n, layers=tuple(layers), angles=np.concatenate(columns, axis=1),
        steps=n_steps,
    )


def second_order_plan(
    spec: ChainSpec, times, n_steps: int, mode: str = MODE_DIRECT
) -> TrotterPlan:
    """Palindromic two-term plan: (odd/2, even, odd/2) x N, one angle
    row per time (`times` is one time or a sequence)."""
    return _plan(spec, times, n_steps, mode, _SECOND_ORDER)


def three_term_plan(
    spec: ChainSpec, times, n_steps: int, mode: str = MODE_DIRECT
) -> TrotterPlan:
    """Palindromic plan for chains with fields:
    (odd/2, even/2, field, even/2, odd/2) x N, one angle row per time."""
    return _plan(spec, times, n_steps, mode, _THREE_TERM)


def check_second_order(spec: ChainSpec, times, n_steps: int, mode: str) -> None:
    """Raise where `second_order_plan` with these arguments would,
    without building its angles."""
    _layout(spec, times, n_steps, mode, _SECOND_ORDER)


def check_three_term(spec: ChainSpec, times, n_steps: int, mode: str) -> None:
    """Raise where `three_term_plan` with these arguments would,
    without building its angles."""
    _layout(spec, times, n_steps, mode, _THREE_TERM)
