"""Second-order Trotter plans for chain evolution.

A plan holds the layer sequence of ONE Trotter step plus the repeat
count N.  Two-term plans use the palindromic split (odd/2, even,
odd/2); three-term plans (for chains with fields) use (odd/2, even/2,
field, even/2, odd/2).  Bonds within a layer share no site, so the
gates of a layer commute and may execute in any order.  Runs execute
plans with `echochain.sector.evolve`; the dense test oracle replays
them gate by gate with `echochain.statevec.execute_plan`.

Modes:
  direct        exchange angle = sign * prefactor * J * tau, the
                literal sub-evolution of the chain Hamiltonian.
  simulated-fm  every ferromagnetic sub-evolution is replaced by an
                antiferromagnetic pulse of the mapped duration; each
                bond is mapped independently through its own strength,
                so every angle is the nonnegative 2*pi - g*tau.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .chain import SIGN_AFM, ChainSpec, partition_odd_even
from .gates import afm_duration_for_fm, field_phase

MODE_DIRECT = "direct"
MODE_SIMULATED_FM = "simulated-fm"


@dataclass
class ExchangeLayer:
    """Disjoint bonds with their exchange angles."""

    gates: list[tuple[tuple[int, int], float]]


@dataclass
class FieldLayer:
    """Per-site sigma^z phases."""

    phases: list[tuple[int, float]]


Layer = ExchangeLayer | FieldLayer


@dataclass
class TrotterPlan:
    num_sites: int
    layers: list[Layer]  # one Trotter step; executed `steps` times
    steps: int


def _exchange_layer(spec: ChainSpec, bonds, tau: float, mode: str) -> ExchangeLayer:
    gates = []
    sign = 1.0 if spec.sign == SIGN_AFM else -1.0
    for i, j in bonds:
        g = spec.exchange_prefactor * spec.couplings[i - 1]
        if mode == MODE_DIRECT:
            theta = sign * g * tau
        elif mode == MODE_SIMULATED_FM:
            # AFM pulse at the bond's own strength; the executed angle
            # g * t' = 2*pi - g*tau is what the hardware applies.
            theta = g * afm_duration_for_fm(tau, g, g)
        else:
            raise ValueError(f"unknown mode '{mode}'")
        gates.append(((i, j), theta))
    return ExchangeLayer(gates)


def _field_layer(spec: ChainSpec, tau: float) -> FieldLayer:
    phases = [
        (site, field_phase(spec.fields[site - 1], tau))
        for site in range(1, spec.n + 1)
        if spec.fields[site - 1] != 0.0
    ]
    return FieldLayer(phases)


def _validate(spec: ChainSpec, t: float, n_steps: int) -> float:
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    if t < 0 or not math.isfinite(t):
        raise ValueError(f"invalid evolution time {t}")
    return t / n_steps


def second_order_plan(
    spec: ChainSpec, t: float, n_steps: int, mode: str = MODE_DIRECT
) -> TrotterPlan:
    """Palindromic two-term plan: (odd/2, even, odd/2) x N."""
    tau = _validate(spec, t, n_steps)
    part = partition_odd_even(spec)
    half = _exchange_layer(spec, part.odd_bonds, tau / 2, mode)
    layers: list[Layer] = [
        half,
        _exchange_layer(spec, part.even_bonds, tau, mode),
        ExchangeLayer(list(half.gates)),
    ]
    return TrotterPlan(num_sites=spec.n, layers=layers, steps=n_steps)


def three_term_plan(
    spec: ChainSpec, t: float, n_steps: int, mode: str = MODE_DIRECT
) -> TrotterPlan:
    """Palindromic plan for chains with fields:
    (odd/2, even/2, field, even/2, odd/2) x N."""
    tau = _validate(spec, t, n_steps)
    part = partition_odd_even(spec)
    odd_half = _exchange_layer(spec, part.odd_bonds, tau / 2, mode)
    even_half = _exchange_layer(spec, part.even_bonds, tau / 2, mode)
    layers: list[Layer] = [
        odd_half,
        even_half,
        _field_layer(spec, tau),
        ExchangeLayer(list(even_half.gates)),
        ExchangeLayer(list(odd_half.gates)),
    ]
    return TrotterPlan(num_sites=spec.n, layers=layers, steps=n_steps)

