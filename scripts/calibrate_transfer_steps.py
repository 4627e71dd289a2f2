#!/usr/bin/env python3
"""Regenerate the calibrated step-count table for trotterized transfer.

For each chain length, finds the smallest power-of-two N whose
noise-free three-term plan lands within 1e-4 infidelity of the dense
oracle at t = pi/2.  Paste the printed dict into
echochain.transfer.DEFAULT_TRANSFER_STEPS when couplings or the layer
ordering change.
"""
import math

from echochain.chain import transfer_chain
from echochain.gates import SINGLET
from echochain.statevec import (
    exact_evolve,
    execute_plan,
    pair_projection_fidelity,
    prepare_singlet_head,
)
from echochain.trotter import MODE_DIRECT, three_term_plan

TOLERANCE = 1e-4


def trotter_fidelity(n: int, n_steps: int) -> float:
    spec = transfer_chain(n)
    state = prepare_singlet_head(n)
    execute_plan(three_term_plan(spec, math.pi / 2, n_steps, MODE_DIRECT), state)
    return pair_projection_fidelity(state, (n - 1, n), SINGLET)


def main() -> None:
    table = {}
    for n in range(2, 13):
        spec = transfer_chain(n)
        exact = exact_evolve(spec, prepare_singlet_head(n), math.pi / 2)
        f_exact = pair_projection_fidelity(exact, (n - 1, n), SINGLET)
        n_steps = 1
        while abs(trotter_fidelity(n, n_steps) - f_exact) > TOLERANCE:
            n_steps *= 2
            if n_steps > 1 << 14:
                raise RuntimeError(f"no converging step count for n={n}")
        table[n] = n_steps
        print(f"n={n:2d}  steps={n_steps:4d}  f_exact={f_exact:.12f}")
    print()
    print("DEFAULT_TRANSFER_STEPS =", table)


if __name__ == "__main__":
    main()
