#!/usr/bin/env python3
"""Regenerate the calibrated step-count table for trotterized transfer.

For each chain length, finds the smallest power-of-two N whose
noise-free trotter-direct transfer lands within 1e-4 of the exact
engine's far-end singlet fidelity at t = pi/2.  Paste the printed dict
into echochain.transfer.DEFAULT_TRANSFER_STEPS when couplings or the
layer ordering change.
"""
import math

from echochain.noise import fidelity
from echochain.transfer import ENGINE_TROTTER_DIRECT, TransferConfig

TOLERANCE = 1e-4


def trotter_fidelity(n: int, n_steps: int) -> float:
    """Noise-free trotter-direct fidelity at t = pi/2; NaN when a half
    step is longer than the strongest bond's wrap period."""
    try:
        config = TransferConfig(n=n, n_steps=n_steps, engine=ENGINE_TROTTER_DIRECT)
    except ValueError:
        return math.nan
    return fidelity(config)


def main() -> None:
    table = {}
    for n in range(2, 13):
        f_exact = fidelity(TransferConfig(n=n))
        n_steps = 1
        while not abs(trotter_fidelity(n, n_steps) - f_exact) <= TOLERANCE:
            n_steps *= 2
            if n_steps > 1 << 14:
                raise RuntimeError(f"no converging step count for n={n}")
        table[n] = n_steps
        print(f"n={n:2d}  steps={n_steps:4d}  f_exact={f_exact:.12f}")
    print()
    print("DEFAULT_TRANSFER_STEPS =", table)


if __name__ == "__main__":
    main()
