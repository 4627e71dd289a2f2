#!/usr/bin/env python3
"""Regenerate the headline figures at desk scale into `results/` under
the working directory: 14 files from five `echochain` command lines,
run in order.  Stops at the first command that fails and exits with
its code.

    python scripts/run_figures.py
"""
import pathlib
import sys

from echochain.cli import main

OUT = pathlib.Path("results")
HALF_PI = "1.5707963267948966"

FIGURES = [
    # echo fidelity versus time for a 10-spin chain: the quantum protocol
    # (flat at 1) overlaid with the classical mean-field baseline driven by
    # the mirrored pulse train (odd step count, so its revival fails)
    "echo --n 10 --j 1 --t-max 3 --points 60 --steps 1 --with-meanfield"
    " --schedule mirrored-pulse --dt 1e-3"
    " --out {out}/echo_curve.csv --plot {out}/echo_curve.svg",
    # echo gate-noise robustness: 100 trials at each of 8 log-spaced error
    # strengths for n = 5..12, the per-n log-log fits and b(n)
    "robustness --protocol echo --n-range 5:12 --steps 4 --trials 100 --seed 42"
    " --out-trials {out}/echo_trials.csv --out-fits {out}/echo_fits.csv"
    " --plot-fit {out}/echo_loglog.svg --plot-slopes {out}/echo_slopes.svg",
    # transfer fidelity versus time for a 6-spin engineered chain, with the
    # exact engine and with the pulse-simulated ferromagnet
    "transfer --n 6 --engine exact --t-max {half_pi} --points 50"
    " --out {out}/transfer_exact.csv --plot {out}/transfer_exact.svg",
    "transfer --n 6 --engine trotter-simfm --t-max {half_pi} --points 50"
    " --out {out}/transfer_simfm.csv --plot {out}/transfer_simfm.svg",
    # transfer gate-noise robustness, with b(n) split by chain-length
    # parity (even chains hinge on one central bond and degrade differently)
    "robustness --protocol transfer --n-range 4:11 --engine trotter-simfm --trials 100"
    " --seed 42 --out-trials {out}/transfer_trials.csv --out-fits {out}/transfer_fits.csv"
    " --plot-fit {out}/transfer_loglog.svg --plot-slopes {out}/transfer_slopes.svg",
]


def run_figures() -> int:
    OUT.mkdir(exist_ok=True)
    for line in FIGURES:
        code = main(line.format(out=OUT, half_pi=HALF_PI).split())
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run_figures())
