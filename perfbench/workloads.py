"""The benchmark's workloads and the checks of their outputs.

A workload is one `echochain` command line plus the check its output
must pass.  Checks compare the CSVs against `oracle`, which shares no
code with the program, so they hold for any seed.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

REPLAY_TOL = 1e-9      # sweep infidelity vs one-magnon replay
EXACT_TOL = 1e-9       # exact-curve f_tr vs n x n eigendecomposition
ECHO_REVIVAL_TOL = 1e-9
MEANFIELD_TOL = 1e-8   # RK4 at dt = 1e-3 against cos^2(N pi / 2)
COMPLEMENT_TOL = 1e-12  # infidelity column vs 1 - fidelity column
# Echo exponents sit near the quadratic small-error value 2.  Over 4800
# seeded fits at 10 trials per point they had mean 1.94, standard
# deviation 0.07 and range [1.65, 2.18]; the band is 7 deviations wide
# on each side, so no seed should leave it.
ECHO_B_BAND = (1.5, 2.5)
# The calibrated transfer step table promises this noise-free error.
TRANSFER_TROTTER_TOL = 1e-4
V_GRID = np.geomspace(1e-3, 1e-1, 8)


class CheckFailure(Exception):
    """An output differs from the independent computation."""


def _read(path: Path, header: list[str]) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != header:
            raise CheckFailure(f"{path.name}: header {reader.fieldnames}, expected {header}")
        return list(reader)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _column(rows: list[dict[str, str]], key: str) -> np.ndarray:
    return np.array([float(r[key]) for r in rows])


def _check_complement(f: np.ndarray, i: np.ndarray, what: str) -> None:
    gap = float(np.max(np.abs(1.0 - f - i)))
    _require(gap <= COMPLEMENT_TOL, f"{what}: infidelity differs from 1 - fidelity by {gap:.2e}")


# ---------------------------------------------------------------- sweeps

def check_sweep(
    out: Path, protocol: str, ns: list[int], trials: int, seed: int, steps: int | None
) -> None:
    """Trials CSV against a replay of every trial, fits CSV against an
    independent least-squares fit of the trial means."""
    rows = _read(out / "trials.csv",
                 ["protocol", "n", "t", "steps", "v", "trial", "seed", "infidelity"])
    _require(len(rows) == len(ns) * len(V_GRID) * trials,
             f"trials.csv has {len(rows)} rows, expected {len(ns) * len(V_GRID) * trials}")
    fits = _read(out / "fits.csv", ["protocol", "n", "parity", "a", "b", "r_squared", "points"])
    _require([int(r["n"]) for r in fits] == ns, f"fits.csv covers n={[r['n'] for r in fits]}")
    replay = oracle.replay_echo if protocol == "echo" else oracle.replay_transfer
    per_n = len(V_GRID) * trials
    for block, (n, fit) in enumerate(zip(ns, fits)):
        part = rows[block * per_n:(block + 1) * per_n]
        where = f"{protocol} n={n}"
        labels = [(r["protocol"], int(r["n"]), int(r["trial"]), int(r["seed"])) for r in part]
        _require(labels == [(protocol, n, k, seed) for _ in V_GRID for k in range(trials)],
                 f"{where}: rows out of order or mislabelled")
        v = _column(part, "v")
        _require(np.allclose(v, np.repeat(V_GRID, trials), rtol=1e-12, atol=0),
                 f"{where}: v column is not the default grid")
        t = _column(part, "t")
        _require(np.all(t == t[0]) and abs(t[0] - math.pi / 2) < 1e-15, f"{where}: t is not pi/2")
        n_steps = {int(r["steps"]) for r in part}
        _require(len(n_steps) == 1, f"{where}: several step counts {sorted(n_steps)}")
        n_steps = n_steps.pop()
        if steps is not None:
            _require(n_steps == steps, f"{where}: steps {n_steps}, expected {steps}")
        else:
            clean = float(replay(n, t[0], n_steps, np.zeros(1), [(0,)])[0])
            _require(clean <= TRANSFER_TROTTER_TOL,
                     f"{where}: {n_steps} steps leave a noise-free error of {clean:.2e}")
        infidelity = _column(part, "infidelity")
        _require(bool(np.all((infidelity >= 0.0) & (infidelity <= 1.0))),
                 f"{where}: infidelity outside [0, 1]")
        seeds = [(seed, n, vi, k) for vi in range(len(V_GRID)) for k in range(trials)]
        gap = float(np.max(np.abs(replay(n, t[0], n_steps, v, seeds) - infidelity)))
        _require(gap <= REPLAY_TOL, f"{where}: replay differs by {gap:.2e}")
        _check_fit(fit, protocol, n, infidelity.reshape(len(V_GRID), trials).mean(axis=1))


def _check_fit(fit: dict[str, str], protocol: str, n: int, means: np.ndarray) -> None:
    where = f"{protocol} n={n} fit"
    parity = ("even" if n % 2 == 0 else "odd") if protocol == "transfer" else ""
    _require(fit["protocol"] == protocol and fit["parity"] == parity, f"{where}: mislabelled")
    keep = means > 0
    _require(int(fit["points"]) == int(keep.sum()), f"{where}: points {fit['points']}")
    a, b, r2 = oracle.ols(np.log(V_GRID[keep]), np.log(means[keep]))
    for key, value in (("a", a), ("b", b), ("r_squared", r2)):
        _require(abs(float(fit[key]) - value) <= 1e-9, f"{where}: {key}={fit[key]}, expected {value}")
    if protocol == "echo":
        lo, hi = ECHO_B_BAND
        _require(lo <= b <= hi, f"{where}: exponent {b:.3f} outside [{lo}, {hi}]")


# ---------------------------------------------------------------- curves

def check_exact_curve(out: Path, n: int, points: int) -> None:
    rows = _read(out / "curve.csv", ["n", "t", "steps", "engine", "v", "seed", "f_tr", "i_tr"])
    _require(len(rows) == points, f"curve.csv has {len(rows)} rows, expected {points}")
    _require(all(r["n"] == str(n) and r["engine"] == "exact" for r in rows), "mislabelled rows")
    t, f = _column(rows, "t"), _column(rows, "f_tr")
    _require(np.allclose(t, np.linspace(0.0, math.pi / 2, points), rtol=0, atol=1e-15),
             "t is not the grid [0, pi/2]")
    gap = float(np.max(np.abs(f - oracle.exact_transfer_fidelity(n, t))))
    _require(gap <= EXACT_TOL, f"f_tr differs from the n x n oracle by {gap:.2e}")
    _require(abs(f[0]) <= 1e-12, f"f_tr(0) = {f[0]}")
    _require(f[-1] >= 1.0 - 1e-9, f"f_tr(pi/2) = {f[-1]}")
    _check_complement(f, _column(rows, "i_tr"), "curve")


def check_meanfield_curve(out: Path, t_max: float, points: int, steps: int) -> None:
    rows = _read(out / "curve.csv", [
        "series", "n", "j", "t", "steps", "mode", "schedule",
        "sign_convention", "dt", "v", "seed", "f_ec", "i_ec",
    ])
    _require(len(rows) == 2 * points, f"curve.csv has {len(rows)} rows, expected {2 * points}")
    grid = np.linspace(0.0, t_max, points)
    for series, tol in (("quantum", ECHO_REVIVAL_TOL), ("meanfield", MEANFIELD_TOL)):
        part = [r for r in rows if r["series"] == series]
        _require(len(part) == points, f"{len(part)} {series} rows, expected {points}")
        t, f = _column(part, "t"), _column(part, "f_ec")
        _require(np.allclose(t, grid, rtol=0, atol=1e-15), f"{series}: t is not the grid")
        expected = [1.0 if series == "quantum" else oracle.meanfield_revival(x, steps) for x in t]
        gap = float(np.max(np.abs(f - expected)))
        _require(gap <= tol, f"{series}: f_ec differs from the closed form by {gap:.2e}")
        _check_complement(f, _column(part, "i_ec"), series)


# ------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    """One command line, its units of work, and its output check.

    `args(seed)` is the argument list after `echochain`; outputs land in
    the command's working directory.  `units` counts trials on sweeps
    and curve points on curves.
    """

    name: str
    args: Callable[[int], list[str]]
    units: int
    check: Callable[[Path, int], None]


def echo_sweep(ns: range = range(5, 13), trials: int = 10, steps: int = 4) -> Workload:
    def args(seed: int) -> list[str]:
        return ["robustness", "--protocol", "echo", "--n-range", f"{ns[0]}:{ns[-1]}",
                "--steps", str(steps), "--trials", str(trials), "--seed", str(seed),
                "--out-trials", "trials.csv", "--out-fits", "fits.csv"]
    return Workload(
        "echo-sweep", args, len(ns) * len(V_GRID) * trials,
        lambda out, seed: check_sweep(out, "echo", list(ns), trials, seed, steps),
    )


def transfer_sweep(ns: range = range(4, 12), trials: int = 2) -> Workload:
    def args(seed: int) -> list[str]:
        return ["robustness", "--protocol", "transfer", "--engine", "trotter-simfm",
                "--n-range", f"{ns[0]}:{ns[-1]}", "--trials", str(trials),
                "--seed", str(seed), "--out-trials", "trials.csv", "--out-fits", "fits.csv"]
    return Workload(
        "transfer-sweep", args, len(ns) * len(V_GRID) * trials,
        lambda out, seed: check_sweep(out, "transfer", list(ns), trials, seed, None),
    )


def exact_curve(n: int = 11, points: int = 50) -> Workload:
    def args(seed: int) -> list[str]:
        return ["transfer", "--engine", "exact", "--n", str(n), "--points", str(points),
                "--seed", str(seed), "--out", "curve.csv"]
    return Workload(
        "exact-curve", args, points,
        lambda out, seed: check_exact_curve(out, n, points),
    )


def meanfield_curve(
    n: int = 10, t_max: float = 3.0, points: int = 3, steps: int = 1, dt: float = 1e-3
) -> Workload:
    def args(seed: int) -> list[str]:
        return ["echo", "--n", str(n), "--t-max", f"{t_max:g}", "--points", str(points),
                "--steps", str(steps), "--with-meanfield", "--schedule", "mirrored-pulse",
                "--dt", f"{dt:g}", "--seed", str(seed), "--out", "curve.csv"]
    return Workload(
        "meanfield-curve", args, points,
        lambda out, seed: check_meanfield_curve(out, t_max, points, steps),
    )


WORKLOADS = {w.name: w for w in (echo_sweep(), transfer_sweep(), exact_curve(), meanfield_curve())}
