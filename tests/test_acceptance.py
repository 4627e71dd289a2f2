"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them live).

Golden values are seed-pinned results frozen on the first verified run
of the corresponding pipeline; tolerances are stated next to each
assertion.
"""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from echochain.chain import transfer_chain
from echochain.checks import dense_state
from echochain.echo import EchoConfig
from echochain.gates import afm_duration_for_fm, wrap_period
from echochain.meanfield import meanfield_echo_curve
from echochain.noise import NoiseModel, default_v_grid, fidelity, make_rng, slope_vs_n
from echochain.statevec import (
    exact_evolve,
    exchange_unitary,
    execute_plan,
    heisenberg_pair_coupling,
    norm,
    prepare_singlet_head,
    total_sz,
)
from echochain.transfer import TransferConfig
from echochain.trotter import MODE_DIRECT, THREE_TERM, batch_plan
from test_meanfield import reference_echo

# Frozen on the first verified run: echo robustness fit at n=10,
# t=pi/2, N=4, 100 trials per point, v on the default 8-point grid,
# master seed 42.
GOLDEN_ECHO_SLOPE = 1.9303270910897599


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_echo_revival():
    worst = 0.0
    for n in range(3, 13):
        for t in (0.4, 1.0, math.pi / 2, 2.5):
            for steps in (1, 4, 16):
                worst = max(worst, abs(fidelity(EchoConfig(n=n, t=t, n_steps=steps)) - 1.0))
    report(1, "echo revival", worst < 1e-9, f"max |f_ec - 1| = {worst:.3e}")


def test_criterion_2_two_spin_equivalence():
    rng = make_rng(2024)
    w, v = np.linalg.eigh(heisenberg_pair_coupling())
    worst = 0.0
    for _ in range(1000):
        j_fm = rng.uniform(0.3, 3.0)
        j_afm = rng.uniform(0.3, 3.0)
        t = rng.uniform(0.0, wrap_period(j_fm))
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        pulsed = exchange_unitary(j_afm * afm_duration_for_fm(t, j_afm, j_fm)) @ psi
        ferromagnetic = (v * np.exp(1j * j_fm * t * w)) @ v.conj().T @ psi
        worst = max(worst, abs(abs(np.vdot(pulsed, ferromagnetic)) - 1.0))
    report(2, "two-spin equivalence", worst < 1e-10, f"max ||overlap|-1| = {worst:.3e}")


def trotter_state_error(n: int, n_steps: int) -> float:
    spec = transfer_chain(n)
    state = prepare_singlet_head(n)
    plan = batch_plan(THREE_TERM, [(spec, math.pi / 2, n_steps, 1)], MODE_DIRECT)
    execute_plan(plan, state)
    reference = exact_evolve(spec, prepare_singlet_head(n), math.pi / 2)
    return float(np.linalg.norm(state.amplitudes - reference.amplitudes))


def test_criterion_3_second_order_scaling():
    errors = {m: trotter_state_error(6, m) for m in (8, 16, 32, 64)}
    ratios = {m: errors[m] / errors[2 * m] for m in (8, 16, 32)}
    ok = all(3.0 <= r <= 5.0 for r in ratios.values())
    detail = " ".join(f"err({m})/err({2 * m})={r:.2f}" for m, r in ratios.items())
    report(3, "second-order Trotter scaling", ok, detail)


def test_criterion_4_perfect_state_transfer():
    worst = 1.0
    for n in range(2, 11):
        worst = min(worst, fidelity(TransferConfig(n=n)))
    exact = fidelity(TransferConfig(n=6))
    trotter_errors = [
        abs(fidelity(TransferConfig(n=6, engine="trotter-direct", n_steps=m)) - exact)
        for m in (8, 16, 32)
    ]
    converges = trotter_errors[0] > trotter_errors[1] > trotter_errors[2]
    ok = worst >= 0.999 and converges
    report(
        4,
        "perfect state transfer",
        ok,
        f"min f_tr(pi/2) over n=2..10 = {worst:.9f}; trotter errors {trotter_errors}",
    )
    if worst < 0.999:
        # convention-discrepancy report mandated on failure
        print(
            "TRANSFER CONVENTION DISCREPANCY: pauli sigma^z fields did not reach"
            f" f_tr >= 0.999 (got {worst}); rerun chain-model convention alternates."
        )


def test_criterion_5_conservation_suite():
    echoes = [
        EchoConfig(n=6, t=1.0, n_steps=4),
        EchoConfig(n=10, t=2.5, n_steps=16),
        EchoConfig(n=8, t=math.pi / 2, n_steps=4, noise=NoiseModel(v=0.05), seed=1),
        EchoConfig(
            n=6, t=1.5, n_steps=8, backward_mode="exact-continuous",
            noise=NoiseModel(v=0.05), seed=2,
        ),
    ]
    transfers = [
        TransferConfig(n=6, engine="trotter-direct"),
        TransferConfig(n=7, engine="trotter-simfm", noise=NoiseModel(v=0.05), seed=3),
        TransferConfig(n=9),
    ]
    # the norm and S^z of each run's dense replay
    worst = 0.0
    for config in echoes + transfers:
        state = dense_state(config)
        worst = max(worst, abs(norm(state) - 1.0))
        sz_initial = total_sz(prepare_singlet_head(config.n))
        worst = max(worst, abs(total_sz(state) - sz_initial))
    report(5, "norm and S^z conservation", worst < 1e-10, f"max drift = {worst:.3e}")


def test_criterion_6_meanfield_baseline():
    grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    mirrored = meanfield_echo_curve(1.0, grid, schedule="mirrored-pulse", n_steps=1)
    continuous = meanfield_echo_curve(1.0, [1.0, 3.0], schedule="continuous")
    # the closed form has no step, so the dt-halving is taken on the RK4
    # oracle at the t = 1 point
    convergence = [
        reference_echo(10, 1.0, 1.0, dt, "mirrored-pulse", 1, -1)[0] for dt in (1e-2, 5e-3)
    ]
    dt_shift = abs(convergence[0] - convergence[1])
    ok = dt_shift < 1e-6 and min(mirrored) <= 0.99
    report(
        6,
        "mean-field baseline",
        ok,
        f"dt-halving shift = {dt_shift:.2e}; min f_ec(mirrored-pulse, N=1) = {min(mirrored):.3e}; "
        f"continuous schedule stays at {min(continuous):.6f} (self-cancelling). "
        "Variant reproducing the classical deviation: mirrored-pulse with an odd step count.",
    )


def test_criterion_7_echo_robustness_fit():
    results = slope_vs_n(
        [EchoConfig(n=10, t=math.pi / 2, n_steps=4)], default_v_grid(), trials=100,
        master_seed=42,
    )
    _, fit = results[0]
    drift = abs(fit.b - GOLDEN_ECHO_SLOPE) / GOLDEN_ECHO_SLOPE
    ok = fit.r_squared >= 0.95 and drift <= 0.05
    report(
        7,
        "echo robustness log-log fit",
        ok,
        f"b = {fit.b:.6f} (golden {GOLDEN_ECHO_SLOPE:.6f}, drift {drift:.2%}), "
        f"r^2 = {fit.r_squared:.4f}",
    )


def test_criterion_8_slope_vs_n():
    echo_fits = slope_vs_n(
        [EchoConfig(n=n, t=math.pi / 2, n_steps=4) for n in range(5, 13)],
        default_v_grid(), trials=100, master_seed=42,
    )
    slopes = np.array([fit.b for _, fit in echo_fits])
    median = float(np.median(slopes))
    spread = float(np.max(np.abs(slopes - median)) / median)
    transfer_ns = range(4, 10)
    transfer_fits = slope_vs_n(
        [TransferConfig(n=n, t=math.pi / 2, engine="trotter-simfm") for n in transfer_ns],
        default_v_grid(), trials=100, master_seed=42,
    )
    odd = [(n, fit.b, fit.r_squared) for n, (_, fit) in zip(transfer_ns, transfer_fits)
           if n % 2 == 1]
    even = [(n, fit.b, fit.r_squared) for n, (_, fit) in zip(transfer_ns, transfer_fits)
            if n % 2 == 0]
    parity_lines = "; ".join(
        f"{tag}: " + ", ".join(f"b({n})={b:.3f} (r2={r2:.3f})" for n, b, r2 in series)
        for tag, series in (("odd n", odd), ("even n", even))
    )
    ok = spread <= 0.30 and len(odd) >= 2 and len(even) >= 2
    report(
        8,
        "slope vs n",
        ok,
        f"echo b(n) spread about median {median:.3f} = {spread:.2%} (<= 30%); "
        f"transfer parity split reported -> {parity_lines}",
    )


def run_cli(args, outs, blas_threads, tmp_path, tag):
    """The bytes of the CSV behind each output flag in `outs`, written by
    `args` in a fresh process that runs `blas_threads` OpenBLAS threads."""
    paths = [tmp_path / f"{flag.lstrip('-')}_{tag}.csv" for flag in outs]
    cmd = [sys.executable, "-m", "echochain", *args]
    for flag, path in zip(outs, paths):
        cmd += [flag, str(path)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
    subprocess.run(cmd, check=True, env=env, capture_output=True)
    return [path.read_bytes() for path in paths]


def test_criterion_9_byte_deterministic_csv(tmp_path):
    runs = [
        (["robustness", "--protocol", "echo", "--n", "6", "--steps", "2",
          "--trials", "16", "--seed", "13", "--v-points", "4"], ["--out-trials", "--out-fits"]),
        # the exact-continuous backward leg's c @ modes products run in BLAS
        (["echo", "--backward", "exact-continuous", "--n", "200"], ["--out"]),
    ]
    ok = True
    for k, (args, outs) in enumerate(runs):
        first = run_cli(args, outs, "1", tmp_path, f"{k}a")
        second = run_cli(args, outs, "1", tmp_path, f"{k}b")
        threaded = run_cli(args, outs, "2", tmp_path, f"{k}c")
        ok = ok and first == second == threaded
    report(9, "byte-identical CSV output", ok, "repeat + BLAS thread-count invariance")
