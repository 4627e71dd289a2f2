"""Tests of the benchmark's own output checks.

    python3 -m pytest -q perfbench/test_checks.py

Each test runs a small version of a workload through the same
`execute` and `judge` the benchmark uses, then shows that a clean
output passes and that a corrupted one is reported as a failed command.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest

import oracle
import workloads
from run import execute, judge, layer_profile, trimmed_mean

SEED = 12345
SMALL = {
    "echo-sweep": workloads.echo_sweep(ns=range(5, 7), trials=2),
    "transfer-sweep": workloads.transfer_sweep(ns=range(4, 6), trials=1),
    "exact-curve": workloads.exact_curve(n=6, points=9),
    "meanfield-curve": workloads.meanfield_curve(n=4, points=3, dt=1e-2),
}
# (file, row index, value column, its complement column or None): each
# corruption moves one value by 1e-6 and keeps the row self-consistent,
# so only the comparison with the independent computation can catch it.
TARGET = {
    "echo-sweep": ("trials.csv", 5, "infidelity", None),
    "transfer-sweep": ("trials.csv", 3, "infidelity", None),
    "exact-curve": ("curve.csv", 4, "f_tr", "i_tr"),
    "meanfield-curve": ("curve.csv", 4, "f_ec", "i_ec"),
}


def _perturb(path: Path, row: int, column: str, complement: str | None) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    rows[row][column] = repr(float(rows[row][column]) + 1e-6)
    if complement:
        rows[row][complement] = repr(float(rows[row][complement]) - 1e-6)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture(scope="module", params=sorted(SMALL))
def ran(request, tmp_path_factory):
    workload = SMALL[request.param]
    out = tmp_path_factory.mktemp(request.param)
    return workload, execute(workload.args(SEED), out)


def test_clean_output_passes(ran):
    workload, command = ran
    assert judge(workload, command, SEED) is None


def test_one_corrupted_row_fails(ran):
    workload, command = ran
    name, row, column, complement = TARGET[workload.name]
    clean = (command.out / name).read_bytes()
    _perturb(command.out / name, row, column, complement)
    try:
        problem = judge(workload, command, SEED)
        assert problem.startswith("check failed") and "differs" in problem
    finally:
        (command.out / name).write_bytes(clean)


def test_flipped_gate_sign_in_replay_fails(tmp_path, monkeypatch):
    """The transfer chain's fields make the sign of every exchange angle
    observable.  (On the echo chain, which has no fields, flipping every
    angle conjugates the state and leaves each fidelity unchanged.)"""
    workload = SMALL["transfer-sweep"]
    command = execute(workload.args(SEED), tmp_path)
    assert judge(workload, command, SEED) is None
    exchange = oracle.exchange
    monkeypatch.setattr(oracle, "exchange", lambda c, i, j, theta: exchange(c, i, j, -theta))
    assert judge(workload, command, SEED).startswith("check failed")


@pytest.mark.parametrize("name, counter, least", [
    ("exact-curve", "chain.dense_bytes", 8 * 4**6),   # one 2^6 x 2^6 float64 matrix
    ("meanfield-curve", "meanfield.rk4_steps", 1),
])
def test_traced_command_measures_its_counters(tmp_path, name, counter, least):
    """Counters and the tracing overhead come from the traced process."""
    workload = SMALL[name]
    command = execute(workload.args(SEED), tmp_path, traced=True)
    assert judge(workload, command, SEED) is None
    profile = layer_profile(command)
    assert profile[counter] >= least
    assert 0 < profile["trace.overhead_s"] < profile["trace.wall_s"]


def test_nonzero_exit_fails(tmp_path):
    workload = workloads.exact_curve(n=1, points=3)
    command = execute(workload.args(SEED), tmp_path)
    assert command.status != 0
    assert judge(workload, command, SEED).startswith("exit status")


def test_replay_matches_sector_algebra():
    """The sector exchange is exp(-i theta S.S) restricted to one magnon:
    compare with the 4x4 matrix on the (|01>, |10>) block."""
    theta = 0.7
    swap = np.array([[0, 1], [1, 0]])
    block = np.exp(0.25j * theta) * (np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * swap)
    global_phase = np.exp(-0.25j * theta)     # what |00> picks up
    c = np.array([[0.3 + 0.1j, -0.5j, 0.8]])
    expected = c.copy()
    expected[0, :2] = block @ c[0, :2] / global_phase
    oracle.exchange(c, 1, 2, np.array([theta]))
    assert np.allclose(c, expected, atol=1e-15)


def test_trimmed_mean_drops_one_extreme_on_each_side():
    assert trimmed_mean([3.0, 1.0, 100.0]) == 3.0
    assert trimmed_mean([1.0, 2.0, 3.0, 10.0]) == 2.5
    assert trimmed_mean([4.0, 2.0]) == 3.0
