import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import echochain
from echochain.checks import dense_state
from echochain.noise import NoiseModel, fidelity, fidelity_curve
from echochain.statevec import prepare_singlet_head, total_sz
from echochain.transfer import (
    ENGINE_EXACT,
    ENGINE_TROTTER_DIRECT,
    ENGINE_TROTTER_SIMFM,
    DEFAULT_TRANSFER_STEPS,
    TransferConfig,
    default_transfer_steps,
)
from echochain.trotter import TimeBudgetError


class TestExactEngine:
    def test_two_sites_singlet_is_stationary(self):
        for t in (0.0, 0.7, math.pi / 2):
            assert fidelity(TransferConfig(n=2, t=t)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    def test_zero_time_far_end_holds_no_singlet(self, n):
        assert fidelity(TransferConfig(n=n, t=0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_three_sites_zero_time_partial_overlap(self):
        assert fidelity(TransferConfig(n=3, t=0.0)) == pytest.approx(0.25)

    @pytest.mark.parametrize("n", list(range(2, 11)))
    def test_perfect_transfer_at_quarter_period(self, n):
        assert fidelity(TransferConfig(n=n)) >= 0.999


class TestTrotterEngines:
    def test_direct_engine_converges_to_exact(self):
        exact = fidelity(TransferConfig(n=6))
        errors = [
            abs(fidelity(TransferConfig(n=6, engine=ENGINE_TROTTER_DIRECT, n_steps=n)) - exact)
            for n in (8, 16, 32)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_simulated_fm_engine_matches_direct_projection(self):
        # mapped pulses differ from direct gates only by global phases,
        # so the projection fidelities coincide
        direct = fidelity(TransferConfig(n=5, engine=ENGINE_TROTTER_DIRECT, n_steps=32))
        simulated = fidelity(TransferConfig(n=5, engine=ENGINE_TROTTER_SIMFM, n_steps=32))
        assert simulated == pytest.approx(direct, abs=1e-10)

    def test_default_steps_reach_small_trotter_error(self):
        # the table's promise, past its last entry too
        for n in range(2, 33):
            exact = fidelity(TransferConfig(n=n))
            trotter = fidelity(TransferConfig(n=n, engine=ENGINE_TROTTER_DIRECT))
            assert abs(trotter - exact) < 1e-4

    def test_noise_requires_trotter_engine(self):
        with pytest.raises(ValueError):
            TransferConfig(n=4, noise=NoiseModel(v=0.1))

    def test_noisy_transfer_is_deterministic(self):
        config = TransferConfig(
            n=5, engine=ENGINE_TROTTER_SIMFM, n_steps=16, noise=NoiseModel(v=0.05), seed=8
        )
        assert fidelity(config) == fidelity(config)

    def test_conservation_metadata(self):
        config = TransferConfig(
            n=6, engine=ENGINE_TROTTER_SIMFM, noise=NoiseModel(v=0.05), seed=4
        )
        # S^z of the same run replayed on dense 2^n states, where it can drift
        sz_initial = total_sz(prepare_singlet_head(config.n))
        assert abs(total_sz(dense_state(config)) - sz_initial) < 1e-10


class TestCurve:
    def test_single_zero_point(self):
        curve = fidelity_curve(TransferConfig(n=5), [0.0])
        assert curve == [(0.0, pytest.approx(0.0, abs=1e-12))]

    @pytest.mark.parametrize("engine", [ENGINE_EXACT, ENGINE_TROTTER_SIMFM])
    def test_negative_time_rejected(self, engine):
        with pytest.raises(ValueError):
            fidelity_curve(TransferConfig(n=4, engine=engine), [0.5, -0.5])

    def test_exact_curve_rises_to_one(self):
        grid = [k * math.pi / 2 / 10 for k in range(11)]
        curve = fidelity_curve(TransferConfig(n=6), grid)
        assert curve[-1][1] == pytest.approx(1.0, abs=1e-9)
        assert max(f for _, f in curve) == curve[-1][1]


def test_default_steps_table_and_extrapolation():
    assert default_transfer_steps(2) == 1
    assert default_transfer_steps(10) == 64
    assert default_transfer_steps(16) >= default_transfer_steps(12)


def test_calibration_script_regenerates_the_table():
    script = Path(__file__).parents[1] / "scripts" / "calibrate_transfer_steps.py"
    # the package this suite imports, whatever the working directory
    env = dict(os.environ, PYTHONPATH=str(Path(echochain.__file__).parents[1]))
    result = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    printed = result.stdout.splitlines()[-1]
    assert printed.startswith("DEFAULT_TRANSFER_STEPS = ")
    assert ast.literal_eval(printed.removeprefix("DEFAULT_TRANSFER_STEPS = ")) == \
        DEFAULT_TRANSFER_STEPS


def test_config_validation():
    with pytest.raises(ValueError):
        TransferConfig(n=1)
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(TimeBudgetError):
            TransferConfig(n=4, t=bad)
    # a fault that is not the time's is raised first, even beside a bad time
    for fault in ({"engine": "sideways"}, {"n_steps": 0}, {"noise": NoiseModel(v=0.1)}):
        for t in (1.0, math.nan):
            with pytest.raises(ValueError) as raised:
                TransferConfig(n=4, t=t, **fault)
            assert not isinstance(raised.value, TimeBudgetError)
    # the exact engine's phases t*w must stay finite
    with pytest.raises(TimeBudgetError, match="overflows"):
        TransferConfig(n=5, t=1e308)
    # either trotter engine fits each half step into one wrap period
    for engine in (ENGINE_TROTTER_DIRECT, "trotter-simfm"):
        with pytest.raises(TimeBudgetError, match="wrap budget"):
            TransferConfig(n=5, t=1e308, engine=engine)
