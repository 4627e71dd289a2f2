import math

import pytest

from echochain.checks import dense_transfer_state
from echochain.noise import NoiseModel, fidelity_curve
from echochain.statevec import prepare_singlet_head, total_sz
from echochain.transfer import (
    ENGINE_EXACT,
    ENGINE_TROTTER_DIRECT,
    ENGINE_TROTTER_SIMFM,
    TransferConfig,
    default_transfer_steps,
    run_transfer,
)


class TestExactEngine:
    def test_two_sites_singlet_is_stationary(self):
        for t in (0.0, 0.7, math.pi / 2):
            assert run_transfer(TransferConfig(n=2, t=t)).fidelity == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    def test_zero_time_far_end_holds_no_singlet(self, n):
        assert run_transfer(TransferConfig(n=n, t=0.0)).fidelity == pytest.approx(0.0, abs=1e-12)

    def test_three_sites_zero_time_partial_overlap(self):
        assert run_transfer(TransferConfig(n=3, t=0.0)).fidelity == pytest.approx(0.25)

    @pytest.mark.parametrize("n", list(range(2, 11)))
    def test_perfect_transfer_at_quarter_period(self, n):
        assert run_transfer(TransferConfig(n=n)).fidelity >= 0.999


class TestTrotterEngines:
    def test_direct_engine_converges_to_exact(self):
        exact = run_transfer(TransferConfig(n=6)).fidelity
        errors = [
            abs(run_transfer(TransferConfig(n=6, engine=ENGINE_TROTTER_DIRECT, n_steps=n)).fidelity - exact)
            for n in (8, 16, 32)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_simulated_fm_engine_matches_direct_projection(self):
        # mapped pulses differ from direct gates only by global phases,
        # so the projection fidelities coincide
        direct = run_transfer(TransferConfig(n=5, engine=ENGINE_TROTTER_DIRECT, n_steps=32))
        simulated = run_transfer(TransferConfig(n=5, engine=ENGINE_TROTTER_SIMFM, n_steps=32))
        assert simulated.fidelity == pytest.approx(direct.fidelity, abs=1e-10)

    def test_default_steps_reach_small_trotter_error(self):
        # the table's promise, past its last entry too
        for n in range(2, 33):
            exact = run_transfer(TransferConfig(n=n)).fidelity
            trotter = run_transfer(TransferConfig(n=n, engine=ENGINE_TROTTER_DIRECT)).fidelity
            assert abs(trotter - exact) < 1e-4

    def test_noise_requires_trotter_engine(self):
        with pytest.raises(ValueError):
            TransferConfig(n=4, noise=NoiseModel(v=0.1))

    def test_noisy_transfer_is_deterministic(self):
        config = TransferConfig(
            n=5, engine=ENGINE_TROTTER_SIMFM, n_steps=16, noise=NoiseModel(v=0.05), seed=8
        )
        assert run_transfer(config).fidelity == run_transfer(config).fidelity

    def test_conservation_metadata(self):
        config = TransferConfig(
            n=6, engine=ENGINE_TROTTER_SIMFM, noise=NoiseModel(v=0.05), seed=4
        )
        result = run_transfer(config)
        assert abs(result.metadata["final_norm"] - 1.0) < 1e-10
        # S^z of the same run replayed on dense 2^n states, where it can drift
        sz_initial = total_sz(prepare_singlet_head(config.n))
        assert abs(total_sz(dense_transfer_state(config)) - sz_initial) < 1e-10


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


def test_config_validation():
    with pytest.raises(ValueError):
        TransferConfig(n=1)
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            TransferConfig(n=4, t=bad)
    with pytest.raises(ValueError):
        TransferConfig(n=4, engine="sideways")
    with pytest.raises(ValueError):
        TransferConfig(n=4, n_steps=0)
