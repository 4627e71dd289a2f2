import math

import pytest

from echochain import echo, noise
from echochain.checks import dense_state
from echochain.echo import BACKWARD_EXACT, BACKWARD_TROTTERIZED, EchoConfig
from echochain.noise import NoiseModel, fidelity, fidelity_curve
from echochain.statevec import prepare_singlet_head, total_sz
from echochain.trotter import TimeBudgetError


def test_zero_time_revives():
    assert fidelity(EchoConfig(n=4, t=0.0, n_steps=1)) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [3, 5, 8, 11])
@pytest.mark.parametrize("t,steps", [(0.4, 1), (1.7, 4), (2.9, 16)])
def test_trotterized_echo_revives_exactly(n, t, steps):
    assert abs(fidelity(EchoConfig(n=n, t=t, n_steps=steps)) - 1.0) < 1e-9


def test_exact_backward_exposes_forward_trotter_error():
    early = fidelity(EchoConfig(n=6, t=1.0, n_steps=4, backward_mode=BACKWARD_EXACT))
    late = fidelity(EchoConfig(n=6, t=3.0, n_steps=4, backward_mode=BACKWARD_EXACT))
    assert early < 1.0
    assert late < early


def test_exact_backward_fidelity_improves_with_steps():
    fidelities = [
        fidelity(EchoConfig(n=6, t=3.0, n_steps=n, backward_mode=BACKWARD_EXACT))
        for n in (4, 8, 16)
    ]
    assert fidelities[0] <= fidelities[1] + 1e-6
    assert fidelities[1] <= fidelities[2] + 1e-6


def test_noise_lowers_fidelity():
    result = fidelity(
        EchoConfig(n=8, t=math.pi / 2, n_steps=4, noise=NoiseModel(v=0.05), seed=2)
    )
    assert 0.0 <= result < 1.0


def test_noisy_runs_are_seed_deterministic():
    config = EchoConfig(n=7, t=1.1, n_steps=4, noise=NoiseModel(v=0.03), seed=9)
    assert fidelity(config) == fidelity(config)


def test_conservation_metadata():
    config = EchoConfig(n=9, t=2.0, n_steps=8, noise=NoiseModel(v=0.04), seed=3)
    # S^z of the same run replayed on dense 2^n states, where it can drift
    sz_initial = total_sz(prepare_singlet_head(config.n))
    assert abs(total_sz(dense_state(config)) - sz_initial) < 1e-10


class TestCurve:
    def test_single_zero_point(self):
        curve = fidelity_curve(EchoConfig(n=4, t=0.0, n_steps=1), [0.0])
        assert curve == [(0.0, pytest.approx(1.0))]

    def test_noise_free_grid_is_flat_at_one(self):
        grid = [0.5, 1.0, 1.5]
        curve = fidelity_curve(EchoConfig(n=5, t=max(grid), n_steps=4), grid)
        for _, fidelity in curve:
            assert abs(fidelity - 1.0) < 1e-9

    def test_noisy_grid_is_deterministic_and_below_one(self):
        grid = [0.5, 1.5, 2.5]
        config = EchoConfig(
            n=6, t=max(grid), n_steps=4, noise=NoiseModel(v=0.05), seed=17
        )
        first = fidelity_curve(config, grid)
        second = fidelity_curve(config, grid)
        assert first == second
        assert all(f < 1.0 for _, f in first)

    @pytest.mark.parametrize("grid", [[0.5, 1.5, 1.5 + 1e-9], [0.5, math.nan]])
    def test_grid_past_the_config_time_rejected(self, grid):
        # the config checked its budget only up to its own t
        with pytest.raises(TimeBudgetError, match="must lie in"):
            fidelity_curve(EchoConfig(n=5, t=1.5, n_steps=4), grid)


def test_config_validation():
    with pytest.raises(ValueError):
        EchoConfig(n=2, t=1.0, n_steps=1)
    with pytest.raises(ValueError):
        EchoConfig(n=4, t=-1.0, n_steps=1)
    with pytest.raises(ValueError):
        EchoConfig(n=4, t=1.0, n_steps=0)
    with pytest.raises(ValueError):
        EchoConfig(n=4, t=1.0, n_steps=1, backward_mode="sideways")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            EchoConfig(n=4, t=bad, n_steps=1)
    for j in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            EchoConfig(n=4, t=1.0, n_steps=1, j=j)


def test_wrap_period_budget():
    # a leg just past the budget is rejected when the config is built,
    # and a leg at the budget is accepted
    with pytest.raises(ValueError):
        fidelity(EchoConfig(n=4, t=2 * math.pi + 0.1, n_steps=1))
    EchoConfig(n=4, t=8 * math.pi, n_steps=4)


def test_one_plan_build_per_leg(monkeypatch):
    # building a config checks its wrap budget without a plan; a run
    # builds the plan of each leg it runs, once
    built = []

    def counting_plan(*args, **kwargs):
        built.append(args[2])
        return batch_plan(*args, **kwargs)

    batch_plan = noise.batch_plan
    monkeypatch.setattr(noise, "batch_plan", counting_plan)
    config = EchoConfig(n=6, t=1.0, n_steps=2, noise=NoiseModel(0.01))
    assert built == []
    fidelity_curve(config, [0.0, 0.5, 1.0])
    assert built == [echo.MODE_SIMULATED_FM, echo.MODE_DIRECT]
    built.clear()
    fidelity_curve(EchoConfig(n=6, t=1.0, n_steps=2, backward_mode=BACKWARD_EXACT), [1.0])
    assert built == [echo.MODE_SIMULATED_FM]
