import math
from dataclasses import replace

import numpy as np
import pytest

from echochain.chain import ChainSpec, transfer_chain, uniform_echo_chain
from echochain.noise import NoiseModel, make_rng
from echochain.statevec import (
    StateVector,
    exact_evolve,
    execute_plan,
    norm,
    prepare_singlet_head,
    total_sz,
)
from echochain.trotter import (
    MODE_DIRECT,
    MODE_SIMULATED_FM,
    SECOND_ORDER,
    THREE_TERM,
    Layer,
    TimeBudgetError,
    batch_plan,
    check_plan,
)


def one_chain(split, spec, times, n_steps, mode=MODE_DIRECT):
    """The plan of one chain, one angle row per time."""
    return batch_plan(split, [(spec, times, n_steps, np.size(times))], mode)


def gates(plan, row=0):
    """Each layer of one step as [(sites, angle)], 1-based: (i, j) for a
    bond, i for a field site."""
    sites = np.arange(1, plan.num_sites + 1)
    layers = []
    for layer in plan.layers:
        left = sites[layer.left].tolist()
        keys = left if layer.right is None else list(zip(left, sites[layer.right].tolist()))
        assert len(keys) == layer.width
        layers.append(list(zip(keys, layer.angles[row].tolist())))
    return layers


def phase_aligned_error(a: StateVector, b: StateVector) -> float:
    """State distance ignoring a global phase."""
    return math.sqrt(max(2.0 * (1.0 - abs(np.vdot(a.amplitudes, b.amplitudes))), 0.0))


class TestSecondOrderPlanStructure:
    def test_three_site_echo_chain_direct(self):
        plan = one_chain(SECOND_ORDER, uniform_echo_chain(3, 1.0), 1.0, 1, MODE_DIRECT)
        assert [block.steps for block in plan.blocks] == [1]
        # the odd halves hold no bond, so the step is the even layer alone
        assert gates(plan) == [[((2, 3), pytest.approx(1.0))]]

    def test_simulated_fm_angles_are_wrap_complements(self):
        plan = one_chain(SECOND_ORDER, uniform_echo_chain(4, 1.0), math.pi, 2, MODE_SIMULATED_FM)
        tau = math.pi / 2
        odd_half, even_full, odd_half2 = gates(plan)
        assert even_full == [((2, 3), pytest.approx(2 * math.pi - tau))]
        assert odd_half == odd_half2 == [((3, 4), pytest.approx(2 * math.pi - tau / 2))]

    def test_zero_time_direct_plan_is_identity(self):
        spec = uniform_echo_chain(5, 1.0)
        plan = one_chain(SECOND_ORDER, spec, 0.0, 3, MODE_DIRECT)
        state = prepare_singlet_head(5)
        before = state.amplitudes.copy()
        execute_plan(plan, state)
        assert np.allclose(state.amplitudes, before)

    def test_simulated_mode_rejects_over_period_slices(self):
        with pytest.raises(ValueError):
            one_chain(SECOND_ORDER, uniform_echo_chain(4, 1.0), 4 * math.pi, 1, MODE_SIMULATED_FM)


class TestPlanArrays:
    def test_both_modes_check_the_batch_longest_time(self):
        # one step's even layer takes the whole slice: 2*pi at j = 1
        spec = uniform_echo_chain(4, 1.0)
        for mode in (MODE_DIRECT, MODE_SIMULATED_FM):
            plan = one_chain(SECOND_ORDER, spec, [0.0, 2 * math.pi], 1, mode)
            assert [layer.angles.shape for layer in plan.layers] == [(2, 1)] * 3
            with pytest.raises(TimeBudgetError, match="wrap budget"):
                one_chain(SECOND_ORDER, spec, [0.0, 2 * math.pi + 1e-6, 1.0], 1, mode)

    @pytest.mark.parametrize("split", [SECOND_ORDER, THREE_TERM],
                             ids=["second_order_plan", "three_term_plan"])
    @pytest.mark.parametrize("times,steps,mode", [
        ([0.0, 2 * math.pi], 1, MODE_DIRECT),
        ([0.0, 2 * math.pi + 1e-6, 1.0], 1, MODE_SIMULATED_FM),
        (4 * math.pi + 1e-6, 1, MODE_DIRECT),   # past the three-term budget too
        (8 * math.pi, 4, MODE_SIMULATED_FM),
        (1.0, 0, MODE_DIRECT),
        ([1.0, math.nan], 2, MODE_DIRECT),
        (-1.0, 2, MODE_DIRECT),
        (1.0, 2, "sideways"),
    ])
    def test_checks_raise_where_the_plan_raises(self, split, times, steps, mode):
        for spec in (uniform_echo_chain(5, 1.0), transfer_chain(5)):
            try:
                one_chain(split, spec, times, steps, mode)
            except ValueError as exc:
                with pytest.raises(ValueError) as checked:
                    check_plan(split, spec, times, steps, mode)
                assert str(checked.value) == str(exc)
                assert type(checked.value) is type(exc)
                # with a valid step count and mode, only the time is at fault
                time_fault = steps >= 1 and mode in (MODE_DIRECT, MODE_SIMULATED_FM)
                assert isinstance(exc, TimeBudgetError) == time_fault
            else:
                checked, _ = check_plan(split, spec, times, steps, mode)
                assert np.array_equal(checked, np.reshape(times, -1))

    @pytest.mark.parametrize("spec,steps,mode", [
        (uniform_echo_chain(5, 3e-308), 1, MODE_SIMULATED_FM),  # its wrap period overflows
        (uniform_echo_chain(5, 1.0), 0, MODE_DIRECT),
        (uniform_echo_chain(5, 1.0), 1, "sideways"),
    ])
    def test_faults_not_of_the_time_are_raised_first(self, spec, steps, mode):
        for times in (1.0, math.nan, 1e308):
            with pytest.raises(ValueError) as raised:
                check_plan(SECOND_ORDER, spec, times, steps, mode)
            assert not isinstance(raised.value, TimeBudgetError)

    def test_one_angle_row_per_time(self):
        spec = uniform_echo_chain(6, 1.0)
        times = [0.0, 0.7, 2.5]
        for mode in (MODE_DIRECT, MODE_SIMULATED_FM):
            batch = one_chain(SECOND_ORDER, spec, times, 3, mode)
            for row, t in enumerate(times):
                alone = one_chain(SECOND_ORDER, spec, t, 3, mode)
                for together, own in zip(batch.layers, alone.layers, strict=True):
                    assert np.array_equal(together.angles[row], own.angles[0])
                assert gates(batch, row) == gates(alone)

    def test_evenly_spaced_sites_are_slices(self):
        plan = one_chain(THREE_TERM, transfer_chain(7), 0.5, 1)
        assert all(isinstance(layer.left, slice) for layer in plan.layers)
        # the echo chain's odd bonds start at site 3: (3, 4), (5, 6)
        odd = one_chain(SECOND_ORDER, uniform_echo_chain(6, 1.0), 0.5, 1).layers[0]
        assert (odd.left, odd.right) == (slice(2, 5, 2), slice(3, 6, 2))

    def test_unevenly_spaced_sites_are_index_arrays(self):
        # odd bonds (1, 2), (3, 4), (7, 8): (5, 6) is off; field on 2, 3 and 5
        spec = ChainSpec(n=8, couplings=[1, 1, 1, 1, 0, 1, 1],
                         fields=[0, 1, 1, 0, 1, 0, 0, 0])
        plan = one_chain(THREE_TERM, spec, 0.5, 1)
        odd, even, field = plan.layers[:3]
        assert np.array_equal(odd.left, [0, 2, 6]) and np.array_equal(odd.right, [1, 3, 7])
        assert (even.left, even.right) == (slice(1, 6, 2), slice(2, 7, 2))
        assert np.array_equal(field.left, [1, 2, 4]) and field.right is None
        assert [g[0] for g in gates(plan)[0]] == [(1, 2), (3, 4), (7, 8)]
        assert odd.width == 3 and field.width == 3


class TestThreeTermPlanStructure:
    def test_two_site_transfer_layer_shapes(self):
        plan = one_chain(THREE_TERM, transfer_chain(2), 0.4, 1, MODE_DIRECT)
        # no even bond: odd half, field, odd half
        assert [layer.right is None for layer in plan.layers] == [False, True, False]
        assert [len(layer) for layer in gates(plan)] == [1, 2, 1]

    def test_transfer_five_direct_angles(self):
        plan = one_chain(THREE_TERM, transfer_chain(5), math.pi / 2, 10, MODE_DIRECT)
        tau = math.pi / 20
        odd_half = gates(plan)[0]
        # ferromagnetic chain: direct angles carry the negative sign
        expected = {(1, 2): -2 * 2.0 * tau / 2, (3, 4): -2 * math.sqrt(6) * tau / 2}
        assert dict(odd_half) == pytest.approx(expected)
        assert [block.steps for block in plan.blocks] == [10]

    def test_field_layer_phases(self):
        plan = one_chain(THREE_TERM, transfer_chain(3), 0.3, 1, MODE_DIRECT)
        field = gates(plan)[2]
        expected = {
            1: math.sqrt(2) / 2 * 0.3,
            2: math.sqrt(2) * 0.3,
            3: math.sqrt(2) / 2 * 0.3,
        }
        assert dict(field) == pytest.approx(expected)

    def test_zero_time_is_identity(self):
        state = prepare_singlet_head(4)
        before = state.amplitudes.copy()
        execute_plan(one_chain(THREE_TERM, transfer_chain(4), 0.0, 2, MODE_DIRECT), state)
        assert np.allclose(state.amplitudes, before)


class TestExecution:
    def test_direct_afm_matches_exact_oracle(self):
        spec = uniform_echo_chain(6, 1.0)
        state = prepare_singlet_head(6)
        execute_plan(one_chain(SECOND_ORDER, spec, 1.0, 64, MODE_DIRECT), state)
        reference = exact_evolve(spec, prepare_singlet_head(6), 1.0)
        assert abs(np.vdot(state.amplitudes, reference.amplitudes)) >= 1 - 1e-4

    def test_simulated_fm_converges_to_ferromagnetic_oracle(self):
        spec = uniform_echo_chain(4, 1.0)
        reference = exact_evolve(replace(spec, sign="fm"), prepare_singlet_head(4), 1.0)

        def err(n_steps):
            state = prepare_singlet_head(4)
            execute_plan(one_chain(SECOND_ORDER, spec, 1.0, n_steps, MODE_SIMULATED_FM), state)
            return phase_aligned_error(state, reference)

        ratio = err(8) / err(16)
        assert 3.0 <= ratio <= 5.0

    def test_second_order_error_ratio_on_random_state(self):
        rng = np.random.default_rng(5)
        spec = uniform_echo_chain(5, 1.0)
        amplitudes = rng.normal(size=32) + 1j * rng.normal(size=32)
        amplitudes /= np.linalg.norm(amplitudes)
        reference = exact_evolve(spec, StateVector(5, amplitudes.copy()), 1.0)

        def err(n_steps):
            state = StateVector(5, amplitudes.copy())
            execute_plan(one_chain(SECOND_ORDER, spec, 1.0, n_steps, MODE_DIRECT), state)
            return float(np.linalg.norm(state.amplitudes - reference.amplitudes))

        for n_steps in (8, 16):
            assert 3.0 <= err(n_steps) / err(2 * n_steps) <= 5.0

    def test_layer_gates_commute(self):
        spec = transfer_chain(6)
        plan = one_chain(THREE_TERM, spec, 0.8, 2, MODE_DIRECT)
        state_a = prepare_singlet_head(6)
        execute_plan(plan, state_a)
        # every layer's gates in reverse order
        sites = np.arange(6)
        layers = []
        for layer in plan.layers:
            right = None if layer.right is None else sites[layer.right][::-1]
            layers.append(Layer(sites[layer.left][::-1], right, layer.angles[:, ::-1]))
        reversed_plan = replace(plan, layers=tuple(layers))
        state_b = prepare_singlet_head(6)
        execute_plan(reversed_plan, state_b)
        assert np.max(np.abs(state_a.amplitudes - state_b.amplitudes)) < 1e-12

    def test_norm_and_sz_conserved_with_noise(self):
        spec = transfer_chain(6)
        plan = one_chain(THREE_TERM, spec, math.pi / 2, 16, MODE_SIMULATED_FM)
        state = prepare_singlet_head(6)
        sz_before = total_sz(state)
        execute_plan(state=state, plan=plan, noise=NoiseModel(v=0.08), rng=make_rng(4))
        assert abs(norm(state) - 1.0) < 1e-10
        assert abs(total_sz(state) - sz_before) < 1e-10

    def test_noisy_execution_requires_rng(self):
        plan = one_chain(SECOND_ORDER, uniform_echo_chain(3, 1.0), 0.5, 1, MODE_DIRECT)
        with pytest.raises(ValueError):
            execute_plan(plan, prepare_singlet_head(3), NoiseModel(v=0.1), None)

    def test_mismatched_sizes_rejected(self):
        plan = one_chain(SECOND_ORDER, uniform_echo_chain(4, 1.0), 0.5, 1, MODE_DIRECT)
        with pytest.raises(ValueError):
            execute_plan(plan, prepare_singlet_head(5))

    def test_identical_seeds_give_identical_noisy_states(self):
        spec = uniform_echo_chain(5, 1.0)
        plan = one_chain(SECOND_ORDER, spec, 1.2, 4, MODE_SIMULATED_FM)
        a = prepare_singlet_head(5)
        b = prepare_singlet_head(5)
        execute_plan(plan, a, NoiseModel(v=0.05), make_rng((3, 1)))
        execute_plan(plan, b, NoiseModel(v=0.05), make_rng((3, 1)))
        assert np.array_equal(a.amplitudes, b.amplitudes)
