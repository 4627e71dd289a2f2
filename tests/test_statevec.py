import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echochain.statevec import (
    SINGLET,
    InvalidGateError,
    StateVector,
    apply_single_site_phase,
    apply_two_site,
    check_norm,
    exchange_unitary,
    norm,
    pair_projection_fidelity,
    prepare_singlet_head,
    total_sz,
)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
TRIPLET_ZERO = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def basis_state(n, bits):
    """Computational basis state |b_1 b_2 ... b_n> (bit 0 = spin-up)."""
    if n < 2:
        raise ValueError(f"need at least 2 sites, got {n}")
    if len(bits) != n:
        raise ValueError(f"expected {n} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    index = 0
    for b in bits:
        index = (index << 1) | b
    amplitudes = np.zeros(1 << n, dtype=complex)
    amplitudes[index] = 1.0
    return StateVector(n, amplitudes)


def random_unitary(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBasisState:
    def test_two_sites_all_up(self):
        assert np.allclose(basis_state(2, [0, 0]).amplitudes, [1, 0, 0, 0])

    def test_two_sites_second_down(self):
        assert np.allclose(basis_state(2, [0, 1]).amplitudes, [0, 1, 0, 0])

    def test_site_one_is_most_significant(self):
        state = basis_state(3, [1, 0, 0])
        assert state.amplitudes[4] == 1.0
        assert np.sum(np.abs(state.amplitudes)) == 1.0

    def test_rejects_small_chains_and_bad_bits(self):
        with pytest.raises(ValueError):
            basis_state(1, [0])
        with pytest.raises(ValueError):
            basis_state(3, [0, 1])
        with pytest.raises(ValueError):
            basis_state(2, [0, 2])


class TestSingletHead:
    def test_two_sites(self):
        amps = prepare_singlet_head(2).amplitudes
        assert np.allclose(amps, [0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0])

    def test_three_sites(self):
        amps = prepare_singlet_head(3).amplitudes
        assert amps[2] == pytest.approx(1 / math.sqrt(2))
        assert amps[4] == pytest.approx(-1 / math.sqrt(2))
        assert np.count_nonzero(amps) == 2

    def test_four_sites_support(self):
        amps = prepare_singlet_head(4).amplitudes
        assert set(np.nonzero(amps)[0]) == {4, 8}
        assert amps[4] == pytest.approx(1 / math.sqrt(2))
        assert amps[8] == pytest.approx(-1 / math.sqrt(2))

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            prepare_singlet_head(1)


class TestApplyTwoSite:
    def test_identity_leaves_state(self):
        state = prepare_singlet_head(4)
        before = state.amplitudes.copy()
        apply_two_site(state, 2, 4, np.eye(4))
        assert np.array_equal(state.amplitudes, before)

    def test_swap_moves_excitation(self):
        state = basis_state(2, [0, 1])
        apply_two_site(state, 1, 2, SWAP)
        assert np.allclose(state.amplitudes, basis_state(2, [1, 0]).amplitudes)

    def test_exchange_on_singlet_gives_singlet_phase(self):
        # the singlet picks up exp(+i 3 theta / 4)
        theta = 0.83
        state = prepare_singlet_head(3)
        expected = np.exp(0.75j * theta) * state.amplitudes
        apply_two_site(state, 1, 2, exchange_unitary(theta))
        assert np.allclose(state.amplitudes, expected, atol=1e-12)

    def test_rejects_bad_pairs(self):
        state = prepare_singlet_head(3)
        with pytest.raises(ValueError):
            apply_two_site(state, 2, 2, np.eye(4))
        with pytest.raises(ValueError):
            apply_two_site(state, 0, 2, np.eye(4))
        with pytest.raises(ValueError):
            apply_two_site(state, 3, 4, np.eye(4))
        with pytest.raises(ValueError):
            apply_two_site(state, 2, 1, np.eye(4))

    def test_rejects_non_unitary(self):
        state = prepare_singlet_head(3)
        with pytest.raises(InvalidGateError):
            apply_two_site(state, 1, 2, np.eye(4) * 1.001)

    def test_inverse_composition_returns_input(self):
        rng = np.random.default_rng(3)
        state = prepare_singlet_head(5)
        reference = state.amplitudes.copy()
        u = random_unitary(rng)
        apply_two_site(state, 2, 4, u)
        apply_two_site(state, 2, 4, u.conj().T)
        assert np.max(np.abs(state.amplitudes - reference)) < 1e-10


class TestSingleSitePhase:
    def test_zero_phase_is_identity(self):
        state = prepare_singlet_head(3)
        before = state.amplitudes.copy()
        apply_single_site_phase(state, 2, 0.0)
        assert np.array_equal(state.amplitudes, before)

    def test_pi_negates_up_component(self):
        state = basis_state(2, [0, 0])
        apply_single_site_phase(state, 1, math.pi)
        assert state.amplitudes[0] == pytest.approx(-1.0)

    def test_diagonal_action_on_superposition(self):
        state = basis_state(2, [0, 0])
        # put site 2 in (|0> + |1>)/sqrt(2)
        h = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]]) / math.sqrt(2)
        apply_two_site(state, 1, 2, h)
        apply_single_site_phase(state, 2, math.pi / 2)
        expected = np.array([np.exp(-0.5j * math.pi), np.exp(0.5j * math.pi), 0, 0])
        expected /= math.sqrt(2)
        assert np.allclose(state.amplitudes, expected)

    def test_rejects_out_of_range_site(self):
        with pytest.raises(ValueError):
            apply_single_site_phase(prepare_singlet_head(3), 4, 0.1)


class TestPairProjection:
    def test_head_pair_on_singlet(self):
        assert pair_projection_fidelity(prepare_singlet_head(4), (1, 2), SINGLET) == pytest.approx(1.0)

    def test_head_pair_on_triplet_is_orthogonal(self):
        assert pair_projection_fidelity(prepare_singlet_head(4), (1, 2), TRIPLET_ZERO) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_pair_overlap(self):
        # (|010> - |100>)/sqrt(2): sites (2,3) hold "10" with weight 1/2
        assert pair_projection_fidelity(prepare_singlet_head(3), (2, 3), SINGLET) == pytest.approx(0.25)

    def test_reversed_pair_matches_permuted_target(self):
        state = prepare_singlet_head(3)
        forward = pair_projection_fidelity(state, (2, 3), SINGLET)
        backward = pair_projection_fidelity(state, (3, 2), SINGLET)
        # the singlet is antisymmetric, so swapping the pair only flips a sign
        assert backward == pytest.approx(forward)

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ValueError):
            pair_projection_fidelity(prepare_singlet_head(3), (1, 2), [1, 1, 0, 0])


class TestTotalSz:
    def test_all_up(self):
        assert total_sz(basis_state(3, [0, 0, 0])) == pytest.approx(1.5)

    def test_singlet_is_balanced(self):
        assert total_sz(prepare_singlet_head(2)) == pytest.approx(0.0)

    def test_singlet_head_counts_tail(self):
        assert total_sz(prepare_singlet_head(5)) == pytest.approx(1.5)


def test_norm_drift_is_caught():
    drifted = prepare_singlet_head(3)
    drifted.amplitudes *= 1.0 + 1e-8
    # a NaN norm compares greater than no tolerance
    nan = prepare_singlet_head(3)
    nan.amplitudes[0] = math.nan
    for state in (drifted, nan):
        with pytest.raises(RuntimeError):
            check_norm(state)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
    gates=st.integers(min_value=1, max_value=8),
)
def test_random_gate_sequences_preserve_norm(n, seed, gates):
    rng = np.random.default_rng(seed)
    state = prepare_singlet_head(n)
    for _ in range(gates):
        i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
        apply_two_site(state, int(i), int(j), random_unitary(rng))
    assert abs(norm(state) - 1.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(min_value=-10, max_value=10),
    phi=st.floats(min_value=-10, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_exchange_and_phase_gates_conserve_magnetization(theta, phi, seed):
    rng = np.random.default_rng(seed)
    n = 5
    bits = [int(b) for b in rng.integers(0, 2, size=n)]
    state = basis_state(n, bits)
    apply_two_site(state, 2, 3, exchange_unitary(theta))
    apply_single_site_phase(state, 4, phi)
    apply_two_site(state, 1, 4, exchange_unitary(theta / 3))
    expected = sum(0.5 if b == 0 else -0.5 for b in bits)
    assert abs(total_sz(state) - expected) < 1e-10


def test_gate_locality_identity_tensor_phase():
    # a gate acting as identity x phase on (i, j) must leave the
    # marginal of every outside site unchanged
    rng = np.random.default_rng(9)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = StateVector(4, amps.copy())
    u = np.diag(np.exp(1j * np.array([0.3, 0.3, 1.1, 1.1])))  # phase on site 2 only
    apply_two_site(state, 2, 3, u)

    def site_marginal(vec, site):
        view = vec.reshape(1 << (site - 1), 2, -1)
        return np.array([np.sum(np.abs(view[:, b, :]) ** 2) for b in (0, 1)])

    for site in (1, 4):
        assert np.allclose(site_marginal(state.amplitudes, site), site_marginal(amps, site))
