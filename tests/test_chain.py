import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echochain.chain import ChainSpec, transfer_chain, uniform_echo_chain
from echochain.gates import SINGLET
from echochain.statevec import (
    ResourceLimitError,
    StateVector,
    dense_hamiltonian,
    exact_evolve,
    pair_projection_fidelity,
    prepare_singlet_head,
)
from echochain.trotter import bond_groups


class TestUniformEchoChain:
    def test_head_bond_is_off(self):
        assert np.allclose(uniform_echo_chain(4, 1.0).couplings, [0, 1, 1])

    def test_coupling_scale(self):
        assert np.allclose(uniform_echo_chain(3, 2.0).couplings, [0, 2])

    def test_long_chain(self):
        spec = uniform_echo_chain(10, 1.0)
        assert spec.couplings.shape == (9,)
        assert spec.couplings[0] == 0.0
        assert np.all(spec.couplings[1:] == 1.0)
        assert np.all(spec.fields == 0.0)

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            uniform_echo_chain(2, 1.0)


class TestTransferChain:
    def test_five_site_couplings(self):
        assert np.allclose(transfer_chain(5).couplings, [2, math.sqrt(6), math.sqrt(6), 2])

    def test_two_site_chain(self):
        spec = transfer_chain(2)
        assert np.allclose(spec.couplings, [1.0])
        assert np.allclose(spec.fields, [0.5, 0.5])

    def test_three_site_fields(self):
        spec = transfer_chain(3)
        assert np.allclose(spec.couplings, [math.sqrt(2), math.sqrt(2)])
        assert np.allclose(spec.fields, [math.sqrt(2) / 2, math.sqrt(2), math.sqrt(2) / 2])

    @pytest.mark.parametrize("n", [2, 3, 6, 9, 12])
    def test_mirror_symmetry(self, n):
        spec = transfer_chain(n)
        assert np.array_equal(spec.couplings, spec.couplings[::-1])
        assert np.array_equal(spec.fields, spec.fields[::-1])

    def test_sign_and_prefactor(self):
        spec = transfer_chain(4)
        assert spec.sign == "fm"
        assert spec.exchange_prefactor == 2.0


def partition(spec):
    """trotter's bond groups as 1-based bonds (i, i+1), odd then even."""
    groups = bond_groups(spec)
    return [[(i + 1, i + 2) for i in groups[group].tolist()] for group in ("odd", "even")]


class TestPartition:
    """The odd/even bond groups every Trotter layer and the mean-field
    pulse train read."""

    def test_echo_chain_five(self):
        assert partition(uniform_echo_chain(5, 1.0)) == [[(3, 4)], [(2, 3), (4, 5)]]

    def test_transfer_chain_four(self):
        assert partition(transfer_chain(4)) == [[(1, 2), (3, 4)], [(2, 3)]]

    def test_echo_chain_three_has_empty_odd_group(self):
        assert partition(uniform_echo_chain(3, 1.0)) == [[], [(2, 3)]]

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=2, max_value=12))
    def test_groups_are_disjoint_and_cover_nonzero_bonds(self, n):
        spec = transfer_chain(n)
        odd, even = partition(spec)
        for group in (odd, even):
            sites = [s for bond in group for s in bond]
            assert len(sites) == len(set(sites))
        assert sorted(odd + even) == [
            (i, i + 1) for i in range(1, n) if spec.couplings[i - 1] != 0
        ]


def total_sz_matrix(n):
    dim = 1 << n
    idx = np.arange(dim)
    diag = np.zeros(dim)
    for site in range(1, n + 1):
        bit = (idx >> (n - site)) & 1
        diag += np.where(bit == 0, 0.5, -0.5)
    return np.diag(diag)


class TestDenseHamiltonian:
    def test_two_spin_antiferromagnet_spectrum(self):
        spec = ChainSpec(2, [1.0], [0.0, 0.0], sign="afm")
        w = np.linalg.eigvalsh(dense_hamiltonian(spec))
        assert np.allclose(np.sort(w), [-0.75, 0.25, 0.25, 0.25])

    def test_two_spin_ferromagnet_spectrum(self):
        spec = ChainSpec(2, [1.0], [0.0, 0.0], sign="fm")
        w = np.linalg.eigvalsh(dense_hamiltonian(spec))
        assert np.allclose(np.sort(w), [-0.25, -0.25, -0.25, 0.75])

    def test_transfer_two_site_singlet_eigenvalue(self):
        h = dense_hamiltonian(transfer_chain(2))
        assert np.allclose(h @ SINGLET, 1.5 * SINGLET)

    @pytest.mark.parametrize(
        "spec", [uniform_echo_chain(5, 1.3), transfer_chain(5), transfer_chain(6)]
    )
    def test_hermitian_and_sz_commuting(self, spec):
        h = dense_hamiltonian(spec)
        assert np.max(np.abs(h - h.T)) < 1e-12
        sz = total_sz_matrix(spec.n)
        assert np.max(np.abs(h @ sz - sz @ h)) < 1e-10

    def test_resource_limit(self):
        spec = ChainSpec(15, np.ones(14), np.zeros(15))
        with pytest.raises(ResourceLimitError):
            dense_hamiltonian(spec)


class TestExactEvolve:
    def test_zero_time(self):
        spec = uniform_echo_chain(4, 1.0)
        state = prepare_singlet_head(4)
        evolved = exact_evolve(spec, state, 0.0)
        assert np.allclose(evolved.amplitudes, state.amplitudes)

    def test_two_spin_wrap_gives_global_phase(self):
        spec = ChainSpec(2, [1.0], [0.0, 0.0], sign="afm")
        state = prepare_singlet_head(2)
        evolved = exact_evolve(spec, state, 2 * math.pi)
        assert np.vdot(state.amplitudes, evolved.amplitudes) == pytest.approx(-1j, abs=1e-10)

    def test_transfer_singlet_is_stationary_for_two_sites(self):
        spec = transfer_chain(2)
        state = prepare_singlet_head(2)
        evolved = exact_evolve(spec, state, 0.9)
        assert np.vdot(state.amplitudes, evolved.amplitudes) == pytest.approx(
            np.exp(-1.5j * 0.9), abs=1e-10
        )
        assert pair_projection_fidelity(evolved, (1, 2), SINGLET) == pytest.approx(1.0)

    def test_unitarity_preserves_inner_products(self):
        rng = np.random.default_rng(21)
        spec = transfer_chain(4)

        def random_state():
            a = rng.normal(size=16) + 1j * rng.normal(size=16)
            return StateVector(4, a / np.linalg.norm(a))

        a, b = random_state(), random_state()
        before = np.vdot(a.amplitudes, b.amplitudes)
        after = np.vdot(exact_evolve(spec, a, 1.7).amplitudes, exact_evolve(spec, b, 1.7).amplitudes)
        assert abs(after - before) < 1e-10


def test_exact_evolve_matches_complex_product():
    # the oracle multiplies real and imaginary parts apart; check it
    # against the plain complex product on a state with both parts
    rng = np.random.default_rng(8)
    spec = transfer_chain(7)
    amplitudes = rng.normal(size=128) + 1j * rng.normal(size=128)
    state = StateVector(7, amplitudes / np.linalg.norm(amplitudes))
    w, v = np.linalg.eigh(dense_hamiltonian(spec))
    for t in (0.0, 0.9, -2.3):
        reference = v @ (np.exp(-1j * w * t) * (v.T @ state.amplitudes))
        assert np.max(np.abs(exact_evolve(spec, state, t).amplitudes - reference)) <= 1e-12


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(3, [1.0], [0, 0, 0])  # wrong coupling count
    with pytest.raises(ValueError):
        ChainSpec(3, [-1.0, 1.0], [0, 0, 0])  # negative coupling
    with pytest.raises(ValueError):
        ChainSpec(3, [1.0, 1.0], [0, 0, 0], sign="sideways")
