import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echochain.statevec import (
    SINGLET,
    exchange_unitary,
    exchange_unitary_reference,
    heisenberg_pair_coupling,
)
from echochain.trotter import (
    DELTA_EPS,
    EPS_SINGLET,
    EPS_TRIPLET,
    afm_duration_for_fm,
    wrap_period,
)

TRIPLET_ZERO = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def test_spectral_constants():
    w = np.linalg.eigvalsh(heisenberg_pair_coupling())
    assert np.allclose(np.sort(w), [EPS_SINGLET, EPS_TRIPLET, EPS_TRIPLET, EPS_TRIPLET])
    assert DELTA_EPS == EPS_SINGLET - EPS_TRIPLET == -1.0


class TestExchangeUnitary:
    def test_zero_angle_is_identity(self):
        assert np.allclose(exchange_unitary(0.0), np.eye(4))

    def test_full_wrap_is_minus_i_identity(self):
        assert np.allclose(exchange_unitary(2 * math.pi), -1j * np.eye(4), atol=1e-12)

    def test_pi_swaps_with_phase(self):
        ket01 = np.array([0, 1, 0, 0], dtype=complex)
        result = exchange_unitary(math.pi) @ ket01
        expected = np.exp(0.25j * math.pi) * (-1j) * np.array([0, 0, 1, 0])
        assert np.allclose(result, expected, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.37, -1.2, math.pi, 2 * math.pi, 17.5])
    def test_matches_eigendecomposition_oracle(self, theta):
        dev = np.max(np.abs(exchange_unitary(theta) - exchange_unitary_reference(theta)))
        assert dev < 1e-12

    def test_singlet_and_triplet_eigenphases(self):
        theta = 1.234
        u = exchange_unitary(theta)
        assert np.allclose(u @ SINGLET, np.exp(0.75j * theta) * SINGLET, atol=1e-12)
        assert np.allclose(u @ TRIPLET_ZERO, np.exp(-0.25j * theta) * TRIPLET_ZERO, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            exchange_unitary(float("nan"))
        with pytest.raises(ValueError):
            exchange_unitary(float("inf"))


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(min_value=-30, max_value=30))
def test_periodicity(theta):
    lhs = exchange_unitary(theta + 2 * math.pi)
    rhs = -1j * exchange_unitary(theta)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    theta1=st.floats(min_value=-15, max_value=15),
    theta2=st.floats(min_value=-15, max_value=15),
)
def test_group_law(theta1, theta2):
    product = exchange_unitary(theta1) @ exchange_unitary(theta2)
    assert np.max(np.abs(product - exchange_unitary(theta1 + theta2))) < 1e-12


class TestDurationMapping:
    def test_quarter_period(self):
        assert afm_duration_for_fm(math.pi / 2, 1.0, 1.0) == pytest.approx(1.5 * math.pi)

    def test_zero_time_maps_to_full_wrap(self):
        assert afm_duration_for_fm(0.0, 1.0, 1.0) == pytest.approx(2 * math.pi)

    def test_stronger_pulse_is_shorter(self):
        assert afm_duration_for_fm(math.pi, 2.0, 1.0) == pytest.approx(math.pi / 2)

    def test_rejects_out_of_period_times(self):
        with pytest.raises(ValueError):
            afm_duration_for_fm(2 * math.pi + 0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            afm_duration_for_fm(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            afm_duration_for_fm(1.0, 0.0, 1.0)

    def test_period_boundary_is_allowed(self):
        assert afm_duration_for_fm(2 * math.pi, 1.0, 1.0) == pytest.approx(0.0)


# the smallest coupling whose wrap period 2*pi / (j |delta eps|) is finite
WEAKEST_J = 3.49513784379046e-308


class TestWrapPeriod:
    def test_weakest_coupling_has_a_finite_period(self):
        assert math.isfinite(wrap_period(WEAKEST_J))
        assert afm_duration_for_fm(0.0, WEAKEST_J, WEAKEST_J) == wrap_period(WEAKEST_J)

    @pytest.mark.parametrize("j", [float(np.nextafter(WEAKEST_J, 0.0)), 3e-308, 5e-324])
    def test_overflowing_period_is_rejected(self, j):
        with pytest.raises(ValueError, match="wrap period overflows"):
            wrap_period(j)

    @pytest.mark.parametrize("j", [0.0, -1.0])
    def test_rejects_nonpositive_coupling(self, j):
        with pytest.raises(ValueError):
            wrap_period(j)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    j_afm=st.floats(min_value=0.3, max_value=3.0),
    j_fm=st.floats(min_value=0.3, max_value=3.0),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_pulse_equivalence_up_to_global_phase(seed, j_afm, j_fm, fraction):
    # mapped antiferromagnetic pulse vs exact ferromagnetic evolution
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    t = fraction * wrap_period(j_fm)
    t_prime = afm_duration_for_fm(t, j_afm, j_fm)
    pulsed = exchange_unitary(j_afm * t_prime) @ psi
    w, v = np.linalg.eigh(heisenberg_pair_coupling())
    ferromagnetic = (v * np.exp(1j * j_fm * t * w)) @ v.conj().T @ psi
    assert abs(abs(np.vdot(pulsed, ferromagnetic)) - 1.0) < 1e-10
