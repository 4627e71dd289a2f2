import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from echochain import meanfield
from echochain.chain import uniform_echo_chain
from echochain.echo import EchoConfig
from echochain.meanfield import (
    SCHEDULE_CONTINUOUS,
    SCHEDULE_MIRRORED,
    IntegratorConfig,
    meanfield_echo_curve,
)
from echochain.gates import SINGLET
from echochain.trotter import batch_plan
from pinned import pinned


# The general spinor integrator: any product state of the head pair
# and (n - 2) spinors, any fields.  Production advances only the echo
# state's n live amplitudes; this is the oracle it must match bit for
# bit, and the kernel for the tests that leave the echo state.

def initial_slots(n: int) -> np.ndarray:
    """The echo's initial state as n spinors, (n, 2): slots 0 and 1 are
    the singlet head pair's rows (p00, p01) and (p10, p11), each acted
    on at site 2's index, and slot k >= 2 is site k+1, spin up."""
    slots = np.zeros((n, 2), dtype=complex)
    slots[:2] = SINGLET.reshape(2, 2)
    slots[2:, 0] = 1.0
    return slots


def reference_site_fields(psi: np.ndarray, js: np.ndarray) -> np.ndarray:
    """Mean field on sites 2..n, (rows, n-1, 3), for a batch of slot
    arrays psi (rows, n, 2).  js (rows, n) holds each row's signed
    couplings, js[:, i] = sign * J_(i+1, i+2), with a zero bond past
    the last site."""
    rows, n, _ = psi.shape
    z = (psi[..., 0].conj() * psi[..., 1]).view(float).reshape(rows, n, 2)
    w = np.abs(psi) ** 2
    # <S> per site, padded with a zero spin for site 1, which couples to
    # nothing (the (1,2) bond is off), and one past the last site.  The
    # pair's <S_2> sums its two rows, in the order of
    # rho2 = p00 p01* + p10 p11* and 0.5 (w00 + w10 - w01 - w11).
    s_exp = np.zeros((rows, n + 1, 3))
    s_exp[:, 1, :2] = z[:, 0] + z[:, 1]
    s_exp[:, 1, 2] = 0.5 * (w[:, 0, 0] + w[:, 1, 0] - w[:, 0, 1] - w[:, 1, 1])
    s_exp[:, 2:n, :2] = z[:, 2:]
    s_exp[:, 2:n, 2] = 0.5 * (w[:, 2:, 0] - w[:, 2:, 1])
    j = js[:, :, None]
    # each site's right neighbor first, then its left one
    return j[:, 1:] * s_exp[:, 2:] + j[:, :-1] * s_exp[:, :-2]


_PLUS_MINUS = np.array([1.0, -1.0])


def reference_derivative(psi: np.ndarray, js: np.ndarray) -> np.ndarray:
    """d psi / dt = -i/2 (h . sigma) psi for every slot; both pair rows
    see site 2's field.  A slot (a, b) gets -i/2 times
    (hz a + (hx - i hy) b, (hx + i hy) a - hz b)."""
    h = reference_site_fields(psi, js)
    h = np.concatenate((h[:, :1], h), axis=1)
    hz = h[..., 2:] * _PLUS_MINUS
    transverse = h[..., :1] - 1j * (h[..., 1:2] * _PLUS_MINUS)
    d = hz * psi + transverse * psi[..., ::-1]
    d *= -0.5j
    return d


def reference_rk4_update(psi: np.ndarray, js: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """One RK4 step of every row, each with its own signed couplings and
    step dt (rows,), then renormalization of the pair and each spinor."""
    dt = dt[:, None, None]
    half = 0.5 * dt
    k1 = reference_derivative(psi, js)
    k2 = reference_derivative(psi + half * k1, js)
    k3 = reference_derivative(psi + half * k2, js)
    k4 = reference_derivative(psi + dt * k3, js)
    new = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    # Both norms are np.linalg.norm's.  A whole vector's is a BLAS dot
    # of the real parts plus one of the imaginary parts, here taken row
    # by row through matmul with the same strides; a norm along an axis
    # sums (x* x).real.
    pair = new[:, :2].reshape(-1, 1, 4)
    re, im = pair.real, pair.imag
    new[:, :2] /= np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))
    spins = new[:, 2:]
    spins /= np.sqrt(np.add.reduce((spins.conj() * spins).real, axis=2, keepdims=True))
    return new


def off_slot_amplitudes(slots: np.ndarray) -> np.ndarray:
    """p00, p11 and every later site's down amplitude of (n, 2) slots:
    the entries the echo state keeps at 0."""
    return np.concatenate(([slots[0, 0], slots[1, 1]], slots[2:, 1]))


def reference_echo(n, j, t, integrator, schedule, n_steps, sign_convention):
    """One grid point of `meanfield_echo_curve` on the reference kernel:
    the same drive segments, one row.  Returns (fidelity, final slots,
    largest |off-slot amplitude| seen after any step)."""
    segments = meanfield._row_segments(
        uniform_echo_chain(n, j), t, schedule, n_steps, sign_convention, integrator.dt / j
    )
    psi = initial_slots(n)[None]
    off = 0.0
    for steps, step, js in segments:
        for _ in range(steps):
            psi = reference_rk4_update(psi, js[None], np.array([step]))
            off = max(off, float(np.max(np.abs(off_slot_amplitudes(psi[0])))))
    slots = psi[0]
    return float(abs(np.vdot(SINGLET, slots[:2].reshape(4))) ** 2), slots, off


def site_fields(slots, couplings, sign):
    """Mean fields on sites 2..n of one (n, 2) slot array, (n-1, 3)."""
    js = meanfield._signed_couplings(np.asarray(couplings, dtype=float), sign)
    return reference_site_fields(slots[None], js[None])[0]


def rk4_step(slots, couplings, sign, dt):
    """One RK4 step of one (n, 2) slot array."""
    js = meanfield._signed_couplings(np.asarray(couplings, dtype=float), sign)
    return reference_rk4_update(slots[None], js[None], np.array([dt]))[0]


def spin_expectation(spinor):
    """<S> = (<Sx>, <Sy>, <Sz>) of a normalized single-spin state."""
    a, b = spinor
    z = np.conj(a) * b
    return np.array([z.real, z.imag, 0.5 * (abs(a) ** 2 - abs(b) ** 2)])


def pair_site_expectations(pair):
    """(<S_1>, <S_2>) from the reduced states of the head pair."""
    m = np.asarray(pair, dtype=complex).reshape(2, 2)
    rho1 = np.einsum("aq,bq->ab", m, m.conj())
    rho2 = np.einsum("qa,qb->ab", m, m.conj())

    def bloch(rho):
        return 0.5 * np.array(
            [2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real]
        )

    return bloch(rho1), bloch(rho2)


def precession_slots(n=3):
    """Echo chain with site 3 tipped to +x.  At n = 3 the pair sees a
    constant x field while site 3 stays frozen (its own field is zero)."""
    slots = initial_slots(n)
    slots[2] = np.array([1.0, 1.0]) / math.sqrt(2)
    return slots


def precession_oracle(t):
    """Closed form for the pair under the unit x field on site 2."""
    u = math.cos(t / 2) * np.eye(2) - 1j * math.sin(t / 2) * np.array([[0, 1], [1, 0]])
    return np.kron(np.eye(2), u) @ SINGLET


def pair_state(slots):
    return slots[:2].reshape(4)


class TestMeanFields:
    def test_initial_echo_fields(self):
        h = site_fields(initial_slots(6), uniform_echo_chain(6, 1.0).couplings, 1.0)
        assert np.allclose(h[0], [0, 0, 0.5])    # site 2: J <S_3>
        assert np.allclose(h[1], [0, 0, 0.5])    # site 3: J <S_2> + J <S_4>, <S_2>=0
        assert np.allclose(h[2], [0, 0, 1.0])    # two up neighbors
        assert np.allclose(h[4], [0, 0, 0.5])    # end site, one neighbor

    def test_zero_couplings_give_zero_fields(self):
        h = site_fields(initial_slots(4), np.zeros(3), 1.0)
        assert np.allclose(h, 0.0)

    def test_sign_flip_negates(self):
        couplings = uniform_echo_chain(5, 1.3).couplings
        slots = precession_slots(5)
        assert np.allclose(
            site_fields(slots, couplings, 1.0), -site_fields(slots, couplings, -1.0)
        )


class TestRk4:
    def test_zero_fields_leave_state(self):
        slots = initial_slots(4)
        stepped = rk4_step(slots, np.zeros(3), 1.0, 1e-2)
        assert np.allclose(stepped, slots)

    def test_precession_matches_closed_form(self):
        couplings = uniform_echo_chain(3, 2.0).couplings
        slots = precession_slots()
        dt = 1e-2
        for _ in range(100):
            slots = rk4_step(slots, couplings, 1.0, dt)
        assert np.max(np.abs(pair_state(slots) - precession_oracle(1.0))) < 1e-8

    def test_global_error_is_fourth_order(self):
        couplings = uniform_echo_chain(3, 2.0).couplings

        def error(dt):
            slots = precession_slots()
            for _ in range(round(1.0 / dt)):
                slots = rk4_step(slots, couplings, 1.0, dt)
            return float(np.max(np.abs(pair_state(slots) - precession_oracle(1.0))))

        ratio = error(0.02) / error(0.01)
        assert 12.0 <= ratio <= 20.0

    def test_norm_drift_stays_tiny(self):
        couplings = uniform_echo_chain(3, 2.0).couplings
        slots = precession_slots()
        for _ in range(10_000):
            slots = rk4_step(slots, couplings, 1.0, 1e-3)
        assert abs(np.linalg.norm(pair_state(slots)) - 1.0) < 1e-8
        assert abs(np.linalg.norm(slots[2]) - 1.0) < 1e-8


CONTINUOUS_GRID = [0.5, 1.5, 3.0]


@pytest.fixture(scope="module")
def continuous_curve():
    results = meanfield_echo_curve(
        6, 1.0, CONTINUOUS_GRID, IntegratorConfig(dt=2e-3), schedule=SCHEDULE_CONTINUOUS
    )
    return dict(zip(CONTINUOUS_GRID, results))


class TestEchoSchedules:
    def test_zero_time_revives(self):
        for schedule in (SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED):
            result = meanfield_echo_curve(5, 1.0, [0.0], schedule=schedule)[0]
            assert result[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("t", CONTINUOUS_GRID)
    def test_continuous_schedule_self_cancels(self, t, continuous_curve):
        result = continuous_curve[t]
        assert result[0] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n_steps,expected", [(1, 0.0), (2, 1.0), (3, 0.0)])
    def test_mirrored_pulses_follow_step_parity(self, n_steps, expected):
        # the pulse train rotates site 2 by N*pi in total, so the
        # revival is cos^2(N*pi/2) independent of t
        result = meanfield_echo_curve(
            5, 1.0, [0.8], IntegratorConfig(dt=2e-3),
            schedule=SCHEDULE_MIRRORED, n_steps=n_steps,
        )[0]
        assert result[0] == pytest.approx(expected, abs=1e-8)

    def test_step_size_convergence(self):
        coarse = meanfield_echo_curve(
            6, 1.0, [1.0], IntegratorConfig(dt=2e-3), schedule=SCHEDULE_MIRRORED
        )[0]
        fine = meanfield_echo_curve(
            6, 1.0, [1.0], IntegratorConfig(dt=1e-3), schedule=SCHEDULE_MIRRORED
        )[0]
        assert abs(coarse[0] - fine[0]) < 1e-6

    def test_sign_conventions_agree_for_this_initial_state(self):
        kwargs = dict(schedule=SCHEDULE_MIRRORED, n_steps=1)
        config = IntegratorConfig(dt=2e-3)
        minus = meanfield_echo_curve(5, 1.0, [1.0], config, sign_convention=-1, **kwargs)[0]
        plus = meanfield_echo_curve(5, 1.0, [1.0], config, sign_convention=1, **kwargs)[0]
        assert minus[0] == pytest.approx(plus[0], abs=1e-10)

    def test_runs_are_bit_identical(self):
        a = meanfield_echo_curve(5, 1.0, [1.3], schedule=SCHEDULE_MIRRORED)[0]
        b = meanfield_echo_curve(5, 1.0, [1.3], schedule=SCHEDULE_MIRRORED)[0]
        assert a[0] == b[0]

    def test_bloch_lengths_and_pair_marginal_conserved(self):
        result = meanfield_echo_curve(
            7, 1.0, [2.0], IntegratorConfig(dt=2e-3), schedule=SCHEDULE_MIRRORED
        )[0]
        final = result[1]
        for spinor in final[2:]:
            assert abs(np.linalg.norm(spin_expectation(spinor)) - 0.5) < 1e-6
        _, s2 = pair_site_expectations(pair_state(final))
        assert np.linalg.norm(s2) < 1e-6


@pytest.mark.parametrize("n,j,t,steps", [
    (3, 1.0, 1.0, 2), (4, 1.0, 0.8, 1), (5, 0.7, 2.9, 3), (7, 1.3, 3.0, 2),
])
@pytest.mark.parametrize("sign_convention", [-1, 1])
def test_mirrored_pulse_train_is_the_echo_forward_leg(n, j, t, steps, sign_convention):
    # each forward pulse turns its bond group by the angle the echo's
    # simulated-ferromagnet plan gives that layer, bit for bit, and each
    # backward pulse lasts tau / divisor
    split, spec, mode = EchoConfig(n=n, t=t, n_steps=steps, j=j).legs()[0]
    plan = batch_plan(split, [(spec, t, steps, 1)], mode)
    columns = np.cumsum([0] + [layer.width for layer in plan.layers]).tolist()
    layers = [(np.arange(n)[layer.left].tolist(), plan.angles[0, start:stop].tolist())
              for layer, start, stop in zip(plan.layers, columns, columns[1:])]
    segments = list(meanfield._schedule_segments(
        spec, t, SCHEDULE_MIRRORED, steps, sign_convention
    ))
    assert len(segments) == 2 * steps * len(split)
    forward, backward = segments[:steps * len(split)], segments[steps * len(split):]
    for step in range(steps):
        pulses = []
        for duration, js in forward[step * len(split):(step + 1) * len(split)]:
            bonds = np.flatnonzero(js).tolist()
            if bonds:
                assert np.array_equal(js[bonds], np.full(len(bonds), -sign_convention * j))
                pulses.append((bonds, [j * duration] * len(bonds)))
        assert pulses == layers
    for k, (duration, _) in enumerate(backward):
        assert duration == t / steps / split[k % len(split)][1]


def test_validation():
    with pytest.raises(ValueError):
        meanfield_echo_curve(5, 1.0, [1.0], schedule="sideways")
    with pytest.raises(ValueError):
        meanfield_echo_curve(5, 1.0, [1.0], sign_convention=0)
    with pytest.raises(ValueError):
        meanfield_echo_curve(5, 1.0, [-1.0])
    for t in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="leg duration"):
            meanfield_echo_curve(5, 1.0, [1.0, t])
    for schedule in (SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED):
        for j in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="coupling"):
                meanfield_echo_curve(5, j, [1.0], schedule=schedule)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=math.nan)


@pytest.mark.parametrize("schedule,grid,dt,n_steps", [
    (SCHEDULE_CONTINUOUS, [1e300], 1e-3, 1),
    (SCHEDULE_CONTINUOUS, [0.0, 1.0], 1e-300, 1),
    (SCHEDULE_CONTINUOUS, [1e300], 1e-300, 1),   # 2t / dt is inf
    (SCHEDULE_MIRRORED, [0.0, 1.0], 1e-300, 1),
    # the pulse train takes about 6*pi*N / dt steps, whatever t
    (SCHEDULE_MIRRORED, [1.0], 1e-5, 200),
])
def test_pass_past_the_step_budget_raises_before_any_step(monkeypatch, schedule, grid, dt,
                                                          n_steps):
    def no_step(*args):
        raise AssertionError("an RK4 step ran before the budget was checked")

    monkeypatch.setattr(meanfield, "_rk4_update", no_step)
    with pytest.raises(ValueError, match="budget"):
        meanfield_echo_curve(5, 1.0, grid, IntegratorConfig(dt=dt), schedule=schedule,
                             n_steps=n_steps)


def test_pass_at_the_step_budget_is_planned():
    # the continuous schedule's row takes 2 ceil(t / dt) steps
    spec = uniform_echo_chain(5, 1.0)
    half = meanfield.MAX_PASS_STEPS // 2
    segments = meanfield._row_segments(spec, half * 0.5, SCHEDULE_CONTINUOUS, 1, -1, 0.5)
    assert sum(steps for steps, _, _ in segments) == meanfield.MAX_PASS_STEPS
    with pytest.raises(meanfield.StepBudgetError):
        meanfield._row_segments(spec, (half + 1) * 0.5, SCHEDULE_CONTINUOUS, 1, -1, 0.5)


# the smallest coupling `gates.wrap_period` accepts (tests/test_gates.py)
WEAKEST_J = 3.49513784379046e-308


def final_state_digest(result) -> str:
    """First 16 hex digits of the sha256 of a row's final state (the
    head pair's four amplitudes, then each later site's spinor), with
    signed zeros folded to +0."""
    values = result[1].ravel() + 0.0
    return hashlib.sha256(values.tobytes()).hexdigest()[:16]


# Fidelity reprs and final-state digests of the per-point integrator
# that the batched pass replaced, one grid point per call.  The step
# count does not enter the continuous schedule.
GOLDEN_GRID = [1.2, 0.0, 0.45, 1.2, 2.0]   # unsorted, with t = 0 and a repeat
GOLDEN_ZERO = ("0.9999999999999996", "6471e1e2797cf9e1")
GOLDEN_CURVES = {
    (SCHEDULE_CONTINUOUS, -1, None): (
        ["1.0", "1.0", "1.0", "1.0"],
        ["6e8e6e4c957bdc32", "c789ce853e302e98", "6e8e6e4c957bdc32", "073652285428aa40"],
    ),
    (SCHEDULE_CONTINUOUS, 1, None): (
        ["1.0", "1.0", "1.0", "1.0"],
        ["43e45fa9b0e7efbb", "8d4016c3d9d74b35", "43e45fa9b0e7efbb", "a8490e5d6b67503a"],
    ),
    (SCHEDULE_MIRRORED, -1, 1): (
        ["1.00915719510263e-27", "1.0727884143277825e-27", "1.00915719510263e-27",
         "9.483870433398017e-28"],
        ["11f2748b51590584", "ba0d1e9765b38b4a", "11f2748b51590584", "b715606c0ba0e926"],
    ),
    (SCHEDULE_MIRRORED, -1, 2): (
        ["1.0", "1.0", "1.0", "1.0"],
        ["15135ab655d3ae93", "34d13279f3c81667", "15135ab655d3ae93", "3de322ae3404c1dd"],
    ),
    (SCHEDULE_MIRRORED, -1, 3): (
        ["8.945053259924066e-27", "9.17203348673654e-27", "8.945053259924066e-27",
         "8.803703197705955e-27"],
        ["3ac7ebe7b672091c", "cfd6db645ce765a0", "3ac7ebe7b672091c", "485c9ff7355f6a7b"],
    ),
    (SCHEDULE_MIRRORED, 1, 1): (
        ["1.00915719510263e-27", "1.0727884143277825e-27", "1.00915719510263e-27",
         "9.483870433398017e-28"],
        ["65fff6e1f21b4006", "9b48e852d906ed7f", "65fff6e1f21b4006", "6031c5faa31c25bd"],
    ),
    (SCHEDULE_MIRRORED, 1, 2): (
        ["1.0", "1.0", "1.0", "1.0"],
        ["7f5e388069b7fd10", "48f163f81b2a5fa9", "7f5e388069b7fd10", "7ec049428072af27"],
    ),
    (SCHEDULE_MIRRORED, 1, 3): (
        ["8.945053259924066e-27", "9.17203348673654e-27", "8.945053259924066e-27",
         "8.803703197705955e-27"],
        ["27d4776a9fed3b1e", "558a165e3ef78493", "27d4776a9fed3b1e", "fc85350da6f12769"],
    ),
}


class TestGoldenBits:
    def test_benchmark_rows(self):
        # the three mean-field rows of the benchmark's meanfield-curve command
        results = meanfield_echo_curve(
            10, 1.0, [0.0, 1.5, 3.0], IntegratorConfig(dt=1e-3),
            schedule=SCHEDULE_MIRRORED, n_steps=1, sign_convention=-1,
        )
        assert [[repr(r[0]) for r in results],
                [final_state_digest(r) for r in results]] == pinned("benchmark_rows", [
            ["0.9999999999999996", "7.965018492856671e-30", "3.89986276350249e-32"],
            ["0d37a12da78c79e7", "aa8e39e0f80473b3", "1fa470f2aa59edec"],
        ])

    @pytest.mark.parametrize("n_steps", [1, 2, 3])
    @pytest.mark.parametrize("sign_convention", [-1, 1])
    @pytest.mark.parametrize("schedule", [SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED])
    def test_cheap_grid(self, schedule, sign_convention, n_steps):
        key = (schedule, sign_convention, n_steps if schedule == SCHEDULE_MIRRORED else None)
        fidelities, digests = GOLDEN_CURVES[key]
        results = meanfield_echo_curve(
            5, 1.0, GOLDEN_GRID, IntegratorConfig(dt=5e-3),
            schedule=schedule, n_steps=n_steps, sign_convention=sign_convention,
        )
        zero = results.pop(1)
        assert [repr(zero[0]), final_state_digest(zero)] == pinned("cheap_grid zero",
                                                                   list(GOLDEN_ZERO))
        assert [[repr(r[0]) for r in results], [final_state_digest(r) for r in results]] == \
            pinned("cheap_grid {} {} {}".format(*key), [fidelities, digests])

    @pytest.mark.parametrize(
        "n,j,grid,schedule,n_steps,sign_convention,fidelities,digests",
        [
            (6, 1.3, [2.1, 0.7], SCHEDULE_MIRRORED, 3, 1,
             ["9.588226788321588e-27", "9.493244835079475e-27"],
             ["cb41bd71be9a13b0", "ccaaabe9b1776542"]),
            (7, 0.8, [0.9, 2.5], SCHEDULE_CONTINUOUS, 1, -1,
             ["1.0", "1.0"], ["08e75a8c84e50ff7", "6a56b6156913096e"]),
        ],
    )
    def test_other_chains(self, n, j, grid, schedule, n_steps, sign_convention,
                          fidelities, digests):
        results = meanfield_echo_curve(
            n, j, grid, IntegratorConfig(dt=5e-3),
            schedule=schedule, n_steps=n_steps, sign_convention=sign_convention,
        )
        assert [[repr(r[0]) for r in results], [final_state_digest(r) for r in results]] == \
            pinned(f"other_chains n={n}", [fidelities, digests])


class TestReferenceKernel:
    """The production kernel against the general spinor integrator,
    bit for bit, over the same drive segments.  Coarse steps keep the
    one-row reference passes cheap; the bits must agree at any dt."""

    @seed(20240611)
    @settings(max_examples=24, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=12),
        j=st.floats(min_value=0.3, max_value=3.0),
        dt=st.floats(min_value=0.04, max_value=0.2),
        schedule=st.sampled_from([SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED]),
        sign_convention=st.sampled_from([-1, 1]),
        n_steps=st.integers(min_value=1, max_value=3),
        fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5),
    )
    def test_curve_matches_reference_bits(
        self, n, j, dt, schedule, sign_convention, n_steps, fractions
    ):
        # the mirrored pulse train fits each step's slice into one wrap
        # period, 2*pi / j
        grid = [f * min(2.5, n_steps * 2 * math.pi / j) for f in fractions]
        config = IntegratorConfig(dt=dt)
        results = meanfield_echo_curve(
            n, j, grid, config, schedule=schedule, n_steps=n_steps,
            sign_convention=sign_convention,
        )
        for t, result in zip(grid, results):
            fidelity, slots, off = reference_echo(
                n, j, t, config, schedule, n_steps, sign_convention
            )
            assert off == 0.0
            assert repr(result[0]) == repr(fidelity)
            assert final_state_digest(result) == final_state_digest((fidelity, slots))

    @pytest.mark.parametrize("schedule", [SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED])
    @pytest.mark.parametrize("sign_convention", [-1, 1])
    def test_weakest_coupling_matches_reference_bits(self, schedule, sign_convention):
        # the intermediate products of every step go subnormal here
        config = IntegratorConfig(dt=0.05)
        grid = [0.7, 2.5]
        results = meanfield_echo_curve(
            5, WEAKEST_J, grid, config, schedule=schedule, n_steps=2,
            sign_convention=sign_convention,
        )
        for t, result in zip(grid, results):
            fidelity, slots, off = reference_echo(
                5, WEAKEST_J, t, config, schedule, 2, sign_convention
            )
            assert off == 0.0
            assert repr(result[0]) == repr(fidelity)
            assert final_state_digest(result) == final_state_digest((fidelity, slots))

    @seed(20261019)
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=12),
        rows=st.integers(min_value=1, max_value=6),
        scale=st.sampled_from([1.0, 1e-300, WEAKEST_J]),
        draws=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_one_step_matches_reference_bits(self, n, rows, scale, draws):
        # any echo-shaped live amplitudes, any signed couplings with the
        # (1,2) bond off and some others off too, each row its own step
        rng = np.random.default_rng(draws)
        live = rng.uniform(0.05, 1.0, (rows, n)) * np.exp(2j * np.pi * rng.random((rows, n)))
        psi = np.zeros((rows, n, 2), dtype=complex)
        psi[:, 0, 1], psi[:, 1:, 0] = live[:, 0], live[:, 1:]
        couplings = scale * rng.uniform(0.0, 3.0, (rows, n - 1)) * (rng.random((rows, n - 1)) < 0.7)
        couplings[:, 0] = 0.0
        js = np.array([
            meanfield._signed_couplings(row, sign)
            for row, sign in zip(couplings, rng.choice([-1.0, 1.0], rows))
        ])
        dt = rng.uniform(1e-3, 0.3, rows) / scale
        expected = reference_rk4_update(psi, js, dt)
        c = np.ascontiguousarray(live.T)
        new = meanfield._rk4_update(c, meanfield._Epoch(np.ascontiguousarray(js.T), dt, c))
        assert (meanfield._slots(new) + 0.0).tobytes() == (expected + 0.0).tobytes()

    def test_step_refuses_an_array_its_epoch_was_not_built_for(self):
        c = np.repeat(meanfield._initial_amplitudes(5)[:, None], 2, axis=1)
        js = np.repeat(meanfield._signed_couplings(np.ones(4), -1.0)[:, None], 2, axis=1)
        epoch = meanfield._Epoch(js, np.array([0.1, 0.2]), c)
        for other in (c.copy(), c[:, :1], np.ascontiguousarray(c[:, ::-1])):
            before = other.copy()
            with pytest.raises(ValueError, match="built for another"):
                meanfield._rk4_update(other, epoch)
            assert other.tobytes() == before.tobytes()
        # the bound array itself still steps
        assert meanfield._rk4_update(c, epoch) is c

    @pytest.mark.parametrize("schedule", [SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED])
    @pytest.mark.parametrize("sign_convention", [-1, 1])
    def test_echo_state_keeps_off_slot_amplitudes_exactly_zero(self, schedule, sign_convention):
        # checked after every step of the general integrator: p00, p11
        # and every down amplitude stay 0.0, not merely small
        for n in (3, 4, 7):
            _, slots, off = reference_echo(
                n, 1.0, 1.3, IntegratorConfig(dt=0.05), schedule, 2, sign_convention
            )
            assert off == 0.0
            assert np.all(off_slot_amplitudes(slots) == 0.0)


class TestBatching:
    """Rows of one pass are independent: a row's bits depend only on its
    own leg duration.  A coarse dt keeps these cheap."""

    GRID = [0.9, 0.0, 0.3, 2.2, 0.9, 1.6]
    CONFIG = IntegratorConfig(dt=2e-2)

    def curve(self, grid, schedule):
        results = meanfield_echo_curve(5, 1.0, grid, self.CONFIG, schedule=schedule)
        return [(repr(r[0]), final_state_digest(r)) for r in results]

    @pytest.mark.parametrize("schedule", [SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED])
    def test_rows_equal_one_point_calls(self, schedule):
        single = [meanfield_echo_curve(5, 1.0, [t], self.CONFIG, schedule=schedule)[0]
                  for t in self.GRID]
        assert self.curve(self.GRID, schedule) == [
            (repr(r[0]), final_state_digest(r)) for r in single
        ]

    @pytest.mark.parametrize("schedule", [SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED])
    def test_permuting_or_splitting_the_grid_changes_no_row(self, schedule):
        rows = dict(zip(self.GRID, self.curve(self.GRID, schedule)))
        reordered = sorted(self.GRID, reverse=True)
        assert self.curve(reordered, schedule) == [rows[t] for t in reordered]
        head, tail = self.GRID[:2], self.GRID[2:]
        assert self.curve(head, schedule) + self.curve(tail, schedule) == [
            rows[t] for t in self.GRID
        ]

    def test_empty_grid(self):
        assert meanfield_echo_curve(5, 1.0, [], self.CONFIG) == []

    def test_rejects_bad_times(self):
        for bad in (-0.1, math.nan):
            with pytest.raises(ValueError):
                meanfield_echo_curve(5, 1.0, [0.5, bad], self.CONFIG)

    def test_pass_takes_the_longest_row_in_batched_steps(self, monkeypatch):
        calls = []
        kernel = meanfield._rk4_update

        def counted(c, epoch):
            # c is site-major, (sites, rows)
            assert c.shape[0] == 5
            calls.append(c.shape[1])
            return kernel(c, epoch)

        monkeypatch.setattr(meanfield, "_rk4_update", counted)
        meanfield_echo_curve(5, 1.0, [0.2, 0.0, 1.0], self.CONFIG)
        # continuous: 2t / dt steps; the t = 0 row is never driven
        assert len(calls) == 100
        assert calls.count(2) == 20 and calls.count(1) == 80


class TestClosedForm:
    """For this initial state <S_2> = 0 at all times, so every mean field
    stays along z and each spinor only gains phases.  The revival is then
    cos^2 of the pair's accumulated relative phase: N pi / 2 under the
    mirrored pulse train, zero under the continuous schedule.  Both hold
    at any step size (RK4's phase error enters the fidelity squared),
    so a coarse dt suffices."""

    GRID = [0.0, 0.4, 1.1, 2.5]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_revival_and_invariants(self, n, monkeypatch):
        worst = {"transverse": 0.0, "s2": 0.0}
        kernel = meanfield._rk4_update

        def checked(c, epoch):
            new = kernel(c, epoch)
            slots = meanfield._slots(new)
            a, b = slots[..., 0], slots[..., 1]
            z = a.conj() * b
            worst["transverse"] = max(worst["transverse"], float(np.max(np.abs(z[:, 2:]))))
            w = np.abs(slots[:, :2]) ** 2
            s2z = 0.5 * (w[:, 0, 0] + w[:, 1, 0] - w[:, 0, 1] - w[:, 1, 1])
            s2 = np.hypot(np.abs(z[:, 0] + z[:, 1]), s2z)
            worst["s2"] = max(worst["s2"], float(np.max(s2)))
            return new

        monkeypatch.setattr(meanfield, "_rk4_update", checked)
        config = IntegratorConfig(dt=0.1)
        for sign_convention in (-1, 1):
            for n_steps in (1, 2, 3):
                mirrored = meanfield_echo_curve(
                    n, 1.0, self.GRID, config, schedule=SCHEDULE_MIRRORED,
                    n_steps=n_steps, sign_convention=sign_convention,
                )
                revival = math.cos(n_steps * math.pi / 2) ** 2
                for t, result in zip(self.GRID, mirrored):
                    expected = 1.0 if t == 0 else revival
                    assert result[0] == pytest.approx(expected, abs=1e-8)
            continuous = meanfield_echo_curve(
                n, 1.0, self.GRID, config, schedule=SCHEDULE_CONTINUOUS,
                sign_convention=sign_convention,
            )
            for result in continuous:
                assert result[0] == pytest.approx(1.0, abs=1e-8)
        assert worst["transverse"] < 1e-12
        assert worst["s2"] < 1e-12
