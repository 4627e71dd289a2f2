import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from echochain.chain import uniform_echo_chain
from echochain.echo import EchoConfig
from echochain.meanfield import SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED, meanfield_echo_curve
from echochain.statevec import SINGLET
from echochain.trotter import SECOND_ORDER, afm_duration_for_fm, batch_plan, bond_groups


# The general spinor integrator: any product state of the head pair
# and (n - 2) spinors, any fields, integrated with classical RK4, on
# the full n-site chain.  Production computes only the one phase the
# echo's revival reads; this is the oracle it must match, and the
# kernel for the tests that leave the echo state.

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


def signed_couplings(couplings: np.ndarray, sign: float) -> np.ndarray:
    """sign * J per bond plus a zero bond past the last site: js[i] =
    sign * J_(i+1, i+2), the coupling of site i+1 to its right neighbor."""
    return sign * np.append(couplings, 0.0)


def schedule_segments(n, j, t, schedule, n_steps, sign_convention):
    """The full n-site chain's drive of one grid point as (repeats,
    forward, backward): the forward step's (duration, signed couplings)
    segments run `repeats` times in order, then the backward step's.
    sign_convention multiplies the ferromagnetic leg's fields, and the
    backward leg gets the opposite sign."""
    spec = uniform_echo_chain(n, j)
    if schedule == SCHEDULE_CONTINUOUS:
        return (1, [(t, signed_couplings(spec.couplings, sign_convention))],
                [(t, signed_couplings(spec.couplings, -sign_convention))])
    # each bond group's own couplings, the others' zero
    drive = {}
    for group, bonds in bond_groups(spec).items():
        masked = np.zeros_like(spec.couplings)
        masked[bonds] = spec.couplings[bonds]
        drive[group] = signed_couplings(masked, -sign_convention)
    tau = t / n_steps
    forward = [(afm_duration_for_fm(tau / divisor, j, j), drive[group])
               for group, divisor in SECOND_ORDER]
    backward = [(tau / divisor, drive[group]) for group, divisor in SECOND_ORDER]
    return n_steps, forward, backward


def reference_segments(n, j, t, schedule, n_steps, sign_convention):
    """The drive of one grid point, in order: (duration, signed
    couplings) per segment.  A zero-duration echo applies no drive at
    all."""
    if t == 0:
        return []
    repeats, forward, backward = schedule_segments(n, j, t, schedule, n_steps, sign_convention)
    return forward * repeats + backward * repeats


def reference_echo(n, j, t, dt, schedule, n_steps, sign_convention):
    """One grid point of the mean-field echo on the reference kernel:
    the drive segments, each in ceil(duration / step) equal RK4
    steps of at most dt (in units of 1/J).  Returns (fidelity, final
    slots, largest |off-slot amplitude| seen after any step)."""
    psi = initial_slots(n)[None]
    off = 0.0
    for duration, js in reference_segments(n, j, t, schedule, n_steps, sign_convention):
        steps = math.ceil(duration / (dt / j))
        for _ in range(steps):
            psi = reference_rk4_update(psi, js[None], np.array([duration / steps]))
            off = max(off, float(np.max(np.abs(off_slot_amplitudes(psi[0])))))
    slots = psi[0]
    return float(abs(np.vdot(SINGLET, slots[:2].reshape(4))) ** 2), slots, off


def site_fields(slots, couplings, sign):
    """Mean fields on sites 2..n of one (n, 2) slot array, (n-1, 3)."""
    js = signed_couplings(np.asarray(couplings, dtype=float), sign)
    return reference_site_fields(slots[None], js[None])[0]


def rk4_step(slots, couplings, sign, dt):
    """One RK4 step of one (n, 2) slot array."""
    js = signed_couplings(np.asarray(couplings, dtype=float), sign)
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
    return dict(zip(CONTINUOUS_GRID,
                    meanfield_echo_curve(1.0, CONTINUOUS_GRID, schedule=SCHEDULE_CONTINUOUS)))


class TestEchoSchedules:
    def test_zero_time_revives(self):
        for schedule in (SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED):
            assert meanfield_echo_curve(1.0, [0.0], schedule=schedule) == [pytest.approx(1.0)]

    @pytest.mark.parametrize("t", CONTINUOUS_GRID)
    def test_continuous_schedule_self_cancels(self, t, continuous_curve):
        assert continuous_curve[t] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n_steps,expected", [(1, 0.0), (2, 1.0), (3, 0.0)])
    def test_mirrored_pulses_follow_step_parity(self, n_steps, expected):
        # the pulse train rotates site 2 by N*pi in total, so the
        # revival is cos^2(N*pi/2) independent of t
        revival = meanfield_echo_curve(1.0, [0.8], schedule=SCHEDULE_MIRRORED, n_steps=n_steps)
        assert revival == [pytest.approx(expected, abs=1e-8)]

    def test_step_size_convergence(self):
        # halving the oracle's step moves it by under 1e-6, and both
        # steps land within that of the closed form
        closed = meanfield_echo_curve(1.0, [1.0], schedule=SCHEDULE_MIRRORED)[0]
        coarse, fine = (reference_echo(6, 1.0, 1.0, dt, SCHEDULE_MIRRORED, 1, -1)[0]
                        for dt in (2e-2, 1e-2))
        assert abs(coarse - fine) < 1e-6
        assert abs(coarse - closed) < 1e-6 and abs(fine - closed) < 1e-6

    def test_runs_are_bit_identical(self):
        a = meanfield_echo_curve(1.0, [1.3], schedule=SCHEDULE_MIRRORED)
        b = meanfield_echo_curve(1.0, [1.3], schedule=SCHEDULE_MIRRORED)
        assert a == b

    def test_bloch_lengths_and_pair_marginal_conserved(self):
        # on the oracle's final state
        _, final, _ = reference_echo(7, 1.0, 2.0, 0.05, SCHEDULE_MIRRORED, 1, -1)
        for spinor in final[2:]:
            assert abs(np.linalg.norm(spin_expectation(spinor)) - 0.5) < 1e-6
        _, s2 = pair_site_expectations(pair_state(final))
        assert np.linalg.norm(s2) < 1e-6


@pytest.mark.parametrize("n,j,t,steps", [
    (3, 1.0, 1.0, 2), (4, 1.0, 0.8, 1), (5, 0.7, 2.9, 3), (7, 1.3, 3.0, 2),
])
@pytest.mark.parametrize("sign_convention", [-1, 1])
def test_mirrored_pulse_train_is_the_echo_forward_leg(n, j, t, steps, sign_convention):
    # each forward pulse of the oracle's drive turns its bond group by
    # the angle the echo's simulated-ferromagnet plan gives that layer,
    # bit for bit, and each backward pulse lasts tau / divisor; bond
    # (2,3), the one the revival reads, has a pulse in exactly the plan's
    # layers that hold it
    split, spec, mode = EchoConfig(n=n, t=t, n_steps=steps, j=j).legs()[0]
    plan = batch_plan(split, [(spec, t, steps, 1)], mode)
    layers = [(np.arange(n)[layer.left].tolist(), layer.angles[0].tolist())
              for layer in plan.layers]
    segments = reference_segments(n, j, t, SCHEDULE_MIRRORED, steps, sign_convention)
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
        assert [1 in bonds for bonds, _ in pulses] == [1 in sites for sites, _ in layers]
    for k, (duration, _) in enumerate(backward):
        assert duration == t / steps / split[k % len(split)][1]


def test_validation():
    with pytest.raises(ValueError, match="schedule"):
        meanfield_echo_curve(1.0, [1.0], schedule="sideways")
    with pytest.raises(ValueError, match="step"):
        meanfield_echo_curve(1.0, [1.0], n_steps=0)
    with pytest.raises(ValueError):
        meanfield_echo_curve(1.0, [-1.0])
    for t in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="leg duration"):
            meanfield_echo_curve(1.0, [1.0, t])
    for schedule in (SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED):
        for j in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="coupling"):
                meanfield_echo_curve(j, [1.0], schedule=schedule)
    # a pulse slice past one wrap period cannot be mapped
    with pytest.raises(ValueError, match="wrap period"):
        meanfield_echo_curve(1.0, [7.0], schedule=SCHEDULE_MIRRORED)


# the smallest coupling `trotter.wrap_period` accepts (tests/test_gates.py)
WEAKEST_J = 3.49513784379046e-308


def reference_closed_form(n, j, t, schedule, n_steps, sign_convention):
    """One grid point of the closed form on the full n-site chain and
    the reference kernel's fields: each live amplitude (p01, p10, then
    each later site's up amplitude) turns by -Phi/2, Phi summing one
    drive step's segment durations times the z field
    `reference_site_fields` reads off the echo's initial slots, scaled
    by the step count.  p01's site-2 spin is down, so it turns with
    minus site 2's field.  Returns (fidelity, final slots)."""
    slots = initial_slots(n)
    phi = np.zeros(n)
    if t > 0:
        repeats, forward, backward = schedule_segments(n, j, t, schedule, n_steps,
                                                       sign_convention)
        for duration, js in forward + backward:
            hz = reference_site_fields(slots[None], js[None])[0, :, 2]
            phi += duration * np.concatenate(([-hz[0]], hz))
        phi *= repeats
    live = np.concatenate(([slots[0, 1]], slots[1:, 0])).real
    final = np.zeros((n, 2), dtype=complex)
    turned = live * np.cos(-0.5 * phi) + 1j * (live * np.sin(-0.5 * phi))
    final[0, 1], final[1:, 0] = turned[0], turned[1:]
    return math.cos((phi[1] - phi[0]) / 4) ** 2, final


# Revival reprs of the closed form, one grid point per call.  The step
# count does not enter the continuous schedule.
GOLDEN_GRID = [1.2, 0.0, 0.45, 1.2, 2.0]   # unsorted, with t = 0 and a repeat
GOLDEN_CURVES = {
    (SCHEDULE_CONTINUOUS, None): ["1.0", "1.0", "1.0", "1.0"],
    (SCHEDULE_MIRRORED, 1): ["3.749399456654644e-33"] * 4,
    (SCHEDULE_MIRRORED, 2): ["1.0", "1.0", "1.0", "1.0"],
    (SCHEDULE_MIRRORED, 3): ["3.374459510989179e-32"] * 4,
}


@pytest.mark.golden
class TestGoldenBits:
    def test_benchmark_rows(self):
        # the three mean-field rows of the benchmark's meanfield-curve command
        revivals = meanfield_echo_curve(1.0, [0.0, 1.5, 3.0], schedule=SCHEDULE_MIRRORED,
                                        n_steps=1)
        assert list(map(repr, revivals)) == ["1.0", "3.749399456654644e-33",
                                             "3.749399456654644e-33"]

    @pytest.mark.parametrize("n_steps", [1, 2, 3])
    @pytest.mark.parametrize("sign_convention", [-1, 1])
    @pytest.mark.parametrize("schedule", [SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED])
    def test_cheap_grid(self, schedule, sign_convention, n_steps):
        # the golden reprs, which the reference kernel's closed form on a
        # 5-site chain gives at either sign convention
        key = (schedule, n_steps if schedule == SCHEDULE_MIRRORED else None)
        revivals = list(map(repr, meanfield_echo_curve(1.0, GOLDEN_GRID, schedule=schedule,
                                                       n_steps=n_steps)))
        assert revivals.pop(1) == "1.0"
        assert revivals == GOLDEN_CURVES[key]
        assert [repr(reference_closed_form(5, 1.0, t, schedule, n_steps, sign_convention)[0])
                for t in GOLDEN_GRID] == revivals[:1] + ["1.0"] + revivals[1:]

    @pytest.mark.parametrize("j,grid,schedule,n_steps,revivals", [
        (1.3, [2.1, 0.7], SCHEDULE_MIRRORED, 3, ["1.1489169579581573e-30", "3.374459510989179e-32"]),
        (0.8, [0.9, 2.5], SCHEDULE_CONTINUOUS, 1, ["1.0", "1.0"]),
    ])
    def test_other_couplings(self, j, grid, schedule, n_steps, revivals):
        assert list(map(repr, meanfield_echo_curve(j, grid, schedule=schedule,
                                                   n_steps=n_steps))) == revivals


class TestReferenceKernel:
    """Production's revival against the closed form on the reference
    kernel's fields, bit for bit, on a full n-site chain at either sign
    convention: production's one phase must read exactly what the RK4
    oracle's derivative starts from, whatever n and the sign, not
    merely land within the oracle's 1e-8."""

    @seed(20240611)
    @settings(max_examples=24, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=12),
        j=st.floats(min_value=0.3, max_value=3.0),
        schedule=st.sampled_from([SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED]),
        sign_convention=st.sampled_from([-1, 1]),
        n_steps=st.integers(min_value=1, max_value=3),
        fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5),
    )
    def test_curve_matches_reference_bits(self, n, j, schedule, sign_convention, n_steps,
                                          fractions):
        # the mirrored pulse train fits each step's slice into one wrap
        # period, 2*pi / j
        grid = [f * min(2.5, n_steps * 2 * math.pi / j) for f in fractions]
        revivals = meanfield_echo_curve(j, grid, schedule=schedule, n_steps=n_steps)
        for t, revival in zip(grid, revivals):
            expected = reference_closed_form(n, j, t, schedule, n_steps, sign_convention)
            assert repr(revival) == repr(expected[0])

    @pytest.mark.parametrize("schedule", [SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED])
    @pytest.mark.parametrize("sign_convention", [-1, 1])
    def test_weakest_coupling_matches_reference_bits(self, schedule, sign_convention):
        # each field is subnormal here and each pulse near the largest
        # float, so the order of the products shows in the bits
        grid = [0.7, 2.5]
        revivals = meanfield_echo_curve(WEAKEST_J, grid, schedule=schedule, n_steps=2)
        for t, revival in zip(grid, revivals):
            expected = reference_closed_form(5, WEAKEST_J, t, schedule, 2, sign_convention)
            assert repr(revival) == repr(expected[0])

    @pytest.mark.parametrize("schedule", [SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED])
    @pytest.mark.parametrize("sign_convention", [-1, 1])
    def test_echo_state_keeps_off_slot_amplitudes_exactly_zero(self, schedule, sign_convention):
        # checked after every step of the general integrator: p00, p11
        # and every down amplitude stay 0.0, not merely small, which is
        # what lets the closed form drop them
        for n in (3, 4, 7):
            _, slots, off = reference_echo(n, 1.0, 1.3, 0.05, schedule, 2, sign_convention)
            assert off == 0.0
            assert np.all(off_slot_amplitudes(slots) == 0.0)


class TestBatching:
    """Rows are independent: a row's bits depend only on its own leg
    duration."""

    GRID = [0.9, 0.0, 0.3, 2.2, 0.9, 1.6]

    def curve(self, grid, schedule):
        return list(map(repr, meanfield_echo_curve(1.0, grid, schedule=schedule)))

    @pytest.mark.parametrize("schedule", [SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED])
    def test_rows_equal_one_point_calls(self, schedule):
        assert self.curve(self.GRID, schedule) == [
            self.curve([t], schedule)[0] for t in self.GRID
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
        assert meanfield_echo_curve(1.0, []) == []

    def test_rejects_bad_times(self):
        for bad in (-0.1, math.nan):
            with pytest.raises(ValueError):
                meanfield_echo_curve(1.0, [0.5, bad])


class TestClosedForm:
    """For this initial state <S_2> = 0 at all times, so every mean field
    stays along z and each spinor only gains phases.  The revival is then
    cos^2 of the pair's accumulated relative phase: N pi / 2 under the
    mirrored pulse train, zero under the continuous schedule.  The RK4
    oracle reaches the same values as its step shrinks."""

    GRID = [0.0, 0.4, 1.1, 2.5]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_revival_and_invariants(self, n):
        # the revival, and on the closed-form state of the n-site chain
        # no transverse spin anywhere and <S_2> = 0
        worst = {"transverse": 0.0, "s2": 0.0}

        def checked(schedule, n_steps, sign_convention):
            revivals = []
            for t in self.GRID:
                revival, slots = reference_closed_form(n, 1.0, t, schedule, n_steps,
                                                       sign_convention)
                a, b = slots[:, 0], slots[:, 1]
                z = a.conj() * b
                worst["transverse"] = max(worst["transverse"], float(np.max(np.abs(z[2:]))))
                w = np.abs(slots[:2]) ** 2
                s2z = 0.5 * (w[0, 0] + w[1, 0] - w[0, 1] - w[1, 1])
                worst["s2"] = max(worst["s2"], math.hypot(abs(z[0] + z[1]), s2z))
                revivals.append(revival)
            assert revivals == meanfield_echo_curve(1.0, self.GRID, schedule=schedule,
                                                    n_steps=n_steps)
            return revivals

        for sign_convention in (-1, 1):
            for n_steps in (1, 2, 3):
                mirrored = checked(SCHEDULE_MIRRORED, n_steps, sign_convention)
                revival = math.cos(n_steps * math.pi / 2) ** 2
                for t, result in zip(self.GRID, mirrored):
                    expected = 1.0 if t == 0 else revival
                    assert result == pytest.approx(expected, abs=1e-8)
            for result in checked(SCHEDULE_CONTINUOUS, 1, sign_convention):
                assert result == pytest.approx(1.0, abs=1e-8)
        assert worst["transverse"] < 1e-12
        assert worst["s2"] < 1e-12

    @pytest.mark.parametrize("schedule", [SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED])
    @pytest.mark.parametrize("sign_convention", [-1, 1])
    def test_weakest_coupling_matches_the_oracle(self, schedule, sign_convention):
        # each field is subnormal here, and each pulse near the largest float
        grid = [0.7, 2.5]
        revivals = meanfield_echo_curve(WEAKEST_J, grid, schedule=schedule)
        for t, revival in zip(grid, revivals):
            fidelity, _, off = reference_echo(5, WEAKEST_J, t, 0.1, schedule, 1, sign_convention)
            assert off == 0.0
            assert revival == pytest.approx(fidelity, abs=1e-8)
            assert revival == pytest.approx(0.0 if schedule == SCHEDULE_MIRRORED else 1.0,
                                            abs=1e-8)

    @seed(20261020)
    @settings(max_examples=24, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=12),
        j=st.floats(min_value=0.3, max_value=3.0),
        schedule=st.sampled_from([SCHEDULE_CONTINUOUS, SCHEDULE_MIRRORED]),
        sign_convention=st.sampled_from([-1, 1]),
        n_steps=st.integers(min_value=1, max_value=3),
        fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3),
    )
    def test_matches_the_rk4_oracle(self, n, j, schedule, sign_convention, n_steps, fractions):
        # RK4's global error is fourth order, so halving the oracle's
        # step divides its distance to the closed-form state by about
        # 16.  The continuous schedule runs each field for t with one
        # sign, then for t with the other, and RK4's phase error is odd
        # in the field, so its two legs' errors cancel and leave no
        # ratio.  The mirrored pulse train fits each step's slice into
        # one wrap period, 2*pi / j.
        grid = [f * min(2.5, n_steps * 2 * math.pi / j) for f in fractions]
        revivals = meanfield_echo_curve(j, grid, schedule=schedule, n_steps=n_steps)
        for t, revival in zip(grid, revivals):
            coarse = reference_echo(n, j, t, 0.1, schedule, n_steps, sign_convention)
            assert revival == pytest.approx(coarse[0], abs=1e-8)
            if schedule == SCHEDULE_MIRRORED and t > 0:
                _, slots = reference_closed_form(n, j, t, schedule, n_steps, sign_convention)
                fine = reference_echo(n, j, t, 0.05, schedule, n_steps, sign_convention)
                ratio = np.max(np.abs(coarse[1] - slots)) / np.max(np.abs(fine[1] - slots))
                assert 12.0 <= ratio <= 20.0
