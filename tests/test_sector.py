"""The batched one-magnon engine against the dense 2^n oracle, its
array kernel against the per-step kernel it replaced, its closed-form
exact evolution against an n x n eigendecomposition, and sweeps whose
chain lengths share a batch against a per-chain runner."""
import hashlib
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from echochain import checks, sector
from echochain import noise as noise_module
from echochain.chain import SIGN_AFM, ChainSpec, transfer_chain, uniform_echo_chain
from echochain.checks import (
    check_conservation,
    check_sector_vs_dense,
    dense_fidelity,
)
from echochain.echo import BACKWARD_EXACT, BACKWARD_TROTTERIZED, EchoConfig
from echochain.noise import (
    GateNoise,
    NoiseModel,
    _batches,
    child_seed,
    fidelity_curve,
    make_rng,
    slope_vs_n,
)
from echochain.statevec import (
    apply_two_site,
    exact_evolve,
    execute_plan,
    prepare_singlet_head,
    sample_eta,
)
from echochain.transfer import (
    ENGINE_EXACT,
    ENGINE_TROTTER_DIRECT,
    ENGINE_TROTTER_SIMFM,
    TransferConfig,
)
from echochain.trotter import (
    MODE_DIRECT, MODE_SIMULATED_FM, SECOND_ORDER, THREE_TERM, TimeBudgetError, batch_plan,
)

TOL = 1e-12


def sector_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """H restricted to one flipped spin; row m is the spin flipped at site m+1."""
    n = spec.n
    sign = 1.0 if spec.sign == SIGN_AFM else -1.0
    bond = sign * spec.exchange_prefactor * spec.couplings
    # A bond gives +c/4 with both spins up and -c/4 with the flip on it;
    # sigma^z gives +B on up sites and -B on the flipped one.  The
    # constant is one correctly rounded sum: summed in pieces, it is off
    # by 4.5e-13 on the transfer chain at n = 64, which shifts every
    # level and so the oracle's global phase.
    diag = np.full(n, math.fsum([*(0.25 * bond), *spec.fields])) - 2.0 * spec.fields
    diag[:-1] -= 0.5 * bond
    diag[1:] -= 0.5 * bond
    h = np.diag(diag)
    sites = np.arange(n - 1)
    h[sites, sites + 1] = h[sites + 1, sites] = 0.5 * bond
    return h


def eigh_evolve(spec: ChainSpec, c: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) on every row of c from an n x n eigendecomposition of
    the sector Hamiltonian, global phase included: the exact engine
    before its closed forms, kept as their oracle.  `t` is one time for
    all rows or one per row."""
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    w, u = np.linalg.eigh(sector_hamiltonian(spec))
    return unfused_product(c @ u, np.exp(-1j * t * w)) @ u.T


def one_chain(split, spec, times, n_steps, mode=MODE_DIRECT):
    """The plan of one chain, one angle row per time."""
    return batch_plan(split, [(spec, times, n_steps, np.size(times))], mode)


def embed(row: np.ndarray) -> np.ndarray:
    """Dense amplitudes of one row: site m flipped is index 2^(n-m)."""
    n = len(row)
    amplitudes = np.zeros(1 << n, dtype=complex)
    amplitudes[1 << (n - 1 - np.arange(n))] = row
    return amplitudes


def phase_aligned_gap(dense: np.ndarray, row: np.ndarray) -> float:
    embedded = embed(row)
    overlap = np.vdot(embedded, dense)
    return float(np.max(np.abs(dense - overlap / abs(overlap) * embedded)))


@st.composite
def chains(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    coupling = st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=2.0))
    field = st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=1.0))
    return ChainSpec(
        n=n,
        couplings=draw(st.lists(coupling, min_size=n - 1, max_size=n - 1)),
        fields=draw(st.lists(field, min_size=n, max_size=n)),
        sign=draw(st.sampled_from(["fm", "afm"])),
        exchange_prefactor=draw(st.floats(min_value=0.5, max_value=2.0)),
    )


@settings(max_examples=60, deadline=None)
@given(
    spec=chains(),
    t=st.floats(min_value=0.0, max_value=1.5),  # every slice within a wrap period
    steps=st.integers(min_value=1, max_value=4),
    split=st.sampled_from([SECOND_ORDER, THREE_TERM]),
    mode=st.sampled_from([MODE_DIRECT, MODE_SIMULATED_FM]),
    v=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.2)),
    include_fields=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_trotter_plans_match_dense_oracle(spec, t, steps, split, mode, v, include_fields, seed):
    # two rows with their own durations, seeds and error strengths
    plan = one_chain(split, spec, [t, 0.5 * t], steps, mode)
    seeds = [(seed, 0), (seed, 1)]
    strengths = [] if v is None else [v, 0.5 * v]
    c = sector.singlet_head(2, spec.n)
    noise = None if v is None else GateNoise(seeds, strengths, include_fields)
    sector.evolve(c, plan, noise)
    for row in range(2):
        state = prepare_singlet_head(spec.n)
        model = None if v is None else NoiseModel(strengths[row], include_fields)
        execute_plan(plan, state, model, make_rng(seeds[row]), row=row)
        assert phase_aligned_gap(state.amplitudes, c[row]) <= TOL


def unfused_product(a, b):
    """a * b for complex arrays, each real product its own ufunc call
    (numpy's complex multiply fuses them on some CPUs, with FMA)."""
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def per_step_evolve(c, plan, noise=None):
    """The kernel `sector.evolve` replaced, kept as its reference: per
    step and per layer, gather the layer's amplitudes by index arrays,
    draw its errors, take one exp and scatter the result back.  Its
    complex products are unfused, as the engine's are."""
    rows, n = c.shape
    sites = np.arange(n)
    ops = []
    for layer in plan.layers:
        left = sites[layer.left]
        right = None if layer.right is None else sites[layer.right]
        noisy = noise is not None and (right is not None or noise.include_fields)
        ops.append((left, right, layer.angles, noisy))
    for _ in range(plan.blocks[0].steps):
        for left, right, angles, noisy in ops:
            if noisy:
                angles = angles * (1.0 + noise.take(len(left)))
            phase = np.exp((1j if right is not None else 2j) * angles)
            if right is None:
                c[:, left] = unfused_product(c[:, left], phase)
            else:
                ci, cj = c[:, left], c[:, right]
                sym = 0.5 * (ci + cj)
                anti = unfused_product(0.5 * (ci - cj), phase)
                c[:, left] = sym + anti
                c[:, right] = sym - anti
    return c


@settings(max_examples=80, deadline=None)
@given(
    spec=chains(),
    t=st.floats(min_value=0.0, max_value=1.5),
    steps=st.integers(min_value=1, max_value=5),
    split=st.sampled_from([SECOND_ORDER, THREE_TERM]),
    mode=st.sampled_from([MODE_DIRECT, MODE_SIMULATED_FM]),
    shared=st.booleans(),
    noise_kind=st.sampled_from(["off", "on", "fields"]),
    draw_bytes=st.sampled_from([sector.DRAW_BYTES, 1]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_array_kernel_equals_per_step_kernel_bit_for_bit(
    spec, t, steps, split, mode, shared, noise_kind, draw_bytes, seed
):
    # chains with zero bonds or fields lay some layers out as index
    # arrays, the others as slices; three rows run one time or their
    # own times, each on its own angle row
    plan = one_chain(split, spec, [t] * 3 if shared else [t, 0.5 * t, 0.0], steps, mode)
    rng = np.random.default_rng(seed)
    start = rng.normal(size=(3, spec.n)) + 1j * rng.normal(size=(3, spec.n))
    start /= np.linalg.norm(start, axis=1, keepdims=True)

    def noise():
        if noise_kind == "off":
            return None
        return GateNoise([(seed, k) for k in range(3)], [0.1, 0.02, 0.0], noise_kind == "fields")

    with mock.patch.object(sector, "DRAW_BYTES", draw_bytes):
        fast = sector.evolve(start.copy(), plan, noise())
    assert np.array_equal(fast, per_step_evolve(start.copy(), plan, noise()))


@pytest.mark.golden
def test_engine_bits_are_pinned():
    """sha256 of seeded random batches through every kernel: slice and
    index-array exchange layers, field layers, both modes, noise off, on
    exchanges and on fields too, the transfer chain's closed-form exact
    evolution and singlet scores."""
    rng = np.random.default_rng(20261020)

    def batch(rows, n):
        return rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))

    digest = hashlib.sha256()

    def add(c):
        digest.update((c + 0.0).tobytes())
        digest.update((sector.singlet_fidelity(c, 1, 2) + 0.0).tobytes())

    specs = [
        uniform_echo_chain(7, 1.0),
        transfer_chain(6),
        # zero bonds leave the odd group's bonds unevenly spaced: an index array
        ChainSpec(n=8, couplings=[0.7, 1.1, 0.0, 0.9, 1.3, 0.0, 0.5],
                  fields=rng.uniform(-1.0, 1.0, 8)),
    ]
    for spec, split, mode, noise_kind in itertools.product(
        specs, (SECOND_ORDER, THREE_TERM), (MODE_DIRECT, MODE_SIMULATED_FM),
        ("off", "on", "fields"),
    ):
        plan = one_chain(split, spec, rng.uniform(0.0, 1.5, 4), 3, mode)
        noise = None if noise_kind == "off" else GateNoise(
            [(7, k) for k in range(4)], [0.1, 0.02, 0.0, 0.05], noise_kind == "fields")
        add(sector.evolve(batch(4, spec.n), plan, noise))
    add(sector.exact_evolve(transfer_chain(9), sector.singlet_head(5, 9),
                            rng.uniform(-3.0, 3.0, 5)))
    assert digest.hexdigest()[:16] == "11d3550819bb2d55"


@st.composite
def closed_form_chains(draw, max_n):
    """The transfer chain, or an echo chain of either sign and any
    prefactor, at up to max_n sites."""
    if draw(st.booleans()):
        return transfer_chain(draw(st.integers(min_value=2, max_value=max_n)))
    spec = uniform_echo_chain(draw(st.integers(min_value=3, max_value=max_n)),
                              draw(st.floats(min_value=0.1, max_value=2.0)))
    return replace(spec, sign=draw(st.sampled_from(["fm", "afm"])),
                   exchange_prefactor=draw(st.floats(min_value=0.5, max_value=2.0)))


@settings(max_examples=30, deadline=None)
@given(spec=closed_form_chains(10), t=st.floats(min_value=-3.0, max_value=3.0))
def test_exact_evolution_matches_dense_oracle(spec, t):
    dense = exact_evolve(spec, prepare_singlet_head(spec.n), t).amplitudes
    c = sector.exact_evolve(spec, sector.singlet_head(1, spec.n), t)
    # the closed forms keep the Hamiltonian's constant, so the global phase agrees too
    assert np.max(np.abs(dense - embed(c[0]))) <= TOL


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(spec=closed_form_chains(64),
       times=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=4),
       state_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_closed_forms_match_the_eigh_oracle(spec, times, state_seed):
    # the transfer chain's closed form starts from the head singlet, an
    # echo chain's (first bond off) takes any rows; past 64 sites the
    # oracle's own rounding drifts past the bound (9e-12 at n = 400)
    if spec.couplings[0] > 0:
        c = sector.singlet_head(len(times), spec.n)
    else:
        rng = np.random.default_rng(state_seed)
        c = rng.normal(size=(len(times), spec.n)) + 1j * rng.normal(size=(len(times), spec.n))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
    fast = sector.exact_evolve(spec, c, times)
    assert np.max(np.abs(fast - eigh_evolve(spec, c, times))) <= TOL


def test_exact_evolution_has_closed_forms_only():
    # a chain with bonds that is neither the transfer chain nor an echo chain
    for spec in (ChainSpec(n=4, couplings=[1.0, 1.0, 1.0], fields=np.zeros(4)),
                 replace(uniform_echo_chain(5, 1.0), fields=[0.0, 0.0, 0.1, 0.0, 0.0]),
                 replace(transfer_chain(5), exchange_prefactor=1.0)):
        with pytest.raises(ValueError, match="closed form"):
            sector.exact_evolve(spec, sector.singlet_head(1, spec.n), 1.0)
        with pytest.raises(ValueError, match="closed form"):
            sector.exact_phases(spec, 1.0)
    # the transfer chain's closed form evolves the head singlet only
    moved = sector.singlet_head(2, 5)[:, ::-1].copy()
    with pytest.raises(ValueError, match="head singlet"):
        sector.exact_evolve(transfer_chain(5), moved, 1.0)


@pytest.mark.parametrize("chain,n", [("transfer", n) for n in (2, 3, 6, 11, 40)] +
                         [("echo", n) for n in (3, 6, 40)])
def test_exact_phases_are_the_spectrum(chain, n):
    # the transfer chain's levels c - 2m ascend, as the oracle's eigenvalues do
    spec = transfer_chain(n) if chain == "transfer" else uniform_echo_chain(n, 0.7)
    levels = sector.exact_phases(spec, 1.0)[0]
    if chain == "echo":
        levels = np.sort(levels)
    oracle = np.linalg.eigvalsh(sector_hamiltonian(spec))
    assert np.max(np.abs(levels - oracle)) <= TOL * max(1.0, float(np.max(np.abs(oracle))))


def test_overflowing_phase_is_one_error_without_warnings():
    spec = transfer_chain(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TimeBudgetError, match="overflows"):
            sector.exact_evolve(spec, sector.singlet_head(1, 6), [1.0, 1e308])
        with pytest.raises(TimeBudgetError, match="finite"):
            sector.exact_evolve(spec, sector.singlet_head(1, 6), [1.0, math.nan])


def test_exact_evolution_takes_one_time_per_row():
    spec = transfer_chain(7)
    times = np.array([0.0, 0.4, math.pi / 2])
    together = sector.exact_evolve(spec, sector.singlet_head(3, 7), times)
    for row, t in enumerate(times):
        alone = sector.exact_evolve(spec, sector.singlet_head(1, 7), t)
        assert np.max(np.abs(together[row] - alone[0])) <= TOL


def test_batched_draws_equal_per_gate_draws():
    seed = (42, 12, 3, 7)
    rng = make_rng(seed)
    per_gate = np.array([sample_eta(rng, 0.07) for _ in range(300)])
    noise = GateNoise([seed], [0.07])
    batched = np.concatenate([noise.take(100), noise.take(1), noise.take(199)], axis=1)
    assert np.array_equal(batched[0], per_gate)


def test_draws_chunked_over_steps_give_the_same_states(monkeypatch):
    spec = transfer_chain(6)
    plan = one_chain(THREE_TERM, spec, [math.pi / 2] * 3, 16, MODE_SIMULATED_FM)
    seeds = [(5, k) for k in range(3)]

    def final(draw_bytes):
        monkeypatch.setattr(sector, "DRAW_BYTES", draw_bytes)
        c = sector.singlet_head(3, 6)
        return sector.evolve(c, plan, GateNoise(seeds, [0.01, 0.02, 0.03], True))

    assert np.array_equal(final(sector.DRAW_BYTES), final(1))


@pytest.mark.parametrize("mib", [4, 8])
def test_noisy_pass_stays_within_draw_bytes(monkeypatch, mib):
    # a deep noisy pass with field noise: the draws and their phases of a
    # chunk, with the pass's other arrays, stay within DRAW_BYTES (MiB
    # budgets, since numpy's ufunc buffers take up to ~64 KB per call)
    monkeypatch.setattr(sector, "DRAW_BYTES", mib << 20)
    plan = one_chain(THREE_TERM, transfer_chain(40), [math.pi / 2] * 96, 256,
                     MODE_SIMULATED_FM)
    noise = GateNoise(range(96), [0.01] * 96, include_fields=True)
    c = sector.singlet_head(96, 40)
    tracemalloc.start()
    try:
        sector.evolve(c, plan, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * sector.DRAW_BYTES, peak / sector.DRAW_BYTES


def test_mismatched_plans_rejected():
    spec = uniform_echo_chain(5, 1.0)
    c = sector.singlet_head(2, 5)
    plan = one_chain(SECOND_ORDER, spec, [1.0, 1.0], 2)
    # one layer short of a row: the other layers hold one row per batch row
    odd, even, odd_again = plan.layers
    short = replace(plan, layers=(odd, replace(even, angles=even.angles[:1]), odd_again))
    for mismatched, noise, fault in [
        (one_chain(SECOND_ORDER, spec, [1.0, 0.5, 0.2], 2), None, "one row per batch row"),
        (short, None, "one row per batch row"),
        (plan, GateNoise([1], [0.1]), "one row per batch row"),
        (one_chain(SECOND_ORDER, uniform_echo_chain(4, 1.0), 1.0, 2), None, "sites"),
    ]:
        with pytest.raises(ValueError, match=fault):
            sector.evolve(c, mismatched, noise)


def test_norm_drift_is_caught():
    drifted = sector.singlet_head(2, 4)
    drifted[1] *= 1.0 + 1e-8
    # a NaN norm compares greater than no tolerance
    nan = sector.singlet_head(2, 4)
    nan[1, 0] = math.nan
    for c in (drifted, nan):
        with pytest.raises(RuntimeError):
            sector.check_norm(c)


def test_protocols_match_dense_oracle():
    # noisy echoes in both backward modes, transfers on every engine
    result = check_sector_vs_dense(max_n=8, seed=4)
    assert result.passed, result.detail


def test_conservation_check_reads_sz_from_the_dense_replay(monkeypatch):
    assert check_conservation(n=4).passed
    replay = checks.dense_state
    flip_site_1 = np.kron([[0, 1], [1, 0]], np.eye(2))

    def leaky_replay(config):
        # the transfer ends with site 1 up; flipping it moves S^z by about 1
        state = replay(config)
        if isinstance(config, TransferConfig):
            state = apply_two_site(state, 1, 2, flip_site_1)
        return state

    monkeypatch.setattr(checks, "dense_state", leaky_replay)
    result = check_conservation(n=4)
    assert not result.passed
    assert float(result.detail.removeprefix("max_dev=")) > 0.5


def test_curves_match_dense_point_by_point():
    grid = [0.0, 0.7, 1.9]
    echo = EchoConfig(n=6, t=max(grid), n_steps=2, noise=NoiseModel(v=0.05), seed=3)
    for k, (t, f) in enumerate(fidelity_curve(echo, grid)):
        point = EchoConfig(n=6, t=t, n_steps=2, noise=echo.noise, seed=child_seed(3, k))
        assert abs(f - dense_fidelity(point)) <= TOL
    transfer = TransferConfig(n=5, t=max(grid), n_steps=8, engine="trotter-simfm",
                              noise=NoiseModel(v=0.05), seed=3)
    for k, (t, f) in enumerate(fidelity_curve(transfer, grid)):
        point = TransferConfig(n=5, t=t, n_steps=8, engine="trotter-simfm",
                               noise=transfer.noise, seed=child_seed(3, k))
        assert abs(f - dense_fidelity(point)) <= TOL


def per_chain_fidelities(config, times, noise=None):
    """The runner chains had before they shared a batch, kept as the
    reference: one config's rows on its own sites, each leg its own
    chain's plan through the per-step kernel, scored on its pair."""
    c = sector.singlet_head(len(times), config.n)
    if isinstance(config, EchoConfig):
        spec = uniform_echo_chain(config.n, config.j)
        forward = one_chain(SECOND_ORDER, spec, times, config.steps, MODE_SIMULATED_FM)
        per_step_evolve(c, forward, noise)
        if config.backward_mode == BACKWARD_TROTTERIZED:
            backward = one_chain(SECOND_ORDER, spec, times, config.steps, MODE_DIRECT)
            per_step_evolve(c, backward, noise)
        else:
            c = sector.exact_evolve(spec, c, times)
    elif config.engine == ENGINE_EXACT:
        c = sector.exact_evolve(transfer_chain(config.n), c, times)
    else:
        mode = MODE_DIRECT if config.engine == ENGINE_TROTTER_DIRECT else MODE_SIMULATED_FM
        plan = one_chain(THREE_TERM, transfer_chain(config.n), times, config.steps, mode)
        per_step_evolve(c, plan, noise)
    return sector.singlet_fidelity(c, *config.pair)


def sweep_matches_per_chain_runs(configs, grid, trials, seed, include_fields):
    """slope_vs_n against per_chain_fidelities for every (n, v) point,
    bit for bit, with the infidelities and fits in the configs' order.
    The fit is replaced by one that hands back its points, so chains
    whose points cannot be fitted are checked too."""
    with mock.patch.object(noise_module, "loglog_fit", lambda points: points):
        results = slope_vs_n(configs, grid, trials=trials, master_seed=seed,
                             include_fields=include_fields)
    assert len(results) == len(configs)
    for config, (rows, points) in zip(configs, results):
        assert points == [(v, float(r.mean())) for v, r in zip(grid, rows) if r.mean() > 0]
        assert rows.shape == (len(grid), trials)
        for vi, (v, row) in enumerate(zip(grid, rows)):
            seeds = [child_seed(child_seed(child_seed(seed, config.n), vi), k)
                     for k in range(trials)]
            noise = GateNoise(seeds, np.full(trials, v), include_fields)
            alone = 1.0 - per_chain_fidelities(config, [config.t] * trials, noise)
            assert np.array_equal(row, alone)


def test_sweep_batch_equals_per_point_trials():
    # slope_vs_n runs every v and trial of one n in one batch
    config = TransferConfig(n=4, n_steps=8, engine="trotter-simfm")
    sweep_matches_per_chain_runs([config], [0.003, 0.01, 0.03], 5, 8, True)


@st.composite
def sweeps(draw):
    """Configs of one protocol and engine at distinct chain lengths in
    any order, each with the step table or its own step count."""
    if draw(st.booleans()):
        backward = draw(st.sampled_from([BACKWARD_TROTTERIZED, BACKWARD_EXACT]))
        ns = draw(st.lists(st.integers(3, 14), min_size=1, max_size=5, unique=True))
        t = draw(st.sampled_from([0.5, math.pi / 2]))
        return [EchoConfig(n=n, t=t, n_steps=draw(st.integers(1, 4)), backward_mode=backward)
                for n in ns]
    engine = draw(st.sampled_from([ENGINE_TROTTER_DIRECT, ENGINE_TROTTER_SIMFM]))
    ns = draw(st.lists(st.integers(2, 12), min_size=1, max_size=5, unique=True))
    steps = st.one_of(st.none(), st.sampled_from([3, 5, 8]))
    return [TransferConfig(n=n, n_steps=draw(steps), engine=engine) for n in ns]


@settings(max_examples=40, deadline=None)
@given(
    configs=sweeps(),
    include_fields=st.booleans(),
    draw_bytes=st.sampled_from([sector.DRAW_BYTES, 1, 4000]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batched_sweep_equals_per_chain_runs_bit_for_bit(configs, include_fields, draw_bytes,
                                                          seed):
    # chains of several lengths and step counts share one padded pass;
    # a small DRAW_BYTES cuts the draws into chunks inside blocks
    with mock.patch.object(sector, "DRAW_BYTES", draw_bytes):
        sweep_matches_per_chain_runs(configs, [0.004, 0.03, 0.1], 2, seed, include_fields)


def test_batches_join_chains_up_to_the_amplitude_cap():
    def batches(configs, rows):
        return [[configs[i].n for i in batch] for batch in _batches(configs, rows)]

    echo = [EchoConfig(n=n, t=1.0, n_steps=4) for n in range(5, 41)]
    # at most 8192 amplitudes (rows x longest chain), at any span:
    # one trial per v
    assert batches(echo, 8) == [list(range(40, 15, -1)), list(range(15, 4, -1))]
    # 20 trials per v
    assert batches(echo, 160) == [[n] for n in range(40, 25, -1)] + [
        [25, 24], [23, 22], [21, 20], [19, 18], [17, 16, 15], [14, 13, 12], [11, 10, 9, 8],
        [7, 6, 5],
    ]
    # a batch comes in run order: by descending step count (n = 5 runs
    # 32 steps, n = 6 runs 16), longest chain first among equal counts
    transfer = [TransferConfig(n=n, engine=ENGINE_TROTTER_SIMFM) for n in range(2, 25)]
    assert batches(transfer, 16) == [[*range(24, 6, -1), 5, 6, 4], [3, 2]]
    # the benchmark's sweeps each run as one batch
    assert batches(echo[:8], 80) == [list(range(12, 4, -1))]
    assert batches(transfer[2:10], 16) == [[11, 10, 9, 8, 7, 5, 6, 4]]
    # configs that run other legs never share a batch
    mixed = [EchoConfig(n=6, t=1.0, n_steps=2),
             EchoConfig(n=5, t=1.0, n_steps=2, backward_mode=BACKWARD_EXACT),
             TransferConfig(n=5, engine=ENGINE_TROTTER_SIMFM),
             TransferConfig(n=4, engine=ENGINE_TROTTER_DIRECT)]
    assert sorted(_batches(mixed, 8)) == [[0], [1], [2], [3]]


@pytest.mark.parametrize("configs,stretches", [
    # every echo chain steps 4 per leg: one stretch per leg
    ([EchoConfig(n=n, t=math.pi / 2, n_steps=4) for n in range(5, 13)], [4, 4]),
    # the step table gives the transfer chains 64, 32, 16 and 8 steps
    ([TransferConfig(n=n, engine=ENGINE_TROTTER_SIMFM) for n in range(4, 12)], [8, 8, 16, 32]),
], ids=["echo", "transfer"])
def test_one_stretch_per_distinct_step_count(monkeypatch, configs, stretches):
    # the benchmark's sweeps, each one batch; a block that ends on the
    # same step as the block after it adds no stretch
    calls = []
    stretch = sector._stretch

    def counted(c, ops, noise, blocks, stops, steps):
        calls.append(steps)
        return stretch(c, ops, noise, blocks, stops, steps)

    monkeypatch.setattr(sector, "_stretch", counted)
    slope_vs_n(configs, np.geomspace(1e-3, 1e-1, 8), 2, 1)
    assert calls == stretches
