import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import echochain

from echochain import noise as noise_module
from echochain import sector
from echochain.echo import BACKWARD_EXACT, BACKWARD_TROTTERIZED, EchoConfig
from echochain.noise import (
    FitResult,
    GateNoise,
    NoiseModel,
    _batch_trials,
    _pair_fidelities,
    child_seed,
    default_v_grid,
    fidelity_curve,
    loglog_fit,
    make_rng,
    slope_vs_n,
)
from echochain.statevec import sample_eta
from echochain.transfer import ENGINE_EXACT, TransferConfig

# Frozen on the first verified run of the echo pipeline
# (n=10, t=pi/2, N=4, v=0.03, 100 trials, master seed 77).
GOLDEN_ECHO_MEAN_INFIDELITY = 0.02660586876691544


def run_trials(config, v, trials, master_seed, *, include_fields=False):
    """The infidelities of `trials` noisy runs of config at strength v as
    one batch, as a sweep runs one point: trial k draws from
    child_seed(master_seed, k)."""
    noise = GateNoise([child_seed(master_seed, k) for k in range(trials)], [v] * trials,
                      include_fields)
    return 1.0 - _pair_fidelities([config], [[config.t]], [trials], noise)[0]


class TestSampleEta:
    def test_zero_strength_is_exactly_zero(self):
        rng = make_rng(0)
        assert all(sample_eta(rng, 0.0) == 0.0 for _ in range(100))

    def test_moments(self):
        rng = make_rng(123)
        draws = np.array([sample_eta(rng, 0.1) for _ in range(10**6)])
        assert abs(draws.mean()) < 4e-4       # ~3 sigma of the sample mean
        assert abs(draws.std() - 0.1) < 1e-3  # within 1%

    def test_rejects_negative_strength(self):
        with pytest.raises(ValueError):
            sample_eta(make_rng(0), -0.1)
        with pytest.raises(ValueError):
            NoiseModel(v=-0.5)

    @pytest.mark.parametrize("v", [math.nan, math.inf])
    def test_rejects_non_finite_strength(self, v):
        with pytest.raises(ValueError):
            NoiseModel(v=v)
        with pytest.raises(ValueError):
            GateNoise([1, 2], [0.1, v])


class TestSeeding:
    def test_child_seed_extends_tuples(self):
        assert child_seed(5, 3) == (5, 3)
        assert child_seed((5, 3), 1) == (5, 3, 1)
        # SeedSequence hashes an int as its one-tuple: one seed, one stream
        for entry in (0, 5, 42, 2**40):
            assert child_seed(entry, 3) == child_seed((entry,), 3) == child_seed([entry], 3)
            expected = reference_streams([entry], 16)
            assert np.array_equal(reference_streams([(entry,)], 16), expected)
            assert np.array_equal(make_rng((entry,)).standard_normal(16), expected[0])
            assert np.array_equal(GateNoise([entry, (entry,)], np.ones(2)).take(16),
                                  np.repeat(expected, 2, axis=0))

    def test_make_rng_streams_are_independent(self):
        a = make_rng((1, 0)).standard_normal(4)
        b = make_rng((1, 1)).standard_normal(4)
        assert not np.allclose(a, b)

    def test_make_rng_is_reproducible(self):
        assert np.array_equal(make_rng((9, 2)).standard_normal(8), make_rng((9, 2)).standard_normal(8))


# Entries that take one, two and three 32-bit words, with the edges of
# each word count; mixing them gives rows of different word counts.
EDGE_ENTRIES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 1]
entries = st.one_of(st.sampled_from(EDGE_ENTRIES), st.integers(min_value=0, max_value=2**80))
seeds = st.one_of(entries, st.lists(entries, min_size=1, max_size=6).map(tuple))


def reference_streams(seeds_, count):
    """`count` normals of every seed from numpy's own SeedSequence."""
    import numpy.random

    return np.array([
        numpy.random.default_rng(
            numpy.random.SeedSequence(list(s) if isinstance(s, tuple) else s)
        ).standard_normal(count)
        for s in seeds_
    ]).reshape(len(seeds_), count)


class TestBatchSeeding:
    """GateNoise hashes a batch's seeds together; every stream must be
    the one numpy's SeedSequence gives, bit for bit."""

    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(batch=st.lists(seeds, min_size=1, max_size=12), first=st.integers(1, 63))
    def test_streams_match_seed_sequence(self, batch, first):
        noise = GateNoise(batch, np.ones(len(batch)))
        drawn = np.concatenate([noise.take(first), noise.take(64 - first)], axis=1)
        assert np.array_equal(drawn, reference_streams(batch, 64))

    def test_mixed_word_counts_in_one_batch(self):
        # 1 to 11 words per row, ints and tuples of 1-6 entries
        batch = [0, 2**32 - 1, 2**32, 2**64 + 1, (0,), (5, 2**32), (1, 2, 3),
                 (2**64 + 1, 0, 2**32 - 1, 7), (1, 2, 3, 4, 5), (2**32,) * 6, (9, 8, 7, 6, 5, 4)]
        noise = GateNoise(batch, np.ones(len(batch)))
        assert np.array_equal(noise.take(70), reference_streams(batch, 70))

    def test_matches_make_rng(self):
        batch = [3, (3, 1), (2**70, 0, 4)]
        noise = GateNoise(batch, np.ones(3))
        expected = np.array([make_rng(s).standard_normal(10) for s in batch])
        assert np.array_equal(noise.take(10), expected)

    def test_empty_batch(self):
        noise = GateNoise([], [])
        assert len(noise) == 0
        assert noise.take(5).shape == (0, 5)

    @pytest.mark.parametrize("bad", [-1, (4, -1), (2**64, 0, -(2**40))])
    def test_negative_entry_raises_like_seed_sequence(self, bad):
        import numpy.random

        with pytest.raises(ValueError) as ours:
            GateNoise([0, bad], [0.1, 0.1])
        with pytest.raises(ValueError) as numpys:
            numpy.random.SeedSequence(list(bad) if isinstance(bad, tuple) else bad)
        assert str(ours.value) == str(numpys.value)

    @pytest.mark.parametrize("bad", [1.5, (4, 2.0)])
    def test_non_integer_entry_raises_like_seed_sequence(self, bad):
        import numpy.random

        with pytest.raises(TypeError):
            GateNoise([0, bad], [0.1, 0.1])
        with pytest.raises(TypeError):
            numpy.random.SeedSequence(list(bad) if isinstance(bad, tuple) else bad)

    def test_cli_import_leaves_numpy_random_unloaded(self, tmp_path):
        # exact and mean-field curves never draw noise, so they never
        # pay for numpy.random's import
        script = "import sys\nimport echochain.cli\nassert 'numpy.random' not in sys.modules\n"
        env = dict(os.environ, PYTHONPATH=str(Path(echochain.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                capture_output=True)
        assert result.returncode == 0, result.stderr.decode()


class TestRunTrials:
    def test_noise_free_echo_has_no_spread(self):
        config = EchoConfig(n=5, t=1.0, n_steps=2)
        infidelities = run_trials(config, 0.0, 5, 1)
        assert infidelities.mean() < 1e-9
        assert infidelities.std() == pytest.approx(0.0, abs=1e-12)

    def test_golden_echo_value(self):
        config = EchoConfig(n=10, t=math.pi / 2, n_steps=4)
        mean = float(run_trials(config, 0.03, 100, 77).mean())
        assert 0.0 < mean < 1.0
        assert mean == pytest.approx(GOLDEN_ECHO_MEAN_INFIDELITY, rel=1e-9)

    def test_repeat_runs_are_bit_identical(self):
        config = EchoConfig(n=6, t=1.0, n_steps=2)
        a = run_trials(config, 0.05, 12, 3)
        b = run_trials(config, 0.05, 12, 3)
        assert np.array_equal(a, b)
        assert a.mean() == b.mean()

    def test_vanishing_noise_approaches_noise_free(self):
        config = EchoConfig(n=6, t=1.0, n_steps=2)
        silent = run_trials(config, 0.0, 10, 5)
        faint = run_trials(config, 1e-6, 10, 5)
        assert abs(faint.mean() - silent.mean()) < 1e-6

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            slope_vs_n([EchoConfig(n=5, t=1.0, n_steps=2)], [0.01, 0.02, 0.03], 0, 1)

    @pytest.mark.parametrize("v_grid", [[], [0.01], [0.01, 0.02]])
    def test_rejects_a_grid_too_short_to_fit_before_any_work(self, v_grid, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(noise_module, "_batch_trials", no_work)
        with pytest.raises(ValueError, match="at least 3 noise strengths to fit, got"):
            slope_vs_n([EchoConfig(n=5, t=1.0, n_steps=2)], v_grid, 1, 1)

    @pytest.mark.parametrize("trials", [1, 3, 10, 17, 100, 1000])
    def test_grid_stats_match_per_row_stats(self, trials):
        # the fit's points are the row means of the sweep's (v, trials)
        # array, each with the bits of the row's own mean()
        grid = list(np.geomspace(0.01, 0.2, 8))
        [(rows, fit)] = slope_vs_n([EchoConfig(n=5, t=1.0, n_steps=2)], grid, trials, trials)
        assert rows.shape == (8, trials) and rows.flags.c_contiguous
        assert fit.points == [(v, float(r.mean())) for v, r in zip(grid, rows) if r.mean() > 0]
        assert len(fit.points) == 8

    def test_nan_infidelity_fails_the_trial_guard(self, monkeypatch):
        def nan_scores(c, a, b):
            return np.array([0.9, math.nan] * (len(c) // 2))

        monkeypatch.setattr(sector, "singlet_fidelity", nan_scores)
        with pytest.raises(RuntimeError, match=r"singlet fidelity left \[0, 1\]"):
            _batch_trials([EchoConfig(n=5, t=1.0, n_steps=2)], [0.1, 0.2], 2, 1, False)

    def test_curve_score_outside_the_unit_interval_fails(self, monkeypatch):
        monkeypatch.setattr(sector, "singlet_fidelity", lambda c, a, b: np.full(len(c), 1.5))
        with pytest.raises(RuntimeError, match=r"singlet fidelity left \[0, 1\]"):
            fidelity_curve(EchoConfig(n=5, t=1.0, n_steps=2), [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("config", [EchoConfig(n=5, t=1.0, n_steps=2), TransferConfig(n=4)])
    def test_configs_are_frozen(self, config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.t = 0.5

    def test_cannot_fit_names_the_chain_and_its_nonzero_points(self, monkeypatch):
        # n=6 scores fidelity 1 at the first two strengths and 0.5 at the
        # last; n=5 scores 0.5 at all three
        def scores(configs, times, rows, noise):
            return [np.array([1.0] * 4 + [0.5] * 2 if config.n == 6 else [0.5] * 6)
                    for config in configs]

        monkeypatch.setattr(noise_module, "_pair_fidelities", scores)
        configs = [EchoConfig(n=n, t=1.0, n_steps=2) for n in (5, 6)]
        with pytest.raises(ValueError, match=r"^cannot fit n=6: 1 of 3 noise strengths gave "
                                             r"a mean infidelity above zero \(need at least "
                                             r"3 points, got 1\)$"):
            slope_vs_n(configs, [0.01, 0.02, 0.03], 2, 1)

    def test_exact_transfer_engine_takes_no_noise(self):
        with pytest.raises(ValueError, match="noise-free"):
            run_trials(TransferConfig(n=4), 0.02, 3, 2)
        assert run_trials(TransferConfig(n=4), 0.0, 3, 2).mean() < 1e-12

    def test_transfer_config_runs_noisy_trials(self):
        config = TransferConfig(n=4, engine="trotter-simfm", n_steps=8)
        assert 0.0 < run_trials(config, 0.02, 5, 2).mean() < 1.0


class TestLogLogFit:
    def test_exact_square_law(self):
        points = [(v, v**2) for v in (0.001, 0.01, 0.1, 0.5)]
        fit = loglog_fit(points)
        assert fit.b == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.reliable

    def test_exact_cubic_with_prefactor(self):
        points = [(v, 0.5 * v**3) for v in (0.001, 0.01, 0.1)]
        fit = loglog_fit(points)
        assert fit.a == pytest.approx(math.log(0.5), abs=1e-10)
        assert fit.b == pytest.approx(3.0, abs=1e-10)

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            loglog_fit([(0.1, 0.01), (0.2, 0.04)])  # too few
        with pytest.raises(ValueError):
            loglog_fit([(0.1, 0.01), (0.2, 0.04), (0.3, 0.0)])  # log(0)
        with pytest.raises(ValueError):
            loglog_fit([(0.0, 0.01), (0.2, 0.04), (0.3, 0.09)])  # v = 0
        with pytest.raises(ValueError, match="slope is undefined"):
            loglog_fit([(0.1, 0.01), (0.1, 0.04), (0.1, 0.09)])  # one v

    def test_r_squared_is_the_squared_correlation(self):
        # for a least-squares line, 1 - ss_res / ss_tot is the squared
        # correlation of log v and log I
        points = [(v, v**2 * (1 + 0.3 * k)) for k, v in enumerate((0.01, 0.03, 0.1, 0.3))]
        fit = loglog_fit(points)
        log_v, log_i = np.log(points).T
        assert fit.r_squared == pytest.approx(np.corrcoef(log_v, log_i)[0, 1] ** 2, abs=1e-12)
        assert 0.9 < fit.r_squared < 1.0 and fit.points == points

    @seed(20261020)
    @settings(max_examples=200, deadline=None)
    @given(
        v_min=st.floats(min_value=-6.0, max_value=-1.0),
        span=st.floats(min_value=1.0, max_value=4.0),
        quarters=st.lists(st.integers(min_value=-64, max_value=0), min_size=3, max_size=12,
                          unique=True),
    )
    def test_matches_polyfit(self, v_min, span, quarters):
        # the closed form against numpy's least squares, on log v spread
        # over a decade or more and log I at least 0.25 apart
        v = np.geomspace(10.0**v_min, 10.0 ** (v_min + span), len(quarters))
        points = [(float(x), math.exp(0.25 * k)) for x, k in zip(v, quarters)]
        fit = loglog_fit(points)
        log_v, log_i = np.log(points).T
        b, a = np.polyfit(log_v, log_i, 1)
        residuals = log_i - (a + b * log_v)
        r_squared = 1.0 - np.sum(residuals**2) / np.sum((log_i - log_i.mean()) ** 2)
        assert fit.a == pytest.approx(a, abs=1e-12)
        assert fit.b == pytest.approx(b, abs=1e-12)
        assert fit.r_squared == pytest.approx(r_squared, abs=1e-12)


def test_default_v_grid():
    grid = default_v_grid()
    assert len(grid) == 8
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1e-1)
    for v_min, v_max in ((0.0, 0.1), (math.nan, 0.1), (1e-3, math.nan), (1e-3, math.inf),
                         (math.inf, math.inf)):
        with pytest.raises(ValueError):
            default_v_grid(v_min=v_min, v_max=v_max)
    # v_min < v_max, but one ulp apart: their logs coincide, so no fit
    # would have a slope
    with pytest.raises(ValueError, match="increase strictly"):
        default_v_grid(v_min=1e-3, v_max=math.nextafter(1e-3, 1.0), points=3)
    # subnormal strengths are far apart in log
    assert len(default_v_grid(1e-320, 1e-310)) == 8


def test_slope_vs_n_small_echo_sweep():
    configs = [EchoConfig(n=n, t=1.0, n_steps=2) for n in (5, 6)]
    grid = [0.003, 0.01, 0.03]
    results = slope_vs_n(configs, grid, trials=20, master_seed=11)
    assert len(results) == 2  # two chain lengths, in the configs' order
    for config, (rows, fit) in zip(configs, results):
        assert isinstance(fit, FitResult)
        assert 1.0 < fit.b < 3.0
        # three error strengths x 20 trials, the ones the chain's own
        # sweep draws
        assert rows.shape == (3, 20)
        [(alone, _)] = slope_vs_n([config], grid, trials=20, master_seed=11)
        assert np.array_equal(rows, alone)
        # the fit keeps the (v, mean infidelity) points it went through
        assert fit.points == [(v, float(r.mean())) for v, r in zip(grid, rows) if r.mean() > 0]


@pytest.mark.parametrize("config", [
    EchoConfig(n=6, t=2.0, n_steps=3, backward_mode=BACKWARD_TROTTERIZED),
    EchoConfig(n=6, t=2.0, n_steps=3, backward_mode=BACKWARD_EXACT),
    TransferConfig(n=6, t=2.0, n_steps=8, engine="trotter-direct"),
    TransferConfig(n=6, t=2.0, n_steps=8, engine="trotter-simfm"),
])
def test_zero_strength_model_draws_nothing(monkeypatch, config):
    grid = np.linspace(0.0, config.t, 40)
    clean = fidelity_curve(config, grid)

    def no_generators(seeds):
        raise AssertionError(f"built {len(seeds)} generators for a run that draws nothing")

    monkeypatch.setattr(noise_module, "_generators", no_generators)
    for include_fields in (False, True):
        assert fidelity_curve(config, grid, NoiseModel(0.0, include_fields), seed=5) == clean


# One valid value other than the base's for every field of each config,
# each run on a small noisy base; the exact engine is the one value a
# noisy run refuses.
FIELD_WALK = {
    EchoConfig: ({"n": 5, "t": 1.0, "n_steps": 2},
                 {"n": 6, "t": 1.5, "n_steps": 3, "j": 0.5, "backward_mode": BACKWARD_EXACT}),
    TransferConfig: ({"n": 5, "t": 1.0, "engine": "trotter-simfm"},
                     {"n": 6, "t": 1.2, "n_steps": 4, "engine": ENGINE_EXACT}),
}


def test_field_walk_covers_every_config_field():
    for protocol, (_, values) in FIELD_WALK.items():
        assert set(values) == {field.name for field in dataclasses.fields(protocol)}


@pytest.mark.parametrize("protocol,name", [
    (protocol, name) for protocol, (_, values) in FIELD_WALK.items() for name in values
])
def test_every_config_field_changes_every_run_or_is_refused(protocol, name):
    # a field that some runner ignores would be a value a caller sets for nothing
    base, values = FIELD_WALK[protocol]
    model = NoiseModel(v=0.05)
    runners = [
        lambda config: fidelity_curve(config, np.linspace(0.0, config.t, 3), model, seed=1),
        lambda config: slope_vs_n([config], [0.01, 0.03, 0.1], 2, 1)[0][0].tolist(),
    ]
    changed = protocol(**{**base, name: values[name]})
    for run in runners:
        try:
            output = run(changed)
        except ValueError:
            continue
        assert output != run(protocol(**base))
