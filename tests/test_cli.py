import argparse
import errno
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from echochain import checks, cli, echo, svgplot, transfer, trotter
from echochain.cli import main
from echochain.chain import transfer_chain
GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent / "configs"
WRAP_RULE = ("(each slice within one wrap period of its layer's strongest bond); "
             "use more steps")


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestEchoCommand:
    def test_single_zero_point(self, tmp_path):
        out = tmp_path / "echo.csv"
        assert main(["echo", "--n", "3", "--t-max", "0", "--points", "1",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["f_ec"]) == pytest.approx(1.0)

    def test_quantum_curve_is_flat_at_one(self, tmp_path):
        out = tmp_path / "echo.csv"
        assert main(["echo", "--n", "6", "--j", "1", "--t-max", "3",
                     "--points", "12", "--steps", "8", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 12
        for row in rows:
            assert float(row["f_ec"]) == pytest.approx(1.0, abs=1e-9)

    def test_meanfield_series_included(self, tmp_path):
        out = tmp_path / "echo.csv"
        assert main(["echo", "--n", "5", "--t-max", "1", "--points", "3",
                     "--steps", "1", "--with-meanfield",
                     "--schedule", "mirrored-pulse", "--dt", "5e-3",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        series = {row["series"] for row in rows}
        assert series == {"quantum", "meanfield"}
        classical = [row for row in rows if row["series"] == "meanfield"]
        assert len(classical) == 3
        # odd mirrored-pulse step count: no classical revival beyond t=0
        assert float(classical[0]["f_ec"]) == pytest.approx(1.0)
        for row in classical[1:]:
            assert float(row["f_ec"]) < 0.01

    def test_plot_does_not_change_csv(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plotted = tmp_path / "plotted.csv"
        svg = tmp_path / "echo.svg"
        args = ["echo", "--n", "4", "--t-max", "1", "--points", "4", "--steps", "2"]
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + ["--out", str(plotted), "--plot", str(svg)]) == 0
        assert plain.read_bytes() == plotted.read_bytes()
        assert svg.read_text().startswith("<?xml")


class TestTransferCommand:
    def test_zero_point_far_end_empty(self, tmp_path):
        out = tmp_path / "transfer.csv"
        assert main(["transfer", "--n", "5", "--t-max", "0", "--points", "1",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0]["f_tr"]) == pytest.approx(0.0, abs=1e-12)

    def test_two_site_chain_is_stationary(self, tmp_path):
        out = tmp_path / "transfer.csv"
        assert main(["transfer", "--n", "2", "--engine", "exact",
                     "--points", "5", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 5
        for row in rows:
            assert float(row["f_tr"]) == pytest.approx(1.0)

    def test_exact_curve_peaks_at_quarter_period(self, tmp_path):
        out = tmp_path / "transfer.csv"
        assert main(["transfer", "--n", "6", "--engine", "exact",
                     "--t-max", "1.5707963267948966", "--points", "20",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[-1]["f_tr"]) == pytest.approx(1.0, abs=1e-9)

    def test_negative_t_max_is_usage_error(self, tmp_path):
        assert main(["transfer", "--n", "4", "--t-max", "-1",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_noise_with_exact_engine_is_usage_error(self, tmp_path):
        assert main(["transfer", "--n", "4", "--engine", "exact",
                     "--noise-v", "0.1", "--out", str(tmp_path / "x.csv")]) == 2


class TestRobustnessCommand:
    def test_single_n_fit(self, tmp_path):
        trials = tmp_path / "trials.csv"
        fits = tmp_path / "fits.csv"
        assert main(["robustness", "--protocol", "echo", "--n", "6",
                     "--steps", "2", "--trials", "20", "--seed", "42",
                     "--v-points", "4",
                     "--out-trials", str(trials), "--out-fits", str(fits)]) == 0
        _, trial_rows = read_csv(trials)
        assert len(trial_rows) == 4 * 20
        _, fit_rows = read_csv(fits)
        assert len(fit_rows) == 1
        assert float(fit_rows[0]["r_squared"]) > 0.9
        assert fit_rows[0]["parity"] == ""

    def test_transfer_parity_column(self, tmp_path):
        fits = tmp_path / "fits.csv"
        assert main(["robustness", "--protocol", "transfer", "--n-range", "4:5",
                     "--steps", "8", "--trials", "10", "--seed", "7",
                     "--v-points", "3", "--v-min", "0.01",
                     "--out-trials", str(tmp_path / "t.csv"),
                     "--out-fits", str(fits)]) == 0
        _, rows = read_csv(fits)
        assert [row["parity"] for row in rows] == ["even", "odd"]

    @pytest.mark.parametrize("protocol", ["echo", "transfer"])
    def test_chain_rows_of_a_range_equal_its_own_sweep(self, tmp_path, protocol):
        # n=7 shares a batch with the other chain lengths of the range
        def sweep(tag, *chains):
            trials, fits = tmp_path / f"{tag}_trials.csv", tmp_path / f"{tag}_fits.csv"
            assert main(["robustness", "--protocol", protocol, *chains, "--trials", "3",
                         "--seed", "5", "--out-trials", str(trials),
                         "--out-fits", str(fits)]) == 0
            return trials.read_bytes().splitlines(), fits.read_bytes().splitlines()

        range_trials, range_fits = sweep("range", "--n-range", "4:11")
        alone_trials, alone_fits = sweep("alone", "--n", "7")
        assert [row for row in range_trials if row.split(b",")[1] == b"7"] == alone_trials[1:]
        assert [row.split(b",")[1] for row in range_fits[1:]] == \
            [str(n).encode() for n in range(4, 12)]
        assert range_fits[1 + 7 - 4] == alone_fits[1]

    def test_zero_trials_is_usage_error(self, tmp_path):
        assert main(["robustness", "--protocol", "echo", "--n", "5",
                     "--trials", "0"]) == 2

    def test_missing_n_is_usage_error(self):
        assert main(["robustness", "--protocol", "echo", "--trials", "5"]) == 2


class TestDeterminism:
    def test_repeat_and_thread_count_invariance(self, tmp_path):
        # the BLAS thread count is varied in fresh processes, by
        # test_acceptance's criterion 9
        args = ["robustness", "--protocol", "echo", "--n", "5", "--steps", "2",
                "--trials", "12", "--seed", "9", "--v-points", "3"]
        outputs = []
        for tag in "abc":
            trials = tmp_path / f"trials_{tag}.csv"
            fits = tmp_path / f"fits_{tag}.csv"
            assert main(args + ["--out-trials", str(trials), "--out-fits", str(fits)]) == 0
            outputs.append((trials.read_bytes(), fits.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": 4, "t_max": 1.0, "points": 2, "steps": 2}))
        out = tmp_path / "echo.csv"
        assert main(["echo", "--config", str(config), "--points", "3",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        assert rows[0]["n"] == "4"

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": 4, "warp_factor": 9}))
        assert main(["echo", "--config", str(config)]) == 2

    def test_missing_config_file_rejected(self, tmp_path):
        assert main(["echo", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_table_defaults_pass_their_own_checks(self, tmp_path, command):
        options = cli.COMMANDS[command][2]
        config = tmp_path / "defaults.json"
        config.write_text(json.dumps({o.name: o.default for o in options}))
        _, flags = cli._read_flags([command, "--config", str(config)])
        merged = vars(cli._merge_options(command, flags)[0])
        assert [(k, type(v), v) for k, v in merged.items()] == \
            [(o.name, type(o.default), o.default) for o in options]


class TestOracleCheck:
    def test_passes_on_healthy_build(self, capsys):
        code = main(["oracle-check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall=pass" in out
        assert "check=exchange-closed-form pass=true" in out

    def test_injected_bug_is_caught(self, capsys, monkeypatch):
        gate = checks.exchange_unitary
        monkeypatch.setattr(checks, "exchange_unitary", lambda theta: gate(-theta))
        code = main(["oracle-check"])
        out = capsys.readouterr().out
        assert code == 1
        assert "check=exchange-closed-form pass=false" in out
        assert "overall=fail" in out


def test_no_command_prints_usage():
    assert main([]) == 2


def test_bad_flag_exits_two():
    result = subprocess.run(
        [sys.executable, "-m", "echochain", "echo", "--warp-factor", "9"],
        capture_output=True,
    )
    assert result.returncode == 2


def fail_write(monkeypatch, nth: int) -> list:
    """Make the command's nth file write (a CSV or a plot) raise the
    OSError of a full disk, after the check made before any work has
    passed; returns the list of writes made."""
    writes = []

    def counted(write):
        def run(*args):
            writes.append(write)
            if len(writes) == nth:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(*args)
        return run

    monkeypatch.setattr(cli, "write_csv", counted(cli.write_csv))
    monkeypatch.setattr(svgplot, "render", counted(svgplot.render))
    return writes


def test_runtime_failure_exits_one(tmp_path, capsys, monkeypatch):
    # an output that passes the check made before any work but that the
    # write refuses surfaces as a runtime failure, not a crash
    fail_write(monkeypatch, 1)
    assert main(["echo", "--n", "4", "--t-max", "1", "--points", "2",
                 "--steps", "1", "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == "runtime failure: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,config,flag", [
    (["robustness", "--protocol", "echo", "--n", "5", "--trials", "2",
      "--out-trials", "{tmp}/trials.csv", "--out-fits", "{tmp}/missing/f.csv"], {}, "--out-fits"),
    (["echo", "--n", "4", "--points", "2", "--out", "{tmp}/a.csv",
      "--plot", "{tmp}/missing/a.svg"], {}, "--plot"),
    (["transfer", "--n", "4", "--points", "2", "--out", "{tmp}"], {}, "--out"),
    (["robustness", "--n", "5", "--trials", "2", "--out-trials", "{tmp}/t.csv",
      "--out-fits", "{tmp}/f.csv"], {"plot_slopes": "{tmp}/missing/s.svg"}, "--plot-slopes"),
    (["echo", "--n", "4", "--points", "2"], {"out": ""}, "--out"),
    (["robustness", "--n", "5", "--trials", "2", "--out-trials", "{tmp}/t.csv",
      "--out-fits", "{tmp}/" + "f" * 300], {}, "--out-fits"),
], ids=["missing-fits-dir", "missing-plot-dir", "directory", "config-missing-dir",
        "config-empty-name", "name-too-long"])
def test_unwritable_output_fails_before_any_work(tmp_path, capsys, args, config, flag):
    # a path in a missing directory, a directory, no name at all, or a
    # name past the file system's limit, from a flag or from --config:
    # one usage error naming the flag, no file
    run = tmp_path / "run"
    run.mkdir()
    if config:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({k: v.format(tmp=run) for k, v in config.items()}))
        args = args + ["--config", str(path)]
    assert main([arg.format(tmp=run) for arg in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: cannot write ") and err.count("\n") == 1
    assert list(run.iterdir()) == []


def test_overflowing_gate_errors_fail_with_one_line(tmp_path):
    # a finite strength whose errors overflow the phase angles; a
    # subprocess, because in-process tests turn RuntimeWarning into an
    # exception and so cannot see a warning leak to stderr
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "echochain", "transfer", "--engine", "trotter-simfm",
         "--n", "3", "--points", "2", "--noise-v", "1e308"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert result.stderr == "runtime failure: gate errors overflow the phase angles\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_that_cannot_fit_names_its_chain(tmp_path, capsys, monkeypatch):
    # subnormal strengths leave every gate exact, so every trial runs and
    # every mean infidelity is 0
    monkeypatch.chdir(tmp_path)
    assert main(["robustness", "--n-range", "5:6", "--trials", "2",
                 "--v-min", "1e-320", "--v-max", "1e-310"]) == 1
    assert capsys.readouterr().err == (
        "runtime failure: cannot fit n=5: 0 of 8 noise strengths gave a mean infidelity "
        "above zero (need at least 3 points, got 0)\n")
    assert list(tmp_path.iterdir()) == []


def test_exact_transfer_curve_builds_its_config_once(tmp_path, monkeypatch):
    # the config checks t against the closed-form spectrum, and the curve
    # runs the closed form: no eigendecomposition either time
    eigh = np.linalg.eigh
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert main(["transfer", "--engine", "exact", "--n", "1000", "--points", "50",
                 "--out", str(tmp_path / "x.csv")]) == 0
    assert calls == []


def test_exact_transfer_curve_holds_no_n_by_n_array(tmp_path):
    # one 2000 x 2000 float matrix is 32 MB; the closed form holds a few
    # (points, n) arrays and a few thousand Python floats at a time
    tracemalloc.start()
    try:
        assert main(["transfer", "--engine", "exact", "--n", "2000", "--points", "50",
                     "--out", str(tmp_path / "x.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, peak / 2**20


@pytest.mark.parametrize("t_max", ["7", str(4 * math.pi), "-1"])
def test_t_max_outside_wrap_budget_is_usage_error(tmp_path, capsys, t_max):
    # one step fits a leg of at most 2*pi / j
    assert main(["echo", "--n", "4", "--steps", "1", "--t-max", t_max, "--points", "3",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "--t-max" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def simfm_budget(n: int, steps: int) -> float:
    """Longest trotter-simfm transfer: each half step fits one wrap
    period of the strongest bond."""
    spec = transfer_chain(n)
    return 2 * steps * 2 * math.pi / (spec.exchange_prefactor * float(max(spec.couplings)))


@pytest.mark.parametrize("flags", [
    ["--t-max", "1e308"],
    ["--steps", "1", "--t-max", repr(simfm_budget(5, 1) * (1 + 1e-9))],
    # the exact engine's budget: every phase t*w finite
    ["--engine", "exact", "--t-max", "1e308"],
])
def test_simfm_transfer_t_max_outside_wrap_budget_is_usage_error(tmp_path, capsys, flags):
    assert main(["transfer", "--engine", "trotter-simfm", "--n", "5", "--points", "2",
                 *flags, "--out", str(tmp_path / "x.csv")]) == 2
    assert "--t-max" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_simfm_transfer_at_wrap_budget_runs(tmp_path):
    assert main(["transfer", "--engine", "trotter-simfm", "--n", "5", "--steps", "1",
                 "--t-max", repr(simfm_budget(5, 1)), "--points", "2",
                 "--out", str(tmp_path / "x.csv")]) == 0


def test_t_max_at_wrap_budget_runs(tmp_path):
    assert main(["echo", "--n", "4", "--steps", "2", "--t-max", str(4 * math.pi),
                 "--points", "3", "--out", str(tmp_path / "x.csv")]) == 0


# Mean-field CSVs of the closed form, with their n=4 quantum rows.
@pytest.mark.golden
@pytest.mark.parametrize("golden,flags", [
    ("echo_meanfield_mirrored.csv",
     ["--schedule", "mirrored-pulse", "--steps", "1"]),
    ("echo_meanfield_continuous.csv",
     ["--schedule", "continuous", "--sign-convention", "1", "--steps", "2"]),
])
def test_meanfield_csv_is_byte_identical_to_golden(tmp_path, golden, flags):
    out = tmp_path / "echo.csv"
    assert main(["echo", "--n", "4", "--t-max", "1.2", "--points", "4", *flags,
                 "--with-meanfield", "--dt", "5e-3", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.golden
def test_noise_free_echo_curve_is_byte_identical_to_golden(tmp_path):
    # the default echo: n=10, 16 steps, 60 points
    out = tmp_path / "echo.csv"
    assert main(["echo", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "echo_default.csv").read_bytes()


@pytest.mark.parametrize("flags", [
    ["--dt", "0"],
    ["--dt", "nan"],
    ["--dt", "-0.001"],
    ["--mf-steps", "0"],
    # one mirrored step fits a leg of at most 2*pi / j
    ["--t-max", "10", "--steps", "2", "--mf-steps", "1"],
    ["--dt", "inf"],
    ["--mf-steps", "-1"],
])
def test_bad_meanfield_options_are_usage_errors(tmp_path, capsys, monkeypatch, flags):
    def no_quantum_curve(*args, **kwargs):
        raise AssertionError("the quantum curve ran before the options were checked")

    monkeypatch.setattr(cli, "fidelity_curve", no_quantum_curve)
    out = tmp_path / "x.csv"
    assert main(["echo", "--n", "4", "--points", "3", "--t-max", "1", "--with-meanfield",
                 *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flags[0]}")
    assert not out.exists()


@pytest.mark.parametrize("schedule", ["mirrored-pulse", "continuous"])
def test_dt_changes_no_meanfield_value(tmp_path, schedule):
    # --dt is checked and echoed in the dt column; the closed form reads
    # no step, so every other byte is the same
    tables = []
    for dt in ("1e-300", "1e-3", "0.5"):
        out = tmp_path / f"{dt}.csv"
        assert main(["echo", "--n", "5", "--t-max", "1.5", "--points", "4", "--steps", "2",
                     "--with-meanfield", "--schedule", schedule, "--dt", dt,
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert {row["dt"] for row in rows if row["series"] == "meanfield"} == {repr(float(dt))}
        tables.append([[value for key, value in row.items() if key != "dt"] for row in rows])
    assert tables[0] == tables[1] == tables[2]


def test_meanfield_rows_are_the_same_for_every_n_and_sign_convention(tmp_path):
    # the revival reads only the head pair's phase, which only bond
    # (2,3) turns: each mean-field row has the same bytes at --n 3 and
    # 12 and at either sign convention, but for the echoed n and
    # sign_convention cells
    for schedule in ("mirrored-pulse", "continuous"):
        for mf_steps in ("1", "2"):
            tables = []
            for n in ("3", "12"):
                for sign in ("-1", "1"):
                    out = tmp_path / "x.csv"
                    assert main(["echo", "--n", n, "--t-max", "3", "--points", "7",
                                 "--steps", "2", "--with-meanfield", "--schedule", schedule,
                                 "--mf-steps", mf_steps, "--sign-convention", sign,
                                 "--out", str(out)]) == 0
                    _, rows = read_csv(out)
                    rows = [row for row in rows if row["series"] == "meanfield"]
                    assert {(row["n"], row["sign_convention"]) for row in rows} == {(n, sign)}
                    tables.append([{key: value for key, value in row.items()
                                    if key not in ("n", "sign_convention")} for row in rows])
            assert len(tables[0]) == 7
            assert tables == [tables[0]] * 4


def test_meanfield_cost_does_not_grow_with_the_pulse_count(tmp_path):
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    assert main(["echo", "--n", "4", "--points", "3", "--t-max", "1", "--steps", "2",
                 "--with-meanfield", "--mf-steps", "1000000000", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    _, rows = read_csv(out)
    classical = [float(row["f_ec"]) for row in rows if row["series"] == "meanfield"]
    # cos^2(N pi / 2) is 1 at every even N
    assert classical == pytest.approx([1.0] * 3, abs=1e-8)


def test_meanfield_options_are_refused_without_meanfield(tmp_path, capsys):
    # --dt and --mf-steps only drive the mean-field series, so without it
    # they are refused before their values are checked
    out = tmp_path / "x.csv"
    assert main(["echo", "--n", "4", "--points", "2", "--t-max", "1", "--dt", "0",
                 "--mf-steps", "0", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: --dt: read only with --with-meanfield\n")
    assert not out.exists()


def test_continuous_schedule_has_no_wrap_budget(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["echo", "--n", "4", "--points", "2", "--t-max", "10", "--steps", "2",
                 "--with-meanfield", "--schedule", "continuous", "--mf-steps", "1",
                 "--dt", "5e-2", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [float(row["f_ec"]) for row in rows if row["series"] == "meanfield"] == \
        pytest.approx([1.0, 1.0], abs=1e-8)


# Sweep and curve CSVs of the one-magnon engine, whose complex products
# are unfused: the same bytes at every numpy CPU dispatch.
ECHO_SWEEP = ["robustness", "--protocol", "echo", "--n-range", "4:5", "--steps", "2",
              "--trials", "6", "--seed", "3", "--v-points", "3"]
TRANSFER_SWEEP = ["robustness", "--protocol", "transfer", "--engine", "trotter-simfm",
                  "--n-range", "4:5", "--steps", "8", "--trials", "5", "--seed", "7",
                  "--v-points", "3", "--v-min", "0.01"]


@pytest.mark.golden
@pytest.mark.parametrize("args,prefix", [
    (ECHO_SWEEP, "robustness_echo"),
    (TRANSFER_SWEEP, "robustness_transfer"),
])
def test_sweep_csvs_are_byte_identical_to_golden(tmp_path, args, prefix):
    trials, fits = tmp_path / "trials.csv", tmp_path / "fits.csv"
    assert main([*args, "--out-trials", str(trials), "--out-fits", str(fits)]) == 0
    assert trials.read_bytes() == (GOLDEN / f"{prefix}_trials.csv").read_bytes()
    assert fits.read_bytes() == (GOLDEN / f"{prefix}_fits.csv").read_bytes()


@pytest.mark.golden
def test_exact_transfer_curve_is_byte_identical_to_golden(tmp_path):
    # the benchmark's exact curve: the closed form reads math's log, exp
    # and trig and exactly rounded arithmetic only, so its bytes hold at
    # every numpy dispatch and OpenBLAS kernel (tests/test_pinned.py)
    out = tmp_path / "transfer.csv"
    assert main(["transfer", "--engine", "exact", "--n", "11", "--points", "50",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "transfer_exact.csv").read_bytes()


@pytest.mark.golden
def test_noisy_transfer_curve_is_byte_identical_to_golden(tmp_path):
    out = tmp_path / "transfer.csv"
    assert main(["transfer", "--engine", "trotter-simfm", "--n", "5",
                 "--t-max", "1.5707963267948966", "--points", "6", "--noise-v", "0.02",
                 "--seed", "4", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "transfer_simfm.csv").read_bytes()


# sha256 of each plot kind's SVG at small sizes: an echo curve with the
# mirrored mean field, an exact and a noisy trotter-simfm transfer curve,
# and the fit and slope plots of the golden echo and transfer sweeps
SVG_DIGESTS = {
    "echo.svg": "43fa1411700ce25ddbaa8c650d591b2bbd1c8de27716cc5f1ff15dcfb0c55a2f",
    "exact.svg": "5e24bc4f9afcca712209b8ce115ffa548fc03f53f5121fb995896b12704124c7",
    "simfm.svg": "50e49bf2ac277ee0e9d56ed6a2e586d80d6e0f701bc21a5160d9d108f253c1f0",
    "echo_fit.svg": "736f0b5369a9cdc9687b9e285cfb0de347a587dceb88abfe957cef863d8c6014",
    "echo_slopes.svg": "b1059660665e42f0394e81b1e427315ccb694724234c99c2659bd138a6eaf73d",
    "transfer_fit.svg": "5da2f0a5faf32cde645b34ec2ebd8b74ee3537b2244198da792395044062a08c",
    "transfer_slopes.svg": "fb00be090cd0e1e7d4281ece3611d3943550ea62d619a0b625a51d0f9e6f1966",
}


@pytest.mark.golden
@pytest.mark.parametrize("args", [
    ["echo", "--n", "4", "--t-max", "1.2", "--points", "4", "--schedule", "mirrored-pulse",
     "--steps", "1", "--with-meanfield", "--dt", "5e-3", "--plot", "echo.svg"],
    ["transfer", "--engine", "exact", "--n", "5", "--points", "6", "--plot", "exact.svg"],
    ["transfer", "--engine", "trotter-simfm", "--n", "5", "--t-max", "1.5707963267948966",
     "--points", "6", "--noise-v", "0.02", "--seed", "4", "--plot", "simfm.svg"],
    [*ECHO_SWEEP, "--plot-fit", "echo_fit.svg", "--plot-slopes", "echo_slopes.svg"],
    [*TRANSFER_SWEEP, "--plot-fit", "transfer_fit.svg",
     "--plot-slopes", "transfer_slopes.svg"],
], ids=["echo-meanfield", "transfer-exact", "transfer-simfm", "echo-sweep", "transfer-sweep"])
def test_plots_are_byte_identical_to_golden(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 0
    plots = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in tmp_path.glob("*.svg")}
    assert plots == {name: SVG_DIGESTS[name] for name in args if name.endswith(".svg")}


@pytest.mark.parametrize("args,work", [
    (["echo", "--n", "2"], "echo_fidelity_curve"),
    (["echo", "--steps", "0"], "echo_fidelity_curve"),
    (["echo", "--j", "0"], "echo_fidelity_curve"),
    (["echo", "--noise-v", "-0.1"], "echo_fidelity_curve"),
    (["echo", "--noise-v", "nan"], "echo_fidelity_curve"),
    (["transfer", "--n", "1"], "transfer_fidelity_curve"),
    (["transfer", "--engine", "trotter-simfm", "--steps", "0"], "transfer_fidelity_curve"),
    (["transfer", "--engine", "trotter-simfm", "--noise-v", "nan"], "transfer_fidelity_curve"),
    (["transfer", "--t-max", "inf"], "transfer_fidelity_curve"),
    (["robustness", "--n", "2"], "slope_vs_n"),
    (["robustness", "--protocol", "transfer", "--n", "4", "--steps", "0"], "slope_vs_n"),
    (["robustness", "--n", "5", "--t", "-1"], "slope_vs_n"),
    (["robustness", "--n", "5", "--t", "nan"], "slope_vs_n"),
    (["robustness", "--protocol", "transfer", "--n", "4", "--t", "nan"], "slope_vs_n"),
    # one step fits a leg of at most 2*pi / j
    (["robustness", "--n", "5", "--steps", "1", "--t", "7"], "slope_vs_n"),
    (["robustness", "--n", "5", "--v-min", "nan"], "slope_vs_n"),
    (["robustness", "--n", "5", "--v-max", "inf"], "slope_vs_n"),
    # oracle-check runs one fixed suite and takes no option
    (["oracle-check", "--trotter-steps", "8,16"], "run_all_checks"),
    (["oracle-check", "--samples", "100"], "run_all_checks"),
    (["oracle-check", "--seed", "0"], "run_all_checks"),
    (["oracle-check", "--config", str(CONFIGS / "seed_negative.json")], "run_all_checks"),
    # config values of the wrong type, checked like the flags they set
    (["echo", "--config", str(CONFIGS / "steps_string.json")], "echo_fidelity_curve"),
    (["echo", "--config", str(CONFIGS / "n_null.json")], "echo_fidelity_curve"),
    # a config value must be one of its flag's choices
    (["robustness", "--config", str(CONFIGS / "protocol_unknown.json"), "--n", "4"],
     "slope_vs_n"),
    (["echo", "--config", str(CONFIGS / "schedule_unknown.json")], "echo_fidelity_curve"),
    (["robustness", "--config", str(CONFIGS / "engine_exact.json"), "--n", "4"],
     "slope_vs_n"),
    # --n and --n-range are exclusive
    (["robustness", "--n", "5", "--n-range", "4:6"], "slope_vs_n"),
    # either trotter engine fits each half step into one wrap period of
    # the strongest bond: t <= 2 * steps * 2*pi / g
    (["transfer", "--engine", "trotter-direct", "--n", "5", "--t-max", "1e308",
      "--points", "2"], "transfer_fidelity_curve"),
    (["robustness", "--protocol", "transfer", "--engine", "trotter-simfm", "--n", "5",
      "--t", "1e308", "--trials", "1"], "slope_vs_n"),
    # the exact engine's phases t*w must stay finite
    (["transfer", "--engine", "exact", "--n", "6", "--t-max", "1e308", "--points", "3"],
     "transfer_fidelity_curve"),
    (["robustness", "--n", "5", "--t", "1e308", "--trials", "1"], "slope_vs_n"),
    (["oracle-check", "--max-n", "5"], "run_all_checks"),
    # a coupling whose wrap period 2*pi / j overflows
    (["echo", "--n", "4", "--points", "3", "--t-max", "1", "--steps", "2", "--j", "3e-308"],
     "echo_fidelity_curve"),
    (["echo", "--n", "4", "--j", "3e-308", "--with-meanfield"], "echo_fidelity_curve"),
    # error strengths whose logs coincide leave the fit no slope
    (["robustness", "--n", "5", "--trials", "2", "--steps", "2", "--v-min", "0.001",
      "--v-max", "0.0010000000000000002", "--v-points", "3"], "slope_vs_n"),
    # a second output naming the first's file would replace it
    (["robustness", "--n", "5", "--out-trials", "a.csv", "--out-fits", "a.csv"], "slope_vs_n"),
    (["robustness", "--n", "5", "--out-trials", "a.csv", "--out-fits", "./a.csv"],
     "slope_vs_n"),
    (["echo", "--out", "a.csv", "--plot", "a.csv"], "echo_fidelity_curve"),
    # an echo chain has no field phases, so field noise would change nothing
    (["robustness", "--n", "5", "--field-noise"], "slope_vs_n"),
    (["robustness", "--n", "5", "--config", str(CONFIGS / "field_noise.json")], "slope_vs_n"),
    # an option the command as given never reads, by flag or config key,
    # whatever its value: an echo sweep builds no engine, the exact
    # engine takes no step count, and only the mean field reads --schedule,
    # --sign-convention, --dt and --mf-steps
    (["robustness", "--n", "5", "--engine", "trotter-direct"], "slope_vs_n"),
    (["robustness", "--n", "5", "--config", str(CONFIGS / "engine_default.json")],
     "slope_vs_n"),
    (["transfer", "--engine", "exact", "--steps", "3"], "transfer_fidelity_curve"),
    (["transfer", "--config", str(CONFIGS / "steps_null.json")], "transfer_fidelity_curve"),
    (["echo", "--schedule", "continuous"], "echo_fidelity_curve"),
    (["echo", "--sign-convention", "1"], "echo_fidelity_curve"),
    (["echo", "--dt", "0.002"], "echo_fidelity_curve"),
    (["echo", "--mf-steps", "7"], "echo_fidelity_curve"),
    (["echo", "--config", str(CONFIGS / "mf_steps_null.json")], "echo_fidelity_curve"),
])
def test_bad_options_are_usage_errors_before_any_work(tmp_path, capsys, monkeypatch,
                                                      args, work):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the options were checked")

    # both protocols' curves run through cli.fidelity_curve
    monkeypatch.setattr(cli, work.removeprefix("echo_").removeprefix("transfer_"), no_work)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# A config's faults that are not the time's are raised before its time
# is read, so a double fault reports the other one, without the flag.
@pytest.mark.parametrize("line,err", [
    ("echo --j 3e-308 --t-max nan --points 2",
     "coupling 3e-308 is too weak: its wrap period overflows"),
    ("echo --steps 0 --t-max nan", "need at least one step, got 0"),
    ("transfer --engine trotter-simfm --steps 0 --t-max nan", "need at least one step, got 0"),
    ("transfer --engine exact --noise-v 0.1 --t-max nan",
     "the exact engine is noise-free; use a trotter engine"),
    ("robustness --n-range 2:9 --t 1e308 --trials 1", "echo needs at least 3 sites, got 2"),
    ("robustness --protocol transfer --n-range 2:30 --steps 0 --t nan --trials 1",
     "need at least one step, got 0"),
    ("robustness --protocol transfer --n-range 2:30 --steps 1 --t 3 --trials 1",
     "--t: time 3.0 is past the wrap budget 2.565099660323728 of 1 steps " + WRAP_RULE),
    ("echo --n 5 --with-meanfield --mf-steps 1 --t-max 7 --steps 2 --points 2",
     "--t-max with the mirrored-pulse schedule: time 7.0 is past the wrap budget "
     "6.283185307179586 of 1 steps " + WRAP_RULE),
    ("echo --n 5 --t-max -1", "--t-max: invalid evolution time -1.0"),
    ("robustness --n 5 --trials 2 --steps 2 --v-min 0.001 --v-max 0.0010000000000000002 "
     "--v-points 3", "v_min 0.001 and v_max 0.0010000000000000002 are too close for 3 points: "
     "the logs of the grid must increase strictly"),
    ("transfer --engine exact --n 6 --t-max 1e308 --points 3",
     "--t-max: phase t*w overflows at t=1e+308, w=3.5644951022459797"),
    ("robustness --n 5 --out-trials a.csv --out-fits ./a.csv",
     "--out-trials 'a.csv' and --out-fits './a.csv' name one file"),
    ("robustness --n 5 --field-noise",
     "--field-noise: an echo chain has no field phases to perturb"),
    ("robustness --n 5 --engine trotter-direct", "--engine: an echo sweep builds no engine"),
    ("transfer --engine exact --steps 3", "--steps: the exact engine takes no step count"),
    # the first unread option in the table's order is named
    ("echo --mf-steps 7 --schedule continuous",
     "--schedule: read only with --with-meanfield"),
])
def test_usage_error_names_the_fault(tmp_path, capsys, monkeypatch, line, err):
    monkeypatch.chdir(tmp_path)
    assert main(line.split()) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


# An unread option is named as it was given: by its config key, or by
# its flag when a flag overrides the key.
@pytest.mark.parametrize("line,config,err", [
    ("robustness --n 5", "engine_default.json",
     "config key 'engine': an echo sweep builds no engine"),
    ("transfer --steps 3", "steps_null.json", "--steps: the exact engine takes no step count"),
    ("echo", "mf_steps_null.json", "config key 'mf_steps': read only with --with-meanfield"),
])
def test_unread_option_is_named_as_given(tmp_path, capsys, monkeypatch, line, config, err):
    monkeypatch.chdir(tmp_path)
    assert main([*line.split(), "--config", str(CONFIGS / config)]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line,code,builds", [
    ("echo --n 5 --t-max 1e308", 2, 1),
    ("robustness --n-range 5:9 --t 1e308", 2, 1),
    # n = 4 fits one step at t = 3, and n = 5 is past its budget
    ("robustness --protocol transfer --n-range 4:11 --steps 1 --t 3", 2, 2),
    ("echo --n 5 --points 3", 0, 1),
])
def test_each_config_is_built_once(tmp_path, monkeypatch, line, code, builds):
    calls = []

    def counted(*args):
        calls.append(args)
        return trotter.check_plan(*args)

    for module in (echo, transfer):
        monkeypatch.setattr(module, "check_plan", counted)
    monkeypatch.chdir(tmp_path)
    assert main(line.split()) == code
    assert len(calls) == builds


@pytest.mark.parametrize("args,work", [
    (["echo", "--n", "5", "--points", "3"], "fidelity_curve"),
    (["echo", "--n", "5", "--points", "3", "--noise-v", "0.1"], "fidelity_curve"),
    (["transfer", "--points", "3"], "fidelity_curve"),
    (["robustness", "--n", "5", "--trials", "2"], "slope_vs_n"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_usage_error_naming_seed(tmp_path, capsys, monkeypatch, args, work,
                                                  source):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the seed was checked")

    monkeypatch.setattr(cli, work, no_work)
    monkeypatch.chdir(tmp_path)
    seed = ["--seed", "-3"] if source == "flag" else [
        "--config", str(CONFIGS / "seed_negative.json")]
    assert main([*args, *seed]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --seed: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_unreliable_fit_warns_on_stderr(tmp_path, capsys):
    trials, fits = tmp_path / "trials.csv", tmp_path / "fits.csv"
    assert main(["robustness", "--protocol", "echo", "--n", "5", "--steps", "2",
                 "--trials", "2", "--seed", "7", "--v-points", "3",
                 "--out-trials", str(trials), "--out-fits", str(fits)]) == 0
    _, rows = read_csv(fits)
    assert float(rows[0]["r_squared"]) < 0.95
    assert capsys.readouterr().err.startswith("warning: echo fit at n=5 has r_squared=")


@pytest.mark.golden
@pytest.mark.parametrize("args,prefix", [
    (ECHO_SWEEP, "robustness_echo"),
    (TRANSFER_SWEEP, "robustness_transfer"),
])
def test_reliable_fits_warn_nothing_and_keep_golden_bytes(tmp_path, capsys, args, prefix):
    trials, fits = tmp_path / "trials.csv", tmp_path / "fits.csv"
    assert main([*args, "--out-trials", str(trials), "--out-fits", str(fits)]) == 0
    assert capsys.readouterr().err == ""
    assert trials.read_bytes() == (GOLDEN / f"{prefix}_trials.csv").read_bytes()
    assert fits.read_bytes() == (GOLDEN / f"{prefix}_fits.csv").read_bytes()


def test_cli_import_freezes_the_import_heap(tmp_path):
    # the collections at interpreter exit skip frozen objects; a command
    # run through main freezes nothing more
    script = """
import gc

import echochain.cli

frozen = gc.get_freeze_count()
assert frozen > 0, frozen
assert echochain.cli.main(["transfer", "--n", "3", "--points", "2"]) == 0
assert gc.get_freeze_count() == frozen, (frozen, gc.get_freeze_count())
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                            capture_output=True)
    assert result.returncode == 0, result.stderr.decode()


def test_commands_never_import_the_dense_oracle(tmp_path):
    script = """
import sys

import echochain
import echochain.cli

for args in (
    ["echo", "--n", "4", "--t-max", "1", "--points", "3", "--steps", "2", "--noise-v", "0.01"],
    ["transfer", "--engine", "trotter-simfm", "--n", "4", "--points", "3", "--noise-v", "0.01"],
    ["robustness", "--n", "4", "--steps", "2", "--trials", "2", "--v-points", "3"],
):
    assert echochain.cli.main(args) == 0, args
# nor the modules that only help, a config file or a plot use
for module in ("echochain.statevec", "argparse", "gettext", "json", "echochain.svgplot"):
    assert module not in sys.modules, module
"""
    # the package this suite imports, whatever the working directory
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                            capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    assert {p.name for p in tmp_path.iterdir()} == {"echo.csv", "transfer.csv",
                                                    "trials.csv", "fits.csv"}


@pytest.mark.parametrize("args", [
    ["robustness", "--n", "5", "--steps", "2", "--trials", "10", "--v-points", "4",
     "--out-trials", "{run}/t.csv", "--out-fits", "{run}/f.csv"],
    ["echo", "--n", "4", "--t-max", "1", "--points", "2", "--steps", "1",
     "--out", "{run}/a.csv", "--plot", "{run}/p.svg"],
], ids=["robustness-fits", "echo-plot"])
def test_a_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch, args):
    # the second file's write fails: the first file, written by then, is
    # not moved into place
    writes = fail_write(monkeypatch, 2)
    assert main([arg.format(run=tmp_path) for arg in args]) == 1
    assert len(writes) == 2
    assert capsys.readouterr().err == "runtime failure: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == []


def test_outputs_land_where_open_would_write(tmp_path, monkeypatch):
    # through a symlink onto its target; a file that exists keeps its
    # permissions, and a new one gets those open() gives
    monkeypatch.chdir(tmp_path)
    Path("kept.csv").write_text("old\n")
    os.chmod("kept.csv", 0o600)
    Path("real.svg").write_text("old\n")
    os.symlink("real.svg", "link.svg")
    Path("fresh.txt").write_text("")
    args = ["echo", "--n", "4", "--t-max", "1", "--points", "2", "--steps", "1"]
    assert main([*args, "--out", "kept.csv", "--plot", "link.svg"]) == 0
    assert main([*args, "--out", "new.csv"]) == 0
    assert Path("kept.csv").read_bytes() == Path("new.csv").read_bytes()
    assert stat.S_IMODE(os.stat("kept.csv").st_mode) == 0o600
    assert stat.S_IMODE(os.stat("new.csv").st_mode) == stat.S_IMODE(os.stat("fresh.txt").st_mode)
    assert os.readlink("link.svg") == "real.svg"
    assert Path("real.svg").read_text().startswith("<?xml")
    assert sorted(os.listdir()) == ["fresh.txt", "kept.csv", "link.svg", "new.csv", "real.svg"]



def test_outputs_that_are_not_plain_files_are_written_in_place(tmp_path, monkeypatch):
    # a pipe stays a pipe and gets the CSV; a hard link stays shared; a
    # symlink's target in a directory the command may not write is written
    monkeypatch.chdir(tmp_path)
    args = ["echo", "--n", "4", "--t-max", "1", "--points", "2", "--steps", "1"]
    assert main([*args, "--out", "plain.csv", "--plot", "plain.svg"]) == 0
    os.mkfifo("pipe.csv")
    received = []
    reader = threading.Thread(target=lambda: received.append(Path("pipe.csv").read_bytes()),
                              daemon=True)
    reader.start()
    assert main([*args, "--out", "pipe.csv"]) == 0
    reader.join(timeout=30)
    assert stat.S_ISFIFO(os.lstat("pipe.csv").st_mode)
    assert received == [Path("plain.csv").read_bytes()]
    Path("shared.csv").write_text("old\n")
    os.link("shared.csv", "alias.csv")
    Path("locked").mkdir()
    Path("locked/real.svg").write_text("old\n")
    os.symlink("locked/real.svg", "link.svg")
    os.chmod("locked", 0o555)
    try:
        assert main([*args, "--out", "alias.csv", "--plot", "link.svg"]) == 0
    finally:
        os.chmod("locked", 0o755)
    assert os.stat("alias.csv").st_nlink == 2
    assert Path("shared.csv").read_bytes() == Path("plain.csv").read_bytes()
    assert Path("locked/real.svg").read_bytes() == Path("plain.svg").read_bytes()
    assert os.listdir("locked") == ["real.svg"]


@pytest.mark.parametrize("make", ["symlink", "hard-link", "link-to-new"])
def test_outputs_that_name_one_file_are_a_usage_error(tmp_path, capsys, monkeypatch, make):
    # one file through a symlink or a hard link, or one file yet to be made
    monkeypatch.chdir(tmp_path)
    if make == "link-to-new":
        os.symlink("a.csv", "b.csv")
    else:
        Path("a.csv").write_text("old\n")
        (os.symlink if make == "symlink" else os.link)("a.csv", "b.csv")
    before = sorted(os.listdir())
    assert main(["robustness", "--n", "5", "--trials", "2", "--steps", "2",
                 "--out-trials", "a.csv", "--out-fits", "b.csv"]) == 2
    assert capsys.readouterr() == (
        "", "error: --out-trials 'a.csv' and --out-fits 'b.csv' name one file\n")
    assert sorted(os.listdir()) == before
    assert make == "link-to-new" or Path("a.csv").read_text() == "old\n"


def test_a_device_may_take_several_outputs(tmp_path, monkeypatch):
    # a device is written in place, so each output reaches it
    monkeypatch.chdir(tmp_path)
    assert main(["robustness", "--n", "5", "--trials", "2", "--steps", "2",
                 "--out-trials", os.devnull, "--out-fits", os.devnull,
                 "--plot-slopes", os.devnull]) == 0
    assert list(tmp_path.iterdir()) == []


def test_field_noise_perturbs_the_transfer_trials(tmp_path):
    args = ["robustness", "--protocol", "transfer", "--n", "5", "--trials", "3", "--seed", "3",
            "--out-fits", str(tmp_path / "fits.csv")]
    assert main([*args, "--out-trials", str(tmp_path / "plain.csv")]) == 0
    assert main([*args, "--out-trials", str(tmp_path / "fields.csv"), "--field-noise"]) == 0
    _, plain = read_csv(tmp_path / "plain.csv")
    _, fields = read_csv(tmp_path / "fields.csv")
    assert all(a["infidelity"] != b["infidelity"] for a, b in zip(plain, fields, strict=True))


def test_oracle_check_takes_no_option(capsys):
    assert main(["oracle-check", "--help"]) == 0
    flags = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
             if line.startswith("  -")]
    assert flags == ["  -h, --help", "  --config FILE"]


def argparse_oracle(command: str) -> argparse.ArgumentParser:
    """The command's flags as argparse read them, built from the table:
    an absent flag parses as None."""
    parser = argparse.ArgumentParser(prog=f"echochain {command}")
    parser.add_argument("--config")
    for option in cli.COMMANDS[command][2]:
        if option.type is bool:
            parser.add_argument(cli._flag(option.name), action="store_const", const=True)
        else:
            parser.add_argument(cli._flag(option.name), type=option.type,
                                choices=option.choices)
    return parser


def flag_values(option):
    """Texts of valid values that argparse also reads as values: no
    text starts with '-' unless it is a negative integer."""
    if option.choices is not None:
        return st.sampled_from([str(choice) for choice in option.choices])
    if option.type is int:
        return st.integers(0 if option.name == "seed" else -10**6, 10**6).map(str)
    if option.type is float:
        return st.floats(min_value=0.0, allow_nan=False).map(repr)
    # each output its own file: two that name one are a usage error
    return st.from_regex(r"[a-z0-9_:,]{1,6}\.csv", fullmatch=True).map(
        lambda name: f"{option.name}-{name}" if option.output else name)


@st.composite
def flag_lines(draw):
    """A command and a line of its flags in any order, some repeated, some
    as `--flag=value`, some as a unique prefix of their flag."""
    # oracle-check has no option to draw
    command = draw(st.sampled_from(sorted(name for name, (_, _, options) in cli.COMMANDS.items()
                                          if options)))
    options = cli.COMMANDS[command][2]
    flags = ["--help", "--config", *(cli._flag(option.name) for option in options)]
    tokens = []
    for option in draw(st.lists(st.sampled_from(options), max_size=10)):
        flag = cli._flag(option.name)
        # a prefix names its flag when it is the flag, or names no other
        # flag and begins no other
        names = [flag[:k] for k in range(3, len(flag) + 1)
                 if flag[:k] == flag or (flag[:k] not in flags
                                         and sum(f.startswith(flag[:k]) for f in flags) == 1)]
        name = draw(st.sampled_from(names))
        if option.type is bool:
            tokens.append(name)
        elif draw(st.booleans()):
            tokens.append(f"{name}={draw(flag_values(option))}")
        else:
            tokens += [name, draw(flag_values(option))]
    return command, tokens


@seed(20261020)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=flag_lines())
def test_flags_read_as_argparse_read_them(monkeypatch, tmp_path, line):
    # output paths are checked against the working directory
    monkeypatch.chdir(tmp_path)
    command, tokens = line
    options = cli.COMMANDS[command][2]
    expected = {option.name: option.default for option in options}
    parsed = vars(argparse_oracle(command).parse_args(tokens))
    expected.update((key, value) for key, value in parsed.items()
                    if key in expected and value is not None)
    read, flags = cli._read_flags([command, *tokens])
    merged = vars(cli._merge_options(command, flags)[0])
    assert read == command
    assert [(k, type(v), v) for k, v in merged.items()] == \
        [(k, type(v), v) for k, v in expected.items()]


@pytest.mark.parametrize("line,err", [
    ("echo --warp-factor 9", "--warp-factor: unknown flag"),
    ("transfer --with-meanfield", "--with-meanfield: unknown flag"),
    ("echo --s 4",
     "--s: ambiguous flag, could be --steps, --seed, --schedule, --sign-convention"),
    ("echo --n", "--n: needs a value"),
    ("echo --n --points 3", "--n: needs a value"),
    ("echo --n x", "--n: must be int, got 'x'"),
    ("echo --po=1.5", "--points: must be int, got '1.5'"),
    ("echo --j 1e", "--j: must be float, got '1e'"),
    ("echo --backward sideways",
     "--backward: must be one of trotterized, exact-continuous, got 'sideways'"),
    ("echo --sign-convention 0", "--sign-convention: must be one of -1, 1, got 0"),
    ("echo --with-meanfield=yes", "--with-meanfield: takes no value, got 'yes'"),
    ("echo --help=yes", "--help: takes no value, got 'yes'"),
    ("warp", "unknown command 'warp', choose from echo, transfer, robustness, oracle-check"),
    ("--n 4 echo", "--n: unknown flag"),
    ("echo 4", "stray argument '4'"),
    ("echo -n 4", "stray argument '-n'"),
    ("echo --", "stray argument '--'"),
    # the last value of a repeated flag is checked, like the first
    ("echo --n 4 --n x", "--n: must be int, got 'x'"),
    # argparse read '-1e3' as a flag; now the time's own check reads it
    ("transfer --t-max -1e3", "--t-max: evolution time must be finite and >= 0, got -1000.0"),
])
def test_bad_line_is_one_usage_error(tmp_path, capsys, monkeypatch, line, err):
    monkeypatch.chdir(tmp_path)
    assert main(line.split()) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line", ["-h", "--help", "--he", "echo -h", "echo --n 4 --help",
                                  "echo --help --n x", "robustness --he"])
def test_help_goes_to_stdout_and_runs_nothing(tmp_path, capsys, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    assert main(line.split()) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: echochain ") and err == ""
    assert list(tmp_path.iterdir()) == []


def test_help_is_the_table(capsys):
    assert main(["--help"]) == 0
    top = capsys.readouterr().out
    assert main([]) == 2
    assert capsys.readouterr() == ("", top)
    for command, (summary, _, options) in cli.COMMANDS.items():
        assert f"  {command}  " in top and summary in top
        assert main([command, "--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert summary in lines and "  --config FILE: " + cli.CONFIG.help in lines
        for option in options:
            line, = [line for line in lines if line.split()[:1] == [cli._flag(option.name)]]
            assert f"(default {cli._fmt(option.default) or 'none'})" in line
            assert option.help is None or line.endswith(f": {option.help}")
            assert option.choices is None or \
                "{" + ",".join(map(str, option.choices)) + "}" in line


# One valid value of each option, not its default, and a second one
# for a base line that already gives the first; "" for a bare flag
WALK_VALUES = {
    "protocol": ["transfer", "echo"], "n": ["5"], "n_range": ["4:5"], "j": ["2"],
    "t_max": ["0.5"], "t": ["1"], "points": ["2"], "steps": ["3"],
    "backward": ["exact-continuous"], "engine": ["trotter-direct", "trotter-simfm"],
    "noise_v": ["0.01"], "seed": ["1"], "with_meanfield": [""],
    "schedule": ["continuous"], "sign_convention": ["1"], "dt": ["0.002"],
    "mf_steps": ["3"], "v_min": ["0.002"], "v_max": ["0.05"], "v_points": ["4"],
    "trials": ["3"], "field_noise": [""],
}


def test_walk_values_cover_every_option():
    assert set(WALK_VALUES) == {option.name for _, _, options in cli.COMMANDS.values()
                                for option in options if not option.output}


@pytest.mark.parametrize("base", [
    "echo --n 4 --t-max 1 --points 3 --steps 2",
    "echo --n 4 --t-max 1 --points 3 --steps 2 --with-meanfield",
    "transfer --n 4 --points 3",
    "transfer --n 4 --points 3 --engine trotter-simfm",
    "robustness --n 4 --steps 2 --trials 2 --v-points 3",
    "robustness --protocol transfer --n-range 4:4 --trials 2 --v-points 3",
])
def test_every_option_changes_an_output_byte_or_is_refused(tmp_path, monkeypatch, base):
    # each option a command takes, but --help, --config and the output
    # paths, given a value the base line does not: the command either
    # writes other bytes or exits 2 and writes nothing, so no flag is
    # accepted and then ignored
    def run(tag: str, args: list[str]) -> tuple[int, dict[str, bytes]]:
        run_dir = tmp_path / tag
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        code = main(args)
        return code, {path.name: path.read_bytes() for path in run_dir.iterdir()}

    args = base.split()
    code, expected = run("base", args)
    assert code == 0 and expected
    inert = []
    for option in cli.COMMANDS[args[0]][2]:
        flag = cli._flag(option.name)
        if option.output or (option.type is bool and flag in args):
            continue
        given = args[args.index(flag) + 1] if flag in args else None
        value = next(value for value in WALK_VALUES[option.name] if value != given)
        code, outputs = run(option.name, [*args, flag] + ([value] if value else []))
        if not (code == 2 and not outputs or code == 0 and outputs != expected):
            inert.append((flag, value, code))
    assert inert == []
