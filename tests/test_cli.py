import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from echochain import cli
from echochain.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent / "configs"


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

    def test_zero_trials_is_usage_error(self, tmp_path):
        assert main(["robustness", "--protocol", "echo", "--n", "5",
                     "--trials", "0"]) == 2

    def test_missing_n_is_usage_error(self):
        assert main(["robustness", "--protocol", "echo", "--trials", "5"]) == 2


class TestDeterminism:
    def test_repeat_and_thread_count_invariance(self, tmp_path, monkeypatch):
        args = ["robustness", "--protocol", "echo", "--n", "5", "--steps", "2",
                "--trials", "12", "--seed", "9", "--v-points", "3"]
        outputs = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "3")):
            monkeypatch.setenv("ECHOCHAIN_THREADS", threads)
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
        args = cli.build_parser().parse_args([command, "--config", str(config)])
        merged = vars(cli._merge_options(command, args))
        assert [(k, type(v), v) for k, v in merged.items()] == \
            [(o.name, type(o.default), o.default) for o in options]


class TestOracleCheck:
    def test_passes_on_healthy_build(self, capsys):
        code = main(["oracle-check", "--max-n", "5", "--samples", "100",
                     "--trotter-steps", "8,16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall=pass" in out
        assert "check=exchange-closed-form pass=true" in out

    def test_injected_bug_is_caught(self, capsys):
        code = main(["oracle-check", "--max-n", "5", "--samples", "50",
                     "--trotter-steps", "8,16", "--inject-theta-sign-bug"])
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


def test_runtime_failure_exits_one(tmp_path, capsys):
    # an unwritable output surfaces as a runtime failure, not a crash
    assert main(["echo", "--n", "4", "--t-max", "1", "--points", "2",
                 "--steps", "1", "--out", str(tmp_path / "absent" / "x.csv")]) == 1
    capsys.readouterr()
    # t * w overflows in exact evolution: one error line, no numpy warning
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["transfer", "--engine", "exact", "--n", "6", "--t-max", "1e308",
                     "--points", "3", "--out", str(out)]) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("runtime failure:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("t_max", ["7", str(4 * math.pi), "-1"])
def test_t_max_outside_wrap_budget_is_usage_error(tmp_path, capsys, t_max):
    # one step fits a leg of at most 2*pi / j
    assert main(["echo", "--n", "4", "--steps", "1", "--t-max", t_max, "--points", "3",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "--t-max" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_t_max_at_wrap_budget_runs(tmp_path):
    assert main(["echo", "--n", "4", "--steps", "2", "--t-max", str(4 * math.pi),
                 "--points", "3", "--out", str(tmp_path / "x.csv")]) == 0


# CSVs written by the per-point mean-field integrator that the batched
# pass replaced; the batched pass must reproduce them byte for byte.
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


@pytest.mark.parametrize("flags", [
    ["--dt", "0"],
    ["--dt", "nan"],
    ["--dt", "-0.001"],
    ["--mf-steps", "0"],
    # one mirrored step fits a leg of at most 2*pi / j
    ["--t-max", "10", "--steps", "2", "--mf-steps", "1"],
])
def test_bad_meanfield_options_are_usage_errors(tmp_path, capsys, monkeypatch, flags):
    def no_quantum_curve(*args, **kwargs):
        raise AssertionError("the quantum curve ran before the options were checked")

    monkeypatch.setattr(cli, "fidelity_curve", no_quantum_curve)
    out = tmp_path / "x.csv"
    assert main(["echo", "--n", "4", "--points", "3", "--t-max", "1", "--with-meanfield",
                 *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_meanfield_options_unchecked_without_meanfield(tmp_path):
    # --dt and --mf-steps only drive the mean-field series
    assert main(["echo", "--n", "4", "--points", "2", "--t-max", "1", "--dt", "0",
                 "--mf-steps", "0", "--out", str(tmp_path / "x.csv")]) == 0


def test_continuous_schedule_has_no_wrap_budget(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["echo", "--n", "4", "--points", "2", "--t-max", "10", "--steps", "2",
                 "--with-meanfield", "--schedule", "continuous", "--mf-steps", "1",
                 "--dt", "5e-2", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [float(row["f_ec"]) for row in rows if row["series"] == "meanfield"] == \
        pytest.approx([1.0, 1.0], abs=1e-8)


# Sweep and curve CSVs recorded before the test-only API and the
# mean-field object layer were removed; the trimmed code must reproduce
# them byte for byte.
ECHO_SWEEP = ["robustness", "--protocol", "echo", "--n-range", "4:5", "--steps", "2",
              "--trials", "6", "--seed", "3", "--v-points", "3"]
TRANSFER_SWEEP = ["robustness", "--protocol", "transfer", "--engine", "trotter-simfm",
                  "--n-range", "4:5", "--steps", "8", "--trials", "5", "--seed", "7",
                  "--v-points", "3", "--v-min", "0.01"]


@pytest.mark.parametrize("args,prefix", [
    (ECHO_SWEEP, "robustness_echo"),
    (TRANSFER_SWEEP, "robustness_transfer"),
])
def test_sweep_csvs_are_byte_identical_to_golden(tmp_path, args, prefix):
    trials, fits = tmp_path / "trials.csv", tmp_path / "fits.csv"
    assert main([*args, "--out-trials", str(trials), "--out-fits", str(fits)]) == 0
    assert trials.read_bytes() == (GOLDEN / f"{prefix}_trials.csv").read_bytes()
    assert fits.read_bytes() == (GOLDEN / f"{prefix}_fits.csv").read_bytes()


def test_noisy_transfer_curve_is_byte_identical_to_golden(tmp_path):
    out = tmp_path / "transfer.csv"
    assert main(["transfer", "--engine", "trotter-simfm", "--n", "5",
                 "--t-max", "1.5707963267948966", "--points", "6", "--noise-v", "0.02",
                 "--seed", "4", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "transfer_simfm.csv").read_bytes()


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
    (["oracle-check", "--trotter-steps", "0"], "run_all_checks"),
    (["oracle-check", "--trotter-steps", "8,0"], "run_all_checks"),
    (["oracle-check", "--samples", "0"], "run_all_checks"),
    (["oracle-check", "--samples", "-1"], "run_all_checks"),
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
])
def test_bad_options_are_usage_errors_before_any_work(tmp_path, capsys, monkeypatch,
                                                      args, work):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the options were checked")

    # both protocols' curves run through cli.fidelity_curve
    monkeypatch.setattr(cli, work.removeprefix("echo_").removeprefix("transfer_"), no_work)
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_unreliable_fit_warns_on_stderr(tmp_path, capsys):
    trials, fits = tmp_path / "trials.csv", tmp_path / "fits.csv"
    assert main(["robustness", "--protocol", "echo", "--n", "5", "--steps", "2",
                 "--trials", "2", "--seed", "7", "--v-points", "3",
                 "--out-trials", str(trials), "--out-fits", str(fits)]) == 0
    _, rows = read_csv(fits)
    assert float(rows[0]["r_squared"]) < 0.95
    assert capsys.readouterr().err.startswith("warning: echo fit at n=5 has r_squared=")


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
assert "echochain.statevec" not in sys.modules
"""
    # the package this suite imports, whatever the working directory
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                            capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    assert {p.name for p in tmp_path.iterdir()} == {"echo.csv", "transfer.csv",
                                                    "trials.csv", "fits.csv"}
