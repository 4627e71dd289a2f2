"""Command-line frontend: protocol runs, robustness sweeps, and the
oracle-check invariant suite.

Output contract: CSV with a header row, comma separators, '.' decimal
point, floats rendered by repr (shortest round-trip), so identical
flags plus an identical master seed reproduce byte-identical files.
SVG plots are a convenience rendered after the CSV is written and
never feed back into it.

Exit codes: 0 success, 1 runtime failure, 2 usage error.

`COMMANDS` is the one declaration of the commands and their options:
the parser's flags, the defaults, the checks of a `--config` file's
values and the dispatch to each command's runner all read it.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from . import svgplot
from .echo import EchoConfig, max_leg_duration
from .gates import fits_wrap_period
from .meanfield import SCHEDULE_MIRRORED, SCHEDULES, IntegratorConfig, meanfield_echo_curve
from .noise import NoiseModel, TrialStats, default_v_grid, fidelity_curve, slope_vs_n
from .transfer import ENGINE_EXACT, ENGINES, TransferConfig


class UsageError(Exception):
    """Bad flag/config values; maps to exit code 2."""


class Option(NamedTuple):
    """One option of a command: its config key, its value's type (a
    bool option is a bare flag), its default, and its allowed values."""

    name: str
    type: type
    default: Any
    choices: tuple | None = None
    help: str | None = None


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _config_value(key: str, value, option: Option):
    """A config file's value for `key`, of the option's type (an int
    stands for a float, as it does on the command line, and null is
    allowed where the default is None) and one of its choices when it
    has them."""
    if option.type is float and type(value) is int:
        value = float(value)
    if not (type(value) is option.type or (value is None and option.default is None)):
        raise UsageError(f"config key '{key}' must be {option.type.__name__}, got {value!r}")
    if value is not None and option.choices is not None and value not in option.choices:
        choices = ", ".join(str(choice) for choice in option.choices)
        raise UsageError(f"config key '{key}' must be one of {choices}, got {value!r}")
    return value


def _merge_options(command: str, args: argparse.Namespace) -> SimpleNamespace:
    """The table's defaults, overridden by the config file's values and
    then by the flags given."""
    options = {option.name: option for option in COMMANDS[command][2]}
    merged = {name: option.default for name, option in options.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(doc) - set(merged))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in doc.items():
            merged[key] = _config_value(key, value, options[key])
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return SimpleNamespace(**merged)


def _meanfield_integrator(opts: SimpleNamespace, mf_steps: int) -> IntegratorConfig:
    """The mean-field integrator, once every mean-field option is known
    to run."""
    try:
        integrator = IntegratorConfig(dt=opts.dt)
    except ValueError as exc:
        raise UsageError(f"--dt: {exc}") from exc
    if mf_steps < 1:
        raise UsageError(f"need at least one mean-field step, got {mf_steps}")
    # the mirrored pulse train fits each step's slice into one wrap
    # period, as the quantum forward leg does
    if opts.schedule == SCHEDULE_MIRRORED and not fits_wrap_period(
        opts.t_max / mf_steps, opts.j
    ):
        longest = max_leg_duration(opts.j, mf_steps)
        raise UsageError(
            f"with the mirrored-pulse schedule --t-max must lie in [0, {longest!r}] "
            f"(mf_steps * 2*pi / j), got {opts.t_max}"
        )
    return integrator


def cmd_echo(opts: SimpleNamespace) -> int:
    if opts.points < 1:
        raise UsageError(f"need at least one grid point, got {opts.points}")
    try:
        noise = NoiseModel(v=opts.noise_v)
        config = EchoConfig(
            n=opts.n,
            t=0.0,
            n_steps=opts.steps,
            j=opts.j,
            backward_mode=opts.backward,
            noise=noise if noise.v > 0 else None,
            seed=opts.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # The simulated ferromagnet fits each step's slice into one wrap
    # period, checked as the plan builder checks it.
    if not fits_wrap_period(opts.t_max / opts.steps, opts.j):
        longest = max_leg_duration(opts.j, opts.steps)
        raise UsageError(
            f"--t-max must lie in [0, {longest!r}] (steps * 2*pi / j), got {opts.t_max}"
        )
    mf_steps = opts.mf_steps if opts.mf_steps is not None else opts.steps
    if opts.with_meanfield:
        integrator = _meanfield_integrator(opts, mf_steps)
    grid = [float(t) for t in np.linspace(0.0, opts.t_max, opts.points)]
    quantum = fidelity_curve(config, grid)
    header = [
        "series", "n", "j", "t", "steps", "mode", "schedule",
        "sign_convention", "dt", "v", "seed", "f_ec", "i_ec",
    ]
    rows = [
        ["quantum", opts.n, opts.j, t, opts.steps, opts.backward, "", "", "",
         opts.noise_v, opts.seed, f, 1.0 - f]
        for t, f in quantum
    ]
    classical: list[tuple[float, float]] = []
    if opts.with_meanfield:
        results = meanfield_echo_curve(
            opts.n, opts.j, grid,
            integrator=integrator,
            schedule=opts.schedule,
            n_steps=mf_steps,
            sign_convention=opts.sign_convention,
        )
        classical = [(t, f) for t, (f, _) in zip(grid, results)]
        rows += [
            ["meanfield", opts.n, opts.j, t, mf_steps, "", opts.schedule,
             opts.sign_convention, opts.dt, "", "", f, 1.0 - f]
            for t, f in classical
        ]
    write_csv(opts.out, header, rows)
    if opts.plot:
        series = [svgplot.Series("quantum", quantum)]
        if classical:
            series.append(svgplot.Series(f"meanfield ({opts.schedule})", classical))
        figure = svgplot.Figure(
            title=f"Echo fidelity, n={opts.n}", xlabel="t", ylabel="f_ec", series=series
        )
        svgplot.render(figure, opts.plot)
    return 0


def cmd_transfer(opts: SimpleNamespace) -> int:
    if opts.points < 1:
        raise UsageError(f"need at least one grid point, got {opts.points}")
    if not (math.isfinite(opts.t_max) and opts.t_max >= 0):
        raise UsageError(f"--t-max must be finite and >= 0, got {opts.t_max}")
    try:
        noise = NoiseModel(v=opts.noise_v)
        config = TransferConfig(
            n=opts.n,
            t=0.0,
            n_steps=opts.steps,
            engine=opts.engine,
            noise=noise if noise.v > 0 else None,
            seed=opts.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    grid = [float(t) for t in np.linspace(0.0, opts.t_max, opts.points)]
    curve = fidelity_curve(config, grid)
    header = ["n", "t", "steps", "engine", "v", "seed", "f_tr", "i_tr"]
    shown_steps = "" if opts.engine == ENGINE_EXACT else config.steps
    rows = [
        [opts.n, t, shown_steps, opts.engine, opts.noise_v, opts.seed, f, 1.0 - f]
        for t, f in curve
    ]
    write_csv(opts.out, header, rows)
    if opts.plot:
        figure = svgplot.Figure(
            title=f"Transfer fidelity, n={opts.n} ({opts.engine})",
            xlabel="t", ylabel="f_tr", series=[svgplot.Series(opts.engine, curve)],
        )
        svgplot.render(figure, opts.plot)
    return 0


def _parse_n_range(opts: SimpleNamespace) -> list[int]:
    if opts.n_range and opts.n is not None:
        raise UsageError("give --n or --n-range, not both")
    if opts.n_range:
        try:
            lo, hi = (int(part) for part in str(opts.n_range).split(":"))
        except ValueError as exc:
            raise UsageError(f"bad n-range '{opts.n_range}', expected A:B") from exc
        if hi < lo:
            raise UsageError(f"empty n-range '{opts.n_range}'")
        return list(range(lo, hi + 1))
    if opts.n is not None:
        return [int(opts.n)]
    raise UsageError("give --n or --n-range")


def cmd_robustness(opts: SimpleNamespace) -> int:
    if opts.trials < 1:
        raise UsageError(f"need at least one trial, got {opts.trials}")
    ns = _parse_n_range(opts)
    try:
        v_grid = default_v_grid(opts.v_min, opts.v_max, opts.v_points)
        # every swept n's config is checked before any trial runs
        if opts.protocol == "echo":
            # an echo sweep without --steps runs 4 Trotter steps per leg
            steps = 4 if opts.steps is None else opts.steps
            configs = [EchoConfig(n=n, t=opts.t, n_steps=steps) for n in ns]
        else:
            configs = [
                TransferConfig(n=n, t=opts.t, n_steps=opts.steps, engine=opts.engine) for n in ns
            ]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    trial_rows: list[list] = []

    def collect(stats: TrialStats) -> None:
        for k, infidelity in enumerate(stats.infidelities):
            trial_rows.append(
                [opts.protocol, stats.n, opts.t, stats.steps, stats.v, k,
                 opts.seed, float(infidelity)]
            )

    fits = slope_vs_n(
        configs, v_grid, opts.trials, opts.seed,
        on_stats=collect, include_fields=opts.field_noise,
    )
    for n, fit in fits:
        if not fit.reliable:
            print(f"warning: {opts.protocol} fit at n={n} has r_squared={fit.r_squared:.3f}; "
                  f"b={fit.b:.3f} is not a reliable exponent", file=sys.stderr)
    slope_points = [(n, fit.b) for n, fit in fits]
    fit_rows = [
        [opts.protocol, n,
         ("even" if n % 2 == 0 else "odd") if opts.protocol == "transfer" else "",
         fit.a, fit.b, fit.r_squared, len(fit.points)]
        for n, fit in fits
    ]
    write_csv(
        opts.out_trials,
        ["protocol", "n", "t", "steps", "v", "trial", "seed", "infidelity"],
        trial_rows,
    )
    write_csv(
        opts.out_fits,
        ["protocol", "n", "parity", "a", "b", "r_squared", "points"],
        fit_rows,
    )
    if opts.plot_fit:
        figure = svgplot.Figure(
            title=f"{opts.protocol} infidelity vs gate-error strength",
            xlabel="v", ylabel="mean infidelity", logx=True, logy=True,
            series=[svgplot.Series(f"n={n}", fit.points, draw_points=True) for n, fit in fits],
        )
        svgplot.render(figure, opts.plot_fit)
    if opts.plot_slopes:
        if opts.protocol == "transfer":
            groups = [(label, [(n, b) for n, b in slope_points if n % 2 == parity])
                      for parity, label in ((1, "odd n"), (0, "even n"))]
        else:
            groups = [("b(n)", slope_points)]
        figure = svgplot.Figure(
            title=f"{opts.protocol} robustness exponent", xlabel="n", ylabel="b(n)",
            series=[svgplot.Series(label, pts, draw_points=True) for label, pts in groups],
        )
        svgplot.render(figure, opts.plot_slopes)
    return 0


def run_all_checks(**options):
    """The oracle-check suite, imported on use: it loads the dense oracle."""
    from .checks import run_all_checks as run_checks
    return run_checks(**options)


def cmd_oracle_check(opts: SimpleNamespace) -> int:
    try:
        steps = tuple(int(s) for s in str(opts.trotter_steps).split(","))
    except ValueError as exc:
        raise UsageError(f"bad --trotter-steps '{opts.trotter_steps}'") from exc
    if opts.max_n < 2:
        raise UsageError("--max-n must be at least 2")
    if min(steps) < 1:
        raise UsageError(f"--trotter-steps must all be at least 1, got {opts.trotter_steps}")
    if opts.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {opts.samples}")
    results = run_all_checks(
        max_n=opts.max_n,
        trotter_steps=steps,
        samples=opts.samples,
        seed=opts.seed,
        inject_theta_sign_bug=bool(opts.inject_theta_sign_bug),
    )
    for result in results:
        status = "true" if result.passed else "false"
        print(f"check={result.name} pass={status} {result.detail}")
    all_passed = all(r.passed for r in results)
    print(f"overall={'pass' if all_passed else 'fail'}")
    return 0 if all_passed else 1


CONFIG_HELP = "JSON file of defaults (flags override)"

# Each command's summary, runner and options, in flag order.  An
# option's flag is `--` plus its name with '-' for '_'.
COMMANDS: dict[str, tuple[str, Callable[[SimpleNamespace], int], list[Option]]] = {
    "echo": ("Loschmidt echo fidelity curve", cmd_echo, [
        Option("n", int, 10),
        Option("j", float, 1.0),
        Option("t_max", float, 3.0),
        Option("points", int, 60),
        Option("steps", int, 16),
        Option("backward", str, "trotterized", ("trotterized", "exact-continuous")),
        Option("noise_v", float, 0.0),
        Option("seed", int, 0),
        Option("with_meanfield", bool, False),
        Option("schedule", str, SCHEDULE_MIRRORED, SCHEDULES),
        Option("sign_convention", int, -1, (-1, 1)),
        Option("dt", float, 1e-3),
        Option("mf_steps", int, None),
        Option("out", str, "echo.csv"),
        Option("plot", str, None),
    ]),
    "transfer": ("state-transfer fidelity curve", cmd_transfer, [
        Option("n", int, 6),
        Option("t_max", float, math.pi / 2),
        Option("points", int, 50),
        Option("steps", int, None),
        Option("engine", str, ENGINE_EXACT, ENGINES),
        Option("noise_v", float, 0.0),
        Option("seed", int, 0),
        Option("out", str, "transfer.csv"),
        Option("plot", str, None),
    ]),
    "robustness": ("gate-error Monte-Carlo sweep and fits", cmd_robustness, [
        Option("protocol", str, "echo", ("echo", "transfer")),
        Option("n", int, None),
        Option("n_range", str, None, help="inclusive range A:B"),
        Option("t", float, math.pi / 2),
        Option("steps", int, None),
        Option("engine", str, "trotter-simfm", tuple(e for e in ENGINES if e != ENGINE_EXACT)),
        Option("v_min", float, 1e-3),
        Option("v_max", float, 1e-1),
        Option("v_points", int, 8),
        Option("trials", int, 100),
        Option("seed", int, 42),
        Option("field_noise", bool, False,
               help="also perturb field phases (default: exchange only)"),
        Option("out_trials", str, "trials.csv"),
        Option("out_fits", str, "fits.csv"),
        Option("plot_fit", str, None),
        Option("plot_slopes", str, None),
    ]),
    "oracle-check": ("run the invariant suite", cmd_oracle_check, [
        Option("max_n", int, 8),
        Option("trotter_steps", str, "8,16,32"),
        Option("samples", int, 1000),
        Option("seed", int, 0),
        Option("inject_theta_sign_bug", bool, False,
               help="testing fixture: flip the gate sign to prove the harness catches it"),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echochain",
        description="Spin-chain echo and state-transfer experiments",
    )
    sub = parser.add_subparsers(dest="command")
    for command, (summary, _, options) in COMMANDS.items():
        flags = sub.add_parser(command, help=summary)
        flags.add_argument("--config", help=CONFIG_HELP)
        for option in options:
            flag = "--" + option.name.replace("_", "-")
            # an absent flag parses as None, so the config file or the
            # default stands
            if option.type is bool:
                flags.add_argument(flag, action="store_const", const=True, help=option.help)
            else:
                flags.add_argument(
                    flag, type=option.type, choices=option.choices, help=option.help
                )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command][1](_merge_options(args.command, args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure -> exit 1 per contract
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
