"""Command-line frontend: protocol runs, robustness sweeps, and the
oracle-check invariant suite.

Output contract: CSV with a header row, comma separators, '.' decimal
point, floats rendered by repr (shortest round-trip), so identical
flags plus an identical master seed reproduce byte-identical files.
SVG plots are a convenience rendered after the CSV is written and
never feed back into it.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from types import SimpleNamespace

import numpy as np

from . import svgplot
from .echo import EchoConfig, max_leg_duration
from .gates import fits_wrap_period
from .meanfield import SCHEDULE_MIRRORED, SCHEDULES, IntegratorConfig, meanfield_echo_curve
from .noise import NoiseModel, TrialStats, default_v_grid, fidelity_curve, slope_vs_n
from .transfer import ENGINE_EXACT, ENGINES, TransferConfig


class UsageError(Exception):
    """Bad flag/config values; maps to exit code 2."""


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


DEFAULTS: dict[str, dict] = {
    "echo": dict(
        n=10,
        j=1.0,
        t_max=3.0,
        points=60,
        steps=16,
        backward="trotterized",
        noise_v=0.0,
        seed=0,
        with_meanfield=False,
        schedule="mirrored-pulse",
        sign_convention=-1,
        dt=1e-3,
        mf_steps=None,
        out="echo.csv",
        plot=None,
    ),
    "transfer": dict(
        n=6,
        t_max=math.pi / 2,
        points=50,
        steps=None,
        engine=ENGINE_EXACT,
        noise_v=0.0,
        seed=0,
        out="transfer.csv",
        plot=None,
    ),
    "robustness": dict(
        protocol="echo",
        n=None,
        n_range=None,
        t=math.pi / 2,
        steps=None,
        engine="trotter-simfm",
        v_min=1e-3,
        v_max=1e-1,
        v_points=8,
        trials=100,
        seed=42,
        field_noise=False,
        out_trials="trials.csv",
        out_fits="fits.csv",
        plot_fit=None,
        plot_slopes=None,
    ),
    "oracle-check": dict(
        max_n=8,
        trotter_steps="8,16,32",
        samples=1000,
        seed=0,
        inject_theta_sign_bug=False,
    ),
}


def _option_actions(parser: argparse.ArgumentParser, command: str) -> dict[str, argparse.Action]:
    """The argparse action of each option of `command`, by its dest."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest: a for a in commands.choices[command]._actions}


def _config_value(key: str, value, default, action: argparse.Action):
    """A config file's value for `key`, of its default's type, or of its
    flag's type where the default is None (then null is allowed), and
    one of its flag's choices when the flag has them.  An int stands
    for a float, as it does on the command line."""
    kind = (action.type or str) if default is None else type(default)
    if kind is float and type(value) is int:
        value = float(value)
    if not (type(value) is kind or (value is None and default is None)):
        raise UsageError(f"config key '{key}' must be {kind.__name__}, got {value!r}")
    if value is not None and action.choices is not None and value not in action.choices:
        choices = ", ".join(str(choice) for choice in action.choices)
        raise UsageError(f"config key '{key}' must be one of {choices}, got {value!r}")
    return value


def _merge_options(
    command: str, args: argparse.Namespace, actions: dict[str, argparse.Action]
) -> SimpleNamespace:
    merged = dict(DEFAULTS[command])
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
            merged[key] = _config_value(key, value, merged[key], actions[key])
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
        for t, (f, _) in zip(grid, results):
            classical.append((t, f))
            rows.append(
                ["meanfield", opts.n, opts.j, t, mf_steps, "", opts.schedule,
                 opts.sign_convention, opts.dt, "", "", f, 1.0 - f]
            )
    write_csv(opts.out, header, rows)
    if opts.plot:
        figure = svgplot.Figure(
            title=f"Echo fidelity, n={opts.n}", xlabel="t", ylabel="f_ec"
        )
        figure.series.append(
            svgplot.Series("quantum", [t for t, _ in quantum], [f for _, f in quantum])
        )
        if classical:
            figure.series.append(
                svgplot.Series(
                    f"meanfield ({opts.schedule})",
                    [t for t, _ in classical],
                    [f for _, f in classical],
                )
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
            xlabel="t", ylabel="f_tr",
        )
        figure.series.append(
            svgplot.Series(opts.engine, [t for t, _ in curve], [f for _, f in curve])
        )
        svgplot.render(figure, opts.plot)
    return 0


def _parse_n_range(opts: SimpleNamespace) -> list[int]:
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
        )
        for n, fit in fits:
            figure.series.append(
                svgplot.Series(
                    f"n={n}", [v for v, _ in fit.points], [i for _, i in fit.points],
                    draw_points=True,
                )
            )
        svgplot.render(figure, opts.plot_fit)
    if opts.plot_slopes:
        figure = svgplot.Figure(
            title=f"{opts.protocol} robustness exponent", xlabel="n", ylabel="b(n)"
        )
        if opts.protocol == "transfer":
            for parity, label in ((1, "odd n"), (0, "even n")):
                pts = [(n, b) for n, b in slope_points if n % 2 == parity]
                if pts:
                    figure.series.append(
                        svgplot.Series(
                            label, [n for n, _ in pts], [b for _, b in pts],
                            draw_points=True,
                        )
                    )
        else:
            figure.series.append(
                svgplot.Series(
                    "b(n)", [n for n, _ in slope_points], [b for _, b in slope_points],
                    draw_points=True,
                )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echochain",
        description="Spin-chain echo and state-transfer experiments",
    )
    sub = parser.add_subparsers(dest="command")

    echo = sub.add_parser("echo", help="Loschmidt echo fidelity curve")
    echo.add_argument("--config", help="JSON file of defaults (flags override)")
    echo.add_argument("--n", type=int)
    echo.add_argument("--j", type=float)
    echo.add_argument("--t-max", dest="t_max", type=float)
    echo.add_argument("--points", type=int)
    echo.add_argument("--steps", type=int)
    echo.add_argument("--backward", choices=["trotterized", "exact-continuous"])
    echo.add_argument("--noise-v", dest="noise_v", type=float)
    echo.add_argument("--seed", type=int)
    echo.add_argument(
        "--with-meanfield", dest="with_meanfield", action="store_const", const=True
    )
    echo.add_argument("--schedule", choices=list(SCHEDULES))
    echo.add_argument(
        "--sign-convention", dest="sign_convention", type=int, choices=[-1, 1]
    )
    echo.add_argument("--dt", type=float)
    echo.add_argument("--mf-steps", dest="mf_steps", type=int)
    echo.add_argument("--out")
    echo.add_argument("--plot")

    transfer = sub.add_parser("transfer", help="state-transfer fidelity curve")
    transfer.add_argument("--config", help="JSON file of defaults (flags override)")
    transfer.add_argument("--n", type=int)
    transfer.add_argument("--t-max", dest="t_max", type=float)
    transfer.add_argument("--points", type=int)
    transfer.add_argument("--steps", type=int)
    transfer.add_argument("--engine", choices=list(ENGINES))
    transfer.add_argument("--noise-v", dest="noise_v", type=float)
    transfer.add_argument("--seed", type=int)
    transfer.add_argument("--out")
    transfer.add_argument("--plot")

    robust = sub.add_parser("robustness", help="gate-error Monte-Carlo sweep and fits")
    robust.add_argument("--config", help="JSON file of defaults (flags override)")
    robust.add_argument("--protocol", choices=["echo", "transfer"])
    robust.add_argument("--n", type=int)
    robust.add_argument("--n-range", dest="n_range", help="inclusive range A:B")
    robust.add_argument("--t", type=float)
    robust.add_argument("--steps", type=int)
    robust.add_argument("--engine", choices=[e for e in ENGINES if e != ENGINE_EXACT])
    robust.add_argument("--v-min", dest="v_min", type=float)
    robust.add_argument("--v-max", dest="v_max", type=float)
    robust.add_argument("--v-points", dest="v_points", type=int)
    robust.add_argument("--trials", type=int)
    robust.add_argument("--seed", type=int)
    robust.add_argument(
        "--field-noise", dest="field_noise", action="store_const", const=True,
        help="also perturb field phases (default: exchange only)",
    )
    robust.add_argument("--out-trials", dest="out_trials")
    robust.add_argument("--out-fits", dest="out_fits")
    robust.add_argument("--plot-fit", dest="plot_fit")
    robust.add_argument("--plot-slopes", dest="plot_slopes")

    oracle = sub.add_parser("oracle-check", help="run the invariant suite")
    oracle.add_argument("--config", help="JSON file of defaults (flags override)")
    oracle.add_argument("--max-n", dest="max_n", type=int)
    oracle.add_argument("--trotter-steps", dest="trotter_steps")
    oracle.add_argument("--samples", type=int)
    oracle.add_argument("--seed", type=int)
    oracle.add_argument(
        "--inject-theta-sign-bug", dest="inject_theta_sign_bug",
        action="store_const", const=True,
        help="testing fixture: flip the gate sign to prove the harness catches it",
    )
    return parser


_RUNNERS = {
    "echo": cmd_echo,
    "transfer": cmd_transfer,
    "robustness": cmd_robustness,
    "oracle-check": cmd_oracle_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(file=sys.stderr)
        return 2
    try:
        opts = _merge_options(args.command, args, _option_actions(parser, args.command))
        return _RUNNERS[args.command](opts)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure -> exit 1 per contract
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
