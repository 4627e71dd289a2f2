"""Command-line frontend: protocol runs, robustness sweeps, and the
oracle-check invariant suite.

Output contract: CSV with a header row, comma separators, '.' decimal
point, floats rendered by repr (shortest round-trip), so identical
flags plus an identical master seed reproduce byte-identical files.
SVG plots are a convenience rendered after the CSV is written and
never feed back into it.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Each config
is built once; its fault is a usage error, and a `TimeBudgetError`
names the time's flag.  An option given, by flag or config key, that
the command as given would not read is a usage error too.  Every
output path given is checked before any work, no two naming one file,
and a command's files are staged and put in place only once all are
written (`_staged_outputs`), so a command that cannot write one of its
files writes none.

`COMMANDS` is the one declaration of the commands and their options:
the flags `main` reads, the help, the defaults, the one check of a
value from a flag or a `--config` file, and the dispatch to each
command's runner all read it.
"""
from __future__ import annotations

import contextlib
import dataclasses
import gc
import itertools
import math
import os
import stat
import sys
from types import SimpleNamespace
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from .echo import EchoConfig
from .meanfield import SCHEDULE_MIRRORED, SCHEDULES, meanfield_echo_curve
from .noise import NoiseModel, default_v_grid, fidelity_curve, slope_vs_n
from .transfer import ENGINE_EXACT, ENGINES, TransferConfig
from .trotter import TimeBudgetError

# Move every object imported so far, numpy's above all, to the
# permanent generation, so the collections at interpreter exit skip
# them; the README gives the exit times this saves.  Objects a command
# creates later are collected as usual.
gc.freeze()


class UsageError(Exception):
    """Bad flag/config values; maps to exit code 2."""


class Option(NamedTuple):
    """One option of a command: its config key, its value's type (a
    bool option is a bare flag), its default, its allowed values, and
    whether it names a file the command writes."""

    name: str
    type: type
    default: Any
    choices: tuple | None = None
    help: str | None = None
    output: bool = False


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _row(values) -> str:
    """One CSV row, or a run of its columns, without the newline."""
    return ",".join(_fmt(v) for v in values)


def write_csv(path: str, header: list[str], rows: list[str]) -> None:
    """The header, then one line per row: each row is a CSV line
    without its newline, as `_row` formats one."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(row + "\n" for row in rows)


def _checked(where: str, value, option: Option, text: bool = False):
    """`value` for the option, named `where` in an error: a flag's
    `text`, turned into the option's type first, or a config file's
    value, which must have that type (an int stands for a float, and
    null is allowed where the default is None); either way one of the
    option's choices when it has them."""
    if text and option.type is not str:
        with contextlib.suppress(ValueError):
            value = option.type(value)
    if option.type is float and type(value) is int:
        value = float(value)
    if not (type(value) is option.type or (value is None and option.default is None)):
        raise UsageError(f"{where} must be {option.type.__name__}, got {value!r}")
    if value is not None and option.choices is not None and value not in option.choices:
        choices = ", ".join(str(choice) for choice in option.choices)
        raise UsageError(f"{where} must be one of {choices}, got {value!r}")
    return value


def _merge_options(command: str,
                   flags: dict[str, Any]) -> tuple[SimpleNamespace, dict[str, str]]:
    """The table's defaults, overridden by the config file's values and
    then by the flags given (`_read_flags`), with every output path
    given checked, and no two naming one file; and, by option name, the
    flag or config key that gave each option given."""
    options = {option.name: option for option in COMMANDS[command][2]}
    merged = {name: option.default for name, option in options.items()}
    given: dict[str, str] = {}
    config_path = flags.get("config")
    if config_path:
        import json  # only a config file is JSON

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
            given[key] = f"config key '{key}'"
            merged[key] = _checked(given[key], value, options[key])
    merged.update((key, value) for key, value in flags.items() if key in merged)
    given.update((key, _flag(key)) for key in flags if key in merged)
    # numpy's SeedSequence takes no negative entry, and a seed that no
    # stream reads is still written to the CSV
    if merged.get("seed", 0) < 0:
        raise UsageError(f"--seed: need a non-negative integer, got {merged['seed']}")
    outputs = [(_flag(option.name), merged[option.name]) for option in options.values()
               if option.output and merged[option.name] is not None]
    for flag, path in outputs:
        _check_output(flag, path)
    if len(outputs) > 1:
        _check_distinct(outputs)
    return SimpleNamespace(**merged), given


def _check_output(flag: str, path: str) -> None:
    """A usage error unless `path` names a non-directory in an existing
    directory that the command may write to, and one the file system
    can look up (not a name past its limit)."""
    directory = os.path.dirname(path) or "."
    if not path or os.path.isdir(path):
        fault = "it is a directory" if path else "it names no file"
    elif not os.path.isdir(directory):
        fault = f"no directory {directory!r}"
    elif not os.access(directory, os.W_OK | os.X_OK):
        fault = f"directory {directory!r} is not writable"
    else:
        try:
            os.lstat(path)
            return
        except FileNotFoundError:
            return
        except OSError as exc:
            fault = exc.strerror
    raise UsageError(f"{flag}: cannot write {path!r}: {fault}")


def _check_distinct(outputs: list[tuple[str, str]]) -> None:
    """A usage error if two of the (flag, path) outputs name one file,
    whose second write would replace the first: the same regular file,
    through a symlink or a hard link as well, or the same file yet to be
    made, once symlinks are resolved.  A device or a pipe may be named
    twice: each write reaches it in place."""
    seen: dict[object, tuple[str, str]] = {}
    for flag, path in outputs:
        try:
            info = os.stat(path)
        except OSError:
            key: object = os.path.realpath(path)
        else:
            if not stat.S_ISREG(info.st_mode):
                continue
            key = (info.st_dev, info.st_ino)
        if key in seen:
            first, first_path = seen[key]
            raise UsageError(f"{first} {first_path!r} and {flag} {path!r} name one file")
        seen[key] = flag, path


Stage = Callable[[str], str]


@contextlib.contextmanager
def _staged_outputs() -> Iterator[Stage]:
    """`stage(path)` names a new empty file for a command to write in
    the place of `path`.  Once the command returns, each staged file is
    put in place; if it fails, none is, and the staged files are
    removed.  Each file lands where `open(path, "w")` writes.  A new
    path, or a plain file (regular, one link, the runner's own), is
    staged beside it, in the directory `_check_output` checked, with the
    mode a new or that file has, and moved onto it.  Any other path (a
    symlink, a device, a pipe, a hard-linked or another user's file) is
    staged in the temporary directory and copied into it, so it stays
    what it was."""
    moves: list[tuple[str, str]] = []
    copies: list[tuple[str, str]] = []

    def stage(path: str) -> str:
        try:
            info = os.lstat(path)
        except FileNotFoundError:
            info = None
        if info is not None and not (
                stat.S_ISREG(info.st_mode) and info.st_nlink == 1
                and (info.st_uid, info.st_gid) == (os.geteuid(), os.getegid())):
            import tempfile  # only a file written in place needs it

            handle, temp = tempfile.mkstemp(prefix=".echochain-")
            os.close(handle)
            copies.append((temp, path))
            return temp
        for k in itertools.count(len(moves)):
            temp = os.path.join(os.path.dirname(path), f".echochain-{os.getpid()}-{k}")
            try:
                os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            except FileExistsError:
                continue
            moves.append((temp, path))
            if info is not None:
                os.chmod(temp, stat.S_IMODE(info.st_mode))
            return temp

    try:
        yield stage
        # the files written in place first: they are the ones a write
        # can still fail on; and after what the command printed, in case
        # one is the standard output
        sys.stdout.flush()
        for temp, path in copies:
            with open(temp, "rb") as source, open(path, "wb") as target:
                target.write(source.read())
        while moves:
            os.replace(*moves[0])
            del moves[0]
    finally:
        for temp, _ in moves + copies:
            with contextlib.suppress(OSError):
                os.remove(temp)


@contextlib.contextmanager
def _config_faults(time_flag: str) -> Iterator[None]:
    """A config's fault as a usage error: a `TimeBudgetError` names the
    time's flag, any other `ValueError` stands as it is."""
    try:
        yield
    except TimeBudgetError as exc:
        raise UsageError(f"{time_flag}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _curve(opts: SimpleNamespace, protocol: type, **fields) -> tuple[Any, list[float]]:
    """The `protocol` config of a curve command, built at `--t-max`
    with no noise model at `--noise-v` 0, and its `--points` times from
    0 to `--t-max`."""
    if opts.points < 1:
        raise UsageError(f"need at least one grid point, got {opts.points}")
    with _config_faults("--t-max"):
        noise = NoiseModel(v=opts.noise_v)
        config = protocol(n=opts.n, t=opts.t_max, n_steps=opts.steps,
                          noise=noise if noise.v > 0 else None, seed=opts.seed, **fields)
    return config, [float(t) for t in np.linspace(0.0, opts.t_max, opts.points)]


def _unread(given: dict[str, str], names: tuple[str, ...], reason: str) -> None:
    """A usage error naming the first of the options `names` that was
    given (`_merge_options`): the command, as given, reads none of
    them."""
    for name in names:
        if name in given:
            raise UsageError(f"{given[name]}: {reason}")


def _plot(stage: Stage, path: str | None, title: str, xlabel: str, ylabel: str,
          series: list[tuple], logx: bool = False, logy: bool = False) -> None:
    """Render the figure of `series`, each the arguments of one
    `svgplot.Series`, to `path` when a path is given."""
    if path:
        from . import svgplot  # only a plot needs it

        figure = svgplot.Figure(title, xlabel, ylabel, [svgplot.Series(*s) for s in series],
                                logx, logy)
        svgplot.render(figure, stage(path))


def cmd_echo(opts: SimpleNamespace, given: dict[str, str], stage: Stage) -> int:
    if not opts.with_meanfield:
        _unread(given, ("schedule", "sign_convention", "dt", "mf_steps"),
                "read only with --with-meanfield")
    config, grid = _curve(opts, EchoConfig, j=opts.j, backward_mode=opts.backward)
    mf_steps = opts.mf_steps if opts.mf_steps is not None else opts.steps
    classical: list[tuple[float, float]] = []
    if opts.with_meanfield:
        # the closed form reads no step size; --dt is checked and echoed
        if not (math.isfinite(opts.dt) and opts.dt > 0):
            raise UsageError(f"--dt: step size must be positive and finite, got {opts.dt}")
        if mf_steps < 1:
            raise UsageError(f"--mf-steps: need at least one mean-field step, got {mf_steps}")
        # the mirrored pulse train is the echo's forward leg at mf_steps,
        # so it has that leg's wrap budget
        if opts.schedule == SCHEDULE_MIRRORED:
            with _config_faults("--t-max with the mirrored-pulse schedule"):
                dataclasses.replace(config, n_steps=mf_steps)
        # --n and --sign-convention change no revival; they are echoed
        revivals = meanfield_echo_curve(opts.j, grid, schedule=opts.schedule, n_steps=mf_steps)
        classical = list(zip(grid, revivals))
    quantum = fidelity_curve(config, grid)
    header = [
        "series", "n", "j", "t", "steps", "mode", "schedule",
        "sign_convention", "dt", "v", "seed", "f_ec", "i_ec",
    ]
    rows = [
        _row(["quantum", opts.n, opts.j, t, opts.steps, opts.backward, "", "", "",
              opts.noise_v, opts.seed, f, 1.0 - f])
        for t, f in quantum
    ]
    rows += [
        _row(["meanfield", opts.n, opts.j, t, mf_steps, "", opts.schedule,
              opts.sign_convention, opts.dt, "", "", f, 1.0 - f])
        for t, f in classical
    ]
    write_csv(stage(opts.out), header, rows)
    series = [("quantum", quantum)]
    if classical:
        series.append((f"meanfield ({opts.schedule})", classical))
    _plot(stage, opts.plot, f"Echo fidelity, n={opts.n}", "t", "f_ec", series)
    return 0


def cmd_transfer(opts: SimpleNamespace, given: dict[str, str], stage: Stage) -> int:
    if opts.engine == ENGINE_EXACT:
        _unread(given, ("steps",), "the exact engine takes no step count")
    config, grid = _curve(opts, TransferConfig, engine=opts.engine)
    curve = fidelity_curve(config, grid)
    header = ["n", "t", "steps", "engine", "v", "seed", "f_tr", "i_tr"]
    shown_steps = "" if opts.engine == ENGINE_EXACT else config.steps
    rows = [
        _row([opts.n, t, shown_steps, opts.engine, opts.noise_v, opts.seed, f, 1.0 - f])
        for t, f in curve
    ]
    write_csv(stage(opts.out), header, rows)
    _plot(stage, opts.plot, f"Transfer fidelity, n={opts.n} ({opts.engine})", "t", "f_tr",
          [(opts.engine, curve)])
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


def cmd_robustness(opts: SimpleNamespace, given: dict[str, str], stage: Stage) -> int:
    if opts.trials < 1:
        raise UsageError(f"need at least one trial, got {opts.trials}")
    if opts.field_noise and opts.protocol == "echo":
        raise UsageError("--field-noise: an echo chain has no field phases to perturb")
    if opts.protocol == "echo":
        _unread(given, ("engine",), "an echo sweep builds no engine")
    ns = _parse_n_range(opts)
    # every swept n's config is checked before any trial runs; n ascends,
    # so an n below the protocol's minimum is the first fault reported
    with _config_faults("--t"):
        v_grid = default_v_grid(opts.v_min, opts.v_max, opts.v_points)
        if opts.protocol == "echo":
            # an echo sweep without --steps runs 4 Trotter steps per leg
            steps = 4 if opts.steps is None else opts.steps
            configs = [EchoConfig(n=n, t=opts.t, n_steps=steps) for n in ns]
        else:
            configs = [TransferConfig(n=n, t=opts.t, n_steps=opts.steps, engine=opts.engine)
                       for n in ns]

    results = slope_vs_n(configs, v_grid, opts.trials, opts.seed,
                         include_fields=opts.field_noise)
    seed = _fmt(opts.seed)
    trial_rows: list[str] = []
    for config, (infidelities, _) in zip(configs, results):
        for v, row in zip(v_grid, infidelities.tolist()):
            # the columns one (n, v) block shares are formatted once, and
            # each trial adds its index, the seed and repr of its float
            block = _row([opts.protocol, config.n, opts.t, config.steps, v])
            trial_rows.extend(f"{block},{k},{seed},{infidelity!r}"
                              for k, infidelity in enumerate(row))
    fits = [(config.n, fit) for config, (_, fit) in zip(configs, results)]
    for n, fit in fits:
        if not fit.reliable:
            print(f"warning: {opts.protocol} fit at n={n} has r_squared={fit.r_squared:.3f}; "
                  f"b={fit.b:.3f} is not a reliable exponent", file=sys.stderr)
    slope_points = [(n, fit.b) for n, fit in fits]
    fit_rows = [
        _row([opts.protocol, n,
              ("even" if n % 2 == 0 else "odd") if opts.protocol == "transfer" else "",
              fit.a, fit.b, fit.r_squared, len(fit.points)])
        for n, fit in fits
    ]
    write_csv(
        stage(opts.out_trials),
        ["protocol", "n", "t", "steps", "v", "trial", "seed", "infidelity"],
        trial_rows,
    )
    write_csv(
        stage(opts.out_fits),
        ["protocol", "n", "parity", "a", "b", "r_squared", "points"],
        fit_rows,
    )
    _plot(stage, opts.plot_fit, f"{opts.protocol} infidelity vs gate-error strength", "v",
          "mean infidelity", [(f"n={n}", fit.points, True) for n, fit in fits],
          logx=True, logy=True)
    if opts.protocol == "transfer":
        groups = [(label, [(n, b) for n, b in slope_points if n % 2 == parity])
                  for parity, label in ((1, "odd n"), (0, "even n"))]
    else:
        groups = [("b(n)", slope_points)]
    _plot(stage, opts.plot_slopes, f"{opts.protocol} robustness exponent", "n", "b(n)",
          [(label, points, True) for label, points in groups])
    return 0


def run_all_checks():
    """The oracle-check suite, imported on use: it loads the dense oracle."""
    from .checks import run_all_checks as run_checks
    return run_checks()


def cmd_oracle_check(opts: SimpleNamespace, given: dict[str, str], stage: Stage) -> int:
    results = run_all_checks()
    for result in results:
        status = "true" if result.passed else "false"
        print(f"check={result.name} pass={status} {result.detail}")
    all_passed = all(r.passed for r in results)
    print(f"overall={'pass' if all_passed else 'fail'}")
    return 0 if all_passed else 1


DESCRIPTION = "Spin-chain echo and state-transfer experiments"
# The flags every command takes besides its own options; `-h` is
# `--help`, which prints the help and runs nothing.
HELP = Option("help", bool, False, help="print this help and exit")
CONFIG = Option("config", str, None, help="JSON file of defaults (flags override)")

# Each command's summary, runner and options, in flag order.  An
# option's flag is `--` plus its name with '-' for '_' (`_flag`).
Runner = Callable[[SimpleNamespace, dict[str, str], Stage], int]
COMMANDS: dict[str, tuple[str, Runner, list[Option]]] = {
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
        Option("sign_convention", int, -1, (-1, 1),
               help="mean-field drive sign: checked and echoed in the sign_convention "
                    "column, but flipping every field's sign changes no revival"),
        Option("dt", float, 1e-3,
               help="mean-field step size: checked and echoed in the dt column, "
                    "but the closed-form mean field changes no value with it"),
        Option("mf_steps", int, None, help="mean-field steps; none means --steps"),
        Option("out", str, "echo.csv", output=True),
        Option("plot", str, None, output=True),
    ]),
    "transfer": ("state-transfer fidelity curve", cmd_transfer, [
        Option("n", int, 6),
        Option("t_max", float, math.pi / 2),
        Option("points", int, 50),
        Option("steps", int, None, help="none means the calibrated table's count for --n"),
        Option("engine", str, ENGINE_EXACT, ENGINES),
        Option("noise_v", float, 0.0),
        Option("seed", int, 0),
        Option("out", str, "transfer.csv", output=True),
        Option("plot", str, None, output=True),
    ]),
    "robustness": ("gate-error Monte-Carlo sweep and fits", cmd_robustness, [
        Option("protocol", str, "echo", ("echo", "transfer")),
        Option("n", int, None),
        Option("n_range", str, None, help="inclusive range A:B"),
        Option("t", float, math.pi / 2),
        Option("steps", int, None,
               help="none means 4 per leg for echo, the calibrated table for transfer"),
        Option("engine", str, "trotter-simfm", tuple(e for e in ENGINES if e != ENGINE_EXACT)),
        Option("v_min", float, 1e-3),
        Option("v_max", float, 1e-1),
        Option("v_points", int, 8),
        Option("trials", int, 100),
        Option("seed", int, 42),
        Option("field_noise", bool, False,
               help="also perturb the transfer chain's field phases "
                    "(default: exchange only; an echo chain has none)"),
        Option("out_trials", str, "trials.csv", output=True),
        Option("out_fits", str, "fits.csv", output=True),
        Option("plot_fit", str, None, output=True),
        Option("plot_slopes", str, None, output=True),
    ]),
    "oracle-check": ("run the invariant suite", cmd_oracle_check, []),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _lookup(name: str, table: dict[str, Option]) -> str:
    """The flag of `table` that `name` names: itself, or else the one
    flag it begins."""
    if name in table:
        return name
    matches = [flag for flag in table if flag.startswith(name)]
    if len(matches) == 1:
        return matches[0]
    raise UsageError(f"{name}: ambiguous flag, could be {', '.join(matches)}" if matches
                     else f"{name}: unknown flag")


def _read_flags(argv: list[str]) -> tuple[str | None, dict[str, Any] | None]:
    """The command `argv` names (None if it names none) and the values of
    the flags after it by option name, each checked as `_checked` checks
    it; None in place of the values when `argv` asks for help.

    A flag is `--flag value` or `--flag=value`, a bool flag is bare, and
    a value is the next token unless that starts with `--`.  A unique
    prefix stands for its flag, an exact name wins over a prefix, and a
    repeated flag's last value wins.  Any other token is a usage error.
    """
    command = argv[0] if argv and not argv[0].startswith("-") else None
    if command is not None and command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}, choose from {', '.join(COMMANDS)}")
    options = (HELP, CONFIG, *COMMANDS[command][2]) if command else (HELP,)
    table = {"-h": HELP, **{_flag(option.name): option for option in options}}
    tokens = argv[1:] if command else argv
    values: dict[str, Any] = {}
    at = 0
    while at < len(tokens):
        name, given, text = tokens[at].partition("=")
        at += 1
        if name != "-h" and not (name.startswith("--") and name != "--"):
            raise UsageError(f"stray argument {tokens[at - 1]!r}")
        flag = _lookup(name, table)
        option = table[flag]
        if option.type is bool:
            if given:
                raise UsageError(f"{flag}: takes no value, got {text!r}")
            if option is HELP:
                return command, None
            values[option.name] = True
            continue
        if not given:
            if at == len(tokens) or tokens[at].startswith("--"):
                raise UsageError(f"{flag}: needs a value")
            text = tokens[at]
            at += 1
        values[option.name] = _checked(f"{flag}:", text, option, text=True)
    return command, values


def _help(command: str | None) -> str:
    """The help of `command`, or of echochain when None, from `COMMANDS`:
    each command's summary, or each flag's type or choices, default and
    help."""
    if command is None:
        width = max(map(len, COMMANDS))
        return "\n".join([
            f"usage: echochain {{{','.join(COMMANDS)}}} [--FLAG [VALUE]]...", "",
            DESCRIPTION, "", "commands:",
            *(f"  {name:{width}}  {summary}" for name, (summary, _, _) in COMMANDS.items()),
            "", "`echochain COMMAND --help` lists a command's flags.",
        ])
    summary, _, options = COMMANDS[command]
    lines = [f"usage: echochain {command} [--FLAG [VALUE]]...", "", summary, "", "flags:",
             f"  -h, --help: {HELP.help}", f"  --config FILE: {CONFIG.help}"]
    for option in options:
        value = ("" if option.type is bool
                 else " {" + ",".join(map(str, option.choices)) + "}" if option.choices
                 else " FILE" if option.output else " " + option.type.__name__.upper())
        line = f"  {_flag(option.name)}{value} (default {_fmt(option.default) or 'none'})"
        lines.append(f"{line}: {option.help}" if option.help else line)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    try:
        command, flags = _read_flags(sys.argv[1:] if argv is None else argv)
        if flags is None:
            print(_help(command))
            return 0
        if command is None:
            print(_help(None), file=sys.stderr)
            return 2
        opts, given = _merge_options(command, flags)
        with _staged_outputs() as stage:
            return COMMANDS[command][1](opts, given, stage)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure -> exit 1 per contract
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
