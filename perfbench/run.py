"""Benchmark of the `echochain` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the named workload's command again and again, each time in a
fresh Python process and with a new command seed drawn from --seed,
as often as fits in S seconds (and at least MIN_COMMANDS times).  Every
command's output is checked against an independent computation
outside the timed span.  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`, the end-to-end
metrics with --trace 0 and the per-layer metrics with --trace 1.
Per-command outputs are left under perfbench/out/NAME/.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# BLAS and OpenMP pools are pinned to one thread in the commands and in
# this process, before numpy loads: on a small shared host a multi-
# threaded 4x4 zgemm is slower and far noisier than a single thread, and
# idle pool threads here would spin against the command being timed.
PINNED = {
    var: "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "ECHOCHAIN_THREADS")
}
os.environ.update(PINNED)

import numpy as np  # noqa: E402

from workloads import WORKLOADS, CheckFailure, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHIM = HERE / "shim.py"
OUT = HERE / "out"
MIN_COMMANDS = 3         # a trimmed mean needs at least three
# Set-up time is short and the host's speed drifts, so set-up probes
# are spread over the run, two before each command.
PROBES_PER_COMMAND = 2


def metric_units(kind: str) -> dict[str, str]:
    """Name and unit of each `end_to_end` or `per_layer` metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def trimmed_mean(values: list[float]) -> float:
    """Mean without the smallest and the largest value.

    The host's speed drifts over tens of seconds, and a mean follows
    that drift more steadily than a median of a few commands does;
    dropping the two extremes keeps one stalled command from moving it.
    With three values this is their median.
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[1:-1] if len(ordered) >= 3 else ordered)


@dataclass
class Command:
    """One process, timed from outside: spawn to exit."""

    out: Path
    status: int
    wall_s: float
    setup_s: float        # spawn until the CLI entry point is ready
    busy_s: float         # entry point ready until exit
    peak_rss_mb: float
    record: dict = field(default_factory=dict)
    problem: str | None = None


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def execute(args: list[str], out: Path, traced: bool = False) -> Command:
    """Run `echochain ARGS` (or a set-up probe, with no ARGS) in `out`."""
    out.mkdir(parents=True, exist_ok=True)
    record_path = out / "record.json"
    argv = [sys.executable, str(SHIM), str(record_path), "1" if traced else "0", *args]
    with open(out / "stdout.txt", "wb") as stdout, open(out / "stderr.txt", "wb") as stderr:
        start = _now()
        proc = subprocess.Popen(argv, cwd=out, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=stderr)
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = _now()
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    ready = record.get("ready", end)
    return Command(out, proc.returncode, end - start, ready - start, end - ready,
                   usage.ru_maxrss / 1024.0, record)


def judge(workload: Workload, command: Command, seed: int) -> str | None:
    """Why the command failed, or None: a non-zero exit or a failed check."""
    if command.status != 0 or "ready" not in command.record:
        tail = (command.out / "stderr.txt").read_text(errors="replace").strip()[-300:]
        return f"exit status {command.status}: {tail}"
    try:
        workload.check(command.out, seed)
    except (CheckFailure, ValueError, KeyError, OSError) as exc:
        return f"check failed: {exc}"
    return None


def layer_profile(command: Command) -> dict[str, float]:
    """Per-layer figures of one traced command: self time and calls per
    span name, the shim's counters, and the cost of the spans."""
    names = command.record["span_names"]
    spans = np.load(command.out / "record.json.spans.npy")
    name_ids, parents = spans[:, 0].astype(int), spans[:, 3].astype(int)
    duration = spans[:, 2] - spans[:, 1]
    covered = np.zeros(len(spans))
    nested = parents >= 0
    np.add.at(covered, parents[nested], duration[nested])
    calls = np.bincount(name_ids, minlength=len(names))
    self_s = np.bincount(name_ids, weights=duration - covered, minlength=len(names))
    profile = {f"{name}.calls": float(calls[i]) for i, name in enumerate(names)}
    profile.update({f"{name}.self_s": float(self_s[i]) for i, name in enumerate(names)})
    profile.update({name: float(v) for name, v in command.record["counts"].items()})
    profile["cli.write_csv.bytes"] = float(
        sum(p.stat().st_size for p in command.out.glob("*.csv"))
    )
    profile["trace.spans"] = float(len(spans))
    profile["trace.wall_s"] = command.wall_s
    profile["trace.overhead_s"] = len(spans) * command.record["span_cost_s"]
    return profile


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    base = OUT / workload.name
    shutil.rmtree(base, ignore_errors=True)
    # Untimed warm-up: byte-compiles the package on a fresh checkout and
    # warms the file cache, as an installed package would be.
    warm = execute([], base / "warmup")
    if warm.status != 0 or "ready" not in warm.record:
        raise SystemExit("cannot start the echochain entry point; see " + str(base / "warmup"))

    rng = random.Random(seed)
    commands: list[Command] = []
    setups: list[float] = []
    rounds: list[float] = []    # seconds per round: probes, command, check
    start = _now()
    # A round starts only if a typical round still ends within the run,
    # so a run lasts about `seconds` whatever its command's length.
    while len(commands) < MIN_COMMANDS or _now() - start + statistics.median(rounds) <= seconds:
        round_start = _now()
        setups += [execute([], base / f"probe{i}").setup_s for i in range(PROBES_PER_COMMAND)]
        command_seed = rng.randrange(2**31)
        command = execute(workload.args(command_seed), base / f"cmd{len(commands)}", trace)
        command.problem = judge(workload, command, command_seed)
        if command.problem:
            print(f"{command.out.name}: {command.problem}", file=sys.stderr)
        commands.append(command)
        rounds.append(_now() - round_start)

    good = [c for c in commands if c.problem is None]
    if not good:
        raise SystemExit("every command failed")
    failed = len(commands) - len(good)
    correct = not any(c.problem and c.status == 0 for c in commands)
    if trace:
        units = metric_units("per_layer")
        profiles = [layer_profile(c) for c in good]
        values = {name: statistics.median(p[name] for p in profiles) for name in units}
    else:
        units = metric_units("end_to_end")
        values = {
            "wall_s": trimmed_mean([c.wall_s for c in good]),
            "setup_s": statistics.median(setups + [c.setup_s for c in good]),
            "units_per_s": trimmed_mean([workload.units / c.busy_s for c in good]),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in good),
        }
    return {
        "correct": correct,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "echochain" / "cli.py").is_file():
        print(f"no echochain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
