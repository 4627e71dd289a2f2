"""Run one `echochain` command the way its console script does, and
record when the entry point was ready.

    python3 shim.py RECORD TRACE [ARGS...]

Imports `echochain.cli` and calls `main(ARGS)`, exiting with its
status.  RECORD receives a JSON object with the CLOCK_MONOTONIC times
at which the entry point was ready and at which main returned.  With no
ARGS the process stops once the entry point is ready: a set-up probe.

With TRACE=1, each public function in LAYERS is wrapped under the name
its caller looks it up by, so every call records a span (name, start,
end, parent).  Spans stay in memory and go to RECORD.spans.npy at the
end, one row (name index, start, end, parent row or -1) per call.
Each entry of COUNTERS adds a figure taken from every result of its
function, and RECORD gets the counters' totals and the cost of one
span, timed in the same process once the command is done.
"""
from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

# (module the caller looks the name up in, attribute, span name)
LAYERS = [
    ("echochain.trotter", "apply_two_site", "statevec.apply_two_site"),
    ("echochain.trotter", "apply_single_site_phase", "statevec.apply_single_site_phase"),
    ("echochain.trotter", "exchange_unitary", "gates.exchange_unitary"),
    ("echochain.trotter", "sample_eta", "noise.sample_eta"),
    ("echochain.statevec", "check_norm", "statevec.check_norm"),
    ("echochain.echo", "total_sz", "statevec.total_sz"),
    ("echochain.transfer", "total_sz", "statevec.total_sz"),
    ("echochain.echo", "pair_projection_fidelity", "statevec.pair_projection_fidelity"),
    ("echochain.transfer", "pair_projection_fidelity", "statevec.pair_projection_fidelity"),
    ("echochain.echo", "second_order_plan", "trotter.plan_build"),
    ("echochain.transfer", "three_term_plan", "trotter.plan_build"),
    ("echochain.echo", "execute_plan", "trotter.execute_plan"),
    ("echochain.transfer", "execute_plan", "trotter.execute_plan"),
    ("echochain.echo", "exact_evolve", "chain.exact_evolve"),
    ("echochain.transfer", "exact_evolve", "chain.exact_evolve"),
    ("echochain.chain", "dense_hamiltonian", "chain.dense_hamiltonian"),
    # protocol_runner imports run_echo / run_transfer from these
    # modules at call time, and the curve functions use them directly.
    ("echochain.echo", "run_echo", "echo.run_echo"),
    ("echochain.transfer", "run_transfer", "transfer.run_transfer"),
    ("echochain.cli", "run_trials", "noise.run_trials"),
    ("echochain.cli", "loglog_fit", "noise.loglog_fit"),
    ("echochain.cli", "run_meanfield_echo", "meanfield.run_meanfield_echo"),
    ("echochain.cli", "write_csv", "cli.write_csv"),
    ("echochain.cli", "main", "cli.main"),
]
# (module, attribute, counter, figure added per result): the RK4 steps
# the mean-field integrator takes and the bytes of each dense matrix.
COUNTERS = [
    ("echochain.meanfield", "_rk4_update", "meanfield.rk4_steps", lambda result: 1),
    ("echochain.chain", "dense_hamiltonian", "chain.dense_bytes", lambda result: result.nbytes),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[float]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def count(self, fn, name: str, figure):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += figure(result)
            return result

        return counted

    def install(self) -> None:
        """Wrap each listed function.  One the program no longer has
        reads zero, so a change that removes it can still be traced."""
        for module_name, attr, name, figure in COUNTERS:
            module = importlib.import_module(module_name)
            self.counts[name] = 0
            if hasattr(module, attr):
                setattr(module, attr, self.count(getattr(module, attr), name, figure))
        for module_name, attr, name in LAYERS:
            module = importlib.import_module(module_name)
            wrapped = self.wrap(getattr(module, attr, None), name)
            if hasattr(module, attr):
                setattr(module, attr, wrapped)


def span_cost(calls: int = 2000, repeats: int = 7) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""
    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            wrapped()
        middle = clock()
        for _ in range(calls):
            noop()
        end = clock()
        costs.append(((middle - start) - (end - middle)) / calls)
    return statistics.median(costs)


def main() -> int:
    record_path, trace, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from echochain import cli

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    record = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    status = 0
    try:
        if args:
            status = cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        status = exc.code if isinstance(exc.code, int) else 2
    finally:
        record["done"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        if tracer is not None:
            import numpy as np

            np.save(record_path + ".spans.npy", np.array(tracer.spans, dtype=float).reshape(-1, 4))
            record["span_names"] = tracer.names
            record["counts"] = tracer.counts
            record["span_cost_s"] = span_cost()
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
