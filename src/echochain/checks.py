"""Self-contained invariant suite behind the oracle-check command.

Each check compares the production path (single runs through
`echochain.noise.fidelity`) against an independent route (the dense 2^n
oracle in `echochain.statevec`: eigendecomposition gate oracle, dense
state vectors and exact evolution) or asserts a conservation law, and
reports a named pass/fail with a numeric detail.  The dense replay of a
run (`dense_state`) walks the config's `legs()`, the description of the
run that the production path reads too.
This is the only production module that imports the oracle, and the
CLI imports it only for oracle-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import transfer_chain
from .echo import BACKWARD_EXACT, BACKWARD_TROTTERIZED, EchoConfig
from .gates import SINGLET, afm_duration_for_fm, wrap_period
from .noise import NoiseModel, fidelity, make_rng
from .statevec import (
    StateVector, exact_evolve, exchange_unitary, exchange_unitary_reference, execute_plan,
    heisenberg_pair_coupling, norm, pair_projection_fidelity, prepare_singlet_head, total_sz,
)
from .transfer import ENGINE_EXACT, ENGINES, TransferConfig
from .trotter import MODE_DIRECT, THREE_TERM, batch_plan


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def dense_state(config: EchoConfig | TransferConfig) -> StateVector:
    """The run `fidelity(config)` makes, replayed gate by gate on dense
    2^n states: each leg of `config.legs()` in order, a plan leg as a
    one-chain plan and a continuous leg as exact evolution, with one
    make_rng(config.seed) stream across the legs."""
    state = prepare_singlet_head(config.n)
    rng = make_rng(config.seed)
    for split, spec, mode in config.legs():
        if mode is None:
            state = exact_evolve(spec, state, config.t)
        else:
            plan = batch_plan(split, [(spec, config.t, config.steps, 1)], mode)
            execute_plan(plan, state, config.noise, rng)
    return state


def dense_fidelity(config: EchoConfig | TransferConfig) -> float:
    """`fidelity(config)` from the dense replay."""
    return pair_projection_fidelity(dense_state(config), config.pair, SINGLET)


def check_sector_vs_dense(max_n: int = 8, seed: int = 0) -> CheckResult:
    """The one-magnon engine behind every run against the dense oracle:
    noisy echoes in both backward modes and transfers on every engine,
    with field noise on the trotter engines."""
    worst = 0.0
    for n in range(3, min(8, max_n) + 1):
        for backward in (BACKWARD_TROTTERIZED, BACKWARD_EXACT):
            echo = EchoConfig(
                n=n, t=1.3, n_steps=3, backward_mode=backward,
                noise=NoiseModel(v=0.05), seed=(seed, n),
            )
            worst = max(worst, abs(fidelity(echo) - dense_fidelity(echo)))
        for engine in ENGINES:
            noisy = engine != ENGINE_EXACT
            transfer = TransferConfig(
                n=n, n_steps=8, engine=engine, seed=(seed, n),
                noise=NoiseModel(v=0.05, include_fields=True) if noisy else None,
            )
            worst = max(worst, abs(fidelity(transfer) - dense_fidelity(transfer)))
    return CheckResult(
        name="sector-vs-dense", passed=worst < 1e-12, detail=f"max_dev={worst:.3e}"
    )


def check_exchange_closed_form() -> CheckResult:
    """Closed-form exchange gate vs the eigendecomposition oracle."""
    thetas = np.concatenate(
        [np.linspace(-4 * math.pi, 4 * math.pi, 41), [0.1, math.pi / 3, 2 * math.pi]]
    )
    worst = 0.0
    for theta in thetas:
        dev = float(np.max(np.abs(exchange_unitary(theta) - exchange_unitary_reference(theta))))
        worst = max(worst, dev)
    return CheckResult(
        name="exchange-closed-form",
        passed=worst < 1e-12,
        detail=f"max_dev={worst:.3e}",
    )


def check_two_spin_equivalence(samples: int = 1000, seed: int = 0) -> CheckResult:
    """Mapped antiferromagnetic pulse vs exact ferromagnetic evolution
    on random two-spin states: overlap magnitude must be 1."""
    rng = make_rng(seed)
    w, v = np.linalg.eigh(heisenberg_pair_coupling())
    worst = 0.0
    for _ in range(samples):
        j_fm = rng.uniform(0.5, 2.0)
        j_afm = rng.uniform(0.5, 2.0)
        t = rng.uniform(0.0, wrap_period(j_fm))
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        t_prime = afm_duration_for_fm(t, j_afm, j_fm)
        pulsed = exchange_unitary(j_afm * t_prime) @ psi
        exact = (v * np.exp(+1j * j_fm * t * w)) @ v.conj().T @ psi
        worst = max(worst, abs(abs(np.vdot(pulsed, exact)) - 1.0))
    return CheckResult(
        name="two-spin-equivalence",
        passed=worst < 1e-10,
        detail=f"samples={samples} max_dev={worst:.3e}",
    )


def check_trotter_scaling(
    n: int = 6, steps: tuple[int, ...] = (8, 16, 32)
) -> CheckResult:
    """Second-order convergence of the direct three-term plan against
    the dense oracle: halving the step size should shrink the error
    about fourfold."""
    spec = transfer_chain(n)
    t = math.pi / 2
    reference = exact_evolve(spec, prepare_singlet_head(n), t)

    def error(n_steps: int) -> float:
        state = prepare_singlet_head(n)
        execute_plan(batch_plan(THREE_TERM, [(spec, t, n_steps, 1)], MODE_DIRECT), state)
        return float(np.linalg.norm(state.amplitudes - reference.amplitudes))

    errs = {m: error(m) for m in list(steps) + [2 * steps[-1]]}
    ratios = [errs[m] / errs[2 * m] for m in steps]
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    detail = " ".join(f"ratio(N={m})={r:.2f}" for m, r in zip(steps, ratios))
    return CheckResult(name="trotter-second-order", passed=ok, detail=detail)


def check_conservation(n: int = 8) -> CheckResult:
    """Norm and total S^z conservation on a noisy echo and a noisy
    trotterized transfer, both read from the dense replay, where they
    can drift (the one-magnon engine conserves S^z by construction and
    checks its own norm)."""
    echo = EchoConfig(n=n, t=1.0, n_steps=4, noise=NoiseModel(v=0.05), seed=11)
    transfer = TransferConfig(
        n=n, n_steps=32, engine="trotter-simfm", noise=NoiseModel(v=0.05), seed=12
    )
    sz_initial = total_sz(prepare_singlet_head(n))
    worst = 0.0
    for state in (dense_state(echo), dense_state(transfer)):
        worst = max(worst, abs(total_sz(state) - sz_initial), abs(norm(state) - 1.0))
    return CheckResult(
        name="sz-and-norm-conservation",
        passed=worst < 1e-10,
        detail=f"max_dev={worst:.3e}",
    )


def check_echo_revival(n: int = 8) -> CheckResult:
    """Noise-free trotterized echo must revive exactly."""
    worst = 0.0
    for t, steps in [(0.7, 1), (1.9, 4), (math.pi / 2, 16)]:
        worst = max(worst, abs(fidelity(EchoConfig(n=n, t=t, n_steps=steps)) - 1.0))
    return CheckResult(
        name="echo-revival", passed=worst < 1e-9, detail=f"max_dev={worst:.3e}"
    )


def check_transfer_peak(max_n: int = 8) -> CheckResult:
    """Exact engine must reach the far end at t = pi/2."""
    worst = 1.0
    for n in range(2, max_n + 1):
        worst = min(worst, fidelity(TransferConfig(n=n)))
    return CheckResult(
        name="transfer-peak", passed=worst >= 0.999, detail=f"min_f={worst:.9f}"
    )


def run_all_checks() -> list[CheckResult]:
    return [
        check_exchange_closed_form(),
        check_two_spin_equivalence(),
        check_trotter_scaling(),
        check_conservation(),
        check_echo_revival(),
        check_transfer_peak(),
        check_sector_vs_dense(),
    ]
