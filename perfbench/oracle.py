"""Independent reference computations for the benchmark's output checks.

Nothing here imports the program under test.  Every experiment starts
from a singlet on sites (1, 2) with all other spins up, and every gate
the program applies conserves total S^z, so the state stays in the
one-magnon sector: n amplitudes c_m, one per position m of the single
down spin.  In that sector

* an exchange pulse exp(-i theta S_i.S_j) leaves the pair's triplet
  part (c_i + c_j) alone and gives its singlet part (c_i - c_j) the
  phase e^{i theta}, up to a global phase;
* a field phase exp(-i phi sigma^z_m) gives c_m the phase e^{2 i phi},
  up to a global phase;
* the singlet fidelity of the ordered pair (a, b) is |c_b - c_a|^2 / 2.

The engineered transfer chain is the single-excitation perfect-transfer
chain of Christandl, Datta, Ekert & Landahl, PRL 92, 187902 (2004):
hopping sqrt(k(n-k)) carries site 1 to site n at t = pi/2.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def initial_amplitudes(batch: int, n: int) -> np.ndarray:
    """(|01> - |10>)/sqrt(2) on sites (1, 2): c_2 = +1/sqrt2, c_1 = -1/sqrt2."""
    c = np.zeros((batch, n), dtype=complex)
    c[:, 0] = -1.0 / math.sqrt(2.0)
    c[:, 1] = 1.0 / math.sqrt(2.0)
    return c


def exchange(c: np.ndarray, i: int, j: int, theta: np.ndarray) -> None:
    """exp(-i theta S_i.S_j) on sites i, j (1-based), one angle per row."""
    ci, cj = c[:, i - 1], c[:, j - 1]
    sym = 0.5 * (ci + cj)
    anti = 0.5 * (ci - cj) * np.exp(1j * theta)
    c[:, i - 1] = sym + anti
    c[:, j - 1] = sym - anti


def singlet_fidelity(c: np.ndarray, a: int, b: int) -> np.ndarray:
    return 0.5 * np.abs(c[:, b - 1] - c[:, a - 1]) ** 2


def echo_step_layers(n: int, tau: float) -> list[list[tuple[int, float]]]:
    """(bond start, duration) per layer of one echo Trotter step.

    Uniform chain, unit coupling, bond (1, 2) switched off; odd-start
    bonds take two half steps around one full step of even-start bonds.
    """
    odd = [(k, tau / 2) for k in range(3, n, 2)]
    even = [(k, tau) for k in range(2, n, 2)]
    return [odd, even, odd]


def transfer_couplings(n: int) -> np.ndarray:
    k = np.arange(1, n, dtype=float)
    return np.sqrt(k * (n - k))


def transfer_fields(n: int) -> np.ndarray:
    padded = np.concatenate([[0.0], transfer_couplings(n), [0.0]])
    return 0.5 * (padded[1:] + padded[:-1])


def _noisy(theta: float, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    return theta * (1.0 + z * v)


def _draws(seeds: list[tuple[int, ...]], count: int) -> np.ndarray:
    """One standard-normal draw per gate, in execution order, per trial."""
    return np.stack(
        [
            np.random.default_rng(np.random.SeedSequence(list(s))).standard_normal(count)
            for s in seeds
        ]
    )


def replay_echo(
    n: int, t: float, steps: int, v: np.ndarray, seeds: list[tuple[int, ...]]
) -> np.ndarray:
    """Infidelity of noisy echo trials, one per (v, seed) row.

    Forward leg: antiferromagnetic pulses of angle 2*pi - duration (the
    simulated ferromagnet); backward leg: angle = duration.  Each angle
    is scaled by (1 + v z) with a fresh z per gate, forward leg first.
    """
    layers = echo_step_layers(n, t / steps)
    legs = [
        [[(k, TWO_PI - d) for k, d in layer] for layer in layers],
        [[(k, d) for k, d in layer] for layer in layers],
    ]
    per_leg = steps * sum(len(layer) for layer in layers)
    z = _draws(seeds, 2 * per_leg)
    c = initial_amplitudes(len(seeds), n)
    g = 0
    for leg in legs:
        for _ in range(steps):
            for layer in leg:
                for k, theta in layer:
                    exchange(c, k, k + 1, _noisy(theta, z[:, g], v))
                    g += 1
    return 1.0 - singlet_fidelity(c, 1, 2)


def replay_transfer(
    n: int, t: float, steps: int, v: np.ndarray, seeds: list[tuple[int, ...]]
) -> np.ndarray:
    """Infidelity of noisy simulated-ferromagnet transfer trials.

    One step is (odd/2, even/2, field, even/2, odd/2); bond k has
    strength g_k = 2 sqrt(k(n-k)) and a half-step pulse of angle
    2*pi - g_k tau/2.  Only exchange angles are noisy.
    """
    tau = t / steps
    g = 2.0 * transfer_couplings(n)
    odd = [(k, TWO_PI - g[k - 1] * tau / 2) for k in range(1, n, 2)]
    even = [(k, TWO_PI - g[k - 1] * tau / 2) for k in range(2, n, 2)]
    field_phase = np.exp(2j * transfer_fields(n) * tau)
    layers = [odd, even, None, even, odd]
    per_step = 2 * (len(odd) + len(even))
    z = _draws(seeds, steps * per_step)
    c = initial_amplitudes(len(seeds), n)
    index = 0
    for _ in range(steps):
        for layer in layers:
            if layer is None:
                c *= field_phase
                continue
            for k, theta in layer:
                exchange(c, k, k + 1, _noisy(theta, z[:, index], v))
                index += 1
    return 1.0 - singlet_fidelity(c, n - 1, n)


def exact_transfer_fidelity(n: int, times: np.ndarray) -> np.ndarray:
    """Noise-free transfer fidelity on the last pair from an n x n
    eigendecomposition of the ferromagnetic chain
    H = -2 sum_k J_k S_k.S_{k+1} + sum_m B_m sigma^z_m."""
    couplings = -2.0 * transfer_couplings(n)    # signed exchange per bond
    fields = transfer_fields(n)
    h = np.zeros((n, n))
    for m in range(n):
        for k, c in enumerate(couplings):       # bond (k+1, k+2), 0-based sites k, k+1
            h[m, m] += -0.25 * c if m in (k, k + 1) else 0.25 * c
        h[m, m] += fields.sum() - 2.0 * fields[m]
    for k, c in enumerate(couplings):
        h[k, k + 1] = h[k + 1, k] = 0.5 * c
    w, u = np.linalg.eigh(h)
    c0 = initial_amplitudes(1, n)[0]
    ct = (u * np.exp(-1j * np.outer(times, w))[:, None, :]) @ (u.T @ c0)
    return singlet_fidelity(ct, n - 1, n)


def meanfield_revival(t: float, steps: int) -> float:
    """Mean-field echo revival under the mirrored pulse train.

    With <S_2> = 0 throughout, every mean field stays along z and the
    revival is cos^2 of an accumulated phase, N pi / 2 after N Trotter
    steps whatever t > 0; at t = 0 nothing is driven.
    """
    return 1.0 if t == 0.0 else math.cos(steps * math.pi / 2) ** 2


def ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Intercept, slope and r^2 of the least-squares line y = a + b x."""
    xm, ym = x.mean(), y.mean()
    b = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    a = float(ym - b * xm)
    ss_tot = float(np.sum((y - ym) ** 2))
    ss_res = float(np.sum((y - a - b * x) ** 2))
    return a, b, 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
