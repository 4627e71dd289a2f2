"""Batched one-magnon engine: the kernels every protocol config's
`final_states` runs, for single runs, curves and sweeps alike.

Every exchange pulse and sigma^z phase conserves total S^z, and the
head singlet holds exactly one down spin, so a chain state is n
amplitudes c_m, one per position m of the flipped spin: c_m is the
dense amplitude of the basis state with site m down and every other
site up, up to a global phase.  A batch is a (rows, n) complex array,
one row per trial or time point.  In this sector

* exp(-i theta S_i.S_j) leaves (c_i + c_j)/2 alone and multiplies
  (c_i - c_j)/2 by e^{i theta}, up to the global phase e^{-i theta/4};
* exp(-i phi sigma^z_m) multiplies c_m by e^{2 i phi}, up to the
  global phase e^{-i phi};
* the singlet fidelity of the pair (a, b) is |c_b - c_a|^2 / 2.

Exact evolution diagonalizes the n x n sector Hamiltonian, global phase
included.  The dense 2^n oracle this engine is tested against is one
module, `echochain.statevec`, which only `echochain.checks` and the
tests import.  The engineered transfer chain is the single-excitation
perfect-transfer chain of Christandl, Datta, Ekert and Landahl, PRL 92,
187902 (2004).
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .chain import SIGN_AFM, ChainSpec
from .trotter import ExchangeLayer, TrotterPlan

if TYPE_CHECKING:
    from .noise import GateNoise

NORM_TOL = 1e-10
# Upper bound on the gate errors held at once for a batch; a longer
# plan draws them a few Trotter steps at a time from the same streams.
DRAW_BYTES = 16 << 20


def singlet_head(rows: int, n: int) -> np.ndarray:
    """(|01> - |10>)/sqrt(2) on sites (1, 2), spin-up elsewhere, per row."""
    if n < 2:
        raise ValueError(f"need at least 2 sites, got {n}")
    c = np.zeros((rows, n), dtype=complex)
    c[:, 0] = -1.0 / math.sqrt(2.0)
    c[:, 1] = 1.0 / math.sqrt(2.0)
    return c


def singlet_fidelity(c: np.ndarray, a: int, b: int) -> np.ndarray:
    """Singlet projection of the pair of sites (a, b), per row."""
    return 0.5 * np.abs(c[:, b - 1] - c[:, a - 1]) ** 2


def check_norm(c: np.ndarray) -> None:
    """Alarm when any row's norm drifts past NORM_TOL from unity or is
    not a number."""
    drift = float(np.max(np.abs(np.linalg.norm(c, axis=1) - 1.0), initial=0.0))
    if not drift <= NORM_TOL:
        raise RuntimeError(f"state norm drifted by {drift:.3e} (tolerance {NORM_TOL:.1e})")


def _compile(
    plans: Sequence[TrotterPlan],
) -> list[tuple[np.ndarray, np.ndarray | None, np.ndarray]]:
    """One Trotter step as (first sites, second sites or None for a field
    layer, angles of shape (len(plans), sites)) per nonempty layer.
    Sites are 0-based; every plan must share the first one's layout."""
    first = plans[0]
    ops = []
    for index, layer in enumerate(first.layers):
        peers = [plan.layers[index] for plan in plans]
        if isinstance(layer, ExchangeLayer):
            pairs = [pair for pair, _ in layer.gates]
            if any([pair for pair, _ in peer.gates] != pairs for peer in peers):
                raise ValueError("plans of one batch must share their bonds")
            angles = [[theta for _, theta in peer.gates] for peer in peers]
            left = np.array([i for i, _ in pairs], dtype=np.intp) - 1
            right = np.array([j for _, j in pairs], dtype=np.intp) - 1
        else:
            sites = [site for site, _ in layer.phases]
            if any([site for site, _ in peer.phases] != sites for peer in peers):
                raise ValueError("plans of one batch must share their field sites")
            angles = [[phi for _, phi in peer.phases] for peer in peers]
            left, right = np.array(sites, dtype=np.intp) - 1, None
        if len(left):
            ops.append((left, right, np.array(angles, dtype=float)))
    return ops


def _exchange(c: np.ndarray, left: np.ndarray, right: np.ndarray, phase: np.ndarray) -> None:
    ci, cj = c[:, left], c[:, right]
    sym = 0.5 * (ci + cj)
    anti = 0.5 * (ci - cj) * phase
    c[:, left] = sym + anti
    c[:, right] = sym - anti


def evolve(
    c: np.ndarray, plans: Sequence[TrotterPlan], noise: GateNoise | None = None
) -> np.ndarray:
    """Run every step of the plans on the batch c, in place.

    `plans` holds one plan shared by every row or one plan per row, all
    with the same layout and step count.  Under `noise` every exchange
    angle of row r becomes theta * (1 + eta) with eta from the row's own
    stream, drawn per gate per step in execution order; field phases are
    perturbed the same way only when the noise includes fields.  Bonds
    within a layer share no site, so a layer is applied all at once.
    """
    rows, n = c.shape
    steps = plans[0].steps
    if any(plan.num_sites != n or plan.steps != steps for plan in plans):
        raise ValueError("plans and batch disagree on sites or steps")
    if len(plans) not in (1, rows) or (noise is not None and len(noise) != rows):
        raise ValueError("plans and noise need one entry per row, or one plan for all")
    # Each layer keeps its angles when noisy, else its fixed phases.
    ops = []
    per_step = 0
    for left, right, angles in _compile(plans):
        noisy = noise is not None and (right is not None or noise.include_fields)
        if noisy:
            per_step += angles.shape[1]
            ops.append((left, right, angles, True))
        else:
            ops.append((left, right, np.exp((1j if right is not None else 2j) * angles), False))
    chunk = steps
    if per_step:
        chunk = max(1, min(steps, DRAW_BYTES // (8 * rows * per_step)))
    for start in range(0, steps, chunk):
        count = min(chunk, steps - start)
        eta = noise.take(count * per_step).reshape(rows, count, per_step) if per_step else None
        for step in range(count):
            offset = 0
            for left, right, fixed, noisy in ops:
                if noisy:
                    width = fixed.shape[1]
                    angles = fixed * (1.0 + eta[:, step, offset:offset + width])
                    offset += width
                    phase = np.exp((1j if right is not None else 2j) * angles)
                else:
                    phase = fixed
                if right is None:
                    c[:, left] *= phase
                else:
                    _exchange(c, left, right, phase)
    return c


def sector_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """H restricted to one flipped spin; row m is the spin flipped at site m+1."""
    n = spec.n
    sign = 1.0 if spec.sign == SIGN_AFM else -1.0
    bond = sign * spec.exchange_prefactor * spec.couplings
    # A bond gives +c/4 with both spins up and -c/4 with the flip on it;
    # sigma^z gives +B on up sites and -B on the flipped one.
    diag = np.full(n, 0.25 * bond.sum() + spec.fields.sum()) - 2.0 * spec.fields
    diag[:-1] -= 0.5 * bond
    diag[1:] -= 0.5 * bond
    h = np.diag(diag)
    sites = np.arange(n - 1)
    h[sites, sites + 1] = h[sites + 1, sites] = 0.5 * bond
    return h


@lru_cache(maxsize=16)
def _eigensystem(
    n: int, sign: str, prefactor: float, couplings: bytes, fields: bytes
) -> tuple[np.ndarray, np.ndarray]:
    spec = ChainSpec(
        n=n,
        couplings=np.frombuffer(couplings, dtype=float),
        fields=np.frombuffer(fields, dtype=float),
        sign=sign,
        exchange_prefactor=prefactor,
    )
    w, u = np.linalg.eigh(sector_hamiltonian(spec))
    # Stored complex so products with the batch need no per-call copy;
    # read-only because every caller shares the cached arrays.
    u = u.astype(complex)
    w.setflags(write=False)
    u.setflags(write=False)
    return w, u


def exact_evolve(spec: ChainSpec, c: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) on every row of c, via a cached n x n eigendecomposition.

    `t` is one time for all rows or one per row.  Returns a new array.
    """
    if c.ndim != 2 or c.shape[1] != spec.n:
        raise ValueError("chain and batch site counts differ")
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    w, u = _eigensystem(
        spec.n,
        spec.sign,
        spec.exchange_prefactor,
        spec.couplings.tobytes(),
        spec.fields.tobytes(),
    )
    with np.errstate(over="ignore"):
        phase = t * w
    if not np.all(np.isfinite(phase)):
        row, level = np.argwhere(~np.isfinite(phase))[0]
        raise ValueError(
            f"phase t*w overflows at t={float(t[row, 0])!r}, w={float(w[level])!r}"
        )
    return ((c @ u) * np.exp(-1j * phase)) @ u.T
