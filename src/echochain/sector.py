"""Batched one-magnon engine: the kernels `echochain.noise` runs for
single runs, curves and sweeps alike.

Every exchange pulse and sigma^z phase conserves total S^z, and the
head singlet holds exactly one down spin, so a chain state is n
amplitudes c_m, one per position m of the flipped spin: c_m is the
dense amplitude of the basis state with site m down and every other
site up, up to a global phase.  A batch is a (rows, n) complex array,
one row per trial or time point; chains of several lengths share one
batch with each row padded by zero amplitudes to the longest chain.
In this sector

* exp(-i theta S_i.S_j) leaves (c_i + c_j)/2 alone and multiplies
  (c_i - c_j)/2 by e^{i theta}, up to the global phase e^{-i theta/4};
* exp(-i phi sigma^z_m) multiplies c_m by e^{2 i phi}, up to the
  global phase e^{-i phi};
* the singlet fidelity of the pair (a, b) is |c_b - c_a|^2 / 2.

`evolve` applies a Trotter plan (`echochain.trotter`) one whole layer
per call, from the layer's own angles, one row per batch row.  A layer
whose sites are evenly spaced is a slice, so its amplitudes are read
and written through strided views of the batch; an uneven layer is an
index array, read and written by the same expressions.  Gate errors
go a chunk of steps at a time straight into the imaginary parts of
their phases, in buffers reused chunk after chunk, one exp per noisy
layer per chunk.  A plan's blocks (one chain each) run their own step
counts: blocks come by descending step count, so each step runs on
the prefix of rows still stepping.  A padded row turns the gates its
chain lacks by exactly 0: phase 1 on (c, 0) returns (c, 0) and a field
phase of 1 leaves c alone, bit for bit whenever c's parts are 0 or
normal floats (halving a subnormal part rounds it, far below any
score), and such pads take no gate errors.  Every complex-by-complex
product is `_product`'s real products, each its own ufunc call, and a
score is re^2 + im^2, not complex abs, so no CPU dispatch of numpy
fuses (FMA) or rounds them its own way.

Exact evolution diagonalizes the n x n sector Hamiltonian, global phase
included.  The dense 2^n oracle this engine is tested against is one
module, `echochain.statevec`, which only `echochain.checks` and the
tests import.  The engineered transfer chain is the single-excitation
perfect-transfer chain of Christandl, Datta, Ekert and Landahl, PRL 92,
187902 (2004).
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .chain import SIGN_AFM, ChainSpec
from .trotter import TimeBudgetError, TrotterPlan

if TYPE_CHECKING:
    from .noise import GateNoise

NORM_TOL = 1e-10
# Upper bound on the bytes of gate errors and of their phases held at
# once for a batch; a longer plan draws them a few Trotter steps at a
# time from the same streams.
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
    d = c[:, b - 1] - c[:, a - 1]
    return 0.5 * (d.real * d.real + d.imag * d.imag)


def check_norm(c: np.ndarray) -> None:
    """Alarm when any row's norm drifts past NORM_TOL from unity or is
    not a number."""
    drift = float(np.max(np.abs(np.linalg.norm(c, axis=1) - 1.0), initial=0.0))
    if not drift <= NORM_TOL:
        raise RuntimeError(f"state norm drifted by {drift:.3e} (tolerance {NORM_TOL:.1e})")


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b, unfused, for complex arrays, b broadcast to a's shape."""
    out = np.empty(a.shape, dtype=complex)
    re, im = out.real, out.imag
    np.subtract(np.multiply(a.real, b.real, out=re), a.imag * b.imag, out=re)
    np.add(np.multiply(a.real, b.imag, out=im), a.imag * b.real, out=im)
    return out


def _exchange(c: np.ndarray, left, right, phase: np.ndarray) -> None:
    """One exchange layer on every row, in place; slice sites are views of c."""
    ci, cj = c[:, left], c[:, right]
    sym = 0.5 * (ci + cj)
    anti = _product(0.5 * (ci - cj), phase)
    c[:, left] = sym + anti
    c[:, right] = sym - anti


@np.errstate(over="ignore", invalid="ignore")
def evolve(c: np.ndarray, plan: TrotterPlan, noise: GateNoise | None = None) -> np.ndarray:
    """Run every step of the plan on the batch c, in place.

    Each layer of the plan holds one angle row per row of c.  Under
    `noise` every exchange angle of row r becomes theta * (1 + eta) with
    eta from the row's own stream, drawn per gate of the row's own chain
    per step in execution order; field phases are perturbed the same way
    only when the noise includes fields; errors that overflow the phase
    angles raise RuntimeError.  Bonds within a layer share no site, so a
    layer is applied all at once.

    The plan's blocks come by descending step count, so the rows still
    stepping are a prefix of c, one stretch of steps at a time (`_stretch`),
    one stretch per distinct step count.
    """
    rows, n = c.shape
    if plan.num_sites != n:
        raise ValueError("plan and batch disagree on sites")
    if any(len(layer.angles) != rows for layer in plan.layers) or \
            (noise is not None and len(noise) != rows):
        raise ValueError("plan angles and noise need one row per batch row")
    # per layer: its phase angles (theta, or 2 phi on a field) if noisy, else its phases
    ops = []
    for layer in plan.layers:
        angles = 2.0 * layer.angles if layer.right is None else layer.angles
        noisy = noise is not None and (layer.right is not None or noise.include_fields)
        ops.append((layer, angles if noisy else np.exp(1j * angles), noisy))
    stops = [block.start for block in plan.blocks[1:]] + [rows]
    done = 0
    for last in reversed(range(len(plan.blocks))):
        # blocks 0..last step on, rows [0, active), up to block last's end
        active, end = stops[last], plan.blocks[last].steps
        if end > done:
            _stretch(c[:active], ops, noise, plan.blocks[:last + 1], stops, end - done)
            done = end
    if noise is not None and not np.all(np.isfinite(c)):
        raise RuntimeError("gate errors overflow the phase angles")
    return c


def _stretch(c, ops, noise, blocks, stops, steps: int) -> None:
    """Run `steps` steps of `ops` on c, block b of `blocks` on its rows up
    to stops[b], a chunk at a time, in one phase buffer per noisy layer:
    each block's draws go straight into its imaginary parts as 1 + eta
    (pads as 1), then the layer's angles and one exp make them phases."""
    rows, drawn = len(c), sum(layer.width for layer, _, noisy in ops if noisy)
    # A chunk's draws (8 bytes each) and phases (16) share DRAW_BYTES.
    chunk = max(1, min(steps, DRAW_BYTES // (24 * rows * drawn) if drawn else steps))
    phases = [np.empty((chunk, rows, layer.width), dtype=complex) if noisy
              else np.broadcast_to(fixed[:rows], (chunk, rows, layer.width))
              for layer, fixed, noisy in ops]
    perturbed = [(p, fixed[:rows]) for p, (_, fixed, noisy) in zip(phases, ops) if noisy]
    for start in range(0, steps, chunk):
        count = min(chunk, steps - start)
        for block, stop in zip(blocks if perturbed else (), stops):
            own = [width for width, (_, _, noisy) in zip(block.widths, ops) if noisy]
            z = noise.take(count * sum(own), slice(block.start, stop))
            z = z.reshape(stop - block.start, count, sum(own)).transpose(1, 0, 2)
            for (phase, _), width, at in zip(perturbed, own, np.cumsum([0, *own])):
                arg = phase[:count, block.start:stop].imag
                np.add(1.0, z[:, :, at:at + width], out=arg[:, :, :width])
                arg[:, :, width:] = 1.0
            del z  # one block's draws at a time
        for phase, fixed in perturbed:
            phase = phase[:count]
            phase.real = 0.0
            np.multiply(phase.imag, fixed, out=phase.imag)
            np.exp(phase, out=phase)
        for step in range(count):
            for (layer, _, _), phase in zip(ops, phases):
                if layer.right is None:
                    c[:, layer.left] = _product(c[:, layer.left], phase[step])
                else:
                    _exchange(c, layer.left, layer.right, phase[step])


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


def exact_evolve(spec: ChainSpec, c: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) on every row of c, via an n x n eigendecomposition.

    `t` is one time for all rows or one per row.  Returns a new array.
    """
    if c.ndim != 2 or c.shape[1] != spec.n:
        raise ValueError("chain and batch site counts differ")
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    if not np.all(np.isfinite(t)):
        raise TimeBudgetError("times must be finite")
    w, u = np.linalg.eigh(sector_hamiltonian(spec))
    with np.errstate(over="ignore"):
        phase = t * w
    if not np.all(np.isfinite(phase)):
        row, level = np.argwhere(~np.isfinite(phase))[0]
        raise TimeBudgetError(
            f"phase t*w overflows at t={float(t[row, 0])!r}, w={float(w[level])!r}"
        )
    return _product(c @ u, np.exp(-1j * phase)) @ u.T
