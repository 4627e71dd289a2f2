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

Exact evolution, global phase included, is in closed form for the two
chains the configs build, with no eigendecomposition: the engineered
transfer chain, the single-excitation perfect-transfer chain of
Christandl, Datta, Ekert and Landahl, PRL 92, 187902 (2004), whose
sector Hamiltonian is c - 2 J_x for spin (n-1)/2, evolves the head
singlet through binomial terms, with no BLAS call; an echo chain (site 1
decoupled, a uniform open chain after it) through its known modes and
one product with them each way.  The dense 2^n oracle this engine is
tested against is one module, `echochain.statevec`, which only
`echochain.checks` and the tests import.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .chain import SIGN_AFM, ChainSpec, transfer_chain
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


def _is_transfer_chain(spec: ChainSpec) -> bool:
    """Whether spec is the chain `transfer_chain(spec.n)` builds."""
    built = transfer_chain(spec.n)
    return (spec.sign, spec.exchange_prefactor) == (built.sign, built.exchange_prefactor) and \
        np.array_equal(spec.couplings, built.couplings) and \
        np.array_equal(spec.fields, built.fields)


def _transfer_offset(n: int) -> float:
    """c of the transfer chain's H = c - 2 J_x: sum(-2 J_i) / 4 from its
    bonds plus sum(B_i) = sum(J_i) from its fields, so sum(J_i) / 2."""
    return 0.5 * math.fsum(math.sqrt(i * (n - i)) for i in range(1, n))


def _levels(spec: ChainSpec) -> np.ndarray:
    """The one-magnon spectrum of the transfer chain, c - 2m for
    m = (n-1)/2, ..., -(n-1)/2, or of an echo chain: site 1 decoupled at
    e0 = (n-2) g / 4, then the open chain of sites 2..n, e0 - g + g cos(pi k / N)
    for k < N = n - 1, with g its signed bond."""
    n = spec.n
    if _is_transfer_chain(spec):
        return _transfer_offset(n) - 2.0 * (0.5 * (n - 1) - np.arange(n))
    bonds = spec.couplings[1:]
    if n < 3 or spec.couplings[0] != 0.0 or np.any(spec.fields != 0.0) or \
            np.any(bonds != bonds[0]):
        raise ValueError("exact evolution is known in closed form only on the transfer "
                         "chain and on echo chains")
    g = (1.0 if spec.sign == SIGN_AFM else -1.0) * spec.exchange_prefactor * float(bonds[0])
    e0 = 0.25 * (n - 2) * g
    return np.concatenate([[e0], e0 - g + g * np.cos(np.pi / (n - 1) * np.arange(n - 1))])


def exact_phases(spec: ChainSpec, t) -> np.ndarray:
    """t * w for each time of `t` (one per row) and each level w of the
    chain's one-magnon spectrum; TimeBudgetError when a time is not
    finite or a phase overflows."""
    t = np.asarray(t, dtype=float).reshape(-1)
    if not np.all(np.isfinite(t)):
        raise TimeBudgetError("times must be finite")
    levels = _levels(spec)
    with np.errstate(over="ignore"):
        phase = np.multiply.outer(t, levels)
    if not np.all(np.isfinite(phase)):
        row, level = np.argwhere(~np.isfinite(phase))[0]
        raise TimeBudgetError(
            f"phase t*w overflows at t={float(t[row])!r}, w={float(levels[level])!r}"
        )
    return phase


def _powers(base: np.ndarray, k: np.ndarray) -> np.ndarray:
    """log |base|^k per row's base, shape (rows, 1), and exponent k >= 0,
    with 0^0 = 1."""
    logs = np.array([math.log(abs(x)) if x else -math.inf for x in base[:, 0]])
    return np.multiply(k, logs[:, None], out=np.zeros((len(base), len(k))), where=k > 0)


def _exp(x: np.ndarray) -> None:
    """`math.exp` of every entry of the 2-D x, in place, a block of rows
    (a few thousand Python floats) at a time."""
    block = max(1, 4096 // x.shape[1])
    for start in range(0, len(x), block):
        rows = x[start:start + block]
        rows[...] = np.reshape(list(map(math.exp, rows.ravel().tolist())), rows.shape)


def _transfer_head(n: int, t: np.ndarray) -> np.ndarray:
    """The head singlet evolved on `transfer_chain(n)` to each time of t,
    one row per time, global phase included.

    The chain's H is c - 2 J_x for spin (n-1)/2, and site a+1 is the
    Dicke state of a flips among N = n - 1 qubits, so exp(-iHt) is
    e^{-ict} u^{(x)N} with u = [[cos t, i sin t], [i sin t, cos t]].
    The head singlet is (D_1 - D_0)/sqrt(2), so site a+1 holds

        e^{-ict} i^(a-1) (R_a - Q_a - i P_a) / sqrt(2),
        P_a = sqrt(C(N, a)) cos^(N-a) sin^a,
        R_a = r_a P_(a-1),  Q_a = r_(a+1) P_(a+1),  r_k = sqrt(k (n-k) / N),

    with R_0 = Q_N = 0.  Each P_a is the exp of its log, since a long
    chain's binomials overflow a float and its powers underflow.  Every
    log, exp, root and trig value is `math`'s and the rest is exactly
    rounded arithmetic, so no numpy dispatch or BLAS kernel reaches the
    bits.
    """
    big = n - 1
    a = np.arange(n)
    binomials = [1]  # C(N, a), exact
    for k in range(1, n):
        binomials.append(binomials[-1] * (n - k) // k)
    cos = np.array([math.cos(x) for x in t])[:, None]
    sin = np.array([math.sin(x) for x in t])[:, None]
    p = _powers(cos, big - a)
    p += _powers(sin, a)
    p += [0.5 * math.log(b) for b in binomials]
    _exp(p)
    negative = (((big - a) % 2 == 1) & (cos < 0)) ^ ((a % 2 == 1) & (sin < 0))
    np.negative(p, out=p, where=negative)
    r = np.array([math.sqrt(k * (n - k) / big) for k in range(1, n)])
    z = np.zeros((len(t), n), dtype=complex)
    z.real[:, 1:] = p[:, :-1] * r
    z.real[:, :-1] -= p[:, 1:] * r
    np.negative(p, out=z.imag)
    z *= np.array([1, 1j, -1, -1j])[(a - 1) % 4]  # i^(a-1), exactly
    half = 1.0 / math.sqrt(2.0)
    offset = _transfer_offset(n)
    phase = np.array([complex(math.cos(offset * x) * half, -math.sin(offset * x) * half)
                      for x in t])
    return _product(z, phase[:, None])


def _echo_modes(n: int) -> np.ndarray:
    """Eigenvectors of an echo chain, one column per level of `_levels`:
    site 1, then the open chain's modes sqrt(2/N) cos(pi k (m - 1/2) / N)
    on its sites m = 1..N (1/sqrt(N) for k = 0), each angle reduced to
    [0, 2 pi) in integers."""
    big = n - 1
    k = np.arange(big)
    # pi k (m - 1/2) / N = 2 pi k (2m - 1) / 4N, on row m - 1 for m = 1..N
    angle = np.outer(2 * k + 1, k) % (4 * big) * (np.pi / (2 * big))
    modes = np.zeros((n, n))
    modes[0, 0] = 1.0
    modes[1:, 1:] = np.cos(angle) * np.where(k == 0, math.sqrt(1 / big), math.sqrt(2 / big))
    return modes


def exact_evolve(spec: ChainSpec, c: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) on every row of c, global phase included, in closed
    form: on the transfer chain for rows holding the head singlet
    (`_transfer_head`, no n x n array), on an echo chain for any rows
    (through its modes, `_echo_modes`).  Any other chain raises
    ValueError.

    `t` is one time for all rows or one per row.  Returns a new array.
    """
    if c.ndim != 2 or c.shape[1] != spec.n:
        raise ValueError("chain and batch site counts differ")
    if _is_transfer_chain(spec):
        exact_phases(spec, t)  # checks the times
        if not np.array_equal(c, singlet_head(len(c), spec.n)):
            raise ValueError("the transfer chain's closed form starts from the head singlet")
        return _transfer_head(spec.n, np.broadcast_to(np.reshape(t, -1), len(c)))
    phase = exact_phases(spec, t)
    modes = _echo_modes(spec.n)
    return _product(c @ modes, np.exp(-1j * phase)) @ modes.T
