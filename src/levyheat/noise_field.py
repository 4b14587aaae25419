"""Seeded lattice realizations of space-time white noise.

Cell (i, j) holds the noise increment over [t_i, t_{i+1}) x [x_j, x_{j+1}),
an independent Normal(0, dt*dx) draw. Cells are addressed by a counter-based
generator keyed on the seed: cell q = i*nx + j consumes raw word q of the
keyed Philox stream (four 64-bit words per counter block), so sample_noise's
full matrix, restart suffixes and the rows noise_rows streams from any start
row agree bit-exactly. The stream refills ROW_BLOCK cells at a time into one
reused buffer, so a streamed march of b seeds holds O(b*nx) noise.

The normal quantile is scipy.special.ndtri, loaded on the first draw rather
than with the package, so runs that never sample noise never import scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllocationLimit, OffsetOutOfRange

MAX_CELLS = 1 << 26  # ~0.5 GiB of float64 increments

# Cells per noise_rows refill, over all its seeds: refilling one row per
# seed (6,144 cells) made the bundled 800-seed run 10-27% slower (three
# paired runs, 2-core x86-64), from per-call overhead.
ROW_BLOCK = 1 << 16


@dataclass(frozen=True)
class NoiseLattice:
    """Immutable (nt x nx) matrix of iid Normal(0, dt*dx) increments.

    t0_cells records how many leading rows were dropped by shift_noise;
    (seed, shape, t0_cells) fully determines the increments.
    """

    dt: float
    dx: float
    nt: int
    nx: int
    seed: int
    increments: np.ndarray = field(repr=False)
    t0_cells: int = 0

    def __post_init__(self):
        if self.dt <= 0 or self.dx <= 0:
            raise ValueError("dt and dx must be positive")
        if self.nt < 1 or self.nx < 1:
            raise ValueError("nt and nx must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        inc = np.asarray(self.increments, dtype=float)
        if inc.shape != (self.nt, self.nx):
            raise ValueError("increments must have shape (nt, nx)")
        object.__setattr__(self, "increments", inc)


def _raw_to_normal(raw: np.ndarray, scale: float, out=None) -> np.ndarray:
    """Normal(0, scale^2) draws from raw words, into out; overwrites raw."""
    # imported here, not at module level: scipy.special takes longer to
    # load than numpy, and only noise sampling needs it
    from scipy.special import ndtri

    # top 53 bits -> uniform on (0,1), then the normal quantile; the all-ones
    # word rounds to 1.0 (ndtri = inf), so clamp at the largest double below 1
    u = np.empty(raw.shape) if out is None else out
    np.right_shift(raw, np.uint64(11), out=raw)
    u[...] = raw
    u += 0.5
    u *= 2.0 ** -53
    np.minimum(u, 1.0 - 2.0 ** -53, out=u)
    ndtri(u, out=u)
    u *= scale
    return u


def sample_noise(dt: float, dx: float, nt: int, nx: int,
                 seed: int) -> NoiseLattice:
    """Full noise lattice; deterministic in (seed, shape)."""
    if dt <= 0 or dx <= 0:
        raise ValueError("dt and dx must be positive")
    if nt < 1 or nx < 1:
        raise ValueError("nt and nx must be at least 1")
    if nt * nx > MAX_CELLS:
        raise AllocationLimit(
            f"{nt * nx} noise cells exceed the budget of {MAX_CELLS}; "
            "stream its rows with noise_rows instead")
    bg = np.random.Philox(key=seed)
    raw = bg.random_raw(nt * nx).reshape(nt, nx)
    inc = _raw_to_normal(raw, float(np.sqrt(dt * dx)))
    return NoiseLattice(dt, dx, nt, nx, seed, inc)


def noise_rows(dt: float, dx: float, nx: int, seeds, start: int, stop: int):
    """Rows start..stop-1 of each seed's lattice, in order, one
    (len(seeds), nx) array per row.

    Row i of seed s is bit-exact with sample_noise(dt, dx, nt, nx,
    s).increments[i].  Each seed draws max(1, ROW_BLOCK // (len(seeds) nx))
    rows per refill into one reused buffer, so a yielded row is valid only
    until the next one is taken.
    """
    gens = [np.random.Philox(key=s).advance(start * nx // 4) for s in seeds]
    for bg in gens:
        bg.random_raw(start * nx % 4)  # on to word start*nx
    k = max(1, ROW_BLOCK // (len(gens) * nx))
    raw = np.empty((len(gens), k, nx), dtype=np.uint64)
    buf = np.empty((len(gens), k, nx))
    scale = float(np.sqrt(dt * dx))
    for i in range(start, stop, k):
        n = min(k, stop - i)
        for g, bg in enumerate(gens):
            raw[g, :n] = bg.random_raw(n * nx).reshape(n, nx)
        _raw_to_normal(raw[:, :n], scale, out=buf[:, :n])
        yield from buf[:, :n].swapaxes(0, 1)


def shift_noise(n: NoiseLattice, t_offset_cells: int) -> NoiseLattice:
    """Suffix lattice starting t_offset_cells rows in (restart harness)."""
    if not 0 <= t_offset_cells < n.nt:
        raise OffsetOutOfRange(
            f"offset {t_offset_cells} outside [0, {n.nt})")
    return NoiseLattice(n.dt, n.dx, n.nt - t_offset_cells, n.nx, n.seed,
                        n.increments[t_offset_cells:].copy(),
                        n.t0_cells + t_offset_cells)

