"""Seeded lattice realizations of space-time white noise.

Cell (i, j) holds the noise increment over [t_i, t_{i+1}) x [x_j, x_{j+1}),
an independent Normal(0, dt*dx) draw. Cells are addressed by a counter-based
generator keyed on the seed: cell q = i*nx + j consumes raw word q of the
keyed Philox stream (four 64-bit words per counter block), so sample_noise's
full matrix and the rows noise_rows streams from any start row agree
bit-exactly. The stream refills ROW_BLOCK cells at a time into one
reused buffer, so a streamed march of b seeds holds O(b*nx) noise.

The normal quantile is Cephes ndtri (as in scipy.special.ndtri) in numpy,
so sampling loads no scipy: same coefficients, branches and Horner order,
so it equals scipy's bit for bit in the central branch and within a few ulp
in the tails, where numpy's log may differ from libm's. Words are converted
in place through a 1 MB scratch of ROW_BLOCK // 2 cells: a process's first
24-seed draw of 49 rows at nx = 256 traces 2.30 MiB, not 3.26 (ROW_BLOCK).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllocationLimit

MAX_CELLS = 1 << 26  # ~0.5 GiB of float64 increments

# Cells per noise_rows refill, over all its seeds: refilling one row per
# seed (6,144 cells) made the bundled 800-seed run 10-27% slower (three
# paired runs, 2-core x86-64), from per-call overhead.
ROW_BLOCK = 1 << 16


@dataclass(frozen=True)
class NoiseLattice:
    """Immutable (nt x nx) matrix of iid Normal(0, dt*dx) increments;
    (seed, shape) fully determines them."""

    dt: float
    dx: float
    nt: int
    nx: int
    seed: int
    increments: np.ndarray = field(repr=False)

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


# Cephes ndtri (S. L. Moshier), as in scipy.special. For
# e^-2 < u <= 1 - e^-2, with x = u - 1/2 and y2 = x^2, it is
# sqrt(2 pi) (x + x y2 P0(y2) / Q0(y2)). In the tails, with y = min(u, 1 - u)
# and z = sqrt(-2 log y), it is +-(z - log(z)/z - (1/z) P(1/z) / Q(1/z)),
# negative for u < 1/2, with (P1, Q1) for z < 8 and (P2, Q2) beyond. Each Q
# has an implicit leading coefficient 1.
_E2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _ratio(x, p, q, out, den):
    """out = x * polevl(x, p) / p1evl(x, q) in Cephes' operation order;
    den is scratch the shape of x."""
    np.multiply(x, p[0], out=out)
    out += p[1]
    for c in p[2:]:
        out *= x
        out += c
    np.add(x, q[0], out=den)
    for c in q[1:]:
        den *= x
        den += c
    out *= x
    out /= den
    return out


def _ndtri(u: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Cephes ndtri of a 1-d contiguous u in (0, 1), into out, overwriting u.

    work has three rows of at least u.size cells. The central rational
    function runs on every cell, straight into out; only the tail cells
    (about 27% of uniforms) are gathered, lower tail first, for the logs
    and tail ratios.
    """
    lo = np.flatnonzero(u <= _E2)
    hi = np.flatnonzero(u > 1.0 - _E2)
    m = lo.size + hi.size
    y = work[0, :m]
    np.take(u, lo, out=y[:lo.size])
    np.take(u, hi, out=y[lo.size:])
    np.subtract(1.0, y[lo.size:], out=y[lo.size:])  # min(u, 1 - u)
    x, y2 = work[1, :u.size], work[2, :u.size]
    np.subtract(u, 0.5, out=x)
    np.multiply(x, x, out=y2)
    _ratio(y2, _P0, _Q0, out=out, den=u)
    out *= x
    out += x
    out *= _S2PI

    z, inv, t = work[1, :m], work[2, :m], work[0, :m]
    np.log(y, out=z)
    z *= -2.0
    np.sqrt(z, out=z)
    far = np.flatnonzero(z >= 8.0)  # y <= e^-32
    np.divide(1.0, z, out=inv)
    np.log(z, out=t)
    t /= z
    np.subtract(z, t, out=t)
    x1 = _ratio(inv, _P1, _Q1, out=z, den=u[:m])
    if far.size:
        w = inv[far]
        x1[far] = _ratio(w, _P2, _Q2, out=np.empty_like(w),
                         den=np.empty_like(w))
    t -= x1
    np.negative(t[:lo.size], out=t[:lo.size])
    out[lo] = t[:lo.size]
    out[hi] = t[lo.size:]
    return out


def _raw_to_normal(raw: np.ndarray, scale: float,
                   work: np.ndarray | None = None) -> np.ndarray:
    """Normal(0, scale^2) draws from raw words, in raw's shape.

    A contiguous raw is overwritten: the draws are its float64 view.
    Words are converted ROW_BLOCK // 2 cells at a time through work, four
    rows of scratch from _scratch(raw), which a caller converting many
    buffers of at most raw's size may allocate once and pass each time.
    """
    # top 53 bits -> uniform on (0,1), then the normal quantile; the all-ones
    # word rounds to 1.0 (ndtri = inf), so clamp at the largest double below 1
    work = _scratch(raw) if work is None else work
    flat = raw.reshape(-1)
    np.right_shift(flat, np.uint64(11), out=flat)
    out = flat.view(np.float64)
    for i in range(0, flat.size, work.shape[1]):
        block = flat[i:i + work.shape[1]]
        u = work[0, :block.size]
        u[...] = block
        u += 0.5
        u *= 2.0 ** -53
        np.minimum(u, 1.0 - 2.0 ** -53, out=u)
        normals = _ndtri(u, out[i:i + block.size], work[1:])
        normals *= scale
    return out.reshape(raw.shape)


def _scratch(raw: np.ndarray) -> np.ndarray:
    """Four rows of one block of _raw_to_normal's work on raw."""
    # 1 MB: with the seed chunks in forked workers the bundled march takes
    # as long as with ROW_BLOCK (median 0.25 s both), 4-9% longer at // 4
    return np.empty((4, min(raw.size, ROW_BLOCK // 2)))


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
    buf = np.empty(len(gens) * k * nx, dtype=np.uint64)
    work = _scratch(buf)
    scale = float(np.sqrt(dt * dx))
    for i in range(start, stop, k):
        n = min(k, stop - i)
        raw = buf[:len(gens) * n * nx].reshape(len(gens), n * nx)
        for g, bg in enumerate(gens):
            raw[g] = bg.random_raw(n * nx)
        normals = _raw_to_normal(raw, scale, work)
        yield from normals.reshape(len(gens), n, nx).swapaxes(0, 1)
