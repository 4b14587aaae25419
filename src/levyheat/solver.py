"""Lattice solver for the mild equation du = Lu dt + sigma(u) dW.

Two routes to the same object, one field per seed of a seed list:

* ``picard_iterate`` runs the fixed-horizon Picard scheme: stage n+1 is the
  deterministic part plus the stochastic convolution of sigma(stage n)
  against the seed's noise increments.
* ``evolve`` marches the per-step mild recursion
  u_{t+dt} = p_dt * u_t + int_t^{t+dt} p_{t+dt-s}(y-x) sigma(u) dW.

Every route streams its noise from ``noise_rows``, so noise row i of a
seed has the same bits on all of them.

Every time-step march (evolve, mc_moments, stability_compare and the
ensembles of the analysis layer) is the one loop in ``march``, on a
``Lattice`` set up by ``build_lattice``.  Both routes use band-limited
kernel rows on the lattice, so the one-step
propagator is an exact lattice semigroup and the unrolled time-step weights
coincide with the Picard weights up to float roundoff and edge truncation
(see ``bandlimited_rows``).

Conventions shared by every marching routine here:

* the field lattice is cell-centered, x_m = -L + (m + 1/2) dx with
  L = nx dx / 2, co-located with the noise cells;
* every march starts from the measure u0 at time 0, and its first step
  is purely deterministic (sigma of a measure is not defined), so noise
  row 0 is reserved and never consumed;
* the deterministic part is never stepped: row i is (p_{i dt} * u0)(x)
  by exact Fourier quadrature, from ``_det_rows`` on every route, and only
  the noise part is propagated.  This keeps the mean identity exact for
  measure data.  Row i depends on the lattice and i alone, so a shorter
  run is the head of a longer one, bit for bit;
* the one-step propagators P and K0 are symmetric Toeplitz.  Below
  ``FFT_MIN_NX`` cells they are dense nx x nx matrices applied by BLAS;
  from ``FFT_MIN_NX`` on they are held as the rfft spectra of their
  circulant embeddings and a step costs O(nx log nx) per row instead of
  O(nx^2).  ``build_lattice`` makes the choice, so every march on one
  lattice (long or short) applies the same arithmetic.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import pickle
import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.fft import irfft, rfft

from .conv_calculus import (SpaceTimeGrid, _add_inverse, _spectral_rule,
                            volterra_hat)
from .errors import (AllocationLimit, GridMismatch, HorizonExceeded,
                     QuadratureUnderresolved, TruncationTooSmall)
from .levy_kernel import (ROW_CHUNK, XI_TOL, KernelModel, _fast_len,
                          _fourier_rows, _gauss_rule, _squared_kernel_hat,
                          _upsilon_tail, _xi_rule, bandlimited_rows,
                          exterior_mass, frak_T, gamma_k, p0_eval, psi_eval,
                          upsilon_eval)
from .measure_init import FiniteMeasure, fourier_u0, heat_convolve_rows
from .noise_field import noise_rows

__all__ = [
    "SigmaSpec", "sigma_linear", "sigma_saturating", "sigma_custom",
    "FieldLattice", "MomentTable", "MomentRow", "StabilityRow", "Lattice",
    "build_lattice", "march", "march_seeds", "seed_ids", "step_numbers",
    "step_slots", "x_centers",
    "check_truncation", "growth_envelope",
    "picard_iterate", "evolve", "pam_second_moment_oracle",
    "stability_compare", "stability_bound", "positivity_scan", "mc_moments",
]

# Pinned slack exponent for the growth-bound column of MomentTable.
EPS_GROWTH = 0.5

TRUNCATION_TOL = 1e-8

MAX_CELLS = 1 << 26  # ~0.5 GiB of float64 cells per field or buffer

# Lattices of at least this many cells apply P and K0 through circulant
# FFTs instead of the folded dense blocks.  It is the measured crossover
# of one march step of 24 seeds on one BLAS thread (2-core x86-64 Xeon,
# best of 7 x 200 steps, three rounds): folded dense 0.07-0.09 ms vs FFT
# 0.12-0.14 ms at 256 cells, 0.20-0.22 vs 0.19-0.20 ms at 384, 0.34-0.36
# vs 0.24-0.26 ms at 512 and 0.73-0.78 vs 0.39-0.45 ms at 768.
FFT_MIN_NX = 384

# Seeds per march chunk.  mc_moments sums its power sums chunk by chunk in
# order, so another chunk size would change the bits of every table.
BATCH = 24


# ---------------------------------------------------------------------------
# Multiplicative-noise coefficient.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaSpec:
    """Noise coefficient sigma with its Lipschitz data.

    kind is one of "linear" (sigma(x) = lam x), "saturating_linear"
    (sigma(x) = lam c tanh(x/c), a smooth version of lam sign(x) min(|x|, c))
    or "custom" (tabulated, linearly interpolated, clamped outside the
    table).  lip is the Lipschitz constant, lower_lip = inf |sigma(x)/x|
    (zero is allowed and is what saturation produces).
    """

    kind: str
    lip: float
    lower_lip: float
    lam: float = 0.0
    cap: float = 0.0
    table_x: np.ndarray | None = field(default=None, repr=False)
    table_y: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("linear", "saturating_linear", "custom"):
            raise ValueError(f"unknown sigma kind {self.kind!r}")
        if self.lip < 0 or self.lower_lip < 0:
            raise ValueError("Lipschitz constants must be nonnegative")
        if self.lower_lip > self.lip * (1 + 1e-12):
            raise ValueError("lower_lip cannot exceed lip")
        if self.kind == "custom":
            tx = np.asarray(self.table_x, dtype=float)
            ty = np.asarray(self.table_y, dtype=float)
            if tx.ndim != 1 or tx.shape != ty.shape or tx.size < 2:
                raise ValueError("custom sigma needs matching 1-d tables")
            if np.any(np.diff(tx) <= 0):
                raise ValueError("custom sigma table_x must be increasing")
            object.__setattr__(self, "table_x", tx)
            object.__setattr__(self, "table_y", ty)
            if float(np.interp(0.0, tx, ty)) != 0.0:
                raise ValueError("sigma(0) = 0 must hold exactly")

    def apply(self, values: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return self.lam * values
        if self.kind == "saturating_linear":
            return self.lam * self.cap * np.tanh(values / self.cap)
        return np.interp(values, self.table_x, self.table_y)


def sigma_linear(lam: float) -> SigmaSpec:
    """sigma(x) = lam x; lam = 0 gives the noiseless equation."""
    return SigmaSpec(kind="linear", lam=float(lam),
                     lip=abs(float(lam)), lower_lip=abs(float(lam)))


def sigma_saturating(lam: float, cap: float) -> SigmaSpec:
    if not cap > 0:
        raise ValueError("cap must be positive")
    return SigmaSpec(kind="saturating_linear", lam=float(lam),
                     cap=float(cap), lip=abs(float(lam)), lower_lip=0.0)


def sigma_custom(table_x, table_y, lower_lip: float | None = None) -> SigmaSpec:
    tx = np.asarray(table_x, dtype=float)
    ty = np.asarray(table_y, dtype=float)
    slopes = np.abs(np.diff(ty) / np.diff(tx))
    lip = float(slopes.max())
    if lower_lip is None:
        # outside the table sigma is clamped to a constant, so the infimum
        # of |sigma(x)/x| over all of R is 0 unless the caller knows better
        lower_lip = 0.0
    return SigmaSpec(kind="custom", table_x=tx, table_y=ty,
                     lip=lip, lower_lip=float(lower_lip))


# ---------------------------------------------------------------------------
# Result containers.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldLattice:
    """One realized field on a space-time lattice.

    scheme is "picard" (picard_order sweeps) or "timestep"; seed names
    the noise_rows stream that drove it.  eps_num is ten times the
    measured drift of the deterministic rows under the lattice propagator,
    the scheme-error yardstick used by positivity_scan; the fields of one
    evolve call share it.
    """

    grid: SpaceTimeGrid
    scheme: str
    seed: int
    truncation_L: float
    dt: float
    picard_order: int | None = None
    eps_num: float | None = None
    exterior_mass_frac: float = 0.0

    def __post_init__(self):
        if self.scheme not in ("picard", "timestep"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "picard":
            if self.picard_order is None or self.picard_order < 0:
                raise ValueError("picard scheme needs picard_order >= 0")
            if self.picard_order == 0 and np.any(self.grid.values != 0.0):
                raise ValueError("zeroth Picard stage must be identically 0")


MomentRow = namedtuple("MomentRow", [
    "t", "x", "k", "estimate", "std_error",
    "bound_exist_unique", "bound_h1", "raw_moment", "raw_std_error",
])

StabilityRow = namedtuple("StabilityRow", [
    "eps", "distance", "std_error", "bound", "tail_bound",
])


@dataclass(frozen=True)
class MomentTable:
    """Empirical k-th moment norms with their theoretical ceilings.

    estimate is the L^k norm (E|u|^k)^{1/k} (for k = 1 the signed mean; the
    solution is nonnegative so the two agree up to scheme error), std_error
    its delta-method standard error, raw_moment/raw_std_error the plain
    E|u|^k pair used for 3-sigma comparisons.  bound_h1 is the short-horizon
    norm bound 4 sqrt(k) (1 v lip) sqrt(u0(R) p_t(0) (p_t*u0)(x)), valid for
    t <= frak_T_k.  bound_exist_unique is the growth-bound shape
    exp((1+eps) gamma(k') t / k') sqrt(1 + p_t(0) (p_t*u0)(x)) with
    k' = max(k, 2) and the pinned eps; it omits the calibration constant
    C_eps, which the analysis layer fits, and dominates the k-norm because
    norms are monotone in k; past the float range it is +inf.  lattice is
    the Lattice the paths were marched on; snapshots, if asked for, holds
    each path's rows at the snapshot times, shape (seeds, times, nx).
    """

    t: np.ndarray
    x: np.ndarray
    k: np.ndarray
    estimate: np.ndarray
    std_error: np.ndarray
    bound_exist_unique: np.ndarray
    bound_h1: np.ndarray
    raw_moment: np.ndarray
    raw_std_error: np.ndarray
    replicas: int
    eps_growth: float = EPS_GROWTH
    lattice: Lattice | None = field(default=None, repr=False, compare=False)
    snapshots: np.ndarray | None = field(default=None, repr=False,
                                         compare=False)

    def __post_init__(self):
        n = self.t.size
        for name in ("x", "k", "estimate", "std_error", "bound_exist_unique",
                     "bound_h1", "raw_moment", "raw_std_error"):
            if getattr(self, name).shape != (n,):
                raise ValueError("moment table columns must be aligned 1-d")
        if not (np.all(self.bound_exist_unique >= 0)
                and np.all(self.bound_h1 >= 0)):
            raise ValueError("bounds must be nonnegative (+inf when "
                             "vacuous), not NaN")
        if np.any(self.std_error < 0) or np.any(self.raw_std_error < 0):
            raise ValueError("standard errors must be nonnegative")

    def rows(self) -> list[MomentRow]:
        return [MomentRow(*vals) for vals in zip(
            self.t, self.x, self.k, self.estimate, self.std_error,
            self.bound_exist_unique, self.bound_h1,
            self.raw_moment, self.raw_std_error)]


# ---------------------------------------------------------------------------
# Lattice setup.
# ---------------------------------------------------------------------------

def x_centers(nx: int, dx: float) -> np.ndarray:
    half = 0.5 * nx * dx
    return -half + (np.arange(nx) + 0.5) * dx


def check_truncation(model: KernelModel, u0: FiniteMeasure, t_end: float,
                     half_width: float) -> float:
    """Kernel mass leaving [-half_width, half_width] by t_end; raises
    TruncationTooSmall past TRUNCATION_TOL or when the data sticks out."""
    k = u0.data_radius
    if half_width <= k:
        raise TruncationTooSmall(
            f"lattice half-width {half_width:g} does not cover the initial "
            f"support radius {k:g}")
    frac = exterior_mass(model, t_end, half_width - k)
    if frac > TRUNCATION_TOL:
        raise TruncationTooSmall(
            f"kernel mass {frac:.3e} outside the lattice at t={t_end:g} "
            f"exceeds {TRUNCATION_TOL:g}; widen the window")
    return frac


def _circulant_spectra(rows: np.ndarray, n: int) -> np.ndarray:
    """rfft of the length-n circulant embeddings of the symmetric Toeplitz
    matrices whose first rows are rows (..., nx).

    With n >= 2 nx - 1 the embedding's lags +d and -d never overlap, so
    the first nx entries of irfft(rfft(v, n) * spectrum, n) are v T.
    """
    nx = rows.shape[-1]
    cols = np.zeros(rows.shape[:-1] + (n,))
    cols[..., :nx] = rows
    cols[..., n - nx + 1:] = rows[..., :0:-1]
    return rfft(cols, axis=-1)


def _toeplitz(r: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix T[a, b] = r[|a - b|]."""
    lag = np.arange(r.size)
    return r[np.abs(lag[:, None] - lag)]


def _fold(mat: np.ndarray, n: int, h: int, sign: float) -> np.ndarray:
    """The n x n block of the centrosymmetric mat (J mat J = mat, J the
    reversal) that acts on folded rows: its first h rows become
    (mat[i] + sign mat[-1-i]) / 2.  sign +1 gives the even block
    (n = nx - h, so the centre row of odd nx stays as it is), -1 the odd
    block (n = h)."""
    out = mat[:n, :n].copy()
    out[:h] = 0.5 * (out[:h] + sign * mat[::-1, :n][:h])
    return out


def _propagators(model, dt, dx, nx):
    """The one-step apply step(v, shot) = v P + shot K0, or v P alone
    when shot is None, for row batches v and shot of shape (..., nx).

    P[a, b] = dx * p_dt((a-b) dx) band-limited; K0[a, b] is the
    cell-averaged lag-0 row, i.e. the within-step weight
    (1/dt) int_0^dt p_r((a-b) dx) dr, band-limited.  Both are symmetric
    Toeplitz, and band-limiting makes P an exact lattice semigroup.

    Below FFT_MIN_NX cells a step folds each row x into its even part
    x[i] + x[nx-1-i] (the centre cell of odd nx as it is) and its odd
    part x[i] - x[nx-1-i], i < nx // 2.  Symmetric Toeplitz matrices are
    centrosymmetric, so each part maps onto itself through a half-size
    block (_fold): one BLAS product per part against the stacked [P; K0]
    blocks, then an unfold, at half the flops of v P + shot K0 (Cantoni &
    Butler, Linear Algebra Appl. 13, 1976).  From FFT_MIN_NX on only the
    numpy.fft rfft spectra of the circulant embeddings, of length
    _fast_len(2 nx), are kept, no nx x nx array is built, and a step is
    one rfft per operand and one irfft.  Both agree with the dense
    products to a few units of roundoff of the row max.
    """
    rows = bandlimited_rows(model, dx, nx, [0.0, dt], dt_average=None)
    avg0 = bandlimited_rows(model, dx, nx, [0.0], dt_average=dt)[0]
    if nx < FFT_MIN_NX:
        h = nx // 2
        m = nx - h
        mats = (dx * _toeplitz(rows[1]), _toeplitz(avg0))
        even = np.concatenate([_fold(a, m, h, 1.0) for a in mats])
        odd = np.concatenate([_fold(a, h, h, -1.0) for a in mats])

        def step(v, shot=None):
            ops = (v,) if shot is None else (v, shot)
            e = np.empty(v.shape[:-1] + (len(ops) * m,))
            o = np.empty(v.shape[:-1] + (len(ops) * h,))
            for k, x in enumerate(ops):
                back = x[..., ::-1][..., :h]
                np.add(x[..., :h], back, out=e[..., k * m:k * m + h])
                if m > h:
                    e[..., k * m + h] = x[..., h]
                np.subtract(x[..., :h], back, out=o[..., k * h:(k + 1) * h])
            s = e @ even[:len(ops) * m]
            a = o @ odd[:len(ops) * h]
            out = np.empty(v.shape)
            np.add(s[..., :h], a, out=out[..., :h])
            if m > h:
                out[..., h] = s[..., h]
            np.subtract(s[..., :h], a, out=out[..., ::-1][..., :h])
            return out
        return step

    n = _fast_len(2 * nx)
    p_hat, k0_hat = _circulant_spectra(np.array([dx * rows[1], avg0]), n)

    def step(v, shot=None):
        acc = rfft(v, n) * p_hat
        if shot is not None:
            acc += rfft(shot, n) * k0_hat
        return irfft(acc, n)[..., :nx]
    return step


def _scheme_drift(lat) -> float:
    """Sup deviation between propagated and exact deterministic rows.

    With det = lat.det[0], the exact rows 1..m, the return value is the
    worst || det_1 P^{i-1} - det_i ||_inf, the sigma = 0 scheme error that
    calibrates eps_num.  A roundoff floor keeps the yardstick positive.
    """
    det = lat.det[0]
    worst = 0.0
    d = det[0].copy()
    for i in range(1, det.shape[0]):
        d = lat.step(d)
        worst = max(worst, float(np.abs(d - det[i]).max()))
    floor = 32.0 * np.finfo(float).eps * float(det.max(initial=0.0))
    return max(worst, floor)


def _det_rows(model, u0, dt, n_steps, x_nodes, half_width, shift=0.0):
    """Rows (p_{i dt + shift} * u0)(x_nodes), clamped at 0, for the steps
    i = 1..n_steps.

    One xi rule per lattice: cut off for dt, with panels down to t_hi, the
    time whose cutoff is 1 / half_width, past every time check_truncation
    admits.  Rows go in whole ROW_CHUNKs of steps, so a row's bits depend
    on its step number alone and a shorter run is the head of a longer one.
    """
    last = -(-n_steps // ROW_CHUNK) * ROW_CHUNK
    t_hi = math.log(10.0 / XI_TOL) / psi_eval(model, 1.0 / half_width)
    rows = _fourier_rows(model, dt * np.arange(1, last + 1) + shift,
                         x_nodes, lambda xi: fourier_u0(u0, xi),
                         u0.data_radius, span=(dt, max(dt, t_hi)))
    return np.maximum(rows[:n_steps], 0.0)  # quadrature dust below 0


def step_numbers(values, dt: float, name: str) -> list[int]:
    """Step numbers i >= 1 with i dt equal to each value, else ValueError."""
    out = []
    for v in np.atleast_1d(np.asarray(values, dtype=float)):
        i = int(round(v / dt))
        if i < 1 or abs(i * dt - v) > 1e-9 * max(dt, abs(v)):
            raise ValueError(f"{name} {v:g} is not a positive multiple "
                             f"of {dt:g}")
        out.append(i)
    return out


def step_slots(steps) -> dict[int, list[int]]:
    """{march row j: every slot whose step number is j + 1}, so a time
    requested twice fills both of its slots with the same row."""
    at: dict[int, list[int]] = {}
    for slot, i in enumerate(steps):
        at.setdefault(i - 1, []).append(slot)
    return at


@dataclass(frozen=True)
class Lattice:
    """What a march needs besides the noise: the cell centers, the exact
    deterministic rows det[s, i] = (p_t * u0), clamped at 0, at
    t = (i + 1) dt + s-th shift (the rows of the start p_shift * u0; see
    _det_rows), the one-step apply step(v, shot) = v P + shot K0 of the
    noise part, and the kernel mass outside the window at the last step
    time.  step holds P and K0 as dense matrices below FFT_MIN_NX cells
    and as circulant FFT spectra from FFT_MIN_NX on (see _propagators)."""

    dt: float
    dx: float
    x_nodes: np.ndarray = field(repr=False)
    det: np.ndarray = field(repr=False)
    step: Callable = field(repr=False)
    exterior_mass_frac: float = 0.0


def build_lattice(model: KernelModel, u0: FiniteMeasure, *, dt: float,
                  dx: float, nx: int, n_steps: int, shifts=(0.0,)) -> Lattice:
    """The Lattice of nx cells of width dx for the steps 1..n_steps
    (times i dt), with one start p_s * u0 per shift s.

    Warns when the refinement relation p_dt(0) dx <= 0.5 fails; runs
    check_truncation at the last step time.  The det rows come from
    _det_rows, so a shorter run shares its rows' bits with a longer one.
    """
    if p0_eval(model, dt) * dx > 0.5:
        warnings.warn(
            "refinement relation violated: p_dt(0) dx > 0.5; one-step "
            "variance amplification is no longer controlled", stacklevel=3)
    half = 0.5 * nx * dx
    ext = check_truncation(model, u0, dt * n_steps, half)
    x_nodes = x_centers(nx, dx)
    det = np.array([_det_rows(model, u0, dt, n_steps, x_nodes, half, s)
                    for s in shifts])
    return Lattice(dt, dx, x_nodes, det, _propagators(model, dt, dx, nx), ext)


# ---------------------------------------------------------------------------
# Time stepping.
# ---------------------------------------------------------------------------

def march(lat: Lattice, sigma: SigmaSpec, stream, observe, *,
          b: int = 1) -> None:
    """The one time-step loop: v <- v P + (sigma(u) W_j) K0, u = det_j + v.

    The batch is (b, c, nx): b seeds, whose increments W_j drive step j,
    by the c starts of lat, which share that noise.  The iterable stream
    (noise_rows) yields each (b, nx) W_j in step order, and each is used
    before the next is taken, so it may reuse one buffer.
    observe(j, u) gets the (b, c, nx) field after step j.  The march
    starts at lat.det[:, 0] and takes W_1 .. W_{steps-1}.
    """
    c, steps, nx = lat.det.shape
    v = np.zeros((b * c, nx))
    u = np.broadcast_to(lat.det[:, 0], (b, c, nx)).copy()
    observe(0, u)
    for j, w in zip(range(1, steps), stream, strict=True):
        shot = sigma.apply(u) * w[:, None]
        v = lat.step(v, shot.reshape(b * c, nx))
        u = lat.det[:, j] + v.reshape(b, c, nx)
        observe(j, u)


def _worker_count() -> int:
    """Processes for the seed chunks, the caller included: LEVYHEAT_THREADS
    if set, else min(8, CPUs this process may run on); 1 without os.fork."""
    env = os.environ.get("LEVYHEAT_THREADS")
    if env:
        try:
            count = max(1, int(env))
        except ValueError:
            raise ValueError("LEVYHEAT_THREADS must be an integer, not "
                             f"{env!r}") from None
    elif hasattr(os, "sched_getaffinity"):
        count = min(8, len(os.sched_getaffinity(0)))
    else:
        count = min(8, os.cpu_count() or 1)
    return count if hasattr(os, "fork") else 1


def _shared_zeros(shape: tuple) -> np.ndarray:
    """A float64 zeros array in anonymous shared memory: what a forked
    _fork_map worker writes there, its caller reads."""
    n = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * n or 1), float,
                         count=n).reshape(shape)


# Bytes for the pickled error of one _fork_map worker.
_ERROR_ROOM = 1 << 14


def _pickled_error(exc: BaseException) -> bytes:
    """exc pickled in at most _ERROR_ROOM bytes, or a RuntimeError with its
    type and message when exc does not pickle, unpickle or fit."""
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        if len(data) <= _ERROR_ROOM:
            return data
    except Exception:
        pass
    return pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"[:1000]))


def _fork_map(fn, chunks, workers) -> None:
    """fn(c) for every c in chunks, chunk i in worker i mod w of
    w = min(workers, len(chunks)); worker 0 is the caller and the others
    are forked children, so each has its own interpreter lock.

    A child shares with its caller only what lives in anonymous shared
    memory (_shared_zeros), so fn reports through such arrays; what it
    returns is dropped.  A child leaves only through os._exit.  Once a
    chunk raises, it sets the shared stop flag and no worker starts
    another chunk.  Every child is reaped before the map returns or
    raises; then the caller's own error is raised, else the first failed
    child's, unpickled with its type and message.
    """
    w = min(workers, len(chunks))
    room = 8 + _ERROR_ROOM  # per worker: the error's length, then its bytes
    box = mmap.mmap(-1, 1 + w * room)  # byte 0 is the stop flag

    def run(r):
        for i in range(r, len(chunks), w):
            if box[0]:
                return
            fn(chunks[i])

    pids = []
    try:
        for r in range(1, w):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    run(r)
                    code = 0
                except BaseException as exc:
                    box[0] = 1
                    data = _pickled_error(exc)
                    at = 1 + r * room
                    box[at + 8:at + 8 + len(data)] = data
                    box[at:at + 8] = len(data).to_bytes(8, "little")
                finally:
                    os._exit(code)
            pids.append((r, pid))
        run(0)
    except BaseException:
        box[0] = 1
        raise
    finally:
        failed = [r for r, pid in pids if os.waitpid(pid, 0)[1]]
    for r in failed:
        at = 1 + r * room
        size = int.from_bytes(box[at:at + 8], "little")
        if size:
            raise pickle.loads(box[at + 8:at + 8 + size])
        raise RuntimeError(f"seed-chunk worker {r} ended without a report")


# perfbench/spans.py wraps the chunk map under its earlier name
_thread_map = _fork_map


def seed_ids(seeds) -> list[int]:
    """Seeds as a nonempty list of ints; an int n stands for 0..n-1.
    Each must be a Philox key, 0 <= s < 2**128."""
    if isinstance(seeds, (int, np.integer)):
        out = list(range(int(seeds)))
    else:
        out = [int(s) for s in seeds]
    if not out:
        raise ValueError("need at least one seed")
    if not all(0 <= s < 1 << 128 for s in out):
        raise ValueError("seeds must lie in [0, 2**128), the Philox keys")
    return out


def march_seeds(lat: Lattice, sigma: SigmaSpec, seeds, observe) -> None:
    """march() every seed, BATCH seeds per chunk, the chunks over
    _worker_count() processes, the caller among them (_fork_map).

    observe(first, j, u) is march's observer, also told the position
    in seeds of the chunk's first seed.  Chunks run concurrently in
    forked workers, so it may write only to its own chunk's slots of
    arrays from _shared_zeros: no other write reaches the caller.  A
    chunk streams its noise step by step from noise_rows, so its memory
    is O(BATCH nx) whatever the number of steps.
    """
    seeds = list(seeds)
    steps, nx = lat.det.shape[1:]

    def chunk(first):
        part = seeds[first:first + BATCH]
        march(lat, sigma, noise_rows(lat.dt, lat.dx, nx, part, 1, steps),
              functools.partial(observe, first), b=len(part))

    _fork_map(chunk, range(0, len(seeds), BATCH), _worker_count())


def evolve(model: KernelModel, u0: FiniteMeasure, sigma: SigmaSpec, *,
           dt: float, nx: int, half_width: float, t_end: float,
           seeds) -> list[FieldLattice]:
    """March the mild recursion from the measure u0 to t_end, one field per
    seed (see seed_ids), on nx cells of [-half_width, half_width].

    Row 1 is deterministic and noise rows 1..m-1 drive the later steps
    (row 0 stays idle).  The seeds march as march_seeds chunks, so a
    seed's rows are those of the same seed in an mc_moments ensemble.
    """
    seeds = seed_ids(seeds)
    m = step_numbers(t_end, dt, "t_end")[0]
    if len(seeds) * m * nx > MAX_CELLS:
        raise AllocationLimit(
            f"{len(seeds)} fields of {m} x {nx} cells exceed the budget")
    lat = build_lattice(model, u0, dt=dt, dx=2.0 * half_width / nx, nx=nx,
                        n_steps=m)
    vals = _shared_zeros((len(seeds), m, nx))

    def keep(first, j, u):
        vals[first:first + u.shape[0], j] = u[:, 0]

    march_seeds(lat, sigma, seeds, keep)
    times = dt * np.arange(1, m + 1)
    eps_num = 10.0 * _scheme_drift(lat)
    return [FieldLattice(grid=SpaceTimeGrid(times, lat.x_nodes, rows),
                         scheme="timestep", seed=s, truncation_L=half_width,
                         dt=dt, eps_num=eps_num,
                         exterior_mass_frac=lat.exterior_mass_frac)
            for s, rows in zip(seeds, vals)]


# ---------------------------------------------------------------------------
# Picard iteration.
# ---------------------------------------------------------------------------

def _lag_march(base: np.ndarray, srows: np.ndarray, drive) -> np.ndarray:
    """rows[m] = base[m] + sum_{i<m} S_{m-1-i} (*) drive(i, rows[i]).

    base is (nt, b, nx), a batch of b fields marched at once, and
    S_l (*) g applies the symmetric Toeplitz matrix with first row
    srows[l] to each row of g, through its circulant embedding.  Each
    kernel row and each drive row is transformed once, the lag sum is
    taken in Fourier space, and each output row costs one irfft.
    """
    nt, b, nx = base.shape
    m_fft = _fast_len(2 * nx)
    shat = _circulant_spectra(srows, m_fft)[:, None]
    dhat = np.empty((nt, b, shat.shape[-1]), dtype=complex)
    rows = base.copy()
    for m in range(1, nt):
        dhat[m - 1] = rfft(drive(m - 1, rows[m - 1]), m_fft)
        acc = np.sum(dhat[:m] * shat[m - 1::-1], axis=0)
        rows[m] += irfft(acc, n=m_fft)[:, :nx]
    return rows


def picard_iterate(model: KernelModel, u0: FiniteMeasure, sigma: SigmaSpec,
                   n: int, *, dt: float, nx: int, half_width: float,
                   t_end: float, seeds, k: float = 2.0) -> list[FieldLattice]:
    """n-th Picard stage, one field per seed, on the lattice of evolve.

    Stage 0 is identically zero; stage n+1 puts the exact deterministic row
    plus the stochastic convolution of sigma(stage n) with cell-averaged
    band-limited kernel weights, driven by noise rows 1..nt-1 of each
    seed; all seeds go through a stage as one batch.  The horizon t_end
    must stay within the order-k moment horizon frak_T_k.  Because the
    system is causal, n >= nt reproduces the timestep fixed point (up to
    roundoff and edge truncation).
    """
    if n < 0:
        raise ValueError("Picard stage must be >= 0")
    seeds = seed_ids(seeds)
    nt = step_numbers(t_end, dt, "t_end")[0]
    horizon = nt * dt
    t_max = frak_T(model, k, sigma.lip)
    if horizon > t_max * (1 + 1e-9):
        raise HorizonExceeded(
            f"lattice horizon {horizon:g} exceeds the order-{k:g} moment "
            f"horizon {t_max:g}")
    if 4 * (nt + 1) * len(seeds) * nx > MAX_CELLS:
        raise AllocationLimit("Picard stage exceeds the allocation budget")

    dx = 2.0 * half_width / nx
    x_nodes = x_centers(nx, dx)
    ext = check_truncation(model, u0, horizon, half_width)
    cur = np.zeros((nt, len(seeds), nx))  # stage 0
    if n > 0:
        det = _det_rows(model, u0, dt, nt, x_nodes, half_width)
        base = np.broadcast_to(det[:, None], cur.shape)
        srows = bandlimited_rows(model, dx, nx, dt * np.arange(nt - 1),
                                 dt_average=dt)
        for _ in range(n):
            prev, noise = cur, noise_rows(dt, dx, nx, seeds, 1, nt)
            cur = _lag_march(base, srows,
                             lambda i, _: sigma.apply(prev[i]) * next(noise))
    times = dt * np.arange(1, nt + 1)
    return [FieldLattice(grid=SpaceTimeGrid(times, x_nodes, cur[:, i]),
                         scheme="picard", seed=s, truncation_L=half_width,
                         dt=dt, picard_order=n, exterior_mass_frac=ext)
            for i, s in enumerate(seeds)]


# ---------------------------------------------------------------------------
# Deterministic second-moment oracle for linear sigma.
# ---------------------------------------------------------------------------

def _oracle_lattice(model, u0, lam, t_nodes, x_nodes) -> np.ndarray:
    """Exact second-moment recursion of the timestep scheme.

    For sigma(x) = lam x the independence of the noise cells makes
    E u_m(x)^2 = det_m(x)^2
               + lam^2 dt dx sum_{i<m} sum_y S_{m-1-i}(x-y)^2 E u_i(y)^2
    an identity (cross terms carry a zero-mean independent factor), so this
    march reproduces the scheme's second moment to roundoff.
    """
    nt, nx = t_nodes.size, x_nodes.size
    dt = float(t_nodes[0])
    dx = float(x_nodes[1] - x_nodes[0])
    det = _det_rows(model, u0, dt, nt, x_nodes,
                    float(np.abs(x_nodes).max()) + 0.5 * dx)
    srows = bandlimited_rows(model, dx, nx, dt * np.arange(nt - 1),
                             dt_average=dt)
    scale = lam * lam * dt * dx
    return _lag_march(det[:, None] ** 2, srows ** 2,
                      lambda i, row: scale * row)[:, 0]


def _oracle_continuum(model, u0, lam, t_targets, x_out) -> np.ndarray:
    """Spectral march for f = det^2 + lam^2 (p^2 (*) f).

    In x-frequency xi the equation is one scalar Volterra equation per xi,
    f^_t = D^_t + lam^2 int_0^t K^_{t-s} f^_s ds, with K^ the transform of
    p_t^2 and D^ that of det^2 = (p_t*u0)^2.  volterra_hat marches
    h^ = f^ - D^ on the xi rule of ``_spectral_rule``, and the output is
    the exact det^2 plus the cosine/sine inversion of h^ at x_out.
    """
    xi, w, khat, dhat = _spectral_rule(model, u0, t_targets, x_out)
    hhat = volterra_hat(khat, dhat, lam * lam, t_targets)
    return _add_inverse(heat_convolve_rows(model, u0, t_targets, x_out) ** 2,
                        hhat, xi, w, x_out)


def pam_second_moment_oracle(model: KernelModel, u0: FiniteMeasure,
                             lam: float, t_grid, x_grid, *,
                             mode: str = "continuum") -> SpaceTimeGrid:
    """Deterministic fixed point of f = |p_t*u0|^2 + lam^2 (p^2 (*) f).

    For linear sigma this is the exact second moment, computed with no
    noise machinery at all, which is what makes it a useful check against
    the Monte Carlo paths.

    mode "continuum" gives the equation's own solution E u_t(x)^2 at the
    (t_grid, x_grid) points: the exact |p_t*u0|^2 plus the inverse Fourier
    transform of h = f - |p_t*u0|^2, marched one scalar Volterra equation
    per frequency (see ``_oracle_continuum``).  The march error falls as
    n_t^-2 in the graded mesh size, and a Richardson step over two meshes
    leaves about 1e-5 relative on Brownian delta data (lam = 1,
    t in [0.1, 0.3]); for a stable law with alpha < 2 the theta rule adds
    a mesh-independent part of a few 1e-5 at alpha = 1.5.  It needs a
    brownian or stable kernel: a tabulated exponent raises ValueError.

    mode "lattice" reproduces the timestep scheme's own second moment on
    the given uniform grid (t_grid must then be dt*{1..n}), for any
    kernel.
    """
    t_nodes = np.asarray(t_grid, dtype=float)
    x_nodes = np.asarray(x_grid, dtype=float)
    if t_nodes.ndim != 1 or t_nodes.size == 0 or np.any(t_nodes <= 0) \
            or np.any(np.diff(t_nodes) <= 0):
        raise GridMismatch("t_grid must be increasing positive times")
    if x_nodes.ndim != 1 or x_nodes.size < 2 \
            or not np.allclose(np.diff(x_nodes), x_nodes[1] - x_nodes[0],
                               rtol=1e-9, atol=0.0):
        raise GridMismatch("x_grid must be uniform")
    if mode == "lattice":
        dt = float(t_nodes[0])
        if not np.allclose(t_nodes, dt * np.arange(1, t_nodes.size + 1),
                           rtol=1e-9, atol=0.0):
            raise GridMismatch("lattice mode needs t_grid = dt * {1..n}")
        vals = _oracle_lattice(model, u0, lam, t_nodes, x_nodes)
    elif mode == "continuum":
        vals = _oracle_continuum(model, u0, lam, t_nodes, x_nodes)
    else:
        raise ValueError(f"unknown oracle mode {mode!r}")
    return SpaceTimeGrid(t_nodes, x_nodes, vals)


def _flat_second_moment(model: KernelModel, lam: float,
                        t_values) -> np.ndarray:
    """f(t) = 1 + lam^2 int_0^t p_{2(t-s)}(0) f(s) ds for flat data u0 = 1.

    Space drops out by translation invariance: this is the xi = 0 case of
    the continuum oracle's march, with D^ = 1 and K^_s(0) = p_{2s}(0).
    Used as an independent check of the march against the
    Laplace-transform closed form.
    """
    khat = _squared_kernel_hat(model)
    zero = np.zeros(1)
    h = volterra_hat(lambda s: khat(s, zero), lambda s, k: np.ones_like(k),
                     lam * lam, t_values)
    return 1.0 + h[:, 0]


# ---------------------------------------------------------------------------
# Monte Carlo ensembles.
# ---------------------------------------------------------------------------

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def growth_envelope(exponent: float, shape):
    """exp(exponent) * shape for shape factors >= 1; +inf, a vacuous
    bound, past the float range, which is tested on the log scale."""
    if exponent > _LOG_FLOAT_MAX:
        return np.full(np.shape(shape), np.inf)
    with np.errstate(over="ignore"):
        return math.exp(exponent) * np.asarray(shape, dtype=float)


def mc_moments(model: KernelModel, u0: FiniteMeasure, sigma: SigmaSpec, *,
               dt: float, nx: int, half_width: float, t_end: float,
               seeds, t_probes, x_probes, ks=(1, 2),
               snapshot_times=()) -> MomentTable:
    """Ensemble moment estimates at probe points, with theory columns.

    Marches independent timestep paths, one per seed (an int n means
    seeds 0..n-1, a list its ints; see seed_ids), and accumulates power
    sums of |u| at every (t_probe, x_probe, k).
    x probes snap to the nearest cell center and the snapped coordinate is
    what lands in the table.  Replicas run in parallel over seed chunks;
    the reduction is in fixed chunk order, so results do not depend on
    the worker count.  snapshot_times also keeps every path's whole row
    at those times, from the same march (table.snapshots); the march then
    runs to the later of t_end and the last snapshot time.  t_probes,
    x_probes and ks may be empty, for a march that only keeps snapshots.
    """
    seeds = seed_ids(seeds)
    steps = step_numbers(t_end, dt, "t_end")[0]
    t_idx = step_numbers(t_probes, dt, "t probe")
    if max(t_idx, default=0) > steps:
        raise ValueError("t probe beyond t_end")
    snap_idx = step_numbers(snapshot_times, dt, "snapshot time")
    if len(seeds) * len(snap_idx) * nx > MAX_CELLS:
        raise AllocationLimit("snapshot buffer exceeds the budget")
    ks = [float(kv) for kv in np.atleast_1d(ks)]
    if any(kv < 1 for kv in ks):
        raise ValueError("moment orders must be >= 1")

    lat = build_lattice(model, u0, dt=dt, dx=2.0 * half_width / nx, nx=nx,
                        n_steps=max([steps] + snap_idx))
    x_nodes = lat.x_nodes
    cols = [int(np.argmin(np.abs(x_nodes - xp)))
            for xp in np.atleast_1d(np.asarray(x_probes, dtype=float))]
    n_pt, n_px, n_k = len(t_idx), len(cols), len(ks)
    probe_at = step_slots(t_idx)
    snap_at = step_slots(snap_idx)
    # power sums of |u|^k and |u|^2k, one slot per seed chunk, summed in
    # chunk order below
    sums = _shared_zeros((-(-len(seeds) // BATCH), 2, n_pt, n_px, n_k))
    snaps = _shared_zeros((len(seeds), len(snap_idx), nx))

    def collect(first, j, u):
        for slot in snap_at.get(j, ()):
            snaps[first:first + u.shape[0], slot] = u[:, 0]
        slots = probe_at.get(j)
        if slots is None:
            return
        vals = u[:, 0][:, cols]
        chunk = first // BATCH
        for kpos, kv in enumerate(ks):
            a = vals if kv == 1 else np.abs(vals) ** kv
            sums[chunk, 0, slots, :, kpos] += a.sum(axis=0)
            sums[chunk, 1, slots, :, kpos] += (a * a).sum(axis=0)

    march_seeds(lat, sigma, seeds, collect)
    s1, s2 = np.sum(sums, axis=0)

    n = float(len(seeds))
    m1 = s1 / n
    var = np.maximum(s2 / n - m1 * m1, 0.0) * (n / max(n - 1.0, 1.0))
    se_raw = np.sqrt(var / n)

    gam = {}
    for kv in ks:
        if sigma.lip == 0.0:
            gam[kv] = 0.0
        else:
            gam[kv] = gamma_k(model, max(kv, 2.0), sigma.lip)

    mass = u0.total_mass
    rows_t, rows_x, rows_k = [], [], []
    est, se, b_eu, b_h1, rawm, rawse = [], [], [], [], [], []
    ptus = heat_convolve_rows(model, u0, np.asarray(t_idx) * dt,
                              x_nodes[cols]) if n_pt * n_px * n_k else ()
    for slot, (i, ptu) in enumerate(zip(t_idx, ptus)):
        t = i * dt
        pt0 = p0_eval(model, t)
        for cpos in range(n_px):
            shape = pt0 * max(float(ptu[cpos]), 0.0)
            for kpos, kv in enumerate(ks):
                kk = max(kv, 2.0)
                m = m1[slot, cpos, kpos]
                r = se_raw[slot, cpos, kpos]
                if kv == 1:
                    e, de = m, r
                elif m > 0:
                    e = m ** (1.0 / kv)
                    de = r * e / (kv * m)
                else:
                    e, de = 0.0, 0.0
                rows_t.append(t)
                rows_x.append(float(x_nodes[cols[cpos]]))
                rows_k.append(kv)
                est.append(e)
                se.append(de)
                b_eu.append(float(growth_envelope(
                    (1.0 + EPS_GROWTH) * gam[kv] * t / kk,
                    math.sqrt(1.0 + shape))))
                b_h1.append(4.0 * math.sqrt(kk) * max(1.0, sigma.lip)
                            * math.sqrt(mass * shape))
                rawm.append(m)
                rawse.append(r)

    return MomentTable(
        t=np.array(rows_t), x=np.array(rows_x), k=np.array(rows_k),
        estimate=np.array(est), std_error=np.array(se),
        bound_exist_unique=np.array(b_eu), bound_h1=np.array(b_h1),
        raw_moment=np.array(rawm), raw_std_error=np.array(rawse),
        replicas=len(seeds), lattice=lat,
        snapshots=snaps if snap_idx else None)


# ---------------------------------------------------------------------------
# Mollified-initial-data comparison.
# ---------------------------------------------------------------------------

def stability_bound(model: KernelModel, mass: float, eps: float,
                    beta: float) -> float:
    """Ceiling for the Laplace-weighted L^2 distance to the eps-start:

        (mass^2 / pi) int_R (1 - e^{-eps psi})^2 / (beta + 2 psi) dxi.

    Evaluated as 2/pi times the half-line integral; past the cutoff the
    numerator is 1 to machine precision and the exact resolvent tail is
    used.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return 0.0
    if not beta > 0:
        raise ValueError("beta must be positive")
    if model.kind == "brownian":
        cutoff = math.sqrt(max(40.0 / eps, 1600.0 * (1.0 + beta))
                           / model.kappa)
    elif model.kind == "stable":
        cutoff = (max(40.0 / eps, 40.0 * (1.0 + beta))
                  / model.kappa) ** (1.0 / model.alpha)
    else:
        cutoff = float(model.xi_table[-1])
        if eps * psi_eval(model, cutoff) < 40.0:
            raise QuadratureUnderresolved(
                "tabulated exponent table too short for the stability bound")
    nodes, weights = _xi_rule(cutoff, 0.0)
    ps = psi_eval(model, nodes)
    core = weights @ (np.expm1(-eps * ps) ** 2 / (beta + 2.0 * ps))
    total = core + _upsilon_tail(model, beta, cutoff)
    return 2.0 * mass * mass * total / math.pi


def _deterministic_distance_time(model: KernelModel, mass: float, eps: float,
                                 beta: float) -> float:
    """sigma = 0 distance for a point mass, via time-domain quadrature.

    || p_t*u0 - p_{t+eps}*u0 ||_2^2 = mass^2 (p_{2t}(0) + p_{2t+2eps}(0)
    - 2 p_{2t+eps}(0)), integrated against e^{-beta t} with t = tau^2 to
    absorb the square-root singularity.  For sigma = 0 the Plancherel
    evaluation of the same distance is exactly stability_bound / 2, which
    is the cross-check the tests run.
    """
    tau_max = math.sqrt(45.0 / beta)
    z, w = _gauss_rule(64)
    total = 0.0
    n_panel = 24
    edges = np.linspace(0.0, tau_max, n_panel + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        tau = 0.5 * (b - a) * z + 0.5 * (a + b)
        wt = 0.5 * (b - a) * w
        for ta, wa in zip(tau, wt):
            t = ta * ta
            val = (p0_eval(model, 2.0 * t)
                   + p0_eval(model, 2.0 * t + 2.0 * eps)
                   - 2.0 * p0_eval(model, 2.0 * t + eps))
            total += wa * 2.0 * ta * math.exp(-beta * t) * val
    return mass * mass * total


def stability_compare(model: KernelModel, u0: FiniteMeasure,
                      sigma: SigmaSpec, eps_list, beta: float, seeds, *,
                      t_max: float = 6.0, dt: float = 0.01, nx: int = 320,
                      half_width: float = 20.0) -> list[StabilityRow]:
    """Distance between the solution and its mollified-start version.

    Marches u from u0 and, for every eps, U from p_eps * u0, all coupled
    on the same noise per seed, and estimates

        int_0^T e^{-beta t} dt int dx E |u_t(x) - U_t(x)|^2

    by a Riemann sum over the lattice (right rule in t, so the truncated
    estimate stays below the untruncated integral for a decaying
    integrand).  The mollified start only changes the deterministic rows:
    p_t * (p_eps * u0) = p_{t+eps} * u0 by the semigroup property.  beta
    must satisfy upsilon(beta) <= 1/(2 lip^2) or the comparison bound does
    not close.  Returns one row per eps with the Monte Carlo distance, its
    standard error, the quadrature value of the xi-integral ceiling, and a
    crude e^{-beta T} tail proxy from the final lattice row.
    """
    if sigma.lip > 0.0:
        ups = upsilon_eval(model, beta)
        if ups > 1.0 / (2.0 * sigma.lip ** 2):
            raise ValueError(
                f"beta={beta:g} is not admissible: upsilon(beta)={ups:g} "
                f"exceeds 1/(2 lip^2)={1.0 / (2.0 * sigma.lip ** 2):g}")
    eps_arr = [float(e) for e in np.atleast_1d(eps_list)]
    if any(e < 0 for e in eps_arr):
        raise ValueError("eps values must be nonnegative")
    if not eps_arr:
        return []
    seed_list = seed_ids(seeds)

    steps = step_numbers(t_max, dt, "t_max")[0]
    times = dt * np.arange(1, steps + 1)
    # start 0 is u0, start 1 + e is p_eps * u0 for the e-th eps
    lat = build_lattice(model, u0, dt=dt, dx=2.0 * half_width / nx, nx=nx,
                        n_steps=steps, shifts=[0.0] + eps_arr)
    decay = np.exp(-beta * times)
    dist = _shared_zeros((len(eps_arr), len(seed_list)))
    last = _shared_zeros(dist.shape)

    def accumulate(first, j, u):
        sq = ((u[:, :1] - u[:, 1:]) ** 2).sum(axis=2).T
        dist[:, first:first + sq.shape[1]] += decay[j] * sq
        if j == steps - 1:
            last[:, first:first + sq.shape[1]] = sq

    march_seeds(lat, sigma, seed_list, accumulate)
    n = len(seed_list)
    return [StabilityRow(
        eps=eps, distance=float(d.mean()),
        std_error=float(d.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        bound=stability_bound(model, u0.total_mass, eps, beta),
        tail_bound=math.exp(-beta * t_max) * float(l.mean()) / beta)
        for eps, d, l in zip(eps_arr, dist * dt * lat.dx, last * lat.dx)]


# ---------------------------------------------------------------------------
# Positivity.
# ---------------------------------------------------------------------------

def positivity_scan(fld: FieldLattice, *,
                    eps_num: float | None = None) -> tuple[float, int]:
    """Lattice minimum and count of cells below -eps_num.

    The continuum solution is nonnegative; the discrete scheme can dip
    slightly negative, so violations are counted against the scheme-error
    yardstick eps_num (ten times the measured sigma = 0 drift, stored on
    timestep fields).  Pass eps_num explicitly for Picard fields.
    """
    tol = eps_num if eps_num is not None else fld.eps_num
    if tol is None:
        raise ValueError("field carries no scheme error estimate; "
                         "pass eps_num explicitly")
    vals = fld.grid.values
    return float(vals.min()), int(np.count_nonzero(vals < -tol))
