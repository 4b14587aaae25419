"""Space-time convolution and the convolution inequalities it certifies.

The convolution is (f (*) g)_t(x) = int_0^t ds int dy f_{t-s}(x-y) g_s(y).
Kernel-type arguments are endpoint-singular in s (p_s(0) ~ s^{-1/alpha}),
so the s-integral is evaluated after the substitution s = t sin^2(theta),
which absorbs square-root singularities at both endpoints exactly; an extra
power grading of theta handles the stronger stable-law singularities.

Rows narrower than the lattice spacing (the kernel squared at tiny times)
cannot be sampled pointwise; below the resolvable time they are replaced by
mass-correct lattice spikes, which is exact in the convolution limit.
``smoothed_squared_grid`` tabulates ((p_t * u0)(x))^2 this way; the table
of the squared kernel p_t(x)^2 is its u0 = delta() case.

``st_convolve`` is the one theta-rule loop over table rows.  Each table row
is transformed once (rfft, zero-padded to the linear-convolution length);
linear interpolation in t commutes with the transform, so the theta nodes
are summed in Fourier space and each output row costs one irfft.

``volterra_hat`` marches the renewal equation of the second moment after a
Fourier transform in x, where it is one scalar Volterra equation per
frequency: h_t = lam^2 int_0^t K_{t-s} (D_s + h_s) ds, with K the
transform of p^2 and D that of the squared smoothed data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft, rfft

from .errors import GridMismatch
from .levy_kernel import (
    DEFAULT_SPEC,
    KernelModel,
    QuadratureSpec,
    _fast_len,
    _fourier_rows,
    _gauss_rule,
    _unique,
    p0_eval,
    p0_integral,
    theta_estimate,
)
from .measure_init import (FiniteMeasure, delta, heat_convolve_many,
                           heat_convolve_rows)


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Sampled nonnegative space-time function on (t_nodes) x (x_nodes)."""

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.t_nodes, dtype=float)
        x = np.asarray(self.x_nodes, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t[0] <= 0 or np.any(np.diff(t) <= 0):
            raise ValueError("t_nodes must be increasing and positive")
        dx = np.diff(x)
        if x.ndim != 1 or x.size < 2 or np.any(dx <= 0) or \
                not np.allclose(dx, dx[0], rtol=1e-9):
            raise ValueError("x_nodes must be a uniform increasing grid")
        if v.shape != (t.size, x.size):
            raise ValueError("values must have shape (len(t_nodes), len(x_nodes))")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "t_nodes", t)
        object.__setattr__(self, "x_nodes", x)
        object.__setattr__(self, "values", v)

    @property
    def dx(self) -> float:
        return float(self.x_nodes[1] - self.x_nodes[0])

    def row_at(self, t: float) -> np.ndarray:
        """Row at time t by linear interpolation, clamped at the ends."""
        return _interp_rows(self.t_nodes, self.values, t)


def _interp_rows(t_nodes: np.ndarray, rows: np.ndarray, s,
                limit: int | None = None) -> np.ndarray:
    """rows[:limit] at time(s) s, linear in t and clamped at both ends.

    A scalar s gives one row, an array of times one row per time.
    """
    top = (t_nodes.size if limit is None else limit) - 1
    if top == 0:
        return np.broadcast_to(rows[0], np.shape(s) + rows.shape[1:])
    s = np.clip(s, t_nodes[0], t_nodes[top])
    j = np.clip(np.searchsorted(t_nodes, s) - 1, 0, top - 1)
    c = np.asarray((s - t_nodes[j]) / (t_nodes[j + 1] - t_nodes[j]))[..., None]
    return (1.0 - c) * rows[j] + c * rows[j + 1]


def graded_times(t_max: float, n: int = 96, include=()) -> np.ndarray:
    """Quartically graded time mesh on (0, t_max], unioned with required
    nodes."""
    base = t_max * (np.arange(1, n + 1) / n) ** 4.0
    ts = _unique(np.concatenate([base, np.asarray(include, dtype=float)]))
    if ts.size and (ts[0] <= 0 or ts[-1] > t_max * (1 + 1e-12)):
        raise ValueError("required nodes must lie in (0, t_max]")
    return ts


def _theta_rule(n_half: int = 48):
    """Nodes/weights for int_0^t H(s) ds under s = t sin^2(theta).

    Returns (s_frac, w) with int_0^t H ds = t * sum w_i H(t s_frac_i),
    s_frac = sin^2(theta_i) and w already carrying the sin(2 theta_i)
    Jacobian. Each half of [0, pi/2] is graded quadratically toward its
    endpoint so stable-law endpoint singularities stay mild.
    """
    z, w = _gauss_rule(n_half)
    v = 0.5 * (z + 1.0)
    wv = 0.5 * w
    th_lo = 0.25 * math.pi * v ** 2
    w_lo = wv * 0.5 * math.pi * v
    theta = np.concatenate([th_lo, math.pi / 2.0 - th_lo[::-1]])
    weights = np.concatenate([w_lo, w_lo[::-1]])
    return np.sin(theta) ** 2, weights * np.sin(2.0 * theta)


def _window_nodes(model: KernelModel, u0: FiniteMeasure, t_values,
                  x_values) -> np.ndarray:
    """Uniform x nodes of a convolution table that serves the (t, x) probes.

    The half-width adds to the farthest probe and the data radius a tail
    buffer of 24 diffusion lengths, with a wide floor for heavy tails that
    relaxes when the horizon itself is tiny.  The spacing keeps the
    smallest probe time well above the resolvable time; otherwise output
    rows degenerate to spikes.
    """
    alpha = model.alpha if model.kind == "stable" else 2.0
    scale = (model.kappa * float(np.max(t_values))) ** (1.0 / alpha)
    halfw = float(np.abs(x_values).max()) + u0.data_radius \
        + max(min(10.0, 100.0 * scale), 24.0 * scale)
    dx_cap = (model.kappa * float(np.min(t_values)) / 4.0) ** (1.0 / alpha) \
        / 3.0
    nx = 2 * max(512, math.ceil(halfw / dx_cap)) + 1
    return np.linspace(-halfw, halfw, nx)


def _resolvable_time(model: KernelModel, dx: float) -> float:
    """Time below which the kernel is narrower than ~3 lattice cells."""
    width = 3.0 * dx
    if model.kind == "brownian":
        return width ** 2 / model.kappa
    if model.kind == "stable":
        return width ** model.alpha / model.kappa
    return width ** 2  # conservative default for tabulated exponents


def smoothed_squared_grid(model: KernelModel, u0: FiniteMeasure, t_nodes,
                          x_nodes,
                          spec: QuadratureSpec = DEFAULT_SPEC) -> SpaceTimeGrid:
    """Rows of ((p_t * u0)(x))^2; sub-lattice times become spikes.

    Below the resolvable time the atom part concentrates: its square
    integrates to sum_i m_i^2 p_{2t}(0) (cross terms and the density part
    are bounded there and carry vanishing squared mass).  With u0 = delta()
    these are the rows of p_t(x)^2, the kernel table of the lemma checks.
    """
    t_nodes = np.asarray(t_nodes, dtype=float)
    x_nodes = np.asarray(x_nodes, dtype=float)
    dx = float(x_nodes[1] - x_nodes[0])
    small = t_nodes < _resolvable_time(model, dx)
    p2 = _fourier_rows(model, 2.0 * t_nodes[small], [0.0], spec)[:, 0]
    rows = np.zeros((t_nodes.size, x_nodes.size))
    rows[~small] = heat_convolve_rows(model, u0, t_nodes[~small], x_nodes,
                                      spec) ** 2
    if np.any(small) and u0.density_grid is not None:
        dens = FiniteMeasure(density_grid=u0.density_grid,
                             density_values=u0.density_values,
                             support_radius=u0.support_radius)
        rows[small] = heat_convolve_many(model, dens, _resolvable_time(
            model, dx), x_nodes, spec) ** 2
    for y, m in u0.atoms:
        rows[small, np.argmin(np.abs(x_nodes - y))] += m * m * p2 / dx
    return SpaceTimeGrid(t_nodes, x_nodes, rows)


def st_convolve(f: SpaceTimeGrid, g: SpaceTimeGrid) -> SpaceTimeGrid:
    """Discretized f (*) g on the grid of f and g.

    Every row of f and g is transformed once; interpolation in t and the
    theta-node sum happen on the spectra, and the "same"-size centre of one
    irfft per row is the output row, clipped at 0.
    """
    if not (np.array_equal(f.t_nodes, g.t_nodes)
            and np.array_equal(f.x_nodes, g.x_nodes)):
        raise GridMismatch("st_convolve needs f and g on the same grid")
    if np.any(f.values < 0) or np.any(g.values < 0):
        raise ValueError("st_convolve is defined for nonnegative inputs")
    s_frac, wts = _theta_rule()
    ts = f.t_nodes
    nx = f.x_nodes.size
    n_fft = _fast_len(2 * nx - 1, real=True)
    lo = (nx - 1) // 2
    fhat = rfft(f.values, n_fft, axis=1)
    ghat = rfft(g.values, n_fft, axis=1)
    out = np.empty_like(f.values)
    for i, t in enumerate(ts):
        s = t * s_frac
        acc = wts @ (_interp_rows(ts, fhat, t - s) * _interp_rows(ts, ghat, s))
        out[i] = np.maximum(irfft(acc, n_fft)[lo:lo + nx] * (t * f.dx), 0.0)
    return SpaceTimeGrid(ts, f.x_nodes, out)


# Graded mesh size of the coarser of the two marches volterra_hat combines.
VOLTERRA_N = 120


def _volterra_rows(khat, dhat, lam2: float, t_nodes) -> np.ndarray:
    """h at every node of t_nodes for h_t = lam2 int_0^t K_{t-s} (D_s + h_s) ds.

    khat(s) gives the rows K_s, one per time, over a fixed frequency set;
    dhat(s, k) the rows D_s, given k = khat(s).  Each node integrates with
    the theta rule, exact K and D at its nodes and h linear between mesh
    nodes (held at the first node below it); the unknown h at the node
    itself enters that interpolation linearly, so each row is solved
    exactly.  The rule is symmetric, s_frac reversed is 1 - s_frac, so one
    khat call per row gives both K_s and K_{t-s}.
    """
    s_frac, wts = _theta_rule(32)
    out = None
    for i, t in enumerate(t_nodes):
        s = t * s_frac
        k = khat(s)
        kw = (lam2 * t * wts)[:, None] * k[::-1]
        src = dhat(s, k)
        if out is None:
            out = np.zeros((t_nodes.size, k.shape[1]),
                           dtype=np.result_type(k, src))
        acc = np.einsum("ij,ij->j", kw,
                        src + _interp_rows(t_nodes, out, s, i + 1))
        c = np.clip((s - t_nodes[i - 1]) / (t - t_nodes[i - 1]), 0.0, 1.0) \
            if i else np.ones_like(s)
        out[i] = acc / (1.0 - c @ kw)
    return out


def volterra_hat(khat, dhat, lam2: float, t_values) -> np.ndarray:
    """h at t_values for h_t = lam2 int_0^t K_{t-s} (D_s + h_s) ds.

    Marched by ``_volterra_rows`` on the graded meshes of VOLTERRA_N and
    2 VOLTERRA_N nodes (each holding t_values), whose O(n^-2) errors the
    Richardson step (4 h_2n - h_n) / 3 cancels.
    """
    t_values = np.asarray(t_values, dtype=float)
    runs = []
    for n in (VOLTERRA_N, 2 * VOLTERRA_N):
        tbl = graded_times(float(t_values[-1]), n, include=t_values)
        rows = _volterra_rows(khat, dhat, lam2, tbl)
        runs.append(rows[np.searchsorted(tbl, t_values)])
    return (4.0 * runs[1] - runs[0]) / 3.0


def time_convolve_at_origin(model: KernelModel, t: float) -> float:
    """int_0^t p_{t-s}(0) p_s(0) ds with exact density evaluations."""
    s_frac, wts = _theta_rule(64)
    vals = np.array([p0_eval(model, t * (1.0 - sf)) * p0_eval(model, t * sf)
                     for sf in s_frac])
    return float(t * np.sum(wts * vals))


def check_lemma_pp(model: KernelModel, t: float, theta: float | None = None):
    """Ordered triple certifying the diagonal convolution bound.

    Returns (p_t(0) int_0^t p, int_0^t p_{t-s}(0) p_s(0) ds,
    2 theta p_t(0) int_0^t p); the contract is lower <= mid <= upper.
    """
    th = theta_estimate(model) if theta is None else theta
    lower = p0_eval(model, t) * p0_integral(model, t)
    mid = time_convolve_at_origin(model, t)
    return lower, mid, 2.0 * th * lower


def check_lemma_star2_grid(model: KernelModel, u0: FiniteMeasure, n_levels: int,
                           t_values, x_values):
    """(lhs, rhs) arrays of shape (n_levels, len(t_values), len(x_values)).

    Level n holds the n-fold (p^2 (*) ... (*) p^2 (*) (p_. * u0)^2)_t(x)
    and the bound u0(R) (2 theta int_0^t p_s(0) ds)^n p_t(0) (p_t*u0)(x).
    One shared graded table serves every requested (t, x) pair, so the
    cost is n_levels convolution passes regardless of how many pairs.
    """
    if not 1 <= n_levels <= 4:
        raise ValueError("nested convolutions are supported for n in 1..4")
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    x_values = np.atleast_1d(np.asarray(x_values, dtype=float))
    th = theta_estimate(model)
    x_nodes = _window_nodes(model, u0, t_values, x_values)
    t_table = graded_times(float(t_values.max()), include=t_values)
    seed = smoothed_squared_grid(model, u0, t_table, x_nodes)
    kern = smoothed_squared_grid(model, delta(), t_table, x_nodes)
    idx = np.searchsorted(t_table, t_values)
    lhs = np.empty((n_levels, t_values.size, x_values.size))
    rhs = np.empty_like(lhs)
    smooth = heat_convolve_rows(model, u0, t_values, x_values)
    p0s = np.array([p0_eval(model, t) for t in t_values])
    ints = np.array([p0_integral(model, t) for t in t_values])
    cur = seed
    for lev in range(n_levels):
        cur = st_convolve(kern, cur)
        for i, ti in enumerate(idx):
            lhs[lev, i] = np.interp(x_values, x_nodes, cur.values[ti])
            rhs[lev, i] = u0.total_mass * (2.0 * th * ints[i]) ** (lev + 1) \
                * p0s[i] * smooth[i]
    return lhs, rhs


def check_lemma_star2(model: KernelModel, u0: FiniteMeasure, n: int, t: float,
                      x: float):
    """(lhs, rhs) for the n-fold kernel-squared bound seeded by (p*u0)^2."""
    lhs, rhs = check_lemma_star2_grid(model, u0, n, [t], [x])
    return float(lhs[n - 1, 0, 0]), float(rhs[n - 1, 0, 0])
