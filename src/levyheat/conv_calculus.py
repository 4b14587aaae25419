"""Space-time convolution and the convolution inequalities it certifies.

The convolution is (f (*) g)_t(x) = int_0^t ds int dy f_{t-s}(x-y) g_s(y).
Kernel-type arguments are endpoint-singular in s (p_s(0) ~ s^{-1/alpha}),
so the s-integral is evaluated after the substitution s = t sin^2(theta),
which absorbs square-root singularities at both endpoints exactly; an extra
power grading of theta handles the stronger stable-law singularities.

Convolutions with p^2 are computed after a Fourier transform in x, where
each is one time convolution per frequency xi with K, the transform of
p^2.  ``volterra_hat`` marches the renewal equation of the second moment
this way, h_t = lam^2 int_0^t K_{t-s} (D_s + h_s) ds with D the transform
of the squared smoothed data; the Lemma *2 levels are the same time
convolution without feedback, L_n = int_0^t K_{t-s} L_{n-1}(s) ds from
L_0 = D.  Both take their xi rule and D from ``_spectral_rule`` and are
inverted at the output points by ``_add_inverse``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft

from .levy_kernel import (
    XI_TOL,
    KernelModel,
    _cutoff_for,
    _fast_len,
    _gauss_rule,
    _squared_kernel_hat,
    _unique,
    _xi_rule,
    p0_eval,
    p0_integral,
    psi_eval,
    theta_estimate,
)
from .measure_init import FiniteMeasure, fourier_u0, heat_convolve_rows


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


def _theta_rule(n_half: int):
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


# Graded mesh size of the coarser of the two marches that _richardson combines.
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


def _level_rows(khat, dhat, n_levels: int, t_nodes) -> np.ndarray:
    """L_1 .. L_n at every node of t_nodes, L_j = int_0^t K_{t-s} L_{j-1}(s)
    ds from L_0 = D: the theta step of ``_volterra_rows`` without feedback,
    each level read linearly between mesh nodes up to the node itself,
    which the level below has just filled (one khat call per node)."""
    s_frac, wts = _theta_rule(32)
    out = None
    for i, t in enumerate(t_nodes):
        s = t * s_frac
        k = khat(s)
        kw = (t * wts)[:, None] * k[::-1]
        src = dhat(s, k)
        if out is None:
            out = np.zeros((t_nodes.size, n_levels, k.shape[1]),
                           dtype=np.result_type(k, src))
        for j in range(n_levels):
            out[i, j] = np.einsum("ij,ij->j", kw, src)
            src = _interp_rows(t_nodes, out[:, j], s, i + 1)
    return out


def _richardson(march, t_values) -> np.ndarray:
    """march(mesh), its rows over a graded mesh, at t_values: the step
    (4 r_2n - r_n) / 3 over the meshes of n = VOLTERRA_N and 2n nodes, each
    holding t_values, cancels the O(n^-2) march error."""
    runs = []
    for n in (VOLTERRA_N, 2 * VOLTERRA_N):
        tbl = graded_times(float(t_values[-1]), n, include=t_values)
        runs.append(march(tbl)[np.searchsorted(tbl, t_values)])
    return (4.0 * runs[1] - runs[0]) / 3.0


def volterra_hat(khat, dhat, lam2: float, t_values) -> np.ndarray:
    """h at t_values for h_t = lam2 int_0^t K_{t-s} (D_s + h_s) ds,
    marched by ``_volterra_rows`` under ``_richardson``."""
    return _richardson(lambda tbl: _volterra_rows(khat, dhat, lam2, tbl),
                       np.asarray(t_values, dtype=float))


# Tail bound of the squared-kernel transform at a spectral march's xi cutoff.
ORACLE_XI_TOL = 1e-13


def _square_remainder_hat(model, u0, khat, amp, xi, ts) -> np.ndarray:
    """Rows over ts of the transform of (p_t*u0)^2 - sum_j m_j^2 p_t(.-y_j)^2.

    What is left of the squared data after the atoms' own squares is
    bounded as t -> 0: cross terms of atoms and the density.  p_t*u0 is
    sampled by one FFT per time on a periodic grid that resolves p_{ts[0]}
    and holds the data radius plus 24 diffusion lengths of the largest
    time on either side (at least 10, for heavy tails), squared, and summed
    against e^{i xi x}; amp * khat is the atoms' part it then drops.
    """
    alpha = model.alpha if model.kind == "stable" else 2.0
    scale = (model.kappa * ts[-1]) ** (1.0 / alpha)
    half = u0.data_radius + max(24.0 * scale, min(10.0, 100.0 * scale))
    eta_max = _cutoff_for(model, ts[0], XI_TOL)
    n = _fast_len(math.ceil(4.0 * half * eta_max / math.pi), real=True)
    eta = (math.pi / half) * np.arange(n // 2 + 1)
    phat = np.exp(-np.multiply.outer(ts, psi_eval(model, eta))) \
        * np.conj(fourier_u0(u0, eta))
    rows = irfft(phat, n, axis=1) * (0.5 * n / half)
    x = (2.0 * half / n) * ((np.arange(n) + n // 2) % n - n // 2)
    sq = rows * rows * (2.0 * half / n)
    arg = np.multiply.outer(x, xi)
    return sq @ np.cos(arg) + 1j * (sq @ np.sin(arg)) - amp * khat(ts, xi)


def _spectral_rule(model, u0, t_values, x_out):
    """(xi, w, khat, dhat) of a march over increasing t_values inverted at
    x_out: khat(s) gives the rows of K, the transform of p_s^2, over xi,
    and dhat(s, k) those of D, the transform of (p_s*u0)^2.

    The xi rule reaches where e^{-2 t psi(xi/2)}, which bounds every
    |f^_t(xi)| / f^_t(0), falls below ORACLE_XI_TOL at the smallest time;
    its panels follow the oscillation of the largest |x - y| and are
    graded toward 0 far enough for the largest time.  D of an atom of mass
    m at y is m^2 e^{i xi y} K; the bounded remainder of several atoms or
    a density is tabulated on the finer march mesh from t_min / 100 on,
    linear in t between its nodes and held at its first node below them.
    A tabulated exponent has no K and raises ValueError.
    """
    khat = _squared_kernel_hat(model)
    t_min, t_max = float(t_values[0]), float(t_values[-1])
    cutoff = 2.0 * _cutoff_for(model, 2.0 * t_min, ORACLE_XI_TOL)
    grade = math.log2(cutoff / (2.0 * _cutoff_for(model, 2.0 * t_max,
                                                  ORACLE_XI_TOL)))
    xi, w = _xi_rule(cutoff, float(np.abs(x_out).max()) + u0.data_radius,
                     n_geo=math.ceil(grade) + 2)
    amp = np.real_if_close(sum((m * m * np.exp(1j * xi * y)
                                for y, m in u0.atoms), np.zeros(xi.size)))
    if len(u0.atoms) == 1 and u0.density_grid is None:
        def dhat(s, k):
            return amp * k
    else:
        ts = graded_times(t_max, 2 * VOLTERRA_N, include=t_values)
        ts = ts[ts >= 0.01 * t_min]
        rem = _square_remainder_hat(model, u0, khat, amp, xi, ts)

        def dhat(s, k):
            return amp * k + _interp_rows(ts, rem, s)
    return xi, w, (lambda s: khat(s, xi)), dhat


def _add_inverse(out, fhat, xi, w, x_out) -> np.ndarray:
    """out plus (1/pi) int_0^cutoff Re[f^(xi) e^{-i xi x}] dxi at x_out,
    the inverse transform of the even-in-xi f^ on the rule (xi, w)."""
    arg = np.multiply.outer(xi, x_out)
    out += (fhat.real * (w / math.pi)) @ np.cos(arg)
    if np.iscomplexobj(fhat):
        out += (fhat.imag * (w / math.pi)) @ np.sin(arg)
    return out


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
    In x-frequency each level is one more time convolution with K, the
    transform of p^2, marched by ``_level_rows`` on the continuum oracle's
    xi rule and meshes (``_spectral_rule``, ``_richardson``), so all
    levels and (t, x) pairs share one march.  t_values must be positive
    and strictly increasing, and the kernel brownian or stable: a
    tabulated exponent raises ValueError, as the oracle does.
    """
    if not 1 <= n_levels <= 4:
        raise ValueError("nested convolutions are supported for n in 1..4")
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    x_values = np.atleast_1d(np.asarray(x_values, dtype=float))
    if t_values.ndim != 1 or not t_values.size or not t_values[0] > 0 \
            or not np.all(np.diff(t_values) > 0):
        raise ValueError("t_values must be positive and strictly increasing")
    xi, w, khat, dhat = _spectral_rule(model, u0, t_values, x_values)
    lhat = _richardson(lambda tbl: _level_rows(khat, dhat, n_levels, tbl),
                       t_values)
    lhs = _add_inverse(np.zeros(lhat.shape[:2] + x_values.shape), lhat, xi,
                       w, x_values).transpose(1, 0, 2)
    th = theta_estimate(model)
    growth = np.array([2.0 * th * p0_integral(model, t) for t in t_values])
    scale = u0.total_mass * np.array([p0_eval(model, t) for t in t_values])
    rhs = (growth ** np.arange(1, n_levels + 1)[:, None] * scale)[..., None] \
        * heat_convolve_rows(model, u0, t_values, x_values)
    return lhs, rhs


def check_lemma_star2(model: KernelModel, u0: FiniteMeasure, n: int, t: float,
                      x: float):
    """(lhs, rhs) for the n-fold kernel-squared bound seeded by (p*u0)^2."""
    lhs, rhs = check_lemma_star2_grid(model, u0, n, [t], [x])
    return float(lhs[n - 1, 0, 0]), float(rhs[n - 1, 0, 0])
