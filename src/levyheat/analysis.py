"""Verdicts on moment bounds, scaling laws, and sup statistics.

Pure post-processing: every operation here consumes immutable moment
tables or arrays of per-seed field rows (plus the kernel model for
envelope evaluation) and returns plain values or a BoundVerdict.  The
Monte Carlo routes of small_t_scan and nochaos_sup_scan draw noise only
through the solver's mc_moments, with fixed seed lists, so every verdict
is reproducible from the inputs alone.

Statistical convention: one-sided tests at three standard errors.  A
bound claim passes when lhs <= rhs + 3 se; deterministic comparisons have
se = 0 and the same rule degenerates to a plain inequality.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientRange
from .levy_kernel import KernelModel, _unique, gamma_k, p0_eval
from .measure_init import FiniteMeasure, heat_convolve_many
from .solver import (MomentTable, SigmaSpec, check_truncation,
                     growth_envelope, mc_moments, pam_second_moment_oracle,
                     x_centers)

__all__ = [
    "BoundVerdict", "ModulusStat", "NOT_APPLICABLE",
    "check_exist_unique_bound", "small_t_scan", "tail_decay_fit",
    "modulus_estimate", "nochaos_sup_scan", "lyapunov_fit",
]

# A row is "vacuous" when the shape factor (1 + p_t(0)(p_t*u0))^{k/2}
# alone exceeds this, i.e. the bound says nothing about the growth rate.
VACUOUS_FACTOR = 100.0


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of one quantitative claim.

    lhs/rhs/std_error describe the worst row of the underlying grid (the
    one with the largest lhs - rhs - 3 se margin), so the stored flag is
    exactly `lhs <= rhs + 3 std_error`; the constructor refuses a flag
    that contradicts the numbers.  `passed` is written to the `pass`
    column in verdict CSVs (the bare name is reserved in Python).
    """

    claim_id: str
    lhs: float
    rhs: float
    std_error: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        want = bool(self.lhs <= self.rhs + 3.0 * self.std_error)
        if bool(self.passed) != want:
            raise ValueError(
                f"pass flag {self.passed!r} contradicts lhs={self.lhs!r}, "
                f"rhs={self.rhs!r}, std_error={self.std_error!r}")

    @classmethod
    def from_comparison(cls, claim_id: str, lhs: float, rhs: float,
                        std_error: float = 0.0,
                        metadata: dict | None = None) -> "BoundVerdict":
        return cls(claim_id=claim_id, lhs=float(lhs), rhs=float(rhs),
                   std_error=float(std_error),
                   passed=bool(lhs <= rhs + 3.0 * std_error),
                   metadata=dict(metadata or {}))


class _NotApplicable:
    """Singleton return for claims whose preconditions exclude the data
    (e.g. a Lyapunov fit when sigma has lower_lip = 0).  Falsy, so
    `if result:` reads as "claim applicable and available"."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NotApplicable"

    def __bool__(self) -> bool:
        return False


NOT_APPLICABLE = _NotApplicable()

ModulusStat = namedtuple("ModulusStat", [
    "mean", "std_error", "n_replicas", "n_pairs", "dx",
])


def _alpha_of(model: KernelModel) -> float:
    if model.kind == "brownian":
        return 2.0
    if model.kind == "stable":
        return float(model.alpha)
    raise ValueError("scaling analysis needs a brownian or stable kernel")


# ---------------------------------------------------------------------------
# Growth-bound calibration.
# ---------------------------------------------------------------------------

def check_exist_unique_bound(moments: MomentTable, model: KernelModel,
                             u0: FiniteMeasure, k: float, eps: float, *,
                             lip: float = 1.0) -> BoundVerdict:
    """Calibrate C and test E|u_t(x)|^k <= C^k e^{(1+eps)gamma(k)t} shape.

    shape = (1 + p_t(0)(p_t*u0)(x))^{k/2}.  The growth theorem proves such
    a constant exists without giving a value, so the smallest C making the
    inequality hold is fitted on every other time slice (no slack) and the
    verdict is evaluated on the remaining, disjoint slices at 3 raw
    standard errors.  lip is sigma's Lipschitz constant, which the moment
    table does not carry; the default 1 matches the lam = 1 linear case.

    Rows whose shape factor alone exceeds VACUOUS_FACTOR are listed under
    metadata["vacuous"]: near t -> 0+ the envelope diverges for measure
    data and the comparison says nothing about the growth rate.  So are
    rows whose envelope exceeds the float range; their bound is +inf.  The
    verdict row (lhs, rhs, std_error) is the verification row with the
    worst margin lhs - rhs - 3 se, so the pass flag for the whole grid
    coincides with the flag for that row.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    sel = np.isclose(moments.k, k)
    if not np.any(sel):
        raise ValueError(f"moment table has no rows of order k={k:g}")
    t = moments.t[sel]
    x = moments.x[sel]
    raw = moments.raw_moment[sel]
    raw_se = moments.raw_std_error[sel]

    kk = max(float(k), 2.0)
    gam = 0.0 if lip == 0.0 else gamma_k(model, kk, lip)
    envelope = np.empty(t.size)
    shape_pow = np.empty(t.size)
    for tv in _unique(t):
        rows = np.flatnonzero(t == tv)
        pt0 = p0_eval(model, float(tv))
        ptu = heat_convolve_many(model, u0, float(tv), x[rows])
        shape_pow[rows] = (1.0 + pt0 * np.maximum(ptu, 0.0)) ** (0.5 * k)
        envelope[rows] = growth_envelope((1.0 + eps) * gam * tv,
                                         shape_pow[rows])

    # train on every other time slice plus both endpoints: the
    # moment-to-envelope ratio is monotone at each end of the range
    # (shape-dominated at small t, growth-dominated at large t), so the
    # extremes must be fitted, not verified, or a zero-noise table fails
    # on a hairline at the boundary; interior slices stay held out
    t_unique = _unique(t)
    n_t = t_unique.size
    idx = np.arange(n_t)
    train_sel = (idx % 2 == 0) | (idx == n_t - 1)
    train_ts = t_unique[train_sel]
    verify_ts = t_unique[~train_sel]
    degenerate = verify_ts.size == 0
    if degenerate:
        verify_ts = train_ts
    train = np.isin(t, train_ts)
    verify = np.isin(t, verify_ts)

    c_pow_k = float(np.max(np.maximum(raw[train], 0.0) / envelope[train]))
    c_eps = c_pow_k ** (1.0 / k) if c_pow_k > 0 else 0.0

    # an envelope past the float range is +inf, and so is its bound
    finite = np.isfinite(envelope)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.where(finite, c_pow_k * envelope, np.inf)
    margin = raw - rhs - 3.0 * raw_se
    vi = np.flatnonzero(verify)
    worst = vi[int(np.argmax(margin[vi]))]
    failures = [(float(t[i]), float(x[i]), float(k))
                for i in vi if margin[i] > 0]
    vacuous = [(float(t[i]), float(x[i])) for i in vi
               if shape_pow[i] >= VACUOUS_FACTOR or not finite[i]]

    meta = {
        "c_eps": c_eps, "k": float(k), "eps": float(eps), "lip": float(lip),
        "gamma": gam, "scale": "E|u|^k",
        "n_train": int(np.count_nonzero(train)),
        "n_verify": int(vi.size),
        "train_ts": [float(v) for v in train_ts],
        "verify_ts": [float(v) for v in verify_ts],
        "degenerate_split": degenerate,
        "worst": (float(t[worst]), float(x[worst]), float(k)),
        "failures": failures, "vacuous": vacuous,
        "vacuous_factor": VACUOUS_FACTOR,
    }
    return BoundVerdict.from_comparison(
        f"exist_unique:k={k:g}:eps={eps:g}",
        lhs=float(raw[worst]), rhs=float(rhs[worst]),
        std_error=float(raw_se[worst]), metadata=meta)


# ---------------------------------------------------------------------------
# Small-time scaling.
# ---------------------------------------------------------------------------

def _scan_grid(u0, scale: float, max_points: int = 20001) -> np.ndarray:
    """Odd grid resolving the kernel scale around the support, 12 scales
    past the data radius, 60 points per scale; its right half mirrors the
    left exactly, so the Fourier rows on it transform half the points."""
    window = u0.data_radius + 12.0 * scale
    n = int(math.ceil(2.0 * window * 60.0 / scale)) + 1
    left = np.linspace(-window, 0.0, min(n | 1, max_points) // 2 + 1)
    return np.concatenate([left, -left[-2::-1]])


def small_t_scan(model: KernelModel, u0: FiniteMeasure, sigma: SigmaSpec,
                 t_dyadic, k: float, *, seeds=400,
                 dt: float | None = None, half_width: float | None = None,
                 nx: int | None = None) -> tuple[np.ndarray, float]:
    """t^{1/alpha} sup_x ||u_t(x)||_k along a decreasing dyadic time list.

    Returns the scaled sup values (same order as t_dyadic) and the log-log
    slope of the unscaled sup against t, which should sit near -1/alpha.
    The sup is a dense-lattice max; three routes, by decreasing exactness:

    * sigma = 0: the norm is (p_t*u0)(x) itself, evaluated by quadrature;
    * linear sigma and k = 2: the deterministic second-moment fixed point;
    * otherwise: a Monte Carlo ensemble (seeds, dt, nx, half_width), with
      defaults sized from the smallest requested time.
    """
    alpha = _alpha_of(model)
    if not alpha > 1.0:
        raise ValueError("small-time scaling needs alpha in (1, 2]")
    ts = np.asarray(t_dyadic, dtype=float)
    if ts.ndim != 1 or ts.size < 2:
        raise ValueError("t_dyadic must list at least two times")
    if np.any(ts <= 0) or np.any(np.diff(ts) >= 0):
        raise ValueError("t_dyadic must be positive and strictly decreasing")
    if k < 1:
        raise ValueError("moment order must be >= 1")

    sup = np.empty(ts.size)
    if sigma.lip == 0.0:
        for i, tv in enumerate(ts):
            xs = _scan_grid(u0, (model.kappa * tv) ** (1.0 / alpha))
            sup[i] = float(np.max(heat_convolve_many(model, u0, tv, xs)))
    elif sigma.kind == "linear" and k == 2:
        for i, tv in enumerate(ts):
            xs = _scan_grid(u0, (model.kappa * tv) ** (1.0 / alpha),
                            max_points=4001)
            orc = pam_second_moment_oracle(model, u0, sigma.lam, [tv], xs,
                                           mode="continuum")
            sup[i] = math.sqrt(max(float(np.max(orc.values[0])), 0.0))
    else:
        t_min, t_max = float(ts.min()), float(ts.max())
        if dt is None:
            dt = t_min / 32.0
        scale = (model.kappa * t_max) ** (1.0 / alpha)
        if half_width is None:
            half_width = u0.data_radius + 10.0 * scale
        if nx is None:
            dx_cap = 0.5 / p0_eval(model, dt)
            nx = int(math.ceil(2.0 * half_width / dx_cap))
        rows = mc_moments(model, u0, sigma, dt=dt, nx=nx,
                          half_width=half_width, t_end=t_max, seeds=seeds,
                          t_probes=[], x_probes=[], ks=[],
                          snapshot_times=ts[::-1]).snapshots
        pow_mean = np.mean(np.abs(rows) ** k, axis=0)  # (n_probes, nx)
        sup[:] = np.max(pow_mean, axis=1)[::-1] ** (1.0 / k)

    slope = float(np.polyfit(np.log(ts), np.log(sup), 1)[0])
    return ts ** (1.0 / alpha) * sup, slope


# ---------------------------------------------------------------------------
# Gaussian tail decay in space.
# ---------------------------------------------------------------------------

def tail_decay_fit(moments: MomentTable, K: float) -> float:
    """Least-squares slope of log E|u_t(x)|^k against x^2 at one time.

    The table must hold rows at a single t and single k; only rows with
    |x| >= 2K (clear of the support of the data, radius K) enter the fit.
    A negative slope is the quantitative form of Gaussian-type spatial
    decay; for k = 1 and a point mass the exact mean makes the slope
    -1/(2t).  Raises InsufficientRange when the grid does not reach
    2K + 5 sqrt(t) or when fewer than three usable rows remain.
    """
    if K < 0:
        raise ValueError("support radius must be nonnegative")
    t_unique = _unique(moments.t)
    k_unique = _unique(moments.k)
    if t_unique.size != 1:
        raise ValueError("tail fit needs rows at a single time")
    if k_unique.size != 1:
        raise ValueError("tail fit needs rows at a single moment order")
    t = float(t_unique[0])
    reach = 2.0 * K + 5.0 * math.sqrt(t)
    if float(np.abs(moments.x).max()) < reach:
        raise InsufficientRange(
            f"tail fit needs |x| out to {reach:g}, grid stops at "
            f"{float(np.abs(moments.x).max()):g}")
    usable = (np.abs(moments.x) >= 2.0 * K) & (moments.raw_moment > 0.0)
    if np.count_nonzero(usable) < 3:
        raise InsufficientRange(
            f"only {int(np.count_nonzero(usable))} usable tail rows, need 3")
    xx = moments.x[usable] ** 2
    logm = np.log(moments.raw_moment[usable])
    return float(np.polyfit(xx, logm, 1)[0])


# ---------------------------------------------------------------------------
# Modulus of continuity.
# ---------------------------------------------------------------------------

def modulus_estimate(rows, x_nodes, interval, eps: float) -> ModulusStat:
    """Mean over replicas of sup |u_t(x)-u_t(x')|^2 / |x-x'|^{1-eps}.

    rows is (replicas, nx), each replica's field at one time t on the
    uniform lattice x_nodes, such as mc_moments(...).snapshots[:, j].  The
    sup runs over all lattice pairs inside the window interval = (a, b).
    eps trades the Hoelder exponent: eps near 1 scores plain squared
    increments, small eps penalizes roughness at short distances harder.
    """
    rows = np.asarray(rows, dtype=float)
    x_nodes = np.asarray(x_nodes, dtype=float)
    n = len(rows)
    if n == 0:
        raise ValueError("need at least one field replica")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    a, b = (float(interval[0]), float(interval[1]))
    if not b > a:
        raise ValueError("interval must have positive length")
    mask = (x_nodes >= a) & (x_nodes <= b)
    m = int(np.count_nonzero(mask))
    if m < 2:
        raise ValueError("interval contains fewer than two lattice cells")
    xs = x_nodes[mask]
    sep = np.abs(xs[:, None] - xs[None, :])
    iu = np.triu_indices(m, 1)
    denom = sep[iu] ** (1.0 - eps)

    quot = np.empty(n)
    for i, vals in enumerate(rows[:, mask]):
        diff2 = (vals[:, None] - vals[None, :]) ** 2
        quot[i] = float(np.max(diff2[iu] / denom))
    se = float(np.std(quot, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return ModulusStat(mean=float(np.mean(quot)), std_error=se,
                       n_replicas=n, n_pairs=iu[0].size,
                       dx=float(x_nodes[1] - x_nodes[0]))


# ---------------------------------------------------------------------------
# Sup-boundedness scan.
# ---------------------------------------------------------------------------

def nochaos_sup_scan(model: KernelModel, u0: FiniteMeasure, sigma: SigmaSpec,
                     t: float, L_list, seeds, *, dt: float = 0.01,
                     dx: float = 0.05,
                     pad: float | None = None) -> np.ndarray:
    """Median over seeds of sup_{|x|<=L} u_t(x), one value per L.

    Compactly supported data only: the claim under test is that the sup
    stabilizes in L instead of growing.  One lattice covers the widest
    window (odd cell count, so x = 0 is a center) and every L reads its
    sup from the same realized paths, so the per-path sups are nested in
    L and the medians inherit that monotonicity; comparing across L then
    measures actual tail mass, not seed-to-seed scatter.  For sigma = 0
    the field is deterministic and the scan shortcuts to quadrature,
    making the row exact rather than Monte Carlo.
    """
    if not math.isfinite(u0.support_radius):
        raise ValueError("sup scan needs compactly supported data")
    if not t > 0:
        raise ValueError("t must be positive")
    Ls = [float(L) for L in np.atleast_1d(L_list)]
    if any(L <= 0 for L in Ls):
        raise ValueError("window half-widths must be positive")
    alpha = _alpha_of(model)
    if pad is None:
        pad = u0.data_radius + 10.0 * (model.kappa * t) ** (1.0 / alpha)

    half = max(Ls) + pad
    nx = 2 * int(math.ceil(half / dx)) + 1
    half_width = 0.5 * nx * dx
    x_nodes = x_centers(nx, dx)
    if sigma.lip == 0.0:
        check_truncation(model, u0, t, half_width)
        rows = heat_convolve_many(model, u0, t, x_nodes)[None, None]
    else:
        rows = mc_moments(model, u0, sigma, dt=dt, nx=nx,
                          half_width=half_width, t_end=t, seeds=seeds,
                          t_probes=[], x_probes=[], ks=[],
                          snapshot_times=[t]).snapshots

    out = np.empty(len(Ls))
    for li, L in enumerate(Ls):
        win = np.abs(x_nodes) <= L + 1e-9 * dx
        out[li] = float(np.median(np.max(rows[:, 0, win], axis=1)))
    return out


# ---------------------------------------------------------------------------
# Lyapunov exponent fit.
# ---------------------------------------------------------------------------

def lyapunov_fit(moments: MomentTable, k: float, *,
                 sigma: SigmaSpec | None = None,
                 x: float | None = None):
    """Exponential rate of E|u_t(x)|^k in t, as a 3-se band.

    Weighted least squares of log raw moment against t at a single x;
    returns (rate - 3 se, rate + 3 se).  When sigma is supplied and its
    lower_lip is 0 the claim does not apply (no linear lower bound forces
    growth) and the NOT_APPLICABLE sentinel is returned instead.  Raises
    InsufficientRange unless the fitted rate covers at least one e-folding
    over the time span, so that "exponential growth" is actually resolved
    rather than read off a flat stretch.
    """
    if sigma is not None and sigma.lower_lip == 0.0:
        return NOT_APPLICABLE
    sel = np.isclose(moments.k, k)
    if not np.any(sel):
        raise ValueError(f"moment table has no rows of order k={k:g}")
    xs = _unique(moments.x[sel])
    if xs.size > 1:
        if x is None:
            raise ValueError("several x columns present; pass x= to pick one")
        sel &= np.isclose(moments.x, x)
    pos = sel & (moments.raw_moment > 0.0)
    t = moments.t[pos]
    m = moments.raw_moment[pos]
    r = moments.raw_std_error[pos]
    if _unique(t).size < 3:
        raise InsufficientRange("rate fit needs at least three times")

    y = np.log(m)
    if np.any(r > 0):
        # delta method: var log m = (se/m)^2; zero-se rows get the
        # smallest positive variance present rather than infinite weight
        v = (r / m) ** 2
        v[v == 0] = v[v > 0].min()
        w = 1.0 / v
    else:
        w = np.ones(t.size)
    sw = w.sum()
    tbar = (w * t).sum() / sw
    ybar = (w * y).sum() / sw
    sxx = (w * (t - tbar) ** 2).sum()
    rate = float((w * (t - tbar) * (y - ybar)).sum() / sxx)
    if np.any(r > 0):
        se = math.sqrt(1.0 / sxx)
    else:
        resid = y - ybar - rate * (t - tbar)
        dof = max(t.size - 2, 1)
        se = math.sqrt(float((resid ** 2).sum()) / dof / sxx)

    span = float(t.max() - t.min())
    if rate * span < 1.0:
        raise InsufficientRange(
            f"time span {span:g} covers {rate * span:g} e-foldings of the "
            f"fitted rate {rate:g}; need at least one")
    return rate - 3.0 * se, rate + 3.0 * se
