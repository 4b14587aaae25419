"""Symmetric Levy generators on R and the kernel functionals built from them.

A model is specified by its characteristic exponent psi (nonnegative, even),
and everything else is derived by Fourier quadrature:

    p_t(x)   = (1/2pi) int exp(-i x xi - t psi(xi)) dxi      (cosine form)
    theta    = sup_t p_{t/2}(0) / p_t(0)
    upsilon(beta) = (1/2pi) int dxi / (beta + 2 psi(xi))
    gamma(k) = inf { beta : upsilon(2 beta / k) < 1 / (4 k lip^2) }
    g(a)     = inf { t : int_0^t p_r(0) dr >= a }

The closed families (Brownian with viscosity kappa, stable with exponent
alpha in (1, 2]) carry analytic cutoffs and tail corrections; a tabulated
exponent is supported for experimentation with the same machinery.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentResolvent, NoRoot, QuadratureUnderresolved

# Grid for the theta scan: 33 points per decade over [1e-4, 1e4].
THETA_T_GRID = np.logspace(-4.0, 4.0, 8 * 33 + 1)

# The Fourier-inversion quadrature: its cutoff at time t solves
# exp(-t psi(cutoff)) = XI_TOL / 10, and a xi rule that needs more than
# XI_NODES nodes raises QuadratureUnderresolved.
XI_TOL = 1e-10
XI_NODES = 400_000

# Hard ceiling for bracket expansion in g_eval before returning the
# saturation sentinel.
_G_T_CAP = 1e14


@dataclass(frozen=True)
class KernelModel:
    """A symmetric Levy generator, identified by its exponent psi.

    kind is one of "brownian" (psi = kappa xi^2 / 2), "stable"
    (psi = kappa |xi|^alpha, 1 < alpha <= 2) or "tabulated" (psi linearly
    interpolated from a sampled table; testing only).
    """

    kind: str
    kappa: float = 1.0
    alpha: float = 2.0
    xi_table: np.ndarray | None = field(default=None, repr=False)
    psi_table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("brownian", "stable", "tabulated"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError("kappa must be positive and finite")
        if self.kind == "stable":
            if not 0 < self.alpha <= 2:
                raise ValueError("stable exponent must lie in (0, 2]")
            if self.alpha <= 1:
                raise DivergentResolvent(
                    "resolvent integral diverges for stable exponent "
                    f"alpha={self.alpha} <= 1"
                )
        if self.kind == "tabulated":
            xi = np.asarray(self.xi_table, dtype=float)
            ps = np.asarray(self.psi_table, dtype=float)
            if xi.ndim != 1 or xi.shape != ps.shape or xi.size < 2:
                raise ValueError("tabulated exponent needs matching 1-d tables")
            if xi[0] != 0.0 or np.any(np.diff(xi) <= 0):
                raise ValueError("xi table must increase from 0")
            if np.any(ps < 0) or ps[0] != 0.0:
                raise ValueError("psi table must be nonnegative with psi(0)=0")
            object.__setattr__(self, "xi_table", xi)
            object.__setattr__(self, "psi_table", ps)


def brownian(kappa: float = 1.0) -> KernelModel:
    return KernelModel(kind="brownian", kappa=kappa)


def stable(alpha: float, kappa: float = 1.0) -> KernelModel:
    return KernelModel(kind="stable", kappa=kappa, alpha=alpha)


def tabulated(xi: np.ndarray, psi: np.ndarray) -> KernelModel:
    return KernelModel(kind="tabulated", xi_table=np.asarray(xi, dtype=float),
                       psi_table=np.asarray(psi, dtype=float))


def psi_eval(model: KernelModel, xi):
    """Evaluate the characteristic exponent at xi (symmetric in xi)."""
    x = np.abs(np.asarray(xi, dtype=float))
    if model.kind == "brownian":
        out = 0.5 * model.kappa * x * x
    elif model.kind == "stable":
        out = model.kappa * x ** model.alpha
    else:
        if np.any(x > model.xi_table[-1]):
            raise QuadratureUnderresolved(
                "psi requested beyond the tabulated range "
                f"(|xi| up to {x.max():g}, table ends at {model.xi_table[-1]:g})"
            )
        out = np.interp(x, model.xi_table, model.psi_table)
    return out if np.ndim(xi) else float(out)


def _cutoff_for(model: KernelModel, t: float, tol: float) -> float:
    """Smallest xi with exp(-t psi(xi)) <= tol/10: the quadrature's cutoff
    at tol = XI_TOL, or at a tighter tol where a caller needs one."""
    target = math.log(10.0 / tol) / t
    if model.kind == "brownian":
        return math.sqrt(2.0 * target / model.kappa)
    if model.kind == "stable":
        return (target / model.kappa) ** (1.0 / model.alpha)
    # Tabulated: walk the running max so dips cannot fool the bound.
    run = np.maximum.accumulate(model.psi_table)
    idx = np.searchsorted(run, target)
    if idx >= run.size:
        raise QuadratureUnderresolved(
            f"tabulated exponent reaches only psi={run[-1]:g} (table ends "
            f"at xi={model.xi_table[-1]:g}); t={t:g} needs a table that "
            f"reaches psi={target:g}"
        )
    return float(model.xi_table[idx])


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _unique(values) -> np.ndarray:
    """np.unique(values) bit for bit for NaN-free input: the same sort,
    then the first of each run of equal values (so 0.0 and -0.0 keep
    whichever the sort puts first).  np.unique asks np.ma whether its
    input is masked, which imports numpy.ma on its first call."""
    a = np.sort(np.ravel(values))
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _xi_rule(cutoff: float, osc_scale: float, n_geo: int = 28):
    """Gauss-Legendre nodes/weights on [0, cutoff], at most XI_NODES of them.

    Panels are geometric toward 0 so that widely separated psi scales are
    all resolved. Oscillatory integrands (cos(x xi) with |x| up to
    osc_scale) subdivide each panel so one GL-48 subpanel never carries
    more than ~32 radians of phase, where the rule is spectrally exact.
    """
    edges = np.array([0.0] + [cutoff * 2.0 ** (-j)
                              for j in range(n_geo, -1, -1)])
    a, b = edges[:-1], edges[1:]
    z, w = _gauss_rule(48)
    m = np.maximum(1.0, np.ceil(osc_scale * (b - a) / 32.0))  # sub-panels
    if not m.sum() * z.size <= XI_NODES:
        raise QuadratureUnderresolved(
            f"xi quadrature needs more than the budget of {XI_NODES} "
            f"nodes (cutoff {cutoff:g}, oscillation scale {osc_scale:g})"
        )
    # Every panel's sub-panel ends at once, with np.linspace(a, b, m + 1)'s
    # arithmetic, k * ((b - a) / m) + a with the last end set to b, so the
    # rule is the per-panel one bit for bit.
    m = m.astype(np.intp)
    last = np.cumsum(m) - 1
    k = (np.arange(last[-1] + 1) - np.repeat(last + 1 - m, m)).astype(float)
    step, start = np.repeat((b - a) / m, m), np.repeat(a, m)
    left = k * step + start
    right = (k + 1.0) * step + start
    right[last] = b
    half = 0.5 * (right - left)
    return ((half[:, None] * (z + 1.0) + left[:, None]).ravel(),
            (half[:, None] * w).ravel())


# Rows per GEMM in _fourier_rows; a lone row would go through gemv and
# land a few ulps off the same row of a GEMM.
ROW_CHUNK = 32


def _fourier_rows(model: KernelModel, ts, xs, u_hat=None,
                  radius: float = 0.0, span=None) -> np.ndarray:
    """Rows (1/pi) int_0^cutoff e^{-t psi} Re[u_hat(xi) e^{-i xi x}] dxi,
    one per t in ts, at every x in xs; u_hat = None means u_hat = 1.

    One xi rule serves the whole block: with (t_lo, t_hi) = span, by
    default (min(ts), max(ts)), its cutoff is sized for t_lo at XI_TOL and
    its geometric panels are extended by log2 of the cutoff ratio of t_lo
    to t_hi, so t_hi sees panels as fine near 0 as its own rule would give.
    With D = damp * weights * u_hat the rows are Re(D) cos(xi x) +
    Im(D) sin(xi x) in real arithmetic (no sin product when u_hat is
    real), blocked over x so each phase array stays ~8 MB, one GEMM per
    ROW_CHUNK rows.  On a grid with xs == -xs[::-1] (every lattice of
    power-of-two dx) only the first half of xs is transformed: cos is even
    and sin odd in x, so the row at -x is the cos part minus the sin part.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(ts > 0):
        raise ValueError("times must be positive")
    if ts.size == 0:
        return np.empty((0, xs.size))
    t_lo, t_hi = span or (float(ts.min()), float(ts.max()))
    cutoff = _cutoff_for(model, t_lo, XI_TOL)
    extra = 0 if t_hi == t_lo else max(0, math.ceil(math.log2(
        cutoff / _cutoff_for(model, t_hi, XI_TOL))))
    nodes, weights = _xi_rule(cutoff, float(np.abs(xs).max()) + radius,
                              n_geo=28 + extra)
    d = np.exp(-np.multiply.outer(ts, psi_eval(model, nodes))) * weights
    uh = 1.0 if u_hat is None else u_hat(nodes)
    d_sin = d * uh.imag if np.any(np.imag(uh)) else None
    d = d * np.real(uh)
    n = xs.size
    half = (n + 1) // 2 if np.array_equal(xs, -xs[::-1]) else n
    out = np.empty((ts.size, n))
    odd = None if d_sin is None else np.empty((ts.size, half))
    block = max(1, 1_000_000 // nodes.size)
    for i in range(0, half, block):
        cols = slice(i, min(i + block, half))
        arg = np.multiply.outer(nodes, xs[cols])
        sin = None if d_sin is None else np.sin(arg)
        cos = np.cos(arg, out=arg)
        for r in range(0, ts.size, ROW_CHUNK):
            rows = slice(r, r + ROW_CHUNK)
            out[rows, cols] = d[rows] @ cos
            if sin is not None:
                odd[rows, cols] = d_sin[rows] @ sin
    if half < n:
        even = out[:, :n - half]
        out[:, half:] = (even if odd is None else even - odd[:, :n - half]
                         )[:, ::-1]
    if odd is not None:
        out[:, :half] += odd
    return out / math.pi


def _squared_kernel_hat(model: KernelModel):
    """khat(ts, xi): rows of int e^{i xi x} p_t(x)^2 dx, one per t in ts.

    The transform is (1/2pi) int exp(-t (psi(eta) + psi(xi - eta))) deta.
    Brownian motion has the closed form p_{2t}(0) exp(-kappa t xi^2 / 4).
    A stable law scales, khat_t(xi) = t^{-1/alpha} G(t^{1/alpha} xi) with
    G = khat_1, and G is tabulated here, once per call, as log G against
    v = z^alpha: log G is linear in v for alpha = 2 and asymptotically
    linear otherwise, so linear interpolation in v is exact or nearly so.
    Each G(z) is (1/pi) int_0^inf exp(-kappa (|z/2+u|^alpha
    + |z/2-u|^alpha)) du, by Gauss-Legendre on either side of the kink at
    u = z/2.  A tabulated exponent has neither form and raises ValueError.
    """
    if model.kind == "brownian":
        kap = model.kappa

        def khat(ts, xi):
            ts = np.asarray(ts, dtype=float)[:, None]
            return np.exp(-0.25 * kap * ts * xi * xi) \
                / np.sqrt(4.0 * math.pi * kap * ts)
        return khat
    if model.kind != "stable":
        raise ValueError("the transform of p_t^2 needs a brownian or stable "
                         f"kernel, not a {model.kind} one")
    a, kap = model.alpha, model.kappa
    # G(z) <= G(0) e^{-50} once kappa 2^{1-alpha} z^alpha >= 50
    # nodes crowd toward v = 0, where log G ~ -c v^{2/alpha} bends most
    v = np.linspace(0.0, 1.0, 8193) ** 2 * (50.0 * 2.0 ** (a - 1.0) / kap)
    half = 0.5 * v[:, None] ** (1.0 / a)
    z, w = _gauss_rule(64)
    reach = (40.0 / kap) ** (1.0 / a)
    u = np.concatenate([half * 0.5 * (z + 1.0),
                        half + 0.5 * reach * (z + 1.0)], axis=1)
    wu = np.concatenate([half * 0.5 * w,
                         np.broadcast_to(0.5 * reach * w, u.shape[:1] + w.shape)],
                        axis=1)
    g = np.sum(wu * np.exp(-kap * (np.abs(half + u) ** a
                                   + np.abs(half - u) ** a)), axis=1) / math.pi
    log_g = np.log(g)

    def khat(ts, xi):
        ts = np.asarray(ts, dtype=float)[:, None]
        vv = ts * np.abs(xi) ** a
        return np.exp(np.interp(vv, v, log_g, right=-np.inf)) \
            * ts ** (-1.0 / a)
    return khat


def p_eval_many(model: KernelModel, t: float, xs):
    """Transition density p_t at an array of offsets, one shared quadrature."""
    return _fourier_rows(model, [t], xs)[0]


def p_eval(model: KernelModel, t: float, x: float) -> float:
    """Transition density p_t(x) by cosine-form Fourier inversion."""
    return float(p_eval_many(model, t, [x])[0])


def p0_eval(model: KernelModel, t: float) -> float:
    """p_t(0), the on-diagonal density."""
    return p_eval(model, t, 0.0)


def _tail_inv_psi(model: KernelModel, cutoff: float) -> float:
    """int_{cutoff}^inf dxi / psi(xi), exact for the closed families."""
    if model.kind == "brownian":
        return 2.0 / (model.kappa * cutoff)
    if model.kind == "stable":
        a = model.alpha
        return cutoff ** (1.0 - a) / (model.kappa * (a - 1.0))
    a_hat, c_hat = _tabulated_tail_power(model)
    return cutoff ** (1.0 - a_hat) / (c_hat * (a_hat - 1.0))


def _tabulated_tail_power(model: KernelModel) -> tuple[float, float]:
    """Power-law fit psi ~ c xi^a over the last decade of the table."""
    xi, ps = model.xi_table, model.psi_table
    lo = np.searchsorted(xi, xi[-1] / 10.0)
    lo = min(max(lo, 1), xi.size - 2)
    a_hat = math.log(ps[-1] / ps[lo]) / math.log(xi[-1] / xi[lo])
    if a_hat <= 1.02:
        raise DivergentResolvent(
            f"tabulated exponent grows like xi^{a_hat:.3f} at the tail; "
            "the resolvent integral requires growth strictly faster than xi"
        )
    c_hat = ps[-1] / xi[-1] ** a_hat
    return a_hat, c_hat


def p0_integral(model: KernelModel, t: float) -> float:
    """int_0^t p_r(0) dr via the swapped representation.

    Exchanging the r and xi integrals gives
        (1/pi) int_0^inf (1 - exp(-t psi)) / psi dxi,
    a single smooth integrand with an algebraic tail handled analytically.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    cutoff = _cutoff_for(model, t, min(XI_TOL, 1e-12))
    nodes, weights = _xi_rule(cutoff, 0.0)
    ps = psi_eval(model, nodes)
    a = t * ps
    core = np.where(a < 1e-12, t * (1.0 - 0.5 * a), -np.expm1(-a) / np.maximum(ps, 1e-300))
    return float(weights @ core + _tail_inv_psi(model, cutoff)) / math.pi


def _upsilon_tail(model: KernelModel, beta: float, cutoff: float) -> float:
    """int_{cutoff}^inf dxi / (beta + 2 psi), series in beta / (2 psi)."""
    if model.kind == "brownian":
        k = model.kappa
        return (math.pi / 2.0 - math.atan(cutoff * math.sqrt(k / beta))) / math.sqrt(k * beta)
    if model.kind == "stable":
        a, c = model.alpha, 2.0 * model.kappa
    else:
        a, c = _tabulated_tail_power(model)
        c = 2.0 * c
    total, n = 0.0, 0
    while True:
        term = (-beta) ** n * c ** (-(n + 1)) * cutoff ** (1.0 - a * (n + 1)) / (a * (n + 1) - 1.0)
        total += term
        if abs(term) < 1e-17 * max(abs(total), 1e-300) or n > 200:
            return total
        n += 1


def upsilon_eval(model: KernelModel, beta: float) -> float:
    """Resolvent functional (1/2pi) int dxi / (beta + 2 psi(xi))."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    if model.kind == "stable" and model.alpha <= 1:
        raise DivergentResolvent("resolvent diverges for alpha <= 1")
    if model.kind == "tabulated":
        _tabulated_tail_power(model)  # raises if the tail grows too slowly
    # Cutoff: far enough out that the tail series in beta/(2 psi) converges fast.
    if model.kind == "brownian":
        cutoff = 40.0 * math.sqrt((1.0 + beta) / model.kappa)
    elif model.kind == "stable":
        cutoff = (40.0 * (1.0 + beta) / model.kappa) ** (1.0 / model.alpha)
    else:
        cutoff = model.xi_table[-1]
        if psi_eval(model, cutoff) < 20.0 * beta:
            raise QuadratureUnderresolved(
                "tabulated exponent table too short to resolve the resolvent "
                f"at beta={beta:g}"
            )
    nodes, weights = _xi_rule(cutoff, 0.0)
    core = weights @ (1.0 / (beta + 2.0 * psi_eval(model, nodes)))
    return float(core + _upsilon_tail(model, beta, cutoff)) / math.pi


def theta_estimate(model: KernelModel) -> float:
    """sup over t of p_{t/2}(0) / p_t(0), scanned over t in THETA_T_GRID.

    For tabulated exponents the scan is only a lower bound on the true
    sup, so a warning is emitted.
    """
    if model.kind == "tabulated":
        warnings.warn(
            "theta for a tabulated exponent is a grid max, not a certified sup",
            stacklevel=2,
        )
    ratios = [p0_eval(model, 0.5 * t) / p0_eval(model, t)
              for t in THETA_T_GRID]
    return float(max(ratios))


def _memo_by_model(fn):
    """Cache fn(model, k, lip) on the model's parameters and (k, lip) to 12
    digits. Tabulated models, whose tables are arrays, and calls passing
    a further argument (only frak_T takes one, its theta) are computed
    afresh."""
    cache: dict[tuple, float] = {}

    @functools.wraps(fn)
    def cached(model: KernelModel, k: float, lip: float, *args, **kwargs):
        if args or kwargs or model.kind == "tabulated":
            return fn(model, k, lip, *args, **kwargs)
        key = (model.kind, model.kappa, model.alpha, round(k, 12),
               round(lip, 12))
        if key not in cache:
            cache[key] = fn(model, k, lip)
        return cache[key]
    return cached


@_memo_by_model
def gamma_k(model: KernelModel, k: float, lip: float) -> float:
    """Moment growth threshold: smallest beta with upsilon(2 beta/k) < 1/(4 k lip^2)."""
    if k < 2:
        raise ValueError("moment order k must be >= 2")
    if not lip > 0:
        raise ValueError("lip must be positive")
    thr = 1.0 / (4.0 * k * lip * lip)

    def f(beta):
        return upsilon_eval(model, 2.0 * beta / k) - thr

    lo, hi = 1e-12, 1.0
    it = 0
    while f(hi) > 0:
        hi *= 8.0
        it += 1
        if it > 80:
            raise NoRoot("could not bracket the growth threshold from above")
    while f(lo) < 0:
        lo /= 8.0
        it += 1
        if it > 160:
            raise NoRoot("could not bracket the growth threshold from below")
    while hi - lo > 1e-8 * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def g_eval(model: KernelModel, a: float) -> float:
    """Inverse kernel-mass clock: inf { t : int_0^t p_r(0) dr >= a }.

    Returns math.inf when the integral saturates below a.
    """
    if not a > 0:
        raise ValueError("a must be positive")
    lo, hi = 0.0, 1.0
    while p0_integral(model, hi) < a:
        lo, hi = hi, hi * 4.0
        if hi > _G_T_CAP:
            return math.inf
    while hi - lo > 1e-8 * hi:
        mid = 0.5 * (lo + hi)
        if p0_integral(model, mid) >= a:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@_memo_by_model
def frak_T(model: KernelModel, k: float, lip: float,
           theta: float | None = None) -> float:
    """Short-horizon bound for the order-k moment theory.

    frak_T_k = g( 1 / (32 k theta (1 v lip^2)) ); decreasing in k and lip.
    """
    th = theta_estimate(model) if theta is None else theta
    return g_eval(model, 1.0 / (32.0 * k * th * max(1.0, lip * lip)))


# ---------------------------------------------------------------------------
# Band-limited lattice rows (shared by the solver and the moment oracle).
# ---------------------------------------------------------------------------

def _fast_len(n: int, real: bool = False) -> int:
    """Smallest length >= n >= 1 whose prime factors are at most 11 (at
    most 5 with real=True): the length scipy.fft.next_fast_len(n, real)
    returns, so FFT lengths and bits match the scipy.fft calls."""
    primes = (2, 3, 5) if real else (2, 3, 5, 7, 11)
    while True:
        m = n
        for p in primes:
            while m > 1 and m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _dct1(e: np.ndarray) -> np.ndarray:
    """Type-I DCT along the last axis, scipy.fft.dct(e, type=1) bit for
    bit: the real part of the rfft of the even extension, which is the
    transform pocketfft runs for it."""
    return np.fft.rfft(np.concatenate([e, e[..., -2:0:-1]], axis=-1)).real


def bandlimited_rows(model: KernelModel, dx: float, n_offsets: int,
                     lag_times, dt_average: float | None = None
                     ) -> np.ndarray:
    """Kernel rows sampled at offsets d*dx, band-limited at the lattice Nyquist.

    Row r holds (1/pi) int_0^{pi/dx} E_r(xi) cos(d dx xi) dxi for
    d = 0..n_offsets-1, where

        E_r(xi) = exp(-lag_r psi(xi)) * A(xi),
        A(xi)   = (1 - exp(-dt_average psi)) / (dt_average psi)   if averaging,
                  1 otherwise.

    Band-limiting makes the one-step propagator an exact lattice semigroup:
    iterating the row with lag dt reproduces the row with lag m*dt with no
    aliasing-driven mass drift. Computed as a type-I DCT (trapezoid) on a
    uniform xi grid of 8 max(n_offsets, 64) steps, plus the Euler-Maclaurin
    h^2/12 endpoint correction: E'(0) = 0 but E'(Nyquist) need not be
    small, and correcting it makes the rows O(h^4) accurate (mass
    identities hold to ~1e-9).
    """
    lags = np.atleast_1d(np.asarray(lag_times, dtype=float))
    nyquist = math.pi / dx
    m = 8 * max(n_offsets, 64)
    xi = np.linspace(0.0, nyquist, m + 1)
    ps = psi_eval(model, xi)
    avg = 1.0
    if dt_average is not None:
        a = dt_average * ps
        avg = np.where(a < 1e-12, 1.0 - 0.5 * a, -np.expm1(-a) / np.where(a > 0, a, 1.0))
    h = nyquist / m
    signs = np.where(np.arange(n_offsets) % 2 == 0, 1.0, -1.0)
    rows = np.empty((lags.size, n_offsets))
    for r in range(0, lags.size, ROW_CHUNK):  # bounds the (lags, m) arrays
        e = np.exp(-np.outer(lags[r:r + ROW_CHUNK], ps)) * avg
        # one-sided O(h^2) estimate of dE/dxi at the Nyquist edge, per lag row
        de_end = (3.0 * e[:, -1] - 4.0 * e[:, -2] + e[:, -3]) / (2.0 * h)
        rows[r:r + ROW_CHUNK] = (_dct1(e)[:, :n_offsets] * (0.5 * h / math.pi)
                                 - np.outer(de_end, signs) * (h * h / (12.0 * math.pi)))
    return rows


def interval_mass(model: KernelModel, t: float, c: float) -> float:
    """int_{-c}^{c} p_t(z) dz = (2/pi) int_0^inf exp(-t psi) sin(c xi)/xi dxi."""
    if not (t > 0 and c > 0):
        raise ValueError("t and c must be positive")
    nodes, weights = _xi_rule(_cutoff_for(model, t, XI_TOL), c)
    vals = np.exp(-t * psi_eval(model, nodes)) * np.sin(c * nodes) / nodes
    return float(2.0 / math.pi * (weights @ vals))


def exterior_mass(model: KernelModel, t: float, c: float) -> float:
    """Mass of p_t outside [-c, c]; clipped at 0 against quadrature noise."""
    return max(0.0, 1.0 - interval_mass(model, t, c))
