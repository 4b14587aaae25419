"""Finite Borel measures on R as initial data, and their kernel smoothing.

A measure is a list of atoms plus an optional sampled density part. The
delta measure at the origin (the interesting initial condition) is exact:
atoms are never mollified. Smoothing by the transition kernel goes through
the Fourier side,

    (p_t * u0)(x) = (1/pi) int_0^inf e^{-t psi(xi)}
                    Re[ u0_hat(xi) e^{-i xi x} ] dxi,

which handles atoms and densities uniformly.  Each call, for one time or a
table of times, uses one xi rule for all of them (see heat_convolve_rows)
and forms Re(u0_hat) cos(xi x) + Im(u0_hat) sin(xi x) in real arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid
from .levy_kernel import KernelModel, _fourier_rows


@dataclass(frozen=True)
class FiniteMeasure:
    """Finite nonnegative Borel measure: atoms plus a sampled density.

    density_grid/density_values sample a nonnegative function whose integral
    is taken by the trapezoid rule. support_radius is stored, not inferred;
    the constructor checks everything actually lives inside [-K, K].
    """

    atoms: tuple[tuple[float, float], ...] = ()
    density_grid: np.ndarray | None = field(default=None, repr=False)
    density_values: np.ndarray | None = field(default=None, repr=False)
    support_radius: float = 0.0
    total_mass: float | None = None  # optional declared value, cross-checked

    def __post_init__(self):
        atoms = tuple((float(y), float(m)) for y, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if any(m <= 0 for _, m in atoms):
            raise ValueError("atom masses must be positive")
        if (self.density_grid is None) != (self.density_values is None):
            raise ValueError("density needs both a grid and values")
        if self.density_grid is not None:
            grid = np.asarray(self.density_grid, dtype=float)
            vals = np.asarray(self.density_values, dtype=float)
            if grid.ndim != 1 or grid.shape != vals.shape or grid.size < 2:
                raise ValueError("density grid/values must be matching 1-d arrays")
            if np.any(np.diff(grid) <= 0):
                raise ValueError("density grid must be strictly increasing")
            if np.any(vals < 0):
                raise ValueError("density values must be nonnegative")
            object.__setattr__(self, "density_grid", grid)
            object.__setattr__(self, "density_values", vals)
        computed = self._compute_mass()
        if computed <= 0:
            raise ValueError("measure must have positive total mass")
        if self.total_mass is not None and \
                abs(self.total_mass - computed) > 1e-10 * computed:
            raise ValueError(
                f"declared total mass {self.total_mass!r} disagrees with the "
                f"recomputed value {computed!r}"
            )
        object.__setattr__(self, "total_mass", computed)
        k = self.support_radius
        if math.isfinite(k):
            if any(abs(y) > k for y, _ in atoms):
                raise ValueError("atom outside the declared support radius")
            if self.density_grid is not None:
                outside = np.abs(self.density_grid) > k
                if np.any(self.density_values[outside] != 0.0):
                    raise ValueError("density nonzero outside the declared support radius")

    @property
    def data_radius(self) -> float:
        """Radius of the data about the origin: support_radius when finite,
        else the largest |y| over the atoms and the density grid points
        where the density is nonzero."""
        if math.isfinite(self.support_radius):
            return float(self.support_radius)
        radius = max((abs(y) for y, _ in self.atoms), default=0.0)
        if self.density_grid is not None:
            live = np.abs(self.density_grid[self.density_values != 0.0])
            radius = max(radius, float(live.max(initial=0.0)))
        return radius

    def _compute_mass(self) -> float:
        mass = sum(m for _, m in self.atoms)
        if self.density_grid is not None:
            mass += float(np.trapezoid(self.density_values, self.density_grid))
        return mass


def delta(mass: float = 1.0, at: float = 0.0) -> FiniteMeasure:
    """Point mass; the default is the unit delta at the origin."""
    return FiniteMeasure(atoms=((at, mass),), support_radius=abs(at))


def _mirror_symmetric(u0: FiniteMeasure) -> bool:
    """The atoms pair up as (+-y, m), and the density grid and values
    mirror about 0 to 1e-12 of their largest magnitude (a grid built by
    arange is a few ulps off mirror-exact)."""
    if sorted(u0.atoms) != sorted((-y, m) for y, m in u0.atoms):
        return False
    if u0.density_grid is None:
        return True
    g, v = u0.density_grid, u0.density_values
    return bool(np.all(np.abs(g + g[::-1]) <= 1e-12 * np.abs(g).max())
                and np.all(np.abs(v - v[::-1]) <= 1e-12 * v.max()))


def fourier_u0(u0: FiniteMeasure, xi):
    """u0_hat(xi) = int e^{i xi y} u0(dy); |u0_hat| <= total mass.

    For data symmetric about 0 (see _mirror_symmetric) u0_hat is real:
    it is the cosine sum alone, with an imaginary part of exactly 0.
    """
    x = np.asarray(xi, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    sym = _mirror_symmetric(u0)
    xf, flat = x.reshape(-1), out.reshape(-1)
    if sym:
        flat = flat.real  # the imaginary part stays 0
    for y, m in u0.atoms:
        flat += m * (np.cos(xf * y) if sym else np.exp(1j * xf * y))
    if u0.density_grid is not None:
        g, v = u0.density_grid, u0.density_values
        w = np.empty_like(g)
        w[1:-1] = 0.5 * (g[2:] - g[:-2])
        w[0] = 0.5 * (g[1] - g[0])
        w[-1] = 0.5 * (g[-1] - g[-2])
        # cos (and, off symmetry, sin) sums in real arithmetic, blocked
        # over xi so each phase array stays ~8 MB
        wv = w * v
        block = max(1, 1_000_000 // g.size)
        for i in range(0, xf.size, block):
            arg = np.multiply.outer(xf[i:i + block], g)
            if sym:
                flat[i:i + block] += np.cos(arg, out=arg) @ wv
            else:
                sin = np.sin(arg) @ wv
                flat[i:i + block] += np.cos(arg, out=arg) @ wv + 1j * sin
    return out if np.ndim(xi) else complex(out)


def heat_convolve_many(model: KernelModel, u0: FiniteMeasure, t: float,
                       xs) -> np.ndarray:
    """(p_t * u0)(x) for an array of x, one shared Fourier quadrature."""
    return _fourier_rows(model, [t], xs, lambda xi: fourier_u0(u0, xi),
                         u0.data_radius)[0]


def heat_convolve_rows(model: KernelModel, u0: FiniteMeasure, ts,
                       xs) -> np.ndarray:
    """(p_t * u0)(x) rows over an array of times, one xi rule per call.

    The cutoff is sized for the smallest time at XI_TOL and the geometric
    panels toward 0 are extended by log2 of the cutoff ratio of the
    smallest to the largest time, so each row is resolved as well as by its
    own rule; one real cos (and, for data not symmetric about 0, sin) phase
    matrix serves every row.
    """
    return _fourier_rows(model, ts, xs, lambda xi: fourier_u0(u0, xi),
                         u0.data_radius)


def make_positive_definite_example(a: float) -> FiniteMeasure:
    """a * delta_0 plus a unit-mass standard Gaussian density.

    The Fourier transform is a + e^{-xi^2/2} >= a > 0, which is the
    positive-definiteness (with mass bounded below at infinity) needed for
    the small-time lower-bound tightness checks.
    """
    if not a > 0:
        raise ValueError("a must be positive")
    grid = np.arange(-10.0, 10.0 + 1e-12, 0.01)
    vals = np.exp(-0.5 * grid ** 2) / math.sqrt(2.0 * math.pi)
    vals = vals / np.trapezoid(vals, grid)  # unit mass exactly, in trapezoid arithmetic
    return FiniteMeasure(atoms=((0.0, a),), density_grid=grid,
                         density_values=vals, support_radius=10.0)


def measure_from_json(text_or_doc) -> FiniteMeasure:
    doc = json.loads(text_or_doc) if isinstance(text_or_doc, str) else text_or_doc
    if not isinstance(doc, dict):
        raise ConfigInvalid("measure document must be a JSON object")
    try:
        atoms = tuple((float(y), float(m)) for y, m in doc.get("atoms", []))
        radius = float(doc.get("support_radius", 0.0))
        grid = vals = None
        if "density" in doc:
            grid = np.asarray(doc["density"]["grid"], dtype=float)
            vals = np.asarray(doc["density"]["values"], dtype=float)
        return FiniteMeasure(atoms=atoms, density_grid=grid,
                             density_values=vals, support_radius=radius)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad measure document: {exc}") from exc
