"""The benchmark workloads: generated inputs, the program call, the gates.

Each workload turns a seed into input files and a ``Job``: the command line a
user would type, the traced variant, the set-up-only variant, and a gate that
checks the outputs of one repetition.  A gate raises ``GateFailed``; the
runner counts that repetition as a failed operation.  Why each workload was
chosen is its ``why`` in BENCHMARK.json.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED_CONFIG = SRC / "levyheat" / "configs" / "pam_delta0.json"
GOLDEN_RUN = ROOT / "runs" / "pam_delta0"
REFERENCE = HERE / "reference" / "simulate_wide_seed0.json"

DEFAULT_SEED = 0
SCALED_TOL = 1e-8      # golden / reference match, scaled by the column max
CONSUMER_TOL = 1e-9    # snapshot rows vs power sums of the same march
ORACLE_RTOL = 3e-2     # continuum oracle vs closed form
Z_MAX = 5.0            # standard errors allowed against the lattice oracle


class GateFailed(Exception):
    """A repetition's outputs are wrong."""


@dataclass
class Job:
    """One workload instance: how to run it and how to check a repetition."""

    program: list       # argv after the interpreter
    traced: list        # argv after ``spans.py SPANS.json``
    setup: list         # argv after ``setup_child.py``
    outdir: Path        # emptied before each repetition
    check: Callable     # exit code -> diagnostics dict; raises GateFailed

    def reset(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)


# ---------------------------------------------------------------------------
# Table helpers.
# ---------------------------------------------------------------------------

def read_columns(path) -> dict:
    """CSV file -> {column: list of strings}."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise GateFailed(f"cannot read {Path(path).name}: {exc}") from exc
    if not rows:
        raise GateFailed(f"{Path(path).name} is empty")
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        raise GateFailed(f"{Path(path).name} has ragged rows")
    return {name: [r[i] for r in body] for i, name in enumerate(header)}


def numeric(columns: dict) -> dict:
    try:
        return {k: np.array(v, dtype=float) for k, v in columns.items()}
    except ValueError as exc:
        raise GateFailed(f"non-numeric table cell: {exc}") from exc


def compare_scaled(got: dict, ref: dict, what: str, tol: float) -> None:
    """Every column within tol times the reference column's max |value|."""
    if list(got) != list(ref):
        raise GateFailed(f"{what}: columns {list(got)} != {list(ref)}")
    for name, r in ref.items():
        g, r = np.asarray(got[name], dtype=float), np.asarray(r, dtype=float)
        if g.shape != r.shape:
            raise GateFailed(f"{what} {name}: shape {g.shape} != {r.shape}")
        if r.size == 0:
            continue
        scale = float(np.max(np.abs(r))) or 1.0
        err = float(np.max(np.abs(g - r)))
        if not err <= tol * scale:
            raise GateFailed(f"{what} {name}: off by {err:.3g}, allowed "
                             f"{tol:g} x {scale:.3g}")


def _expect_code(code: int, want: int) -> None:
    if code != want:
        raise GateFailed(f"exit code {code}, expected {want}")


# ---------------------------------------------------------------------------
# pam_delta0: the bundled run against the committed golden run.
# ---------------------------------------------------------------------------

def check_pam_delta0(outdir: Path, code: int) -> dict:
    ref_verdicts = read_columns(GOLDEN_RUN / "verdicts.csv")
    _expect_code(code, 0 if all(p == "true" for p in ref_verdicts["pass"])
                 else 2)
    compare_scaled(numeric(read_columns(outdir / "moments.csv")),
                   numeric(read_columns(GOLDEN_RUN / "moments.csv")),
                   "moments", SCALED_TOL)
    got = read_columns(outdir / "verdicts.csv")
    for key in ("claim_id", "pass"):
        if got.get(key) != ref_verdicts[key]:
            raise GateFailed(f"verdict {key} {got.get(key)} != "
                             f"{ref_verdicts[key]}")
    return {}


def prepare_pam_delta0(seed: int, work: Path) -> Job:
    """Copy of the bundled config writing into work/, never runs/."""
    doc = json.loads(BUNDLED_CONFIG.read_text(encoding="utf-8"))
    outdir = work / "out"
    doc["output_dir"] = str(outdir)
    cfg = work / "pam_delta0.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    return Job(program=["-m", "levyheat", "run", str(cfg)],
               traced=["cli", "run", str(cfg)],
               setup=["pam_delta0", str(cfg)], outdir=outdir,
               check=lambda code: check_pam_delta0(outdir, code))


# ---------------------------------------------------------------------------
# simulate_wide: snapshots plus moments on a wide lattice.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulateSpec:
    """Brownian kernel, unit delta at 0, sigma(u) = lam u."""

    kappa: float = 1.0
    lam: float = 1.0
    dt: float = 0.01
    half_width: float = 8.0
    nx: int = 2048
    t_end: float = 1.0
    n_seeds: int = 48
    snapshot_times: tuple = (0.5, 1.0)
    t_probes: tuple = (0.2, 0.4, 0.6, 0.8, 1.0)
    x_probes: tuple = (0.0, 1.0, 2.0)
    ks: tuple = (1.0, 2.0, 4.0)

    def seeds(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return sorted(int(s) for s in
                      rng.choice(1_000_000, size=self.n_seeds, replace=False))

    def config(self, seed: int, outdir: Path) -> dict:
        return {
            "kernel": {"kind": "brownian", "kappa": self.kappa},
            "u0": {"kind": "delta", "mass": 1.0, "at": 0.0},
            "sigma": {"kind": "linear", "lam": self.lam},
            "grid": {"dt": self.dt, "dx": 2.0 * self.half_width / self.nx,
                     "L": self.half_width},
            "seeds": self.seeds(seed),
            "t_end": self.t_end,
            "outputs": {"dir": str(outdir),
                        "snapshot_times": list(self.snapshot_times),
                        "t_probes": list(self.t_probes),
                        "x_probes": list(self.x_probes),
                        "ks": list(self.ks)},
        }


WIDE = SimulateSpec()
ROUGHNESS_LAG = 8       # cells between the differenced columns
# Lowest path roughness (see roughness()) a correct march gives, per input
# spec.  WIDE, workload seeds 0-99 at the seed commit: 0.0251 to 0.0379
# (median 0.0299).  With lam scaled by 0.7 it was at most 0.0149 (5 seed
# sets), by 0.5 at most 0.0079 (20), and 0 with no noise.
ROUGHNESS_FLOOR = {WIDE: 0.018}


def read_snapshots(path: Path, seeds: list, spec: SimulateSpec):
    """snapshots.csv -> (x nodes, u of shape (seeds, snapshot times, nx))."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise GateFailed(f"cannot read snapshots: {exc}") from exc
    shape = (len(seeds), len(spec.snapshot_times), spec.nx)
    if data.shape != (math.prod(shape), 4):
        raise GateFailed(f"snapshots: {data.shape[0]} rows, expected "
                         f"{math.prod(shape)}")
    seed_col, t_col, x_col, u = (data[:, i].reshape(shape) for i in range(4))
    if not np.array_equal(seed_col[:, 0, 0], np.array(seeds, dtype=float)) \
            or np.any(seed_col != seed_col[:, :1, :1]):
        raise GateFailed("snapshots: seed column out of order")
    if not np.allclose(t_col[0, :, 0], spec.snapshot_times, rtol=1e-12,
                       atol=0.0) or np.any(t_col != t_col[:1, :, :1]):
        raise GateFailed("snapshots: time column out of order")
    if np.any(x_col != x_col[:1, :1, :]) or not np.all(np.isfinite(u)):
        raise GateFailed("snapshots: bad x column or non-finite field")
    return x_col[0, 0], u


def snapshot_summary(u: np.ndarray) -> np.ndarray:
    """Per (seed, time): sum, sum of squares and max of the field row."""
    return np.stack([u.sum(axis=2), (u * u).sum(axis=2), u.max(axis=2)],
                    axis=2)


def summary_columns(summary) -> dict:
    """One column per statistic, so each is scaled by its own max."""
    summary = np.asarray(summary, dtype=float)
    return {"sum": summary[..., 0], "sumsq": summary[..., 1],
            "max": summary[..., 2]}


def check_consumers_agree(moments: dict, x_nodes, u, spec: SimulateSpec):
    """Snapshot rows and power sums come from the same march and seeds."""
    rows = 0
    for ti, tv in enumerate(spec.snapshot_times):
        for r in np.flatnonzero(np.isclose(moments["t"], tv, rtol=1e-12,
                                           atol=0.0)):
            j = int(np.argmin(np.abs(x_nodes - moments["x"][r])))
            want = float(np.mean(np.abs(u[:, ti, j]) ** moments["k"][r]))
            got = float(moments["raw_moment"][r])
            if not abs(got - want) <= CONSUMER_TOL * max(abs(want), 1e-300):
                raise GateFailed(
                    f"moments at t={tv:g} x={moments['x'][r]:g} "
                    f"k={moments['k'][r]:g}: {got!r} != snapshot mean "
                    f"{want!r}")
            rows += 1
    if rows == 0:
        raise GateFailed("no moment row at a snapshot time")


def lattice_oracle_rows(spec: SimulateSpec):
    """Scheme-exact det and E u^2 rows, (steps, nx), from the library."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import levyheat

    steps = int(round(spec.t_end / spec.dt))
    ts = spec.dt * np.arange(1, steps + 1)
    dx = 2.0 * spec.half_width / spec.nx
    xs = -spec.half_width + (np.arange(spec.nx) + 0.5) * dx
    model, u0 = levyheat.brownian(spec.kappa), levyheat.delta()
    m2 = levyheat.pam_second_moment_oracle(model, u0, spec.lam, ts, xs,
                                           mode="lattice").values
    det2 = levyheat.pam_second_moment_oracle(model, u0, 0.0, ts, xs,
                                             mode="lattice").values
    return xs, np.sqrt(det2), m2


def check_against_oracle(moments: dict, spec: SimulateSpec, oracle) -> None:
    """Seed-independent statistics against the lattice oracle.

    u^2 under multiplicative noise is heavy-tailed to the right: 48-seed
    means fall well below E u^2 with an underestimated standard error
    (z near -11 occurs), but they do not overshoot.  So E u^2 is checked
    one-sided per row, and the mean identity E u = det on the row average,
    as the package's own mean_identity claim does.  check_roughness bounds
    the noise from below.
    """
    xs, det, m2 = oracle
    step = np.rint(moments["t"] / spec.dt).astype(int) - 1
    col = np.array([int(np.argmin(np.abs(xs - xv))) for xv in moments["x"]])
    raw, se = moments["raw_moment"], moments["raw_std_error"]
    k1, k2 = moments["k"] == 1.0, moments["k"] == 2.0
    if not k1.any() or not k2.any():
        raise GateFailed("moments lack k=1 or k=2 rows")
    z2 = (raw[k2] - m2[step[k2], col[k2]]) / np.maximum(se[k2], 1e-300)
    if np.max(z2) > Z_MAX:
        raise GateFailed(f"E u^2 above the lattice oracle by "
                         f"{np.max(z2):.1f} standard errors")
    diff = np.mean(raw[k1] - det[step[k1], col[k1]])
    z1 = abs(diff) / max(float(np.mean(se[k1])), 1e-300)
    if z1 > Z_MAX:
        raise GateFailed(f"mean identity off by {z1:.1f} standard errors")


def roughness(u: np.ndarray, spec: SimulateSpec, oracle) -> float:
    """Noise amplitude in the snapshot rows, each path's level divided out.

    With r = u / det on the central columns (det at least 0.1 of its max),
    this is sum (r(x + h) - r(x))^2 / sum r^2 over seeds and columns, for
    h = ROUGHNESS_LAG cells, averaged over the snapshot times.  A noise-free
    march gives 0, and it grows like lam^2.  A path's random overall factor
    cancels and differences h apart are nearly independent, so it scatters
    little between seed sets, unlike 48-seed means of u^2, which are too
    heavy-tailed to bound from below.
    """
    _, det, _ = oracle
    h = ROUGHNESS_LAG
    per_time = []
    for ti, tv in enumerate(spec.snapshot_times):
        d = det[int(round(tv / spec.dt)) - 1]
        central = np.flatnonzero(d >= 0.1 * d.max())
        if central.size <= h:
            raise GateFailed(f"only {central.size} central columns at "
                             f"t={tv:g}")
        r = u[:, ti, central] / d[central]
        per_time.append(np.sum((r[:, h:] - r[:, :-h]) ** 2) / np.sum(r * r))
    return float(np.mean(per_time))


def check_roughness(u: np.ndarray, spec: SimulateSpec, oracle) -> None:
    """The noise moves the paths at least as much as the seed commit's."""
    floor = ROUGHNESS_FLOOR.get(spec)
    if floor is None:
        raise GateFailed("no roughness floor for these inputs")
    value = roughness(u, spec, oracle)
    if not value >= floor:
        raise GateFailed(f"path roughness {value:.4g} below the floor "
                         f"{floor:g}: the noise is too weak")


def check_simulate(outdir: Path, code: int, seed: int, spec: SimulateSpec,
                   oracle, reference: dict | None = None) -> dict:
    """oracle: lattice_oracle_rows(spec); reference: make_reference output."""
    _expect_code(code, 0)
    seeds = spec.seeds(seed)
    moments = numeric(read_columns(outdir / "moments.csv"))
    x_nodes, u = read_snapshots(outdir / "snapshots.csv", seeds, spec)
    check_consumers_agree(moments, x_nodes, u, spec)
    check_against_oracle(moments, spec, oracle)
    check_roughness(u, spec, oracle)
    if reference is not None:
        if reference["seed"] != seed or reference["spec"] != asdict_json(spec):
            raise GateFailed("reference was captured for other inputs")
        compare_scaled(moments, reference["moments"], "moments", SCALED_TOL)
        compare_scaled(summary_columns(snapshot_summary(u)),
                       summary_columns(reference["snapshot_summary"]),
                       "snapshot", SCALED_TOL)
    return {}


def asdict_json(spec: SimulateSpec) -> dict:
    return json.loads(json.dumps(asdict(spec)))


def make_reference(outdir: Path, seed: int, spec: SimulateSpec) -> dict:
    """Reference document from one simulate run's outputs."""
    moments = numeric(read_columns(outdir / "moments.csv"))
    _, u = read_snapshots(outdir / "snapshots.csv", spec.seeds(seed), spec)
    return {"seed": seed, "spec": asdict_json(spec),
            "moments": {k: v.tolist() for k, v in moments.items()},
            "snapshot_summary": snapshot_summary(u).tolist()}


def prepare_simulate_wide(seed: int, work: Path) -> Job:
    outdir = work / "out"
    cfg = work / "simulate_wide.json"
    cfg.write_text(json.dumps(WIDE.config(seed, outdir)), encoding="utf-8")
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    oracle = lattice_oracle_rows(WIDE)
    return Job(program=["-m", "levyheat", "simulate", str(cfg)],
               traced=["cli", "simulate", str(cfg)],
               setup=["simulate_wide", str(cfg)], outdir=outdir,
               check=lambda code: check_simulate(outdir, code, seed, WIDE,
                                                 oracle, reference))


# ---------------------------------------------------------------------------
# oracle_continuum: the continuum oracle against the closed form.
# ---------------------------------------------------------------------------

ORACLE_INPUT = {"kappa": 1.0, "lam": 1.0, "t": [0.1, 0.3],
                "x": np.linspace(-3.0, 3.0, 25).tolist()}


def delta_closed_form(lam: float, t: float, x) -> np.ndarray:
    """E u_t(x)^2 for Brownian kappa=1, unit delta at 0, sigma(u) = lam u."""
    a = 0.5 * lam * lam
    h = 0.5 * ((math.pi * t) ** -0.5
               + a * math.exp(a * a * t) * (1.0 + math.erf(a * math.sqrt(t))))
    x = np.asarray(x, dtype=float)
    return np.exp(-x ** 2 / t) / math.sqrt(math.pi * t) * h


def oracle_rel_err(values) -> float:
    """Max relative error where the closed form exceeds 1e-6 of its max."""
    values = np.asarray(values, dtype=float)
    ts, xs = ORACLE_INPUT["t"], ORACLE_INPUT["x"]
    if values.shape != (len(ts), len(xs)):
        raise GateFailed(f"oracle output shape {values.shape}")
    worst = 0.0
    for row, t in zip(values, ts):
        ref = delta_closed_form(ORACLE_INPUT["lam"], t, xs)
        mask = ref > 1e-6 * ref.max()
        err = np.abs(row[mask] - ref[mask]) / ref[mask]
        worst = max(worst, float(np.max(err)) if np.all(np.isfinite(err))
                    else math.inf)
    return worst


def check_oracle(out_path: Path, code: int) -> dict:
    _expect_code(code, 0)
    try:
        values = json.loads(out_path.read_text(encoding="utf-8"))["values"]
    except (OSError, ValueError, KeyError) as exc:
        raise GateFailed(f"cannot read oracle output: {exc}") from exc
    err = oracle_rel_err(values)
    if not err <= ORACLE_RTOL:
        raise GateFailed(f"oracle off the closed form by {err:.3g} "
                         f"(allowed {ORACLE_RTOL:g})")
    return {"max_rel_err": err}


def prepare_oracle_continuum(seed: int, work: Path) -> Job:
    outdir = work / "out"
    inp = work / "oracle_continuum.json"
    inp.write_text(json.dumps(ORACLE_INPUT), encoding="utf-8")
    out = outdir / "values.json"
    return Job(program=[str(HERE / "oracle_child.py"), str(inp), str(out)],
               traced=["oracle", str(inp), str(out)],
               setup=["oracle_continuum", str(inp)], outdir=outdir,
               check=lambda code: check_oracle(out, code))


WORKLOADS = {                    # name -> (seed, work dir) -> Job
    "pam_delta0": prepare_pam_delta0,
    "simulate_wide": prepare_simulate_wide,
    "oracle_continuum": prepare_oracle_continuum,
}
