"""Command line front end: validated JSON configs in, CSV tables out.

Subcommands
-----------
run <config>        march the ensemble, check the claims, write
                    manifest.json / moments.csv / verdicts.csv into the
                    config's output_dir.
verify <config>     same computation, verdict CSV on stdout, no files.
simulate <config>   dump per-seed field snapshots and a moment table.
kernel <json>       print the scalar kernel functionals as JSON.
report <run-dir>    re-emit a run's moment table as plot-ready long CSV.

Exit codes: 0 all claims pass (or nothing to check), 2 at least one claim
fails, 64 invalid config, 74 I/O failure, 1 any other runtime error.

Every output is deterministic for a fixed (config, package version, BLAS
thread count): seeds are explicit in the config, ensemble reductions are
in fixed chunk order, floats are written with shortest round-trip repr,
and the manifest carries no timestamps.  All file writes happen
sequentially in the main process; only the replica marches inside the
solver fan out, over LEVYHEAT_THREADS forked workers while the main
process waits (with one, the main process marches them itself), and the
workers return their sums through shared memory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .analysis import BoundVerdict, check_exist_unique_bound
from .errors import (ConfigInvalid, DivergentResolvent, LevyHeatError,
                     QuadratureUnderresolved)
from .levy_kernel import (KernelModel, _unique, brownian, frak_T, g_eval,
                          gamma_k, stable, tabulated, theta_estimate,
                          upsilon_eval)
from .measure_init import (FiniteMeasure, delta,
                           make_positive_definite_example, measure_from_json)
from .solver import (SigmaSpec, mc_moments, sigma_custom, sigma_linear,
                     sigma_saturating, step_numbers)

__all__ = [
    "ExperimentConfig", "load_experiment_config", "run", "kernel_info",
    "main",
    "EXIT_OK", "EXIT_RUNTIME", "EXIT_CLAIM", "EXIT_CONFIG", "EXIT_IO",
]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CLAIM = 2
EXIT_CONFIG = 64
EXIT_IO = 74

# eps pinned for the exist_unique_* claims; the library op takes any eps > 0.
CLAIM_EPS = 0.1

MOMENT_COLUMNS = ("t", "x", "k", "estimate", "std_error",
                  "bound_exist_unique", "bound_h1",
                  "raw_moment", "raw_std_error")
VERDICT_COLUMNS = ("claim_id", "lhs", "rhs", "std_error", "pass")
REPORT_COLUMNS = ("t", "x", "k", "estimate", "bound")
SNAPSHOT_COLUMNS = ("seed", "t", "x", "u")

# ---------------------------------------------------------------------------
# Config loading and validation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment: claims to check on one model/data/grid."""

    kernel: dict
    measure: dict
    sigma: dict
    grid: dict
    seeds: tuple
    claims: tuple
    output_dir: str
    doc: dict = dataclasses.field(repr=False)


def _one_line(exc) -> str:
    return " ".join(str(exc).split())


def _check_finite(node, path: str = "$") -> None:
    """Reject numbers past the float range, which JSON parses to inf (or
    NaN) and the schema's "type": "number" lets through.  An infinite
    support_radius is how a measure declares unbounded support."""
    if isinstance(node, dict):
        for key, val in node.items():
            if key != "support_radius":
                _check_finite(val, f"{path}.{key}")
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _check_finite(val, f"{path}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigInvalid(f"{path}: {node!r} is not a finite number")


def _validate_doc(doc, schema_name: str) -> None:
    from .schema import first_error  # only the validating commands load it

    err = first_error(doc, schema_name)
    if err:
        raise ConfigInvalid(err)
    _check_finite(doc)


def _load_json_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path}: not valid JSON ({exc})") from exc


def load_experiment_config(path) -> ExperimentConfig:
    """Read, schema-validate, and freeze a run/verify config.

    Raises ConfigInvalid before any compute when the document does not
    conform, including unknown claim ids.
    """
    doc = _load_json_file(path)
    _validate_doc(doc, "experiment_config.schema.json")
    unknown = [c for c in doc["claims"] if c not in CLAIM_REGISTRY]
    if unknown:
        raise ConfigInvalid(
            f"unknown claim ids {unknown}; known: {sorted(CLAIM_REGISTRY)}")
    return ExperimentConfig(
        kernel=doc["kernel"], measure=doc["measure"], sigma=doc["sigma"],
        grid=doc["grid"], seeds=tuple(int(s) for s in doc["seeds"]),
        claims=tuple(doc["claims"]), output_dir=doc["output_dir"], doc=doc)


def build_kernel(doc: dict) -> KernelModel:
    try:
        kind = doc["kind"]
        if kind == "brownian":
            return brownian(kappa=float(doc.get("kappa", 1.0)))
        if kind == "stable":
            return stable(float(doc["alpha"]),
                          kappa=float(doc.get("kappa", 1.0)))
        if kind == "tabulated":
            return tabulated(np.asarray(doc["xi"], dtype=float),
                             np.asarray(doc["psi"], dtype=float))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigInvalid(f"bad kernel spec: {_one_line(exc)}") from exc
    raise ConfigInvalid(f"unknown kernel kind {doc.get('kind')!r}")


def build_measure(doc: dict) -> FiniteMeasure:
    try:
        kind = doc["kind"]
        if kind == "delta":
            return delta(mass=float(doc.get("mass", 1.0)),
                         at=float(doc.get("at", 0.0)))
        if kind == "positive_definite_example":
            return make_positive_definite_example(float(doc["a"]))
        if kind == "custom":
            sub = {k: v for k, v in doc.items() if k != "kind"}
            return measure_from_json(sub)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigInvalid(f"bad measure spec: {_one_line(exc)}") from exc
    raise ConfigInvalid(f"unknown measure kind {doc.get('kind')!r}")


def build_sigma(doc: dict) -> SigmaSpec:
    try:
        kind = doc["kind"]
        if kind == "linear":
            return sigma_linear(float(doc["lam"]))
        if kind == "saturating_linear":
            return sigma_saturating(float(doc["lam"]), float(doc["cap"]))
        if kind == "custom":
            return sigma_custom(doc["table_x"], doc["table_y"],
                                lower_lip=doc.get("lower_lip"))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigInvalid(f"bad sigma spec: {_one_line(exc)}") from exc
    raise ConfigInvalid(f"unknown sigma kind {doc.get('kind')!r}")


def _grid_cells(grid: dict) -> int:
    nx = int(round(2.0 * grid["L"] / grid["dx"]))
    if nx < 2 or abs(nx * grid["dx"] - 2.0 * grid["L"]) > 1e-9 * grid["L"]:
        raise ConfigInvalid("grid: 2 L / dx must be a whole number of cells")
    return nx


def _lattice_steps(values, dt: float, name: str) -> list:
    """Step numbers of times that must be positive multiples of dt."""
    try:
        return step_numbers(values, dt, name)
    except ValueError as exc:
        raise ConfigInvalid(_one_line(exc)) from exc


def _derived_t_probes(grid: dict) -> list:
    """Up to eight probe times, multiples of dt, last one exactly t_end."""
    steps = _lattice_steps(grid["t_end"], grid["dt"], "grid: t_end")[0]
    n = min(8, steps)
    idx = sorted({max(1, round(steps * j / n)) for j in range(1, n + 1)})
    return [i * grid["dt"] for i in idx]


def _derived_x_probes(grid: dict) -> list:
    return [0.0, grid["L"] / 8.0, grid["L"] / 4.0]


# ---------------------------------------------------------------------------
# Claim registry.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Claim:
    ks: tuple
    check: Callable


def _mean_identity_check(model, u0, sigma, table, cfg) -> BoundVerdict:
    """One aggregate comparison: |row mean of (estimate - det)| vs 0.

    The target det is the solver's own noise-free lattice march (the
    band-limited evolution it adds back at every step), not the pointwise
    continuum convolution: the noise term is a martingale, so the
    ensemble mean must equal det exactly, and a noiseless run matches to
    machine precision.  A per-row max would face a multiple-comparisons
    problem (the largest of ~24 z-scores sits near 3 even when the
    identity holds), so the claim tests the average discrepancy instead.
    Rows share seeds and are correlated, so the standard error of the
    row mean is bounded by the mean of the row standard errors, which is
    what goes in the verdict.
    """
    sel = table.k == 1.0
    if not np.any(sel):
        raise ValueError("mean_identity needs k=1 rows")
    t, x = table.t[sel], table.x[sel]
    est, se = table.estimate[sel], table.std_error[sel]
    lat = table.lattice  # the very rows the march added
    ptu = np.empty_like(est)
    for tv in _unique(t):
        m = t == tv
        cols = [int(np.argmin(np.abs(lat.x_nodes - xv))) for xv in x[m]]
        ptu[m] = lat.det[0, int(round(tv / lat.dt)) - 1, cols]
    diff = est - ptu
    w = int(np.argmax(np.abs(diff) - 3.0 * se))
    meta = {"n_rows": int(sel.sum()), "max_abs_diff": float(np.abs(diff).max()),
            "worst_t": float(t[w]), "worst_x": float(x[w]),
            "worst_z": float(abs(diff[w]) / se[w]) if se[w] > 0 else 0.0}
    return BoundVerdict.from_comparison("mean_identity",
                                        lhs=float(abs(diff.mean())),
                                        rhs=0.0,
                                        std_error=float(se.mean()),
                                        metadata=meta)


def _exist_unique_check(k: float):
    def check(model, u0, sigma, table, cfg) -> BoundVerdict:
        v = check_exist_unique_bound(table, model, u0, k=k, eps=CLAIM_EPS,
                                     lip=sigma.lip)
        return dataclasses.replace(v, claim_id=f"exist_unique_k{k:g}")
    return check


CLAIM_REGISTRY = {
    "mean_identity": _Claim(ks=(1.0,), check=_mean_identity_check),
    "exist_unique_k2": _Claim(ks=(2.0,), check=_exist_unique_check(2.0)),
    "exist_unique_k4": _Claim(ks=(4.0,), check=_exist_unique_check(4.0)),
}


def _run_claims(cfg: ExperimentConfig):
    """Build the model, march one shared ensemble, check every claim."""
    model = build_kernel(cfg.kernel)
    u0 = build_measure(cfg.measure)
    sigma = build_sigma(cfg.sigma)
    if not cfg.claims:
        return [], None
    ks = sorted({kv for c in cfg.claims for kv in CLAIM_REGISTRY[c].ks})
    table = mc_moments(
        model, u0, sigma,
        dt=cfg.grid["dt"], nx=_grid_cells(cfg.grid),
        half_width=cfg.grid["L"], t_end=cfg.grid["t_end"],
        seeds=cfg.seeds,
        t_probes=_derived_t_probes(cfg.grid),
        x_probes=_derived_x_probes(cfg.grid), ks=ks)
    verdicts = [CLAIM_REGISTRY[c].check(model, u0, sigma, table, cfg)
                for c in cfg.claims]
    return verdicts, table


# ---------------------------------------------------------------------------
# Deterministic writers.
# ---------------------------------------------------------------------------

def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(fh, header, rows, blocks=()) -> None:
    """header, then rows with every cell through _fmt_cell, then blocks:
    strings of whole CSV lines that are already formatted that way."""
    w = csv.writer(fh, lineterminator="\r\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt_cell(c) for c in row])
    for block in blocks:
        fh.write(block)


def _snapshot_blocks(seeds, times, x_nodes, fields):
    """The (seed, t, x, u) lines of fields[seed, time, x] as _write_csv
    would format them as rows, one string per (seed, time) block: each x
    node and each (seed, t) prefix is formatted once."""
    xs = [repr(x) for x in x_nodes.tolist()]
    for seed, block in zip(seeds, fields):
        for t, row in zip(times, block):
            prefix = f"{seed},{float(t)!r},"
            yield "".join([f"{prefix}{x},{u!r}\r\n"
                           for x, u in zip(xs, row.tolist())])


def write_moments_csv(fh, table) -> None:
    cols = [getattr(table, name) for name in MOMENT_COLUMNS]
    _write_csv(fh, MOMENT_COLUMNS, zip(*cols))


def write_verdicts_csv(fh, verdicts) -> None:
    rows = [(v.claim_id, v.lhs, v.rhs, v.std_error, v.passed)
            for v in verdicts]
    _write_csv(fh, VERDICT_COLUMNS, rows)


def _canonical_bytes(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode()


def _manifest_doc(doc: dict, seeds, files: dict) -> dict:
    """Config hash, tool and library versions, seeds and output files."""
    import hashlib  # only the writers need it

    return {
        "config_sha256": hashlib.sha256(_canonical_bytes(doc)).hexdigest(),
        "tool": {"name": "levyheat", "version": __version__},
        "libraries": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seeds": list(seeds),
        "replicas": len(seeds),
        "files": files,
    }


def _write_manifest(path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommand bodies.
# ---------------------------------------------------------------------------

def run(config_path) -> int:
    """Full pipeline for one config; returns the process exit code."""
    cfg = load_experiment_config(config_path)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    verdicts, table = _run_claims(cfg)
    files = {"manifest": "manifest.json"}
    if table is not None:
        files["moments"] = "moments.csv"
        files["verdicts"] = "verdicts.csv"
    _write_manifest(outdir / "manifest.json",
                    dict(_manifest_doc(cfg.doc, cfg.seeds, files),
                         claims=list(cfg.claims)))
    if table is not None:
        with open(outdir / "moments.csv", "w", encoding="utf-8",
                  newline="") as fh:
            write_moments_csv(fh, table)
        with open(outdir / "verdicts.csv", "w", encoding="utf-8",
                  newline="") as fh:
            write_verdicts_csv(fh, verdicts)
    for v in verdicts:
        print(f"{v.claim_id}: {'pass' if v.passed else 'FAIL'}")
    return EXIT_CLAIM if any(not v.passed for v in verdicts) else EXIT_OK


def verify(config_path) -> int:
    """Check the claims and stream the verdict CSV to stdout; no files."""
    cfg = load_experiment_config(config_path)
    verdicts, _ = _run_claims(cfg)
    write_verdicts_csv(sys.stdout, verdicts)
    return EXIT_CLAIM if any(not v.passed for v in verdicts) else EXIT_OK


def kernel_info(kernel_doc: dict, beta_list=(1.0,), k_list=(2.0,),
                a_list=(1.0,), lip: float = 1.0) -> dict:
    """Scalar functionals of one kernel, shaped for JSON output.

    A divergent resolvent (alpha <= 1, or a slow tabulated tail) or a table
    too short for the xi rule is reported as an "error" field, not raised.
    """
    try:
        model = build_kernel(kernel_doc)
        lip = float(lip)
        theta = theta_estimate(model)
        return {
            "theta": theta,
            "upsilon": [upsilon_eval(model, float(b)) for b in beta_list],
            "gamma": [gamma_k(model, float(k), lip) for k in k_list],
            "g": [g_eval(model, float(a)) for a in a_list],
            "frak_T": [frak_T(model, float(k), lip, theta=theta)
                       for k in k_list],
        }
    except DivergentResolvent as exc:
        return {"error": "divergent resolvent", "detail": _one_line(exc)}
    except QuadratureUnderresolved as exc:
        return {"error": "quadrature underresolved", "detail": _one_line(exc)}


def _kernel_cmd(json_text: str) -> int:
    try:
        doc = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"inline JSON: {_one_line(exc)}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("kernel"), dict):
        raise ConfigInvalid('kernel command needs {"kernel": {...}, ...}')
    for key in ("beta", "k", "a"):
        val = doc.get(key)
        if val is not None and (not isinstance(val, list) or not val):
            raise ConfigInvalid(f"{key} must be a non-empty list of numbers")
    _check_finite(doc)
    try:  # every input here is the user's, so a bad value is the config's
        out = kernel_info(doc["kernel"],
                          beta_list=doc.get("beta", [1.0]),
                          k_list=doc.get("k", [2.0]),
                          a_list=doc.get("a", [1.0]),
                          lip=doc.get("lip", 1.0))
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"kernel command: {_one_line(exc)}") from exc
    if "g" in out:  # g_eval's inf (the clock saturates below a) is null
        out["g"] = [g if math.isfinite(g) else None for g in out["g"]]
    print(json.dumps(out, allow_nan=False))
    return EXIT_OK


def simulate(config_path) -> int:
    """March an ensemble, dump snapshots.csv / moments.csv / manifest.json."""
    doc = _load_json_file(config_path)
    _validate_doc(doc, "simulate_config.schema.json")
    model = build_kernel(doc["kernel"])
    u0 = build_measure(doc["u0"])
    sigma = build_sigma(doc["sigma"])
    grid = dict(doc["grid"], t_end=doc["t_end"])
    nx = _grid_cells(grid)
    seeds = [int(s) for s in doc["seeds"]]
    out = doc["outputs"]
    snap_times = sorted(set(out["snapshot_times"]))
    t_probes = out.get("t_probes", snap_times)
    x_probes = out.get("x_probes", [0.0])
    ks = out.get("ks", [1.0, 2.0])
    steps = _lattice_steps(grid["t_end"], grid["dt"], "t_end")[0]
    _lattice_steps(snap_times, grid["dt"], "snapshot time")
    if max(_lattice_steps(t_probes, grid["dt"], "t probe")) > steps:
        raise ConfigInvalid("outputs: t_probes must not exceed t_end")

    # one march serves both outputs, to max(t_end, last snapshot time)
    table = mc_moments(
        model, u0, sigma, dt=grid["dt"], nx=nx, half_width=grid["L"],
        t_end=grid["t_end"], seeds=seeds, t_probes=t_probes,
        x_probes=x_probes, ks=ks, snapshot_times=snap_times)

    outdir = Path(out["dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "snapshots.csv", "w", encoding="utf-8",
              newline="") as fh:
        _write_csv(fh, SNAPSHOT_COLUMNS, (), _snapshot_blocks(
            seeds, snap_times, table.lattice.x_nodes, table.snapshots))
    with open(outdir / "moments.csv", "w", encoding="utf-8", newline="") as fh:
        write_moments_csv(fh, table)
    _write_manifest(outdir / "manifest.json", _manifest_doc(
        doc, seeds, {"snapshots": "snapshots.csv", "moments": "moments.csv",
                     "manifest": "manifest.json"}))
    return EXIT_OK


def report(run_dir) -> int:
    """Long-format (t, x, k, estimate, bound) CSV from a finished run."""
    path = Path(run_dir) / "moments.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ("t", "x", "k", "estimate", "bound_exist_unique")
                   if c not in (reader.fieldnames or [])]
        if missing:
            raise ConfigInvalid(f"{path}: missing columns {missing}")
        rows = [(r["t"], r["x"], r["k"], r["estimate"],
                 r["bound_exist_unique"]) for r in reader]
    _write_csv(sys.stdout, REPORT_COLUMNS, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the invalid-config code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="levyheat",
        description="Moment bounds and ensemble statistics for stochastic "
                    "heat equations with symmetric Levy generators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run claims and write a result directory")
    p.add_argument("config", help="experiment config JSON path")
    p.set_defaults(func=lambda a: run(a.config))

    p = sub.add_parser("verify", help="run claims, verdict CSV on stdout")
    p.add_argument("config", help="experiment config JSON path")
    p.set_defaults(func=lambda a: verify(a.config))

    p = sub.add_parser("simulate", help="dump field snapshots and moments")
    p.add_argument("config", help="simulation config JSON path")
    p.set_defaults(func=lambda a: simulate(a.config))

    p = sub.add_parser("kernel", help="print kernel functionals as JSON")
    p.add_argument("json", help='inline JSON, e.g. {"kernel": {"kind": '
                                '"brownian"}, "beta": [1], "k": [2]}')
    p.set_defaults(func=lambda a: _kernel_cmd(a.json))

    p = sub.add_parser("report", help="long-format CSV from a run directory")
    p.add_argument("run_dir", help="directory written by `levyheat run`")
    p.set_defaults(func=lambda a: report(a.run_dir))

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"levyheat: invalid config: {_one_line(exc)}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"levyheat: io error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_IO
    except LevyHeatError as exc:
        print(f"levyheat: runtime error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # CLI boundary: anything else is exit 1
        print(f"levyheat: error: {type(exc).__name__}: {_one_line(exc)}",
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
