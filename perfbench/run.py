"""levyheat benchmark: end-to-end times to a checked result, or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a levyheat checkout.  Every repetition is a fresh
Python process started the way a user starts it, one at a time, with the
checkout's absolute ``src`` on PYTHONPATH and its working directory in a
scratch directory under ``.perfbench_work/`` (removed at exit), so relative
paths in configs never reach the committed ``runs/``.

--trace 0  Runs rounds of one set-up-only child and one workload
           repetition, starting another round while at least half of it
           fits in S seconds, then tops set-ups up to three.  Reports the
           median of each end-to-end metric.
--trace 1  Runs ``python -X importtime`` three times, then untraced and
           traced repetitions in pairs under the same budget, and reports
           the per-layer metrics of the last traced repetition.

Every repetition's outputs go through the workload's gate (workloads.py); a
crash, an unexpected exit code or a failed gate counts as a failed operation.
Human-readable lines come first; the last line of stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from metrics import DECLARED, end_to_end_metrics, median, per_layer_metrics
from workloads import (BUNDLED_CONFIG, GOLDEN_RUN, HERE, ROOT, SRC, WORKLOADS,
                       GateFailed)

RUN_LIMIT_S = 170.0     # hard stop for one benchmark process
MIN_SETUPS = 3
IMPORTTIME_RUNS = 3
ENV_KEYS = ("LEVYHEAT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# BLAS threads on top of the solver's seed-chunk threads oversubscribe two
# cores; one BLAS thread per process is faster and far steadier there.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# End-to-end metrics run_timed measures: the set-up child's wall time, and
# the Child fields of the same names for each repetition.
SAMPLED = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: Path


class Runner:
    """Starts children one at a time and times them from launch to exit."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.deadline = started + RUN_LIMIT_S
        self.env = dict(os.environ, **PINNED)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "")
                          .split(os.pathsep) if p])
        self.count = 0

    def another_round(self, start: float, last_round: float,
                      seconds: float) -> bool:
        """Start another round if at least half of it fits in the budget."""
        now = time.perf_counter()
        return now + 0.5 * last_round <= start + seconds \
            and now < self.deadline

    def spawn(self, argv) -> Child:
        self.count += 1
        err = self.work / f"child{self.count}.stderr"
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(self.work / f"child{self.count}.stdout", "wb") as out, \
                open(err, "wb") as errfh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work,
                                    env=self.env, stdout=out, stderr=errfh)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, err)


def _tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class Tally:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr)

    def setup(self, runner: Runner, job) -> Child | None:
        self.attempted += 1
        child = runner.spawn([str(HERE / "setup_child.py"), *job.setup])
        if child.code != 0:
            self.fail(f"set-up exit {child.code}: {_tail(child.stderr)}")
            return None
        return child

    def repetition(self, runner: Runner, job, argv) -> tuple:
        """One checked repetition: (child or None, gate diagnostics)."""
        self.attempted += 1
        job.reset()
        child = runner.spawn(argv)
        try:
            return child, job.check(child.code)
        except (GateFailed, LookupError, ValueError) as exc:  # malformed output
            self.fail(f"{exc} | {_tail(child.stderr)}")
            return None, {}


def run_timed(job, runner: Runner, tally: Tally, seconds: float) -> dict:
    samples = {name: [] for name in SAMPLED}

    def setup():
        s = tally.setup(runner, job)
        if s is not None:
            samples["setup_s"].append(s.wall_s)

    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        setup()
        child, _ = tally.repetition(runner, job, job.program)
        if child is not None:
            samples["wall_s"].append(child.wall_s)
            samples["cpu_s"].append(child.cpu_s)
            samples["peak_rss_mb"].append(child.peak_rss_mb)
        rounds += 1
        if not runner.another_round(start, time.perf_counter() - t0, seconds):
            break
    for _ in range(rounds, MIN_SETUPS):
        setup()
    metrics = end_to_end_metrics(samples)
    for name, m in metrics.items():
        print(f"  {name:<12} {_describe(samples[name], m['unit'])}")
    return metrics


def _describe(vals, unit="s") -> str:
    text = f"{median(vals):10.4f} {unit:<3} median of {len(vals)}"
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        text += f" (q1 {q1:.4g}, q3 {q3:.4g})"
    return text


def import_times(runner: Runner) -> dict:
    """Median cumulative import time (s) of levyheat and scipy.signal."""
    found = {"levyheat": [], "scipy.signal": []}
    for _ in range(IMPORTTIME_RUNS):
        child = runner.spawn(["-X", "importtime", "-c", "import levyheat"])
        if child.code != 0:
            raise RuntimeError(f"import levyheat failed: {_tail(child.stderr)}")
        seen = {}
        for line in child.stderr.read_text().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return {name: median(v) for name, v in found.items()}


def run_traced(job, runner: Runner, tally: Tally, seconds: float) -> dict:
    """Untraced and traced repetitions in pairs while the budget allows."""
    start = time.perf_counter()
    imports = import_times(runner)
    spans_path = runner.work / "spans.json"
    plain, traced, diag, trace, write_bytes = [], [], {}, {}, 0
    while True:
        t0 = time.perf_counter()
        child, _ = tally.repetition(runner, job, job.program)
        if child is not None:
            plain.append(child.wall_s)
        spans_path.unlink(missing_ok=True)
        child, diag = tally.repetition(
            runner, job,
            [str(HERE / "spans.py"), str(spans_path), *job.traced])
        if child is not None:
            traced.append(child.wall_s)
            trace = json.loads(spans_path.read_text())
            if any(s["name"].startswith("cli.write")
                   for s in trace["spans"]):
                write_bytes = sum(p.stat().st_size
                                  for p in job.outdir.rglob("*")
                                  if p.is_file())
        if not runner.another_round(start, time.perf_counter() - t0, seconds):
            break
    overhead = median(traced) - median(plain) if plain and traced else 0.0
    print(f"  untraced wall_s {_describe(plain)}")
    print(f"  traced wall_s   {_describe(traced)}")
    metrics = per_layer_metrics(trace, imports=imports, overhead_s=overhead,
                                write_bytes=write_bytes,
                                max_rel_err=diag.get("max_rel_err", 0.0))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    return metrics


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None     # a source tree without git history
    return out.stdout.strip()


def environment(child_env: dict) -> dict:
    """Machine, library versions, children's thread settings, commit."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            **{k: child_env.get(k) for k in ENV_KEYS},
            "commit": _commit(), "src_sha256": _source_digest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    missing = [p for p in (SRC / "levyheat", BUNDLED_CONFIG, GOLDEN_RUN)
               if not p.exists()]
    if missing:
        print(f"perfbench: not a levyheat checkout, missing "
              f"{', '.join(str(p.relative_to(ROOT)) for p in missing)}",
              file=sys.stderr)
        return 2

    why = {w["name"]: w["why"] for w in DECLARED["workloads"]}[args.workload]
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    tally = Tally()
    try:
        job = WORKLOADS[args.workload](args.seed, work)
        runner = Runner(work, started)
        print(f"{args.workload} seed={args.seed} trace={args.trace}: {why}")
        if args.trace:
            metrics = run_traced(job, runner, tally, args.seconds)
        else:
            metrics = run_timed(job, runner, tally, args.seconds)
        env = environment(runner.env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(f"  failed_frac  {tally.failed / max(tally.attempted, 1):.4f} "
          f"({tally.failed} of {tally.attempted} operations)")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
