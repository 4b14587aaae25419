"""Capture the simulate_wide reference for the default seed.

    python3 perfbench/make_reference.py

Runs ``levyheat simulate`` once on the default-seed inputs and writes the
moment table and per-snapshot summaries to reference/simulate_wide_seed0.json.
Run it only on a commit whose outputs are known good: the benchmark's
default-seed gate compares every later commit against this file.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import DEFAULT_SEED, REFERENCE, ROOT, SRC, WIDE, make_reference


def main() -> int:
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=base))
    try:
        outdir = work / "out"
        cfg = work / "simulate_wide.json"
        cfg.write_text(json.dumps(WIDE.config(DEFAULT_SEED, outdir)))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-m", "levyheat", "simulate",
                        str(cfg)], cwd=work, env=env, check=True)
        doc = make_reference(outdir, DEFAULT_SEED, WIDE)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
