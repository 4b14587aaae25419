"""Everything a workload does before its first numerical call, then exit.

    python perfbench/setup_child.py WORKLOAD INPUT

Cold ``import levyheat``, then the inputs: pam_delta0 loads and
schema-validates its config through the CLI loader, simulate_wide parses its
JSON (the CLI has no public loader for simulate configs), and each builds its
kernel model, initial measure and sigma.  The parent times the whole process,
so set-up includes interpreter start.
"""

import json
import sys


def main(argv) -> int:
    workload, path = argv
    import levyheat
    from levyheat import cli

    if workload == "pam_delta0":
        cfg = cli.load_experiment_config(path)
        cli.build_kernel(cfg.kernel)
        cli.build_measure(cfg.measure)
        cli.build_sigma(cfg.sigma)
    elif workload == "simulate_wide":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        cli.build_kernel(doc["kernel"])
        cli.build_measure(doc["u0"])
        cli.build_sigma(doc["sigma"])
    elif workload == "oracle_continuum":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        levyheat.brownian(doc["kappa"])
        levyheat.delta()
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
