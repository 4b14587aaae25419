"""The oracle_continuum program: one continuum second-moment oracle call.

    python perfbench/oracle_child.py INPUT.json OUTPUT.json

INPUT holds kappa, lam, t and x; OUTPUT receives the oracle values on the
(t, x) grid for a Brownian kernel started from a unit delta at 0.
"""

import json
import sys


def main(argv) -> int:
    in_path, out_path = argv
    with open(in_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    import levyheat

    grid = levyheat.pam_second_moment_oracle(
        levyheat.brownian(doc["kappa"]), levyheat.delta(), doc["lam"],
        doc["t"], doc["x"], mode="continuum")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"values": grid.values.tolist()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
