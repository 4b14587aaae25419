"""How each metric BENCHMARK.json declares is computed from measured samples.

BENCHMARK.json is the one list of workload and metric names, units and
directions.  End-to-end metrics come from untraced repetitions; per-layer
metrics from the traced run (see spans.py).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from spans import WRITERS, summarize, union_length

DECLARED = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text(encoding="utf-8"))
# A per-layer name "<layer>.<function>.<field>" with one of these fields reads
# the span summary; per_layer_metrics computes every other name itself.
SPAN_FIELDS = ("self_s", "total_s", "calls")


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def end_to_end_metrics(samples: dict) -> dict:
    """samples: metric name -> list of per-repetition values.

    A metric with no passing repetition reads 0 (JSON has no NaN); the
    result then has failed > 0 and correct false.
    """
    return {m["name"]: {"value": median(samples[m["name"]] or [0.0]),
                        "unit": m["unit"]}
            for m in DECLARED["end_to_end"]}


def per_layer_metrics(trace: dict, *, imports: dict, overhead_s: float,
                      write_bytes: int, max_rel_err: float) -> dict:
    """Every declared per-layer metric; a layer never called reads 0."""
    summary = summarize(trace)
    chunks = trace.get("chunks", [])
    busy = [c["end"] - c["start"] for c in chunks]
    special = {
        "import.levyheat_s": imports.get("levyheat", 0.0),
        "import.scipy_signal_s": imports.get("scipy.signal", 0.0),
        "cli.write.total_s": union_length(
            (s["start"], s["end"]) for s in trace.get("spans", [])
            if s["name"] in WRITERS),
        "cli.write.bytes": write_bytes,
        "solver.chunk.max_s": max(busy, default=0.0),
        "solver.chunk.min_s": min(busy, default=0.0),
        "solver.chunk.wait_s": sum(c["start"] - c["queued"] for c in chunks),
        "solver.chunks": len(chunks),
        "solver.oracle.max_rel_err": max_rel_err,
        "trace.overhead_s": overhead_s,
        "noise_field.cells": 0,
        "solver.march.gflop": 0.0,
    }
    special.update(trace.get("counters", {}))
    out = {}
    for m in DECLARED["per_layer"]:
        name = m["name"]
        span, field = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        elif field in SPAN_FIELDS:
            value = summary.get(span, {}).get(field, 0)
        else:
            raise KeyError(f"no way to compute per-layer metric {name!r}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out
