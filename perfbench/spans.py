"""Traced run: spans around calls into each levyheat layer, self-time arithmetic.

Run as a child process, this module imports ``levyheat``, replaces every
traced function by a timing wrapper in each levyheat module namespace that
binds it (calls are looked up there, so intra- and cross-module calls are
both caught), runs one workload program and writes the spans as JSON::

    python perfbench/spans.py SPANS.json cli run CONFIG.json
    python perfbench/spans.py SPANS.json oracle INPUT.json OUTPUT.json

Nothing under ``src/`` changes.  Traced functions are the public functions
defined in the layer modules, the few private ones in ``EXTRA_PRIVATE``, and
``fftconvolve`` as the layers use it.  Private helpers are attributed to the
self time of their public caller.

The seed-chunk map of the solver is not a span: its wrapper times every chunk
(busy time, and wait from the map call to the chunk's start) and hands the
calling span to the worker thread, so spans opened on a worker are children of
the public function that fanned out.  A span's self time is its duration minus
the union of its children's intervals; children on two threads overlap, so
their durations are never summed.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path

LAYERS = ("cli", "noise_field", "measure_init", "levy_kernel", "solver",
          "analysis", "conv_calculus")
EXTRA_PRIVATE = {"analysis": ("_ensemble_rows",),
                 "cli": ("_write_csv", "_write_manifest")}
CHUNK_MAP = ("solver", "_thread_map")
WRITERS = ("cli.write_moments_csv", "cli.write_verdicts_csv",
           "cli.write_csv", "cli.write_manifest")


# ---------------------------------------------------------------------------
# Interval arithmetic (pure; used by the parent to aggregate).
# ---------------------------------------------------------------------------

def union_length(intervals, lo=float("-inf"), hi=float("inf")) -> float:
    """Length of the union of [a, b) intervals, clipped to [lo, hi)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - union_length(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


def summarize(trace: dict) -> dict:
    """Per-name calls, busy self time (summed) and wall coverage (union).

    Self time is summed over calls, so two threads sampling noise at once
    count twice (busy time); total_s is the union of the name's intervals,
    the wall time during which at least one call was running.
    """
    spans = trace.get("spans", [])
    own = self_times(spans)
    out = {}
    for s in spans:
        e = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "iv": []})
        e["calls"] += 1
        e["self_s"] += own[s["id"]]
        e["iv"].append((s["start"], s["end"]))
    for e in out.values():
        e["total_s"] = union_length(e.pop("iv"))
    return out


# ---------------------------------------------------------------------------
# Recording (child side).
# ---------------------------------------------------------------------------

class Recorder:
    """Spans, chunk timings and counters of one traced process."""

    def __init__(self):
        self.spans = []
        self.chunks = []
        self.counters = {"noise_field.cells": 0, "solver.march.gflop": 0.0}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec.spans.append({"id": sid, "parent": parent, "name": name,
                                  "start": t0, "end": t1})
            if name == "noise_field.sample_noise":
                rec._count_noise(result)
            return result
        return traced

    def _count_noise(self, lattice):
        # one seed's march: two dense (nx x nx) products per step after the first
        nt, nx = lattice.increments.shape
        self.counters["noise_field.cells"] += nt * nx
        self.counters["solver.march.gflop"] += 4.0 * nx * nx * (nt - 1) / 1e9

    def wrap_chunk_map(self, thread_map):
        rec = self

        @functools.wraps(thread_map)
        def traced_map(fn, chunks, *args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else None
            t_map = time.perf_counter()

            def chunk(c):
                worker = rec._stack()
                saved = list(worker)
                worker[:] = [parent] if parent is not None else []
                t0 = time.perf_counter()
                try:
                    return fn(c)
                finally:
                    rec.chunks.append({"queued": t_map, "start": t0,
                                       "end": time.perf_counter()})
                    worker[:] = saved
            return thread_map(chunk, chunks, *args, **kwargs)
        return traced_map

    def to_json(self) -> dict:
        return {"spans": self.spans, "chunks": self.chunks,
                "counters": self.counters}


def install(recorder: Recorder) -> None:
    """Wrap the traced functions in every levyheat namespace that binds them."""
    import levyheat  # noqa: F401  (loads every layer module)

    mods = {name: sys.modules[f"levyheat.{name}"] for name in LAYERS}
    replace = {}
    for layer, mod in mods.items():
        extra = EXTRA_PRIVATE.get(layer, ())
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or name in extra)):
                replace[id(obj)] = recorder.wrap(
                    f"{layer}.{name.lstrip('_')}", obj)
        conv = getattr(mod, "fftconvolve", None)
        if conv is not None and id(conv) not in replace:
            replace[id(conv)] = recorder.wrap("fftconvolve", conv)
    chunk_map = getattr(mods[CHUNK_MAP[0]], CHUNK_MAP[1], None)
    if chunk_map is not None:
        replace[id(chunk_map)] = recorder.wrap_chunk_map(chunk_map)

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "levyheat"
                               or mod_name.startswith("levyheat.")):
            continue
        for name, obj in list(vars(mod).items()):
            wrapper = replace.get(id(obj))
            if wrapper is not None:
                setattr(mod, name, wrapper)


def main(argv) -> int:
    out_path, kind, rest = Path(argv[0]), argv[1], argv[2:]
    recorder = Recorder()
    install(recorder)
    try:
        if kind == "cli":
            from levyheat import cli
            code = cli.main(rest)
        elif kind == "oracle":
            import oracle_child
            code = oracle_child.main(rest)
        else:
            raise SystemExit(f"unknown traced program {kind!r}")
    finally:
        out_path.write_text(json.dumps(recorder.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
