"""Tests of the benchmark itself: span arithmetic, gates, emitted names."""

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from metrics import DECLARED, end_to_end_metrics, per_layer_metrics
from run import SAMPLED
from spans import Recorder, self_times, summarize, union_length
from workloads import (GOLDEN_RUN, ORACLE_INPUT, ROUGHNESS_FLOOR, SRC, WIDE,
                       WORKLOADS, GateFailed, check_against_oracle,
                       check_oracle, check_pam_delta0, check_roughness,
                       check_simulate, delta_closed_form, lattice_oracle_rows,
                       make_reference, numeric, read_columns, read_snapshots,
                       roughness)


# ---------------------------------------------------------------------------
# Self-time arithmetic.
# ---------------------------------------------------------------------------

def _span(sid, parent, start, end, name="f"):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end}


def test_union_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 9)]) == 6
    assert union_length([(1, 4), (3, 6)], lo=2, hi=5) == 3
    assert union_length([]) == 0


def test_self_time_subtracts_union_of_overlapping_thread_children():
    # parent 0..10; two worker-thread children overlap on 3..4; a third
    # child runs 8..9; a grandchild must not be subtracted from the parent
    spans = [_span(1, None, 0, 10), _span(2, 1, 1, 4), _span(3, 1, 3, 6),
             _span(4, 1, 8, 9), _span(5, 2, 1.5, 2.5)]
    own = self_times(spans)
    assert own[1] == pytest.approx(4.0)    # 10 - |[1,6) u [8,9)|, not 10 - 7
    assert own[2] == pytest.approx(2.0)
    assert own[5] == pytest.approx(1.0)


def test_summarize_sums_self_time_and_unions_total():
    spans = [_span(1, None, 0, 4, "a"), _span(2, None, 2, 6, "a"),
             _span(3, 1, 1, 2, "b")]
    s = summarize({"spans": spans})
    assert s["a"]["calls"] == 2
    assert s["a"]["self_s"] == pytest.approx(3.0 + 4.0)
    assert s["a"]["total_s"] == pytest.approx(6.0)
    assert s["b"]["self_s"] == pytest.approx(1.0)


def test_worker_spans_are_children_of_the_fanning_span():
    rec = Recorder()

    def thread_map(fn, chunks, threads):
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, chunks))

    leaf = rec.wrap("layer.leaf", lambda c: c * 2)
    fan_map = rec.wrap_chunk_map(thread_map)
    outer = rec.wrap("layer.outer",
                     lambda: fan_map(lambda c: leaf(c), [1, 2, 3], 2))
    assert outer() == [2, 4, 6]
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s["name"], []).append(s)
    (top,) = by_name["layer.outer"]
    assert [s["parent"] for s in by_name["layer.leaf"]] == [top["id"]] * 3
    assert len(rec.chunks) == 3
    assert all(c["start"] >= c["queued"] for c in rec.chunks)


# ---------------------------------------------------------------------------
# Gates trip on perturbed outputs.
# ---------------------------------------------------------------------------

def _write_columns(path, cols):
    names = list(cols)
    lines = [",".join(names)]
    for row in zip(*(cols[n] for n in names)):
        lines.append(",".join(row))
    path.write_text("\r\n".join(lines) + "\r\n")


@pytest.fixture
def golden_copy(tmp_path):
    out = tmp_path / "out"
    shutil.copytree(GOLDEN_RUN, out)
    return out


def test_pam_gate_passes_golden_and_trips_on_perturbation(golden_copy):
    check_pam_delta0(golden_copy, 0)
    with pytest.raises(GateFailed):
        check_pam_delta0(golden_copy, 2)

    cols = read_columns(golden_copy / "moments.csv")
    v = float(cols["estimate"][0])
    cols["estimate"][0] = repr(v * (1 + 1e-6))
    _write_columns(golden_copy / "moments.csv", cols)
    with pytest.raises(GateFailed, match="estimate"):
        check_pam_delta0(golden_copy, 0)


def test_pam_gate_trips_on_flipped_verdict(golden_copy):
    cols = read_columns(golden_copy / "verdicts.csv")
    cols["pass"][0] = "false"
    _write_columns(golden_copy / "verdicts.csv", cols)
    with pytest.raises(GateFailed, match="pass"):
        check_pam_delta0(golden_copy, 0)


def _oracle_out(tmp_path, values):
    path = tmp_path / "values.json"
    path.write_text(json.dumps({"values": np.asarray(values).tolist()}))
    return path


def test_oracle_gate_trips_on_perturbation(tmp_path):
    exact = np.array([delta_closed_form(1.0, t, ORACLE_INPUT["x"])
                      for t in ORACLE_INPUT["t"]])
    assert check_oracle(_oracle_out(tmp_path, exact), 0)["max_rel_err"] < 1e-12
    with pytest.raises(GateFailed, match="closed form"):
        check_oracle(_oracle_out(tmp_path, exact * 1.05), 0)
    with pytest.raises(GateFailed, match="exit code"):
        check_oracle(_oracle_out(tmp_path, exact), 1)


SMALL = replace(WIDE, half_width=6.0, nx=128, t_end=0.3, n_seeds=8,
                snapshot_times=(0.1, 0.3), t_probes=(0.1, 0.2, 0.3),
                x_probes=(0.0, 0.5), ks=(1.0, 2.0))


@pytest.fixture(scope="module")
def small_simulation(tmp_path_factory):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from levyheat import cli

    work = tmp_path_factory.mktemp("simulate")
    outdir = work / "out"
    cfg = work / "sim.json"
    cfg.write_text(json.dumps(SMALL.config(5, outdir)))
    assert cli.main(["simulate", str(cfg)]) == 0
    oracle = lattice_oracle_rows(SMALL)
    # SMALL is no benchmark input: its floor is half of what this run gives
    _, u = read_snapshots(outdir / "snapshots.csv", SMALL.seeds(5), SMALL)
    ROUGHNESS_FLOOR[SMALL] = 0.5 * roughness(u, SMALL, oracle)
    yield outdir, oracle
    del ROUGHNESS_FLOOR[SMALL]


def test_simulate_gate_passes_and_trips_on_reference(small_simulation,
                                                     tmp_path):
    outdir, oracle = small_simulation
    ref = make_reference(outdir, 5, SMALL)
    check_simulate(outdir, 0, 5, SMALL, oracle, ref)
    with pytest.raises(GateFailed, match="exit code"):
        check_simulate(outdir, 1, 5, SMALL, oracle, ref)

    bad = json.loads(json.dumps(ref))
    bad["snapshot_summary"][3][1][0] *= 1 + 1e-6
    with pytest.raises(GateFailed, match="snapshot"):
        check_simulate(outdir, 0, 5, SMALL, oracle, bad)
    # the max column is scaled by its own max, not by the sums of squares
    bad = json.loads(json.dumps(ref))
    maxima = np.asarray(bad["snapshot_summary"])[..., 2]
    i, j = np.unravel_index(np.argmax(maxima), maxima.shape)
    bad["snapshot_summary"][i][j][2] *= 1 + 1e-7
    with pytest.raises(GateFailed, match="snapshot max"):
        check_simulate(outdir, 0, 5, SMALL, oracle, bad)
    with pytest.raises(GateFailed, match="other inputs"):
        check_simulate(outdir, 0, 5, SMALL, oracle, dict(ref, seed=6))


def test_simulate_gate_trips_when_march_consumers_disagree(small_simulation,
                                                           tmp_path):
    outdir, oracle = small_simulation
    copy = tmp_path / "out"
    shutil.copytree(outdir, copy)
    cols = read_columns(copy / "moments.csv")
    last = len(cols["t"]) - 1          # a row at t = 0.3, a snapshot time
    cols["raw_moment"][last] = repr(float(cols["raw_moment"][last]) * 1.001)
    _write_columns(copy / "moments.csv", cols)
    with pytest.raises(GateFailed, match="snapshot mean"):
        check_simulate(copy, 0, 5, SMALL, oracle)


def test_oracle_statistics_trip_on_shifted_moments(small_simulation):
    outdir, oracle = small_simulation
    moments = numeric(read_columns(outdir / "moments.csv"))
    check_against_oracle(moments, SMALL, oracle)

    high = {k: v.copy() for k, v in moments.items()}
    k2 = high["k"] == 2.0
    high["raw_moment"][k2] += 10.0 * high["raw_std_error"][k2]
    with pytest.raises(GateFailed, match="E u\\^2"):
        check_against_oracle(high, SMALL, oracle)

    shifted = {k: v.copy() for k, v in moments.items()}
    k1 = shifted["k"] == 1.0
    shifted["raw_moment"][k1] -= 10.0 * shifted["raw_std_error"][k1]
    with pytest.raises(GateFailed, match="mean identity"):
        check_against_oracle(shifted, SMALL, oracle)


def test_roughness_trips_on_weakened_noise(small_simulation):
    outdir, oracle = small_simulation
    _, u = read_snapshots(outdir / "snapshots.csv", SMALL.seeds(5), SMALL)
    check_roughness(u, SMALL, oracle)

    det = np.stack([oracle[1][round(t / SMALL.dt) - 1]
                    for t in SMALL.snapshot_times])
    weak = det + 0.5 * (u - det)        # the same paths, half the noise
    with pytest.raises(GateFailed, match="roughness"):
        check_roughness(weak, SMALL, oracle)
    with pytest.raises(GateFailed, match="no roughness floor"):
        check_roughness(u, replace(SMALL, lam=2.0), oracle)


# ---------------------------------------------------------------------------
# Emitted names match BENCHMARK.json.
# ---------------------------------------------------------------------------

def test_every_declared_name_is_run_or_emitted():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    e2e = end_to_end_metrics({name: [1.0] for name in SAMPLED})
    layers = per_layer_metrics({}, imports={}, overhead_s=0.0, write_bytes=0,
                               max_rel_err=0.0)
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(e2e)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(layers)
