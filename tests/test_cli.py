"""End-to-end checks of the levyheat command line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from levyheat import (ConfigInvalid, brownian, delta, mc_moments,
                      sigma_linear)
from levyheat import cli
from levyheat.noise_field import noise_rows
from levyheat.cli import (BoundVerdict, kernel_info, load_experiment_config,
                          main)

BUNDLED = Path(cli.__file__).parent / "configs" / "pam_delta0.json"
# The src directory of the levyheat under test, absolute, so that children
# started in another working directory import the same package.
SRC = Path(cli.__file__).resolve().parents[1]


def cli_env(env_extra=None):
    env = os.environ.copy()
    env.setdefault("LEVYHEAT_THREADS", "2")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*args, env_extra=None, cwd=None):
    return subprocess.run([sys.executable, "-m", "levyheat", *args],
                          capture_output=True, text=True,
                          env=cli_env(env_extra), cwd=cwd)


def small_config(tmp_path, **overrides):
    doc = {
        "kernel": {"kind": "brownian", "kappa": 1.0},
        "measure": {"kind": "delta", "mass": 1.0, "at": 0.0},
        "sigma": {"kind": "linear", "lam": 1.0},
        "grid": {"dt": 0.01, "dx": 0.125, "L": 8.0, "t_end": 0.2},
        "seeds": list(range(24)),
        "claims": ["mean_identity", "exist_unique_k2"],
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


# Packages that only the tests use: scipy as a numerical oracle, jsonschema
# (with referencing) as the oracle of the CLI's schema validator.
TEST_ONLY = ("scipy", "jsonschema", "referencing")


def oracle_modules_after(command, path):
    """Child process that runs `levyheat command path` in process, then
    prints the sorted TEST_ONLY modules it loaded."""
    code = ("import sys; from levyheat import cli; "
            f"assert cli.main([{command!r}, {str(path)!r}]) == 0; "
            "print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] in {TEST_ONLY!r}))")
    return subprocess.run([sys.executable, "-c", code], env=cli_env(),
                          capture_output=True, text=True)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestKernelInfo:
    def test_brownian_reference_values(self):
        out = kernel_info({"kind": "brownian"}, beta_list=[1.0, 4.0],
                          k_list=[2.0, 3.0], a_list=[1.0], lip=1.0)
        assert_allclose(out["theta"], math.sqrt(2.0), rtol=1e-9)
        assert_allclose(out["upsilon"], [0.5, 0.25], rtol=1e-6)
        assert_allclose(out["gamma"], [16.0, 54.0], rtol=1e-6)
        assert_allclose(out["g"], [math.pi / 2.0], rtol=1e-6)
        assert_allclose(out["frak_T"][0], math.pi / 16384.0, rtol=1e-6)

    def test_stable_gamma_follows_fourth_power(self):
        out = kernel_info({"kind": "stable", "alpha": 1.5},
                          k_list=[2.0, 4.0])
        g2, g4 = out["gamma"]
        assert_allclose(g4 / g2, 16.0, rtol=1e-6)
        assert_allclose(out["theta"], 2.0 ** (2.0 / 3.0), rtol=1e-9)

    def test_divergent_resolvent_reported_not_raised(self):
        out = kernel_info({"kind": "stable", "alpha": 1.0})
        assert out["error"] == "divergent resolvent"
        assert "theta" not in out

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigInvalid, match="kernel kind"):
            kernel_info({"kind": "gaussian"})

    def test_kernel_subcommand_json(self):
        req = json.dumps({"kernel": {"kind": "brownian"},
                          "beta": [1, 4], "k": [2, 3], "lip": 1.0})
        res = run_cli("kernel", req)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert_allclose(doc["upsilon"], [0.5, 0.25], rtol=1e-6)
        assert_allclose(doc["gamma"], [16.0, 54.0], rtol=1e-6)

    def test_kernel_subcommand_divergent(self):
        res = run_cli("kernel", '{"kernel": {"kind": "stable", "alpha": 1}}')
        assert res.returncode == 0
        assert json.loads(res.stdout)["error"] == "divergent resolvent"

    def test_kernel_subcommand_short_table_says_how_far_to_reach(self):
        # theta's scan starts at t = 5e-5, where the cutoff needs
        # psi = log(10 / XI_TOL) / 5e-5
        res = run_cli("kernel", '{"kernel": {"kind": "tabulated", '
                      '"xi": [0, 1, 2], "psi": [0, 1, 4]}}')
        assert res.returncode == 0
        assert json.loads(res.stdout) == {
            "error": "quadrature underresolved",
            "detail": "tabulated exponent reaches only psi=4 (table ends at "
                      "xi=2); t=5e-05 needs a table that reaches psi=506569"}

    def test_kernel_subcommand_rejects_garbage(self):
        res = run_cli("kernel", "{oops")
        assert res.returncode == 64
        res = run_cli("kernel", '{"kernel": {"kind": "brownian"}, "k": []}')
        assert res.returncode == 64
        res = run_cli("kernel",
                      '{"kernel": {"kind": "brownian"}, "beta": [-1]}')
        assert res.returncode == 64

    @pytest.mark.parametrize("key, text, path", [
        ("lip", "1e400", "$.lip"),
        ("k", "[1e400]", "$.k[0]"),
        ("beta", "[1e400]", "$.beta[0]"),
    ])
    def test_kernel_subcommand_rejects_non_finite(self, key, text, path):
        res = run_cli("kernel",
                      f'{{"kernel": {{"kind": "brownian"}}, "{key}": {text}}}')
        assert res.returncode == 64
        assert f"{path}: inf is not a finite number" in res.stderr
        assert res.stdout == ""

    def test_kernel_subcommand_writes_saturated_g_as_null(self):
        # the kernel-mass clock of Brownian motion saturates below a = 1e300
        res = run_cli("kernel",
                      '{"kernel": {"kind": "brownian"}, "a": [1.0, 1e300]}')
        assert res.returncode == 0
        assert "Infinity" not in res.stdout and "NaN" not in res.stdout
        doc = json.loads(res.stdout)
        assert doc["g"][1] is None and doc["g"][0] > 0


class TestConfigValidation:
    def test_bundled_config_loads(self):
        cfg = load_experiment_config(BUNDLED)
        assert cfg.claims == ("exist_unique_k2", "exist_unique_k4")
        assert len(cfg.seeds) == 800
        assert cfg.grid["t_end"] == 0.5

    def test_missing_key(self, tmp_path):
        path, doc = small_config(tmp_path)
        del doc["sigma"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigInvalid, match="sigma"):
            load_experiment_config(path)

    def test_negative_dt(self, tmp_path):
        path, doc = small_config(tmp_path)
        doc["grid"]["dt"] = -0.01
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigInvalid, match="dt"):
            load_experiment_config(path)

    def test_unknown_claim(self, tmp_path):
        path, _ = small_config(tmp_path, claims=["made_up"])
        with pytest.raises(ConfigInvalid, match="made_up"):
            load_experiment_config(path)

    def test_duplicate_seeds(self, tmp_path):
        path, _ = small_config(tmp_path, seeds=[1, 1, 2])
        with pytest.raises(ConfigInvalid, match="seeds"):
            load_experiment_config(path)

    def test_seed_past_philox_keys(self, tmp_path):
        path, _ = small_config(tmp_path, seeds=[0, 2 ** 128])
        with pytest.raises(ConfigInvalid, match=r"seeds\[1\]"):
            load_experiment_config(path)
        path, _ = small_config(tmp_path, seeds=[0, 2 ** 128 - 1])
        assert load_experiment_config(path).seeds == (0, 2 ** 128 - 1)

    def test_extra_key_rejected(self, tmp_path):
        path, doc = small_config(tmp_path)
        doc["extra"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigInvalid):
            load_experiment_config(path)

    def test_stable_kernel_without_alpha_names_both(self, tmp_path):
        path, _ = small_config(tmp_path, kernel={"kind": "stable"})
        res = run_cli("run", str(path))
        assert res.returncode == 64
        assert "$.kernel" in res.stderr and "alpha" in res.stderr
        assert len(res.stderr.splitlines()) == 1

    def test_uneven_grid_rejected(self, tmp_path):
        path, doc = small_config(tmp_path)
        doc["grid"]["dx"] = 0.3
        path.write_text(json.dumps(doc))
        cfg = load_experiment_config(path)
        with pytest.raises(ConfigInvalid, match="whole number"):
            cli._grid_cells(cfg.grid)


class TestRunCommand:
    def test_small_run_passes_and_writes_files(self, tmp_path):
        path, doc = small_config(tmp_path)
        res = run_cli("run", str(path))
        assert res.returncode == 0, res.stderr
        out = Path(doc["output_dir"])
        assert (out / "manifest.json").exists()
        verdicts = read_csv(out / "verdicts.csv")
        assert [v["claim_id"] for v in verdicts] == doc["claims"]
        assert all(v["pass"] == "true" for v in verdicts)
        moments = read_csv(out / "moments.csv")
        ts = sorted({float(r["t"]) for r in moments})
        assert ts[-1] == doc["grid"]["t_end"]
        assert len(ts) <= 8
        ks = sorted({float(r["k"]) for r in moments})
        assert ks == [1.0, 2.0]

    def test_manifest_is_deterministic_metadata(self, tmp_path):
        path, doc = small_config(tmp_path, claims=[])
        res = run_cli("run", str(path))
        assert res.returncode == 0
        out = Path(doc["output_dir"])
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["replicas"] == 24
        assert manifest["claims"] == []
        assert len(manifest["config_sha256"]) == 64
        assert "time" not in json.dumps(manifest).lower()

    def test_run_without_claims_leaves_scipy_unloaded(self, tmp_path):
        # scipy and jsonschema are test dependencies only, so the manifest
        # names neither, and validation loads neither jsonschema nor
        # referencing
        path, doc = small_config(tmp_path, claims=[])
        res = oracle_modules_after("run", path)
        assert res.stdout.strip() == "[]", res.stderr
        manifest = json.loads(
            (Path(doc["output_dir"]) / "manifest.json").read_text())
        assert sorted(manifest["libraries"]) == ["numpy", "python"]

    def test_run_with_claims_leaves_scipy_unloaded(self, tmp_path):
        # noise sampling and the claim checks run on numpy alone
        path, _ = small_config(tmp_path)
        res = oracle_modules_after("run", path)
        assert res.stdout.splitlines()[-1:] == ["[]"], res.stderr

    def test_rerun_is_bit_identical(self, tmp_path):
        path, doc = small_config(tmp_path)
        assert run_cli("run", str(path)).returncode == 0
        out = Path(doc["output_dir"])
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli("run", str(path),
                       env_extra={"LEVYHEAT_THREADS": "4"}).returncode == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_moments_csv_round_trips_solver_floats(self, tmp_path):
        path, doc = small_config(tmp_path, claims=["exist_unique_k2"])
        assert run_cli("run", str(path)).returncode == 0
        rows = read_csv(Path(doc["output_dir"]) / "moments.csv")
        grid = doc["grid"]
        table = mc_moments(
            brownian(1.0), delta(), sigma_linear(1.0),
            dt=grid["dt"], nx=cli._grid_cells(grid), half_width=grid["L"],
            t_end=grid["t_end"], seeds=doc["seeds"],
            t_probes=cli._derived_t_probes(grid),
            x_probes=cli._derived_x_probes(grid), ks=[2.0])
        assert len(rows) == table.t.size
        got = np.array([float(r["raw_moment"]) for r in rows])
        assert np.array_equal(got, table.raw_moment)

    def test_bundled_config_exits_zero(self, tmp_path):
        res = run_cli("run", str(BUNDLED), cwd=str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "runs" / "pam_delta0" / "verdicts.csv").exists()

    def test_unknown_kernel_kind_single_line(self, tmp_path):
        path, doc = small_config(tmp_path)
        doc["kernel"]["kind"] = "cauchy"
        path.write_text(json.dumps(doc))
        res = run_cli("run", str(path))
        assert res.returncode == 64
        assert res.stderr.count("\n") == 1
        assert "cauchy" in res.stderr

    def test_unknown_claim_exits_64(self, tmp_path):
        path, _ = small_config(tmp_path, claims=["nope"])
        assert run_cli("run", str(path)).returncode == 64

    def test_malformed_json_exits_64(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli("run", str(path)).returncode == 64

    def test_missing_config_exits_74(self, tmp_path):
        assert run_cli("run", str(tmp_path / "gone.json")).returncode == 74

    def test_unwritable_output_dir_exits_74(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path, _ = small_config(tmp_path, claims=[],
                               output_dir=str(blocker / "sub"))
        assert run_cli("run", str(path)).returncode == 74

    def test_truncation_error_exits_1(self, tmp_path):
        path, doc = small_config(
            tmp_path, grid={"dt": 0.01, "dx": 0.125, "L": 1.0, "t_end": 0.5},
            claims=["mean_identity"])
        res = run_cli("run", str(path))
        assert res.returncode == 1
        assert "widen" in res.stderr

    @pytest.mark.parametrize("radius", ["6", "1e400"])
    def test_density_outside_the_window_exits_1(self, tmp_path, radius):
        # a uniform density on [4, 6] against a window of half-width 2; an
        # infinite support_radius (1e400 parses to inf) must not hide it
        grid = [4.0 + 0.25 * i for i in range(9)]
        measure = {"kind": "custom", "support_radius": 0.0,
                   "density": {"grid": grid, "values": [1.0] * 9}}
        path, _ = small_config(
            tmp_path, measure=measure,
            grid={"dt": 0.01, "dx": 0.125, "L": 2.0, "t_end": 0.05},
            claims=["mean_identity"])
        path.write_text(path.read_text().replace(
            '"support_radius": 0.0', f'"support_radius": {radius}'))
        res = run_cli("run", str(path))
        assert res.returncode == 1
        assert "does not cover the initial support radius 6" in res.stderr

    @pytest.mark.parametrize("field,text", [
        ("grid.L", '"L": 8.0'), ("grid.t_end", '"t_end": 0.2'),
        ("sigma.lam", '"lam": 1.0'), ("measure.mass", '"mass": 1.0')])
    def test_non_finite_number_exits_64(self, tmp_path, field, text):
        # 1e400 parses to inf, which "type": "number" accepts
        path, _ = small_config(tmp_path, claims=["mean_identity"])
        body = path.read_text()
        assert body.count(text) == 1
        path.write_text(body.replace(text, text.split(":")[0] + ": 1e400"))
        res = run_cli("run", str(path))
        assert res.returncode == 64
        assert f"$.{field}: inf is not a finite number" in res.stderr

    def test_failing_claim_exits_2(self, tmp_path, monkeypatch):
        def always_fail(model, u0, sigma, table, cfg):
            return BoundVerdict.from_comparison("always_fail", lhs=2.0,
                                                rhs=1.0)
        monkeypatch.setitem(cli.CLAIM_REGISTRY, "always_fail",
                            cli._Claim(ks=(2.0,), check=always_fail))
        path, doc = small_config(tmp_path, seeds=[0, 1],
                                 claims=["always_fail"])
        assert main(["run", str(path)]) == 2
        verdicts = read_csv(Path(doc["output_dir"]) / "verdicts.csv")
        assert verdicts[0]["pass"] == "false"

    def test_non_integer_thread_count_exits_1(self, tmp_path):
        path, _ = small_config(tmp_path, seeds=[0, 1],
                               claims=["mean_identity"])
        res = run_cli("run", str(path),
                      env_extra={"LEVYHEAT_THREADS": "abc"})
        assert res.returncode == 1
        assert "LEVYHEAT_THREADS" in res.stderr

    def test_usage_error_exits_64(self):
        assert run_cli("frobnicate").returncode == 64
        assert run_cli("run").returncode == 64


class TestVerifyCommand:
    def test_verify_stdout_matches_run_file(self, tmp_path):
        path, doc = small_config(tmp_path)
        assert run_cli("run", str(path)).returncode == 0
        file_bytes = (Path(doc["output_dir"]) / "verdicts.csv").read_bytes()
        res = subprocess.run([sys.executable, "-m", "levyheat", "verify",
                              str(path)], capture_output=True, env=cli_env())
        assert res.returncode == 0
        assert res.stdout == file_bytes

    def test_verify_writes_nothing(self, tmp_path):
        path, doc = small_config(tmp_path)
        assert run_cli("verify", str(path)).returncode == 0
        assert not Path(doc["output_dir"]).exists()

    def test_verify_leaves_test_only_packages_unloaded(self, tmp_path):
        path, _ = small_config(tmp_path)
        res = oracle_modules_after("verify", path)
        assert res.stdout.splitlines()[-1:] == ["[]"], res.stderr


class TestReportCommand:
    def test_long_format_matches_moments(self, tmp_path):
        path, doc = small_config(tmp_path)
        assert run_cli("run", str(path)).returncode == 0
        out = Path(doc["output_dir"])
        res = run_cli("report", str(out))
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "t,x,k,estimate,bound"
        moments = read_csv(out / "moments.csv")
        assert len(lines) - 1 == len(moments)
        first = lines[1].split(",")
        assert first[3] == moments[0]["estimate"]
        assert first[4] == moments[0]["bound_exist_unique"]

    def test_missing_dir_exits_74(self, tmp_path):
        assert run_cli("report", str(tmp_path / "nope")).returncode == 74

    def test_missing_columns_exit_64(self, tmp_path):
        (tmp_path / "moments.csv").write_text("t,x\r\n0.1,0.0\r\n")
        res = run_cli("report", str(tmp_path))
        assert res.returncode == 64
        assert "missing columns" in res.stderr


class TestSimulateCommand:
    def sim_config(self, tmp_path, **overrides):
        doc = {
            "kernel": {"kind": "brownian"},
            "u0": {"kind": "delta"},
            "sigma": {"kind": "linear", "lam": 0.0},
            "grid": {"dt": 0.01, "dx": 0.125, "L": 8.0},
            "seeds": [0, 1, 2],
            "t_end": 0.3,
            "outputs": {"dir": str(tmp_path / "sim"),
                        "snapshot_times": [0.1, 0.3]},
        }
        doc.update(overrides)
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        return path, doc

    def test_simulate_leaves_scipy_unloaded(self, tmp_path):
        path, _ = self.sim_config(tmp_path,
                                  sigma={"kind": "linear", "lam": 1.0})
        res = oracle_modules_after("simulate", path)
        assert res.stdout.splitlines()[-1:] == ["[]"], res.stderr

    def test_noiseless_snapshots_equal_heat_kernel(self, tmp_path):
        path, doc = self.sim_config(tmp_path)
        res = run_cli("simulate", str(path))
        assert res.returncode == 0, res.stderr
        rows = read_csv(Path(doc["outputs"]["dir"]) / "snapshots.csv")
        assert len(rows) == 3 * 2 * 128
        for r in rows[:256]:
            t, x, u = float(r["t"]), float(r["x"]), float(r["u"])
            exact = math.exp(-x * x / (2 * t)) / math.sqrt(2 * math.pi * t)
            assert abs(u - exact) < 5e-3 * (1 + exact)

    def test_moment_table_written(self, tmp_path):
        path, doc = self.sim_config(
            tmp_path, sigma={"kind": "linear", "lam": 1.0},
            outputs={"dir": str(tmp_path / "sim"),
                     "snapshot_times": [0.3],
                     "t_probes": [0.1, 0.2, 0.3],
                     "x_probes": [0.0], "ks": [2]})
        assert run_cli("simulate", str(path)).returncode == 0
        moments = read_csv(Path(doc["outputs"]["dir"]) / "moments.csv")
        assert len(moments) == 3
        assert all(float(r["raw_moment"]) > 0 for r in moments)
        # the run manifest's fields, claims aside
        manifest = json.loads(
            (Path(doc["outputs"]["dir"]) / "manifest.json").read_text())
        assert set(manifest) == {"config_sha256", "tool", "libraries",
                                 "seeds", "replicas", "files"}
        assert manifest["seeds"] == [0, 1, 2]

    def test_off_lattice_snapshot_time_exits_64(self, tmp_path):
        path, _ = self.sim_config(
            tmp_path, outputs={"dir": str(tmp_path / "sim"),
                               "snapshot_times": [0.105]})
        assert run_cli("simulate", str(path)).returncode == 64

    def test_seed_past_philox_keys_exits_64(self, tmp_path):
        # Philox keys are below 2^128; the largest one marches
        path, _ = self.sim_config(tmp_path, seeds=[2 ** 128])
        res = run_cli("simulate", str(path))
        assert res.returncode == 64, res.stderr
        assert "seeds[0]" in res.stderr
        path, doc = self.sim_config(tmp_path, seeds=[2 ** 128 - 1],
                                    sigma={"kind": "linear", "lam": 1.0})
        assert main(["simulate", str(path)]) == 0
        manifest = json.loads(
            (Path(doc["outputs"]["dir"]) / "manifest.json").read_text())
        assert manifest["seeds"] == [2 ** 128 - 1]

    def test_probe_beyond_t_end_exits_64(self, tmp_path):
        path, _ = self.sim_config(
            tmp_path, outputs={"dir": str(tmp_path / "sim"),
                               "snapshot_times": [0.1],
                               "t_probes": [0.4]})
        assert run_cli("simulate", str(path)).returncode == 64

    def test_one_march_serves_snapshots_and_moments(self, tmp_path,
                                                    monkeypatch):
        drawn = []

        def counted(dt, dx, nx, seeds, start, stop):
            drawn.extend(seeds)
            return noise_rows(dt, dx, nx, seeds, start, stop)

        # every levyheat namespace that binds the noise stream counts
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "levyheat" and \
                    getattr(mod, "noise_rows", None) is noise_rows:
                monkeypatch.setattr(mod, "noise_rows", counted)
        # the last snapshot lies past t_end: the march runs to it
        path, doc = self.sim_config(
            tmp_path, sigma={"kind": "linear", "lam": 1.0},
            outputs={"dir": str(tmp_path / "sim"),
                     "snapshot_times": [0.1, 0.3], "t_probes": [0.1, 0.2],
                     "ks": [1]}, t_end=0.2)
        assert main(["simulate", str(path)]) == 0
        assert sorted(drawn) == sorted(doc["seeds"])  # each seed once
        out = Path(doc["outputs"]["dir"])
        snaps = read_csv(out / "snapshots.csv")
        assert {float(r["t"]) for r in snaps} == {0.1, 0.3}
        # moments at a snapshot time are the snapshot rows' means
        moments = read_csv(out / "moments.csv")
        row = next(r for r in moments if float(r["t"]) == 0.1)
        col = [float(r["u"]) for r in snaps if float(r["t"]) == 0.1
               and float(r["x"]) == float(row["x"])]
        assert len(col) == len(doc["seeds"])
        assert abs(float(row["raw_moment"]) - np.mean(col)) \
            <= 1e-12 * abs(np.mean(col))

    def test_snapshot_bytes_match_row_writer(self, tmp_path):
        # an integer snapshot time and unsorted seeds, so the t and seed
        # columns are formatted as the row writer formats them
        path, doc = self.sim_config(
            tmp_path, sigma={"kind": "linear", "lam": 1.0}, seeds=[5, 2],
            t_end=1, outputs={"dir": str(tmp_path / "sim"),
                              "snapshot_times": [1, 0.5],
                              "t_probes": [0.5], "ks": [1]})
        assert main(["simulate", str(path)]) == 0
        tab = mc_moments(brownian(1.0), delta(), sigma_linear(1.0), dt=0.01,
                         nx=128, half_width=8.0, t_end=1, seeds=[5, 2],
                         t_probes=[0.5], x_probes=[0.0], ks=[1],
                         snapshot_times=[0.5, 1])
        rows = [(seed, float(t), float(x), float(u))
                for seed, block in zip([5, 2], tab.snapshots)
                for t, row in zip([0.5, 1], block)
                for x, u in zip(tab.lattice.x_nodes, row)]
        buf = io.StringIO(newline="")
        cli._write_csv(buf, ("seed", "t", "x", "u"), rows)
        written = (Path(doc["outputs"]["dir"]) / "snapshots.csv").read_bytes()
        assert written == buf.getvalue().encode()

    def test_schema_rejects_missing_outputs(self, tmp_path):
        path, doc = self.sim_config(tmp_path)
        del doc["outputs"]
        path.write_text(json.dumps(doc))
        assert run_cli("simulate", str(path)).returncode == 64

    def test_empty_snapshot_list_names_its_path(self, tmp_path):
        path, doc = self.sim_config(tmp_path)
        doc["outputs"]["snapshot_times"] = []
        path.write_text(json.dumps(doc))
        res = run_cli("simulate", str(path))
        assert res.returncode == 64
        assert "$.outputs.snapshot_times" in res.stderr
        assert len(res.stderr.splitlines()) == 1


class TestMeanIdentityClaim:
    def test_noiseless_mean_is_exact(self, tmp_path):
        path, doc = small_config(tmp_path, sigma={"kind": "linear", "lam": 0.0},
                                 seeds=[0], claims=["mean_identity"])
        assert main(["run", str(path)]) == 0
        verdicts = read_csv(Path(doc["output_dir"]) / "verdicts.csv")
        assert verdicts[0]["pass"] == "true"
        assert float(verdicts[0]["lhs"]) < 1e-9
