"""Command-line interface tests: configs, exit codes, output files,
and seeded determinism."""

import csv
import importlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from dpnls import evolution, stability
from dpnls import cli
from dpnls.cli import ExperimentConfig, main
from dpnls.evolution import TraceRecord
from dpnls.params import PeriodicGrid

from conftest import BASE

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def write_config(path, **overrides):
    cfg = {
        "params": {**{k: BASE[k] for k in ("N", "a", "b", "p", "q")},
                   "omega": 1.0},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestConfig:
    def test_roundtrip(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            sweeps={"omegas": [0.5, 1.0], "lambdas": [1.2]},
            seed=3,
        )
        cfg = ExperimentConfig.from_file(path)
        assert cfg.params.omega == 1.0
        assert cfg.omegas == [0.5, 1.0] and cfg.lambdas == [1.2]
        assert cfg.seed == 3

    def test_defaults(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_config(tmp_path / "c.json"))
        assert cfg.line_grid.m == 65536
        assert cfg.evolution.dt == 5e-4
        # the library's default, not one of the command line's own
        assert cfg.evolution.record_every == evolution.EvolutionConfig(
            dt=1.0, t_max=1.0).record_every == 100

    @pytest.mark.parametrize("overrides, key", [
        ({"evolution": {"dtt": 1e-3}}, "dtt"),
        ({"sweep": {"omegas": [1.0]}}, "sweep"),
        ({"lemma": {"sample": 5}}, "sample"),
        ({"grid": {"rmax": 30.0, "n": 2001}}, "grid"),
        ({"evolution": {"dt": 0}}, "dt"),
        ({"evolution": {"length": 0}}, "length"),
        ({"evolution": {"m": 1}}, "nodes"),
        ({"evolution": {"record_every": 0}}, "record_every"),
        ({"solver": {"tol": 1e-3}}, "solver"),
        ({"lemma": {"lambda_points": 1}}, "lambda_points"),
        ({"lemma": {"samples": 0}}, "lemma.samples"),
        ({"lemma": {"pairs": 0}}, "lemma.pairs"),
        ({"out": "results"}, "out"),
        ({"evolution": {"dt": None}}, "evolution.dt"),
        ({"params": {**BASE, "N": "one", "omega": 1.0}}, "params.N"),
        ({"sweeps": {"omegas": [1.0, None]}}, "sweeps.omegas"),
        ({"params": dict(BASE)}, "params.omega"),
        ([1, 2], "JSON object"),
        ({"params": {**BASE, "N": 1.5, "omega": 1.0}}, "params.N"),
        ({"evolution": {"m": 2.9}}, "evolution.m"),
        ({"evolution": {"m": "64"}}, "evolution.m"),
        ({"evolution": {"record_every": True}}, "evolution.record_every"),
        ({"lemma": {"samples": 10.5}}, "lemma.samples"),
        ({"seed": 0.5}, "seed"),
        ({"params": {**BASE, "a": True, "omega": 1.0}}, "params.a"),
        ({"params": {**BASE, "b": "1", "omega": 1.0}}, "params.b"),
        ({"evolution": {"length": "32"}}, "evolution.length"),
        ({"evolution": {"length": False}}, "evolution.length"),
        ({"evolution": {"dt": True}}, "evolution.dt"),
        ({"evolution": {"t_max": "60"}}, "evolution.t_max"),
        ({"sweeps": {"lambdas": [True]}}, "sweeps.lambdas"),
        ({"sweeps": {"omegas": ["1.0"]}}, "sweeps.omegas"),
        ({"evolution": {"cfl_shrink": 0.5}}, "cfl_shrink"),
        ({"evolution": {"blowup_grad_factor": 10.0}}, "blowup_grad_factor"),
        ({"params": {**BASE, "omega": float("nan")}}, "params.omega"),
        ({"params": {**BASE, "a": float("inf"), "omega": 1.0}}, "params.a"),
        ({"sweeps": {"omegas": [1.0, float("nan"), 2.0]}}, "sweeps.omegas"),
        ({"evolution": {"dt": float("inf")}}, "evolution.dt"),
        ({"evolution": {"length": -float("inf")}}, "evolution.length"),
        ({"seed": -1}, "seed"),
        # a value where the list belongs is rejected whole, as not a list
        ({"sweeps": {"omegas": "12"}},
         "sweeps.omegas: expected a list of numbers, got '12'"),
        ({"sweeps": {"omegas": {"a": 1}}},
         "sweeps.omegas: expected a list of numbers, got {'a': 1}"),
        ({"sweeps": {"omegas": 5}},
         "sweeps.omegas: expected a list of numbers, got 5"),
        ({"sweeps": {"omegas": None}},
         "sweeps.omegas: expected a list of numbers, got None"),
    ])
    def test_bad_config_exit_2(self, tmp_path, capsys, monkeypatch,
                               overrides, key):
        # an unknown key or a bad value fails at load, before any solve
        monkeypatch.setattr(cli, "solve_ground_state", None)
        path = tmp_path / "c.json"
        if isinstance(overrides, list):    # the whole config
            path.write_text(json.dumps(overrides))
        else:
            write_config(path, **overrides)
        assert run("groundstate", "--config", path,
                   "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys, monkeypatch):
        # --seed is checked like the config's seed, before any solve
        monkeypatch.setattr(cli, "solve_ground_state", None)
        path = write_config(tmp_path / "c.json")
        assert run("verify-lemma", "--config", path, "--out", tmp_path / "o",
                   "--seed", -3) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "seed" in err

    def test_integer_keys_accept_whole_floats(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            params={**BASE, "N": 1.0, "omega": 1.0},
            evolution={"m": 4096.0, "record_every": 10.0},
            seed=3.0,
        )
        cfg = ExperimentConfig.from_file(path)
        assert (cfg.params.N, cfg.line_grid.m,
                cfg.evolution.record_every, cfg.seed) == (1, 4096, 10, 3)
        assert isinstance(cfg.line_grid.m, int) and isinstance(cfg.seed, int)

    def test_benchmark_configs_load(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(PERFBENCH)
        import workloads
        for name in workloads.WORKLOADS:
            _, cfg = workloads.config(name, 0)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            ExperimentConfig.from_file(path)

    #: Hooks the benchmark still names that the package deleted; the set
    #: empties when the benchmark drops them (ROADMAP item 11).
    STALE_HOOKS = {"groundstate.decay_fit", "evolution.uniform_prefix"}

    def test_benchmark_hooks_resolve(self, monkeypatch):
        # every hook the tracer requires or wraps, and every audit the layer
        # metrics sum, is a callable its dpnls module defines, or an FFT
        # entry point the tracer wraps: a deletion that leaves a hook
        # behind fails here
        monkeypatch.syspath_prepend(PERFBENCH)
        import layers
        import tracer

        def resolves(name):
            if name.startswith("fft."):
                module, attr = name.removeprefix("fft.").rsplit(".", 1)
                return (module in tracer.FFT_MODULES and callable(
                    getattr(importlib.import_module(module), attr, None)))
            head, *attrs = name.split(".")
            module = importlib.import_module(f"dpnls.{head}")
            obj = getattr(module, attrs[0], None)
            if getattr(obj, "__module__", None) != module.__name__:
                return False
            for attr in attrs[1:]:
                obj = getattr(obj, attr, None)
            return callable(obj)

        names = {*tracer.REQUIRED, *layers.AUDITS,
                 *(f"{module}.{name}" for module, extra in tracer.EXTRA.items()
                   for name in extra)}
        assert {name for name in names if not resolves(name)} == self.STALE_HOOKS

    def test_benchmark_drift_is_the_package_drift(self, gs1, monkeypatch):
        # the tracer restates conservation_drift from the attributes of the
        # trace records; on a detected blowup, whose record at detection
        # lies outside the window, both give the same two numbers
        monkeypatch.syspath_prepend(PERFBENCH)
        import tracer
        monkeypatch.setattr(evolution, "BLOWUP_GRAD_FACTOR", 10.0)
        u0 = stability.make_scaled_data(gs1, 1.5, PeriodicGrid(32.0, 8192))
        verdict = evolution.evolve(u0, gs1.params,
                                   evolution.EvolutionConfig(1e-3, 5.0, 20))
        assert verdict.blew_up
        assert len(evolution.audit_window(verdict)) < len(verdict.trace)
        info = tracer._evolve_info((u0, gs1.params), {}, verdict)
        drift = evolution.conservation_drift(verdict)
        assert (info["mass_drift"], info["energy_drift"]) == drift
        assert drift[1] > 0

    def test_readme_example_lists_every_key(self):
        # the README says a key its example does not show is a config error,
        # and the example shows the schema's default of every optional
        # scalar, so a changed default cannot leave it stale
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Example config:")[1]
        example = json.loads(block.split("```json")[1].split("```")[0])

        def keys(config):
            return {section: tuple(value) if isinstance(value, dict) else None
                    for section, value in config.items()}
        assert keys(example) == keys(cli.SCHEMA)
        for section in ("evolution", "lemma"):
            for key, value in example[section].items():
                _, default = cli.SCHEMA[section][key]
                assert value == default, f"{section}.{key}"
        _, default = cli.SCHEMA["seed"]
        assert example["seed"] == default

    def test_readme_block_names_every_command(self):
        # the README's command-line block is the one front end's usage
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line")[1].split("```sh")[1]
        lines = block.split("```")[0].splitlines()
        named = [line.split()[1] for line in lines if line.startswith("dpnls ")]
        assert named == list(cli.COMMANDS)


class TestGroundstateCommand:
    def test_writes_profile_and_summary(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        out = tmp_path / "out" / "nested"  # must be auto-created
        assert run("groundstate", "--config", path, "--out", out) == 0
        assert (out / "profile.csv").exists()
        record = json.loads((out / "groundstate.json").read_text())
        assert record["amplitude"] == pytest.approx(1.086052, abs=1e-4)
        assert abs(record["nehari"]) < 1e-6

    def test_summary_reports_solver_diagnostics(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        assert run("groundstate", "--config", path, "--out", tmp_path,
                   "--no-timestamp") == 0
        diag = json.loads((tmp_path / "groundstate.json").read_text())[
            "diagnostics"]
        assert sorted(diag) == ["bisection_shots", "bracket_shots",
                                "extensions", "mesh_nodes",
                                "polish_iterations"]
        assert diag["bracket_shots"] > 0 and diag["bisection_shots"] > 0
        assert diag["mesh_nodes"] > 0 and diag["extensions"] == 0
        assert type(diag["polish_iterations"]) is int
        assert diag["polish_iterations"] > 0

    def test_summary_reports_both_residuals(self, tmp_path):
        # at φ(0) ≈ 1.6e-20 the r-residual is ω s0 times the normalised
        # one, so it alone would say nothing of the state's accuracy
        path = write_config(tmp_path / "c.json", params={
            "N": 1, "a": 1.0, "b": 1.0, "p": 1.05, "q": 7.0, "omega": 0.1})
        assert run("groundstate", "--config", path, "--out", tmp_path,
                   "--no-timestamp") == 0
        record = json.loads((tmp_path / "groundstate.json").read_text())
        assert 0.0 < record["unit_residual"] <= 1e-8
        assert record["residual"] < 1e-15 * record["unit_residual"]

    def test_invalid_exponents_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "params": {"N": 1, "a": 1.0, "b": 1.0, "p": 7.0, "q": 3.0,
                       "omega": 1.0}}))
        assert run("groundstate", "--config", path,
                   "--out", tmp_path / "o") == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert run("groundstate", "--config", tmp_path / "absent.json",
                   "--out", tmp_path / "o") == 2


class TestClassifyCommand:
    def test_sweep(self, tmp_path):
        path = write_config(tmp_path / "c.json",
                            sweeps={"omegas": [0.5, 1.0]})
        out = tmp_path / "out"
        assert run("classify", "--config", path, "--out", out,
                   "--no-timestamp") == 0
        lines = (out / "classify.csv").read_text().splitlines()
        assert lines[0] == ("omega,amplitude,action,energy,d2s,criterion_met,"
                            "bracket_shots,bisection_shots,mesh_nodes,"
                            "polish_iterations,extensions,status")
        rows = [dict(zip(lines[0].split(","), l.split(",")))
                for l in lines[1:]]
        assert [r["criterion_met"] for r in rows] == ["false", "true"]
        assert all(r["status"] == "ok" for r in rows)
        # the doubling bracket is (s, 2s), so 10 halvings reach 1e-3
        for r in rows:
            assert (r["bracket_shots"], r["bisection_shots"],
                    r["extensions"]) == ("1", "10", "0")
            assert int(r["mesh_nodes"]) >= 2001
            assert int(r["polish_iterations"]) > 0
        summary = json.loads((out / "classify_summary.json").read_text())
        assert summary == {"rows": 2, "failures": 0}

    def test_three_dimensional_sweep(self, tmp_path):
        path = write_config(tmp_path / "c.json",
                            params={"N": 3, "a": 1.0, "b": 1.0, "p": 1.5,
                                    "q": 3.0, "omega": 1.0},
                            sweeps={"omegas": [1.0]})
        out = tmp_path / "out"
        assert run("classify", "--config", path, "--out", out,
                   "--no-timestamp") == 0
        with open(out / "classify.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["status"] == "ok"
        assert float(row["amplitude"]) == pytest.approx(2.3497, abs=1e-4)

    def test_planar_sweep_writes_plain_cells(self, tmp_path):
        # the N = 2 quadrature's end term must not turn the functionals,
        # and with them the criterion, into numpy scalars with their reprs
        path = write_config(tmp_path / "c.json",
                            params={"N": 2, "a": 1.0, "b": 1.0, "p": 2.0,
                                    "q": 4.0, "omega": 1.0},
                            sweeps={"omegas": [0.3, 1.0]})
        out = tmp_path / "out"
        assert run("classify", "--config", path, "--out", out,
                   "--no-timestamp") == 0
        with open(out / "classify.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert row.pop("status") == "ok"
            assert row.pop("criterion_met") in ("true", "false")
            for cell in row.values():
                float(cell)

    def test_empty_sweep_exit_2(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        assert run("classify", "--config", path, "--out", tmp_path / "o") == 2

    def test_inadmissible_omega_is_a_row(self, tmp_path):
        path = write_config(tmp_path / "c.json", sweeps={"omegas": [-0.5]})
        out = tmp_path / "out"
        assert run("classify", "--config", path, "--out", out,
                   "--no-timestamp") == 0
        row = (out / "classify.csv").read_text().splitlines()[1]
        assert row.endswith("error: omega must be positive: omega=-0.5")
        # every number, the solver diagnostics included, is NaN
        assert row.startswith("-0.5,nan,nan,nan,nan,false,nan,nan,nan,nan,")

    def test_tiny_amplitude_is_an_ok_row(self, tmp_path):
        # at p = 1.05 and ω = 0.1 the ground state's amplitude is about
        # 1.6e-20; the normalised solve certifies it, and d²S > 0 there
        path = write_config(tmp_path / "c.json",
                            params={**{k: BASE[k] for k in ("N", "a", "b", "q")},
                                    "p": 1.05, "omega": 1.0},
                            sweeps={"omegas": [1.0, 0.1]})
        out = tmp_path / "out"
        assert run("classify", "--config", path, "--out", out,
                   "--no-timestamp") == 0
        with open(out / "classify.csv", newline="") as fh:
            first, tiny = csv.DictReader(fh)
        assert first["status"] == tiny["status"] == "ok"
        assert tiny["criterion_met"] == "false"
        assert float(tiny["amplitude"]) == pytest.approx(1.638616e-20, rel=1e-6)

    def test_program_fault_is_not_a_row(self, tmp_path, monkeypatch):
        # only the package's error taxonomy becomes a row status; any other
        # exception is a fault that fails the command
        def broken(gs):
            raise TypeError("broken classify")
        monkeypatch.setattr(stability, "solve_ground_state", lambda *a: None)
        monkeypatch.setattr(stability, "classify", broken)
        path = write_config(tmp_path / "c.json", sweeps={"omegas": [1.0]})
        out = tmp_path / "out"
        assert run("classify", "--config", path, "--out", out) == 1
        assert not (out / "classify.csv").exists()


class TestBlowupCommand:
    def test_quick_run(self, tmp_path, monkeypatch):
        # modest grid with a lowered detection threshold keeps this fast;
        # the point is the plumbing, not a converged blowup certificate
        monkeypatch.setattr(evolution, "BLOWUP_GRAD_FACTOR", 10.0)
        path = write_config(
            tmp_path / "c.json",
            sweeps={"lambdas": [1.5]},
            evolution={"length": 32.0, "m": 8192, "dt": 1e-3, "t_max": 5.0,
                       "record_every": 20},
        )
        out = tmp_path / "out"
        assert run("blowup", "--config", path, "--out", out,
                   "--no-timestamp") == 0
        assert (out / "trace_lambda_1.5.csv").exists()
        summary = json.loads((out / "blowup_summary.json").read_text())
        (entry,) = summary["runs"]
        assert entry["lambda"] == 1.5
        assert entry["blew_up"] is True
        assert entry["reason"] == "gradient"
        assert entry["invariance_audit"] is True
        assert entry["concavity_audit"] is True
        assert 0.0 < entry["t_detect"] < entry["t_bound"]
        assert "virial_mismatch" not in entry
        assert None not in entry.values()
        assert entry["steps"] > 0 and entry["dt_reductions"] >= 1
        assert entry["dt_min"] == 1e-3 * 0.5 ** entry["dt_reductions"]
        assert entry["mass_drift"] <= 1e-10
        assert 0.0 <= entry["energy_drift"] < 1.0
        assert 0.0 < entry["audited_fraction"] <= 1.0

    def test_empty_sweep_exit_2(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        assert run("blowup", "--config", path, "--out", tmp_path / "o") == 2

    def test_one_trace_file_per_lambda(self, tmp_path, monkeypatch):
        # lambdas that agree to six digits still get a trace file each
        def stub_run(gs, lam, grid, cfg):
            record = TraceRecord(*[0.0] * 10, t=lam, variance=0.0,
                                 sup_amp=0.0)
            return {"lambda": lam}, SimpleNamespace(trace=[record])
        monkeypatch.setattr(cli, "solve_ground_state", lambda *a: None)
        monkeypatch.setattr(stability, "blowup_run", stub_run)
        lambdas = [1.000001, 1.000002, 1.2, 1.5]
        path = write_config(tmp_path / "c.json", sweeps={"lambdas": lambdas})
        out = tmp_path / "out"
        assert run("blowup", "--config", path, "--out", out,
                   "--no-timestamp") == 0
        names = sorted(f.name for f in out.glob("trace_lambda_*.csv"))
        assert names == ["trace_lambda_1.000001.csv",
                         "trace_lambda_1.000002.csv",
                         "trace_lambda_1.2.csv", "trace_lambda_1.5.csv"]
        for lam in lambdas:
            with open(out / f"trace_lambda_{lam!r}.csv", newline="") as fh:
                (row,) = csv.DictReader(fh)
            assert float(row["t"]) == lam


class TestVerifyLemmaCommand:
    def config(self, tmp_path):
        return write_config(
            tmp_path / "c.json",
            lemma={"pairs": 20, "lambda_points": 1000, "samples": 20},
            seed=5,
        )

    def test_run_and_outputs(self, tmp_path):
        path = self.config(tmp_path)
        out = tmp_path / "out"
        assert run("verify-lemma", "--config", path, "--out", out,
                   "--no-timestamp") == 0
        summary = json.loads((out / "lemma_summary.json").read_text())
        assert summary["sign_suite_ok"] and summary["key_estimate_ok"]
        assert summary["key_estimate_samples"] == 20

    def test_deterministic_with_seed(self, tmp_path):
        # --seed 5 over a config seed 0 reruns the config seed 5
        path = self.config(tmp_path)
        zero = json.loads(path.read_text())
        zero["seed"] = 0
        (tmp_path / "zero.json").write_text(json.dumps(zero))
        outs = [tmp_path / "o1", tmp_path / "o2"]
        assert run("verify-lemma", "--config", path, "--out", outs[0],
                   "--no-timestamp") == 0
        assert run("verify-lemma", "--config", tmp_path / "zero.json",
                   "--out", outs[1], "--seed", 5, "--no-timestamp") == 0
        for fname in ("sign_suite.csv", "key_estimate.csv",
                      "lemma_summary.json"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, f"{fname} differs between seeded reruns"

    def test_short_key_estimate_sample_fails(self, tmp_path):
        # at this seed no candidate meets the Lemma hypotheses, so the
        # audit keeps 0 of the 1 requested samples: not a pass
        path = write_config(
            tmp_path / "c.json",
            lemma={"pairs": 2, "lambda_points": 100, "samples": 1})
        out = tmp_path / "out"
        assert run("verify-lemma", "--config", path, "--out", out,
                   "--seed", 2, "--no-timestamp") == 1
        summary = json.loads((out / "lemma_summary.json").read_text())
        assert summary["key_estimate_samples"] == 0
        assert summary["key_estimate_ok"] is False
        assert summary["sign_suite_ok"] is True
