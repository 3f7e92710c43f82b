import argparse
import csv
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import fblearn
from fblearn.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_UNSUPPORTED, LAMBDAS,
                         build_parser, main)
from fblearn.config import (SCENARIOS, BasisSection, DiagSection, ExperimentConfig,
                            InspanSection, PendulumSection, SweepSection, apply_overrides,
                            config_from_dict, load_config)
from fblearn.errors import ConfigError
from fblearn.learning import BASELINES
from fblearn.scenarios import build_scenario, policy_config
from fblearn.studies import mc_sweep

CONFIG_DIR = Path(__file__).parent.parent / "configs"
PERFBENCH = Path(__file__).parent.parent / "perfbench"

# dotted key -> why it stays although no shipped run sets it away from its default
KEPT_KEYS = {
    "x0": "tests force a failure at step 0 through the CLI",
    "trials": "ROADMAP item 6 varies the trial count",
    "pendulum.nominal_scale": "ROADMAP item 4's table varies it",
    "inspan.theta_star_seed": "tests use seeds 3 and 4 to build singular in-span plants",
    "basis.degree": "tests build degree-0 features",
}


CONFIG_CLASSES = (ExperimentConfig, PendulumSection, InspanSection, BasisSection, SweepSection,
                  DiagSection)


def minimal(**extra):
    data = {"scenario": "inspan_synthetic", "seed": 1}
    data.update(extra)
    return data


def leaf_keys(cls=ExperimentConfig, prefix=""):
    """The dotted key of every non-section field, as a config spells it."""
    for f in dataclasses.fields(cls):
        key = prefix + f.name
        if "section" in f.metadata:
            yield from leaf_keys(f.metadata["section"], key + ".")
        else:
            yield key


def keys_set_away_from_default(value, cls=ExperimentConfig, prefix=""):
    """The dotted key of every leaf field whose value in ``value`` is not its default."""
    for f in dataclasses.fields(cls):
        field_value = getattr(value, f.name)
        if "section" in f.metadata:
            if field_value is not None:
                yield from keys_set_away_from_default(field_value, f.metadata["section"],
                                                      f"{prefix}{f.name}.")
        elif field_value != f.default:
            yield prefix + f.name


class TestConfigParsing:
    def test_shipped_configs_load(self):
        for name in ("pendulum.yaml", "inspan_mc.yaml", "inspan_diag.yaml"):
            cfg = load_config(CONFIG_DIR / name)
            assert cfg.seed is not None

    def test_defaults_applied(self):
        cfg = config_from_dict(minimal())
        assert cfg.dt == 0.05 and cfg.sigma2 == 0.1
        assert cfg.baseline == "mean_of_past"
        assert cfg.sweep.dt == cfg.sweep.sigma2 == ()

    def test_lambda_alias(self):
        # the confidence levels are fixed (cli.LAMBDAS): sweep.lambda is retired, alias and all
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal(sweep={"lambda": [0.2, 0.1]}))
        assert err.value.problems == ["sweep.lambda: unknown key"]
        assert "lambda" not in config_from_dict(minimal()).to_dict()["sweep"]

    def test_unknown_keys_all_reported(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal(typo_key=1, pendulum={"mass": 2.0}))
        text = str(err.value)
        assert "typo_key" in text and "pendulum.mass" in text

    def test_seed_required(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"scenario": "inspan_synthetic"})

    @pytest.mark.parametrize("text,overrides,message", [
        ("", (), "scenario: required"),
        ("- 1\n", (), "{path}: top level must be a mapping"),
        ("seed: [1,\n", (), "{path}: YAML parse failure"),
        ("scenario: inspan_synthetic\nseed: 1\n", ("sigma2=[0.1,",),
         "override 'sigma2=[0.1,': value does not parse"),
        ("scenario: inspan_synthetic\nseed: 1\nbasis: {box: [[-1, 1]], counts: [2, 2]}\n", (),
         "basis: box and counts must have matching lengths"),
    ], ids=["empty", "a list", "bad YAML", "bad override", "box and counts"])
    def test_a_bad_file_or_override_is_named(self, tmp_path, text, overrides, message):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message.format(path=path))):
            load_config(path, overrides)

    def test_a_parsed_config_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="config file must contain a mapping"):
            config_from_dict([("scenario", "inspan_synthetic"), ("seed", 1)])

    def test_value_validation_collects_everything(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal(dt=-0.1, substeps=0, baseline="median"))
        text = str(err.value)
        assert "dt" in text and "substeps" in text and "baseline" in text

    def test_bad_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            config_from_dict({"scenario": "triple_pendulum", "seed": 1})

    def test_overrides(self):
        data = apply_overrides(minimal(), ["sigma2=0.2", "sweep.dt=[0.1, 0.05]",
                                           "inspan.gamma=[2, 2]"])
        cfg = config_from_dict(data)
        assert cfg.sigma2 == 0.2
        assert cfg.sweep.dt == (0.1, 0.05)
        assert cfg.inspan.gamma == (2, 2)

    def test_an_exponent_without_a_dot_is_a_float(self, tmp_path):
        # PyYAML alone reads 1e-3 as a string, and sigma2 rejected it
        shipped = CONFIG_DIR / "inspan_mc.yaml"
        assert load_config(shipped, ["sigma2=1e-3", "sweep.sigma2=[1e30, 2e-3]"]) \
            == load_config(shipped, ["sigma2=1.0e-3", "sweep.sigma2=[1.0e+30, 2.0e-3]"])
        path = tmp_path / "config.yaml"
        path.write_text("scenario: inspan_synthetic\nseed: 1\nsigma2: 1e-3\n"
                        "sweep:\n  sigma2: [1e-3, 2E+1]\n")
        assert load_config(path) == config_from_dict(
            minimal(sigma2=1.0e-3, sweep={"sigma2": [1.0e-3, 20.0]}))

    @pytest.mark.parametrize("key,values", [("scenario", SCENARIOS), ("baseline", BASELINES)],
                             ids=["scenario", "baseline"])
    def test_every_option_value_is_selected_by_a_shipped_config(self, key, values):
        # a value that no shipped config selects is a code path that no experiment runs
        selected = {getattr(load_config(path), key) for path in CONFIG_DIR.glob("*.yaml")}
        assert set(values) <= selected

    def test_every_config_key_is_set_by_a_shipped_run_or_kept_for_a_reason(self):
        # a key that no run sets away from its default is a constant spelt as a setting
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        runs = [(path.name, ()) for path in CONFIG_DIR.glob("*.yaml")]
        runs += [(Path(w["config"]).name, w["overrides"]) for w in workloads.WORKLOADS.values()]
        set_keys = set().union(*(keys_set_away_from_default(
            load_config(CONFIG_DIR / name, overrides)) for name, overrides in runs))
        keys = list(leaf_keys())
        assert [key for key in keys if key not in set_keys | set(KEPT_KEYS)] == []
        # a kept key is a key, and one that no shipped run sets
        assert [key for key in KEPT_KEYS if key not in keys or key in set_keys] == []

    def test_bad_override_format(self):
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            apply_overrides(minimal(), ["sigma2"])

    def test_snapshot_roundtrip(self):
        # a config with no basis section once wrote basis: null, which the loader refused
        configs = [load_config(path) for path in sorted(CONFIG_DIR.glob("*.yaml"))]
        for cfg in configs + [config_from_dict(minimal(seed=5, horizon_s=1.0))]:
            again = config_from_dict(yaml.safe_load(yaml.safe_dump(cfg.to_dict())))
            assert again == cfg

    def test_every_config_field_declares_its_rule_or_its_section(self):
        sections = set()
        for cls in CONFIG_CLASSES:
            for f in dataclasses.fields(cls):
                if "section" in f.metadata:
                    sections.add(f.metadata["section"])
                else:
                    test, what = f.metadata["rule"]
                    assert callable(test) and what.startswith("be "), f"{cls.__name__}.{f.name}"
        assert sections == set(CONFIG_CLASSES[1:])

    @pytest.mark.parametrize("key", list(leaf_keys()))
    def test_a_bool_fails_every_leaf_key(self, key):
        # a bool passes no rule, so a key added without one fails here
        with pytest.raises(ConfigError, match=f"(?m)^  - {re.escape(key)}:"):
            config_from_dict(apply_overrides(minimal(), [f"{key}=true"]))

    def test_unknown_keys_and_bad_values_are_one_error(self):
        # an unknown key once stopped parsing before any value was checked
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal(typo_key=1, dt=-0.1, sweep={"lam": [0.1], "dt": [0]}))
        assert err.value.problems == [
            "typo_key: unknown key", "dt: must be a positive number, got -0.1",
            "sweep.lam: unknown key",
            "sweep.dt: must be a list of distinct positive numbers, got (0,)"]


class TestScenarios:
    def test_pendulum_defaults(self):
        sc = build_scenario(config_from_dict({"scenario": "double_pendulum", "seed": 3}))
        assert sc.bases.n_scalar == 100
        assert sc.plant.gamma == (2, 2)
        assert sc.theta_star is None
        # x0 matches the reference at t = 0: zero angles, rate sum(a * w)
        rate0 = 0.5 * 0.7 + 0.5 * 0.7 * np.sqrt(2)
        np.testing.assert_allclose(sc.x0, [0.0, 0.0, rate0, rate0])

    def test_inspan_defaults(self):
        sc = build_scenario(config_from_dict(minimal()))
        # degree-1 monomials of the two chain states: 1, x_2, x_1
        assert sc.bases.n_scalar == 3
        np.testing.assert_array_equal(sc.bases.features(np.array([2.0, 3.0])), [1.0, 3.0, 2.0])
        assert sc.theta_star is not None
        assert sc.plant.n == 2

    def test_reference_channel_mismatch(self):
        with pytest.raises(ConfigError, match="reference"):
            build_scenario(config_from_dict(minimal(
                reference=[[[0.5, 0.7, 0.0]], [[0.5, 0.9, 0.0]]])))

    def test_x0_dimension_checked(self):
        with pytest.raises(ConfigError, match="x0"):
            build_scenario(config_from_dict(minimal(x0=[0.0, 0.0, 0.0])))

    def test_basis_box_dimension_checked(self):
        with pytest.raises(ConfigError, match=re.escape(
                "basis.box: needs 2 intervals for this scenario, got 1")):
            build_scenario(config_from_dict(minimal(basis={"box": [[-1.0, 1.0]],
                                                           "counts": [3]})))


class TestCli:
    def test_run_writes_complete_artifact(self, tmp_path):
        code = main(["run", "--config", str(CONFIG_DIR / "pendulum.yaml"),
                     "--out-dir", str(tmp_path), "--override", "horizon_s=5"])
        assert code == EXIT_OK
        out = tmp_path / "double_pendulum_42"
        assert (out / "config.yaml").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 100 and not summary["diverged"]
        with (out / "steps.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["k", "t", "e_norm", "e_1"]
        assert len(rows) - 1 == summary["steps"]
        # summary stats recomputable from the CSV at full precision
        e_norms = np.array([float(r[2]) for r in rows[1:]])
        assert summary["mean_e_norm"] == pytest.approx(e_norms.mean(), rel=1e-12)

    def test_replay_is_byte_identical(self, tmp_path):
        args = ["run", "--config", str(CONFIG_DIR / "pendulum.yaml"),
                "--override", "horizon_s=3"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == EXIT_OK
        a = (tmp_path / "a" / "double_pendulum_42" / "steps.csv").read_bytes()
        b = (tmp_path / "b" / "double_pendulum_42" / "steps.csv").read_bytes()
        assert a == b

    def test_a_snapshot_replays_byte_for_byte(self, tmp_path):
        config = tmp_path / "minimal.yaml"
        config.write_text("scenario: inspan_synthetic\nseed: 5\nhorizon_s: 1.0\n")
        first, again = tmp_path / "a" / "inspan_synthetic_5", tmp_path / "b" / "inspan_synthetic_5"
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "a")]) == EXIT_OK
        assert main(["run", "--config", str(first / "config.yaml"),
                     "--out-dir", str(tmp_path / "b")]) == EXIT_OK
        for name in ("config.yaml", "steps.csv"):
            assert (first / name).read_bytes() == (again / name).read_bytes()

    def test_no_learning_keeps_noise_stream(self, tmp_path):
        # compare's frozen twin sees the noise stream of run's episode
        base = ["--config", str(CONFIG_DIR / "pendulum.yaml"),
                "--out-dir", str(tmp_path), "--override", "horizon_s=3"]
        assert main(["run"] + base) == EXIT_OK
        assert main(["compare"] + base) == EXIT_OK
        with (tmp_path / "double_pendulum_42" / "steps.csv").open() as fh:
            learn_rows = list(csv.DictReader(fh))
        with (tmp_path / "double_pendulum_42_compare" / "no_learning.csv").open() as fh:
            frozen_rows = list(csv.DictReader(fh))
        assert len(learn_rows) == len(frozen_rows) == 60
        for lr, fr in zip(learn_rows, frozen_rows):
            assert lr["w_1"] == fr["w_1"] and lr["w_2"] == fr["w_2"]
        assert all(float(r["theta_norm"]) == 0.0 for r in frozen_rows)

    def test_compare_writes_ratios(self, tmp_path):
        code = main(["compare", "--config", str(CONFIG_DIR / "pendulum.yaml"),
                     "--out-dir", str(tmp_path), "--override", "horizon_s=5"])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "double_pendulum_42_compare" /
                           "comparison.json").read_text())
        assert len(data["mean_e_norm_ratio_per_quarter"]) == 4

    def test_compare_without_mismatch_is_a_wash(self, tmp_path):
        code = main(["compare", "--config", str(CONFIG_DIR / "pendulum.yaml"),
                     "--out-dir", str(tmp_path), "--override", "horizon_s=8",
                     "--override", "pendulum.nominal_scale=1.0"])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "double_pendulum_42_compare" /
                           "comparison.json").read_text())
        assert 0.5 <= data["final_quarter_ratio"] <= 2.0

    def test_quarters_split_the_requested_horizon(self, tmp_path):
        # the learning twin fails at step 6 of 60; its quarters once split its
        # own 6 steps, so the final ratio divided its steps 4-5 by the frozen
        # twin's steps 45-59 (80.1)
        base = ["--config", str(CONFIG_DIR / "inspan_mc.yaml"), "--seed", "3",
                "--out-dir", str(tmp_path)]
        for item in ("sigma2=0.1", "dt=0.05", "basis.beta_scale=1.0",
                     "basis.alpha_scale=1.0", "horizon_s=3"):
            base += ["--override", item]
        assert main(["compare", *base]) == EXIT_DIVERGED
        assert main(["run", *base]) == EXIT_DIVERGED
        data = json.loads((tmp_path / "inspan_synthetic_3_compare" /
                           "comparison.json").read_text())
        assert data["diverged"] == {"learning": True, "no_learning": False}
        assert [q["mean_e_norm"] is None for q in data["learning"]] == [False, True, True, True]
        assert [q["mean_e_norm"] is None for q in data["no_learning"]] == [False] * 4
        assert [r is None for r in data["mean_e_norm_ratio_per_quarter"]] \
            == [False, True, True, True]
        assert data["final_quarter_ratio"] is None
        # run's summary splits the same horizon the same way
        summary = json.loads((tmp_path / "inspan_synthetic_3" / "summary.json").read_text())
        assert summary["steps"] == 6 and summary["quarters"] == data["learning"]

    def test_mc_refuses_the_pendulum(self, tmp_path, capsys):
        code = main(["mc", "--config", str(CONFIG_DIR / "pendulum.yaml"),
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_UNSUPPORTED
        assert "true parameter" in capsys.readouterr().err

    def test_mc_single_cell(self, tmp_path):
        code = main(["mc", "--config", str(CONFIG_DIR / "inspan_mc.yaml"),
                     "--out-dir", str(tmp_path), "--override", "trials=15",
                     "--override", "sweep.dt=[]", "--override", "sweep.sigma2=[]",
                     "--override", "horizon_s=1.0"])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "inspan_synthetic_77_mc" /
                           "concentration.json").read_text())
        assert len(data["cells"]) == 1
        assert data["bias"] is None
        cells = (tmp_path / "inspan_synthetic_77_mc" / "cells.csv").read_text()
        assert cells.startswith("dt,sigma2,trials,diverged,mean_offset")

    def test_mc_bias_csv_is_the_bias_report(self, tmp_path):
        overrides = ["trials=4", "horizon_s=0.4", "dt=0.01", "sweep.dt=[0.04, 0.02]",
                     "sweep.sigma2=[]"]
        code = main(["mc", "--config", str(CONFIG_DIR / "inspan_mc.yaml"),
                     "--out-dir", str(tmp_path)]
                    + [arg for item in overrides for arg in ("--override", item)])
        assert code == EXIT_OK
        out_dir = tmp_path / "inspan_synthetic_77_mc"
        with (out_dir / "bias.csv").open() as fh:
            rows = list(csv.reader(fh))
        written = json.loads((out_dir / "concentration.json").read_text())["bias"]
        config = load_config(CONFIG_DIR / "inspan_mc.yaml", overrides)
        _, bias = mc_sweep(build_scenario(config), policy_config(config), trials=config.trials,
                           lambdas=LAMBDAS, dt_list=config.sweep.dt,
                           bias_dts=config.sweep.dt, horizon_s=config.horizon_s,
                           seed=config.seed, substeps=config.substeps,
                           baseline_kind=config.baseline)
        want = [[f"{dt:.17g}", f"{offset:.17g}"] for dt, offset in zip(bias.dts, bias.offsets)]
        assert len(want) == 2
        assert rows == [["dt", "mean_offset"]] + want
        assert [[f"{dt:.17g}", f"{offset:.17g}"]
                for dt, offset in zip(written["dts"], written["offsets"])] == want

    def test_mc_whose_every_trial_diverged_exits_3(self, tmp_path, capsys):
        # every trial starts past the kernel's state bound (1e9)
        code = main(["mc", "--config", str(CONFIG_DIR / "inspan_mc.yaml"),
                     "--out-dir", str(tmp_path), "--override", "trials=3",
                     "--override", "horizon_s=0.1", "--override", "x0=[3.0e+9, 0, 0, 0]"])
        assert code == EXIT_DIVERGED
        assert "trials of a cell diverged" in capsys.readouterr().err

    def test_diag_whose_ideal_flow_diverges_exits_3(self, tmp_path, capsys, monkeypatch):
        # a regressor scaled by 1e200 overflows the ideal flow of the norm grid
        import fblearn.cli as cli
        series = cli.interp_matrix_series
        monkeypatch.setattr(cli, "interp_matrix_series",
                            lambda t, w: series(t, 1e200 * w))
        code = main(["diag", "--config", str(CONFIG_DIR / "inspan_diag.yaml"),
                     "--out-dir", str(tmp_path), "--override", "horizon_s=10",
                     "--override", "diag.window_s=5"])
        assert code == EXIT_DIVERGED
        assert "ideal-system integration diverged" in capsys.readouterr().err

    def test_diag_whose_noise_free_run_diverges_exits_3(self, tmp_path, capsys):
        # the zero-gain in-span plant of the singular compare below fails at step 0
        code = main(["diag", "--config", str(CONFIG_DIR / "inspan_diag.yaml"),
                     "--out-dir", str(tmp_path),
                     "--override", "basis.degree=0",
                     "--override", "inspan.theta_star_seed=3",
                     "--override", "inspan.theta_star_scale=0.3912875857153224",
                     "--override", "horizon_s=2"])
        assert code == EXIT_DIVERGED
        assert "Traceback" not in capsys.readouterr().err

    def test_diag_reports_pe_and_stability(self, tmp_path):
        code = main(["diag", "--config", str(CONFIG_DIR / "inspan_diag.yaml"),
                     "--out-dir", str(tmp_path), "--override", "horizon_s=40",
                     "--override", "diag.window_s=10"])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "inspan_synthetic_11_diag" / "diag.json").read_text())
        assert data["pe"]["satisfied"] is True
        assert data["stability"]["residual"] <= 0.0

    def test_run_compare_and_diag_never_import_numpy_ma(self, tmp_path):
        # numpy.ma adds 1-2 MB of resident memory; np.setdiff1d pulls it in
        # (mc does import it, through np.quantile in the studies)
        commands = [
            ["run", "--config", str(CONFIG_DIR / "pendulum.yaml"), "--override", "horizon_s=1"],
            ["compare", "--config", str(CONFIG_DIR / "inspan_diag.yaml"),
             "--override", "horizon_s=2"],
            ["diag", "--config", str(CONFIG_DIR / "inspan_diag.yaml"),
             "--override", "horizon_s=20", "--override", "diag.window_s=10"]]
        commands = [argv + ["--out-dir", str(tmp_path)] for argv in commands]
        script = ("import sys\nfrom fblearn.cli import main\n"
                  f"codes = [main(argv) for argv in {commands!r}]\n"
                  "print(codes, 'numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(fblearn.__file__).parent.parent))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines()[-1] == f"{[EXIT_OK] * 3} False"

    def test_diag_window_longer_than_run(self, tmp_path, capsys):
        code = main(["diag", "--config", str(CONFIG_DIR / "inspan_diag.yaml"),
                     "--out-dir", str(tmp_path), "--override", "horizon_s=5",
                     "--override", "diag.window_s=50"])
        assert code == EXIT_CONFIG

    def test_divergence_exit_code_with_partial_artifact(self, tmp_path):
        # an over-aggressive adaptation gain blows the loop up mid-run
        code = main(["run", "--config", str(CONFIG_DIR / "pendulum.yaml"),
                     "--out-dir", str(tmp_path),
                     "--override", "basis.width_rule=1.0",
                     "--override", "basis.beta_scale=1.0",
                     "--override", "basis.alpha_scale=1.0"])
        assert code == EXIT_DIVERGED
        summary = json.loads((tmp_path / "double_pendulum_42" /
                              "summary.json").read_text())
        assert summary["diverged"] and summary["diverged_step"] is not None
        with (tmp_path / "double_pendulum_42" / "steps.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == summary["steps"]

    def test_singular_decoupling_mid_run_is_a_divergence(self, tmp_path):
        # the in-span run blows up mid-run, and the failed step (state bound
        # or a singular alpha) is a divergence: exit 3 with an artifact, not a
        # configuration error
        code = main(["run", "--config", str(CONFIG_DIR / "inspan_diag.yaml"),
                     "--out-dir", str(tmp_path),
                     "--override", "inspan.theta_star_scale=2.0",
                     "--override", "inspan.theta_star_seed=4",
                     "--override", "inspan.phi0_scale=2.0",
                     "--override", "horizon_s=20"])
        assert code == EXIT_DIVERGED
        summary = json.loads((tmp_path / "inspan_synthetic_11" / "summary.json").read_text())
        assert summary["diverged"] and summary["diverged_step"] is not None

    def test_singular_compare_writes_its_artifact(self, tmp_path):
        # one constant feature whose drawn gain entry, scaled by 0.39128...,
        # is exactly -1 (theta_star_seed 3): the in-span plant's gain is zero
        # at every state, so both twins fail at their first step and the run
        # is a divergence with an artifact
        code = main(["compare", "--config", str(CONFIG_DIR / "inspan_diag.yaml"),
                     "--out-dir", str(tmp_path),
                     "--override", "basis.degree=0",
                     "--override", "inspan.theta_star_seed=3",
                     "--override", "inspan.theta_star_scale=0.3912875857153224",
                     "--override", "horizon_s=2"])
        assert code == EXIT_DIVERGED
        out_dir = tmp_path / "inspan_synthetic_11_compare"
        data = json.loads((out_dir / "comparison.json").read_text())
        assert data["diverged"] == {"learning": True, "no_learning": True}
        for name in ("learning.csv", "no_learning.csv"):
            with (out_dir / name).open() as fh:
                assert len(list(csv.reader(fh))) == 1  # the header: no step completed

    def test_json_artifacts_hold_no_nan(self, tmp_path):
        # a run failing at step 0 and a compare of two steps once wrote bare
        # NaN, which is not JSON, for empty quarters, means and ratios
        base = ["--config", str(CONFIG_DIR / "inspan_diag.yaml"), "--out-dir", str(tmp_path),
                "--override", "horizon_s=0.1"]
        assert main(["run", *base, "--override", "x0=[3.0e+9, 0]"]) == EXIT_DIVERGED
        assert main(["compare", *base]) == EXIT_OK

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        artifacts = sorted(tmp_path.rglob("*.json"))
        assert [path.name for path in artifacts] == ["summary.json", "comparison.json"]
        summary, comparison = (json.loads(path.read_text(), parse_constant=refuse)
                               for path in artifacts)
        assert summary["steps"] == 0
        assert summary["mean_e_norm"] is None and summary["mean_reward"] is None
        assert summary["quarters"] == [{"mean_e_norm": None, "max_e_norm": None}] * 4
        # two steps fill the second and fourth quarters only
        for twin in ("learning", "no_learning"):
            assert [q["max_e_norm"] is None for q in comparison[twin]] == [True, False] * 2
        # the run starts on the reference: the second quarter's frozen mean is 0
        assert comparison["no_learning"][1]["mean_e_norm"] == 0.0
        ratios = comparison["mean_e_norm_ratio_per_quarter"]
        assert [r is None for r in ratios] == [True, True, True, False]
        assert comparison["final_quarter_ratio"] == ratios[-1]

    def test_diverging_run_leaks_no_runtime_warning(self, tmp_path):
        # a run that blows up is flagged before any arithmetic overflows in
        # the open: exit 3 with an artifact, even with warnings as errors
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["run", "--config", str(CONFIG_DIR / "inspan_diag.yaml"),
                         "--seed", "510350628", "--out-dir", str(tmp_path),
                         "--override", "inspan.theta_star_scale=2.0",
                         "--override", "inspan.theta_star_seed=4",
                         "--override", "inspan.phi0_scale=2.0",
                         "--override", "horizon_s=20"])
        assert code == EXIT_DIVERGED
        summary = json.loads(
            (tmp_path / "inspan_synthetic_510350628" / "summary.json").read_text())
        assert summary["diverged"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: double_pendulum\nseed: 1\nmystery: 3\n")
        assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path)]) \
            == EXIT_CONFIG
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize("override,key", [
        ("seed=-1", "seed"), (f"seed={2**128}", "seed"),
        ("inspan.theta_star_seed=-1", "inspan.theta_star_seed"),
        ("reference=[[[0.5,0.7]]]", "reference"), ("reference=[[0.5,0.7,0.0]]", "reference"),
        ("inspan.gamma=[]", "inspan.gamma"), ("inspan.gamma=2", "inspan.gamma"),
        ("substeps=true", "substeps"), ("trials=true", "trials"),
        ("basis.degree=true", "basis.degree"), ("dt=true", "dt"),
        ("diag.stride=0", "diag.stride"),
        ("sweep.dt=5", "sweep.dt"), ("sweep.sigma2=0.1", "sweep.sigma2"),
        ("sweep.lambda=0.5", "sweep.lambda"), ("x0=5", "x0"), ("x0=[a,b]", "x0"),
        ("basis.box=3", "basis.box"), ("basis.box=[1,2,3,4]", "basis.box"),
        ("basis.box=[[1,-1],[0,1]]", "basis.box"), ("basis.counts=5", "basis.counts"),
        ("basis.counts=[5,5,2,a]", "basis.counts"), ("inspan.phi0_scale=a", "inspan.phi0_scale"),
        ("dt=.inf", "dt"), ("noise_clip=.nan", "noise_clip"), ("sigma2=.inf", "sigma2"),
        ("pole=-.inf", "pole"), ("horizon_s=.nan", "horizon_s"),
        ("sweep.sigma2=[.nan]", "sweep.sigma2"), ("seed=1e3", "seed"),
        ("scenario=linear_test", "scenario"), ("baseline=sum_of_past", "baseline"),
        ("trials=1", "trials"), ("sweep.dt=[0.02, 0.02]", "sweep.dt"),
        ("sweep.sigma2=[0.001, 0.002, 0.001]", "sweep.sigma2"),
        ("sweep.lam=[0.1]", "sweep.lam"), ("basis.width_rule=0", "basis.width_rule"),
        ("pendulum.m1=2.0", "pendulum.m1"), ("pendulum.gravity=9.0", "pendulum.gravity"),
        ("diag.grid_points=5", "diag.grid_points"), ("diag.fit_step=0.01", "diag.fit_step")])
    def test_bad_values_exit_with_a_config_error(self, tmp_path, capsys, override, key):
        # each once crashed with a traceback, ran, or (for bools) passed as an integer;
        # the linear_test scenario and the sum_of_past baseline ran until retired
        code = main(["run", "--config", str(CONFIG_DIR / "inspan_diag.yaml"),
                     "--out-dir", str(tmp_path), "--override", override])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"{key}:" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command,config,overrides", [
        ("run", "inspan_diag.yaml", ["horizon_s=0.001"]),
        ("compare", "inspan_diag.yaml", ["horizon_s=0.001"]),
        ("mc", "inspan_mc.yaml", ["horizon_s=0.001"]),
        ("mc", "inspan_mc.yaml", ["horizon_s=0.02", "sweep.dt=[0.01, 0.05]"]),
        ("diag", "inspan_diag.yaml", ["horizon_s=0.001"])],
        ids=["run", "compare", "mc", "mc-sweep-dt", "diag"])
    def test_zero_step_horizon_is_a_config_error(self, tmp_path, capsys, command, config,
                                                 overrides):
        # run once wrote NaN summaries, compare a NaN ratio, and mc died on a
        # ZeroDivisionError
        argv = [command, "--config", str(CONFIG_DIR / config), "--out-dir", str(tmp_path)]
        code = main(argv + [arg for item in overrides for arg in ("--override", item)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "horizon_s:" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["compare", "--no-learning"], ["diag", "--no-learning"],
                                      ["run", "--trials", "3"], ["run", "--no-learning"],
                                      ["mc", "--trials", "3"]],
                             ids=["compare-no-learning", "diag-no-learning", "run-trials",
                                  "run-no-learning", "mc-trials"])
    def test_a_flag_its_subcommand_does_not_read_exits_2(self, tmp_path, capsys, argv):
        # compare once ran its learning twin under --no-learning
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(CONFIG_DIR / "inspan_diag.yaml"),
                         "--out-dir", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_every_subcommand_takes_the_same_four_flags(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == {"run", "compare", "mc", "diag"}
        for name, parser in sub.choices.items():
            flags = {flag for action in parser._actions for flag in action.option_strings}
            assert flags == {"-h", "--help", "--config", "--seed", "--out-dir", "--override"}, name

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.yaml"),
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_an_unreadable_config_exits_2_and_names_it(self, tmp_path, capsys, kind):
        path = tmp_path / "config.yaml"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"seed: 1\nscenario: \"\xff\xfe\"\n")
        out = tmp_path / "runs"
        assert main(["run", "--config", str(path), "--out-dir", str(out)]) == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    def test_an_unusable_out_dir_exits_2_and_names_it(self, tmp_path, capsys, monkeypatch):
        # checked before the run: a file in the way once ended the run in a
        # NotADirectoryError traceback, later in exit 2 only once it was done
        import fblearn.cli as cli

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        for runner in ("run_episode", "run_episodes", "mc_sweep"):
            monkeypatch.setattr(cli, runner, no_run)
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        for command, config in (("run", "inspan_diag.yaml"), ("compare", "pendulum.yaml"),
                                ("mc", "inspan_mc.yaml"), ("diag", "inspan_diag.yaml")):
            for out in (a_file, a_file / "runs"):
                code = main([command, "--config", str(CONFIG_DIR / config),
                             "--out-dir", str(out), "--override", "horizon_s=1"])
                err = capsys.readouterr().err
                assert code == EXIT_CONFIG, (command, out)
                assert str(out) in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["a_file"]
        assert a_file.read_text() == ""

    def test_an_out_dir_to_be_made_is_checked_and_left_uncreated(self, tmp_path):
        import fblearn.cli as cli
        cli._check_out_dir(str(tmp_path / "new" / "deeper"))
        assert list(tmp_path.iterdir()) == []

    def test_seed_flag_overrides(self, tmp_path):
        code = main(["run", "--config", str(CONFIG_DIR / "pendulum.yaml"),
                     "--out-dir", str(tmp_path), "--seed", "7",
                     "--override", "horizon_s=1"])
        assert code == EXIT_OK
        assert (tmp_path / "double_pendulum_7").exists()
