import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from fblearn.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_UNSUPPORTED, main
from fblearn.config import apply_overrides, config_from_dict, load_config
from fblearn.errors import ConfigError
from fblearn.scenarios import build_scenario

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def minimal(**extra):
    data = {"scenario": "inspan_synthetic", "seed": 1}
    data.update(extra)
    return data


class TestConfigParsing:
    def test_shipped_configs_load(self):
        for name in ("pendulum.yaml", "inspan_mc.yaml", "inspan_diag.yaml"):
            cfg = load_config(CONFIG_DIR / name)
            assert cfg.seed is not None

    def test_defaults_applied(self):
        cfg = config_from_dict(minimal())
        assert cfg.dt == 0.05 and cfg.sigma2 == 0.1
        assert cfg.baseline == "mean_of_past"
        assert cfg.sweep.lam == (0.3, 0.1, 0.03)

    def test_lambda_alias(self):
        cfg = config_from_dict(minimal(sweep={"lambda": [0.2, 0.1]}))
        assert cfg.sweep.lam == (0.2, 0.1)
        assert cfg.to_dict()["sweep"]["lambda"] == [0.2, 0.1]

    def test_unknown_keys_all_reported(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal(typo_key=1, pendulum={"mass": 2.0}))
        text = str(err.value)
        assert "typo_key" in text and "pendulum.mass" in text

    def test_seed_required(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"scenario": "linear_test"})

    def test_value_validation_collects_everything(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal(dt=-0.1, pole=2.0, baseline="median"))
        text = str(err.value)
        assert "dt" in text and "pole" in text and "baseline" in text

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

    def test_bad_override_format(self):
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            apply_overrides(minimal(), ["sigma2"])

    def test_snapshot_roundtrip(self):
        cfg = load_config(CONFIG_DIR / "pendulum.yaml")
        again = config_from_dict(yaml.safe_load(yaml.safe_dump(cfg.to_dict())))
        assert again == cfg


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
        assert sc.bases.kind == "polynomial"
        assert sc.theta_star is not None
        assert sc.plant.n == 2

    def test_linear_test_scenario(self):
        sc = build_scenario(config_from_dict({"scenario": "linear_test", "seed": 5}))
        np.testing.assert_array_equal(sc.theta_star, np.zeros(sc.bases.size))

    def test_reference_channel_mismatch(self):
        with pytest.raises(ConfigError, match="reference"):
            build_scenario(config_from_dict(minimal(
                reference=[[[0.5, 0.7, 0.0]], [[0.5, 0.9, 0.0]]])))

    def test_x0_dimension_checked(self):
        with pytest.raises(ConfigError, match="x0"):
            build_scenario(config_from_dict(minimal(x0=[0.0, 0.0, 0.0])))


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

    def test_no_learning_keeps_noise_stream(self, tmp_path):
        base = ["--config", str(CONFIG_DIR / "pendulum.yaml"),
                "--out-dir", str(tmp_path), "--override", "horizon_s=3"]
        assert main(["run"] + base) == EXIT_OK
        assert main(["run", "--no-learning"] + base) == EXIT_OK
        with (tmp_path / "double_pendulum_42" / "steps.csv").open() as fh:
            learn_rows = list(csv.DictReader(fh))
        with (tmp_path / "double_pendulum_42_frozen" / "steps.csv").open() as fh:
            frozen_rows = list(csv.DictReader(fh))
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

    def test_mc_refuses_the_pendulum(self, tmp_path, capsys):
        code = main(["mc", "--config", str(CONFIG_DIR / "pendulum.yaml"),
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_UNSUPPORTED
        assert "true parameter" in capsys.readouterr().err

    def test_mc_single_cell(self, tmp_path):
        code = main(["mc", "--config", str(CONFIG_DIR / "inspan_mc.yaml"),
                     "--out-dir", str(tmp_path), "--trials", "15",
                     "--override", "sweep.dt=[]", "--override", "sweep.sigma2=[]",
                     "--override", "horizon_s=1.0"])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "inspan_synthetic_77_mc" /
                           "concentration.json").read_text())
        assert len(data["cells"]) == 1
        assert data["bias"] is None
        cells = (tmp_path / "inspan_synthetic_77_mc" / "cells.csv").read_text()
        assert cells.startswith("dt,sigma2,trials,diverged,mean_offset")

    def test_diag_reports_pe_and_stability(self, tmp_path):
        code = main(["diag", "--config", str(CONFIG_DIR / "inspan_diag.yaml"),
                     "--out-dir", str(tmp_path), "--override", "horizon_s=40",
                     "--override", "diag.window_s=10"])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "inspan_synthetic_11_diag" / "diag.json").read_text())
        assert data["pe"]["satisfied"] is True
        assert data["stability"]["residual"] <= 0.0

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
        # the in-span plant's alpha turns singular mid-run: exit 3 with an
        # artifact, not a configuration error
        code = main(["run", "--config", str(CONFIG_DIR / "inspan_diag.yaml"),
                     "--out-dir", str(tmp_path),
                     "--override", "inspan.theta_star_scale=2.0",
                     "--override", "inspan.theta_star_seed=4",
                     "--override", "inspan.phi0_scale=2.0",
                     "--override", "horizon_s=20"])
        assert code == EXIT_DIVERGED
        summary = json.loads((tmp_path / "inspan_synthetic_11" / "summary.json").read_text())
        assert summary["diverged"] and summary["diverged_step"] is not None

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: double_pendulum\nseed: 1\nmystery: 3\n")
        assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path)]) \
            == EXIT_CONFIG
        assert "mystery" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.yaml"),
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    def test_seed_flag_overrides(self, tmp_path):
        code = main(["run", "--config", str(CONFIG_DIR / "pendulum.yaml"),
                     "--out-dir", str(tmp_path), "--seed", "7",
                     "--override", "horizon_s=1"])
        assert code == EXIT_OK
        assert (tmp_path / "double_pendulum_7").exists()
