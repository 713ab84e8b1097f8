import json

import pytest

from coxkit.cli import main
from coxkit.data import load_csv, write_csv
from coxkit.metrics import kaplan_meier
from coxkit.plots import render_km_svg
from coxkit.simulate import SimulationSpec, generate


def run(argv):
    return main(argv)


def read_bytes(path):
    return path.read_bytes()


def make_train_config(tmp_path, **overrides):
    cfg = {
        "dataset": {
            "simulate": {"n": 240, "d": 4, "risk_kind": "linear", "seed": 3}
        },
        "split": {"fractions": [0.5, 0.25, 0.25], "seed": 1},
        "model": "deep_cox",
        "network": {"hidden_layers": 1, "nodes_per_layer": 4, "activation": "selu"},
        "optimizer": {"kind": "adam", "learning_rate": 0.01, "epochs": 30, "seed": 2},
        "evaluation": {"bootstrap_replicates": 20, "alpha": 0.05, "seed": 4},
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestSimulateCommand:
    def test_writes_three_files(self, tmp_path):
        out = tmp_path / "sim"
        code = run(
            ["simulate", "--risk", "linear", "--n", "500", "--d", "10",
             "--seed", "1", "--out-dir", str(out)]
        )
        assert code == 0
        assert (out / "dataset.csv").exists()
        assert (out / "true_risks.csv").exists()
        assert (out / "provenance.json").exists()
        prov = json.loads((out / "provenance.json").read_text())
        assert 0.88 <= prov["event_fraction"] <= 0.92
        ds = load_csv(out / "dataset.csv")
        assert ds.n == 500 and ds.d == 10

    def test_gaussian_flags(self, tmp_path):
        out = tmp_path / "g"
        code = run(
            ["simulate", "--risk", "gaussian", "--lambda-max", "5", "--r", "0.5",
             "--n", "100", "--out-dir", str(out)]
        )
        assert code == 0
        spec = json.loads((out / "provenance.json").read_text())["spec"]
        assert spec["lambda_max"] == 5.0 and spec["r"] == 0.5

    def test_missing_n_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--risk", "linear", "--out-dir", str(tmp_path)])
        assert err.value.code == 2

    def test_rerun_byte_identical(self, tmp_path):
        args = ["simulate", "--risk", "linear", "--n", "120", "--seed", "9"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out-dir", str(out1)]) == 0
        assert run(args + ["--out-dir", str(out2)]) == 0
        for name in ("dataset.csv", "true_risks.csv", "provenance.json"):
            assert read_bytes(out1 / name) == read_bytes(out2 / name)

    def test_treatment_column_written(self, tmp_path):
        out = tmp_path / "t"
        run(["simulate", "--risk", "gaussian", "--lambda-max", "10", "--n", "80",
             "--with-treatment", "--out-dir", str(out)])
        ds = load_csv(out / "dataset.csv")
        assert ds.treatments is not None


class TestTrainCommand:
    def test_deep_end_to_end(self, tmp_path):
        config = make_train_config(tmp_path)
        assert run(["train", "--config", str(config)]) == 0
        out = tmp_path / "out"
        metrics = json.loads((out / "metrics.json").read_text())
        assert {"c_index", "ci_lower", "ci_upper", "risk_mse"} <= set(metrics)
        assert metrics["bootstrap_redraws"] == 0
        assert metrics["risk_mse"] is not None  # simulation carries true risks
        model = json.loads((out / "model.json").read_text())
        assert model["model_type"] == "deep_cox"
        assert len(model["layers"]) == 2
        history = (out / "history.csv").read_text().splitlines()
        assert history[1] == "epoch,learning_rate,train_loss,val_cindex"
        assert len(history) == 2 + 30

    def test_linear_model(self, tmp_path):
        config = make_train_config(tmp_path, model="linear_cph")
        assert run(["train", "--config", str(config)]) == 0
        model = json.loads((tmp_path / "out" / "model.json").read_text())
        assert model["model_type"] == "linear_cph"
        assert len(model["beta"]) == 4
        assert not (tmp_path / "out" / "history.csv").exists()

    def test_table_shaped_nonlinear_config_runs(self, tmp_path):
        config = make_train_config(
            tmp_path,
            network={"hidden_layers": 3, "nodes_per_layer": 17, "activation": "relu",
                     "dropout_rate": 0.4, "l2_coefficient": 4.4},
        )
        assert run(["train", "--config", str(config)]) == 0

    def test_rerun_byte_identical(self, tmp_path):
        c1 = make_train_config(tmp_path, out_dir=str(tmp_path / "o1"))
        run(["train", "--config", str(c1)])
        c2 = make_train_config(tmp_path, out_dir=str(tmp_path / "o2"))
        run(["train", "--config", str(c2)])
        # out_dir differs, so compare payloads rather than provenance hashes
        m1 = json.loads((tmp_path / "o1" / "metrics.json").read_text())
        m2 = json.loads((tmp_path / "o2" / "metrics.json").read_text())
        m1.pop("provenance"), m2.pop("provenance")
        assert m1 == m2
        h1 = (tmp_path / "o1" / "history.csv").read_text().splitlines()[1:]
        h2 = (tmp_path / "o2" / "history.csv").read_text().splitlines()[1:]
        assert h1 == h2

    def test_csv_dataset_and_sidecar(self, tmp_path):
        sim_dir = tmp_path / "sim"
        run(["simulate", "--risk", "linear", "--n", "200", "--d", "3",
             "--seed", "5", "--out-dir", str(sim_dir)])
        config = make_train_config(
            tmp_path,
            dataset={"csv": str(sim_dir / "dataset.csv"),
                     "risks_csv": str(sim_dir / "true_risks.csv")},
        )
        assert run(["train", "--config", str(config)]) == 0
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert metrics["risk_mse"] is not None

    def test_bad_config_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(["train", "--config", str(path)]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        config = make_train_config(tmp_path, typo_key=1)
        assert run(["train", "--config", str(config)]) == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergent_training_exit_1(self, tmp_path):
        config = make_train_config(
            tmp_path,
            optimizer={"kind": "sgd", "learning_rate": 1e9, "momentum": 0.0,
                       "epochs": 60, "seed": 2},
        )
        assert run(["train", "--config", str(config)]) == 1

    def test_seed_override_changes_split(self, tmp_path):
        c = make_train_config(tmp_path, out_dir=str(tmp_path / "o1"))
        run(["train", "--config", str(c)])
        c2 = make_train_config(tmp_path, out_dir=str(tmp_path / "o2"))
        run(["train", "--config", str(c2), "--seed", "99"])
        m1 = json.loads((tmp_path / "o1" / "metrics.json").read_text())
        m2 = json.loads((tmp_path / "o2" / "metrics.json").read_text())
        assert m1["c_index"] != m2["c_index"]


class TestSearchCommand:
    def test_trial_log_and_winner(self, tmp_path):
        sim_dir = tmp_path / "sim"
        run(["simulate", "--risk", "linear", "--n", "60", "--d", "3",
             "--seed", "6", "--out-dir", str(sim_dir)])
        out = tmp_path / "search"
        code = run(
            ["search", "--data", str(sim_dir / "dataset.csv"), "--trials", "3",
             "--k", "2", "--epochs", "3", "--seed", "7", "--out-dir", str(out)]
        )
        assert code == 0
        log = json.loads((out / "search_trials.json").read_text())
        assert len(log["trials"]) == 3
        assert log["best_trial"] in (0, 1, 2)
        best = json.loads((out / "best_config.json").read_text())
        assert "network" in best and "optimizer" in best

    def test_rerun_identical(self, tmp_path):
        sim_dir = tmp_path / "sim"
        run(["simulate", "--risk", "linear", "--n", "60", "--d", "3",
             "--seed", "6", "--out-dir", str(sim_dir)])
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            run(["search", "--data", str(sim_dir / "dataset.csv"), "--trials", "2",
                 "--k", "2", "--epochs", "3", "--seed", "8", "--out-dir", str(out)])
            log = json.loads((out / "search_trials.json").read_text())
            log.pop("provenance")
            outs.append(log)
        assert outs[0] == outs[1]


class TestRecommendCommand:
    @pytest.fixture()
    def trained_treatment_model(self, tmp_path):
        config = make_train_config(
            tmp_path,
            dataset={"simulate": {"n": 400, "d": 4, "risk_kind": "gaussian",
                                   "lambda_max": 10.0, "r": 0.5,
                                   "with_treatment": True, "seed": 11}},
            optimizer={"kind": "adam", "learning_rate": 0.01, "epochs": 60, "seed": 2},
        )
        assert run(["train", "--config", str(config)]) == 0
        sim = generate(
            SimulationSpec(n=300, d=4, risk_kind="gaussian", lambda_max=10.0,
                           r=0.5, with_treatment=True, seed=12)
        )
        data_path = tmp_path / "fresh.csv"
        write_csv(sim.dataset, data_path)
        return tmp_path / "out" / "model.json", data_path

    def test_end_to_end(self, tmp_path, trained_treatment_model):
        model, data = trained_treatment_model
        out = tmp_path / "rec"
        code = run(["recommend", "--model", str(model), "--data", str(data),
                    "--out-dir", str(out)])
        assert code == 0
        body = json.loads((out / "recommendation.json").read_text())
        assert body["n_recommendation"] + body["n_anti_recommendation"] == 300
        assert 0.0 <= body["log_rank"]["p_value"] <= 1.0
        assert (out / "km_recommendation.csv").exists()
        assert (out / "km_anti_recommendation.csv").exists()
        svg = (out / "recommendation.svg").read_text()
        assert svg.startswith("<!--") and "<svg" in svg and "log-rank p" in svg

    def test_rerun_byte_identical(self, tmp_path, trained_treatment_model):
        model, data = trained_treatment_model
        o1, o2 = tmp_path / "r1", tmp_path / "r2"
        run(["recommend", "--model", str(model), "--data", str(data), "--out-dir", str(o1)])
        run(["recommend", "--model", str(model), "--data", str(data), "--out-dir", str(o2)])
        for name in ("recommendation.json", "km_recommendation.csv", "recommendation.svg"):
            assert read_bytes(o1 / name) == read_bytes(o2 / name)

    def test_data_without_treatment_exit_2(self, tmp_path, trained_treatment_model):
        model, _ = trained_treatment_model
        sim = generate(SimulationSpec(n=50, d=4, risk_kind="linear", seed=13))
        plain = tmp_path / "plain.csv"
        write_csv(sim.dataset, plain)
        assert run(["recommend", "--model", str(model), "--data", str(plain),
                    "--out-dir", str(tmp_path / "x")]) == 2


class TestKmCommand:
    def test_grouped_two_curves(self, tmp_path):
        sim = generate(
            SimulationSpec(n=200, d=4, risk_kind="gaussian", lambda_max=10.0,
                           r=0.5, with_treatment=True, seed=14)
        )
        data = tmp_path / "d.csv"
        write_csv(sim.dataset, data)
        out = tmp_path / "km"
        code = run(["km", "--data", str(data), "--group-by", "treatment",
                    "--out-dir", str(out)])
        assert code == 0
        assert (out / "km_0.csv").exists() and (out / "km_1.csv").exists()
        body = json.loads((out / "km.json").read_text())
        assert body["log_rank"] is not None
        assert (out / "km.svg").exists()

    def test_single_curve(self, tmp_path):
        sim = generate(SimulationSpec(n=100, d=4, risk_kind="linear", seed=15))
        data = tmp_path / "d.csv"
        write_csv(sim.dataset, data)
        out = tmp_path / "km"
        assert run(["km", "--data", str(data), "--out-dir", str(out)]) == 0
        assert (out / "km.csv").exists()
        assert json.loads((out / "km.json").read_text())["log_rank"] is None

    def test_missing_file_exit_2(self, tmp_path):
        code = run(["km", "--data", str(tmp_path / "nope.csv"),
                    "--out-dir", str(tmp_path)])
        assert code == 2


class TestSvgRendering:
    def test_deterministic_and_wellformed(self):
        km = kaplan_meier([1, 2, 3, 4], [1, 0, 1, 1])
        a = render_km_svg([("g", km)], p_value=0.03)
        b = render_km_svg([("g", km)], p_value=0.03)
        assert a == b
        assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
        assert "log-rank p = 0.03" in a

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            render_km_svg([])
