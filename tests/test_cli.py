import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coxkit import cli, optim, riskmlp
from coxkit.cli import (
    UsageError,
    build_parser,
    canonical_json,
    config_hash,
    load_config,
    main,
    write_svg,
)
from coxkit.data import (
    StandardizationParams,
    load_csv,
    split_indices,
    write_columns,
    write_csv,
)
from coxkit.metrics import kaplan_meier, median_survival
from coxkit.plots import render_km_svg
from coxkit.simulate import SimulationSpec, generate
from helpers import (
    reference_model_inputs,
    reference_write_csv,
    reference_write_history,
    reference_write_true_risks,
)


def run(argv):
    return main(argv)


def read_bytes(path):
    return path.read_bytes()


def write_cohort(directory, spec):
    """The dataset section of a train config reading `spec`'s simulated cohort,
    written to `directory` as `coxkit simulate` writes it."""
    directory.mkdir(exist_ok=True)
    sim = generate(spec)
    write_csv(sim.dataset, directory / "dataset.csv")
    write_columns(directory / "true_risks.csv", ["true_risk"], [sim.true_risks])
    return {"csv": str(directory / "dataset.csv"),
            "risks_csv": str(directory / "true_risks.csv")}


def make_train_config(tmp_path, **overrides):
    cfg = {
        "dataset": write_cohort(
            tmp_path / "cohort", SimulationSpec(n=240, d=4, risk_kind="linear", seed=3)
        ),
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


# JSON values by kind, and the kinds each key of a train config accepts
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-(10**6), 10**6),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=5),
    "array": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
INT, NUMBER, TEXT, OBJECT = {"int"}, {"int", "float"}, {"string"}, {"object"}
CONFIG_KINDS = {
    "schema_version": INT,
    "dataset": OBJECT,
    "dataset.csv": TEXT,
    "dataset.time_col": TEXT,
    "dataset.event_col": TEXT,
    "dataset.treatment_col": TEXT | {"null"},
    "dataset.risks_csv": TEXT | {"null"},
    "split": OBJECT,
    "split.fractions": {"array"},
    **{f"split.fractions[{i}]": NUMBER for i in range(3)},
    "split.seed": INT,
    "model": TEXT,
    "network": OBJECT,
    "network.hidden_layers": INT,
    "network.nodes_per_layer": INT,
    "network.activation": TEXT,
    "network.dropout_rate": NUMBER,
    "network.l2_coefficient": NUMBER,
    "optimizer": OBJECT,
    "optimizer.kind": TEXT,
    **{f"optimizer.{k}": NUMBER
       for k in ("learning_rate", "lr_decay_rate", "momentum")},
    "optimizer.clip_norm": NUMBER | {"null"},
    "optimizer.epochs": INT,
    "optimizer.batch_size": INT | {"null"},
    "optimizer.seed": INT,
    "evaluation": OBJECT,
    "evaluation.bootstrap_replicates": INT,
    "evaluation.alpha": NUMBER,
    "evaluation.seed": INT,
    "out_dir": TEXT,
}


# Every subcommand's options as {flag: (default, required)}. km and recommend
# draw no random number, so they take no --seed.
PARSER_SHAPE = {
    "simulate": {
        "--out-dir": (".", False),
        "--seed": (None, False),
        "--risk": (None, True),
        "--n": (None, True),
        "--d": (10, False),
        "--lambda-max": (5.0, False),
        "--r": (0.5, False),
        "--observed-fraction": (0.9, False),
        "--with-treatment": (False, False),
    },
    "train": {
        "--out-dir": (None, False),
        "--seed": (None, False),
        "--config": (None, True),
    },
    "search": {
        "--out-dir": (".", False),
        "--seed": (None, False),
        "--data": (None, True),
        "--time-col": ("time", False),
        "--event-col": ("event", False),
        "--treatment-col": ("treatment", False),
        "--trials": (10, False),
        "--k": (3, False),
        "--epochs": (200, False),
        "--optimizer": ("adam", False),
        "--space": (None, False),
    },
    "recommend": {
        "--out-dir": (".", False),
        "--data": (None, True),
        "--time-col": ("time", False),
        "--event-col": ("event", False),
        "--treatment-col": ("treatment", False),
        "--model": (None, True),
    },
    "km": {
        "--out-dir": (".", False),
        "--data": (None, True),
        "--time-col": ("time", False),
        "--event-col": ("event", False),
        "--group-by": (None, False),
        "--alpha": (0.05, False),
    },
}


class TestParser:
    def test_shape(self):
        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        shape = {
            name: {
                flag: (action.default, action.required)
                for action in parser._actions
                if not isinstance(action, argparse._HelpAction)
                for flag in action.option_strings
            }
            for name, parser in commands.choices.items()
        }
        assert shape == PARSER_SHAPE

    def test_config_hash_pinned(self, tmp_path):
        # the defaults, network and optimizer included, are part of the hash
        path = tmp_path / "c.json"
        path.write_text('{"dataset": {"csv": "dataset.csv"}}')
        assert config_hash(dataclasses.asdict(load_config(path))) == "4a1e596065c96157"

    def test_commands_default_to_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps({
            "dataset": {"csv": "dataset.csv"},
            "optimizer": {"epochs": 5},
            "evaluation": {"bootstrap_replicates": 5},
        }))
        for argv, written in [
            (["simulate", "--risk", "gaussian", "--lambda-max", "10", "--n", "300",
              "--d", "3", "--with-treatment", "--seed", "2"], "provenance.json"),
            (["train", "--config", "config.json"], "metrics.json"),
            (["recommend", "--model", "model.json", "--data", "dataset.csv"],
             "recommendation.json"),
            (["km", "--data", "dataset.csv"], "km.json"),
            (["search", "--data", "dataset.csv", "--trials", "1", "--k", "2",
              "--epochs", "2"], "best_config.json"),
        ]:
            assert run(argv) == 0, argv[0]
            assert (tmp_path / written).exists(), argv[0]


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

    @pytest.mark.parametrize("extra", [[], ["--with-treatment"]])
    def test_csvs_match_row_writer(self, tmp_path, extra):
        out = tmp_path / "sim"
        assert run(["simulate", "--risk", "gaussian", "--lambda-max", "10",
                    "--n", "5000", "--seed", "3", "--out-dir", str(out)] + extra) == 0
        written = json.loads((out / "provenance.json").read_text())
        comment = canonical_json(written["provenance"])
        sim = generate(SimulationSpec(**written["spec"]))
        reference_write_csv(sim.dataset, tmp_path / "dataset.csv", comment)
        reference_write_true_risks(sim.true_risks, tmp_path / "true_risks.csv", comment)
        for name in ("dataset.csv", "true_risks.csv"):
            assert read_bytes(out / name) == read_bytes(tmp_path / name)

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
        assert metrics["risk_mse"] is not None  # the cohort has a true-risk sidecar
        model = json.loads((out / "model.json").read_text())
        assert model["model_type"] == "deep_cox"
        assert len(model["layers"]) == 2
        history = (out / "history.csv").read_text().splitlines()
        assert history[1] == "epoch,learning_rate,train_loss,val_cindex"
        assert len(history) == 2 + 30

    def test_history_matches_row_writer(self, tmp_path, monkeypatch):
        histories = []
        train = optim.train

        def spy(*args, **kwargs):
            net, history = train(*args, **kwargs)
            histories.append(history)
            return net, history

        monkeypatch.setattr(optim, "train", spy)
        config = make_train_config(tmp_path)
        assert run(["train", "--config", str(config)]) == 0
        out = tmp_path / "out"
        provenance = json.loads((out / "model.json").read_text())["provenance"]
        reference_write_history(
            histories[0], tmp_path / "history.csv", canonical_json(provenance)
        )
        assert read_bytes(out / "history.csv") == read_bytes(tmp_path / "history.csv")

    def test_linear_model(self, tmp_path):
        config = make_train_config(tmp_path, model="linear_cph")
        assert run(["train", "--config", str(config)]) == 0
        model = json.loads((tmp_path / "out" / "model.json").read_text())
        assert model["model_type"] == "linear_cph"
        assert len(model["beta"]) == 4
        assert not (tmp_path / "out" / "history.csv").exists()

    def test_repeated_header_name_exit_2(self, tmp_path, capsys):
        # the second `x` column would read the first's cells
        data = tmp_path / "d.csv"
        rows = [f"{i},{10 * i},{1 + i},{i % 2}" for i in range(40)]
        data.write_text("x,x,time,event\n" + "\n".join(rows) + "\n", encoding="utf-8")
        config = make_train_config(tmp_path, dataset={"csv": str(data)})
        assert run(["train", "--config", str(config)]) == 2
        assert "column 'x' appears more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("model", ["deep_cox", "linear_cph"])
    def test_metric_fault_writes_nothing(self, tmp_path, capsys, model):
        # one event in 12 patients: the test split has no comparable pair
        sim_dir = tmp_path / "sim"
        assert run(["simulate", "--risk", "linear", "--n", "12", "--d", "2",
                    "--observed-fraction", "0.1", "--seed", "1",
                    "--out-dir", str(sim_dir)]) == 0
        config = make_train_config(
            tmp_path,
            dataset={"csv": str(sim_dir / "dataset.csv")},
            split={"fractions": [0.6, 0.2, 0.2], "seed": 0},
            model=model,
        )
        assert run(["train", "--config", str(config)]) == 2
        assert "no comparable pairs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "risks, message",
        [
            ("id,true_risk\n0,0.5\n1\n", "row 2: expected at least 2 cells, got 1"),
            ("true_risk\n0.5\nabc\n", "non-numeric value 'abc' in column 'true_risk' at row 2"),
            ("true_risk\nnan\n0.5\n", "non-finite value 'nan' in column 'true_risk' at row 1"),
        ],
    )
    def test_malformed_risks_sidecar_exit_2(self, tmp_path, capsys, risks, message):
        data = tmp_path / "d.csv"
        write_csv(generate(SimulationSpec(n=40, d=3, risk_kind="linear", seed=5)).dataset, data)
        sidecar = tmp_path / "risks.csv"
        sidecar.write_text(risks, encoding="utf-8")
        config = make_train_config(
            tmp_path, dataset={"csv": str(data), "risks_csv": str(sidecar)}
        )
        assert run(["train", "--config", str(config)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_bad_config_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(["train", "--config", str(path)]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        config = make_train_config(tmp_path, typo_key=1)
        assert run(["train", "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"split": {"fractions": 5}},
             "bad config: split.fractions must be an array of 3 entries, got 5"),
            ({"evaluation": {"bootstrap_replicates": "x"}},
             "bad config: evaluation.bootstrap_replicates must be an integer, got 'x'"),
            ({"split": 5}, "bad config: split must be a JSON object, got 5"),
            ({"dataset": {"csv": 5}},  # open(5) would read file descriptor 5
             "bad config: dataset.csv must be a string, got 5"),
            ({"split": {"fractions": [0.5, None, 0.5]}},
             "bad config: split.fractions[1] must be a number, got None"),
            ({"out_dir": 5}, "bad config: out_dir must be a string, got 5"),
        ],
        ids=["fractions", "bootstrap-replicates", "split-section", "csv-number",
             "fraction-null", "out-dir"],
    )
    def test_wrong_json_type_exit_2(self, tmp_path, capsys, override, message):
        config = make_train_config(tmp_path, **override)
        assert run(["train", "--config", str(config)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"optimizer": {"epochs": 2.5}}, "optimizer.epochs"),
            ({"optimizer": {"batch_size": 64.5}}, "optimizer.batch_size"),
            ({"optimizer": {"epochs": True}}, "optimizer.epochs"),
            ({"network": {"hidden_layers": True}}, "network.hidden_layers"),
            ({"optimizer": {"clip_norm": True}}, "optimizer.clip_norm"),
            ({"schema_version": True}, "schema_version"),
            ({"dataset": {"csv": "d.csv", "simulate": {"n": 240, "d": 4}}},
             "dataset.simulate"),
            ({"dataset": {"risks_csv": "r.csv"}}, "dataset.csv"),
            ({"model": "linear_cph", "network": {"hidden_layers": 0}},
             "network.hidden_layers"),
            ({"model": "bogus"}, "model"),
            ({"schema_version": 2}, "schema_version"),
            ({"evaluation": {"alpha": 5}}, "evaluation.alpha"),
            ({"evaluation": {"alpha": 0}}, "evaluation.alpha"),
            ({"evaluation": {"bootstrap_replicates": 1}}, "evaluation.bootstrap_replicates"),
            ({"standardize": False}, "standardize"),
        ],
        ids=["epochs-float", "batch-size-float", "epochs-bool", "hidden-layers-bool",
             "clip-norm-bool", "schema-version-bool", "simulate-block", "csv-missing",
             "linear-cph-network", "unknown-model", "schema-version-2", "alpha-above-1",
             "alpha-0", "one-bootstrap-replicate", "standardize"],
    )
    def test_config_fault_exit_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, override, key
    ):
        def no_data(*args):
            raise AssertionError("data loaded for a bad config")

        monkeypatch.setattr(cli, "_load_source", no_data)
        config = make_train_config(tmp_path, **override)
        assert run(["train", "--config", str(config)]) == 2
        assert f"bad config: {key} " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "override, literal",
        [
            ({"optimizer": {"learning_rate": float("nan")}}, "NaN"),
            ({"network": {"l2_coefficient": float("inf")}}, "Infinity"),
            ({"evaluation": {"alpha": float("-inf")}}, "-Infinity"),
        ],
        ids=["nan", "infinity", "minus-infinity"],
    )
    def test_non_json_constant_exit_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, override, literal
    ):
        def no_data(*args):
            raise AssertionError("data loaded for a bad config")

        monkeypatch.setattr(cli, "_load_source", no_data)
        config = make_train_config(tmp_path, **override)  # json.dumps writes NaN
        assert run(["train", "--config", str(config)]) == 2
        assert f"{literal} is not a JSON value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_wrong_json_kind_at_any_leaf_is_usage_error(self, tmp_path, data):
        key, accepted = data.draw(st.sampled_from(sorted(CONFIG_KINDS.items())))
        kind = data.draw(st.sampled_from(sorted(JSON_VALUES.keys() - accepted)))
        value = data.draw(JSON_VALUES[kind])
        path = make_train_config(tmp_path)
        cfg = json.loads(path.read_text())
        *parents, last = [int(p) if p.isdigit() else p for p in re.findall(r"\w+", key)]
        node = cfg
        for part in parents:
            node = node[part]
        node[last] = value
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(UsageError, match=re.escape(f"bad config: {key} ")):
            load_config(path)

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
        assert all(len(t["fold_errors"]) == 2 for t in log["trials"])
        winner = log["trials"][log["best_trial"]]
        best = json.loads((out / "best_config.json").read_text())
        assert (best["network"], best["optimizer"]) == (winner["network"], winner["optimizer"])
        assert best["dataset"] == {"csv": str(sim_dir / "dataset.csv"), "time_col": "time",
                                   "event_col": "event", "treatment_col": "treatment",
                                   "risks_csv": None}
        # a train config, read back by the same checks to the same JSON
        path = out / "best_config.json"
        assert canonical_json(dataclasses.asdict(load_config(path))) == canonical_json(best)

    def test_best_config_trains_unedited(self, tmp_path, monkeypatch):
        """simulate -> search -> train --config best_config.json -> recommend,
        with relative paths resolved against the working directory."""
        monkeypatch.chdir(tmp_path)
        for argv in [
            ["simulate", "--risk", "gaussian", "--n", "300", "--d", "3", "--lambda-max", "10",
             "--with-treatment", "--seed", "2", "--out-dir", "sim"],
            ["search", "--data", "sim/dataset.csv", "--trials", "2", "--k", "2",
             "--epochs", "3", "--seed", "4", "--out-dir", "search"],
            ["train", "--config", "search/best_config.json", "--out-dir", "train"],
            ["recommend", "--model", "train/model.json", "--data", "sim/dataset.csv",
             "--out-dir", "rec"],
        ]:
            assert run(argv) == 0, argv[0]
        best = json.loads((tmp_path / "search" / "best_config.json").read_text())
        model = json.loads((tmp_path / "train" / "model.json").read_text())
        assert model["config"] == best["network"]
        assert (tmp_path / "rec" / "recommendation.json").exists()

    @pytest.mark.parametrize(
        "key, bounds",
        [
            ("hidden_layers", [0, 3]),
            ("nodes_per_layer", [0, 4]),
            ("dropout", [0, 1.0]),
            ("l2", [-1, 0]),
            ("lr_decay", [-1e-3, 0]),
            ("momentum", [0.5, 1.0]),
            ("learning_rate", [0, 1e-2]),
        ],
    )
    def test_space_bound_outside_config_rule_exit_2(self, tmp_path, capsys, key, bounds):
        """A bound that a network or optimizer config refuses is refused at
        every seed, not only when a trial happens to draw it."""
        run(["simulate", "--risk", "linear", "--n", "60", "--d", "3",
             "--out-dir", str(tmp_path)])
        path = tmp_path / "space.json"
        path.write_text(json.dumps({key: bounds}), encoding="utf-8")
        for seed in range(1, 6):
            out = tmp_path / f"search{seed}"
            code = run(["search", "--data", str(tmp_path / "dataset.csv"), "--space",
                        str(path), "--trials", "2", "--k", "2", "--epochs", "2",
                        "--seed", str(seed), "--out-dir", str(out)])
            assert code == 2, seed
            assert "bad search space: " in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "space, message",
        [
            ([1, 2], "bad search space: must be a JSON object, got [1, 2]"),
            ({"dropout": 5},
             "bad search space: dropout must be an array of 2 entries, got 5"),
            ({"hidden_layers": [1.5, 3]},
             "bad search space: hidden_layers[0] must be an integer, got 1.5"),
            ({"hidden_layers": [True, 2]},
             "bad search space: hidden_layers[0] must be an integer, got True"),
            ({"hidden_layers": [4]},
             "bad search space: hidden_layers must be an array of 2 entries, got [4]"),
            ({"activations": ["tanh"]},
             "bad search space: activations must be a non-empty subset of ('relu', 'selu')"),
            ({"learning_rate": [1e-4, float("inf")]}, "Infinity is not a JSON value"),
        ],
        ids=["space0", "space1", "float-bound", "bool-bound", "one-bound",
             "unknown-activation", "infinite-bound"],
    )
    def test_wrong_json_type_space_exit_2(self, tmp_path, capsys, space, message):
        run(["simulate", "--risk", "linear", "--n", "60", "--d", "3",
             "--out-dir", str(tmp_path)])
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space), encoding="utf-8")
        code = run(["search", "--data", str(tmp_path / "dataset.csv"),
                    "--space", str(path), "--out-dir", str(tmp_path / "search")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "search").exists()

    def test_ignores_rows_outside_its_training_split(self, tmp_path, monkeypatch):
        """Two files that differ only in the covariates and times of the rows
        `train`'s default split holds out search to the same bytes, and the
        winner keeps that split."""
        ds = generate(SimulationSpec(n=90, d=3, risk_kind="gaussian", lambda_max=10.0,
                                     with_treatment=True, seed=5)).dataset
        split = cli.SplitConfig()
        held_out = np.concatenate(split_indices(ds.n, split.fractions, split.seed)[1:])
        covariates, times = ds.covariates.copy(), ds.times.copy()
        covariates[held_out] = -3.0 * covariates[held_out] + 1.0
        times[held_out] = times[held_out][::-1] + 0.5
        written = []
        for name, data in [("a", ds),
                           ("b", dataclasses.replace(ds, covariates=covariates, times=times))]:
            (tmp_path / name).mkdir()
            write_csv(data, tmp_path / name / "dataset.csv")
            monkeypatch.chdir(tmp_path / name)
            assert run(["search", "--data", "dataset.csv", "--trials", "2", "--k", "2",
                        "--epochs", "3"]) == 0
            written.append({f: read_bytes(tmp_path / name / f)
                            for f in ("dataset.csv", "search_trials.json", "best_config.json")})
        assert written[0].pop("dataset.csv") != written[1].pop("dataset.csv")
        assert written[0] == written[1]
        best = json.loads(written[0]["best_config.json"])
        assert best["split"] == json.loads(canonical_json(dataclasses.asdict(split)))

    def test_config_hash_covers_column_flags(self, tmp_path):
        """A column flag changes what search reads, so it changes the hash."""
        run(["simulate", "--risk", "linear", "--n", "60", "--d", "3", "--with-treatment",
             "--out-dir", str(tmp_path)])
        hashes = set()
        for name, flags in [("a", []), ("b", ["--treatment-col", "none_such"])]:
            out = tmp_path / name
            assert run(["search", "--data", str(tmp_path / "dataset.csv"), *flags,
                        "--trials", "1", "--k", "2", "--epochs", "2",
                        "--out-dir", str(out)]) == 0
            log = json.loads((out / "search_trials.json").read_text())
            hashes.add(log["provenance"]["config_hash"])
        assert len(hashes) == 2

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


def train_treatment_model(tmp_path, model):
    """Train `model` on a treatment dataset; its model file and fresh data."""
    config = make_train_config(
        tmp_path,
        dataset=write_cohort(
            tmp_path / "treatment",
            SimulationSpec(n=400, d=4, risk_kind="gaussian", lambda_max=10.0,
                           r=0.5, with_treatment=True, seed=11),
        ),
        model=model,
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


# the keys of a model file, by model type
MODEL_FILE_KEYS = {
    "deep_cox": {"model_type", "config", "layers", "feature_names",
                 "standardization", "treatment_labels", "provenance"},
    "linear_cph": {"model_type", "beta", "converged", "iterations", "log_likelihood",
                   "diverged", "feature_names", "standardization", "treatment_labels",
                   "provenance"},
}


class TestRecommendCommand:
    @pytest.fixture()
    def trained_treatment_model(self, tmp_path):
        return train_treatment_model(tmp_path, "deep_cox")

    @pytest.mark.parametrize("model_type", sorted(MODEL_FILE_KEYS))
    def test_model_file_keys(self, tmp_path, model_type):
        """`train` writes exactly the keys `recommend` reads, and `recommend`
        accepts the file."""
        model, data = train_treatment_model(tmp_path, model_type)
        assert json.loads(model.read_text()).keys() == MODEL_FILE_KEYS[model_type]
        assert run(["recommend", "--model", str(model), "--data", str(data),
                    "--out-dir", str(tmp_path / "rec")]) == 0

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

    def test_rec_values_are_the_model_on_its_own_inputs(
        self, tmp_path, trained_treatment_model
    ):
        """Each `rec_values` entry is exactly the network's risk with the
        treatment input 1 minus with 0, on inputs built by the oracle from the
        model file's standardization."""
        model, data = trained_treatment_model
        out = tmp_path / "rec"
        assert run(["recommend", "--model", str(model), "--data", str(data),
                    "--out-dir", str(out)]) == 0
        payload = json.loads(model.read_text())
        net = riskmlp.from_dict(payload)
        std = payload["standardization"]
        params = StandardizationParams(std["means"], std["stddevs"])
        x = reference_model_inputs(load_csv(data), params).covariates.copy()
        risks = {}
        for label in (0, 1):
            x[:, -1] = label
            risks[label] = riskmlp.forward(net, x)
        body = json.loads((out / "recommendation.json").read_text())
        assert body["rec_values"] == (risks[1] - risks[0]).tolist()

    def test_data_without_treatment_exit_2(self, tmp_path, trained_treatment_model):
        model, _ = trained_treatment_model
        sim = generate(SimulationSpec(n=50, d=4, risk_kind="linear", seed=13))
        plain = tmp_path / "plain.csv"
        write_csv(sim.dataset, plain)
        assert run(["recommend", "--model", str(model), "--data", str(plain),
                    "--out-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda m: m.pop("layers"), "KeyError: 'layers'"),
            (lambda m: m.pop("feature_names"), "KeyError: 'feature_names'"),
            (lambda m: m["config"].update(hidden_layers="2"), "TypeError"),
            (lambda m: m.update(config=5), "TypeError"),
            (lambda m: m["layers"][0]["weights"][0].__setitem__(0, None),
             "weights and biases must be finite"),
            (lambda m: m["layers"][1]["bias"].__setitem__(0, float("nan")),
             "NaN is not a JSON value"),
            (lambda m: m["layers"][0].update(weights=[1.0, 2.0]), "IndexError"),
            (lambda m: m["config"].update(hidden_layers=3),
             "hidden layer widths must match the network config"),
            (lambda m: m.update(model_type="bogus"), "KeyError: 'bogus'"),
            (lambda m: m.update(standardization={"means": [0.0]}), "KeyError: 'stddevs'"),
            (lambda m: m.update(standardization=None), "TypeError"),
            (lambda m: m["standardization"]["means"].__setitem__(0, None),
             "means and stddevs must be finite"),
            (lambda m: m["standardization"].update(stddevs=m["standardization"]["stddevs"][:1]),
             "ValueError: means and stddevs must be 1-d arrays of equal length"),
            (lambda m: m.pop("treatment_labels"), "KeyError: 'treatment_labels'"),
            (lambda m: m.update(treatment_labels=[0, 1.0]),
             "ValueError: treatment_labels must be null or a list of integers"),
            (lambda m: m.clear(), "KeyError: 'model_type'"),
            (lambda m: m.update(input_dim=99), "unknown keys ['input_dim']"),
            (lambda m: m.update(treatment_index=0), "unknown keys ['treatment_index']"),
            (lambda m: m.update(input_dim=99, treatment_index=0),
             "unknown keys ['input_dim', 'treatment_index']"),
        ],
        ids=["missing-layers", "missing-feature-names", "hidden-layers-string",
             "config-number", "null-weight", "nan-bias", "flat-weights",
             "config-contradicts-layers", "unknown-model-type", "missing-stddevs",
             "null-standardization", "null-mean", "one-stddev", "missing-treatment-labels",
             "float-treatment-label", "empty-object", "input-dim", "treatment-index",
             "contradicting-keys"],
    )
    def test_malformed_model_file_exit_2(
        self, tmp_path, capsys, trained_treatment_model, corrupt, message
    ):
        model, data = trained_treatment_model
        payload = json.loads(model.read_text())
        corrupt(payload)
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "rec"
        assert run(["recommend", "--model", str(bad), "--data", str(data),
                    "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and message in err
        assert not out.exists()

    def test_two_dimensional_beta_exit_2(self, tmp_path, capsys):
        model, data = train_treatment_model(tmp_path, "linear_cph")
        payload = json.loads(model.read_text())
        payload["beta"] = [[b] for b in payload["beta"]]
        bad = tmp_path / "lin_2d.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "rec"
        assert run(["recommend", "--model", str(bad), "--data", str(data),
                    "--out-dir", str(out)]) == 2
        assert (
            f"bad model file {bad}: ValueError: beta must be a 1-d array, got shape (5, 1)"
            in capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "order, names",
        [([1, 0, 2, 3], ("x1", "x0", "x2", "x3")), ([0, 1, 2, 3], ("a", "x1", "x2", "x3"))],
        ids=["swapped", "renamed"],
    )
    def test_reordered_or_renamed_columns_exit_2(
        self, tmp_path, capsys, trained_treatment_model, order, names
    ):
        model, data = trained_treatment_model
        ds = load_csv(data)
        moved = tmp_path / "moved.csv"
        write_csv(
            dataclasses.replace(ds, covariates=ds.covariates[:, order], feature_names=names),
            moved,
        )
        out = tmp_path / "rec"
        assert run(["recommend", "--model", str(model), "--data", str(moved),
                    "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        expected = ["x0", "x1", "x2", "x3", "treatment"]
        assert f"takes inputs {expected}, data gives {[*names, 'treatment']}" in err
        assert not out.exists()

    def test_unseen_treatment_label_exit_2(self, tmp_path, capsys, trained_treatment_model):
        model, data = trained_treatment_model
        assert json.loads(model.read_text())["treatment_labels"] == [0, 1]
        ds = load_csv(data)
        treatments = ds.treatments.copy()
        treatments[::3] = 2
        relabelled = tmp_path / "relabelled.csv"
        write_csv(dataclasses.replace(ds, treatments=treatments), relabelled)
        out = tmp_path / "rec"
        assert run(["recommend", "--model", str(model), "--data", str(relabelled),
                    "--out-dir", str(out)]) == 2
        assert (
            f"{relabelled}: treatment label 2 is not one model {model} was trained on ([0, 1])"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_missing_model_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "rec"
        missing = tmp_path / "nope.json"
        assert run(["recommend", "--model", str(missing), "--data", "unused.csv",
                    "--out-dir", str(out)]) == 2
        assert f"cannot read model {missing}" in capsys.readouterr().err
        assert not out.exists()


# Runs in a fresh interpreter: pytest's own process has scipy loaded already.
_COLD_START_SCRIPT = """
import json, os, sys
from pathlib import Path
from coxkit import cli

def watched_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "multiprocessing", "concurrent"))

os.chdir(sys.argv[1])
Path("config.json").write_text(json.dumps(
    {"dataset": {"csv": "dataset.csv"}, "out_dir": "train",
     "network": {"hidden_layers": 1, "nodes_per_layer": 4},
     "optimizer": {"epochs": 2}, "evaluation": {"bootstrap_replicates": 5}}))
commands = {
    "simulate": ["simulate", "--risk", "linear", "--n", "120", "--d", "3",
                 "--with-treatment"],
    "train": ["train", "--config", "config.json"],
    "search": ["search", "--data", "dataset.csv", "--trials", "1", "--k", "2",
               "--epochs", "2", "--out-dir", "search"],
    "km": ["km", "--data", "dataset.csv", "--group-by", "treatment", "--out-dir", "km"],
    "recommend": ["recommend", "--model", "train/model.json", "--data", "dataset.csv",
                  "--out-dir", "recommend"],
}
loaded = {}
for name in sys.argv[2:]:
    assert cli.main(commands[name]) == 0, name
    loaded[name] = watched_modules()
print(json.dumps(loaded))
"""


def _modules_loaded_by(tmp_path, order):
    """The scipy, multiprocessing and concurrent modules loaded after each
    command, running `order` one after another in one fresh interpreter."""
    import coxkit

    src = str(Path(coxkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START_SCRIPT, str(tmp_path), *order],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _scipy(modules):
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_only_km_and_recommend_load_scipy(tmp_path):
    """simulate, train and search never import scipy; km and recommend load
    scipy.special for the band quantile and the log-rank p-value, never
    scipy.stats."""
    loaded = _modules_loaded_by(
        tmp_path, ["simulate", "train", "search", "km", "recommend"]
    )
    for command in ("simulate", "train", "search"):
        assert _scipy(loaded[command]) == [], command
    for command in ("km", "recommend"):
        assert "scipy.special" in loaded[command], command
        assert not any(m.startswith("scipy.stats") for m in loaded[command]), command


def test_only_search_loads_multiprocessing(tmp_path):
    """The search worker pool imports multiprocessing and concurrent.futures
    when it starts. simulate and train load neither, and km and recommend
    load no multiprocessing: the concurrent.futures they load comes with
    scipy.special, whose import chain includes numpy.testing."""
    loaded = _modules_loaded_by(
        tmp_path, ["simulate", "train", "km", "recommend", "search"]
    )
    for command in ("simulate", "train"):
        assert loaded[command] == [], command
    for command in ("km", "recommend"):
        assert not any(m.startswith("multiprocessing") for m in loaded[command]), command
    assert {"multiprocessing", "concurrent.futures"} <= set(loaded["search"])


_TRAIN_AND_RECOMMEND_SCRIPT = """
from coxkit import cli
assert cli.main(["train", "--config", "../config.json"]) == 0
assert cli.main(["recommend", "--model", "out/model.json",
                 "--data", "../cohort/dataset.csv", "--out-dir", "out"]) == 0
"""

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """`train` of a 2x57 SELU net with dropout and `recommend` on an odd
    20,001-patient cohort write the same bytes whether OpenBLAS may start 1
    or 2 threads or sizes itself: every command caps it at one thread, and
    its multithreaded kernels sum in another order at these shapes."""
    import coxkit

    simulate = ["simulate", "--risk", "gaussian", "--d", "10", "--lambda-max", "10",
                "--with-treatment"]
    assert run([*simulate, "--n", "6000", "--seed", "3", "--out-dir", str(tmp_path / "sim")]) == 0
    assert run([*simulate, "--n", "20001", "--seed", "4",
                "--out-dir", str(tmp_path / "cohort")]) == 0
    config = {
        "dataset": {"csv": "../sim/dataset.csv"},
        "network": {"hidden_layers": 2, "nodes_per_layer": 57, "activation": "selu",
                    "dropout_rate": 0.3},
        "optimizer": {"epochs": 30},
        "evaluation": {"bootstrap_replicates": 10},
        "out_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    src = str(Path(coxkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    written = {}
    for threads in ("1", "2", None):
        cwd = tmp_path / f"threads_{threads}"
        cwd.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", _TRAIN_AND_RECOMMEND_SCRIPT],
            cwd=cwd, capture_output=True, text=True, timeout=300,
            env=env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads},
        )
        assert done.returncode == 0, done.stderr
        written[threads] = {p.name: p.read_bytes() for p in (cwd / "out").iterdir()}
    assert {"model.json", "history.csv", "metrics.json", "recommendation.json"} <= set(
        written["1"]
    )
    assert written["2"] == written["1"]
    assert written[None] == written["1"]


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

    def test_three_groups_have_curves_and_no_log_rank(self, tmp_path):
        labels = ["alpha", "beta", "gamma"]
        # gamma's patients are mostly censored, so its survival stays above 0.5
        rows = [(1.5 + i % 7, int(i % 3 < 2 or i % 7 == 2), labels[i % 3]) for i in range(60)]
        data = tmp_path / "d.csv"
        data.write_text("time,event,grp\n" + "".join(f"{t},{e},{g}\n" for t, e, g in rows),
                        encoding="utf-8")
        out = tmp_path / "km"
        assert run(["km", "--data", str(data), "--group-by", "grp",
                    "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "km_alpha.csv", "km_beta.csv", "km_gamma.csv"
        ]
        body = json.loads((out / "km.json").read_text())
        assert body["log_rank"] is None
        times = np.array([t for t, _, _ in rows])
        events = np.array([e for _, e, _ in rows])
        groups = np.array([g for _, _, g in rows])
        for label in labels:
            mask = groups == label
            curve = kaplan_meier(times[mask], events[mask])
            assert body["groups"][label] == {
                "n": int(mask.sum()),
                "events": int(events[mask].sum()),
                "median_survival": median_survival(curve),
            }
        assert body["groups"]["gamma"]["median_survival"] is None
        root = ET.fromstring((out / "km.svg").read_text(encoding="utf-8"))
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert [t for t in texts if t in labels] == labels
        assert not any(t.startswith("log-rank") for t in texts)

    def test_single_curve(self, tmp_path):
        sim = generate(SimulationSpec(n=100, d=4, risk_kind="linear", seed=15))
        data = tmp_path / "d.csv"
        write_csv(sim.dataset, data)
        out = tmp_path / "km"
        assert run(["km", "--data", str(data), "--out-dir", str(out)]) == 0
        assert (out / "km.csv").exists()
        assert json.loads((out / "km.json").read_text())["log_rank"] is None

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1,2.0,1,0\n1,3.0\n", "row 2: expected at least 4 cells, got 2"),
            ("1,2.0,1,0\n1,nan,1,1\n", "non-finite value 'nan' in column 'time' at row 2"),
            ("1,inf,0,1\n", "non-finite value 'inf' in column 'time' at row 1"),
        ],
    )
    def test_malformed_row_exit_2(self, tmp_path, capsys, rows, message):
        data = tmp_path / "d.csv"
        data.write_text("x0,time,event,treatment\n" + rows, encoding="utf-8")
        out = tmp_path / "km"
        code = run(["km", "--data", str(data), "--group-by", "treatment",
                    "--out-dir", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "km.json").exists()

    @pytest.mark.parametrize("labels", [("a&b", "c"), ("<x>", "y\"z"), ("a\x01b", "c")])
    def test_svg_parses_with_markup_in_labels(self, tmp_path, labels):
        data = tmp_path / "in--put.csv"
        rows = [f"{1 + i % 7}.5,{i % 2},{labels[i % 2]}" for i in range(40)]
        data.write_text("time,event,grp\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "km"
        assert run(["km", "--data", str(data), "--group-by", "grp",
                    "--out-dir", str(out)]) == 0
        text = (out / "km.svg").read_text(encoding="utf-8")
        root = ET.fromstring(text)
        # XML 1.0 has no way to write a control character such as \x01
        shown = {label.replace("\x01", "\ufffd") for label in labels}
        assert {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")} >= shown
        first = text.splitlines()[0]
        assert first.startswith("<!-- ") and first.endswith(" -->")
        provenance = json.loads((out / "km.json").read_text())["provenance"]
        assert json.loads(first[len("<!-- "):-len(" -->")]) == provenance

    @pytest.mark.parametrize("value", ["in--put", "a---b", "----", "x-", "\\--"])
    def test_svg_comment_holds_any_provenance(self, tmp_path, value):
        provenance = {"data": value, "seeds": {"-": 1}}
        write_svg(tmp_path / "p.svg", "<svg/>\n", provenance)
        text = (tmp_path / "p.svg").read_text(encoding="utf-8")
        ET.fromstring(text)
        first = text.splitlines()[0]
        assert "--" not in first[len("<!--"):-len("-->")]
        assert json.loads(first[len("<!-- "):-len(" -->")]) == provenance

    def test_groups_by_exact_label(self, tmp_path):
        """`a` and `a\x00` are two groups (the CSV reader keeps the NUL), and
        neither takes the other's patients."""
        data = tmp_path / "d.csv"
        rows = ["1,1,a", "2,1,a", "3,0,a", "1.5,1,a\x00", "2.5,1,a\x00"]
        data.write_text("time,event,grp\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "km"
        assert run(["km", "--data", str(data), "--group-by", "grp",
                    "--out-dir", str(out)]) == 0
        groups = json.loads((out / "km.json").read_text())["groups"]
        assert {label: (g["n"], g["events"]) for label, g in groups.items()} == {
            "a": (3, 2), "a\x00": (2, 2)
        }
        assert sorted(p.name for p in out.glob("km_*.csv")) == ["km_a.csv", "km_a_.csv"]

    def test_config_hash_covers_column_flags(self, tmp_path):
        """`--time-col` and `--event-col` change the curves, so they change the hash."""
        data = tmp_path / "d.csv"
        data.write_text("time,time2,event,event2\n1,4,1,0\n2,3,0,1\n3,2,1,1\n4,1,1,0\n",
                        encoding="utf-8")
        hashes = set()
        for name, flags in [("a", []), ("b", ["--time-col", "time2"]),
                            ("c", ["--event-col", "event2"])]:
            out = tmp_path / name
            assert run(["km", "--data", str(data), *flags, "--out-dir", str(out)]) == 0
            hashes.add(json.loads((out / "km.json").read_text())["provenance"]["config_hash"])
        assert len(hashes) == 3

    def test_colliding_group_file_names_exit_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rows = [f"{1 + i % 7}.5,{i % 2},{('a&b', 'a_b')[i % 2]}" for i in range(40)]
        data.write_text("time,event,grp\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "km"
        assert run(["km", "--data", str(data), "--group-by", "grp",
                    "--out-dir", str(out)]) == 2
        assert "'a&b' and 'a_b'" in capsys.readouterr().err
        assert not (out / "km.json").exists()

    def test_group_named_all_gets_its_own_file(self, tmp_path):
        data = tmp_path / "d.csv"
        rows = [f"{1 + i % 7}.5,{i % 2},{('all', 'b')[i % 2]}" for i in range(40)]
        data.write_text("time,event,grp\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "km"
        assert run(["km", "--data", str(data), "--group-by", "grp",
                    "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.csv")) == ["km_all.csv", "km_b.csv"]

    @pytest.mark.parametrize("alpha", ["0", "1", "-1", "1.5", "nan"])
    def test_alpha_outside_unit_interval_exit_2(self, tmp_path, capsys, alpha):
        sim = generate(SimulationSpec(n=200, d=4, risk_kind="linear", seed=15))
        data = tmp_path / "d.csv"
        write_csv(sim.dataset, data)
        out = tmp_path / "km"
        assert run(["km", "--data", str(data), f"--alpha={alpha}",
                    "--out-dir", str(out)]) == 2
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_log_rank_fault_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rows = [f"{1 + i % 7}.5,0,{i % 2}" for i in range(40)]
        data.write_text("time,event,treatment\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "km"
        assert run(["km", "--data", str(data), "--group-by", "treatment",
                    "--out-dir", str(out)]) == 2
        assert "log-rank needs at least one observed event" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_header_name_exit_2(self, tmp_path, capsys):
        # the curves would be read from the first `time` column alone
        data = tmp_path / "d.csv"
        data.write_text("x,time,event,time\n1,2,1,5\n2,3,0,6\n", encoding="utf-8")
        out = tmp_path / "km"
        assert run(["km", "--data", str(data), "--out-dir", str(out)]) == 2
        assert "column 'time' appears more than once" in capsys.readouterr().err
        assert not out.exists()

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

    def test_title_and_labels_escaped(self):
        km = kaplan_meier([1, 2, 3, 4], [1, 0, 1, 1])
        svg = render_km_svg([("a<b & c>d", km)], title="S(t) < 1 & more")
        texts = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert "S(t) < 1 & more" in texts and "a<b & c>d" in texts

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            render_km_svg([])
