"""The four benchmark workloads: inputs, timed coxkit commands and output checks.

Paths are relative to a workload's working directory: set-up writes inputs
under `in/`, the timed commands write their artifacts under `out/`. Only
the simulated data depends on the benchmark seed, so every seed does the same
amount of work; split, optimizer and search seeds are fixed per workload.
The one exception is linear-wide's CPH input (see LINEAR_CPH_SEED).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1

# Sizes chosen so that each timed iteration fits a 20 s run at least once on
# a 2-core machine; every commit must use the same values.
TREATMENT_EPOCHS = 100
SEARCH_TRIALS = 3
SEARCH_K = 3
SEARCH_EPOCHS = 50
# Search seed 9 draws SELU 2x57, SELU 1x47 and ReLU 1x54, so both activations
# train in every run, and one learning rate (0.0066) is large enough to beat
# chance within 50 epochs, which makes the best CV C-index a real guard.
SEARCH_SEED = 9
LINEAR_D = 60
LINEAR_EPOCHS = 20
LINEAR_BOOTSTRAP = 50
# fit_cph does not do the same work on every draw: at convergence the Newton
# step is at rounding level, and when the new log-likelihood rounds below the
# old one the step is halved, each halving a full likelihood evaluation. On
# the linear-wide draws of seeds 1-16 that added 0 to 5 evaluations to the 6
# that Newton needs (mean 0.9, none on eleven seeds), so a
# seed-derived CPH input made the run-to-run spread mostly a matter of which
# seeds were drawn. The CPH input is therefore one fixed draw, simulation seed
# 9, whose fit makes 7 evaluations: Newton's 6 plus one halving, the seeds'
# mean, so a fix for the halving still shows. The deep model trains on the
# seed-derived draw.
LINEAR_CPH_SEED = 9
COHORT_N = 100_000
COHORT_MODEL_EPOCHS = 50
COHORT_SEED_OFFSET = 1_000_000

# The README's treatment-experiment network and optimizer.
README_NETWORK = {
    "hidden_layers": 1,
    "nodes_per_layer": 45,
    "activation": "selu",
    "dropout_rate": 0.1,
    "l2_coefficient": 1.0,
}
README_SPLIT = {"fractions": [0.6667, 0.1667, 0.1666], "seed": 42}


def _adam(epochs: int, lr: float, **extra) -> dict:
    return {"kind": "adam", "learning_rate": lr, "lr_decay_rate": 1e-3,
            "epochs": epochs, "seed": 7, **extra}


def _simulate(risk: str, n: int, d: int, seed: int, out: str, *extra: str) -> list[str]:
    return ["simulate", "--risk", risk, "--n", str(n), "--d", str(d),
            "--r", "0.5", "--seed", str(seed), "--out-dir", out, *extra]


def _read(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _recommendation_quality(path: str) -> dict:
    rec = _read(path)
    return {
        "rec_logrank_chi2": rec["log_rank"]["statistic"],
        "rec_logrank_p": rec["log_rank"]["p_value"],
        "median_rec": rec["median_survival"]["recommendation"],
        "median_anti": rec["median_survival"]["anti_recommendation"],
    }


def _recommendation_checks(q: dict) -> list[tuple[bool, str]]:
    # acceptance criterion 4: the recommendation subset survives longer
    return [
        (q["rec_logrank_p"] < 0.05, f"log-rank p {q['rec_logrank_p']:.3g} >= 0.05"),
        (
            q["median_rec"] is not None
            and (q["median_anti"] is None or q["median_rec"] > q["median_anti"]),
            f"median Rec {q['median_rec']} not above Anti-Rec {q['median_anti']}",
        ),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    d: int
    epochs: int  # training epochs per timed iteration (trials x folds x epochs for search)
    # seed -> (config files to write, coxkit argv lists), run in order
    setup: Callable[[int], tuple[dict[str, dict], list[list[str]]]]
    timed: list[list[str]]
    quality: Callable[[], dict]
    checks: Callable[[dict], list[tuple[bool, str]]]


# ------------------------------------------------------------ treatment-train


def _treatment_setup(seed):
    config = {
        "dataset": {"csv": "in/sim/dataset.csv", "risks_csv": "in/sim/true_risks.csv"},
        "split": README_SPLIT,
        "model": "deep_cox",
        "network": README_NETWORK,
        "optimizer": _adam(TREATMENT_EPOCHS, 5e-3),
        "evaluation": {"bootstrap_replicates": 200},
        "out_dir": "out/train",
    }
    sim = _simulate("gaussian", 6000, 10, seed, "in/sim", "--lambda-max", "10",
                    "--with-treatment")
    return {"in/train.json": config}, [sim]


def _treatment_quality():
    return {"cindex": _read("out/train/metrics.json")["c_index"],
            **_recommendation_quality("out/rec/recommendation.json")}


def _treatment_checks(q):
    # acceptance criterion 4: deep C-index >= 0.55
    return [(q["cindex"] >= 0.55, f"test C-index {q['cindex']:.4f} < 0.55")] + (
        _recommendation_checks(q)
    )


# ------------------------------------------------------------------ search-cv


def _search_setup(seed):
    return {}, [_simulate("gaussian", 6000, 10, seed, "in/sim", "--lambda-max", "5")]


def _search_quality():
    trials = _read("out/search/search_trials.json")["trials"]
    return {
        "cindex": max(t["mean_cindex"] for t in trials),
        "fold_cindex": [t["fold_cindex"] for t in trials],
    }


def _search_checks(q):
    folds = q["fold_cindex"]
    checks = [
        (
            len(folds) == SEARCH_TRIALS and all(len(f) == SEARCH_K for f in folds),
            f"search recorded {[len(f) for f in folds]} fold scores, "
            f"expected {SEARCH_TRIALS} trials x {SEARCH_K}",
        ),
        (q["cindex"] > 0.5, f"best CV C-index {q['cindex']:.4f} <= 0.5"),
    ]
    # a fold scored 0 diverged or had no comparable pair
    for t, scores in enumerate(folds):
        for k, score in enumerate(scores):
            checks.append((score > 0.0, f"trial {t} fold {k} scored {score}"))
    return checks


# ---------------------------------------------------------------- linear-wide


def _linear_setup(seed):
    base = {
        "dataset": {"csv": "in/sim/dataset.csv", "risks_csv": "in/sim/true_risks.csv"},
        "split": README_SPLIT,
        "evaluation": {"bootstrap_replicates": LINEAR_BOOTSTRAP},
    }
    cph = {
        **base,
        "dataset": {"csv": "in/cph/dataset.csv", "risks_csv": "in/cph/true_risks.csv"},
        "model": "linear_cph",
        "out_dir": "out/cph",
    }
    deep = {
        **base,
        "model": "deep_cox",
        "network": {**README_NETWORK, "nodes_per_layer": 4},
        "optimizer": _adam(LINEAR_EPOCHS, 1e-2, batch_size=64),
        "out_dir": "out/deep",
    }
    return {"in/cph.json": cph, "in/deep.json": deep}, [
        _simulate("linear", 6000, LINEAR_D, seed, "in/sim"),
        _simulate("linear", 6000, LINEAR_D, LINEAR_CPH_SEED, "in/cph"),
    ]


def _linear_quality():
    return {"cindex": _read("out/deep/metrics.json")["c_index"],
            "cph_cindex": _read("out/cph/metrics.json")["c_index"]}


def _linear_checks(q):
    # acceptance criterion 1, with the gap widened for the short minibatch
    # run; the two models are tested on draws from the same distribution
    gap = abs(q["cindex"] - q["cph_cindex"])
    return [
        (q["cph_cindex"] >= 0.72, f"CPH C-index {q['cph_cindex']:.4f} < 0.72"),
        (gap <= 0.05, f"deep vs CPH C-index gap {gap:.4f} > 0.05"),
    ]


# ------------------------------------------------------------- cohort-scoring


def _cohort_setup(seed):
    config = {
        "dataset": {"csv": "in/sim/dataset.csv"},
        "split": README_SPLIT,
        "model": "deep_cox",
        "network": README_NETWORK,
        "optimizer": _adam(COHORT_MODEL_EPOCHS, 5e-3),
        "evaluation": {"bootstrap_replicates": 10},
        "out_dir": "in/model",
    }
    treatment = ("--lambda-max", "10", "--with-treatment")
    return {"in/model.json": config}, [
        _simulate("gaussian", 6000, 10, seed, "in/sim", *treatment),
        ["train", "--config", "in/model.json"],
        _simulate("gaussian", COHORT_N, 10, seed + COHORT_SEED_OFFSET, "in/cohort",
                  *treatment),
    ]


def _cohort_quality():
    return {"cindex": _read("in/model/metrics.json")["c_index"],
            **_recommendation_quality("out/rec/recommendation.json")}


def _cohort_checks(q):
    return [(q["cindex"] >= 0.55, f"model C-index {q['cindex']:.4f} < 0.55")] + (
        _recommendation_checks(q)
    )


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="treatment-train",
            why="paper's headline pipeline: deep Cox train with per-epoch validation "
            "C-index and bootstrap, then recommend and km on the treatment cohort",
            n=6000,
            d=10,
            epochs=TREATMENT_EPOCHS,
            setup=_treatment_setup,
            timed=[
                ["train", "--config", "in/train.json"],
                ["recommend", "--model", "out/train/model.json",
                 "--data", "in/sim/dataset.csv", "--out-dir", "out/rec"],
                ["km", "--data", "in/sim/dataset.csv", "--group-by", "treatment",
                 "--out-dir", "out/km"],
            ],
            quality=_treatment_quality,
            checks=_treatment_checks,
        ),
        Workload(
            name="search-cv",
            why="random search, 3-fold CV over ReLU and SELU nets of 1-3 layers: "
            "forward/backward and optimizer dominate, no per-epoch validation",
            n=6000,
            d=10,
            epochs=SEARCH_TRIALS * SEARCH_K * SEARCH_EPOCHS,
            setup=_search_setup,
            timed=[
                ["search", "--data", "in/sim/dataset.csv", "--trials", str(SEARCH_TRIALS),
                 "--k", str(SEARCH_K), "--epochs", str(SEARCH_EPOCHS),
                 "--seed", str(SEARCH_SEED), "--optimizer", "adam",
                 "--out-dir", "out/search"],
            ],
            quality=_search_quality,
            checks=_search_checks,
        ),
        Workload(
            name="linear-wide",
            why="d=60 linear data: Newton fit_cph with its n*d*d tensor, then "
            "minibatch (64) deep training where subset and sort_view run per batch",
            n=6000,
            d=LINEAR_D,
            epochs=LINEAR_EPOCHS,
            setup=_linear_setup,
            timed=[
                ["train", "--config", "in/cph.json"],
                ["train", "--config", "in/deep.json"],
            ],
            quality=_linear_quality,
            checks=_linear_checks,
        ),
        Workload(
            name="cohort-scoring",
            why="no training: CSV parsing, large-batch forward, KM/log-rank and "
            "multi-MB SVG/JSON/CSV writing for a 100k-patient cohort",
            n=COHORT_N,
            d=10,
            epochs=0,
            setup=_cohort_setup,
            timed=[
                ["recommend", "--model", "in/model/model.json",
                 "--data", "in/cohort/dataset.csv", "--out-dir", "out/rec"],
                ["km", "--data", "in/cohort/dataset.csv", "--group-by", "treatment",
                 "--out-dir", "out/km"],
            ],
            quality=_cohort_quality,
            checks=_cohort_checks,
        ),
    ]
}

# Quality at DEFAULT_SEED, recorded from the first run of this benchmark;
# C-indices must match within REFERENCE_CINDEX_TOL, the log-rank statistic
# within REFERENCE_CHI2_RTOL of its value. Training is deterministic, so only
# a change to the arithmetic (e.g. a different summation order) moves them.
REFERENCE_CINDEX_TOL = 0.02
REFERENCE_CHI2_RTOL = 0.10
REFERENCE = {
    "treatment-train": {"cindex": 0.5894, "rec_logrank_chi2": 645.3},
    "search-cv": {"cindex": 0.5860},
    "linear-wide": {"cindex": 0.7701, "cph_cindex": 0.7540},  # CPH on the LINEAR_CPH_SEED draw
    "cohort-scoring": {"cindex": 0.5837, "rec_logrank_chi2": 10020.2},
}


def reference_checks(workload: str, seed: int, q: dict) -> list[tuple[bool, str]]:
    if seed != DEFAULT_SEED:
        return []
    checks = []
    for key, expected in REFERENCE[workload].items():
        got = q[key]
        if key == "rec_logrank_chi2":
            ok = abs(got - expected) <= REFERENCE_CHI2_RTOL * expected
        else:
            ok = abs(got - expected) <= REFERENCE_CINDEX_TOL
        checks.append((ok, f"{key} {got:.6g} differs from reference {expected:.6g}"))
    return checks
