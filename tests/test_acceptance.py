"""End-to-end acceptance gates for the toolkit.

Each numbered test reproduces one headline result or verification property at
full experiment scale (N = 4000/1000/1000 simulated patients) and reports one
pass/fail line, collected in the terminal summary:

 1. linear experiment       - CPH C-index >= 0.75, deep model within +/-0.02,
                              under 10 minutes
 2. linear risk surface     - deep centered MSE <= 1.0, and both deep and
                              CPH recover the true surface: centered MSE
                              <= 0.05 x var(true test risk), i.e. R^2 >= 0.95
 3. nonlinear experiment    - CPH near random (0.47..0.54), deep >= 0.60
 4. treatment experiment    - deep C-index >= 0.55, Recommendation subset
                              outlives Anti-Recommendation, log-rank p < 0.05
 5. gradient oracle         - loss gradients match finite differences (1e-5)
                              on 100 random instances
 6. concordance oracle      - exact match with brute-force pair enumeration
                              on 1000 random censored instances
 7. statistical fixtures    - Kaplan-Meier and log-rank vs hand computation
 8. constant recommender    - linear Cox rec values identical across patients;
                              partition equals the treatment/control split
 9. loss shift invariance   - cox_loss(h + c) == cox_loss(h) within 1e-9
10. reproducibility         - every CLI command rerun with identical inputs
                              writes byte-identical artifacts
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from coxkit.cli import main as cli_main
from coxkit.coxlinear import fit_cph
from coxkit.data import (
    append_treatment_feature,
    sort_view,
    split_indices,
    standardize_apply,
    standardize_fit,
)
from coxkit.metrics import concordance_index, kaplan_meier, log_rank, risk_mse
from coxkit.optim import OptimizerConfig, train
from coxkit.recommend import evaluate_recommendations, predict
from coxkit.riskmlp import (
    NetworkConfig,
    backward,
    cox_loss,
    cox_loss_grad,
    forward,
    forward_cached,
    init_network,
)
from coxkit.simulate import SimulationSpec, generate, risk_linear
from helpers import brute_force_cindex, numeric_gradient, random_dataset

FRACTIONS = (4000 / 6000, 1000 / 6000, 1000 / 6000)
SPLIT_SEED = 42
# largest share of the true risk's variance a recovered surface may leave
# unexplained (R^2 >= 0.95)
SURFACE_SHARE_BOUND = 0.05


def report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


@dataclass
class ExperimentResult:
    c_cph: float
    c_deep: float
    mse_cph: float
    mse_deep: float
    var_true_test: float
    recommendation_report: object
    elapsed: float


def surface_share(mse: float, true_variance: float) -> float:
    """Share of the true risk's variance left unexplained: centered MSE / var.

    `risk_mse` of a constant surface equals the population variance of the
    true risks, so a share of 1 means no recovery and 0 means exact recovery.
    """
    return mse / true_variance


def run_experiment(spec, net_config, opt_config) -> ExperimentResult:
    started = time.monotonic()
    sim = generate(spec)
    idx = split_indices(spec.n, FRACTIONS, SPLIT_SEED)
    parts = [sim.dataset.subset(i) for i in idx]
    true_test = sim.true_risks[idx[2]]
    params = standardize_fit(parts[0])
    parts = [standardize_apply(p, params) for p in parts]
    treatment_index = None
    if spec.with_treatment:
        augmented = [append_treatment_feature(p) for p in parts]
        treatment_index = augmented[0][1]
        parts = [a[0] for a in augmented]
    train_ds, _, test_ds = parts

    cph = fit_cph(train_ds)
    cph_risks = predict(cph, test_ds.covariates)
    net, _ = train(train_ds, net_config, opt_config)
    deep_risks = predict(net, test_ds.covariates)

    recommendation_report = None
    if treatment_index is not None:
        recommendation_report = evaluate_recommendations(test_ds, net, treatment_index)

    return ExperimentResult(
        c_cph=concordance_index(test_ds.times, test_ds.events, cph_risks),
        c_deep=concordance_index(test_ds.times, test_ds.events, deep_risks),
        mse_cph=risk_mse(cph_risks, true_test),
        mse_deep=risk_mse(deep_risks, true_test),
        var_true_test=float(np.var(true_test)),
        recommendation_report=recommendation_report,
        elapsed=time.monotonic() - started,
    )


@pytest.fixture(scope="module")
def linear_experiment():
    return run_experiment(
        SimulationSpec(n=6000, d=10, risk_kind="linear", seed=11),
        NetworkConfig(1, 4, "selu", dropout_rate=0.1, l2_coefficient=1.0),
        OptimizerConfig("adam", 0.01, 1e-3, epochs=800, seed=7),
    )


@pytest.fixture(scope="module")
def nonlinear_experiment():
    return run_experiment(
        SimulationSpec(n=6000, d=10, risk_kind="gaussian", lambda_max=5.0, r=0.5, seed=13),
        NetworkConfig(2, 32, "selu", dropout_rate=0.1, l2_coefficient=0.5),
        OptimizerConfig("adam", 5e-3, 1e-3, epochs=2000, seed=7),
    )


@pytest.fixture(scope="module")
def treatment_experiment():
    return run_experiment(
        SimulationSpec(
            n=6000, d=10, risk_kind="gaussian", lambda_max=10.0, r=0.5,
            with_treatment=True, seed=17,
        ),
        NetworkConfig(1, 45, "selu", dropout_rate=0.1, l2_coefficient=1.0),
        OptimizerConfig("adam", 5e-3, 1e-3, epochs=1500, seed=7),
    )


def test_criterion_1_linear_experiment(linear_experiment):
    r = linear_experiment
    ok = r.c_cph >= 0.75 and abs(r.c_deep - r.c_cph) <= 0.02 and r.elapsed <= 600
    report(
        1, ok,
        f"linear: CPH C={r.c_cph:.4f} (>=0.75), deep C={r.c_deep:.4f} "
        f"(|diff|={abs(r.c_deep - r.c_cph):.4f} <= 0.02), {r.elapsed:.0f}s <= 600s",
    )
    assert r.c_cph >= 0.75
    assert abs(r.c_deep - r.c_cph) <= 0.02
    assert r.elapsed <= 600


def test_criterion_2_linear_risk_surface(linear_experiment):
    r = linear_experiment
    share_deep = surface_share(r.mse_deep, r.var_true_test)
    share_cph = surface_share(r.mse_cph, r.var_true_test)
    deep_ok = r.mse_deep <= 1.0
    deep_surface_ok = share_deep <= SURFACE_SHARE_BOUND
    cph_surface_ok = share_cph <= SURFACE_SHARE_BOUND
    report(
        2, deep_ok and deep_surface_ok and cph_surface_ok,
        f"linear risk surface share: deep={share_deep:.4f} "
        f"(<={SURFACE_SHARE_BOUND} {'ok' if deep_surface_ok else 'FAIL'}), "
        f"CPH={share_cph:.4f} (<={SURFACE_SHARE_BOUND} "
        f"{'ok' if cph_surface_ok else 'FAIL'}); deep MSE={r.mse_deep:.4f} "
        f"(<=1.0 {'ok' if deep_ok else 'FAIL'}); CPH/deep MSE ratio="
        f"{r.mse_cph / r.mse_deep:.2f} (info)",
    )
    assert deep_ok, f"deep centered risk MSE {r.mse_deep:.4f} exceeds 1.0"
    # The linear CPH is the efficient estimator here and sits near the
    # estimation floor (~d / events), so the deep model is held to recovering
    # the surface, not to beating the CPH; the nonlinear companion test checks
    # the CPH-worse direction where the linear class is misspecified.
    assert deep_surface_ok, (
        f"deep model leaves {share_deep:.4f} of the true risk variance "
        f"{r.var_true_test:.4f} unexplained (> {SURFACE_SHARE_BOUND})"
    )
    assert cph_surface_ok, (
        f"CPH leaves {share_cph:.4f} of the true risk variance "
        f"{r.var_true_test:.4f} unexplained (> {SURFACE_SHARE_BOUND})"
    )


def test_surface_share_bound_rejects_wrong_surfaces():
    # guard for criterion 2's clause, on analytic surfaces (no training): on
    # uniform covariates the true x0 + 2*x1 has variance 5/3, halving the x1
    # slope leaves var(x1) = 1/3 unexplained (share 0.2), a constant all of it
    x = np.random.default_rng(2).uniform(-1.0, 1.0, size=(20000, 2))
    true = risk_linear(x)
    variance = float(np.var(true))

    def share(surface):
        return surface_share(risk_mse(surface, true), variance)

    assert share(true) <= SURFACE_SHARE_BOUND
    half_slope = share(x[:, 0] + x[:, 1])
    assert half_slope > SURFACE_SHARE_BOUND
    assert abs(half_slope - 0.2) < 0.01
    assert share(np.full(true.shape, 3.0)) > SURFACE_SHARE_BOUND


def test_nonlinear_risk_surface_direction(nonlinear_experiment):
    # companion to criterion 2: where the linear model class is actually
    # misspecified, the direction does reproduce
    r = nonlinear_experiment
    assert r.mse_deep <= 1.0
    assert r.mse_cph > 3.0 * r.mse_deep


def test_criterion_3_nonlinear_experiment(nonlinear_experiment):
    r = nonlinear_experiment
    ok = 0.47 <= r.c_cph <= 0.54 and r.c_deep >= 0.60
    report(
        3, ok,
        f"nonlinear: CPH C={r.c_cph:.4f} (in [0.47,0.54]), deep C={r.c_deep:.4f} (>=0.60)",
    )
    assert 0.47 <= r.c_cph <= 0.54
    assert r.c_deep >= 0.60


def test_criterion_4_treatment_experiment(treatment_experiment):
    r = treatment_experiment
    rec = r.recommendation_report
    ok = (
        r.c_deep >= 0.55
        and rec.median_recommendation > rec.median_anti_recommendation
        and rec.log_rank_result.p_value < 0.05
    )
    report(
        4, ok,
        f"treatment: deep C={r.c_deep:.4f} (>=0.55), median Rec="
        f"{rec.median_recommendation:.4f} > Anti={rec.median_anti_recommendation:.4f}, "
        f"log-rank p={rec.log_rank_result.p_value:.2e} (<0.05)",
    )
    assert r.c_deep >= 0.55
    assert rec.median_recommendation > rec.median_anti_recommendation
    assert rec.log_rank_result.p_value < 0.05


def test_criterion_5_gradient_oracle():
    rng = np.random.default_rng(500)
    checked = 0
    worst = 0.0
    while checked < 100:
        n = int(rng.integers(4, 31))
        d = int(rng.integers(2, 7))
        ds = random_dataset(rng, n=n, d=d, tie_times=bool(rng.integers(0, 2)))
        view = sort_view(ds)
        cfg = NetworkConfig(
            hidden_layers=int(rng.integers(1, 3)),
            nodes_per_layer=int(rng.integers(2, 6)),
            activation=("relu", "selu")[checked % 2],
            dropout_rate=0.0,
            l2_coefficient=float(rng.choice([0.0, 0.05])),
        )
        net = init_network(cfg, d, seed=int(rng.integers(0, 2**31)))
        for b in net.biases:
            b += rng.normal(scale=0.2, size=b.shape)
        risks, cache = forward_cached(net, ds.covariates)
        if min(np.abs(z).min() for z in cache.pre_activations) < 1e-4:
            continue  # finite differences are invalid at an activation kink

        # risks gradient
        d_risk = cox_loss_grad(risks, ds, view)
        fd_risk = numeric_gradient(lambda h: cox_loss(h, ds, view), risks.copy())
        err_r = np.max(np.abs(d_risk - fd_risk) / np.maximum(1.0, np.abs(fd_risk)))

        # parameter gradients
        grads = backward(net, cache, d_risk, cfg.l2_coefficient)

        def loss_at(flat):
            trial = net.copy()
            offset = 0
            for arr in trial.weights + trial.biases:
                arr[:] = flat[offset : offset + arr.size].reshape(arr.shape)
                offset += arr.size
            return cox_loss(
                forward(trial, ds.covariates), ds, view, cfg.l2_coefficient, trial
            )

        flat0 = np.concatenate([a.ravel() for a in net.weights + net.biases])
        fd_params = numeric_gradient(loss_at, flat0)
        analytic = np.concatenate(
            [a.ravel() for a in grads.weight_grads + grads.bias_grads]
        )
        err_p = np.max(np.abs(analytic - fd_params) / np.maximum(1.0, np.abs(fd_params)))

        worst = max(worst, err_r, err_p)
        assert err_r <= 1e-5, f"instance {checked}: risk-gradient error {err_r:.2e}"
        assert err_p <= 1e-5, f"instance {checked}: parameter-gradient error {err_p:.2e}"
        checked += 1
    report(5, True, f"gradient oracle: 100 instances, worst relative error {worst:.2e}")


def test_criterion_6_concordance_oracle():
    rng = np.random.default_rng(600)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 51))
        times = rng.integers(1, 10, size=n).astype(float)
        events = rng.integers(0, 2, size=n)
        risks = rng.integers(-4, 5, size=n).astype(float)
        if rng.random() < 0.3:
            risks += rng.normal(scale=0.5, size=n)  # mix of tied and distinct
        try:
            expected = brute_force_cindex(times, events, risks)
        except ValueError:
            with pytest.raises(ValueError):
                concordance_index(times, events, risks)
            continue
        assert concordance_index(times, events, risks) == expected
        checked += 1
    report(6, True, "concordance oracle: exact match on 1000 random instances")


def test_criterion_7_statistical_fixtures():
    km = kaplan_meier([1, 2, 3], [1, 1, 1])
    assert np.max(np.abs(km.survival - np.array([2 / 3, 1 / 3, 0.0]))) < 1e-9
    km2 = kaplan_meier([1, 2, 3], [1, 0, 1])
    assert abs(km2.survival[0] - 2 / 3) < 1e-9
    assert abs(km2.survival[1] - 0.0) < 1e-9

    lr = log_rank([1, 2], [1, 1], [10, 20], [1, 1])
    assert abs(lr.statistic - 49 / 17) < 1e-9

    times = np.array([1.0, 2.0, 3.0, 5.0])
    events = np.array([1, 0, 1, 1])
    identical = log_rank(times, events, times, events)
    assert identical.statistic == 0.0
    report(7, True, "Kaplan-Meier and log-rank match hand-computed values within 1e-9")


def test_criterion_8_constant_cph_recommender():
    sim = generate(
        SimulationSpec(
            n=1200, d=10, risk_kind="gaussian", lambda_max=10.0, r=0.5,
            with_treatment=True, seed=80,
        )
    )
    ds, index = append_treatment_feature(sim.dataset)
    model = fit_cph(ds)
    rec = evaluate_recommendations(ds, model, index)
    spread = float(rec.rec_values.max() - rec.rec_values.min())
    constant_group = rec.recommended[0]
    partition_matches = np.array_equal(
        rec.is_recommendation, ds.treatments == constant_group
    )
    ok = spread < 1e-12 and partition_matches
    report(
        8, ok,
        f"constant recommender: rec spread={spread:.1e} (<1e-12), partition == "
        f"treatment/control split: {partition_matches}",
    )
    assert spread < 1e-12
    assert partition_matches


def test_criterion_9_loss_shift_invariance():
    rng = np.random.default_rng(900)
    worst = 0.0
    for _ in range(200):
        ds = random_dataset(rng, n=int(rng.integers(2, 60)), tie_times=bool(rng.integers(0, 2)))
        view = sort_view(ds)
        h = rng.normal(scale=2.0, size=ds.n)
        c = float(rng.normal(scale=20.0))
        delta = abs(cox_loss(h, ds, view) - cox_loss(h + c, ds, view))
        worst = max(worst, delta)
        assert delta < 1e-9
    report(9, True, f"loss shift invariance: worst |delta|={worst:.2e} over 200 draws")


def _snapshot(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


def test_criterion_10_cli_reproducibility(tmp_path):
    sim_dir = tmp_path / "sim"
    args_simulate = [
        "simulate", "--risk", "gaussian", "--lambda-max", "10", "--n", "400",
        "--d", "4", "--with-treatment", "--seed", "19", "--out-dir", str(sim_dir),
    ]

    train_dir = tmp_path / "train"
    config = {
        "dataset": {"simulate": {"n": 400, "d": 4, "risk_kind": "gaussian",
                                  "lambda_max": 10.0, "r": 0.5,
                                  "with_treatment": True, "seed": 19}},
        "model": "deep_cox",
        "network": {"hidden_layers": 1, "nodes_per_layer": 8, "activation": "selu",
                    "dropout_rate": 0.2},
        "optimizer": {"kind": "adam", "learning_rate": 0.01, "epochs": 50, "seed": 2},
        "evaluation": {"bootstrap_replicates": 30, "alpha": 0.05, "seed": 3},
        "out_dir": str(train_dir),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    args_train = ["train", "--config", str(config_path)]

    rec_dir = tmp_path / "rec"
    km_dir = tmp_path / "km"
    search_dir = tmp_path / "search"

    commands = {"simulate": args_simulate, "train": args_train}
    first, second = {}, {}
    for name, args in commands.items():
        assert cli_main(args) == 0, name
    # downstream commands consume the artifacts written above
    commands["recommend"] = [
        "recommend", "--model", str(train_dir / "model.json"),
        "--data", str(sim_dir / "dataset.csv"), "--out-dir", str(rec_dir),
    ]
    commands["km"] = [
        "km", "--data", str(sim_dir / "dataset.csv"), "--group-by", "treatment",
        "--out-dir", str(km_dir),
    ]
    commands["search"] = [
        "search", "--data", str(sim_dir / "dataset.csv"), "--trials", "2",
        "--k", "2", "--epochs", "3", "--seed", "5", "--out-dir", str(search_dir),
    ]
    for name in ("recommend", "km", "search"):
        assert cli_main(commands[name]) == 0, name

    dirs = {"simulate": sim_dir, "train": train_dir, "recommend": rec_dir,
            "km": km_dir, "search": search_dir}
    for name, directory in dirs.items():
        first[name] = _snapshot(directory)

    for name, args in commands.items():
        assert cli_main(args) == 0, name
    for name, directory in dirs.items():
        second[name] = _snapshot(directory)

    mismatches = [
        f"{name}/{fname}"
        for name in dirs
        for fname in first[name]
        if first[name][fname] != second[name].get(fname)
    ]
    ok = not mismatches
    report(
        10, ok,
        "reproducibility: simulate/train/recommend/km/search rerun byte-identical"
        + ("" if ok else f" EXCEPT {mismatches}"),
    )
    assert ok, f"artifacts differ between identical reruns: {mismatches}"
