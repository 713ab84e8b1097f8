"""Self-test of the benchmark's tracer, speed sampler and manifest.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from steady import SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()

    def leaf(x):
        time.sleep(0.01)
        return x + 1

    traced_leaf = tracer.wrap("leaf", leaf)

    def root(x):
        time.sleep(0.01)
        return traced_leaf(x) + traced_leaf(x)

    traced_root = tracer.wrap("root", root)
    tracer.request = 0
    assert traced_root(1) == 4

    root_span, first, second = tracer.spans
    assert root_span["parent"] is None
    assert first["parent"] == second["parent"] == root_span["id"]
    summary = tracer.summary(0)
    assert summary["leaf"]["calls"] == 2 and summary["root"]["calls"] == 1
    assert summary["leaf"]["self_s"] == summary["leaf"]["s"]
    root_duration = root_span["end"] - root_span["start"]
    assert summary["root"]["s"] == root_duration
    assert abs(summary["root"]["self_s"] + summary["leaf"]["s"] - root_duration) < 1e-12
    assert summary["root"]["self_s"] < root_duration


def _coxkit_run():
    from coxkit import cli, metrics, optim
    from coxkit.data import split
    from coxkit.riskmlp import NetworkConfig
    from coxkit.simulate import SimulationSpec

    ds = cli.generate(SimulationSpec(n=300, d=4, risk_kind="gaussian", seed=3)).dataset
    train_ds, val_ds, test_ds = split(ds, (0.6, 0.2, 0.2), seed=1)
    net, history = optim.train(
        train_ds,
        NetworkConfig(hidden_layers=1, nodes_per_layer=6, dropout_rate=0.1),
        optim.OptimizerConfig(epochs=5, batch_size=64, seed=2),
        val_ds,
    )
    risks = optim.forward(net, test_ds.covariates)
    interval = metrics.bootstrap_ci(test_ds.times, test_ds.events, risks, 5, seed=4)
    return net.weights, history.train_loss, history.val_cindex, risks, interval


def test_wrappers_return_identical_values_and_restore():
    from coxkit import cli, optim

    originals = (optim.train, cli.load_csv)
    plain = _coxkit_run()
    tracer = Tracer()
    tracer.request = 0
    layers.install(tracer)
    try:
        assert optim.train is not originals[0]
        traced = _coxkit_run()
    finally:
        tracer.restore()
    assert (optim.train, cli.load_csv) == originals

    for a, b in zip(plain[0], traced[0]):
        np.testing.assert_array_equal(a, b)
    assert plain[1] == traced[1] and plain[2] == traced[2]
    np.testing.assert_array_equal(plain[3], traced[3])
    assert plain[4] == traced[4]

    summary = tracer.summary(0)
    assert summary["optim.train"]["calls"] == 1
    assert summary["riskmlp.forward_cached"]["calls"] == summary["riskmlp.cox_loss_grad"]["calls"]
    assert summary["data.subset"]["calls"] >= 5
    assert summary["metrics.concordance_index"]["calls"] == 5 + 5
    by_id = {s["id"]: s for s in tracer.spans}
    for span in tracer.spans:
        if span["name"] == "riskmlp.backward":
            assert by_id[span["parent"]]["name"] == "optim.train"
    counts = tracer.request_counts(0)
    assert counts["optim.epochs"] == 5
    assert counts["optim.batches"] == summary["riskmlp.cox_loss_grad"]["calls"]


def test_speed_sampler_samples_while_busy_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedSampler(interval=0.01) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 10
    assert 0.0 < sampler.speed(start, end) < 10.0
    with pytest.raises(ValueError):
        sampler.speed(end + 1.0, end + 2.0)


def test_manifest_matches_benchmark_json():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == run.manifest()
