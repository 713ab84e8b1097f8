import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from coxkit import optim
from coxkit.data import SurvivalDataset
from coxkit.optim import (
    OptimizerConfig,
    SearchSpace,
    TrainingDiverged,
    _Adam,
    _SgdNesterov,
    clip_gradients,
    kfold,
    lr_at_epoch,
    random_search,
    sample_configuration,
    train,
)
from coxkit.riskmlp import NetworkConfig, forward
from coxkit.simulate import SimulationSpec, generate
from helpers import random_dataset, reference_random_search


class TestLrSchedule:
    def test_epoch_zero(self):
        assert lr_at_epoch(0.05, 0, 0.3) == 0.05

    def test_inverse_time_value(self):
        assert lr_at_epoch(0.1, 9, 0.1) == pytest.approx(0.1 / 1.9, abs=1e-12)

    def test_zero_decay_constant(self):
        assert all(lr_at_epoch(0.01, e, 0.0) == 0.01 for e in range(100))

    def test_negative_epoch(self):
        with pytest.raises(ValueError):
            lr_at_epoch(0.1, -1, 0.1)


class TestClipping:
    def test_noop_within_bound(self):
        grads = [np.array([0.3, 0.4])]
        out = clip_gradients(grads, 1.0)
        assert out[0] is grads[0]

    def test_scales_to_bound_preserving_direction(self):
        grads = [np.array([3.0, 0.0]), np.array([4.0])]
        out = clip_gradients(grads, 1.0)
        norm = np.sqrt(sum((g**2).sum() for g in out))
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert out[0][0] / out[1][0] == pytest.approx(3.0 / 4.0, abs=1e-12)

    def test_never_increases_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            grads = [rng.normal(size=4), rng.normal(size=(2, 3))]
            before = np.sqrt(sum((g**2).sum() for g in grads))
            out = clip_gradients(grads, 0.7)
            after = np.sqrt(sum((g**2).sum() for g in out))
            assert after <= min(before, 0.7) + 1e-12


class TestOptimizers:
    def test_nesterov_momentum_zero_is_plain_gd(self):
        rng = np.random.default_rng(1)
        p1 = [rng.normal(size=(3, 2)), rng.normal(size=2)]
        p2 = [a.copy() for a in p1]
        opt = _SgdNesterov(p1, momentum=0.0)
        for _ in range(10):
            grads = [rng.normal(size=a.shape) for a in p1]
            opt.step(p1, grads, lr=0.05)
            for a, g in zip(p2, grads):
                a -= 0.05 * g
        for a, b in zip(p1, p2):
            assert np.all(np.abs(a - b) < 1e-12)

    def test_adam_zero_gradient_is_identity(self):
        rng = np.random.default_rng(2)
        params = [rng.normal(size=(2, 2))]
        frozen = [a.copy() for a in params]
        opt = _Adam(params, 0.9, 0.999, 1e-8)
        for _ in range(5):
            opt.step(params, [np.zeros((2, 2))], lr=0.1)
        assert np.array_equal(params[0], frozen[0])

    def test_adam_moves_against_gradient(self):
        params = [np.zeros(2)]
        opt = _Adam(params, 0.9, 0.999, 1e-8)
        opt.step(params, [np.array([1.0, -1.0])], lr=0.1)
        assert params[0][0] < 0 < params[0][1]


class TestTrain:
    @staticmethod
    def linear_toy(n=20, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=(n, 2))
        h = x[:, 0] + 2 * x[:, 1]
        t = -5.0 * np.log(1 - rng.random(n)) / np.exp(h)
        return SurvivalDataset(covariates=x, times=t, events=np.ones(n, dtype=int))

    def test_loss_non_increasing_with_small_lr(self):
        ds = self.linear_toy()
        net_cfg = NetworkConfig(hidden_layers=1, nodes_per_layer=4, dropout_rate=0.0)
        opt_cfg = OptimizerConfig(
            kind="sgd", learning_rate=1e-4, momentum=0.0, epochs=200, seed=4
        )
        _, history = train(ds, net_cfg, opt_cfg)
        diffs = np.diff(history.train_loss[10:])
        assert np.all(diffs <= 1e-6)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_names_epoch(self):
        ds = self.linear_toy()
        opt_cfg = OptimizerConfig(kind="sgd", learning_rate=1e6, momentum=0.0, epochs=100, seed=5)
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(ds, NetworkConfig(), opt_cfg)

    def test_tiny_clip_nearly_freezes_parameters(self):
        ds = self.linear_toy()
        cfg = NetworkConfig(hidden_layers=1, nodes_per_layer=4)
        opt_cfg = OptimizerConfig(
            kind="sgd", learning_rate=0.1, momentum=0.0, epochs=1,
            clip_norm=1e-12, seed=6,
        )
        from coxkit.riskmlp import init_network
        from coxkit.optim import _derive_seeds

        init_seed = _derive_seeds(6, 3)[0]
        before = init_network(cfg, 2, init_seed)
        net, _ = train(ds, cfg, opt_cfg)
        moved = np.sqrt(
            sum(
                ((a - b) ** 2).sum()
                for a, b in zip(net.weights + net.biases, before.weights + before.biases)
            )
        )
        assert moved <= 0.1 * 1e-12 + 1e-15

    def test_validation_history(self):
        ds = self.linear_toy(40)
        val = self.linear_toy(20, seed=7)
        opt_cfg = OptimizerConfig(epochs=5, seed=8)
        _, history = train(ds, NetworkConfig(), opt_cfg, val)
        assert len(history.train_loss) == 5
        assert len(history.val_cindex) == 5
        assert all(0.0 <= c <= 1.0 for c in history.val_cindex)

    def test_bit_reproducible(self):
        ds = self.linear_toy(30)
        cfg = NetworkConfig(hidden_layers=2, nodes_per_layer=5, dropout_rate=0.3)
        opt_cfg = OptimizerConfig(epochs=20, seed=9)
        a, _ = train(ds, cfg, opt_cfg)
        b, _ = train(ds, cfg, opt_cfg)
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(wa, wb)

    def test_minibatch_mode_runs(self):
        ds = self.linear_toy(32)
        opt_cfg = OptimizerConfig(epochs=10, batch_size=8, seed=10)
        net, history = train(ds, NetworkConfig(), opt_cfg)
        assert len(history.train_loss) == 10
        assert np.all(np.isfinite(forward(net, ds.covariates)))

    def test_no_events_rejected(self):
        ds = SurvivalDataset(covariates=[[1.0], [2.0]], times=[1, 2], events=[0, 0])
        with pytest.raises(ValueError, match="no observed events"):
            train(ds, NetworkConfig(), OptimizerConfig(epochs=1))

    def test_sgd_small_net_learns_linear_risk(self):
        # 1 hidden layer of 4 SELU nodes trained by clipped Nesterov SGD at
        # desk scale reaches a validation C-index well above random
        from coxkit.data import split_indices, standardize_apply, standardize_fit

        sim = generate(SimulationSpec(n=1500, d=10, risk_kind="linear", seed=31))
        idx = split_indices(1500, (2 / 3, 1 / 6, 1 / 6), seed=42)
        parts = [sim.dataset.subset(i) for i in idx]
        params = standardize_fit(parts[0])
        tr, va, _ = [standardize_apply(p, params) for p in parts]
        net_cfg = NetworkConfig(1, 4, "selu", 0.1, 1.0)
        opt_cfg = OptimizerConfig(
            "sgd", 1e-3, 1e-3, momentum=0.9, clip_norm=5.0, epochs=800, seed=7
        )
        _, history = train(tr, net_cfg, opt_cfg, va)
        assert history.val_cindex[-1] > 0.70


class TestKfold:
    def test_exact_division(self):
        ds = random_dataset(np.random.default_rng(11), n=9)
        pairs = kfold(ds, 3, seed=0)
        assert [holdout.n for _, holdout in pairs] == [3, 3, 3]
        assert all(tr.n == 6 for tr, _ in pairs)

    def test_remainder_distribution(self):
        ds = random_dataset(np.random.default_rng(12), n=10)
        sizes = sorted(holdout.n for _, holdout in kfold(ds, 3, seed=0))
        assert sizes == [3, 3, 4]

    def test_holdouts_partition_everything(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, n=23)
        pairs = kfold(ds, 4, seed=1)
        seen = np.concatenate([holdout.times for _, holdout in pairs])
        assert np.array_equal(np.sort(seen), np.sort(ds.times))
        for tr, holdout in pairs:
            assert tr.n + holdout.n == ds.n

    def test_deterministic(self):
        ds = random_dataset(np.random.default_rng(14), n=12)
        a = kfold(ds, 3, seed=5)
        b = kfold(ds, 3, seed=5)
        for (_, ha), (_, hb) in zip(a, b):
            assert np.array_equal(ha.times, hb.times)

    def test_validation(self):
        ds = random_dataset(np.random.default_rng(15), n=5)
        with pytest.raises(ValueError, match="k"):
            kfold(ds, 1, seed=0)
        with pytest.raises(ValueError, match="at least"):
            kfold(ds, 6, seed=0)


class TestSearchSpace:
    def test_defaults_valid(self):
        SearchSpace()

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SearchSpace(dropout=(0.5, 0.2))

    def test_sampling_within_ranges(self):
        space = SearchSpace()
        rng = np.random.default_rng(16)
        for _ in range(50):
            net, opt = sample_configuration(space, rng, "adam")
            assert space.hidden_layers[0] <= net.hidden_layers <= space.hidden_layers[1]
            assert space.nodes_per_layer[0] <= net.nodes_per_layer <= space.nodes_per_layer[1]
            assert net.activation in space.activations
            assert space.learning_rate[0] <= opt["learning_rate"] <= space.learning_rate[1]


class TestRandomSearch:
    @staticmethod
    def toy_ds(n=45, seed=17):
        return TestTrain.linear_toy(n, seed)

    def test_single_trial_returns_it(self):
        net, opt, trials, best = random_search(
            SearchSpace(), self.toy_ds(), k=3, n_trials=1, seed=1, epochs=5
        )
        assert len(trials) == 1
        assert best == 0
        assert trials[0]["network"] == net
        assert trials[0]["optimizer"] == opt

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergent_trials_score_zero_and_tie_break(self):
        space = SearchSpace(learning_rate=(1e8, 1e9))
        net, opt, trials, best = random_search(
            space, self.toy_ds(), k=2, n_trials=3, seed=2, epochs=30,
            optimizer_kind="sgd",
        )
        assert all(t["mean_cindex"] == 0.0 for t in trials)
        assert best == 0  # ties go to the earliest trial
        assert (trials[0]["network"], trials[0]["optimizer"]) == (net, opt)

    def test_sane_trial_beats_divergent(self):
        space = SearchSpace(
            hidden_layers=(1, 1), nodes_per_layer=(4, 4), learning_rate=(1e-3, 1e-2)
        )
        _, _, trials, best = random_search(
            space, self.toy_ds(), k=2, n_trials=2, seed=3, epochs=30
        )
        assert trials[best]["mean_cindex"] == max(t["mean_cindex"] for t in trials) > 0.0

    def test_deterministic(self):
        args = dict(k=2, n_trials=3, seed=4, epochs=5)
        a = random_search(SearchSpace(), self.toy_ds(), **args)
        b = random_search(SearchSpace(), self.toy_ds(), **args)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert [t["mean_cindex"] for t in a[2]] == [t["mean_cindex"] for t in b[2]]

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            random_search(SearchSpace(), self.toy_ds(), n_trials=0)

    def test_needs_linux(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        with pytest.raises(RuntimeError, match="needs Linux"):
            random_search(SearchSpace(), self.toy_ds(), n_trials=1)

    def test_training_error_propagates_and_no_worker_outlives_the_call(self, monkeypatch):
        ds = self.toy_ds(n=44)  # k=3 trains on 29, 29 and 30 patients
        args = dict(k=3, n_trials=1, seed=6, epochs=2)
        random_search(SearchSpace(), ds, **args)
        assert multiprocessing.active_children() == []

        real_train = optim.train

        def train_or_fail(train_ds, *rest):
            if train_ds.n == 30:
                raise RuntimeError("fold failed")
            return real_train(train_ds, *rest)

        monkeypatch.setattr(optim, "train", train_or_fail)
        with pytest.raises(RuntimeError, match="fold failed"):
            random_search(SearchSpace(), ds, **args)
        assert multiprocessing.active_children() == []


# Seed 5 puts no event in the first holdout, so fold 0 has no comparable
# pair in every trial, and trial 1 draws a learning rate that diverges on
# every fold; the other folds train and score.
ORACLE_SEARCH = dict(k=3, n_trials=4, seed=5, epochs=20, optimizer_kind="sgd")
ORACLE_SPACE = SearchSpace(
    hidden_layers=(1, 2), nodes_per_layer=(2, 8), learning_rate=(1e-3, 1e9)
)


def oracle_search_dataset():
    """30 patients with 4 events, for the search oracle tests."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(30, 2))
    t = -5.0 * np.log(1 - rng.random(30)) / np.exp(x[:, 0] + 2 * x[:, 1])
    events = np.zeros(30, dtype=int)
    events[rng.choice(30, 4, replace=False)] = 1
    return SurvivalDataset(covariates=x, times=t, events=events)


def search_as_json(result):
    net, opt, trials, best = result
    log = [{**t, "network": asdict(t["network"]), "optimizer": asdict(t["optimizer"])}
           for t in trials]
    return json.loads(json.dumps([asdict(net), asdict(opt), log, best]))


_ONE_CPU_SEARCH_SCRIPT = """
import json, os, sys, warnings
warnings.simplefilter("ignore", RuntimeWarning)
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from test_optim import ORACLE_SEARCH, ORACLE_SPACE, oracle_search_dataset, search_as_json
from coxkit.optim import random_search
assert len(os.sched_getaffinity(0)) == 1
result = random_search(ORACLE_SPACE, oracle_search_dataset(), **ORACLE_SEARCH)
print(json.dumps(search_as_json(result)))
"""


class TestRandomSearchOracle:
    @pytest.fixture(scope="class")
    def expected(self):
        with np.errstate(over="ignore", invalid="ignore"):
            result = reference_random_search(
                ORACLE_SPACE, oracle_search_dataset(), **ORACLE_SEARCH
            )
        trials = result[2]
        seed, n_trials = ORACLE_SEARCH["seed"], ORACLE_SEARCH["n_trials"]
        pairs = kfold(oracle_search_dataset(), 3, optim._derive_seeds(seed, 1 + n_trials)[0])
        assert pairs[0][1].n_events == 0
        assert [t["fold_cindex"][0] for t in trials] == [0.0] * 4
        with pytest.raises(TrainingDiverged), np.errstate(over="ignore", invalid="ignore"):
            train(pairs[1][0], trials[1]["network"], trials[1]["optimizer"])
        assert trials[1]["fold_cindex"] == [0.0] * 3
        assert result[3] == 2 and trials[2]["mean_cindex"] > 0.5
        return search_as_json(result)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_matches_serial_reference(self, expected):
        result = random_search(ORACLE_SPACE, oracle_search_dataset(), **ORACLE_SEARCH)
        assert search_as_json(result) == expected

    def test_matches_serial_reference_on_one_cpu(self, expected):
        import coxkit

        src = str(Path(coxkit.__file__).resolve().parents[1])
        here = str(Path(__file__).resolve().parent)
        path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _ONE_CPU_SEARCH_SCRIPT],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == expected


# Loads a second copy of each OpenBLAS numpy bundles from a directory whose
# name has a space, then caps every OpenBLAS in the process at one thread.
_BLAS_CAP_SCRIPT = """
import ctypes, glob, json, os, shutil, sys
import numpy
from coxkit import optim

copies = []
for path in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*"):
    copy = os.path.join(sys.argv[1], "copy_" + os.path.basename(path))
    shutil.copy(path, copy)
    copies.append(ctypes.CDLL(copy))

def thread_counts():
    counts = []
    for path in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*"):
        counts.append(ctypes.CDLL(path))
    return [getattr(lib, name)()
            for lib in counts + copies
            for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads64_")
            if hasattr(lib, name)]

before = thread_counts()
optim._cap_blas_threads(1)
print(json.dumps([len(copies), before, thread_counts()]))
"""


def test_search_workers_cap_openblas_threads(tmp_path):
    """A search worker caps the OpenBLAS threads it inherits at its share of
    the CPUs; numpy's bundled OpenBLAS, and a copy loaded from a directory
    whose name has a space, are found and set to one thread."""
    import coxkit

    lib_dir = tmp_path / "My Env"
    lib_dir.mkdir()
    src = str(Path(coxkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_CAP_SCRIPT, str(lib_dir)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"},
    )
    assert done.returncode == 0, done.stderr
    copies, before, after = json.loads(done.stdout)
    if not copies:
        pytest.skip("numpy does not bundle OpenBLAS here")
    assert len(before) == 2 * copies
    assert before == [2] * len(before)
    assert after == [1] * len(before)


def test_openblas_paths_read_the_whole_pathname():
    maps = [
        "7f0000000000-7f0000001000 r-xp 00000000 08:01 42   "
        "/home/u/My Env/lib/numpy.libs/libscipy_openblas64_-32a4b2a6.so\n",
        "7f0000002000-7f0000003000 r--p 00000000 08:01 43   "
        "/usr/lib/x86_64-linux-gnu/libopenblas.so.0\n",
        "7f0000004000-7f0000005000 r-xp 00000000 08:01 44   "
        "/opt/old/libopenblas64_p-r0.so (deleted)\n",
        "7f0000006000-7f0000007000 r-xp 00000000 08:01 45   /usr/lib/libm.so.6\n",
        "7f0000008000-7f0000009000 r--p 00000000 08:01 46   /opt/openblas/libfoo.so\n",
        "7f000000a000-7f000000b000 rw-p 00000000 00:00 0 \n",
        "7ffd00000000-7ffd00021000 rw-p 00000000 00:00 0    [stack]\n",
    ]
    assert optim._openblas_paths(maps) == {
        "/home/u/My Env/lib/numpy.libs/libscipy_openblas64_-32a4b2a6.so",
        "/usr/lib/x86_64-linux-gnu/libopenblas.so.0",
    }


def test_blas_cap_skips_a_library_it_cannot_load(monkeypatch):
    monkeypatch.setattr(optim, "_openblas_paths", lambda lines: {"/no/such/libopenblas.so"})
    optim._cap_blas_threads(1)


class TestOptimizerConfigValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            OptimizerConfig(kind="rmsprop")

    def test_bad_momentum(self):
        with pytest.raises(ValueError):
            OptimizerConfig(momentum=1.0)

    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            OptimizerConfig(epochs=0)
