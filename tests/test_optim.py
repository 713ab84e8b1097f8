import numpy as np
import pytest

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
from helpers import random_dataset


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
        net, opt, trials = random_search(
            SearchSpace(), self.toy_ds(), k=3, n_trials=1, seed=1, epochs=5
        )
        assert len(trials) == 1
        assert trials[0]["network"] == net
        assert trials[0]["optimizer"] == opt

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergent_trials_score_zero_and_tie_break(self):
        space = SearchSpace(learning_rate=(1e8, 1e9))
        _, _, trials = random_search(
            space, self.toy_ds(), k=2, n_trials=3, seed=2, epochs=30,
            optimizer_kind="sgd",
        )
        assert all(t["mean_cindex"] == 0.0 for t in trials)
        best = max(trials, key=lambda t: (t["mean_cindex"], -t["trial"]))
        assert best["trial"] == 0  # ties go to the earliest trial

    def test_sane_trial_beats_divergent(self):
        space = SearchSpace(
            hidden_layers=(1, 1), nodes_per_layer=(4, 4), learning_rate=(1e-3, 1e-2)
        )
        net, opt, trials = random_search(
            space, self.toy_ds(), k=2, n_trials=2, seed=3, epochs=30
        )
        assert max(t["mean_cindex"] for t in trials) > 0.0

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
