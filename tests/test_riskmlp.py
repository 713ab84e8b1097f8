import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxkit.data import SurvivalDataset, sort_view
from coxkit.riskmlp import (
    NetworkConfig,
    RiskNetwork,
    SELU_ALPHA,
    SELU_LAMBDA,
    _BLOCK_ROWS,
    _activate,
    backward,
    cox_loss,
    cox_loss_grad,
    forward,
    forward_cached,
    from_dict,
    init_network,
    to_dict,
)
from helpers import (
    numeric_gradient,
    one_shot_forward,
    random_dataset,
    reference_backward,
    reference_forward,
    two_branch_activate,
    two_branch_activate_grad,
)


def simple_ds():
    return SurvivalDataset(
        covariates=[[0.0], [0.0]], times=[1.0, 2.0], events=[1, 1]
    )


def three_events_ds():
    return SurvivalDataset(
        covariates=[[0.0]] * 3, times=[1.0, 2.0, 3.0], events=[1, 1, 1]
    )


def passthrough_net():
    """Hand-built ReLU net computing exactly x0 + 2*x1."""
    w0 = np.array([[1.0, -1.0], [2.0, -2.0]])
    w1 = np.array([[1.0], [-1.0]])
    return RiskNetwork(
        weights=[w0, w1],
        biases=[np.zeros(2), np.zeros(1)],
        config=NetworkConfig(hidden_layers=1, nodes_per_layer=2, activation="relu"),
    )


class TestInit:
    def test_shapes_chain(self):
        net = init_network(NetworkConfig(hidden_layers=1, nodes_per_layer=4), d=10, seed=0)
        assert [w.shape for w in net.weights] == [(10, 4), (4, 1)]
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_deterministic(self):
        cfg = NetworkConfig(hidden_layers=2, nodes_per_layer=3)
        a = init_network(cfg, d=5, seed=9)
        b = init_network(cfg, d=5, seed=9)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_zero_weights_give_zero_output(self):
        net = init_network(NetworkConfig(hidden_layers=1, nodes_per_layer=4), d=3, seed=0)
        for w in net.weights:
            w[:] = 0.0
        out = forward(net, np.random.default_rng(0).normal(size=(6, 3)))
        assert np.array_equal(out, np.zeros(6))

    def test_glorot_bounds(self):
        net = init_network(NetworkConfig(hidden_layers=1, nodes_per_layer=4), d=10, seed=1)
        limit = np.sqrt(6.0 / (10 + 4))
        assert np.all(np.abs(net.weights[0]) <= limit)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(hidden_layers=0)
        with pytest.raises(ValueError):
            NetworkConfig(activation="tanh")
        with pytest.raises(ValueError):
            NetworkConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            NetworkConfig(l2_coefficient=-1.0)


def _activated(value, kind):
    z = np.array([value])
    _activate(z, kind)
    return z[0]


class TestForward:
    def test_activation_definitions(self):
        assert _activated(0.0, "selu") == 0.0
        assert _activated(-1.0, "relu") == 0.0
        assert _activated(-2.0, "selu") == pytest.approx(
            SELU_LAMBDA * SELU_ALPHA * (np.exp(-2.0) - 1.0), abs=1e-12
        )
        assert _activated(1.3, "selu") == pytest.approx(SELU_LAMBDA * 1.3, abs=1e-12)

    def test_train_equals_infer_without_dropout(self):
        net = init_network(NetworkConfig(hidden_layers=2, nodes_per_layer=5), d=4, seed=2)
        x = np.random.default_rng(3).normal(size=(8, 4))
        assert np.array_equal(forward_cached(net, x, dropout_rng=1)[0], forward(net, x))

    def test_passthrough_matches_linear_risk(self):
        net = passthrough_net()
        x = np.random.default_rng(4).uniform(-1, 1, size=(20, 2))
        assert np.allclose(forward(net, x), x[:, 0] + 2.0 * x[:, 1], atol=1e-14)

    def test_dimension_mismatch(self):
        net = init_network(NetworkConfig(), d=4, seed=0)
        with pytest.raises(ValueError, match="columns"):
            forward(net, np.zeros((3, 5)))

    def test_infer_deterministic(self):
        cfg = NetworkConfig(hidden_layers=1, nodes_per_layer=4, dropout_rate=0.5)
        net = init_network(cfg, d=3, seed=5)
        x = np.random.default_rng(6).normal(size=(10, 3))
        assert np.array_equal(forward(net, x), forward(net, x))

    def test_dropout_reproducible_and_scaled(self):
        cfg = NetworkConfig(hidden_layers=1, nodes_per_layer=50, dropout_rate=0.4)
        net = init_network(cfg, d=3, seed=7)
        x = np.random.default_rng(8).normal(size=(5, 3))
        a = forward_cached(net, x, dropout_rng=11)[0]
        b = forward_cached(net, x, dropout_rng=11)[0]
        c = forward_cached(net, x, dropout_rng=12)[0]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_infer_keeps_no_cache(self):
        # An n x 45 layer array is 6.9 MiB here. Caching every layer's input
        # and pre-activation made a 2-layer pass peak at five of them (34.3
        # MiB) and a 3-layer one at seven; without the cache a pass holds
        # one layer's working set, four arrays, at any depth.
        n, width = 20000, 45
        x = np.random.default_rng(9).normal(size=(n, 11))
        cfg = NetworkConfig(hidden_layers=3, nodes_per_layer=width)
        net = init_network(cfg, d=11, seed=9)
        tracemalloc.start()
        try:
            forward(net, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * n * width * 8

    def test_infer_peak_is_one_product_per_layer(self):
        # the 100k x 45 product is 34.3 MiB; activating it whole held three
        # such arrays (z, h and SELU's negative part), 103 MiB in all
        x = np.random.default_rng(10).normal(size=(100_000, 11))
        net = init_network(NetworkConfig(hidden_layers=1, nodes_per_layer=45), d=11, seed=10)
        tracemalloc.start()
        try:
            forward(net, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 45 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestBlockedInference:
    """forward equals the whole-array pass of `helpers.one_shot_forward` bit
    for bit, at row counts on both sides of the activation's block size."""

    @settings(max_examples=40, deadline=None)
    @given(
        activation=st.sampled_from(["relu", "selu"]),
        hidden_layers=st.integers(1, 3),
        width=st.integers(1, 64),
        d=st.integers(1, 12),
        rows=st.sampled_from(
            [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]
        ),
        seed=st.integers(0, 2**16),
    )
    def test_matches_one_shot_pass(self, activation, hidden_layers, width, d, rows, seed):
        cfg = NetworkConfig(hidden_layers=hidden_layers, nodes_per_layer=width,
                            activation=activation)
        net = init_network(cfg, d=d, seed=seed)
        rng = np.random.default_rng(seed)
        for b in net.biases:
            b += rng.normal(scale=0.5, size=b.shape)
        x = rng.normal(scale=2.0, size=(rows, d))
        assert _bitwise_equal(forward(net, x), one_shot_forward(net, x))


# zeros of both signs, the smallest subnormal, a subnormal near the normal
# range, and magnitudes where exp underflows or SELU's positive part is huge
_SPECIAL_PRE_ACTIVATIONS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300,
    800.0, -800.0, 1e300, -1e300,
]
_pre_activations = st.lists(
    st.one_of(
        st.sampled_from(_SPECIAL_PRE_ACTIVATIONS),
        st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBranchFreeActivation:
    @settings(max_examples=300, deadline=None)
    @given(_pre_activations, st.sampled_from(["relu", "selu"]))
    @example(_SPECIAL_PRE_ACTIVATIONS, "relu")
    @example(_SPECIAL_PRE_ACTIVATIONS, "selu")
    def test_matches_two_branch_oracle(self, values, kind):
        z = np.array(values).reshape(-1, 1)
        h, h_infer, deriv = z.copy(), z.copy(), np.empty_like(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _activate(h, kind, deriv) is None
            assert _activate(h_infer, kind) is None
            want_h = two_branch_activate(z, kind)
            want_deriv = two_branch_activate_grad(z, kind)
        assert _bitwise_equal(h, want_h)
        assert _bitwise_equal(h_infer, want_h)
        assert _bitwise_equal(deriv, want_deriv)
        assert np.all(np.isfinite(h)) and np.all(np.isfinite(deriv))


def _oracle_problem(activation, hidden_layers, dropout_rate, rows):
    cfg = NetworkConfig(
        hidden_layers=hidden_layers,
        nodes_per_layer=7,
        activation=activation,
        dropout_rate=dropout_rate,
        l2_coefficient=0.05,
    )
    net = init_network(cfg, d=4, seed=41)
    rng = np.random.default_rng(42)
    for b in net.biases:
        b += rng.normal(scale=0.5, size=b.shape)
    shape = 4 if rows == "1-D" else (rows, 4)
    x = rng.normal(scale=2.0, size=shape)
    d_risk = rng.normal(size=1 if rows == "1-D" else rows)
    return net, x, d_risk


def _cache_buffers(cache):
    """Every array a cache owns: all but the first layer input, the caller's x."""
    groups = (
        cache.layer_inputs[1:],
        cache.derivatives,
        cache.dropout_masks,
    )
    return [a for group in groups for a in group if a is not None]


class TestForwardBackwardOracle:
    """forward, forward_cached and backward equal the two-branch,
    out-of-place network of `helpers.reference_forward` bit for bit."""

    @pytest.mark.parametrize(
        "rows", [1, 2, 300, "1-D", _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]
    )
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.4])
    @pytest.mark.parametrize("hidden_layers", [1, 2, 3])
    @pytest.mark.parametrize("activation", ["relu", "selu"])
    def test_matches_reference(self, activation, hidden_layers, dropout_rate, rows):
        net, x, d_risk = _oracle_problem(activation, hidden_layers, dropout_rate, rows)
        inputs = [x, d_risk] + net.weights + net.biases
        saved = [a.copy() for a in inputs]

        want_infer, _ = reference_forward(net, x, False, None)
        assert _bitwise_equal(forward(net, x), want_infer)
        want_train, want_cache = reference_forward(net, x, True, np.random.default_rng(13))

        risks, cache = forward_cached(net, x, dropout_rng=13)
        assert _bitwise_equal(risks, want_train)
        want_inputs, want_pre, want_masks = want_cache
        for got, want in zip(cache.layer_inputs, want_inputs):
            assert _bitwise_equal(got, want)
        for got, want in zip(cache.dropout_masks, want_masks):
            if want is None:
                assert got is None
            else:
                assert got.dtype == bool
                assert _bitwise_equal(got * (1.0 / (1.0 - dropout_rate)), want)
        assert len(cache.derivatives) == len(want_pre) == hidden_layers
        for got, z in zip(cache.derivatives, want_pre):
            assert _bitwise_equal(got, two_branch_activate_grad(z, activation))

        cached = [a.copy() for a in _cache_buffers(cache)]
        grads = backward(net, cache, d_risk, net.config.l2_coefficient)
        want_w, want_b = reference_backward(net, want_cache, d_risk, net.config.l2_coefficient)
        assert len(grads) == len(want_w + want_b)
        for got, want in zip(grads, want_w + want_b):
            assert _bitwise_equal(got, want)

        for got, want in zip(_cache_buffers(cache), cached):
            assert _bitwise_equal(got, want)
        for got, want in zip(inputs, saved):
            assert _bitwise_equal(got, want)

    @pytest.mark.parametrize("rows", [2, 300, "1-D"])
    @pytest.mark.parametrize("activation", ["relu", "selu"])
    def test_successive_caches_share_no_buffer(self, activation, rows):
        net, x, _ = _oracle_problem(activation, 2, 0.4, rows)
        risks_a, cache_a = forward_cached(net, x, dropout_rng=13)
        risks_b, cache_b = forward_cached(net, x, dropout_rng=13)
        owned_a = _cache_buffers(cache_a) + [risks_a]
        owned_b = _cache_buffers(cache_b) + [risks_b]
        caller = [x] + net.weights + net.biases
        for a in owned_a:
            for b in owned_b + caller:
                assert not np.shares_memory(a, b)
        for b in owned_b:
            for c in caller:
                assert not np.shares_memory(b, c)


class TestCoxLoss:
    def test_equal_risks_two_events(self):
        ds = simple_ds()
        assert cox_loss(np.zeros(2), ds, sort_view(ds)) == pytest.approx(
            np.log(2.0), abs=1e-12
        )

    def test_censored_second_patient(self):
        ds = SurvivalDataset(covariates=[[0.0], [0.0]], times=[1, 2], events=[1, 0])
        assert cox_loss(np.zeros(2), ds, sort_view(ds)) == pytest.approx(
            np.log(2.0), abs=1e-12
        )

    def test_hand_value(self):
        ds = simple_ds()
        loss = cox_loss(np.array([1.0, 0.0]), ds, sort_view(ds))
        assert loss == pytest.approx(np.log(np.e + 1.0) - 1.0, abs=1e-12)

    def test_no_events_in_batch(self):
        ds = SurvivalDataset(covariates=[[0.0]], times=[1.0], events=[0])
        with pytest.raises(ValueError, match="batch has no observed events"):
            cox_loss(np.zeros(1), ds, sort_view(ds))

    def test_l2_term(self):
        ds = simple_ds()
        net = passthrough_net()
        base = cox_loss(np.zeros(2), ds, sort_view(ds))
        with_l2 = cox_loss(np.zeros(2), ds, sort_view(ds), 0.5, net)
        weight_sq = sum((w**2).sum() for w in net.weights)
        assert with_l2 == pytest.approx(base + 0.5 * weight_sq, abs=1e-12)

    def test_l2_requires_net(self):
        ds = simple_ds()
        with pytest.raises(ValueError, match="network"):
            cox_loss(np.zeros(2), ds, sort_view(ds), 0.5, None)

    def test_shift_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            ds = random_dataset(rng, n=int(rng.integers(2, 30)), tie_times=True)
            view = sort_view(ds)
            h = rng.normal(size=ds.n)
            c = rng.normal() * 10.0
            assert abs(
                cox_loss(h, ds, view) - cox_loss(h + c, ds, view)
            ) < 1e-9

    def test_patient_order_invariance(self):
        rng = np.random.default_rng(15)
        ds = random_dataset(rng, n=25, tie_times=True)
        h = rng.normal(size=25)
        perm = rng.permutation(25)
        shuffled = SurvivalDataset(
            covariates=ds.covariates[perm], times=ds.times[perm], events=ds.events[perm]
        )
        assert cox_loss(h, ds, sort_view(ds)) == pytest.approx(
            cox_loss(h[perm], shuffled, sort_view(shuffled)), abs=1e-9
        )

    def test_numerically_stable_at_large_risks(self):
        ds = simple_ds()
        loss = cox_loss(np.array([800.0, 799.0]), ds, sort_view(ds))
        assert np.isfinite(loss)

    def test_exact_when_risks_spread_past_underflow(self):
        # exp(0 - 800) underflows; the two later risk sets hold only risk 0
        ds = three_events_ds()
        loss = cox_loss(np.array([800.0, 0.0, 0.0]), ds, sort_view(ds))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)


class TestCoxLossGrad:
    def test_symmetric_two_events(self):
        ds = simple_ds()
        grad = cox_loss_grad(np.zeros(2), ds, sort_view(ds))
        assert np.allclose(grad, [-0.5, 0.5], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            ds = random_dataset(rng, n=int(rng.integers(2, 25)), tie_times=True)
            view = sort_view(ds)
            h = rng.normal(size=ds.n)
            grad = cox_loss_grad(h, ds, view)
            fd = numeric_gradient(lambda hh: cox_loss(hh, ds, view), h, eps=1e-5)
            assert np.all(np.abs(grad - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd)))

    def test_exact_when_risks_spread_past_underflow(self):
        ds = three_events_ds()
        grad = cox_loss_grad(np.array([800.0, 0.0, 0.0]), ds, sort_view(ds))
        assert np.allclose(grad, [0.0, -0.5, 0.5], atol=1e-12)

    def test_matches_finite_differences_at_risk_spread_1000(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            ds = random_dataset(rng, n=int(rng.integers(2, 25)), tie_times=True)
            view = sort_view(ds)
            h = rng.normal(size=ds.n) + 1000.0 * rng.integers(-1, 2, size=ds.n)
            grad = cox_loss_grad(h, ds, view)
            fd = numeric_gradient(lambda hh: cox_loss(hh, ds, view), h, eps=1e-5)
            assert np.all(np.abs(grad - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd)))

    def test_latest_censored_patient_positive(self):
        ds = SurvivalDataset(
            covariates=[[0.0]] * 3, times=[1.0, 2.0, 3.0], events=[1, 1, 0]
        )
        grad = cox_loss_grad(np.zeros(3), ds, sort_view(ds))
        assert grad[2] > 0.0


class TestBackward:
    def test_zero_upstream_gives_weight_decay(self):
        cfg = NetworkConfig(hidden_layers=2, nodes_per_layer=4, l2_coefficient=0.3)
        net = init_network(cfg, d=3, seed=17)
        x = np.random.default_rng(18).normal(size=(6, 3))
        _, cache = forward_cached(net, x)
        grads = backward(net, cache, np.zeros(6), cfg.l2_coefficient)
        for gw, w in zip(grads[:3], net.weights):
            assert np.allclose(gw, 2.0 * 0.3 * w, atol=1e-15)
        for gb in grads[3:]:
            assert np.all(gb == 0.0)

    def test_relu_gates_at_zero_weights(self):
        cfg = NetworkConfig(hidden_layers=1, nodes_per_layer=4, activation="relu")
        net = init_network(cfg, d=3, seed=19)
        for w in net.weights:
            w[:] = 0.0
        x = np.random.default_rng(20).normal(size=(5, 3))
        _, cache = forward_cached(net, x)
        d_risk = np.ones(5)
        grads = backward(net, cache, d_risk, 0.0)
        w0_grad, w1_grad, b0_grad, b1_grad = grads
        assert np.all(w0_grad == 0.0)  # relu'(0) = 0 blocks everything
        assert np.all(b0_grad == 0.0)
        assert np.all(w1_grad == 0.0)  # hidden activations are 0
        assert b1_grad[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("activation", ["relu", "selu"])
    def test_full_gradient_check(self, activation):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, n=5, d=3)
        view = sort_view(ds)
        cfg = NetworkConfig(
            hidden_layers=2, nodes_per_layer=3, activation=activation, l2_coefficient=0.05
        )
        net = init_network(cfg, d=3, seed=22)
        # random biases keep pre-activations away from the ReLU kink, where
        # finite differences straddle the non-differentiable point
        for b in net.biases:
            b += rng.normal(scale=0.3, size=b.shape)
        risks, cache = forward_cached(net, ds.covariates)
        _, (_, pre_activations, _) = reference_forward(net, ds.covariates, False, None)
        assert min(np.abs(z).min() for z in pre_activations) > 1e-4
        grads = backward(
            net, cache, cox_loss_grad(risks, ds, view), cfg.l2_coefficient
        )

        def loss_at(flat):
            offset = 0
            trial = net.copy()
            for arr in trial.weights + trial.biases:
                arr[:] = flat[offset : offset + arr.size].reshape(arr.shape)
                offset += arr.size
            r = forward(trial, ds.covariates)
            return cox_loss(r, ds, view, cfg.l2_coefficient, trial)

        flat0 = np.concatenate([a.ravel() for a in net.weights + net.biases])
        fd = numeric_gradient(loss_at, flat0)
        analytic = np.concatenate([a.ravel() for a in grads])
        assert np.all(np.abs(analytic - fd) <= 1e-5 * np.maximum(1.0, np.abs(fd)))

    def test_dropout_mask_consistency(self):
        # backward through the cached mask matches finite differences of the
        # full dropout forward replayed with the same seed
        cfg = NetworkConfig(hidden_layers=1, nodes_per_layer=6, dropout_rate=0.5)
        net = init_network(cfg, d=3, seed=23)
        rng = np.random.default_rng(24)
        ds = random_dataset(rng, n=6, d=3)
        view = sort_view(ds)
        risks, cache = forward_cached(net, ds.covariates, dropout_rng=77)
        grads = backward(net, cache, cox_loss_grad(risks, ds, view))

        def loss_at(flat):
            offset = 0
            trial = net.copy()
            for arr in trial.weights + trial.biases:
                arr[:] = flat[offset : offset + arr.size].reshape(arr.shape)
                offset += arr.size
            r = forward_cached(trial, ds.covariates, dropout_rng=77)[0]
            return cox_loss(r, ds, view)

        flat0 = np.concatenate([a.ravel() for a in net.weights + net.biases])
        fd = numeric_gradient(loss_at, flat0)
        analytic = np.concatenate([a.ravel() for a in grads])
        assert np.all(np.abs(analytic - fd) <= 1e-5 * np.maximum(1.0, np.abs(fd)))

    def test_cache_mismatch(self):
        net = init_network(NetworkConfig(hidden_layers=2, nodes_per_layer=3), d=3, seed=0)
        other = init_network(NetworkConfig(hidden_layers=1, nodes_per_layer=3), d=3, seed=0)
        _, cache = forward_cached(other, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="cache"):
            backward(net, cache, np.zeros(2))


class TestSerialization:
    def test_round_trip_predictions(self):
        cfg = NetworkConfig(hidden_layers=2, nodes_per_layer=5, activation="selu", dropout_rate=0.2)
        net = init_network(cfg, d=4, seed=31)
        x = np.random.default_rng(32).normal(size=(7, 4))
        back = from_dict(to_dict(net))
        assert back.config == cfg
        assert np.array_equal(forward(back, x), forward(net, x))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["weights", "biases"])
    def test_non_finite_parameters_rejected(self, part, value):
        net = passthrough_net()
        getattr(net, part)[-1][0] = value
        with pytest.raises(ValueError, match="weights and biases must be finite"):
            RiskNetwork(weights=net.weights, biases=net.biases, config=net.config)

    @pytest.mark.parametrize("hidden_layers, nodes_per_layer", [(2, 2), (1, 3)])
    def test_layers_must_match_config(self, hidden_layers, nodes_per_layer):
        net = passthrough_net()  # one hidden layer of two units
        config = NetworkConfig(hidden_layers=hidden_layers, nodes_per_layer=nodes_per_layer)
        with pytest.raises(ValueError, match="hidden layer widths must match"):
            RiskNetwork(weights=net.weights, biases=net.biases, config=config)
