import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit.coxlinear import LinearCoxModel, fit_cph
from coxkit.data import SurvivalDataset, model_inputs
from coxkit.metrics import kaplan_meier, log_rank
from coxkit.recommend import (
    compare_groups,
    evaluate_recommendations,
    group_risks,
    predict,
    report_to_dict,
)
from coxkit.riskmlp import NetworkConfig, init_network
from coxkit.simulate import SimulationSpec, generate, risk_gaussian
from helpers import identity_standardization, reference_group_risks


def unscaled_inputs(ds):
    """The model inputs of `ds` with its covariates unscaled."""
    return model_inputs(ds, identity_standardization(ds.d))


def treatment_sim(n=400, seed=60):
    """The unscaled model inputs of a simulated treatment experiment."""
    sim = generate(
        SimulationSpec(
            n=n, d=10, risk_kind="gaussian", lambda_max=10.0, r=0.5,
            with_treatment=True, seed=seed,
        )
    )
    return unscaled_inputs(sim.dataset)


def linear_two_feature_model(beta_treatment=0.7):
    return LinearCoxModel(np.array([0.4, beta_treatment]), True, 3, -1.0)


def mixed_treatment_ds(labels=(0, 1, 0, 1)):
    """The model inputs of a small dataset of every group in `labels`, with
    one covariate: the inputs of `linear_two_feature_model`, whose last is the
    treatment."""
    treatments = np.array(labels)
    n = treatments.size
    return unscaled_inputs(SurvivalDataset(
        covariates=np.linspace(-1.0, 1.0, n)[:, None],
        times=np.arange(1.0, n + 1.0),
        events=np.ones(n, dtype=int),
        treatments=treatments,
    ))


def rec_values(model, x, i, j):
    """Risk with the treatment input forced to i minus forced to j, per row."""
    risks = group_risks(model, x, [i, j])
    return risks[:, 0] - risks[:, 1]


def _model_of_kind(data, kind, d, seed):
    """A model of `d` inputs, the last the treatment: a network with dropout
    configured, a linear model, a callable, or a callable returning a view of
    its input."""
    if kind == "network":
        config = NetworkConfig(
            hidden_layers=data.draw(st.integers(1, 3)),
            nodes_per_layer=data.draw(st.integers(1, 6)),
            activation=data.draw(st.sampled_from(["relu", "selu"])),
            dropout_rate=data.draw(st.sampled_from([0.0, 0.3, 0.6])),
        )
        return init_network(config, d=d, seed=seed)
    if kind == "linear":
        return LinearCoxModel(np.random.default_rng(seed).normal(size=d), True, 1, 0.0)
    if kind == "callable":
        return lambda X: np.tanh(X).sum(axis=1) * (1.0 + X[:, -1])
    column = data.draw(st.integers(0, d - 1))
    return lambda X: X[:, column]


class TestGroupRisks:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_per_group_oracle_bit_for_bit(self, data):
        d = data.draw(st.integers(1, 5))
        seed = data.draw(st.integers(0, 2**16))
        # x holds every model input; its last, the treatment, is overwritten
        shape = data.draw(st.sampled_from([(d,), (1, d), (7, d)]))
        x = np.random.default_rng(seed).normal(size=shape)
        groups = data.draw(
            st.lists(st.integers(0, 3), min_size=2, max_size=3, unique=True)
        )
        kind = data.draw(st.sampled_from(["network", "linear", "callable", "view"]))
        model = _model_of_kind(data, kind, d, seed)
        before = x.copy()
        risks = group_risks(model, x, groups)
        expected = reference_group_risks(model, x, groups)
        assert risks.shape == expected.shape == (np.atleast_2d(x).shape[0], len(groups))
        assert risks.tobytes() == expected.tobytes()
        assert np.array_equal(x, before)  # the input is never written


class TestPredict:
    @pytest.mark.parametrize("kind", ["linear", "network"])
    def test_one_risk_per_row(self, kind):
        if kind == "linear":
            model = LinearCoxModel(np.array([1.0, 2.0, -0.5]), True, 3, -1.0)
        else:
            model = init_network(NetworkConfig(hidden_layers=2, nodes_per_layer=4), d=3, seed=0)
        x = np.random.default_rng(1).normal(size=(5, 3))
        risks = predict(model, x)
        assert risks.shape == (5,)
        row = predict(model, x[2])
        assert isinstance(row, np.ndarray) and row.shape == (1,)
        assert row.tobytes() == predict(model, x[2:3]).tobytes()


class TestRecFn:
    def test_same_group_zero(self):
        net = init_network(NetworkConfig(hidden_layers=1, nodes_per_layer=4), d=3, seed=0)
        x = np.array([0.1, 0.2, 0.0])
        assert rec_values(net, x, 1, 1) == 0.0

    def test_linear_model_constant(self):
        # beta[1] * (1 - 0) for every patient, up to the rounding of x @ beta
        model = linear_two_feature_model(0.7)
        x = np.random.default_rng(61).normal(size=(10, 2))
        values = rec_values(model, x, 1, 0)
        np.testing.assert_allclose(values, 0.7, rtol=0, atol=1e-15)

    def test_antisymmetry_exact(self):
        cfg = NetworkConfig(hidden_layers=2, nodes_per_layer=6, dropout_rate=0.4)
        net = init_network(cfg, d=4, seed=62)
        rng = np.random.default_rng(63)
        x = rng.normal(size=(20, 4))
        fwd = rec_values(net, x, 1, 0)
        rev = rec_values(net, x, 0, 1)
        assert np.array_equal(fwd, -rev)

    def test_deterministic_despite_dropout_config(self):
        cfg = NetworkConfig(hidden_layers=1, nodes_per_layer=8, dropout_rate=0.5)
        net = init_network(cfg, d=3, seed=64)
        x = np.array([0.3, -0.2, 0.0])
        assert rec_values(net, x, 1, 0) == rec_values(net, x, 1, 0)

    def test_output_bias_shift_invisible(self):
        net = init_network(NetworkConfig(hidden_layers=1, nodes_per_layer=5), d=3, seed=65)
        x = np.random.default_rng(66).normal(size=(7, 3))
        before = rec_values(net, x, 1, 0)
        net.biases[-1][0] += 3.25
        # the shared constant cancels in the difference, up to rounding
        assert np.allclose(rec_values(net, x, 1, 0), before, atol=1e-12)

    def test_ground_truth_gaussian_treatment(self):
        # callable model matching the generating risks of the treatment arm
        def true_model(X):
            return X[:, -1] * risk_gaussian(X[:, :-1], 10.0, 0.5)

        origin = np.zeros(11)
        assert rec_values(true_model, origin, 1, 0)[0] == pytest.approx(
            np.log(10.0), abs=1e-12
        )
        far = np.zeros(11)
        far[0], far[1] = 1.0, 1.0
        assert abs(rec_values(true_model, far, 1, 0)[0]) < 0.05


class TestRecommendTreatment:
    def test_positive_rec_prefers_other_group(self):
        model = linear_two_feature_model(0.7)  # treatment 1 riskier
        report = evaluate_recommendations(mixed_treatment_ds(), model)
        assert np.all(report.rec_values > 0)
        assert np.all(report.recommended == 0)

    def test_negative_rec_prefers_treatment(self):
        model = linear_two_feature_model(-0.7)
        report = evaluate_recommendations(mixed_treatment_ds(), model)
        assert np.all(report.rec_values < 0)
        assert np.all(report.recommended == 1)

    def test_tie_breaks_to_lower_label(self):
        model = linear_two_feature_model(0.0)
        report = evaluate_recommendations(mixed_treatment_ds(), model)
        assert np.all(report.rec_values == 0)
        assert np.all(report.recommended == 0)

    def test_three_groups_argmin(self):
        model = linear_two_feature_model(-1.0)  # risk decreases with label
        ds = mixed_treatment_ds((0, 1, 2, 2, 1, 0))
        report = evaluate_recommendations(ds, model)
        assert report.rec_values is None
        assert np.all(report.recommended == 2)
        assert np.array_equal(report.is_recommendation, ds.treatments == 2)

    def test_matrix_input(self):
        model = linear_two_feature_model(0.7)
        ds = mixed_treatment_ds((0, 1, 1, 0, 1))
        report = evaluate_recommendations(ds, model)
        assert np.array_equal(report.recommended, np.zeros(5))


class TestCompareGroups:
    @pytest.mark.parametrize("n_masks", [1, 2, 3])
    def test_each_curve_and_the_two_group_test(self, n_masks):
        rng = np.random.default_rng(69)
        times = rng.integers(1, 15, size=90).astype(float)
        events = (rng.random(90) < 0.7).astype(np.int64)
        masks = [np.arange(90) % n_masks == k for k in range(n_masks)]
        curves, test = compare_groups(times, events, masks, alpha=0.2)
        assert len(curves) == n_masks
        for curve, mask in zip(curves, masks):
            want = kaplan_meier(times[mask], events[mask], alpha=0.2)
            for field in dataclasses.fields(want):
                assert np.array_equal(getattr(curve, field.name), getattr(want, field.name))
        if n_masks == 2:
            a, b = masks
            assert test == log_rank(times[a], events[a], times[b], events[b])
        else:
            assert test is None
        # the default level draws other bands from the same estimate
        default, _ = compare_groups(times, events, masks)
        assert np.array_equal(default[0].survival, curves[0].survival)
        assert not np.array_equal(default[0].ci_lower, curves[0].ci_lower)


class TestEvaluateRecommendations:
    def test_linear_model_constant_partition(self):
        ds = treatment_sim()
        model = fit_cph(ds)
        report = evaluate_recommendations(ds, model)
        # a linear model recommends the same group to everyone
        assert report.rec_values is not None
        assert report.rec_values.max() - report.rec_values.min() < 1e-12
        constant = report.recommended[0]
        assert np.all(report.recommended == constant)
        assert np.array_equal(report.is_recommendation, ds.treatments == constant)

    def test_network_report_structure(self):
        ds = treatment_sim()
        net = init_network(
            NetworkConfig(hidden_layers=1, nodes_per_layer=8), d=ds.d, seed=67
        )
        report = evaluate_recommendations(ds, net)
        n_rec = int(report.is_recommendation.sum())
        assert 0 < n_rec < ds.n
        assert report.log_rank_result.p_value <= 1.0
        body = report_to_dict(report)
        assert body["n_recommendation"] == n_rec
        assert len(body["recommended"]) == ds.n
        assert set(body["median_survival"]) == {"recommendation", "anti_recommendation"}

    def test_ground_truth_model_buys_survival(self):
        ds = treatment_sim(n=1200, seed=68)

        def true_model(X):
            return X[:, -1] * risk_gaussian(X[:, :-1], 10.0, 0.5)

        report = evaluate_recommendations(ds, true_model)
        assert report.median_recommendation > report.median_anti_recommendation
        assert report.log_rank_result.p_value < 0.05

    def test_requires_treatments(self):
        ds = SurvivalDataset(covariates=[[1.0]], times=[1.0], events=[1])
        with pytest.raises(ValueError, match="no treatments"):
            evaluate_recommendations(ds, linear_two_feature_model())

    def test_empty_anti_subset_is_an_error(self):
        # x0 mirrors the assigned label, and the model scores the forced
        # group against it, so every recommendation matches the assignment
        treatments = np.array([0, 1, 0, 1])
        ds = unscaled_inputs(SurvivalDataset(
            covariates=treatments.astype(float)[:, None],
            times=[1.0, 2.0, 3.0, 4.0],
            events=[1, 1, 1, 1],
            treatments=treatments,
        ))

        def agreeable(X):
            return (X[:, 1] - X[:, 0]) ** 2

        with pytest.raises(ValueError, match="Anti-Recommendation subset is empty"):
            evaluate_recommendations(ds, agreeable)

    @pytest.mark.parametrize("last", ["covariate", "shifted label"])
    def test_last_input_must_be_the_treatment(self, last):
        # covariates without the treatment input, or a label column that is
        # not the label: overwriting that last column would replace a covariate
        ds = mixed_treatment_ds()
        x = ds.covariates[:, :1] if last == "covariate" else ds.covariates + 1.0
        wrong = SurvivalDataset(
            covariates=x, times=ds.times, events=ds.events, treatments=ds.treatments
        )
        with pytest.raises(ValueError, match="last input column is not the treatment"):
            evaluate_recommendations(wrong, linear_two_feature_model())
