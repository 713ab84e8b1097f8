import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit.coxlinear import LinearCoxModel, fit_cph
from coxkit.data import SurvivalDataset, append_treatment_feature
from coxkit.recommend import (
    evaluate_recommendations,
    group_risks,
    report_to_dict,
)
from coxkit.riskmlp import NetworkConfig, init_network
from coxkit.simulate import SimulationSpec, generate, risk_gaussian
from helpers import reference_group_risks


def treatment_sim(n=400, seed=60):
    sim = generate(
        SimulationSpec(
            n=n, d=10, risk_kind="gaussian", lambda_max=10.0, r=0.5,
            with_treatment=True, seed=seed,
        )
    )
    ds, index = append_treatment_feature(sim.dataset)
    return ds, index


def linear_two_feature_model(beta_treatment=0.7):
    return LinearCoxModel(np.array([0.4, beta_treatment]), True, 3, -1.0)


def mixed_treatment_ds(labels=(0, 1, 0, 1)):
    """A small dataset of every group in `labels`, each patient's label in
    covariate column 1 (the treatment input of `linear_two_feature_model`)."""
    treatments = np.array(labels)
    n = treatments.size
    return SurvivalDataset(
        covariates=np.column_stack([np.linspace(-1.0, 1.0, n), treatments]),
        times=np.arange(1.0, n + 1.0),
        events=np.ones(n, dtype=int),
        treatments=treatments,
    )


def rec_values(model, x, treatment_index, i, j):
    """Risk with the treatment input forced to i minus forced to j, per row."""
    risks = group_risks(model, x, treatment_index, [i, j])
    return risks[:, 0] - risks[:, 1]


def _model_of_kind(data, kind, d, treatment_index, seed):
    """A model of `d` inputs: a network with dropout configured, a linear
    model, a callable, or a callable returning a view of its input."""
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
        return lambda X: np.tanh(X).sum(axis=1) * (1.0 + X[:, treatment_index])
    column = data.draw(st.integers(0, d - 1))
    return lambda X: X[:, column]


class TestGroupRisks:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_per_group_oracle_bit_for_bit(self, data):
        d = data.draw(st.integers(1, 5))
        treatment_index = data.draw(st.integers(0, d - 1))
        seed = data.draw(st.integers(0, 2**16))
        shape = data.draw(st.sampled_from([(d,), (1, d), (7, d)]))
        x = np.random.default_rng(seed).normal(size=shape)
        groups = data.draw(
            st.lists(st.integers(0, 3), min_size=2, max_size=3, unique=True)
        )
        kind = data.draw(st.sampled_from(["network", "linear", "callable", "view"]))
        model = _model_of_kind(data, kind, d, treatment_index, seed)
        before = x.copy()
        risks = group_risks(model, x, treatment_index, groups)
        expected = reference_group_risks(model, x, treatment_index, groups)
        assert risks.shape == expected.shape == (np.atleast_2d(x).shape[0], len(groups))
        assert risks.tobytes() == expected.tobytes()
        assert np.array_equal(x, before)  # the input is never forced in place

    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="out of range for d=3"):
            group_risks(lambda X: X[:, 0], np.zeros((2, 3)), index, [0, 1])


class TestRecFn:
    def test_same_group_zero(self):
        net = init_network(NetworkConfig(hidden_layers=1, nodes_per_layer=4), d=3, seed=0)
        x = np.array([0.1, 0.2, 1.0])
        assert rec_values(net, x, 2, 1, 1) == 0.0

    def test_linear_model_constant(self):
        # beta[1] * (1 - 0) for every patient, up to the rounding of x @ beta
        model = linear_two_feature_model(0.7)
        x = np.random.default_rng(61).normal(size=(10, 2))
        values = rec_values(model, x, 1, 1, 0)
        np.testing.assert_allclose(values, 0.7, rtol=0, atol=1e-15)

    def test_antisymmetry_exact(self):
        cfg = NetworkConfig(hidden_layers=2, nodes_per_layer=6, dropout_rate=0.4)
        net = init_network(cfg, d=4, seed=62)
        rng = np.random.default_rng(63)
        x = rng.normal(size=(20, 4))
        fwd = rec_values(net, x, 3, 1, 0)
        rev = rec_values(net, x, 3, 0, 1)
        assert np.array_equal(fwd, -rev)

    def test_deterministic_despite_dropout_config(self):
        cfg = NetworkConfig(hidden_layers=1, nodes_per_layer=8, dropout_rate=0.5)
        net = init_network(cfg, d=3, seed=64)
        x = np.array([0.3, -0.2, 0.0])
        assert rec_values(net, x, 2, 1, 0) == rec_values(net, x, 2, 1, 0)

    def test_output_bias_shift_invisible(self):
        net = init_network(NetworkConfig(hidden_layers=1, nodes_per_layer=5), d=3, seed=65)
        x = np.random.default_rng(66).normal(size=(7, 3))
        before = rec_values(net, x, 2, 1, 0)
        net.biases[-1][0] += 3.25
        # the shared constant cancels in the difference, up to rounding
        assert np.allclose(rec_values(net, x, 2, 1, 0), before, atol=1e-12)

    def test_ground_truth_gaussian_treatment(self):
        # callable model matching the generating risks of the treatment arm
        def true_model(X):
            return X[:, -1] * risk_gaussian(X[:, :-1], 10.0, 0.5)

        origin = np.zeros(11)
        assert rec_values(true_model, origin, 10, 1, 0)[0] == pytest.approx(
            np.log(10.0), abs=1e-12
        )
        far = np.zeros(11)
        far[0], far[1] = 1.0, 1.0
        assert abs(rec_values(true_model, far, 10, 1, 0)[0]) < 0.05


class TestRecommendTreatment:
    def test_positive_rec_prefers_other_group(self):
        model = linear_two_feature_model(0.7)  # treatment 1 riskier
        report = evaluate_recommendations(mixed_treatment_ds(), model, 1)
        assert np.all(report.rec_values > 0)
        assert np.all(report.recommended == 0)

    def test_negative_rec_prefers_treatment(self):
        model = linear_two_feature_model(-0.7)
        report = evaluate_recommendations(mixed_treatment_ds(), model, 1)
        assert np.all(report.rec_values < 0)
        assert np.all(report.recommended == 1)

    def test_tie_breaks_to_lower_label(self):
        model = linear_two_feature_model(0.0)
        report = evaluate_recommendations(mixed_treatment_ds(), model, 1)
        assert np.all(report.rec_values == 0)
        assert np.all(report.recommended == 0)

    def test_three_groups_argmin(self):
        model = linear_two_feature_model(-1.0)  # risk decreases with label
        ds = mixed_treatment_ds((0, 1, 2, 2, 1, 0))
        report = evaluate_recommendations(ds, model, 1)
        assert report.rec_values is None
        assert np.all(report.recommended == 2)
        assert np.array_equal(report.is_recommendation, ds.treatments == 2)

    def test_matrix_input(self):
        model = linear_two_feature_model(0.7)
        ds = mixed_treatment_ds((0, 1, 1, 0, 1))
        report = evaluate_recommendations(ds, model, 1)
        assert np.array_equal(report.recommended, np.zeros(5))


class TestEvaluateRecommendations:
    def test_linear_model_constant_partition(self):
        ds, index = treatment_sim()
        model = fit_cph(ds)
        report = evaluate_recommendations(ds, model, index)
        # a linear model recommends the same group to everyone
        assert report.rec_values is not None
        assert report.rec_values.max() - report.rec_values.min() < 1e-12
        constant = report.recommended[0]
        assert np.all(report.recommended == constant)
        assert np.array_equal(report.is_recommendation, ds.treatments == constant)

    def test_network_report_structure(self):
        ds, index = treatment_sim()
        net = init_network(
            NetworkConfig(hidden_layers=1, nodes_per_layer=8), d=ds.d, seed=67
        )
        report = evaluate_recommendations(ds, net, index)
        n_rec = int(report.is_recommendation.sum())
        assert 0 < n_rec < ds.n
        assert report.log_rank_result.p_value <= 1.0
        body = report_to_dict(report)
        assert body["n_recommendation"] == n_rec
        assert len(body["recommended"]) == ds.n
        assert set(body["median_survival"]) == {"recommendation", "anti_recommendation"}

    def test_ground_truth_model_buys_survival(self):
        ds, index = treatment_sim(n=1200, seed=68)

        def true_model(X):
            return X[:, -1] * risk_gaussian(X[:, :-1], 10.0, 0.5)

        report = evaluate_recommendations(ds, true_model, index)
        assert report.median_recommendation > report.median_anti_recommendation
        assert report.log_rank_result.p_value < 0.05

    def test_requires_treatments(self):
        ds = SurvivalDataset(covariates=[[1.0, 0.0]], times=[1.0], events=[1])
        with pytest.raises(ValueError, match="no treatments"):
            evaluate_recommendations(ds, linear_two_feature_model(), 1)

    def test_covariate_column_must_hold_labels(self):
        ds, index = treatment_sim()
        with pytest.raises(ValueError, match="treatment labels"):
            evaluate_recommendations(ds, fit_cph(ds), index - 1)

    @pytest.mark.parametrize("index", [0, -1, 2])
    def test_labels_checked_before_any_forward_pass(self, index):
        calls = []

        def model(X):
            calls.append(X.shape)
            return X[:, 0]

        with pytest.raises(ValueError, match="treatment labels"):
            evaluate_recommendations(mixed_treatment_ds(), model, index)
        assert calls == []

    def test_empty_anti_subset_is_an_error(self):
        # x0 mirrors the assigned label, and the model scores the forced
        # group against it, so every recommendation matches the assignment
        treatments = np.array([0, 1, 0, 1])
        covariates = np.column_stack([treatments.astype(float), treatments.astype(float)])
        ds = SurvivalDataset(
            covariates=covariates,
            times=[1.0, 2.0, 3.0, 4.0],
            events=[1, 1, 1, 1],
            treatments=treatments,
        )

        def agreeable(X):
            return (X[:, 1] - X[:, 0]) ** 2

        with pytest.raises(ValueError, match="Anti-Recommendation subset is empty"):
            evaluate_recommendations(ds, agreeable, 1)
