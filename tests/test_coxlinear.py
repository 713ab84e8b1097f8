import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import coxlinear
from coxkit.coxlinear import (
    FitError,
    LinearCoxModel,
    _newton_terms,
    fit_cph,
    from_dict,
    to_dict,
)
from coxkit.data import SurvivalDataset, model_inputs, sort_view, standardize_fit
from coxkit.metrics import concordance_index
from coxkit.recommend import group_risks, predict
from coxkit.simulate import SimulationSpec, generate
from helpers import cumsum_loglik_grad_hess, numeric_gradient, random_dataset


def two_patient_ds():
    return SurvivalDataset(covariates=[[1.0], [0.0]], times=[1.0, 2.0], events=[1, 1])


def sorted_arrays(ds, view):
    perm = view.permutation
    return ds.covariates[perm], ds.events[perm], view.tie_groups


def log_likelihood(beta, ds, view=None):
    """Log partial likelihood of `beta` on the dataset, from `_newton_terms`."""
    xs, es, groups = sorted_arrays(ds, sort_view(ds) if view is None else view)
    return _newton_terms(np.asarray(beta, dtype=float), xs, es, groups)[0]


def loop_log_likelihood(beta, ds):
    """Breslow log partial likelihood by one log-sum-exp over each event's risk set."""
    eta = ds.covariates @ beta
    return sum(
        eta[i] - np.logaddexp.reduce(eta[ds.times >= ds.times[i]])
        for i in np.flatnonzero(ds.events)
    )


class TestLogLikelihood:
    def test_beta_zero_two_events(self):
        ds = SurvivalDataset(covariates=[[0.3], [0.8]], times=[1, 2], events=[1, 1])
        assert log_likelihood(np.zeros(1), ds) == pytest.approx(
            -np.log(2.0), abs=1e-12
        )

    def test_beta_zero_three_events(self):
        ds = SurvivalDataset(covariates=[[1.0], [2.0], [3.0]], times=[1, 2, 3], events=[1, 1, 1])
        assert log_likelihood(np.zeros(1), ds) == pytest.approx(
            -(np.log(3.0) + np.log(2.0)), abs=1e-12
        )

    def test_hand_value(self):
        # events at t=1 (x=1, risk set both) and t=2 (x=0, risk set self)
        value = log_likelihood(np.array([1.0]), two_patient_ds())
        assert value == pytest.approx(1.0 - np.log(np.e + 1.0), abs=1e-12)

    def test_no_events(self):
        # an empty sum of event terms, which leaves nothing to fit
        ds = SurvivalDataset(covariates=[[1.0]], times=[1.0], events=[0])
        assert log_likelihood(np.zeros(1), ds) == 0.0
        with pytest.raises(ValueError, match="no observed events"):
            fit_cph(ds)

    def test_breslow_ties_share_denominator(self):
        # two events tied at t=1 against one survivor: each term uses the
        # full 3-patient denominator
        ds = SurvivalDataset(
            covariates=[[1.0], [0.5], [0.0]], times=[1, 1, 2], events=[1, 1, 0]
        )
        beta = np.array([0.7])
        eta = ds.covariates[:, 0] * 0.7
        denom = np.log(np.exp(eta).sum())
        expected = (eta[0] - denom) + (eta[1] - denom)
        assert log_likelihood(beta, ds) == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            ds = random_dataset(rng, n=int(rng.integers(5, 40)), d=3, tie_times=True)
            view = sort_view(ds)
            xs, es, groups = sorted_arrays(ds, view)
            beta = rng.normal(scale=0.7, size=3)
            _, grad, _ = _newton_terms(beta, xs, es, groups)
            fd = numeric_gradient(lambda b: log_likelihood(b, ds, view), beta)
            assert np.all(
                np.abs(grad - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd))
            ), f"grad {grad} vs fd {fd}"

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, n=25, d=2)
        view = sort_view(ds)
        xs, es, groups = sorted_arrays(ds, view)
        beta = np.array([0.4, -0.2])
        _, _, hess = _newton_terms(beta, xs, es, groups)
        for k in range(2):
            def grad_k(b):
                _, g, _ = _newton_terms(b, xs, es, groups)
                return g[k]
            row = numeric_gradient(grad_k, beta)
            assert np.allclose(hess[k], row, rtol=1e-5, atol=1e-7)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 60),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
    )
    def test_matches_cumsum_oracle(self, n, d, seed, coefs):
        ds = random_dataset(np.random.default_rng(seed), n=n, d=d, tie_times=True)
        xs, es, groups = sorted_arrays(ds, sort_view(ds))
        beta = np.array(coefs[:d])
        got = _newton_terms(beta, xs, es, groups)
        want = cumsum_loglik_grad_hess(beta, xs, es, groups[:, 0], groups[:, 1])
        # Gradient and Hessian entries are differences of sums over all
        # patients, so an entry near 0 keeps the rounding error of those
        # sums (measured up to 1e-15 of `scale`).
        scale = 1e-13 * np.abs(xs).sum() * max(1.0, np.abs(xs).max())
        assert got[0] == pytest.approx(want[0], rel=1e-10)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-10, atol=scale)
        np.testing.assert_allclose(got[2], want[2], rtol=1e-10, atol=scale)

    def test_derivatives_when_late_risks_underflow(self):
        # The six latest patients sit about 900 below the others on x0, so
        # their risk sets underflow a shift by the largest risk.
        rng = np.random.default_rng(3)
        x0 = np.concatenate([rng.normal(400.0, 1.0, 6), rng.normal(-500.0, 1.0, 6)])
        times = np.arange(1.0, 13.0)
        times[7] = times[8]
        ds = SurvivalDataset(
            covariates=np.column_stack([x0, rng.normal(size=12)]),
            times=times,
            events=np.ones(12, dtype=int),
        )
        view = sort_view(ds)
        xs, es, groups = sorted_arrays(ds, view)
        beta = np.array([1.0, 0.5])
        ll, grad, hess = _newton_terms(beta, xs, es, groups)
        assert ll == pytest.approx(loop_log_likelihood(beta, ds), rel=1e-12)
        fd = numeric_gradient(lambda b: log_likelihood(b, ds, view), beta)
        np.testing.assert_allclose(grad, fd, rtol=1e-6)
        for k in range(2):
            row = numeric_gradient(lambda b: _newton_terms(b, xs, es, groups)[1][k], beta)
            np.testing.assert_allclose(hess[k], row, rtol=1e-4)


class TestFit:
    def test_no_events_rejected(self):
        ds = SurvivalDataset(covariates=[[1.0], [2.0]], times=[1, 2], events=[0, 0])
        with pytest.raises(ValueError, match="no observed events"):
            fit_cph(ds)

    def test_matches_grid_search(self):
        ds = SurvivalDataset(
            covariates=[[1.0], [-1.0], [0.0]], times=[1, 2, 3], events=[1, 1, 1]
        )
        model = fit_cph(ds)
        # independent oracle: exhaustive grid over beta in [-10, 10]
        grid = np.arange(-10.0, 10.0, 1e-4)
        x = np.array([1.0, -1.0, 0.0])
        # events in time order 1, 2, 3 with shrinking risk sets
        ll = (
            (grid * x[0] - np.log(np.exp(grid * x[0]) + np.exp(grid * x[1]) + np.exp(grid * x[2])))
            + (grid * x[1] - np.log(np.exp(grid * x[1]) + np.exp(grid * x[2])))
            + (grid * x[2] - np.log(np.exp(grid * x[2])))
        )
        best = grid[np.argmax(ll)]
        assert model.beta[0] == pytest.approx(best, abs=1e-3)
        assert model.converged

    def test_recovers_generating_coefficients(self):
        sim = generate(SimulationSpec(n=2000, d=10, risk_kind="linear", seed=21))
        model = fit_cph(sim.dataset)
        truth = np.zeros(10)
        truth[0], truth[1] = 1.0, 2.0
        assert np.all(np.abs(model.beta - truth) < 0.15)
        assert model.converged and model.iterations <= 100

    def test_singular_hessian(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(30, 1))
        ds = SurvivalDataset(
            covariates=np.hstack([x, x]),  # duplicated column
            times=rng.uniform(1, 5, 30),
            events=np.ones(30, dtype=int),
        )
        with pytest.raises(FitError, match="singular"):
            fit_cph(ds)

    def test_perfect_separation_flags_divergence(self):
        ds = SurvivalDataset(
            covariates=[[1.0], [1.0], [0.0], [0.0]],
            times=[1.0, 2.0, 3.0, 4.0],
            events=[1, 1, 1, 1],
        )
        model = fit_cph(ds)
        assert model.diverged
        assert not model.converged

    @staticmethod
    def _ordered(x0, noise_columns=0, standardized=False, seed=0):
        """Every patient an event, and times ordered by `x0`: no finite beta
        maximizes the likelihood."""
        n = len(x0)
        noise = np.random.default_rng(seed).normal(size=(n, noise_columns))
        ds = SurvivalDataset(
            covariates=np.column_stack([x0, noise]),
            times=np.arange(1.0, n + 1.0),
            events=np.ones(n, dtype=int),
        )
        return model_inputs(ds, standardize_fit(ds)) if standardized else ds

    def test_monotone_likelihood_flags_divergence(self):
        # On the raw covariate, n=50 and n=200 once ended with steps below
        # STEP_TOL and converged=True (beta 27.8 and 23.1, linear predictor
        # spans 1364 and 4597); n=10 and standardized inputs hit the cap.
        for n in (10, 50, 200):
            for standardized in (False, True):
                ds = self._ordered(np.arange(n - 1.0, -1.0, -1.0), standardized=standardized)
                model = fit_cph(ds)
                assert model.diverged and not model.converged, (n, standardized)
                assert model.iterations <= 40  # n=50 and n=200 took 72 and 71

    def test_separating_covariate_among_noise_flags_divergence(self):
        for standardized in (False, True):
            ds = self._ordered(np.arange(99.0, -1.0, -1.0), 3, standardized, seed=4)
            model = fit_cph(ds)
            assert model.diverged and not model.converged, standardized

    def test_shift_invariance_of_ordering(self):
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, n=150, d=3)
        shifted = SurvivalDataset(
            covariates=ds.covariates + np.array([0.0, 7.5, 0.0]),
            times=ds.times,
            events=ds.events,
        )
        a = fit_cph(ds)
        b = fit_cph(shifted)
        # partial likelihood depends on covariate differences only
        assert np.allclose(a.beta, b.beta, atol=1e-6)
        ra = predict(a, ds.covariates)
        rb = predict(b, shifted.covariates)
        assert concordance_index(ds.times, ds.events, ra) == pytest.approx(
            concordance_index(ds.times, ds.events, rb), abs=1e-12
        )

    # Draws whose converged Newton step lowers the log-likelihood by rounding
    # noise; halving on that cost 11 to 24 extra evaluations each.
    @pytest.mark.parametrize("seed", [3, 9, 24])
    def test_rounding_noise_costs_no_halving(self, seed, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _newton_terms(*args, **kwargs)

        monkeypatch.setattr(coxlinear, "_newton_terms", counted)
        model = fit_cph(generate(SimulationSpec(n=200, d=5, seed=seed)).dataset)
        assert model.converged
        assert len(calls) == model.iterations + 1

    def test_memory_linear_in_d(self):
        # The (n, d, d) cumulative sum of second moments took 68.5 MiB here.
        ds = generate(SimulationSpec(n=2000, d=40, seed=5)).dataset
        tracemalloc.start()
        try:
            fit_cph(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestPredictAndRecommender:
    def test_zero_input(self):
        model = LinearCoxModel(np.array([1.5, -2.0]), True, 3, -1.0)
        assert predict(model, np.zeros(2)) == 0.0

    def test_dot_product(self):
        model = LinearCoxModel(np.array([1.0, 2.0]), True, 3, -1.0)
        assert predict(model, np.array([1.0, 1.0])) == 3.0

    def test_noise_coordinates_orthogonal(self):
        beta = np.zeros(5)
        beta[0], beta[1] = 1.0, 2.0
        model = LinearCoxModel(beta, True, 3, -1.0)
        x = np.array([0.0, 0.0, 3.0, -2.0, 5.0])
        assert predict(model, x) == 0.0

    def test_dimension_mismatch(self):
        model = LinearCoxModel(np.array([1.0]), True, 1, -1.0)
        with pytest.raises(ValueError, match="x has 3 features, model has 1"):
            predict(model, np.zeros(3))
        with pytest.raises(ValueError, match="x has 3 features, model has 1"):
            predict(model, np.zeros((4, 3)))

    def test_recommender_same_group(self):
        model = LinearCoxModel(np.array([0.1, 0.7]), True, 1, -1.0)
        x = np.random.default_rng(14).normal(size=(6, 2))
        risks = group_risks(model, x, [1, 1])
        assert np.array_equal(risks[:, 0] - risks[:, 1], np.zeros(6))

    def test_recommender_value(self):
        # beta[-1] * (1 - 0) for every patient, up to the rounding of x @ beta
        model = LinearCoxModel(np.array([0.1, 0.7]), True, 1, -1.0)
        x = np.random.default_rng(15).normal(size=(6, 2))
        risks = group_risks(model, x, [1, 0])
        np.testing.assert_allclose(risks[:, 0] - risks[:, 1], 0.7, rtol=0, atol=1e-15)


class TestModelArrays:
    def test_caller_beta_is_copied(self):
        beta = np.array([0.3, -1.2])
        model = LinearCoxModel(beta, True, 7, -52.5)
        beta[0] = np.nan
        assert model.beta.tolist() == [0.3, -1.2]
        assert not model.beta.flags.writeable


class TestSerialization:
    def test_round_trip(self):
        model = LinearCoxModel(np.array([0.3, -1.2]), True, 7, -52.5, diverged=False)
        back = from_dict(to_dict(model))
        assert np.array_equal(back.beta, model.beta)
        assert back.converged == model.converged
        assert back.iterations == model.iterations
        assert back.final_log_likelihood == model.final_log_likelihood
