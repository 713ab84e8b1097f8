"""Linear Cox proportional-hazards regression.

The log partial likelihood is maximized by Newton-Raphson with analytic
gradient and Hessian, step halving, and a divergence cap for monotone
likelihoods (perfect separation). Tied event times share one risk-set
denominator (Breslow).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coxkit.data import SortedSurvivalView, SurvivalDataset, sort_view

DIVERGENCE_CAP = 50.0

# A flat partial likelihood (perfect separation) drives |beta| up by a near
# constant step each Newton iteration while the gradient and Hessian decay
# like exp(-|beta|); past this magnitude a vanished gradient means a monotone
# likelihood rather than a singular design.
_MONOTONE_BETA = 10.0

# A log-likelihood drop of at most this many ulps of |ll| is rounding noise;
# measured drops at convergence are 1-3 ulps.
_ROUNDING_ULPS = 16


class FitError(RuntimeError):
    """Raised when the partial likelihood cannot be maximized."""


@dataclass(frozen=True)
class LinearCoxModel:
    """Fitted log-hazard weights with convergence diagnostics."""

    beta: np.ndarray
    converged: bool
    iterations: int
    final_log_likelihood: float
    diverged: bool = False

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if not np.all(np.isfinite(self.beta)):
            raise ValueError("beta must be finite")


def _sorted_arrays(ds: SurvivalDataset, view: SortedSurvivalView):
    perm = view.permutation
    starts = view.tie_groups[:, 0]
    stops = view.tie_groups[:, 1]
    return ds.covariates[perm], ds.events[perm], starts, stops


def _loglik_grad_hess(beta, xs, es, starts, stops, want_derivatives=True):
    """Log partial likelihood (Breslow ties) and optional derivatives.

    `xs`/`es` are in descending-time order; the risk set of any event in tie
    group g is the sorted prefix [0, stops[g]). Prefix sums of exp-risk
    moments over that order give every denominator at once; the exponent is
    max-shifted for stability.
    """
    eta = xs @ beta
    shift = eta.max()
    w = np.exp(eta - shift)

    deaths = np.add.reduceat(es, starts)
    # reduceat on an empty trailing slice repeats the last element; starts
    # always partition [0, n) so every slice is non-empty.
    event_groups = deaths > 0
    d_g = deaths[event_groups].astype(float)
    ends = stops[event_groups] - 1

    s0 = np.cumsum(w)[ends]
    ll = float(eta[es == 1].sum() - (d_g * (shift + np.log(s0))).sum())
    if not want_derivatives:
        return ll, None, None

    wx = w[:, None] * xs
    s1 = np.cumsum(wx, axis=0)[ends]
    s2 = np.cumsum(wx[:, :, None] * xs[:, None, :], axis=0)[ends]

    mean = s1 / s0[:, None]
    grad = xs[es == 1].sum(axis=0) - (d_g[:, None] * mean).sum(axis=0)
    cov = s2 / s0[:, None, None] - mean[:, :, None] * mean[:, None, :]
    hess = -(d_g[:, None, None] * cov).sum(axis=0)
    return ll, grad, hess


def cox_log_likelihood(
    beta, ds: SurvivalDataset, view: SortedSurvivalView | None = None
) -> float:
    """Log partial likelihood of `beta` on the dataset (Breslow ties)."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (ds.d,):
        raise ValueError(f"beta has {beta.shape} entries, dataset has d={ds.d}")
    if ds.n_events == 0:
        raise ValueError("no observed events")
    if view is None:
        view = sort_view(ds)
    xs, es, starts, stops = _sorted_arrays(ds, view)
    ll, _, _ = _loglik_grad_hess(beta, xs, es, starts, stops, want_derivatives=False)
    return ll


def fit_cph(
    ds: SurvivalDataset, max_iter: int = 100, tol: float = 1e-9
) -> LinearCoxModel:
    """Maximize the log partial likelihood by Newton-Raphson from beta = 0.

    The Newton step is halved while it fails to improve the likelihood;
    iteration stops when the accepted step's infinity norm drops below `tol`.
    Coefficients escaping past a magnitude cap signal a monotone likelihood
    (perfect separation): the fit returns with `diverged` set instead of
    looping to the iteration limit.
    """
    if ds.n_events == 0:
        raise ValueError("no observed events")
    view = sort_view(ds)
    xs, es, starts, stops = _sorted_arrays(ds, view)

    beta = np.zeros(ds.d)
    ll, grad, hess = _loglik_grad_hess(beta, xs, es, starts, stops)
    iterations = 0
    converged = False
    diverged = False
    for iterations in range(1, max_iter + 1):
        singular = False
        step = None
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            singular = True
        if step is not None and (
            not np.all(np.isfinite(step)) or np.linalg.cond(hess) > 1e12
        ):
            singular = True
        if singular:
            if (
                np.max(np.abs(beta)) > _MONOTONE_BETA
                and np.max(np.abs(grad)) < 1e-6
            ):
                diverged = True
                break
            raise FitError("Hessian numerically singular")
        step = -step  # hess is negative definite at a maximum

        candidate = beta + step
        ll_new, grad_new, hess_new = _loglik_grad_hess(
            candidate, xs, es, starts, stops
        )
        # At convergence the step is at rounding level and the new
        # log-likelihood may round below the old one; that is no decrease
        # and must not cost a halving, a full evaluation each.
        floor = ll - _ROUNDING_ULPS * np.spacing(abs(ll))
        halvings = 0
        while ll_new < floor and halvings < 30:
            step = step / 2.0
            candidate = beta + step
            ll_new, grad_new, hess_new = _loglik_grad_hess(
                candidate, xs, es, starts, stops
            )
            halvings += 1
        if ll_new < floor:
            # No direction of improvement at machine precision.
            converged = True
            break
        beta, ll, grad, hess = candidate, ll_new, grad_new, hess_new
        if np.max(np.abs(beta)) > DIVERGENCE_CAP:
            diverged = True
            break
        if np.max(np.abs(step)) < tol:
            converged = True
            break

    return LinearCoxModel(
        beta=beta,
        converged=converged and not diverged,
        iterations=iterations,
        final_log_likelihood=ll,
        diverged=diverged,
    )


def predict_linear_risk(model: LinearCoxModel, x) -> float | np.ndarray:
    """Dot product beta . x; accepts one vector or a matrix of rows."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.beta.shape[0]:
        raise ValueError(
            f"x has {x.shape[-1]} features, model has {model.beta.shape[0]}"
        )
    out = x @ model.beta
    return float(out) if out.ndim == 0 else out


def cph_recommender(
    model: LinearCoxModel, treatment_index: int, i: float, j: float
) -> float:
    """Difference of predicted log hazards between treatment groups i and j.

    For a linear model this is beta[treatment_index] * (i - j): one constant
    for all patients, so the model recommends the same group to everyone.
    """
    if not 0 <= treatment_index < model.beta.shape[0]:
        raise ValueError(f"treatment_index {treatment_index} out of range")
    return float(model.beta[treatment_index] * (i - j))


def to_dict(model: LinearCoxModel) -> dict:
    return {
        "beta": [float(b) for b in model.beta],
        "converged": model.converged,
        "iterations": model.iterations,
        "log_likelihood": model.final_log_likelihood,
        "diverged": model.diverged,
    }


def from_dict(payload: dict) -> LinearCoxModel:
    return LinearCoxModel(
        beta=np.asarray(payload["beta"], dtype=float),
        converged=bool(payload["converged"]),
        iterations=int(payload["iterations"]),
        final_log_likelihood=float(payload["log_likelihood"]),
        diverged=bool(payload.get("diverged", False)),
    )
