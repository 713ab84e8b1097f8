"""Linear Cox proportional-hazards regression.

The log partial likelihood is maximized by Newton-Raphson with analytic
gradient and Hessian, step halving, and a divergence cap for monotone
likelihoods (perfect separation). Tied event times share one risk-set
denominator (Breslow); the risk-set sums come from `coxkit.riskset`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coxkit.data import SortedSurvivalView, SurvivalDataset, sort_view
from coxkit.riskset import breslow

DIVERGENCE_CAP = 50.0

MAX_ITER = 100
STEP_TOL = 1e-9

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
        if self.beta.ndim != 1:
            raise ValueError(f"beta must be a 1-d array, got shape {self.beta.shape}")
        if not np.all(np.isfinite(self.beta)):
            raise ValueError("beta must be finite")


def _newton_terms(beta, xs, es, tie_groups):
    """Log partial likelihood, gradient X^T (e - a) and Hessian M^T M - X^T diag(a) X.

    Rows in descending-time order; a and M (each event's risk-set mean of x)
    come from `breslow`. O(n d^2) time, O(n d) memory.
    """
    ll, at_risk, means = breslow(xs @ beta, es, tie_groups, xs)
    return ll, xs.T @ (es - at_risk), means.T @ means - (xs.T * at_risk) @ xs


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
    eta = (ds.covariates @ beta)[view.permutation]
    ll, _, _ = breslow(eta, ds.events[view.permutation], view.tie_groups, weights=False)
    return ll


def fit_cph(ds: SurvivalDataset) -> LinearCoxModel:
    """Maximize the log partial likelihood by Newton-Raphson from beta = 0.

    The Newton step is halved while it fails to improve the likelihood;
    iteration stops when the accepted step's infinity norm drops below
    `STEP_TOL`, or after `MAX_ITER` steps.
    Coefficients escaping past a magnitude cap signal a monotone likelihood
    (perfect separation): the fit returns with `diverged` set instead of
    looping to the iteration limit.
    """
    if ds.n_events == 0:
        raise ValueError("no observed events")
    view = sort_view(ds)
    xs, es = ds.covariates[view.permutation], ds.events[view.permutation]

    beta = np.zeros(ds.d)
    ll, grad, hess = _newton_terms(beta, xs, es, view.tie_groups)
    iterations = 0
    converged = False
    diverged = False
    for iterations in range(1, MAX_ITER + 1):
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
        ll_new, grad_new, hess_new = _newton_terms(candidate, xs, es, view.tie_groups)
        # At convergence the step is at rounding level and the new
        # log-likelihood may round below the old one; that is no decrease
        # and must not cost a halving, a full evaluation each.
        floor = ll - _ROUNDING_ULPS * np.spacing(abs(ll))
        halvings = 0
        while ll_new < floor and halvings < 30:
            step = step / 2.0
            candidate = beta + step
            ll_new, grad_new, hess_new = _newton_terms(candidate, xs, es, view.tie_groups)
            halvings += 1
        if ll_new < floor:
            # No direction of improvement at machine precision.
            converged = True
            break
        beta, ll, grad, hess = candidate, ll_new, grad_new, hess_new
        if np.max(np.abs(beta)) > DIVERGENCE_CAP:
            diverged = True
            break
        if np.max(np.abs(step)) < STEP_TOL:
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
        diverged=bool(payload["diverged"]),
    )
