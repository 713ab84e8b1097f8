"""Personalized treatment recommendations from a fitted risk model.

The recommender value for treatments i vs j is the difference of predicted
log hazards obtained by evaluating the model with the treatment input forced
to i and then to j: positive means i is riskier, so j is recommended. Test
patients are partitioned by whether their assigned treatment matches the
recommendation, and the two subsets are compared by Kaplan-Meier curves,
median survival, and a log-rank test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coxkit.coxlinear import LinearCoxModel, cph_recommender
from coxkit.data import SurvivalDataset
from coxkit.metrics import (
    KaplanMeierCurve,
    LogRankResult,
    kaplan_meier,
    log_rank,
    median_survival,
)
from coxkit.riskmlp import RiskNetwork, forward


@dataclass(frozen=True)
class RecommendationReport:
    """Per-patient recommendations and the survival comparison they induce."""

    groups: np.ndarray
    recommended: np.ndarray
    rec_values: np.ndarray | None
    is_recommendation: np.ndarray
    km_recommendation: KaplanMeierCurve
    km_anti_recommendation: KaplanMeierCurve
    median_recommendation: float | None
    median_anti_recommendation: float | None
    log_rank_result: LogRankResult


def predict(model, x: np.ndarray) -> np.ndarray:
    """Risks of the rows of `x` under a linear Cox model, a risk network
    (inference mode, so deterministic) or a callable of the input matrix."""
    if isinstance(model, LinearCoxModel):
        return x @ model.beta
    if isinstance(model, RiskNetwork):
        return forward(model, x, mode="infer")
    return np.asarray(model(x), dtype=float)


def group_risks(model, x, treatment_index: int, groups) -> np.ndarray:
    """The (rows, groups) risks of `x` with its treatment input forced to each group.

    A 1-d `x` is one row. Column k holds the model's risks with every row's
    `treatment_index` feature set to `groups[k]`; the other inputs are as given.
    """
    forced = np.array(np.atleast_2d(x), dtype=float)
    if not 0 <= treatment_index < forced.shape[1]:
        raise ValueError(
            f"treatment_index {treatment_index} out of range for d={forced.shape[1]}"
        )
    risks = np.empty((forced.shape[0], len(groups)))
    for k, group in enumerate(groups):
        forced[:, treatment_index] = group
        # copied out before the next group overwrites `forced`, of which a
        # callable model may return a view
        risks[:, k] = predict(model, forced)
    return risks


def rec_fn(model, x, treatment_index: int, i, j):
    """Predicted log hazard of treatment i minus treatment j for patient x.

    Evaluates the model twice (inference mode, so deterministic) with the
    treatment feature forced to each group. For a linear Cox model the
    difference collapses to beta[treatment_index] * (i - j), the same
    constant for every patient. Accepts one row or a matrix of rows.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(model, LinearCoxModel):
        value = cph_recommender(model, treatment_index, i, j)
        return value if x.ndim == 1 else np.full(x.shape[0], value)
    risks = group_risks(model, x, treatment_index, [i, j])
    diff = risks[:, 0] - risks[:, 1]
    return float(diff[0]) if x.ndim == 1 else diff


def recommend_treatment(model, x, treatment_index: int, groups):
    """Group with the lowest predicted risk for x; ties go to the smaller label."""
    groups = sorted(groups)
    if not groups:
        raise ValueError("groups must be non-empty")
    x = np.asarray(x, dtype=float)
    risks = group_risks(model, x, treatment_index, groups)
    chosen = np.asarray(groups)[np.argmin(risks, axis=1)]
    return chosen[0] if x.ndim == 1 else chosen


def evaluate_recommendations(
    ds_test: SurvivalDataset, model, treatment_index: int
) -> RecommendationReport:
    """Partition test patients by agreement with the model's recommendations.

    The dataset's covariate column at `treatment_index` must hold the
    assigned treatment labels (append the treatment feature after
    standardizing). Errors if either subset of the partition is empty.
    """
    if ds_test.treatments is None:
        raise ValueError("dataset has no treatments")
    groups = np.unique(ds_test.treatments)
    if groups.size < 2:
        raise ValueError("need at least two treatment groups")
    risks = group_risks(model, ds_test.covariates, treatment_index, groups)
    if not np.array_equal(
        ds_test.covariates[:, treatment_index], ds_test.treatments.astype(float)
    ):
        raise ValueError(
            f"covariate column {treatment_index} does not hold the treatment labels"
        )
    recommended = groups[np.argmin(risks, axis=1)]
    rec_values = None
    if groups.size == 2:
        rec_values = risks[:, 1] - risks[:, 0]

    is_rec = ds_test.treatments == recommended
    if not is_rec.any():
        raise ValueError("Recommendation subset is empty")
    if is_rec.all():
        raise ValueError("Anti-Recommendation subset is empty")

    km_rec = kaplan_meier(ds_test.times[is_rec], ds_test.events[is_rec])
    km_anti = kaplan_meier(ds_test.times[~is_rec], ds_test.events[~is_rec])
    lr = log_rank(
        ds_test.times[is_rec],
        ds_test.events[is_rec],
        ds_test.times[~is_rec],
        ds_test.events[~is_rec],
    )
    return RecommendationReport(
        groups=groups,
        recommended=recommended,
        rec_values=rec_values,
        is_recommendation=is_rec,
        km_recommendation=km_rec,
        km_anti_recommendation=km_anti,
        median_recommendation=median_survival(km_rec),
        median_anti_recommendation=median_survival(km_anti),
        log_rank_result=lr,
    )


def report_to_dict(report: RecommendationReport) -> dict:
    """JSON-ready summary of a recommendation report."""
    return {
        "groups": [int(g) for g in report.groups],
        "n_recommendation": int(report.is_recommendation.sum()),
        "n_anti_recommendation": int((~report.is_recommendation).sum()),
        "median_survival": {
            "recommendation": report.median_recommendation,
            "anti_recommendation": report.median_anti_recommendation,
        },
        "log_rank": {
            "statistic": report.log_rank_result.statistic,
            "p_value": report.log_rank_result.p_value,
        },
        "recommended": report.recommended.tolist(),
        "rec_values": None
        if report.rec_values is None
        else report.rec_values.tolist(),
    }
