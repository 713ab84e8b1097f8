"""Personalized treatment recommendations from a fitted risk model.

`group_risks` scores every patient with the treatment input forced to each
group, and the recommended group is the one of lowest risk (ties to the
smaller label). Patients are partitioned by whether their assigned treatment
matches it, and the two subsets are compared by Kaplan-Meier curves, median
survival and a log-rank test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coxkit.coxlinear import LinearCoxModel
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
    """With two groups, each patient's risk under the larger label minus that
    under the smaller (group 1 minus group 0), so a positive value recommends
    the smaller label; None otherwise."""
    is_recommendation: np.ndarray
    km_recommendation: KaplanMeierCurve
    km_anti_recommendation: KaplanMeierCurve
    median_recommendation: float | None
    median_anti_recommendation: float | None
    log_rank_result: LogRankResult


def predict(model, x: np.ndarray) -> np.ndarray:
    """Risks of the rows of `x` under a linear Cox model, a risk network
    (without dropout, so deterministic) or a callable of the input matrix."""
    if isinstance(model, LinearCoxModel):
        if x.shape[-1] != model.beta.shape[0]:
            raise ValueError(
                f"x has {x.shape[-1]} features, model has {model.beta.shape[0]}"
            )
        return x @ model.beta
    if isinstance(model, RiskNetwork):
        return forward(model, x)
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
    if not 0 <= treatment_index < ds_test.d or not np.array_equal(
        ds_test.covariates[:, treatment_index], ds_test.treatments.astype(float)
    ):
        raise ValueError(
            f"covariate column {treatment_index} does not hold the treatment labels"
        )
    risks = group_risks(model, ds_test.covariates, treatment_index, groups)
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
