"""Personalized treatment recommendations from a fitted risk model.

`group_risks` scores every patient with each group in place of the treatment
input, always the model's last, and the recommended group is the one of
lowest risk (ties to the smaller label). Patients are partitioned by whether
their assigned treatment matches it, and the two subsets are compared by
median survival and by `compare_groups`, the one comparison of patient groups
(the `km` command's too): their Kaplan-Meier curves and log-rank test.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
    (without dropout, so deterministic) or a callable of the input matrix.

    A 1-d `x` is one row, so a model of either kind returns one risk per row.
    """
    if isinstance(model, LinearCoxModel):
        x = np.atleast_2d(x)
        if x.shape[1] != model.beta.shape[0]:
            raise ValueError(
                f"x has {x.shape[1]} features, model has {model.beta.shape[0]}"
            )
        return x @ model.beta
    if isinstance(model, RiskNetwork):
        return forward(model, x)
    return np.asarray(model(x), dtype=float)


def group_risks(model, x, groups) -> np.ndarray:
    """The (rows, groups) risks of the model inputs `x` with each group in
    place of the last input, the treatment.

    A 1-d `x` is one row. Column k holds the model's risks of every row of `x`
    with its last input set to `groups[k]`; `x` itself is never written.
    """
    forced = np.array(x, dtype=float, ndmin=2)
    risks = np.empty((forced.shape[0], len(groups)))
    for k, group in enumerate(groups):
        forced[:, -1] = group
        # copied out before the next group overwrites `forced`, of which a
        # callable model may return a view
        risks[:, k] = predict(model, forced)
    return risks


def compare_groups(
    times, events, masks, alpha: float = 0.05
) -> tuple[list[KaplanMeierCurve], LogRankResult | None]:
    """The Kaplan-Meier curve at level 1 - alpha of each boolean mask's rows of
    the `times` and `events` arrays, and the log-rank test of exactly two masks
    (else None)."""
    groups = [(times[mask], events[mask]) for mask in masks]
    curves = [kaplan_meier(t, e, alpha=alpha) for t, e in groups]
    if len(groups) != 2:
        return curves, None
    return curves, log_rank(*groups[0], *groups[1])


def evaluate_recommendations(ds_test: SurvivalDataset, model) -> RecommendationReport:
    """Partition test patients by agreement with the model's recommendations.

    The dataset holds the model's inputs, as `data.model_inputs` builds them:
    the last is the treatment label, which each group overwrites in turn.
    Errors if either subset of the partition is empty.
    """
    if ds_test.treatments is None:
        raise ValueError("dataset has no treatments")
    if not np.array_equal(ds_test.covariates[:, -1], ds_test.treatments):
        raise ValueError(
            "the last input column is not the treatment label: "
            "build the dataset with data.model_inputs"
        )
    groups = np.unique(ds_test.treatments)
    if groups.size < 2:
        raise ValueError("need at least two treatment groups")
    risks = group_risks(model, ds_test.covariates, groups)
    recommended = groups[np.argmin(risks, axis=1)]
    rec_values = None
    if groups.size == 2:
        rec_values = risks[:, 1] - risks[:, 0]

    is_rec = ds_test.treatments == recommended
    if not is_rec.any():
        raise ValueError("Recommendation subset is empty")
    if is_rec.all():
        raise ValueError("Anti-Recommendation subset is empty")

    (km_rec, km_anti), lr = compare_groups(
        ds_test.times, ds_test.events, [is_rec, ~is_rec]
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
        "log_rank": asdict(report.log_rank_result),
        "recommended": report.recommended.tolist(),
        "rec_values": None
        if report.rec_values is None
        else report.rec_values.tolist(),
    }
