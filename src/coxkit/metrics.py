"""Evaluation metrics for survival models: Harrell's concordance index with
bootstrap confidence intervals, Kaplan-Meier curves with Greenwood bands,
the two-group log-rank test, median survival, and centered risk MSE.

All functions are pure and operate on plain arrays. `kaplan_meier` and
`log_rank` import their one scipy.special function at their first call, so
importing this module, and every command that draws no band and tests no
groups, never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coxkit.data import write_columns

# consecutive redraws `bootstrap_ci` allows a resample without a comparable pair
MAX_REDRAWS = 100


@dataclass(frozen=True)
class KaplanMeierCurve:
    """Product-limit survival estimate evaluated at the observed event times."""

    event_times: np.ndarray
    survival: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    at_risk: np.ndarray
    deaths: np.ndarray


@dataclass(frozen=True)
class LogRankResult:
    statistic: float
    p_value: float


@dataclass(frozen=True)
class BootstrapInterval:
    lower: float
    upper: float
    redraws: int = 0


def _validate_survival(times, events, shape_error: str):
    """Finite float times and 0/1 int64 events, or ValueError; `shape_error`
    is the message for arrays that are not equal-length and 1-d."""
    times = np.asarray(times, dtype=float)
    raw_events = np.asarray(events)
    if times.ndim != 1 or times.shape != raw_events.shape:
        raise ValueError(shape_error)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if not np.all((raw_events == 0) | (raw_events == 1)):
        raise ValueError("events must contain only 0 or 1")
    return times, raw_events.astype(np.int64)


def _validate_triples(times, events, risks):
    shape_error = "times, events, risks must be equal-length 1-d arrays"
    times, events = _validate_survival(times, events, shape_error)
    risks = np.asarray(risks, dtype=float)
    if risks.shape != times.shape:
        raise ValueError(shape_error)
    if not np.all(np.isfinite(risks)):
        raise ValueError("risks must be finite")
    return times, events, risks


def concordance_index(times, events, risks) -> float:
    """Fraction of comparable patient pairs ranked correctly by risk.

    A pair is comparable when the patient with the strictly earlier time had
    an observed event, or when times tie exactly and exactly one of the two
    is an event (the event is known to precede the censoring). Concordant
    means the earlier death carries the higher predicted risk; exact risk
    ties score 0.5. Pairs of events at identical times are not comparable.

    The pairs are counted without visiting them, as in Knight's sort-based
    Kendall tau. Patients are sorted by time, latest first, with censored
    patients before events at a tied time, so each event's comparable set is
    a prefix of that order: everyone before the run of events sharing its
    time. A prefix splits into at most log2(n) aligned blocks of
    power-of-two size, as in a Fenwick tree. For each block size, one sort
    of the dense risk ranks within their blocks and two binary searches per
    event count the lower and the equal risks in the event's block. That is
    log2(n) vectorised passes of O(n log n) each, O(n log^2 n) in all, with
    no loop over patients. Concordant pairs, risk ties and comparable pairs
    are integers, so the result equals the pairwise sum of 1.0s and 0.5s
    bit for bit.
    """
    times, events, risks = _validate_triples(times, events, risks)
    n = times.shape[0]
    order = np.lexsort((events, -times))
    sorted_times = times[order]
    sorted_events = events[order]
    distinct, rank = np.unique(risks, return_inverse=True)
    rank = rank[order]
    position = np.arange(n)
    # A run of events at one time starts wherever the patient before is not
    # an event at the same time; an event's prefix ends at its run's start.
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = (sorted_times[1:] != sorted_times[:-1]) | (sorted_events[:-1] == 0)
    run_first = np.maximum.accumulate(np.where(run_start, position, 0))
    is_event = sorted_events == 1
    prefix = run_first[is_event]
    event_rank = rank[is_event]
    comparable = int(prefix.sum())
    if comparable == 0:
        raise ValueError("no comparable pairs")

    lower = 0
    ties = 0
    for k in range(int(prefix.max()).bit_length()):
        # Ranks sorted within blocks of 2**k positions: block b starts at
        # b << k in `keys`, and a prefix with bit k set takes the block
        # (prefix >> k) - 1.
        takes_block = ((prefix >> k) & 1).astype(bool)
        block = (prefix[takes_block] >> k) - 1
        keys = np.sort((position >> k) * distinct.size + rank)
        needle = block * distinct.size + event_rank[takes_block]
        below = np.searchsorted(keys, needle, side="left")
        up_to = np.searchsorted(keys, needle, side="right")
        lower += int(below.sum()) - (int(block.sum()) << k)
        ties += int((up_to - below).sum())
    return (lower + 0.5 * ties) / comparable


def bootstrap_ci(
    times,
    events,
    risks,
    n_replicates: int = 200,
    alpha: float = 0.05,
    seed: int = 0,
) -> BootstrapInterval:
    """Percentile bootstrap interval for the concordance index.

    Resamples (time, event, risk) triples jointly with replacement; a
    resample with no comparable pairs is redrawn (up to `MAX_REDRAWS` times
    in a row) and counted in the returned diagnostics.
    """
    times, events, risks = _validate_triples(times, events, risks)
    if n_replicates < 2:
        raise ValueError("n_replicates must be >= 2")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    n = times.shape[0]
    values = np.empty(n_replicates)
    redraws = 0
    for b in range(n_replicates):
        for attempt in range(MAX_REDRAWS + 1):
            idx = rng.integers(0, n, size=n)
            try:
                values[b] = concordance_index(times[idx], events[idx], risks[idx])
                break
            except ValueError:
                redraws += 1
        else:
            raise RuntimeError(
                f"persistent degenerate resamples: {MAX_REDRAWS} consecutive "
                "redraws without a comparable pair"
            )
    lower, upper = np.percentile(values, [100.0 * alpha / 2, 100.0 * (1 - alpha / 2)])
    return BootstrapInterval(lower=float(lower), upper=float(upper), redraws=redraws)


def kaplan_meier(times, events, alpha: float = 0.05) -> KaplanMeierCurve:
    """Product-limit estimate with Greenwood confidence bands.

    Bands are normal intervals on log S(t), clipped to [0, 1]. Where the
    estimate hits zero the band collapses to zero.
    """
    from scipy.special import ndtri  # what scipy.stats.norm.ppf calls

    shape_error = "times and events must be equal-length non-empty arrays"
    times, events = _validate_survival(times, events, shape_error)
    if times.size == 0:
        raise ValueError(shape_error)

    ts = np.sort(times)
    event_times, deaths = np.unique(times[events == 1], return_counts=True)
    if event_times.size == 0:
        empty = np.array([])
        return KaplanMeierCurve(empty, empty, empty, empty, empty.astype(int), empty.astype(int))

    at_risk = ts.size - np.searchsorted(ts, event_times, side="left")
    survival = np.cumprod(1.0 - deaths / at_risk)

    with np.errstate(divide="ignore", invalid="ignore"):
        greenwood_terms = deaths / (at_risk * (at_risk - deaths))
        cum_var_log = np.cumsum(greenwood_terms)
        z = ndtri(1.0 - alpha / 2.0)
        se_log = np.sqrt(cum_var_log)
        lower = survival * np.exp(-z * se_log)
        upper = survival * np.exp(z * se_log)
    dead_end = survival <= 0.0
    lower = np.where(dead_end, 0.0, np.clip(lower, 0.0, 1.0))
    upper = np.where(dead_end, 0.0, np.clip(upper, 0.0, 1.0))
    return KaplanMeierCurve(
        event_times=event_times,
        survival=survival,
        ci_lower=lower,
        ci_upper=upper,
        at_risk=at_risk,
        deaths=deaths,
    )


def median_survival(curve: KaplanMeierCurve) -> float | None:
    """Smallest event time where S(t) <= 0.5; None if never reached."""
    hit = np.flatnonzero(curve.survival <= 0.5)
    if hit.size == 0:
        return None
    return float(curve.event_times[hit[0]])


def log_rank(times_a, events_a, times_b, events_b) -> LogRankResult:
    """Two-group log-rank test (chi-squared statistic with 1 dof).

    At each pooled distinct event time, deaths in group A are compared with
    their hypergeometric expectation given the pooled risk set; the statistic
    is (sum of O-E)^2 over the summed hypergeometric variance.
    """
    from scipy.special import chdtrc  # what scipy.stats.chi2.sf calls

    shape_error = "each group's times and events must be equal-length 1-d arrays"
    ta, ea = _validate_survival(times_a, events_a, shape_error)
    tb, eb = _validate_survival(times_b, events_b, shape_error)
    if ta.size == 0 or tb.size == 0:
        raise ValueError("both groups must be non-empty")
    pooled_t = np.concatenate([ta, tb])
    pooled_e = np.concatenate([ea, eb])
    if pooled_e.sum() == 0:
        raise ValueError("log-rank needs at least one observed event")

    event_times = np.unique(pooled_t[pooled_e == 1])
    sa = np.sort(ta)
    sb = np.sort(tb)
    na = ta.size - np.searchsorted(sa, event_times, side="left")
    nb = tb.size - np.searchsorted(sb, event_times, side="left")

    def deaths_on_grid(t, e):
        uniq, counts = np.unique(t[e == 1], return_counts=True)
        out = np.zeros(event_times.size)
        out[np.searchsorted(event_times, uniq)] = counts
        return out

    da = deaths_on_grid(ta, ea)
    db = deaths_on_grid(tb, eb)
    n = (na + nb).astype(float)
    d = da + db

    expected_a = d * na / n
    with np.errstate(divide="ignore", invalid="ignore"):
        variance = d * (na / n) * (nb / n) * (n - d) / (n - 1.0)
    variance = np.where(n > 1.0, variance, 0.0)

    observed_minus_expected = float((da - expected_a).sum())
    total_variance = float(variance.sum())
    if total_variance == 0.0:
        return LogRankResult(statistic=0.0, p_value=1.0)
    statistic = observed_minus_expected**2 / total_variance
    return LogRankResult(statistic=statistic, p_value=float(chdtrc(1, statistic)))


def risk_mse(predicted_risks, true_risks) -> float:
    """Mean squared error between risk vectors after centering each to mean 0.

    Cox risk is identifiable only up to an additive constant, so both sides
    are centered before comparison.
    """
    predicted = np.asarray(predicted_risks, dtype=float)
    true = np.asarray(true_risks, dtype=float)
    if predicted.shape != true.shape or predicted.ndim != 1:
        raise ValueError("risk vectors must be equal-length 1-d arrays")
    predicted = predicted - predicted.mean()
    true = true - true.mean()
    return float(np.mean((predicted - true) ** 2))


def write_km_csv(curve: KaplanMeierCurve, path, comment: str | None = None) -> None:
    """Write a curve as CSV columns time, survival, ci_lower, ci_upper, at_risk, deaths."""
    write_columns(
        path,
        ["time", "survival", "ci_lower", "ci_upper", "at_risk", "deaths"],
        [
            curve.event_times,
            curve.survival,
            curve.ci_lower,
            curve.ci_upper,
            curve.at_risk,
            curve.deaths,
        ],
        comment,
    )
