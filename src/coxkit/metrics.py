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

# `concordance_index` compares the last prefix % _WINDOW positions of each
# event's prefix with its rank directly, _EVENT_CHUNK events at a time (1 MiB
# of ranks), and counts the rest by block sorts of 2**k positions, k >=
# _WINDOW_BITS.
_WINDOW_BITS = 5
_WINDOW = 1 << _WINDOW_BITS
_EVENT_CHUNK = 4096


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
    time. Each event then needs two counts over its prefix, of the dense
    risk ranks equal to its own and of those below it, taken in three parts:

    - Ties, in one pass. One sort of `rank * n + position` puts each rank's
      patients in time order, so an event's ties are the entries from
      `rank * n` up to `rank * n + prefix`: two binary searches per event.
    - The last `prefix % 32` positions of a prefix. They open row
      `prefix // 32` of the ranks laid out 32 to a row, and are compared
      with the event's rank directly, `_EVENT_CHUNK` events at a time.
    - The rest of the prefix splits into aligned blocks of power-of-two size
      2**k, k >= 5, at most one per size, as in a Fenwick tree. For each
      block size, one sort of the ranks within their blocks and one binary
      search per event count the lower ranks in the event's block.

    That is O(n log^2 n) time with no loop over patients, and O(n) memory:
    the direct comparisons hold `_EVENT_CHUNK` x 32 entries at a time.
    Concordant pairs, risk ties and comparable pairs are integers, so the
    result equals the pairwise sum of 1.0s and 0.5s bit for bit.
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

    ties = _tied_before(rank, prefix, event_rank)
    lower = _lower_in_window(rank, prefix, event_rank)
    lower += _lower_in_blocks(rank, distinct.size, prefix, event_rank)
    return (lower + 0.5 * ties) / comparable


# Only sums of the binary searches below are used, so their needles are
# sorted, which keeps each search near the one before it in memory.


def _tied_before(rank, prefix, event_rank) -> int:
    """Sum over events of the positions before `prefix` holding `event_rank`."""
    n = rank.shape[0]
    # each rank's positions in order; a prefix ends before rank * n + prefix
    by_rank = np.sort(rank * n + np.arange(n))
    rank_start = event_rank * n
    return int(np.searchsorted(by_rank, np.sort(rank_start + prefix)).sum()) - int(
        np.searchsorted(by_rank, np.sort(rank_start)).sum()
    )


def _lower_in_window(rank, prefix, event_rank) -> int:
    """Sum over events of the ranks below `event_rank` among the last
    `prefix % _WINDOW` positions before `prefix`."""
    n = rank.shape[0]
    # Those positions open row prefix >> _WINDOW_BITS of the ranks laid out
    # _WINDOW to a row. The padding after rank n - 1 is never among them,
    # because a prefix is below n.
    window = np.zeros(-(-n // _WINDOW) * _WINDOW, dtype=rank.dtype)
    window[:n] = rank
    window = window.reshape(-1, _WINDOW)
    column = np.arange(_WINDOW)
    lower = 0
    for start in range(0, prefix.size, _EVENT_CHUNK):
        chunk = slice(start, start + _EVENT_CHUNK)
        ends = prefix[chunk]
        below = window[ends >> _WINDOW_BITS] < event_rank[chunk, None]
        below &= column < (ends & (_WINDOW - 1))[:, None]
        lower += int(np.count_nonzero(below))
    return lower


def _lower_in_blocks(rank, n_ranks, prefix, event_rank) -> int:
    """Sum over events of the ranks below `event_rank` in the aligned blocks
    of 2**k positions, k >= _WINDOW_BITS, that make up the rest of the
    positions before `prefix`; ranks are below `n_ranks`."""
    position = np.arange(rank.shape[0])
    lower = 0
    for k in range(_WINDOW_BITS, int(prefix.max()).bit_length()):
        # Ranks sorted within blocks of 2**k positions: block b starts at
        # b << k in `keys`, and a prefix with bit k set takes the block
        # (prefix >> k) - 1.
        takes_block = ((prefix >> k) & 1).astype(bool)
        block = (prefix[takes_block] >> k) - 1
        keys = np.sort((position >> k) * n_ranks + rank)
        needle = np.sort(block * n_ranks + event_rank[takes_block])
        lower += int(np.searchsorted(keys, needle).sum()) - (int(block.sum()) << k)
    return lower


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


def _risk_table(times, events, grid=None):
    """Sorted distinct times, by default the event times (a given `grid` must
    hold them all), and at each time t the patients at risk (time >= t) and deaths."""
    event_times, counts = np.unique(times[events == 1], return_counts=True)
    if grid is None:
        grid, deaths = event_times, counts
    else:
        deaths = np.zeros(grid.size, dtype=np.int64)
        deaths[np.searchsorted(grid, event_times)] = counts
    at_risk = times.size - np.searchsorted(np.sort(times), grid, side="left")
    return grid, at_risk, deaths


def kaplan_meier(times, events, alpha: float = 0.05) -> KaplanMeierCurve:
    """Product-limit estimate with Greenwood confidence bands.

    Bands are normal intervals on log S(t) at level 1 - alpha, 0 < alpha < 1,
    clipped to [0, 1]. Where the estimate hits zero the band collapses to zero.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    from scipy.special import ndtri  # what scipy.stats.norm.ppf calls

    shape_error = "times and events must be equal-length non-empty arrays"
    times, events = _validate_survival(times, events, shape_error)
    if times.size == 0:
        raise ValueError(shape_error)

    event_times, at_risk, deaths = _risk_table(times, events)
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
    event_times = np.union1d(ta[ea == 1], tb[eb == 1])
    if event_times.size == 0:
        raise ValueError("log-rank needs at least one observed event")
    _, na, da = _risk_table(ta, ea, event_times)
    _, nb, db = _risk_table(tb, eb, event_times)
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
