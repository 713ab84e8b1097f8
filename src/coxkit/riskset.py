"""Breslow risk-set sums, shared by the linear and the deep Cox model.

In descending-time order the risk set of each event is a prefix, so one
prefix sum gives every denominator and one suffix sum every at-risk weight.
"""

from __future__ import annotations

import numpy as np

_TINY = np.finfo(float).tiny


def breslow(risks, events, tie_groups, x=None, weights=True):
    """Log partial likelihood of `risks` (Breslow ties) and its risk-set terms.

    Inputs are in the descending-time order of `data.SortedSurvivalView`,
    whose `tie_groups` they take. Returns `(loglik, at_risk, means)`:
    d(loglik)/d(risks) = events - at_risk, or `at_risk` is None when
    `weights` is false, which skips the suffix pass; `means` holds, per
    event in sorted order, the exp-risk weighted mean of `x` over its risk
    set, or is None without `x`.

    Exp-risks are shifted by the largest risk. The denominators that shift
    underflows, or that would overflow deaths / denominator, grow along the
    order, so they are a leading run of groups: only it is redone in log space.
    """
    starts, stops = tie_groups[:, 0], tie_groups[:, 1]
    sizes = stops - starts
    deaths = np.add.reduceat(events, starts).astype(float)
    at_risk = means = None
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = risks.max()
        w = np.exp(risks - shift)
        denoms = np.cumsum(w)[stops - 1]
        # the run: m groups, p patients; past it deaths / denoms sum below 1 / tiny
        m = denoms.searchsorted(risks.shape[0] * _TINY)
        p = stops[m - 1] if m else 0
        log_denoms = shift + np.log(denoms)
        if m:
            log_denoms[:m] = np.logaddexp.accumulate(risks[:p])[stops[:m] - 1]
        loglik = float(risks[events == 1].sum() - (deaths * log_denoms).sum())
        if weights:
            suffix = np.cumsum((deaths / denoms)[::-1])[::-1]
            at_risk = w * np.repeat(suffix, sizes)
            if m:
                log_inv = np.log(deaths[:m]) - log_denoms[:m]
                log_suffix = np.logaddexp.accumulate(
                    np.append(np.log(suffix[m]) - shift, log_inv[::-1])
                )[:0:-1]
                at_risk[:p] = np.exp(risks[:p] + np.repeat(log_suffix, sizes[:m]))
        if x is not None:
            group_means = np.cumsum(w[:, None] * x, axis=0)[stops - 1] / denoms[:, None]
            if m:  # x - low >= 0 has a logarithm
                low = x[:p].min(axis=0)
                log_sums = np.logaddexp.accumulate(risks[:p, None] + np.log(x[:p] - low))
                group_means[:m] = np.exp(log_sums[stops[:m] - 1] - log_denoms[:m, None]) + low
            means = np.repeat(group_means, sizes, axis=0)[events == 1]
    return loglik, at_risk, means
