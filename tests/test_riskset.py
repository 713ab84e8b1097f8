import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit.riskset import breslow


def logaddexp_breslow(risks, events, tie_groups, x):
    """`breslow`'s loglik, at-risk weights and risk-set means, each risk-set
    denominator taken as one `logaddexp` over its prefix."""
    loglik, at_risk, means = 0.0, np.zeros(len(risks)), []
    for start, stop in tie_groups:
        deaths = events[start:stop].sum()
        log_denom = np.logaddexp.reduce(risks[:stop])
        share = np.exp(risks[:stop] - log_denom)
        loglik += risks[start:stop][events[start:stop] == 1].sum() - deaths * log_denom
        at_risk[:stop] += deaths * share
        means += [share @ x[:stop]] * int(deaths)
    return loglik, at_risk, np.array(means).reshape(-1, x.shape[1])


@st.composite
def _spread_case(draw):
    """(risks, events, tie_groups, x) in descending-time order: 2-8 patients,
    risks within 3 of 0 but for a chosen set raised by 700-760, where the
    shifted denominators of the other patients' risk sets are subnormal."""
    n = draw(st.integers(2, 8))
    risks = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    raised = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    risks[np.array(raised)] += draw(st.floats(700.0, 760.0))
    events = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    bounds = [0, *cuts, n]
    tie_groups = np.array(list(zip(bounds[:-1], bounds[1:])))
    x = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=2 * n, max_size=2 * n)))
    return risks, events, tie_groups, x.reshape(n, 2)


class TestBreslowAtRiskSpreads:
    """Spreads of 710-745 make some shifted denominators subnormal, so
    dividing by them overflows before the log-space run replaces the result."""

    def test_spread_720_equals_spread_800_without_warning(self):
        groups = np.array([[0, 1], [1, 2], [2, 3]])
        x = np.array([[1.0], [2.0], [3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = breslow(np.array([0.0, 0.0, 720.0]), np.ones(3), groups, x)
        want = breslow(np.array([0.0, 0.0, 800.0]), np.ones(3), groups, x)
        assert got[0] == want[0] == -0.6931471805598903
        assert got[1].tolist() == want[1].tolist() == [1.5, 0.5, 1.0]
        assert got[2].tolist() == want[2].tolist()

    @settings(max_examples=300, deadline=None)
    @given(_spread_case())
    def test_matches_logaddexp_oracle(self, case):
        risks, events, tie_groups, x = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loglik, at_risk, means = breslow(risks, events, tie_groups, x)
        want = logaddexp_breslow(risks, events, tie_groups, x)
        assert np.isfinite(loglik)
        assert np.all(np.isfinite(at_risk)) and np.all(np.isfinite(means))
        assert loglik == pytest.approx(want[0], rel=1e-12, abs=1e-9)
        np.testing.assert_allclose(events - at_risk, events - want[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(means, want[2], rtol=0, atol=1e-12)
