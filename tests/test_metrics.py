import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from coxkit.metrics import (
    _EVENT_CHUNK,
    _risk_table,
    bootstrap_ci,
    concordance_index,
    kaplan_meier,
    log_rank,
    median_survival,
    risk_mse,
    write_km_csv,
)
from coxkit.simulate import SimulationSpec, generate
from helpers import (
    brute_force_cindex,
    pair_scan_cindex,
    reference_bootstrap_ci,
    reference_risk_table,
    reference_write_km_csv,
)


class TestConcordance:
    def test_perfect_ranking(self):
        assert concordance_index([1, 2, 3], [1, 1, 1], [3, 2, 1]) == 1.0

    def test_perfect_anti_ranking(self):
        assert concordance_index([1, 2, 3], [1, 1, 1], [1, 2, 3]) == 0.0

    def test_mixed_with_censoring(self):
        assert concordance_index([2, 4, 6, 8], [1, 0, 1, 1], [5, 1, 2, 4]) == 0.75

    def test_all_ties_give_half(self):
        assert concordance_index([1, 2, 3], [1, 1, 1], [7, 7, 7]) == 0.5

    def test_no_comparable_pairs(self):
        with pytest.raises(ValueError, match="no comparable pairs"):
            concordance_index([1, 2], [0, 0], [1, 2])
        with pytest.raises(ValueError, match="no comparable pairs"):
            concordance_index([3, 3], [1, 1], [1, 2])  # tied event times only

    def test_matches_brute_force(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            times = rng.integers(1, 8, size=n).astype(float)
            events = rng.integers(0, 2, size=n)
            risks = rng.integers(-3, 4, size=n).astype(float)  # forces risk ties
            try:
                expected = brute_force_cindex(times, events, risks)
            except ValueError:
                with pytest.raises(ValueError):
                    concordance_index(times, events, risks)
                continue
            assert concordance_index(times, events, risks) == expected

    def test_negation_complement(self):
        rng = np.random.default_rng(41)
        times = rng.uniform(1, 10, 30)
        events = rng.integers(0, 2, 30)
        events[0] = 1
        risks = rng.normal(size=30)  # continuous, no ties
        c = concordance_index(times, events, risks)
        assert c + concordance_index(times, events, -risks) == pytest.approx(1.0, abs=1e-12)

    def test_random_risks_near_half(self):
        sim = generate(SimulationSpec(n=3000, risk_kind="linear", seed=42))
        rng = np.random.default_rng(43)
        c = concordance_index(
            sim.dataset.times, sim.dataset.events, rng.normal(size=3000)
        )
        assert abs(c - 0.5) <= 0.02

    def test_nan_risk_rejected(self):
        with pytest.raises(ValueError, match="risks must be finite"):
            concordance_index([1, 2, 3, 4], [1, 1, 1, 1], [1, np.nan, 0.5, 2])

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="times must be finite"):
            concordance_index([1, np.nan, 3], [1, 1, 1], [3, 2, 1])

    def test_event_outside_zero_one_rejected(self):
        with pytest.raises(ValueError, match="events must contain only 0 or 1"):
            concordance_index([1, 2, 3], [1, 1, 2], [3, 2, 1])


def _large_instance(rng, n, kind):
    """Large inputs with the ties the sort-based count must get right."""
    times = rng.integers(1, 5, size=n).astype(float)  # a few distinct times
    risks = rng.integers(-3, 4, size=n).astype(float)  # a few distinct risks
    events = rng.integers(0, 2, size=n)
    if kind == "tied_times":
        risks = rng.normal(size=n)
    elif kind == "tied_risks":
        times = rng.uniform(1, 10, size=n)
    elif kind == "all_events":
        events = np.ones(n, dtype=int)
    elif kind == "censored_90":
        events = (rng.random(n) < 0.1).astype(int)
    return times, events, risks


class TestConcordanceLargeOracle:
    @pytest.mark.parametrize("n", [1000, 5000])
    @pytest.mark.parametrize(
        "kind", ["tied_times", "tied_risks", "all_events", "censored_90"]
    )
    def test_matches_pair_scan_exactly(self, n, kind):
        rng = np.random.default_rng(1000 + n + len(kind))
        times, events, risks = _large_instance(rng, n, kind)
        if kind == "all_events":
            # 5000 events take two chunks of the window comparison
            assert (int(events.sum()) > _EVENT_CHUNK) == (n == 5000)
        assert concordance_index(times, events, risks) == pair_scan_cindex(
            times, events, risks
        )

    # Sizes on either side of the 32-wide window and of the block sizes
    # 64 and 1024, where an event's prefix gains a level.
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 63, 64, 65, 1023, 1024, 1025])
    @pytest.mark.parametrize("kind", ["tied", "resampled"])
    def test_matches_pair_scan_at_window_and_block_edges(self, n, kind):
        rng = np.random.default_rng(2000 + n + len(kind))
        if kind == "tied":
            times = rng.integers(1, max(2, n // 4), size=n).astype(float)
            events = rng.integers(0, 2, size=n)
            risks = rng.integers(-3, 4, size=n).astype(float)
        else:
            idx = rng.integers(0, n, size=n)
            times = rng.uniform(1, 10, size=n)[idx]
            events = (rng.random(n) < 0.7).astype(int)[idx]
            risks = rng.normal(size=n)[idx]
        try:
            expected = pair_scan_cindex(times, events, risks)
        except ValueError:
            with pytest.raises(ValueError, match="no comparable pairs"):
                concordance_index(times, events, risks)
            return
        assert concordance_index(times, events, risks) == expected

    def test_memory_stays_linear(self):
        # A window comparison of every event at once would hold 70,000 x 32
        # ranks and masks, a peak near 27 MiB; the chunked one peaks near 11.
        rng = np.random.default_rng(100_000)
        n = 100_000
        times = rng.uniform(1, 10, size=n)
        events = (rng.random(n) < 0.7).astype(int)
        risks = rng.normal(size=n)
        tracemalloc.start()
        try:
            concordance_index(times, events, risks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


# Heavily tied instances: a few distinct times and risks.
_tied_rows = st.lists(
    st.tuples(st.integers(1, 4), st.integers(0, 1), st.integers(-3, 3)),
    min_size=1,
    max_size=60,
)


def _columns(rows):
    times, events, risks = (np.array(col) for col in zip(*rows))
    return times.astype(float), events, risks.astype(float)


@st.composite
def _resampled_rows(draw):
    """Up to 300 rows drawn with replacement from up to 40, as a bootstrap
    resample repeats patients, with heavy time ties at the smallest time
    range, and optionally all risks equal or a single event."""
    top = draw(st.sampled_from([4, 40, 1000]))
    base = draw(
        st.lists(
            st.tuples(st.integers(1, top), st.integers(0, 1), st.integers(-3, 3)),
            min_size=1,
            max_size=40,
        )
    )
    n = draw(st.integers(1, 300))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))
    times, events, risks = _columns([base[i] for i in picks])
    variant = draw(st.sampled_from(["as drawn", "equal risks", "one event"]))
    if variant == "equal risks":
        risks = np.zeros_like(risks)
    elif variant == "one event":
        events = np.zeros_like(events)
        events[draw(st.integers(0, events.size - 1))] = 1
    return times, events, risks


class TestConcordanceProperties:
    @settings(max_examples=300, deadline=None)
    @given(_tied_rows)
    def test_matches_brute_force(self, rows):
        times, events, risks = _columns(rows)
        try:
            expected = brute_force_cindex(times, events, risks)
        except ValueError:
            with pytest.raises(ValueError, match="no comparable pairs"):
                concordance_index(times, events, risks)
            return
        assert concordance_index(times, events, risks) == expected

    # `_tied_rows` stops at 60 rows, where prefixes reach one block level
    # above the 32-wide window; these reach 300 rows and four levels.
    @settings(max_examples=200, deadline=None)
    @given(_resampled_rows())
    def test_matches_pair_scan_on_resamples(self, columns):
        times, events, risks = columns
        try:
            expected = pair_scan_cindex(times, events, risks)
        except ValueError:
            with pytest.raises(ValueError, match="no comparable pairs"):
                concordance_index(times, events, risks)
            return
        assert concordance_index(times, events, risks) == expected

    @settings(deadline=None)
    @given(_tied_rows, st.randoms(use_true_random=False))
    def test_permutation_invariant(self, rows, random):
        times, events, risks = _columns(rows)
        perm = np.array(random.sample(range(len(rows)), len(rows)), dtype=int)
        try:
            expected = concordance_index(times, events, risks)
        except ValueError:
            return
        assert concordance_index(times[perm], events[perm], risks[perm]) == expected

    @settings(deadline=None)
    @given(_tied_rows, st.sampled_from([np.exp, np.arctan, lambda r: r**3 + 2 * r]))
    def test_monotone_transform_invariant(self, rows, transform):
        times, events, risks = _columns(rows)
        try:
            expected = concordance_index(times, events, risks)
        except ValueError:
            return
        assert concordance_index(times, events, transform(risks)) == expected

    @settings(deadline=None)
    @given(_tied_rows, st.randoms(use_true_random=False))
    def test_negation_complement_without_risk_ties(self, rows, random):
        times, events, _ = _columns(rows)
        risks = np.array(random.sample(range(len(rows)), len(rows)), dtype=float)
        try:
            c = concordance_index(times, events, risks)
        except ValueError:
            return
        assert c + concordance_index(times, events, -risks) == pytest.approx(
            1.0, abs=1e-12
        )


class TestKaplanMeier:
    def test_no_censoring(self):
        km = kaplan_meier([1, 2, 3], [1, 1, 1])
        assert np.allclose(km.survival, [2 / 3, 1 / 3, 0.0], atol=1e-12)
        assert np.array_equal(km.at_risk, [3, 2, 1])
        assert np.array_equal(km.deaths, [1, 1, 1])

    def test_with_censoring(self):
        km = kaplan_meier([1, 2, 3], [1, 0, 1])
        assert np.array_equal(km.event_times, [1.0, 3.0])
        assert km.survival[0] == pytest.approx(2 / 3, abs=1e-12)
        assert km.survival[1] == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(km.at_risk, [3, 1])

    def test_single_censored_patient(self):
        km = kaplan_meier([5.0], [0])
        assert km.event_times.size == 0
        assert median_survival(km) is None

    def test_equals_empirical_survival_without_censoring(self):
        rng = np.random.default_rng(44)
        times = rng.uniform(1, 10, size=50)
        km = kaplan_meier(times, np.ones(50, dtype=int))
        for t, s in zip(km.event_times, km.survival):
            assert s == pytest.approx((times > t).mean(), abs=1e-12)

    def test_greenwood_log_band_hand_value(self):
        km = kaplan_meier([1, 2, 3], [1, 1, 1], alpha=0.05)
        z = sps.norm.ppf(0.975)
        se_log = np.sqrt(1 / (3 * 2))
        assert km.ci_lower[0] == pytest.approx((2 / 3) * np.exp(-z * se_log), abs=1e-9)
        assert km.ci_upper[0] == pytest.approx(
            min(1.0, (2 / 3) * np.exp(z * se_log)), abs=1e-9
        )

    def test_band_brackets_estimate_and_clips(self):
        rng = np.random.default_rng(45)
        times = rng.uniform(1, 10, 100)
        events = rng.integers(0, 2, 100)
        events[0] = 1
        km = kaplan_meier(times, events)
        positive = km.survival > 0
        assert np.all(km.ci_lower[positive] <= km.survival[positive] + 1e-12)
        assert np.all(km.ci_upper[positive] >= km.survival[positive] - 1e-12)
        assert np.all((km.ci_lower >= 0) & (km.ci_upper <= 1))
        assert np.all(np.diff(km.survival) <= 1e-12)
        assert np.all(np.diff(km.at_risk) <= 0)

    @pytest.mark.parametrize(
        "times, events, message",
        [
            ([1, 2, 3], [2, 1, 0], "events must contain only 0 or 1"),
            ([1, np.nan, 3], [1, 1, 0], "times must be finite"),
        ],
    )
    def test_invalid_input_rejected(self, times, events, message):
        with pytest.raises(ValueError, match=message):
            kaplan_meier(times, events)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 1.5, np.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            kaplan_meier([1, 2, 3], [1, 0, 1], alpha=alpha)

    def test_zero_survival_band_collapses(self):
        km = kaplan_meier([1, 2], [1, 1])
        assert km.survival[-1] == 0.0
        assert km.ci_lower[-1] == 0.0 and km.ci_upper[-1] == 0.0

    def test_csv_export(self, tmp_path):
        km = kaplan_meier([1, 2, 3], [1, 0, 1])
        path = tmp_path / "km.csv"
        write_km_csv(km, path, comment="prov")
        lines = path.read_text().splitlines()
        assert lines[0] == "# prov"
        assert lines[1] == "time,survival,ci_lower,ci_upper,at_risk,deaths"
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "times, events",
        [
            ([1, 2, 3], [1, 0, 1]),
            ([1.0, 2.0, 5.0], [0, 0, 0]),  # all censored: no rows
            ([1.0, 2.0, 3.0], [1, 1, 1]),  # survival reaches 0
            (np.arange(9000) % 6000 + 0.5, np.arange(9000) % 5 != 0),  # ties, several blocks
        ],
    )
    @pytest.mark.parametrize("comment", [None, "prov"])
    def test_csv_export_matches_row_writer(self, tmp_path, times, events, comment):
        km = kaplan_meier(times, np.asarray(events, dtype=int))
        write_km_csv(km, tmp_path / "new.csv", comment=comment)
        reference_write_km_csv(km, tmp_path / "old.csv", comment=comment)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestMedianSurvival:
    def test_first_crossing(self):
        km = kaplan_meier([1, 2, 3], [1, 1, 1])  # S = [2/3, 1/3, 0]
        assert median_survival(km) == 2.0

    def test_never_reached(self):
        km = kaplan_meier([1, 2, 3, 4], [1, 0, 0, 0])  # S stays at 3/4
        assert median_survival(km) is None

    def test_exact_half_counts(self):
        km = kaplan_meier([1, 2], [1, 0])  # S(1) = 1/2 exactly
        assert km.survival[0] == 0.5
        assert median_survival(km) == 1.0


class TestLogRank:
    def test_identical_groups(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([1, 0, 1, 1])
        res = log_rank(times, events, times, events)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_hand_computed_table(self):
        # A dies at 1, 2; B dies at 10, 20; O-E = 7/6, V = 17/36
        res = log_rank([1, 2], [1, 1], [10, 20], [1, 1])
        assert res.statistic == pytest.approx(49 / 17, abs=1e-9)
        assert res.p_value == sps.chi2.sf(res.statistic, 1)

    def test_symmetric_in_group_order(self):
        rng = np.random.default_rng(46)
        ta, tb = rng.uniform(1, 5, 30), rng.uniform(1, 5, 40)
        ea, eb = rng.integers(0, 2, 30), rng.integers(0, 2, 40)
        ea[0] = 1
        res_ab = log_rank(ta, ea, tb, eb)
        res_ba = log_rank(tb, eb, ta, ea)
        assert res_ab.statistic == pytest.approx(res_ba.statistic, abs=1e-12)

    def test_one_group_fully_censored(self):
        res = log_rank([1, 2, 3], [1, 1, 1], [1.5, 2.5, 3.5], [0, 0, 0])
        assert np.isfinite(res.statistic)
        assert res.statistic > 0.0
        assert res.p_value < 1.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            log_rank([], [], [1.0], [1])

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="times must be finite"):
            log_rank([1.0, np.nan], [1, 1], [2.0, 3.0], [1, 0])

    def test_needs_an_event(self):
        with pytest.raises(ValueError, match="event"):
            log_rank([1.0], [0], [2.0], [0])

    def test_strong_separation_small_p(self):
        res = log_rank(
            np.arange(1.0, 21.0), np.ones(20, int),
            np.arange(100.0, 120.0), np.ones(20, int),
        )
        assert res.p_value < 1e-6


# Heavily tied two-group instances: (time, event, group) rows.
_tied_groups = st.lists(
    st.tuples(st.integers(1, 4), st.integers(0, 1), st.integers(0, 1)),
    min_size=1,
    max_size=60,
)
_KM_FIELDS = ("event_times", "survival", "ci_lower", "ci_upper", "at_risk", "deaths")


def _km_and_log_rank(times, events, groups):
    """`kaplan_meier` of all patients, and `log_rank` of group 0 against 1 or
    None where it is undefined (an empty group or no event)."""
    km = kaplan_meier(times, events)
    a, b = groups == 0, groups == 1
    if not (a.any() and b.any() and events.any()):
        return km, None
    return km, log_rank(times[a], events[a], times[b], events[b])


def _bands_from_quantile(km, z):
    """Greenwood bands of `km` for the normal quantile `z`, by the steps of
    `kaplan_meier`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        se_log = np.sqrt(np.cumsum(km.deaths / (km.at_risk * (km.at_risk - km.deaths))))
        lower = km.survival * np.exp(-z * se_log)
        upper = km.survival * np.exp(z * se_log)
    dead_end = km.survival <= 0.0
    return (np.where(dead_end, 0.0, np.clip(lower, 0.0, 1.0)),
            np.where(dead_end, 0.0, np.clip(upper, 0.0, 1.0)))


# Two-group instances with up to 200 patients: larger statistics and smaller
# p-values than `_tied_groups` reaches.
_wide_groups = st.lists(
    st.tuples(st.integers(1, 60), st.integers(0, 1), st.integers(0, 1)),
    min_size=1,
    max_size=200,
)


class TestKaplanMeierLogRankProperties:
    @settings(deadline=None)
    @given(_tied_groups, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_bands_equal_scipy_stats_quantile(self, rows, alpha):
        times, events, _ = (np.array(col) for col in zip(*rows))
        km = kaplan_meier(times.astype(float), events, alpha)
        lower, upper = _bands_from_quantile(km, sps.norm.ppf(1.0 - alpha / 2.0))
        assert np.array_equal(km.ci_lower, lower, equal_nan=True)
        assert np.array_equal(km.ci_upper, upper, equal_nan=True)

    @settings(deadline=None)
    @given(_wide_groups)
    def test_p_value_equals_scipy_stats_chi2(self, rows):
        times, events, groups = (np.array(col) for col in zip(*rows))
        _, lr = _km_and_log_rank(times.astype(float), events, groups)
        if lr is None:
            return
        assert lr.p_value == float(sps.chi2.sf(lr.statistic, 1))

    @settings(deadline=None)
    @given(_tied_groups, st.randoms(use_true_random=False))
    def test_permutation_bit_identical(self, rows, random):
        times, events, groups = (np.array(col) for col in zip(*rows))
        times = times.astype(float)
        perm = np.array(random.sample(range(len(rows)), len(rows)), dtype=int)
        km, lr = _km_and_log_rank(times, events, groups)
        km_p, lr_p = _km_and_log_rank(times[perm], events[perm], groups[perm])
        for field in _KM_FIELDS:
            assert np.array_equal(getattr(km_p, field), getattr(km, field))
        assert lr_p == lr

    @settings(deadline=None)
    @given(_tied_groups, st.floats(1e-3, 1e3))
    def test_time_scaling(self, rows, scale):
        times, events, groups = (np.array(col) for col in zip(*rows))
        times = times.astype(float)
        km, lr = _km_and_log_rank(times, events, groups)
        km_s, lr_s = _km_and_log_rank(scale * times, events, groups)
        assert np.array_equal(km_s.event_times, scale * km.event_times)
        for field in _KM_FIELDS[1:]:
            assert np.array_equal(getattr(km_s, field), getattr(km, field))
        assert lr_s == lr

    @settings(deadline=None)
    @given(_tied_groups)
    def test_log_rank_symmetric_in_groups(self, rows):
        times, events, groups = (np.array(col) for col in zip(*rows))
        times = times.astype(float)
        _, lr = _km_and_log_rank(times, events, groups)
        if lr is None:
            return
        _, swapped = _km_and_log_rank(times, events, 1 - groups)
        # The O - E sum cancels on near-balanced tables, so its rounding moves
        # a small statistic by more than rel=1e-12 (2.5e-7 by ~3e-19; 0 in
        # exact arithmetic comes out as ~1e-32). 1e-15 bounds that rounding
        # at these sizes: none of 400k random tables exceeds it.
        assert swapped.statistic == pytest.approx(lr.statistic, rel=1e-12, abs=1e-15)


class TestRiskTableMatchesReference:
    @settings(deadline=None)
    @given(_tied_groups)
    # tied deaths and censoring in group 0; group 1 one censored patient
    @example([(2, 1, 0), (2, 1, 0), (2, 0, 0), (1, 0, 0), (3, 1, 0), (2, 0, 1)])
    # two one-patient groups, the first without an event
    @example([(1, 0, 0), (1, 1, 1)])
    # no event at all: an empty table
    @example([(1, 0, 0), (3, 0, 1), (3, 0, 1)])
    def test_kaplan_meier_and_pooled_grid_tables(self, rows):
        times, events, groups = (np.array(col) for col in zip(*rows))
        times = times.astype(float)
        km = kaplan_meier(times, events)
        want = reference_risk_table(times, events)
        for got, expected in zip((km.event_times, km.at_risk, km.deaths), want):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        # the grid `log_rank` pools from both groups' event times
        grid = want[0]
        for group in (0, 1):
            mask = groups == group
            table = _risk_table(times[mask], events[mask], grid)
            for got, expected in zip(table, reference_risk_table(times[mask], events[mask], grid)):
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)


class TestRiskMse:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert risk_mse(x, x) == 0.0

    def test_constant_shift_invisible(self):
        x = np.array([1.0, 2.0, 3.0])
        assert risk_mse(x + 7.0, x) == pytest.approx(0.0, abs=1e-12)

    def test_simple_value(self):
        # centered: [-1, 1] vs [1, -1] -> mean((2, -2)^2) = 4
        assert risk_mse([0.0, 2.0], [2.0, 0.0]) == pytest.approx(4.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            risk_mse([1.0], [1.0, 2.0])


class TestBootstrap:
    def test_constant_risks_degenerate_interval(self):
        rng = np.random.default_rng(47)
        times = rng.uniform(1, 10, 60)
        events = np.ones(60, dtype=int)
        ci = bootstrap_ci(times, events, np.zeros(60), n_replicates=50, seed=0)
        assert (ci.lower, ci.upper) == (0.5, 0.5)

    def test_interval_brackets_point_estimate(self):
        rng = np.random.default_rng(48)
        times = rng.uniform(1, 10, 80)
        events = rng.integers(0, 2, 80)
        events[0] = 1
        risks = rng.normal(size=80)
        point = concordance_index(times, events, risks)
        hits = 0
        for seed in range(100):
            ci = bootstrap_ci(times, events, risks, n_replicates=100, seed=seed)
            hits += ci.lower <= point <= ci.upper
        assert hits >= 95

    def test_interval_width_order_on_large_data(self):
        sim = generate(SimulationSpec(n=1000, risk_kind="linear", seed=49))
        ci = bootstrap_ci(
            sim.dataset.times, sim.dataset.events, sim.true_risks,
            n_replicates=200, seed=1,
        )
        assert 1e-3 < ci.upper - ci.lower < 1e-1

    def test_deterministic(self):
        rng = np.random.default_rng(50)
        times = rng.uniform(1, 10, 40)
        events = np.ones(40, dtype=int)
        risks = rng.normal(size=40)
        a = bootstrap_ci(times, events, risks, n_replicates=30, seed=9)
        b = bootstrap_ci(times, events, risks, n_replicates=30, seed=9)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_replicates_validated(self):
        with pytest.raises(ValueError, match="n_replicates"):
            bootstrap_ci([1.0, 2.0], [1, 1], [0.1, 0.2], n_replicates=1)

    def test_persistent_degenerate_resamples(self):
        # no comparable pairs exist in any resample
        with pytest.raises(RuntimeError, match="degenerate"):
            bootstrap_ci([1.0, 2.0], [0, 0], [0.1, 0.2], n_replicates=5)


class TestBootstrapMatchesReference:
    """`bootstrap_ci` against the per-replicate loop of
    `helpers.reference_bootstrap_ci`, which scores each resample by the pair
    scan: the same bounds and redraw count, exactly."""

    def test_few_events_force_redraws(self):
        times = np.arange(1.0, 13.0)
        events = np.zeros(12, dtype=int)
        events[[3, 8]] = 1
        risks = np.arange(12.0) % 5
        ci = bootstrap_ci(times, events, risks, n_replicates=40, seed=3)
        expected = reference_bootstrap_ci(times, events, risks, n_replicates=40, seed=3)
        assert ci.redraws > 0
        assert (ci.lower, ci.upper, ci.redraws) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        _tied_rows,
        st.integers(2, 30),
        st.sampled_from([0.05, 0.2, 0.5]),
        st.integers(0, 2**32 - 1),
    )
    def test_same_interval_and_redraws(self, rows, n_replicates, alpha, seed):
        times, events, risks = _columns(rows)
        try:
            expected = reference_bootstrap_ci(times, events, risks, n_replicates, alpha, seed)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="degenerate"):
                bootstrap_ci(times, events, risks, n_replicates, alpha, seed)
            return
        ci = bootstrap_ci(times, events, risks, n_replicates, alpha, seed)
        assert (ci.lower, ci.upper, ci.redraws) == expected
