import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import plots
from coxkit.metrics import KaplanMeierCurve, kaplan_meier
from coxkit.plots import _fmt, _fmt_all, render_km_svg
from helpers import (
    reference_band_points,
    reference_path,
    reference_step_points,
)

# Ties, signed zeros, subnormals, non-finite and off-canvas values: every
# formatter property example includes them.
_EDGE_VALUES = [
    0.0, -0.0, -0.004, 0.004, 0.005, 0.125, 0.135, 70.005, 720.0, 720.005,
    5e-324, float("nan"), float("inf"), float("-inf"), 1e300, -1e300,
]


def _near_hundredth_ties():
    """Values within a few ulps of k / 200 inside the canvas: where rounding
    to two decimals is closest to a tie."""
    def nudge(args):
        half_hundredths, ulps = args
        value = half_hundredths / 200.0
        for _ in range(abs(ulps)):
            value = float(np.nextafter(value, np.inf if ulps > 0 else -np.inf))
        return value

    return st.tuples(st.integers(0, 200 * 730), st.integers(-3, 3)).map(nudge)


_coordinates = st.one_of(
    st.floats(),
    st.floats(min_value=-1.0, max_value=730.0),
    _near_hundredth_ties(),
)


class TestFmtAll:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(_coordinates, max_size=60))
    def test_equals_fmt_of_each_element(self, drawn):
        values = _EDGE_VALUES + drawn
        assert _fmt_all(np.array(values)).tolist() == [_fmt(v) for v in values]

    def test_edge_values(self):
        got = _fmt_all(np.array(_EDGE_VALUES)).tolist()
        assert got[:7] == ["0", "-0", "-0", "0", "0.01", "0.12", "0.14"]
        assert got[11:14] == ["nan", "inf", "-inf"]

    def test_keeps_shape(self):
        assert _fmt_all(np.zeros((2, 3))).shape == (2, 3)
        assert _fmt_all(np.array([])).shape == (0,)


def _curves(seed, n, groups, tie_levels=None):
    rng = np.random.default_rng(seed)
    out = []
    for g in range(groups):
        if tie_levels is None:
            times = rng.exponential(5.0, n)
        else:
            times = rng.integers(1, tie_levels + 1, n).astype(float)
        events = (rng.random(n) < 0.7).astype(int)
        out.append((f"group {g}", kaplan_meier(times, events)))
    return out


_EMPTY = KaplanMeierCurve(*([np.array([])] * 4), *([np.array([], dtype=int)] * 2))

CURVE_CASES = {
    "empty": [("empty", _EMPTY)],
    "one-event": [("one", kaplan_meier([3.0], [1]))],
    "all-censored": [
        ("censored", kaplan_meier([1.0, 2.0, 5.0], [0, 0, 0])),
        ("other", kaplan_meier([0.5, 1.5, 4.0], [1, 0, 1])),
    ],
    "survival-reaches-zero": [("dead", kaplan_meier([1.0, 2.0, 3.0], [1, 1, 1]))],
    "heavy-ties": _curves(3, 400, 2, tie_levels=4),
    "three-curves": _curves(4, 300, 3),
    "seven-curves": _curves(5, 50, 7),
    "large": _curves(6, 5000, 2),
}


def _render_with_oracle(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(plots, "_step_points", reference_step_points)
        patch.setattr(plots, "_band_points", reference_band_points)
        patch.setattr(plots, "_path", reference_path)
        return render_km_svg(*args, **kwargs)


class TestRenderMatchesOracle:
    @pytest.mark.parametrize("case", sorted(CURVE_CASES))
    @pytest.mark.parametrize("show_bands", [True, False])
    def test_same_bytes(self, monkeypatch, case, show_bands):
        curves = CURVE_CASES[case]
        kwargs = dict(title="t", p_value=0.04, show_bands=show_bands)
        expected = _render_with_oracle(monkeypatch, curves, **kwargs)
        assert render_km_svg(curves, **kwargs) == expected

    @pytest.mark.parametrize("case", sorted(CURVE_CASES))
    def test_points_equal_oracle(self, case):
        for _, curve in CURVE_CASES[case]:
            x_max = 7.5
            for got, want in [
                (plots._step_points(curve.event_times, curve.survival, x_max),
                 reference_step_points(curve.event_times, curve.survival, x_max)),
                (plots._band_points(curve, x_max),
                 reference_band_points(curve, x_max)),
            ]:
                for a, b in zip(got, want):
                    assert np.array_equal(a, np.array(b))

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(st.floats(0.001, 1e4), min_size=2, max_size=40),
        st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=40),
        st.booleans(),
    )
    def test_path_equals_oracle(self, xs, ys, close):
        size = min(len(xs), len(ys))
        xs, ys = xs[:size], ys[:size]
        x_max = max(xs) * 1.02
        got = plots._path(np.array(xs), np.array(ys), x_max, close)
        assert got == reference_path(xs, ys, x_max, close)
