import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import plots
from coxkit.metrics import KaplanMeierCurve, kaplan_meier
from coxkit.plots import PLOT_W, _px, _py, render_km_svg
from helpers import reference_band_points, reference_step_points


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
        return render_km_svg(*args, **kwargs)


def _path_points(svg):
    """The (x, y) vertices of each `<path d=...>` in `svg`, as arrays."""
    out = []
    for d in re.findall(r'<path d="M([^"]*?)(?: Z)?"', svg):
        pts = np.array([p.split(",") for p in d.split(" L")], dtype=float)
        out.append((pts[:, 0], pts[:, 1]))
    return out


def _runs(xs):
    """Start and stop indices of the runs of consecutive equal values in `xs`."""
    starts = np.flatnonzero(np.diff(xs, prepend=np.nan) != 0)
    return starts, np.append(starts[1:], len(xs))


def _assert_covers(drawn, xs, ys, x_max):
    """Every data point (xs, ys), mapped to pixels, lies within half a pixel
    horizontally of a vertical segment of the drawn path and inside its y
    span, up to 0.005 px of two-decimal rounding."""
    dx, dy = drawn
    px, py = _px(np.asarray(xs, float), x_max), _py(np.asarray(ys, float))
    covered = np.zeros(px.shape, dtype=bool)
    for start, stop in zip(*_runs(dx)):
        low, high = dy[start:stop].min(), dy[start:stop].max()
        covered |= (
            (np.abs(px - dx[start]) <= 0.505)
            & (py >= low - 0.005)
            & (py <= high + 0.005)
        )
    assert covered.all(), f"{(~covered).sum()} points off the drawn path"


class TestRenderMatchesOracle:
    # every case draws its bands: the "True-" prefix keeps the ids that
    # selections and logs already name these cases by
    @pytest.mark.parametrize("case", sorted(CURVE_CASES), ids=lambda c: f"True-{c}")
    def test_same_bytes(self, monkeypatch, case):
        """The SVG equals the one drawn from the oracle's points, and each
        path passes within half a pixel of every one of those points."""
        curves = CURVE_CASES[case]
        kwargs = dict(title="t", p_value=0.04)
        svg = render_km_svg(curves, **kwargs)
        assert svg == _render_with_oracle(monkeypatch, curves, **kwargs)

        x_max = 1.02 * max(
            [c.event_times[-1] if c.event_times.size else 1.0 for _, c in curves]
        )
        expected = []
        for _, curve in curves:
            if curve.event_times.size:
                expected.append(reference_band_points(curve, x_max))
            expected.append(
                reference_step_points(curve.event_times, curve.survival, x_max)
            )
        drawn = _path_points(svg)
        assert len(drawn) == len(expected)
        for path, (xs, ys) in zip(drawn, expected):
            _assert_covers(path, xs, ys, x_max)

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


class TestPlotResolution:
    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 8.0), st.floats(-0.5, 1.5)),
            min_size=1,
            max_size=40,
        ),
        st.booleans(),
    )
    def test_path_covers_every_point(self, points, close):
        """With x_max = PLOT_W one x unit is one pixel, so runs of several
        points share a column, their lowest and highest y anywhere in it."""
        xs, ys = (np.array(v) for v in zip(*points))
        d = plots._path(xs, ys, float(PLOT_W), close)
        assert d.startswith("M") and d.endswith(" Z") == close
        (path,) = _path_points(f'<path d="{d}"')
        _assert_covers(path, xs, ys, float(PLOT_W))
        starts, stops = _runs(path[0])
        assert (stops - starts).max() <= 4

    def test_size_of_two_40k_event_curves(self):
        rng = np.random.default_rng(7)
        curves = [
            (f"group {g}", kaplan_meier(rng.exponential(5.0, 40_000), np.ones(40_000)))
            for g in range(2)
        ]
        assert all(c.event_times.size == 40_000 for _, c in curves)
        svg = render_km_svg(curves)
        assert len(svg.encode()) < 200_000
        for xs, _ in _path_points(svg):
            # at most 4 points per column on each pass: the step curve passes
            # each column once, the band polygon once per edge
            starts, stops = _runs(xs)
            assert (stops - starts).max() <= 4
            _, passes = np.unique(xs[starts], return_counts=True)
            assert passes.max() <= 2
