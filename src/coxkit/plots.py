"""Minimal deterministic SVG rendering of Kaplan-Meier step curves.

Hand-rolled so the output is a pure function of the data: identical inputs
produce byte-identical files, which keeps plots diffable across reruns.
"""

from __future__ import annotations

import numpy as np

from coxkit.metrics import KaplanMeierCurve

WIDTH, HEIGHT = 720, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 24, 44, 56
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

# Characters XML 1.0 forbids even as character references, mapped to U+FFFD.
_NOT_XML = dict.fromkeys(
    [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF], "\ufffd"
)


def _escape(text: str) -> str:
    """`text` as XML character data (`xml.sax.saxutils.escape`, without
    importing its ~2 MB of modules), each character XML forbids as U+FFFD."""
    escaped = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return escaped.translate(_NOT_XML)


def _fmt(value: float) -> str:
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _px(x, x_max: float):
    return MARGIN_LEFT + PLOT_W * (x / x_max)


def _py(y):
    return MARGIN_TOP + PLOT_H * (1.0 - y)


def _step_points(times, values, x_max: float):
    """Post-step polyline starting at (0, 1), as x and y arrays."""
    xs = np.concatenate(([0.0], np.repeat(np.asarray(times, float), 2), [x_max]))
    ys = np.repeat(np.concatenate(([1.0], np.asarray(values, float))), 2)
    return xs, ys


def _band_points(curve: KaplanMeierCurve, x_max: float):
    ux, uy = _step_points(curve.event_times, curve.ci_upper, x_max)
    lx, ly = _step_points(curve.event_times, curve.ci_lower, x_max)
    return np.concatenate((ux, lx[::-1])), np.concatenate((uy, ly[::-1]))


def _path(xs, ys, x_max: float, close: bool = False) -> str:
    """SVG path data of the polyline through the data points (xs, ys), drawn
    at plot resolution.

    Each run of consecutive points whose x rounds to the same pixel column
    becomes four points at that column: the run's entering, lowest, highest
    and leaving y, less repeats of the point before. Every data point thus
    lies on a vertical segment at most half a pixel from it.
    """
    xs = np.rint(_px(np.asarray(xs, dtype=float), x_max))
    ys = _py(np.asarray(ys, dtype=float))
    starts = np.flatnonzero(np.diff(xs, prepend=np.nan) != 0)
    ends = np.append(starts[1:], xs.size) - 1
    columns = np.repeat(xs[starts], 4)
    rows = np.column_stack(
        (
            ys[starts],
            np.minimum.reduceat(ys, starts),
            np.maximum.reduceat(ys, starts),
            ys[ends],
        )
    ).ravel()
    points = [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(columns.tolist(), rows.tolist())]
    drawn = [p for p, prev in zip(points, [None] + points) if p != prev]
    return "M" + " L".join(drawn) + (" Z" if close else "")


def render_km_svg(
    curves: list[tuple[str, KaplanMeierCurve]],
    title: str = "Kaplan-Meier survival",
    p_value: float | None = None,
) -> str:
    """SVG document with one step curve per label, drawn over its confidence
    band when the curve has events."""
    if not curves:
        raise ValueError("need at least one curve")
    x_max = max(
        [float(c.event_times[-1]) if c.event_times.size else 1.0 for _, c in curves]
    )
    x_max *= 1.02

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(title)}</text>',
    ]

    # axes
    out.append(
        f'<line x1="{MARGIN_LEFT}" y1="{_py(0)}" x2="{_px(x_max, x_max)}" y2="{_py(0)}" '
        'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{MARGIN_LEFT}" y1="{_py(0)}" x2="{MARGIN_LEFT}" y2="{_py(1)}" '
        'stroke="black" stroke-width="1"/>'
    )
    for frac in np.linspace(0.0, 1.0, 6):
        y = _py(frac)
        out.append(
            f'<line x1="{MARGIN_LEFT - 4}" y1="{_fmt(y)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(y)}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{frac:.1f}</text>'
        )
        x_tick = frac * x_max
        tick = _fmt(_px(x_tick, x_max))
        out.append(
            f'<line x1="{tick}" y1="{_py(0)}" x2="{tick}" '
            f'y2="{_py(0) + 4}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{tick}" y="{_py(0) + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x_tick:.3g}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + PLOT_W // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">time</text>'
    )
    out.append(
        f'<text x="16" y="{MARGIN_TOP + PLOT_H // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {MARGIN_TOP + PLOT_H // 2})">survival probability</text>'
    )

    for idx, (label, curve) in enumerate(curves):
        color = COLORS[idx % len(COLORS)]
        if curve.event_times.size:
            bx, by = _band_points(curve, x_max)
            out.append(
                f'<path d="{_path(bx, by, x_max, close=True)}" fill="{color}" '
                'fill-opacity="0.15" stroke="none"/>'
            )
        xs, ys = _step_points(curve.event_times, curve.survival, x_max)
        out.append(
            f'<path d="{_path(xs, ys, x_max)}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = MARGIN_TOP + 14 + 18 * idx
        lx = WIDTH - MARGIN_RIGHT - 170
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>'
        )

    if p_value is not None:
        out.append(
            f'<text x="{MARGIN_LEFT + 10}" y="{MARGIN_TOP + 16}" '
            f'font-family="sans-serif" font-size="12">log-rank p = {p_value:.3g}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
