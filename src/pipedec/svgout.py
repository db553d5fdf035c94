"""Minimal hand-rolled SVG emission; no plotting framework."""

from __future__ import annotations

import numpy as np

_ROW_BLOCK = 4096  # rows per % fill in fill_rows: one block's cells are Python ints at a time
SERIES_COLORS = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb")


def document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>", ""])


def rect(x: float, y: float, w: float, h: float, fill: str) -> str:
    return (
        f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" '
        f'fill="{fill}" stroke="none"/>'
    )


def fill_rows(key: np.ndarray, template, columns: list[np.ndarray]) -> list[str]:
    """All rows, in order, in blocks of ``_ROW_BLOCK`` newline-joined rows, so that
    ``"\\n".join(blocks)`` is every row.  A block is one ``%`` fill of its cells of the
    integer ``columns``: row i's format is ``template(j)``, built once per distinct integer
    ``key`` from j, the first row of key[i].
    """
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    templates = [template(i) for i in first.tolist()]
    cells = np.column_stack(columns)
    blocks = [slice(lo, lo + _ROW_BLOCK) for lo in range(0, len(key), _ROW_BLOCK)]
    return ["\n".join(map(templates.__getitem__, inverse[rows].tolist()))
            % tuple(cells[rows].ravel().tolist()) for rows in blocks]


def int_rects(xs: np.ndarray, ys: np.ndarray, ws: np.ndarray, h: int,
              fills: np.ndarray, palette: tuple[str, ...]) -> list[str]:
    """White-edged rects, a line each, in ``fill_rows`` blocks; "%d.0" of an int x is
    f"{x:.1f}", and x is all that varies within a (y, w, fill) shape."""
    key = (ys * (int(ws.max(initial=0)) + 1) + ws) * len(palette) + fills
    return fill_rows(key, lambda i: f'<rect x="%d.0" y="{ys[i]}.0" width="{ws[i]}.0" '
                     f'height="{h}.0" fill="{palette[fills[i]]}" stroke="#ffffff"/>', [xs])


def line(x1: float, y1: float, x2: float, y2: float, stroke: str = "#333333") -> str:
    return f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" stroke="{stroke}"/>'


def text(x: float, y: float, content: str, size: int) -> str:
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
        f'font-family="sans-serif" fill="#333333">{content}</text>'
    )


def polyline(points: list[tuple[float, float]], stroke: str) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="1.5"/>'


def line_plot(
    series: list[tuple[str, list[tuple[float, float]]]], x_label: str, y_label: str, title: str
) -> str:
    """A 560x420 plot: title, axes, ticks, one polyline per series, and a small legend."""
    width, height = 560, 420
    margin_l, margin_r, margin_t, margin_b = 64, 16, 28, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def sx(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    body = [
        text(margin_l, 18, title, size=13),
        line(margin_l, margin_t + plot_h, margin_l + plot_w, margin_t + plot_h),
        line(margin_l, margin_t, margin_l, margin_t + plot_h),
    ]
    n_ticks = 5
    for i in range(n_ticks + 1):
        xv = x_lo + (x_hi - x_lo) * i / n_ticks
        yv = y_lo + (y_hi - y_lo) * i / n_ticks
        body.append(line(sx(xv), margin_t + plot_h, sx(xv), margin_t + plot_h + 4))
        body.append(text(sx(xv) - 12, margin_t + plot_h + 18, f"{xv:.3g}", size=10))
        body.append(line(margin_l - 4, sy(yv), margin_l, sy(yv)))
        body.append(text(margin_l - 44, sy(yv) + 4, f"{yv:.3g}", size=10))
    body.append(text(margin_l + plot_w / 2 - 40, height - 12, x_label, size=11))
    body.append(text(10, margin_t - 8, y_label, size=11))
    for i, (label, pts) in enumerate(series):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        scaled = [(sx(x), sy(y)) for x, y in sorted(pts)]
        if len(scaled) == 1:
            x, y = scaled[0]
            body.append(rect(x - 2, y - 2, 4, 4, color))
        else:
            body.append(polyline(scaled, color))
        ly = margin_t + 14 * i
        body.append(line(margin_l + plot_w - 88, ly, margin_l + plot_w - 72, ly, stroke=color))
        body.append(text(margin_l + plot_w - 66, ly + 4, label, size=10))
    return document(width, height, body)
