"""Dependency-free SVG line charts for observed-vs-predicted overlays."""

from __future__ import annotations

import numpy as np

from .errors import DataValidationError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH = 880
HEIGHT = 420
MARGIN_LEFT = 64
MARGIN_RIGHT = 16
MARGIN_TOP = 34
MARGIN_BOTTOM = 46


def escape(text: str) -> str:
    """``&``, ``>`` and ``<`` as XML entities, ``&`` first."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _text(x, y, text: str, size: int, anchor: str | None = "middle", extra: str = "") -> str:
    """A sans-serif ``<text>`` element holding ``text``, escaped; ``x``
    and ``y`` are written as given, ``extra`` after the font size."""
    align = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{align} font-family="sans-serif" '
        f'font-size="{size}"{extra}>{escape(text)}</text>'
    )


def _line(x1, y1, x2, y2, stroke: str = "#dddddd", width: int = 1) -> str:
    """A ``<line>`` element, its coordinates written as given."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}"/>'


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    """About ``count`` round tick values from ``lo`` to ``hi``, for ``hi > lo``."""
    raw = (hi - lo) / count
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(float(v) or 0.0)  # a -0.0 tick is labelled "0", not "-0"
        v += step
    return ticks


def render_line_chart(
    curves: list[tuple[str, np.ndarray, np.ndarray]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    comment: str | None = None,
) -> str:
    """Render labelled (x, y) curves into an SVG document string."""
    if not curves:
        raise DataValidationError("nothing to plot")
    for label, x, y in curves:
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise DataValidationError(f"curve {label!r} has non-finite values")
    xs = np.concatenate([np.asarray(x, dtype=np.float64) for _, x, _ in curves])
    ys = np.concatenate([np.asarray(y, dtype=np.float64) for _, _, y in curves])
    if xs.size == 0:
        raise DataValidationError("curves are empty")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = min(0.0, float(ys.min())), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
    ]
    if comment:
        parts.append(f"<!-- {escape(comment)} -->")
    parts.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    if title:
        parts.append(_text(f"{WIDTH / 2:.1f}", 20, title, 14))

    # gridlines and tick labels
    for tx in _ticks(x_lo, x_hi):
        parts.append(_line(f"{px(tx):.1f}", MARGIN_TOP, f"{px(tx):.1f}", MARGIN_TOP + plot_h))
        parts.append(_text(f"{px(tx):.1f}", MARGIN_TOP + plot_h + 16, f"{tx:g}", 11))
    for ty in _ticks(y_lo, y_hi):
        parts.append(_line(MARGIN_LEFT, f"{py(ty):.1f}", MARGIN_LEFT + plot_w, f"{py(ty):.1f}"))
        parts.append(_text(MARGIN_LEFT - 6, f"{py(ty) + 4:.1f}", f"{ty:g}", 11, "end"))
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    if x_label:
        parts.append(_text(f"{MARGIN_LEFT + plot_w / 2:.1f}", HEIGHT - 10, x_label, 12))
    if y_label:
        cy = f"{MARGIN_TOP + plot_h / 2:.1f}"
        parts.append(_text(16, cy, y_label, 12, extra=f' transform="rotate(-90 16 {cy})"'))

    for idx, (label, x, y) in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(
            f"{px(float(xi)):.2f},{py(float(yi)):.2f}" for xi, yi in zip(x, y)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        # legend swatch + label, top-left inside the plot area
        ly = MARGIN_TOP + 16 + idx * 16
        parts.append(_line(MARGIN_LEFT + 10, ly, MARGIN_LEFT + 34, ly, color, 2))
        parts.append(_text(MARGIN_LEFT + 40, ly + 4, label, 11, anchor=None))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
