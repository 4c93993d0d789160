"""The benchmark's arithmetic: span self time and coverage, per-layer
metrics from a span list, and the summary statistics it reports.

Nothing here imports numpy or solarcast, so run.py stays light and
the tests in ``selftest.py`` can check every formula on
hand-built inputs.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple, Sequence

# Tail percentiles the report may use, highest first. A percentile is
# reported only when at least MIN_BEYOND samples lie beyond it.
PERCENTILES = (99, 95, 90, 75, 50)
MIN_BEYOND = 10


class Span(NamedTuple):
    """One call of a wrapped function. ``parent`` is the index of the
    enclosing span in the same list (None for a root), ``command`` the
    per-command id, ``count`` the work the call reported (rows, epochs)
    or None."""

    name: str
    start: float
    end: float
    parent: int | None
    command: int
    count: int | None


def union_length(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - union_length(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def coverage(spans: Sequence[Span], wall: float, root: str) -> float:
    """Share of ``wall`` covered by layer spans, i.e. by every span
    other than the ``root`` spans that frame each command."""
    if wall <= 0:
        raise ValueError(f"wall time must be positive, got {wall}")
    intervals = [(s.start, s.end) for s in spans if s.name != root]
    if not intervals:
        return 0.0
    return union_length(intervals, min(a for a, _ in intervals), max(b for _, b in intervals)) / wall


def windows_per_s(spans: Sequence[Span], train_names: Sequence[str], windows_name: str) -> float:
    """Training throughput: windows x epochs / training time, where a
    training span's count is its epoch count and its windows are the
    counts of its ``windows_name`` children."""
    windows: dict[int, int] = {}
    for span in spans:
        if span.name == windows_name and span.parent is not None:
            windows[span.parent] = windows.get(span.parent, 0) + (span.count or 0)
    work = seconds = 0.0
    for i, span in enumerate(spans):
        if span.name in train_names:
            work += (span.count or 0) * windows.get(i, 0)
            seconds += span.end - span.start
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(
    spans: Sequence[Span],
    calls: dict[str, int],
    errors: dict[str, int],
    layers: Sequence,
) -> dict[str, float]:
    """Per-layer metrics for layers described by objects with ``name``,
    ``count`` (kind of work the call reports, or None), ``spans`` (False
    for layers counted without spans) and ``total`` (also report the
    inclusive time): ``<name>.calls``, ``.errors``, then ``.self_s``,
    ``.<count>`` and ``.total_s`` where they apply. ``calls`` holds the
    calls of layers counted without spans."""
    out: dict[str, float] = {}
    by_name = {layer.name: layer for layer in layers}
    for layer in layers:
        if layer.spans:
            out[f"{layer.name}.self_s"] = 0.0
        out[f"{layer.name}.calls"] = calls.get(layer.name, 0)
        out[f"{layer.name}.errors"] = errors.get(layer.name, 0)
        if layer.count:
            out[f"{layer.name}.{layer.count}"] = 0
        if layer.total:
            out[f"{layer.name}.total_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        layer = by_name.get(span.name)
        if layer is None:
            continue
        out[f"{span.name}.self_s"] += own
        out[f"{span.name}.calls"] += 1
        if layer.count and span.count is not None:
            out[f"{span.name}.{layer.count}"] += span.count
        if layer.total:
            out[f"{span.name}.total_s"] += span.end - span.start
    return out


def supported_percentile(n: int) -> int | None:
    """Highest percentile in PERCENTILES with at least MIN_BEYOND of
    ``n`` samples above it, or None when ``n`` is too small."""
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= MIN_BEYOND:
            return p
    return None


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least p%
    of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


def timing_summary(values: Sequence[float]) -> dict[str, float | int | None]:
    """Median, the highest supported percentile (None if none) and the
    sample count."""
    p = supported_percentile(len(values))
    return {
        "median": statistics.median(values),
        "percentile": p,
        "percentile_value": percentile(values, p) if p is not None else None,
        "count": len(values),
    }


def rows_per_s(rows: int, seconds: float) -> float:
    if seconds <= 0:
        raise ValueError(f"seconds must be positive, got {seconds}")
    return rows / seconds


def count_csv_rows(path: str) -> int:
    """Data rows of a CSV written by solarcast: lines that are neither
    ``#`` comments nor the column header."""
    rows = 0
    header_seen = False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            if not header_seen:
                header_seen = True
                continue
            rows += 1
    return rows


def median_by_key(samples: Sequence[dict[str, float]]) -> dict[str, float]:
    """Per-key median over dicts that share their keys."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
