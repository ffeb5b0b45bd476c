"""Arithmetic and naming rules shared by the benchmark and its tests.

Everything here is pure: percentiles over latency samples, the self
time of a span given its children, the time spans attribute to the
program's layers, and the grammar that metric and workload names must
follow.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Iterable, Sequence

#: A metric or workload name: starts with a letter or digit, at most 64
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: A unit such as ``ms``, ``s``, ``1/s``, ``MB`` or ``count``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def valid_name(name: str) -> bool:
    """True when ``name`` follows the metric and workload name grammar."""
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit: str) -> bool:
    """True when ``unit`` follows the unit grammar."""
    return bool(UNIT_RE.fullmatch(unit))


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks.

    Rank ``(n - 1) * p / 100`` of the sorted sample, the "inclusive"
    definition, so p0 is the minimum, p100 the maximum and p50 the
    median.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def samples_beyond(count: int, p: float) -> float:
    """How many of ``count`` samples lie above the ``p``-th percentile."""
    return count * (100.0 - p) / 100.0


def tail_percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile when the sample supports it, else the median.

    A tail is reported only when at least :data:`TAIL_SAMPLES` samples
    lie beyond it; a few repetitions of a batch command support none,
    and their interpolated p90 would be close to their slowest one.
    """
    if samples_beyond(len(values), p) >= TAIL_SAMPLES:
        return percentile(values, p)
    return median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median.

    The same quartiles as ``statistics.quantiles(values, n=4)``.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else math.inf


def covered_length(intervals: Iterable[tuple[float, float]],
                   start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals may overlap (concurrent children on different threads) and
    may stick out of the window; only the clipped union counts.
    """
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals
        if min(b, end) > max(a, start)
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Self time of each span: its duration minus what children cover.

    ``spans`` are dicts with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.  Returns ``id -> self seconds``.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"]) - covered_length(
            children.get(span["id"], ()), span["start"], span["end"]
        )
        for span in spans
    }


def attributed_time(spans: Iterable[dict], start: float, end: float,
                    skip: Iterable[str] = ()) -> float:
    """Thread time in ``[start, end]`` spent inside spans not in ``skip``.

    ``spans`` are dicts with ``name``, ``thread``, ``start`` and ``end``.
    Each thread's spans count as the union of their intervals, so nested
    spans count once; the threads' times are added up.
    """
    skipped = set(skip)
    by_thread: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["name"] not in skipped:
            by_thread.setdefault(span["thread"], []).append(
                (span["start"], span["end"]))
    return sum(covered_length(intervals, start, end)
               for intervals in by_thread.values())
