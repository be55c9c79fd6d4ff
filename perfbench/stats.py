"""Statistics the benchmark reports: percentiles with a stated tail rule,
self time over nested spans, and open-loop timing.

Pure functions of their inputs, so `test_stats.py` can pin them down.
"""

from __future__ import annotations

import math

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q)]


def _rank(n: int, q: float) -> int:
    return min(n - 1, max(0, math.ceil(q / 100.0 * n) - 1))


def median(values) -> float:
    """Middle value; the mean of the two middle values for an even count."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest percentile in TAIL_CANDIDATES that leaves at least
    `min_beyond` of `n` samples strictly above its nearest-rank sample;
    None when even the median does not."""
    for q in TAIL_CANDIDATES:
        if n - 1 - _rank(n, q) >= min_beyond:
            return q
    return None


def tail(values, min_beyond: int = MIN_BEYOND):
    """(q, value) for the highest supported percentile; (None, max) when
    the sample is too small for any candidate percentile."""
    q = tail_percentile(len(values), min_beyond)
    if q is None:
        return None, max(values)
    return q, percentile(values, q)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
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


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    `spans` are mappings with id, parent, start and end; children may
    overlap each other (threads), so their union is subtracted, once.
    """
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def open_loop_schedule(start: float, rate: float, count: int) -> list:
    """Due times of `count` requests sent at a fixed `rate` per second."""
    return [start + i / rate for i in range(count)]


def open_loop_latency(due: float, done: float) -> float:
    """Latency counted from when the request was due, not when it left:
    a stall that delays later sends is charged to those requests."""
    return done - due


def generator_lateness(due: float, ready: float, sent: float) -> float:
    """How late the generator itself sent a request: the delay after the
    later of its due time and the moment a connection was free to send it.
    Waiting for a busy connection is the server's cost, not lateness."""
    return max(0.0, sent - max(due, ready))
