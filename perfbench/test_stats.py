"""Tests for the benchmark's own statistics and span bookkeeping.

    python3 -m pytest perfbench/test_stats.py -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


def _span(sid, parent, start, end, name="x", **attrs):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
            "request_id": None, **attrs}


@pytest.mark.parametrize("n, expected", [
    (200, 95.0), (199, 90.0), (1000, 99.0), (100, 90.0), (99, 75.0),
    (40, 75.0), (21, 50.0), (20, 50.0), (19, None), (1, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 21, 40, 99, 100, 109, 110, 199, 200, 201, 999, 1000, 5000])
def test_tail_value_has_at_least_ten_samples_above(n):
    values = list(range(n))
    q, value = stats.tail(values)
    beyond = sum(1 for v in values if v > value)
    assert beyond >= stats.MIN_BEYOND
    higher = [c for c in stats.TAIL_CANDIDATES if c > q]
    for c in higher:  # every higher candidate leaves fewer than ten beyond
        assert sum(1 for v in values if v > stats.percentile(values, c)) < stats.MIN_BEYOND


def test_tail_of_a_small_sample_is_its_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (None, 3.0)


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert stats.percentile(values, 50) == 3
    assert stats.percentile(values, 100) == 5
    assert stats.percentile(values, 1) == 1
    assert stats.percentile(list(range(1, 201)), 95) == 190


def test_median_even_and_odd():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5


def test_self_time_subtracts_nested_children_once():
    recorded = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),  # grandchild: counted inside 2, not again in 1
        _span(4, 1, 6.0, 7.0),
    ]
    selfs = stats.self_times(recorded)
    assert selfs == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_self_time_with_overlapping_children_subtracts_their_union():
    recorded = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 5.0),
        _span(3, 1, 3.0, 8.0),  # overlaps span 2, as two threads would
        _span(4, 1, 9.0, 12.0),  # runs past the parent's end: clipped
    ]
    assert stats.self_times(recorded)[1] == pytest.approx(10.0 - 7.0 - 1.0)


def test_self_time_outside_one_kind_of_child():
    recorded = [
        _span(1, None, 0.0, 10.0, name="ranker.train_ranker"),
        _span(2, 1, 1.0, 3.0, name="neural.mlp_backward"),
        _span(3, 1, 4.0, 6.0, name="ranker.query_pools"),
    ]
    assert layers._self_outside(recorded, "ranker.train_ranker", "neural.") == 8.0


def test_tracer_nests_spans_and_inherits_the_request_id():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda req: inner(1), "outer", request_id=lambda args: args[0])
    assert outer("r7") == 2
    recs = {r["name"]: r for r in tracer.records()}
    assert recs["inner"]["parent"] == recs["outer"]["id"]
    assert recs["outer"]["parent"] is None
    assert recs["inner"]["request_id"] == recs["outer"]["request_id"] == "r7"
    assert recs["outer"]["start"] <= recs["inner"]["start"] <= recs["inner"]["end"] \
        <= recs["outer"]["end"]


def test_tracer_records_a_span_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert [r["name"] for r in tracer.records()] == ["boom"]


def test_open_loop_latency_counts_from_the_due_time():
    due = stats.open_loop_schedule(100.0, rate=4.0, count=3)
    assert due == [100.0, 100.25, 100.5]
    # the second request could only leave at 100.4, when a connection freed
    assert stats.open_loop_latency(due[1], done=100.45) == pytest.approx(0.2)


def test_generator_lateness_excludes_waiting_for_a_connection():
    # sent on time: not late
    assert stats.generator_lateness(due=1.0, ready=0.9, sent=1.0) == 0.0
    # connection busy until 1.3, sent at once: the wait is latency, not lateness
    assert stats.generator_lateness(due=1.0, ready=1.3, sent=1.3) == 0.0
    # overslept by 2 ms after the due time
    assert stats.generator_lateness(due=1.0, ready=0.5, sent=1.002) == pytest.approx(0.002)
    # picked up late and then slow to send
    assert stats.generator_lateness(due=1.0, ready=1.3, sent=1.305) == pytest.approx(0.005)
