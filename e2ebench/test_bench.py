"""Unit tests for the benchmark's own arithmetic and clean-up.

Run with ``python3 -m pytest e2ebench/test_bench.py``; they need neither
the program under test nor a timed run.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from multiprocessing import resource_tracker, shared_memory

import pytest

from harness import stop_children
from measure import (
    TAIL_MIN_SAMPLES,
    bytes_per_op,
    geomean,
    merged_length,
    p90,
    parse_proc_io,
    quartile_spread,
    summarize,
)
from spans import Recorder, Span, layer_totals, root_names, self_times


# -- the p90-or-median rule ---------------------------------------------
def test_summary_has_tail_only_with_enough_samples():
    few = [float(i) for i in range(TAIL_MIN_SAMPLES - 1)]
    enough = [float(i) for i in range(TAIL_MIN_SAMPLES)]
    assert "p90" not in summarize(few)
    assert summarize(few)["p50"] == statistics.median(few)
    assert summarize(enough)["p90"] == pytest.approx(89.1)
    assert summarize(enough)["count"] == TAIL_MIN_SAMPLES


def test_p90_interpolates_between_ranks():
    assert p90([1.0, 2.0]) == pytest.approx(1.9)
    assert p90(list(range(1, 12))) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        p90([1.0])


def test_summary_rejects_no_samples():
    with pytest.raises(ValueError):
        summarize([])


# -- self time from nested spans ----------------------------------------
def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent=parent)


def test_self_time_subtracts_children():
    spans = [
        _span(1, "op.read", 0.0, 10.0),
        _span(2, "core.pstorm.submit", 0.5, 9.5, parent=1),
        _span(3, "hadoop.run_job", 1.0, 5.0, parent=2),
        _span(4, "hadoop.partition_fractions", 2.0, 3.0, parent=3),
        _span(5, "tuners.optimize", 6.0, 8.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(2.0)
    # The layers' self times add up to the root's duration.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, "serving.handle", 0.0, 10.0),
        _span(2, "a", 1.0, 6.0, parent=1),
        _span(3, "b", 4.0, 8.0, parent=1),
        _span(4, "c", 9.0, 12.0, parent=1),  # clipped to the parent
    ]
    assert self_times(spans)[1] == pytest.approx(2.0)


def test_merged_length_unions_intervals():
    assert merged_length([]) == 0.0
    assert merged_length([(0, 1), (2, 3)]) == 2.0
    assert merged_length([(0, 2), (1, 3), (5, 6)]) == 4.0


def test_spans_are_grouped_by_their_root():
    spans = [
        _span(1, "op.write", 0.0, 4.0),
        _span(2, "core.pstorm.remember", 0.0, 4.0, parent=1),
        _span(3, "core.store.put", 3.0, 4.0, parent=2),
        _span(4, "op.read", 5.0, 6.0),
        _span(5, "core.store.put", 5.0, 6.0, parent=4),
    ]
    assert root_names(spans) == {
        1: "op.write", 2: "op.write", 3: "op.write", 4: "op.read", 5: "op.read",
    }
    totals = layer_totals(spans, lambda root: root.split(".")[1])
    assert totals[("write", "core.store.put")].total_seconds == pytest.approx(1.0)
    assert totals[("read", "core.store.put")].count == 1
    assert totals[("write", "core.pstorm.remember")].self_seconds == pytest.approx(3.0)


def test_recorder_nests_spans_per_thread_and_inherits_request():
    recorder = Recorder()
    recorder.active = True
    with recorder.span("op.read", request=7):
        with recorder.span("inner") as inner:
            pass
    outer = recorder.spans[-1]
    assert inner.parent == outer.sid and inner.request == 7
    assert outer.parent is None and outer.start <= inner.start <= inner.end <= outer.end


# -- bytes per put from I/O-counter deltas ------------------------------
def test_parse_proc_io():
    text = "rchar: 3980\nwchar: 120\nsyscr: 9\nsyscw: 2\nwrite_bytes: 0\n"
    counters = parse_proc_io(text)
    assert counters["wchar"] == 120 and counters["syscw"] == 2


def test_bytes_per_put_is_the_mean_delta():
    before = [parse_proc_io(f"wchar: {n}") ["wchar"] for n in (100, 500, 900)]
    after = [parse_proc_io(f"wchar: {n}")["wchar"] for n in (400, 500, 1500)]
    deltas = [b - a for a, b in zip(before, after)]
    assert bytes_per_op(deltas) == pytest.approx(300.0)
    assert bytes_per_op([]) == 0.0
    with pytest.raises(ValueError):
        bytes_per_op([10, -1])


# -- summaries over runs ------------------------------------------------
def test_geomean_and_quartile_spread():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    spread = quartile_spread([float(v) for v in range(1, 11)])
    q1, q2, q3 = statistics.quantiles([float(v) for v in range(1, 11)], n=4)
    assert spread["median"] == q2
    assert spread["spread"] == pytest.approx((q3 - q1) / q2)


# -- no process outlives a run --------------------------------------------
def test_stop_children_joins_workers_and_reaps_the_resource_tracker():
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    tracker_pid = resource_tracker._resource_tracker._pid
    assert tracker_pid is not None
    worker = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
    worker.start()
    stop_children(timeout=5.0)
    assert not worker.is_alive()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(tracker_pid, os.WNOHANG)
