"""Self-tests of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

from perfbench.streams import (
    JUNK_REASONS,
    inject_junk,
    stream_digest,
    wide_links,
    wide_stream,
)
from perfbench.tracing import Patcher, Tracer, self_times, summarize


# -- span arithmetic -----------------------------------------------------------


def test_self_time_subtracts_children_on_a_nested_trace():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b.inner", 6.0, 7.5, 3),
        ("b.inner", 7.0, 8.0, 3),  # overlaps its sibling: counted once
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 2.0, 1.5, 1.0]
    totals = summarize(spans)
    assert totals["b.inner"] == (2, 2.5)
    assert totals["root"] == (1, 3.0)


def test_self_time_clips_children_to_the_parent():
    spans = [("p", 0.0, 2.0, -1), ("c", 1.0, 5.0, 0)]
    assert self_times(spans) == [1.0, 4.0]


def test_tracer_records_parents_of_nested_wrappers():
    tracer = Tracer("t")
    inner = tracer.timed("inner", lambda: 7)
    outer = tracer.timed("outer", lambda: inner() + inner())
    counted = tracer.counted("hot", lambda x: x)
    assert outer() == 14
    assert counted(3) == 3 and counted(4) == 4
    names = [(name, parent) for name, _s, _e, parent in tracer.spans()]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counts["hot"] == 2
    own = self_times(tracer.spans())
    assert all(value >= 0.0 for value in own)


def test_patcher_reports_absent_targets_and_restores():
    from repro.core.arma import ArmaTrafficEstimator

    original = ArmaTrafficEstimator.ingest
    tracer = Tracer("t")
    patcher = Patcher()
    assert not patcher.wrap("repro.core.arma:ArmaTrafficEstimator.no_such", lambda f: f)
    assert not patcher.wrap("repro.no_such_module:f", lambda f: f)
    assert patcher.wrap(
        "repro.core.arma:ArmaTrafficEstimator.ingest",
        lambda fn: tracer.counted("arma", fn),
    )
    ArmaTrafficEstimator(0.9, 10).ingest(1, 2)
    patcher.restore()
    assert ArmaTrafficEstimator.ingest is original
    assert tracer.counts["arma"] == 1
    assert patcher.absent == [
        "repro.core.arma:ArmaTrafficEstimator.no_such",
        "repro.no_such_module:f",
    ]


def test_patcher_reaches_names_imported_elsewhere():
    import repro.core.hypothesis as hypothesis
    import repro.core.ranksum as ranksum

    original = ranksum.rank_sum_test
    patcher = Patcher()
    patcher.wrap("repro.core.ranksum:rank_sum_test", lambda fn: lambda *a: fn(*a))
    assert hypothesis.rank_sum_test is not original
    patcher.restore()
    assert hypothesis.rank_sum_test is original
    assert ranksum.rank_sum_test is original


# -- stream generators -------------------------------------------------------


def test_wide_stream_is_a_function_of_its_seed():
    first = stream_digest(wide_stream(3, 8, 12))
    assert stream_digest(wide_stream(3, 8, 12)) == first
    assert stream_digest(wide_stream(4, 8, 12)) != first


def test_junk_injection_is_a_function_of_its_seed():
    lines = list(wide_stream(3, 6, 20))
    first, _ = inject_junk(lines, 1, rate=0.1)
    again, _ = inject_junk(lines, 1, rate=0.1)
    other, _ = inject_junk(lines, 2, rate=0.1)
    assert stream_digest(first) == stream_digest(again)
    assert stream_digest(first) != stream_digest(other)


def test_wide_stream_cheaters_shorten_their_gaps():
    from repro.mac.constants import DEFAULT_TIMING
    from repro.mac.prng import VerifiableBackoffPrng

    n_links, exchanges = 20, 40
    links, cheaters = wide_links(5, n_links)
    assert len(cheaters) == n_links // 10
    sender_index = {tagged: index for index, (_m, tagged) in enumerate(links)}
    starts = {}
    ends = {}
    for line in wide_stream(5, n_links, exchanges):
        record = json.loads(line)
        if record["kind"] == "start":
            starts.setdefault(record["sender"], []).append(record["slot"])
        elif record["kind"] == "end":
            ends.setdefault(record["sender"], []).append(record["slot"])
    for tagged, index in sender_index.items():
        prng = VerifiableBackoffPrng(
            tagged, DEFAULT_TIMING.cw_min, DEFAULT_TIMING.cw_max
        )
        backoffs = [
            start - end - DEFAULT_TIMING.difs_slots
            for start, end in zip(starts[tagged][1:], ends[tagged])
        ]
        dictated = [prng.dictated_backoff(k, 1) for k in range(1, exchanges)]
        if index in cheaters:
            assert sum(backoffs) < 0.6 * sum(dictated)
        else:
            assert backoffs == dictated


def test_injected_junk_is_counted_by_reason_and_rejected_exactly():
    from repro.serve.server import ServeConfig, ServeSession

    lines = list(wide_stream(7, 10, 40))
    mixed, injected = inject_junk(lines, 7, rate=0.2)
    assert set(injected) == set(JUNK_REASONS)
    assert all(injected[reason] > 0 for reason in JUNK_REASONS)
    assert len(mixed) - len(lines) == sum(injected.values())
    assert mixed[-1] == lines[-1]  # the shutdown record stays last

    def replay(stream):
        session = ServeSession(ServeConfig())
        for line in stream:
            session.handle_line(line)
        result = session.finish()
        return result.fingerprint(), result.stream_snapshot["counters"]

    clean_print, clean_counters = replay(lines)
    assert not any(name.startswith("serve.rejected.") for name in clean_counters)
    mixed_print, counters = replay(mixed)
    rejected = {
        name.split("serve.rejected.", 1)[1]: count
        for name, count in counters.items()
        if name.startswith("serve.rejected.")
    }
    assert rejected == injected
    assert mixed_print == clean_print
