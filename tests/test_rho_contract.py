"""rho is a pure function of the monitor's own busy timeline.

The observatory's ARMA feed applies paper eq. 6 to fixed ``s``-slot
intervals ``[birth + k*s, birth + (k+1)*s)`` of one channel's busy
timeline, folded when rho is read; the feed is born at the first
transmission start its channel senses.  The consequences pinned here:

* events on channels the monitor does not sense never move its rho
  (so serve shards that own disjoint links agree by construction);
* the value equals eq. 6 recomputed from a per-slot busy bit list;
* a stream whose slots start late reads as the same stream shifted;
* serve's timeline pruning never changes a later read, even when a
  transmission outlasts the exchange.
"""

from __future__ import annotations

import dataclasses
import heapq
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import DetectorConfig
from repro.core.observation import ObservedTransmission
from repro.core.observatory import SharedChannelObservatory
from repro.mac.constants import DEFAULT_TIMING
from repro.serve.capture import capture_scenario, synthetic_links, synthetic_stream
from repro.serve.records import end_line, start_line
from repro.serve.server import ServeConfig, ServeSession

INTERVAL = 40
ALPHA = 0.9
CONFIG = DetectorConfig(arma_interval_slots=INTERVAL, arma_alpha=ALPHA)
EXCHANGE = DEFAULT_TIMING.exchange_slots

#: monitor 1 watches tagged 0; nodes 0-3 all sense one another
NEAR = (0, 1, 2, 3)
#: a second neighborhood nobody in NEAR senses
FAR = (10, 11, 12)


def _sensors(sender):
    group = NEAR if sender in NEAR else FAR
    return frozenset(node for node in group if node != sender)


def _events(transmissions, key_base):
    """Start/end events of ``(sender, start, duration)`` triples, in
    slot order (ends before starts at a shared slot)."""
    events = []
    for offset, (sender, start, duration) in enumerate(transmissions):
        key = key_base + offset
        events.append((start, 1, key, "start", sender, start, start + duration))
        events.append(
            (start + duration, 0, key, "end", sender, start, start + duration)
        )
    events.sort()
    return events


def _rho_reads(events):
    """Feed ``events`` to a fresh observatory; read the 1->0 detector's
    rho after every end event in the NEAR neighborhood."""
    observatory = SharedChannelObservatory()
    detector = observatory.attach(1, 0, config=CONFIG)
    observatory.attach(2, 3, config=CONFIG)
    observatory.attach(10, 11, config=CONFIG)
    observatory.attach(12, 10, config=CONFIG)
    reads = []
    for slot, _order, key, kind, sender, start, end in events:
        sensors = _sensors(sender)
        if kind == "start":
            observatory.ingest_start(slot, key, sender, sensors, frozenset())
        else:
            observatory.ingest_end(
                slot, key, sender, 1, start, end, True, None, sensors
            )
            if sender in NEAR:
                reads.append((slot, detector.rho))
    return reads, detector


def _transmissions(senders):
    return st.lists(
        st.tuples(
            st.sampled_from(senders),
            st.integers(0, 3000),
            st.integers(1, 120),
        ),
        max_size=30,
    )


@settings(max_examples=60, deadline=None)
@given(
    near=_transmissions(NEAR),
    far=_transmissions(FAR),
    far_first=st.booleans(),
)
def test_events_on_other_channels_never_move_rho(near, far, far_first):
    own = _events(near, 0)
    other = _events(far, 10_000)
    alone, _ = _rho_reads(own)
    streams = (other, own) if far_first else (own, other)
    merged = list(heapq.merge(*streams, key=lambda event: event[0]))
    interleaved, _ = _rho_reads(merged)
    assert interleaved == alone


def _eq6_oracle(bits, birth, horizon):
    """Paper eq. 6 over fixed intervals of a per-slot busy list."""
    estimate = None
    lo = birth
    while lo + INTERVAL <= horizon:
        fraction = sum(bits[lo:lo + INTERVAL]) / INTERVAL
        if estimate is None:
            estimate = fraction
        else:
            estimate = ALPHA * estimate + (1.0 - ALPHA) * fraction
        lo += INTERVAL
    if estimate is not None:
        return estimate
    if horizon <= birth:
        return 0.0
    return sum(bits[birth:horizon]) / (horizon - birth)


@settings(max_examples=60, deadline=None)
@given(near=_transmissions(NEAR), extra=st.integers(0, 600))
def test_rho_equals_eq6_over_a_per_slot_busy_list(near, extra):
    events = _events(near, 0)
    _reads, detector = _rho_reads(events)
    bits = [0] * (3200 + extra)
    for _sender, start, duration in near:
        for slot in range(start, start + duration):
            bits[slot] = 1
    # Read once more at a later slot (the stream clock) past the end.
    # The feed was born at the first transmission start (every NEAR
    # node senses every other).
    last = max((event[0] for event in events), default=0)
    birth = events[0][0] if events else 0
    observatory = detector.observer._observatory
    observatory.slot = last + extra
    horizon = last + extra - EXCHANGE
    assert detector.rho == _eq6_oracle(bits, birth, horizon)


def test_raw_mean_before_the_first_interval_then_eq6():
    observatory = SharedChannelObservatory()
    detector = observatory.attach(1, 0, config=CONFIG)
    observatory.ingest_start(0, 1, 2, _sensors(2), frozenset())
    observatory.ingest_end(10, 1, 2, 3, 0, 10, True, None, _sensors(2))
    # At slot 10 the horizon (10 - EXCHANGE) is before birth: nothing
    # is finalized yet.
    assert detector.rho == 0.0
    observatory.slot = EXCHANGE + 20
    assert detector.rho == 10 / 20  # raw mean over [0, 20)
    observatory.slot = EXCHANGE + 2 * INTERVAL
    # Two full intervals: busy fractions 10/40, then 0.
    assert detector.rho == ALPHA * 0.25 + (1.0 - ALPHA) * 0.0


def test_a_feed_is_born_at_its_channels_next_sensed_start():
    observatory = SharedChannelObservatory()
    early = observatory.attach(1, 0, config=CONFIG)
    # A start on a channel monitor 1 does not sense leaves it unborn.
    observatory.ingest_start(40, 9, 10, _sensors(10), frozenset())
    assert early.observer.feed.birth_slot is None
    observatory.ingest_start(100, 1, 2, _sensors(2), frozenset())
    observatory.ingest_end(150, 1, 2, 3, 100, 150, True, None, _sensors(2))
    late = observatory.attach(1, 3, config=CONFIG)
    assert early.observer.feed.birth_slot == 100
    assert late.observer.feed is not early.observer.feed
    assert late.observer.feed.birth_slot is None
    observatory.ingest_start(200, 2, 2, _sensors(2), frozenset())
    observatory.ingest_end(210, 2, 2, 3, 200, 210, True, None, _sensors(2))
    assert late.observer.feed.birth_slot == 200
    observatory.slot = 200 + EXCHANGE + INTERVAL
    # The late feed's first interval [200, 240) holds 10 busy slots;
    # the early feed's intervals from slot 100 start with [100, 140),
    # wholly busy.
    assert late.rho == 10 / INTERVAL
    assert early.rho > late.rho


def _shifted_run(offset):
    """Declared links on a synthetic stream starting at ``offset``; the
    observations and verdicts with their slots moved back by it."""
    config = ServeConfig(
        detector=DetectorConfig(
            sample_size=25, known_n=5, known_k=5, warmup_slots=3000
        ),
        discover=False,
    )
    session = ServeSession(config, links=synthetic_links(3))
    result = session.run(synthetic_stream(3, 200, start_slot=offset))
    return [
        (
            [dataclasses.replace(o, slot=o.slot - offset) for o in link.observations],
            [dataclasses.replace(v, slot=v.slot - offset) for v in link.verdicts],
        )
        for link in result.links
    ]


def test_a_stream_that_starts_late_reads_as_the_same_stream_shifted():
    base = _shifted_run(0)
    assert all(observations and verdicts for observations, verdicts in base)
    assert _shifted_run(10**6) == base


def _with_long_transmissions(lines, monitor, count):
    """``lines`` plus ``count`` transmissions the monitor senses, each
    lasting ten exchanges, spread over the stream."""
    slots = [json.loads(line)["slot"] for line in lines]
    extra = []
    for i in range(count):
        start = slots[(i + 1) * len(slots) // (count + 2)]
        end = start + 10 * EXCHANGE
        tx = 10**9 + i
        sensed = frozenset((monitor,))
        observed = ObservedTransmission(
            start_slot=start,
            end_slot=end,
            rts=None,
            success=True,
            receiver=monitor,
            impairment=None,
        )
        extra.append((start, start_line(start, tx, 10**9, sensed, frozenset())))
        extra.append((end, end_line(end, tx, 10**9, sensed, observed)))
    # A stable merge keeps each inserted line after the stream's own
    # lines at its slot (and the final shutdown record last).
    merged = sorted(
        [(slot, 0, line) for slot, line in zip(slots, lines)]
        + [(slot, 1, line) for slot, line in extra],
        key=lambda row: (row[0], row[1]),
    )
    return [line for _slot, _order, line in merged]


def test_serve_pruning_never_changes_a_later_rho_read():
    lines, pairs, separation = capture_scenario("grid-cheat", 2.0)
    lines = _with_long_transmissions(lines, pairs[0][0], 6)
    detector = DetectorConfig(
        sample_size=25, known_n=5, known_k=5, warmup_slots=0
    )

    def run(maintain_every):
        session = ServeSession(
            ServeConfig(
                detector=detector,
                separation=separation,
                discover=False,
                maintain_every=maintain_every,
            ),
            links=pairs,
        )
        result = session.run(lines)
        counters = result.stream_snapshot["counters"]
        assert not [name for name in counters if name.startswith("serve.rejected")]
        return result

    pruned = run(16)
    unpruned = run(0)
    assert pruned.pruned_intervals > 0
    assert unpruned.pruned_intervals == 0
    rhos = [[o.rho for o in link.observations] for link in pruned.links]
    assert sum(len(r) for r in rhos) > 0
    assert rhos == [
        [o.rho for o in link.observations] for link in unpruned.links
    ]
    assert pruned.fingerprint() == unpruned.fingerprint()
