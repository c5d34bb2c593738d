"""Serve-stream inputs: the serve-wide generator and the junk-line injector.

Both are pure functions of their seed.  Lines use the wire serializers
of :mod:`repro.serve.records`, so the session parses them exactly like
a captured stream.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

#: Reject reasons the injector produces (codes of repro.serve.records).
JUNK_REASONS = ("json", "duplicate_tx", "orphan_end", "out_of_order")

#: Junk tx ids start here, far above any id a capture or generator uses.
_JUNK_TX_BASE = 10**12


def stream_digest(lines: Iterable[str]) -> str:
    """sha256 over the stream's lines, newline-terminated."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _dumps(data: Dict[str, object]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def inject_junk(
    lines: Sequence[str], seed: int, rate: float = 0.01
) -> Tuple[List[str], Dict[str, int]]:
    """Interleave a seeded ``rate`` of invalid lines into a valid stream.

    Returns ``(lines, injected)`` with ``injected`` counting junk lines
    by the reason code a session must reject them under.  Each junk
    line is built so that exactly one check fires:

    * ``json`` -- the first half of the preceding line;
    * ``duplicate_tx`` -- a start line repeated while its tx is in flight;
    * ``orphan_end`` -- an end line for a tx id that never started;
    * ``out_of_order`` -- a start line one slot before the previous line.

    Junk never follows the closing shutdown record.
    """
    rng = random.Random(f"perfbench-junk:{seed}")
    out: List[str] = []
    injected = {reason: 0 for reason in JUNK_REASONS}
    last_start = None
    last_end = None
    fresh_tx = _JUNK_TX_BASE
    for line in lines:
        out.append(line)
        record = json.loads(line)
        if record["kind"] == "shutdown":
            continue
        if record["kind"] == "start":
            last_start = record
        elif record["kind"] == "end":
            last_end = record
        if rng.random() >= rate:
            continue
        choices = ["json"]
        if record["kind"] == "start":
            choices.append("duplicate_tx")
        if last_end is not None:
            choices.append("orphan_end")
        if last_start is not None and record["slot"] >= 1:
            choices.append("out_of_order")
        reason = rng.choice(choices)
        if reason == "json":
            junk = line[: len(line) // 2]
        elif reason == "duplicate_tx":
            junk = line
        elif reason == "orphan_end":
            fresh_tx += 1
            junk = _dumps(dict(last_end, tx=fresh_tx, slot=record["slot"]))
        else:
            fresh_tx += 1
            junk = _dumps(dict(last_start, tx=fresh_tx, slot=record["slot"] - 1))
        out.append(junk)
        injected[reason] += 1
    return out, injected


def wide_links(seed: int, n_links: int) -> Tuple[List[Tuple[int, int]], List[int]]:
    """The serve-wide link keys and the indices of the cheating links."""
    rng = random.Random(f"perfbench-wide:{seed}")
    monitor_base = 1_000_000 + rng.randrange(999) * 1_000
    tagged_base = 2_000_000 + rng.randrange(1_000_000) * 1_000
    links = [(monitor_base + i, tagged_base + i) for i in range(n_links)]
    cheaters = sorted(rng.sample(range(n_links), max(n_links // 10, 1)))
    return links, cheaters


def wide_stream(
    seed: int, n_links: int, exchanges: int, pm: float = 50.0
) -> Iterator[str]:
    """Isolated links, a seeded tenth of them cheating at ``pm``.

    Every inter-frame gap is ``difs`` plus the sender's actual back-off,
    and only the link's own monitor senses it, so each observation
    lands in the detector's ``busy == 0`` regime: an honest link's
    estimate equals its dictated back-off and a cheater's falls short
    by ``pm`` percent.
    """
    from repro.core.observation import ObservedTransmission
    from repro.mac.constants import DEFAULT_TIMING
    from repro.mac.frames import RtsFrame
    from repro.mac.misbehavior import HonestBackoff, PercentageMisbehavior
    from repro.mac.prng import VerifiableBackoffPrng
    from repro.serve.records import end_line, shutdown_line, start_line

    timing = DEFAULT_TIMING
    links, cheaters = wide_links(seed, n_links)
    cheating = set(cheaters)
    phase_rng = random.Random(f"perfbench-wide-phase:{seed}")
    phases = [phase_rng.randrange(97) for _ in range(n_links)]

    def link_events(index: int) -> Iterator[Tuple[int, int, int, str]]:
        monitor, tagged = links[index]
        prng = VerifiableBackoffPrng(tagged, timing.cw_min, timing.cw_max)
        policy = PercentageMisbehavior(pm) if index in cheating else HonestBackoff()
        sensed = frozenset((monitor,))
        slot = phases[index]
        for seq_off in range(exchanges):
            start = slot + timing.difs_slots + policy.actual_backoff(prng, seq_off, 1)
            end = start + timing.exchange_slots
            tx = index * (exchanges + 1) + seq_off
            frame = RtsFrame(
                sender=tagged,
                receiver=monitor,
                seq_off=seq_off,
                attempt=1,
                digest=((index << 64) | seq_off).to_bytes(16, "big"),
            )
            observed = ObservedTransmission(
                start_slot=start,
                end_slot=end,
                rts=frame,
                success=True,
                receiver=monitor,
                impairment=None,
            )
            yield start, index, 0, start_line(start, tx, tagged, sensed, sensed)
            yield end, index, 1, end_line(end, tx, tagged, sensed, observed)
            slot = end

    last_slot = 0
    for slot, _index, _order, line in heapq.merge(
        *(link_events(i) for i in range(n_links))
    ):
        last_slot = max(last_slot, slot)
        yield line
    yield shutdown_line(last_slot)
