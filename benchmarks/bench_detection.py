"""Detection-layer throughput: M monitors x C cheaters on one event stream.

The bench of the detection layer itself.  One dense-monitor grid
simulation is captured in the serve wire format
(:class:`~repro.serve.capture.StreamCapture`, the format the goldens and
``repro serve`` use), parsed once, and the identical parsed stream is
replayed into a :class:`SharedChannelObservatory` through its
medium-free ``ingest_start``/``ingest_end`` plane: the observatory
resolves each event once per monitor *node* and demuxes to lightweight
per-pair subscriptions.

Replaying (rather than timing ``sim.run``) isolates the detection layer
from the engine's slot loop, which ``bench_engine`` already prices, and
parsing happens before the timer starts, so the measured seconds are
the observatory's alone.  The reported unit is demuxed detection-events
per second of detection-layer time.  Same-seed equivalence of the
detection artifacts is the golden suite's job
(``tests/test_golden_fingerprints.py``), not this bench's.

Cells sweep the attach grid (M monitors x C cheaters, up to the full
4 x 4 = 16 detectors).
"""

from __future__ import annotations

import time

from repro.core.detector import DetectorConfig, reset_region_cache
from repro.core.observatory import SharedChannelObservatory
from repro.experiments.runner import fidelity_scale
from repro.experiments.scenarios import MultiMonitorGridScenario
from repro.mac.misbehavior import PercentageMisbehavior
from repro.obs.audit import DecisionAuditLog
from repro.obs.bench import write_bench_manifest
from repro.obs.registry import MetricsRegistry
from repro.serve.capture import StreamCapture
from repro.serve.records import EndEvent, PositionsEvent, StartEvent, parse_line

SEED = 7
BASE_DURATION_S = 15.0
DETECTOR_CONFIG = DetectorConfig(sample_size=25, known_n=5, known_k=5)
#: (M, C) attach-grid cells; the last is the 16-detector headline.
ATTACH_GRID = ((1, 1), (2, 2), (4, 2), (4, 4))
#: Replay backends, in manifest column order.
BACKENDS = ("observatory",)
REPS = 3


def _record_stream():
    """One live dense-monitor run -> (scenario, parsed stream events)."""
    scenario = MultiMonitorGridScenario(seed=SEED)
    taggeds = scenario.tagged_nodes()
    policies = {
        taggeds[0]: PercentageMisbehavior(60),
        taggeds[2]: PercentageMisbehavior(75),
    }
    sim, pairs = scenario.build(policies=policies)
    capture = StreamCapture(pairs)
    sim.add_listener(capture)
    sim.run(max(BASE_DURATION_S * fidelity_scale(), 1.5))
    events = [parse_line(line) for line in capture.lines]
    return scenario, events


def _replay(events, observatory):
    """Feed the parsed stream to the observatory; returns seconds.

    Only the ingest calls are timed — ``perf_counter`` accumulates
    around them — so the replay loop's own dispatch stays out of the
    measured detection-layer seconds.
    """
    ingest_start = observatory.ingest_start
    ingest_end = observatory.ingest_end
    elapsed = 0.0
    for event in events:
        if type(event) is StartEvent:
            begin = time.perf_counter()
            ingest_start(
                event.slot, event.tx, event.sender, event.sensed, event.decoded
            )
            elapsed += time.perf_counter() - begin
        elif type(event) is EndEvent:
            observed = event.observed
            begin = time.perf_counter()
            ingest_end(
                event.slot,
                event.tx,
                event.sender,
                observed.receiver,
                observed.start_slot,
                observed.end_slot,
                observed.success,
                observed.rts,
                event.sensed,
            )
            elapsed += time.perf_counter() - begin
        elif type(event) is PositionsEvent:
            begin = time.perf_counter()
            observatory.ingest_positions(event.slot, dict(event.positions))
            elapsed += time.perf_counter() - begin
    return elapsed


def _run_observatory(pairs, separation, events):
    """Best-of-REPS replay; returns (seconds, demuxed events)."""
    best = float("inf")
    demuxed = 0
    for _rep in range(REPS):
        reset_region_cache()
        audit = DecisionAuditLog()
        metrics = MetricsRegistry()
        observatory = SharedChannelObservatory()
        detectors = [
            observatory.attach(
                monitor, tagged, config=DETECTOR_CONFIG,
                separation=separation, audit=audit, metrics=metrics,
            )
            for monitor, tagged in pairs
        ]
        best = min(best, _replay(events, observatory))
        demuxed = sum(len(d.observer.observed) for d in detectors)
    return best, demuxed


def bench_detection_throughput(benchmark):
    def run():
        scenario, events = _record_stream()
        monitors = scenario.monitor_nodes()
        taggeds = scenario.tagged_nodes()
        cells = {"stream_events": len(events)}
        for n_monitors, n_tagged in ATTACH_GRID:
            pairs = [
                (monitor, tagged)
                for monitor in monitors[:n_monitors]
                for tagged in taggeds[:n_tagged]
            ]
            secs, demuxed = _run_observatory(
                pairs, scenario.separation, events
            )
            cells[f"m{n_monitors}x{n_tagged}"] = {
                "detectors": len(pairs),
                "observatory_seconds": secs,
                "observatory_events_per_sec": (
                    demuxed / secs if secs > 0 else 0.0
                ),
                "detection_events": demuxed,
            }
        return cells

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for n_monitors, n_tagged in ATTACH_GRID:
        cell = cells[f"m{n_monitors}x{n_tagged}"]
        print(
            f"detection {n_monitors}x{n_tagged} ({cell['detectors']:2d} det): "
            f"observatory {cell['observatory_events_per_sec']:>9,.0f} ev/s"
        )
    write_bench_manifest(
        "detection",
        cells,
        seed=SEED,
        config={
            "base_duration_s": BASE_DURATION_S,
            "attach_grid": [list(cell) for cell in ATTACH_GRID],
            "sample_size": DETECTOR_CONFIG.sample_size,
            "backends": list(BACKENDS),
        },
    )

    headline = cells["m4x4"]
    assert headline["detectors"] == 16
    assert headline["detection_events"] > 0
