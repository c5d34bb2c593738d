"""The four benchmark workloads, composed from the program's public entry points.

Each workload splits into three phases:

* ``prepare`` makes the inputs from the seed (untimed, not set-up);
* ``setup`` builds what the timed call needs: a simulation with its
  detectors attached, or a :class:`~repro.serve.server.ServeSession`
  with its links registered;
* ``run`` makes the timed calls and returns a :class:`Rep` with the
  work done, the output digest and the output checks' findings.

The simulator workloads keep the flow layout of one canonical scenario
seed and take the traffic realization (arrivals, destinations, back-off
draws) from ``--seed``: a scenario seed also picks which nodes carry
flows, and that alone moves a run's sample yield by a third.

Every ``setup`` starts from fresh process state (packet ids, region
model cache, fidelity cache), so repetitions in one process repeat
byte for byte.  ``run`` times in chunks on a :class:`HostClock`, which
calibrates the host's speed between chunks.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.detector import DetectorConfig, reset_region_cache
from repro.core.observatory import SharedChannelObservatory
from repro.experiments.runner import windowed_detection_rate
from repro.experiments.scenarios import GridScenario, MultiMonitorGridScenario
from repro.mac.misbehavior import PercentageMisbehavior
from repro.obs.audit import DecisionAuditLog
from repro.obs.provenance import ProvenanceLog
from repro.serve.capture import StreamCapture
from repro.serve.records import REJECT_REASONS
from repro.serve.server import (
    ServeConfig,
    ServeSession,
    export_detector,
    merged_audit_jsonl,
    result_fingerprint,
)
from repro.sim.network import Simulation, SimulationConfig
from repro.traffic.queue import reset_packet_ids
from repro.util.fidelity import reset_fidelity_cache

from perfbench.hostclock import HostClock
from perfbench.streams import inject_junk, stream_digest, wide_links, wide_stream

#: Simulated seconds per timed chunk of a simulator workload.
CHUNK_S = 1.0
#: Serve lines between host-speed checks.
CHUNK_LINES = 256
#: Host seconds between calibrations.
CALIBRATE_EVERY_S = 0.5

#: Canonical flow layouts: the fig5 sweep's base seed, the multi capture's seed.
SWEEP_LAYOUT_SEED = 17
GRID16_LAYOUT_SEED = 7
#: The 16-detector grid's simulated duration (grid16 and serve-replay).
GRID16_DURATION_S = 30.0
#: The 16-detector grid's detector settings (those of the serve goldens).
GRID16_CONFIG = DetectorConfig(sample_size=25, known_n=5, known_k=5)
#: Share of injected junk lines in the serve-replay stream.
JUNK_RATE = 0.01
#: serve-wide shape: isolated links x exchanges per link.
WIDE_LINKS = 100
WIDE_EXCHANGES = 120
WIDE_PM = 50.0
WIDE_CONFIG = DetectorConfig(sample_size=25, known_n=5, known_k=5, warmup_slots=0)

_SLOT_FIELD = re.compile(r'"slot":(\d+)')


def fresh_state() -> None:
    """Rewind the process-global state a same-seed rerun depends on."""
    reset_packet_ids()
    reset_region_cache()
    reset_fidelity_cache()


@dataclass
class Rep:
    """One timed repetition: work done, outputs, findings.

    ``wall_s`` excludes calibration pauses; ``speed`` is the host speed
    factor measured across the repetition (see :mod:`perfbench.hostclock`);
    ``lags_ms`` are already at reference speed.
    """

    wall_s: float
    speed: float
    slots: int
    samples: int
    verdicts: int
    lines: int
    attempted: int
    failed: int
    digest: str
    lags_ms: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: program-side counts for the per-layer report
    counts: Dict[str, float] = field(default_factory=dict)


class Stamps:
    """Host time of the first event seen at each slot, on a swappable clock."""

    def __init__(self) -> None:
        self.first: Dict[int, float] = {}
        self.now: Callable[[], float] = time.perf_counter

    def see(self, slot: int) -> None:
        if slot not in self.first:
            self.first[slot] = self.now()

    def lag(self, slot: int) -> Optional[Tuple[float, float]]:
        """``(now, ms since the slot's first event)``, if the slot was seen."""
        start = self.first.get(slot)
        if start is None:
            return None
        now = self.now()
        return now, (now - start) * 1e3

    def watch(self, observatory: SharedChannelObservatory) -> None:
        """Wrap the observatory's engine hooks; call before registering it."""
        for name in ("on_transmission_start", "on_transmission_end"):
            original = getattr(observatory, name)

            def hook(slot: int, *args: Any, _original: Any = original) -> None:
                self.see(slot)
                _original(slot, *args)

            setattr(observatory, name, hook)


class LagAuditLog(DecisionAuditLog):
    """An audit log that records each record's lag behind its slot's first event."""

    def __init__(self, stamps: Stamps, lags: List[Tuple[float, float]]) -> None:
        DecisionAuditLog.__init__(self)
        self._stamps = stamps
        self._lags = lags

    def record(self, entry: Any) -> None:
        lag = self._stamps.lag(entry.slot)
        if lag is not None:
            self._lags.append(lag)
        DecisionAuditLog.record(self, entry)


class HashSink:
    """A write-only text sink that keeps a digest of what it received."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self._hash.update(text.encode("utf-8"))
        return len(text)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class LagSink(HashSink):
    """The audit sink: each record's lag behind its slot's first returned line."""

    def __init__(self, stamps: Stamps, lags: List[Tuple[float, float]]) -> None:
        HashSink.__init__(self)
        self._stamps = stamps
        self._lags = lags

    def write(self, text: str) -> int:
        for match in _SLOT_FIELD.finditer(text):
            lag = self._stamps.lag(int(match.group(1)))
            if lag is not None:
                self._lags.append(lag)
        return HashSink.write(self, text)


def _attempts(sim: Simulation) -> int:
    return sum(mac.stats.attempts for mac in sim.macs.values())


def _rank_sum_verdicts(verdicts: Sequence[Any]) -> int:
    return sum(1 for verdict in verdicts if not verdict.deterministic)


def _spec_digest(spec: Dict[str, object]) -> str:
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()


def _reseeded(sim: Simulation, seed: int, policies: Dict[int, Any]) -> Simulation:
    """The same nodes and flows as ``sim``, with another traffic realization."""
    return Simulation(
        sim.mobility,
        flows=sim.flows,
        policies=policies,
        config=SimulationConfig(seed=seed),
    )


def _run_chunks(
    sim: Simulation,
    clock: HostClock,
    duration_s: float,
    stop: Optional[Callable[[], bool]] = None,
) -> int:
    """``sim.run(duration_s, stop)`` in CHUNK_S pieces; returns the end slot."""
    end = sim.engine.now
    remaining = duration_s
    while remaining > 1e-9:
        step = min(CHUNK_S, remaining)
        end = sim.run(step, stop_condition=stop)
        remaining -= step
        clock.maybe_calibrate(CALIBRATE_EVERY_S)
        if stop is not None and stop():
            break
    return end


# -- sweep-point -------------------------------------------------------------


class SweepPoint:
    """One Fig. 5/6 point: honest and PM 50 trials to 600 samples, then windows."""

    name = "sweep-point"
    load = 0.6
    pms = (0, 50)
    runs = 2
    target_samples = 600
    max_duration_s = 300.0
    sample_sizes = (10, 25, 50, 100)
    config = DetectorConfig(sample_size=10_000, known_n=5, known_k=5)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.trials = [
            (pm, 1000 * seed + 100 * run + pm)
            for run in range(self.runs)
            for pm in self.pms
        ]

    def prepare(self, workdir: str) -> str:
        return _spec_digest(
            {
                "scenario": "GridScenario",
                "layout_seed": SWEEP_LAYOUT_SEED,
                "load": self.load,
                "trials": self.trials,
                "target_samples": self.target_samples,
                "sample_sizes": self.sample_sizes,
            }
        )

    def setup(self) -> List[Tuple[Simulation, Any]]:
        fresh_state()
        scenario = GridScenario(load=self.load, traffic="poisson", seed=SWEEP_LAYOUT_SEED)
        layout, sender, monitor = scenario.build()
        built = []
        for pm, trial_seed in self.trials:
            policies = {sender: PercentageMisbehavior(pm)} if pm else {}
            sim = _reseeded(layout, trial_seed, policies)
            observatory = SharedChannelObservatory()
            sim.add_listener(observatory)
            detector = observatory.attach(
                monitor, sender, config=self.config, separation=scenario.separation
            )
            built.append((sim, detector))
        return built

    @staticmethod
    def engines(state: Any) -> List[Any]:
        return [sim.engine for sim, _detector in state]

    def run(self, state: List[Tuple[Simulation, Any]]) -> Rep:
        """Each trial, then its windows; a window's verdict lag runs from
        the end of its trial's simulation (the paper's offline protocol
        tests windows only once the run is over)."""
        clock = HostClock()
        wall = 0.0
        slots = samples = verdicts = lines = failed = 0
        violations = inline_verdicts = 0
        lags: List[Tuple[float, float]] = []
        digest = hashlib.sha256()
        for sim, detector in state:
            target = self.target_samples
            begin = clock.now()
            end_slot = _run_chunks(
                sim,
                clock,
                self.max_duration_s,
                stop=lambda d=detector: d.observation_count >= target,
            )
            clock.calibrate()
            simulated = clock.now()
            results = []
            for size in self.sample_sizes:
                for deterministic in (False, True):
                    rate, windows = windowed_detection_rate(
                        detector, size, include_deterministic=deterministic
                    )
                    results.append((size, rate, windows))
                    verdicts += windows
                    now = clock.now()
                    lags.extend([(now, (now - simulated) * 1e3)] * windows)
            wall += clock.now() - begin
            clock.calibrate()
            slots += end_slot
            samples += detector.observation_count
            lines += 2 * _attempts(sim)
            violations += len(detector.violations)
            inline_verdicts += len(detector.verdicts)
            if detector.observation_count < target:
                failed += 1
            for part in (repr(detector.observations), repr(results)):
                digest.update(part.encode("ascii", errors="backslashreplace"))
        return Rep(
            wall_s=wall,
            speed=clock.speed,
            slots=slots,
            samples=samples,
            verdicts=verdicts,
            lines=lines,
            attempted=len(state),
            failed=failed,
            digest=digest.hexdigest(),
            lags_ms=clock.normalize_lags(lags),
            problems=(
                [f"{failed} trial(s) stopped short of {self.target_samples} samples"]
                if failed
                else []
            ),
            counts={
                "core.detector.samples": samples,
                "core.detector.verdicts": inline_verdicts + verdicts,
                "core.detector.violations": violations,
            },
        )


# -- grid16 ------------------------------------------------------------------


def _build_grid16(seed: int, capture: bool = False):
    """The 16-detector grid with audit + provenance logs on every detector.

    Returns ``(sim, attached, stamps, lags, capture)``; ``attached`` holds
    ``(monitor, tagged, seq, detector, audit, provenance)`` per detector.
    """
    scenario = MultiMonitorGridScenario(seed=GRID16_LAYOUT_SEED)
    taggeds = scenario.tagged_nodes()
    policies = {
        taggeds[0]: PercentageMisbehavior(60),
        taggeds[2]: PercentageMisbehavior(75),
    }
    layout, pairs = scenario.build()
    sim = _reseeded(layout, seed, policies)
    stream = None
    if capture:
        stream = StreamCapture(pairs)
        sim.add_listener(stream)
    observatory = SharedChannelObservatory()
    stamps = Stamps()
    stamps.watch(observatory)
    sim.add_listener(observatory)
    lags: List[Tuple[float, float]] = []
    attached = []
    for seq, (monitor, tagged) in enumerate(pairs):
        audit = LagAuditLog(stamps, lags)
        provenance = ProvenanceLog()
        detector = observatory.attach(
            monitor,
            tagged,
            config=GRID16_CONFIG,
            separation=scenario.separation,
            audit=audit,
            provenance=provenance,
        )
        attached.append((monitor, tagged, seq, detector, audit, provenance))
    return sim, attached, stamps, lags, stream


def _exports(attached: Sequence[Tuple[Any, ...]]) -> List[Any]:
    return [
        export_detector(monitor, tagged, seq, detector, audit, provenance)
        for monitor, tagged, seq, detector, audit, provenance in attached
    ]


def _detector_counts(attached: Sequence[Tuple[Any, ...]]) -> Dict[str, float]:
    detectors = [entry[3] for entry in attached]
    return {
        "core.detector.samples": sum(d.observation_count for d in detectors),
        "core.detector.verdicts": sum(len(d.verdicts) for d in detectors),
        "core.detector.violations": sum(len(d.violations) for d in detectors),
        "obs.audit.records": sum(len(entry[4]) for entry in attached),
        "obs.provenance.records": sum(len(entry[5]) for entry in attached),
    }


class Grid16:
    """4 monitors x 4 tagged nodes on one observatory, two cheaters."""

    name = "grid16"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, workdir: str) -> str:
        return _spec_digest(
            {
                "scenario": "MultiMonitorGridScenario",
                "layout_seed": GRID16_LAYOUT_SEED,
                "seed": self.seed,
                "cheaters": {"0": 60, "2": 75},
                "duration_s": GRID16_DURATION_S,
            }
        )

    def setup(self):
        fresh_state()
        return _build_grid16(self.seed)

    @staticmethod
    def engines(state: Any) -> List[Any]:
        return [state[0].engine]

    def run(self, state) -> Rep:
        sim, attached, stamps, lags, _capture = state
        clock = HostClock()
        stamps.now = clock.now
        begin = clock.now()
        end_slot = _run_chunks(sim, clock, GRID16_DURATION_S)
        wall = clock.now() - begin
        clock.calibrate()
        detectors = [entry[3] for entry in attached]
        return Rep(
            wall_s=wall,
            speed=clock.speed,
            slots=end_slot,
            samples=sum(d.observation_count for d in detectors),
            verdicts=sum(_rank_sum_verdicts(d.verdicts) for d in detectors),
            lines=2 * _attempts(sim),
            attempted=1,
            failed=0,
            digest=str(result_fingerprint(_exports(attached))["combined"]),
            lags_ms=clock.normalize_lags(lags),
            counts=_detector_counts(attached),
        )


# -- serve workloads ---------------------------------------------------------


class _ServeWorkload:
    """Replay a stream file line by line through one ServeSession."""

    name = ""
    config: DetectorConfig = GRID16_CONFIG
    separation: Optional[float] = None
    #: stream provenance records to a sink as well as audit records
    provenance: bool = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.path = ""
        self.links: List[Tuple[int, int]] = []
        self.valid_lines = 0
        self.stream_slots = 0
        self.injected = {reason: 0 for reason in REJECT_REASONS}

    def _write(self, workdir: str, lines: Sequence[str]) -> str:
        self.path = os.path.join(workdir, f"{self.name}-{os.getpid()}.jsonl")
        with open(self.path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        first, last = (json.loads(line)["slot"] for line in (lines[0], lines[-1]))
        self.stream_slots = last - first
        return stream_digest(lines)

    def cleanup(self) -> None:
        if self.path and os.path.exists(self.path):
            os.remove(self.path)

    def setup(self):
        fresh_state()
        stamps = Stamps()
        lags: List[Tuple[float, float]] = []
        audit = LagSink(stamps, lags)
        session = ServeSession(
            ServeConfig(detector=self.config, separation=self.separation, discover=False),
            links=self.links,
            audit_sink=audit,
            provenance_sink=HashSink() if self.provenance else None,
        )
        return session, stamps, lags, audit

    @staticmethod
    def engines(state: Any) -> List[Any]:
        return []

    def _replay(
        self,
        session: ServeSession,
        stamps: Stamps,
        clock: Optional[HostClock],
        max_lines: Optional[int] = None,
    ) -> int:
        """Closed loop: each line waits for the previous handle_line."""
        last_slot = -1
        lines = 0
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                if lines == max_lines:
                    break
                lines += 1
                event = session.handle_line(line)
                if event is not None and event.slot != last_slot:
                    last_slot = event.slot
                    stamps.see(last_slot)
                if session.shutdown:
                    break
                if clock is not None and not lines % CHUNK_LINES:
                    clock.maybe_calibrate(CALIBRATE_EVERY_S)
        return lines

    def run(self, state) -> Rep:
        session, stamps, lags, audit = state
        clock = HostClock()
        stamps.now = clock.now
        begin = clock.now()
        lines = self._replay(session, stamps, clock)
        result = session.finish()
        wall = clock.now() - begin
        clock.calibrate()
        counters = result.stream_snapshot.get("counters", {})
        rejected = {
            reason: int(counters.get(f"serve.rejected.{reason}", 0))
            for reason in REJECT_REASONS
        }
        problems = [
            f"{self.injected[reason]} injected {reason} line(s), "
            f"{rejected[reason]} rejected"
            for reason in REJECT_REASONS
            if rejected[reason] != self.injected[reason]
        ]
        merged = merged_audit_jsonl(result.links)
        expected = hashlib.sha256((merged + "\n" if merged else "").encode("utf-8"))
        if audit.hexdigest() != expected.hexdigest():
            problems.append("incremental audit stream differs from the merged log")
        fingerprint = result.fingerprint()
        problems += self.check(result, fingerprint)
        links = result.links
        counts: Dict[str, float] = {
            "core.detector.samples": sum(len(link.observations) for link in links),
            "core.detector.verdicts": sum(len(link.verdicts) for link in links),
            "core.detector.violations": sum(len(link.violations) for link in links),
            "obs.audit.records": sum(len(link.audit_records) for link in links),
            "obs.provenance.records": sum(
                len(link.provenance_records) for link in links
            ),
            "serve.links.tracked": len(links),
        }
        counts.update({f"serve.rejected.{r}": n for r, n in rejected.items()})
        return Rep(
            wall_s=wall,
            speed=clock.speed,
            slots=self.stream_slots,
            samples=int(counts["core.detector.samples"]),
            verdicts=sum(_rank_sum_verdicts(link.verdicts) for link in links),
            lines=lines,
            attempted=self.valid_lines,
            failed=sum(
                max(rejected[r] - self.injected[r], 0) for r in REJECT_REASONS
            ),
            digest=str(fingerprint["combined"]),
            lags_ms=clock.normalize_lags(lags),
            problems=problems,
            counts=counts,
        )

    def check(self, result: Any, fingerprint: Dict[str, object]) -> List[str]:
        raise NotImplementedError

    def state_kb_per_10k_links(self) -> float:
        """Resident detection state per 10k links, by tracemalloc, after
        the first quarter of the stream (tracing memory costs ~5x time)."""
        tracemalloc.start()
        try:
            session, stamps, _lags, _audit = self.setup()
            self._replay(session, stamps, None, max_lines=self.valid_lines // 4)
            current, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return current / 1024.0 / (max(len(session.table), 1) / 10_000.0)


class ServeReplay(_ServeWorkload):
    """A grid16 capture (same seed and duration) with ~1% junk lines."""

    name = "serve-replay"
    config = GRID16_CONFIG

    def __init__(self, seed: int) -> None:
        _ServeWorkload.__init__(self, seed)
        scenario = MultiMonitorGridScenario(seed=GRID16_LAYOUT_SEED)
        self.links = scenario.monitor_pairs()
        self.separation = scenario.separation

    def prepare(self, workdir: str) -> str:
        fresh_state()
        sim, attached, _stamps, _lags, capture = _build_grid16(self.seed, capture=True)
        sim.run(GRID16_DURATION_S)
        self.reference = result_fingerprint(_exports(attached))
        self.reference_counts = _detector_counts(attached)
        valid = capture.finished_lines()
        self.valid_lines = len(valid)
        lines, injected = inject_junk(valid, self.seed, JUNK_RATE)
        self.injected.update(injected)
        return self._write(workdir, lines)

    def check(self, result: Any, fingerprint: Dict[str, object]) -> List[str]:
        problems = []
        if fingerprint != self.reference:
            problems.append(
                "result fingerprint differs from the capture run's in-process "
                "detectors"
            )
        links = result.links
        served = {
            "core.detector.samples": sum(len(link.observations) for link in links),
            "core.detector.verdicts": sum(len(link.verdicts) for link in links),
            "core.detector.violations": sum(len(link.violations) for link in links),
        }
        for name, count in served.items():
            if count != self.reference_counts[name]:
                problems.append(
                    f"{name}: {count} served, {self.reference_counts[name]} in process"
                )
        return problems


class ServeWide(_ServeWorkload):
    """Many isolated links, a seeded tenth of them cheating at PM 50.

    Only the audit stream has a sink: JSON-encoding ~10k provenance
    records would otherwise cost as much as the ARMA replay this
    workload exists to expose.
    """

    name = "serve-wide"
    config = WIDE_CONFIG
    provenance = False

    def __init__(self, seed: int) -> None:
        _ServeWorkload.__init__(self, seed)
        self.links, cheaters = wide_links(seed, WIDE_LINKS)
        self.cheaters = {self.links[index] for index in cheaters}

    def prepare(self, workdir: str) -> str:
        lines = list(wide_stream(self.seed, WIDE_LINKS, WIDE_EXCHANGES, WIDE_PM))
        self.valid_lines = len(lines)
        return self._write(workdir, lines)

    def check(self, result: Any, fingerprint: Dict[str, object]) -> List[str]:
        problems = []
        if len(result.links) != WIDE_LINKS:
            problems.append(f"{len(result.links)} of {WIDE_LINKS} links tracked")
        # In the busy == 0 regime both layers must catch every cheater on
        # their own: the rank-sum test and the deterministic countdown check.
        for layer, deterministic in (("rank-sum", False), ("deterministic", True)):
            flagged = {
                (link.monitor, link.tagged)
                for link in result.links
                if any(
                    verdict.is_malicious and verdict.deterministic == deterministic
                    for verdict in link.verdicts
                )
            }
            if flagged != self.cheaters:
                problems.append(
                    f"{layer} verdicts flagged {len(flagged)} link(s), "
                    f"{len(flagged & self.cheaters)} of the {len(self.cheaters)} "
                    "cheaters"
                )
        return problems


WORKLOADS = {
    cls.name: cls for cls in (SweepPoint, Grid16, ServeReplay, ServeWide)
}
