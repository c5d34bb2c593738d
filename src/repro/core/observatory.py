"""The observation plane: how every detector sees the channel.

The paper's framework is cooperative: *every* neighbor of a sender is a
potential monitor.  :class:`SharedChannelObservatory` is the single
engine listener behind every
:class:`~repro.core.detector.BackoffMisbehaviorDetector` — a detector
exists only as a subscription created by
:meth:`SharedChannelObservatory.attach`, and a standalone detector is
simply a one-subscriber observatory.  It ingests each transmission
**once** and fans the result out cheaply, so D detectors on one node do
not pay for D ``senses()`` lookups, D copies of the same busy-interval
timeline or D identical estimators:

* sensed/decodable status is resolved per *monitor node* once, from the
  medium's cached :meth:`~repro.phy.medium.Medium.sensors_of`
  frozensets, and an event touches only the channels of the monitors
  that sensed it;
* one :class:`MonitorChannel` (busy timeline + own-tx ledger) exists per
  monitor node, shared by every detector observing from that node;
* per-channel *feeds* — the Bianchi competing-terminal estimator, fed
  per sensed attempt, and the ARMA traffic estimator, folded over fixed
  intervals of the channel's own busy timeline when rho is read — are
  shared by every same-configuration detector attached with no channel
  event in between (no sensed start for the ARMA feed, no counted
  attempt for the terminal estimator);
* detectors subscribe via :class:`ObservatorySubscription` — the
  shared channel plus a private ``ObservedTransmission`` demux of their
  tagged node.

Sharing does not change what a detector computes: for detectors
attached before the run starts (or on a fresh private channel mid-run,
as the mobility hand-off does), same-seed observations, verdicts, audit
logs and metrics are exactly those of a private observer on that node
(``tests/test_golden_fingerprints.py`` pins this).  A detector attached
mid-run to an already-populated shared channel would inherit busy
history a newly arrived monitor could never have seen — use
``fresh_channel=True`` there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.arma import ArmaTrafficEstimator
from repro.core.batch import rank_sum_many
from repro.core.bianchi import CompetingTerminalEstimator
from repro.core.detector import BackoffMisbehaviorDetector, DetectorConfig
from repro.core.observation import ChannelViewBase, ObservedTransmission
from repro.core.ranksum import rank_sum_test
from repro.obs.trace import PID_ENGINE, active_tracer
from repro.sim.listeners import SimulationListener
from repro.util.units import Slots

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.faults.schedule import FaultSchedule
    from repro.mac.constants import MacTiming
    from repro.obs.audit import DecisionAuditLog
    from repro.obs.provenance import ProvenanceLog
    from repro.obs.registry import MetricsRegistry
    from repro.phy.medium import Medium, Transmission

Position = Tuple[float, float]

#: Unborn-feed key: (arma alpha, arma interval, exchange slots).
_ArmaKey = Tuple[float, int, int]


class _ArmaFeed:
    """One shared eq.-6 estimator on a :class:`MonitorChannel`.

    rho is a pure function of the channel's own busy timeline: eq. 6
    smooths the busy fraction of every complete fixed interval
    ``[birth + k*s, birth + (k+1)*s)`` that ends by the finalized
    horizon ``slot - exchange_slots`` (busy intervals are recorded when
    transmissions *end*, so newer slots may still gain busy mass from
    in-flight transmissions).  Intervals are folded when rho is read;
    folding earlier or later never changes a value, so no event on
    another channel can move it.  Before the first interval completes,
    rho is the raw busy mean from birth to the horizon.

    The birth is the start slot of the first transmission the channel
    senses after the feed was created, so a stream whose slots start
    far from 0 reads as the same stream shifted to 0.  Every detector
    attached before that start with the same key shares the feed.
    """

    __slots__ = ("arma", "exchange_slots", "birth_slot", "cursor")

    def __init__(
        self, alpha: float, interval_slots: int, exchange_slots: int
    ) -> None:
        self.arma = ArmaTrafficEstimator(alpha, interval_slots)
        self.exchange_slots = exchange_slots
        self.birth_slot: Optional[Slots] = None
        #: start of the first interval not folded yet (None before birth)
        self.cursor: Optional[Slots] = None

    def read(self, channel: "MonitorChannel", slot: Slots) -> float:
        """rho as of ``slot``: fold every complete interval that ends by
        ``slot - exchange_slots``."""
        birth = self.birth_slot
        cursor = self.cursor
        if birth is None or cursor is None:
            return 0.0
        arma = self.arma
        s = arma.sample_interval_slots
        horizon = slot - self.exchange_slots
        while cursor + s <= horizon:
            arma.update(channel.busy_slots_in(cursor, cursor + s) / s)
            cursor += s
        self.cursor = cursor
        if cursor > birth:
            return arma.estimate
        if horizon <= birth:
            return 0.0
        return channel.busy_slots_in(birth, horizon) / (horizon - birth)


class MonitorChannel(ChannelViewBase):
    """One monitor node's shared busy timeline and estimator feeds."""

    def __init__(self, monitor_id: int) -> None:
        ChannelViewBase.__init__(self)
        self.monitor_id = monitor_id
        #: every ARMA feed on this channel, born or not
        self.arma_feeds: List[_ArmaFeed] = []
        #: feeds waiting for the channel's next sensed transmission start
        self.unborn_feeds: Dict[_ArmaKey, _ArmaFeed] = {}
        #: the terminal feed detectors attached since the last counted
        #: attempt share (None once an attempt is counted)
        self.open_terminal: Optional[CompetingTerminalEstimator] = None
        self.terminal_feeds: List[CompetingTerminalEstimator] = []
        #: detectors with occupancy correction enabled (per-tagged EWMA)
        self.occupancy_detectors: List[BackoffMisbehaviorDetector] = []
        #: live subscriptions reading this channel
        self.subscribers = 0

    def close_busy(self, sender: int, start_slot: Slots, end_slot: Slots) -> None:
        """Record one ended transmission this monitor sensed at its start."""
        self._add_busy_interval(start_slot, end_slot)
        if sender == self.monitor_id:
            self._add_own_interval(start_slot, end_slot)

    def record_sensed(
        self, sender: int, sensors: "FrozenSet[int]", collided: bool
    ) -> None:
        """Count one sensed foreign attempt toward the shared estimators."""
        # Every sensed attempt feeds the shared collision-probability
        # estimate behind the density inversion.
        for terminal in self.terminal_feeds:
            terminal.record_attempt(collided=collided)
        self.open_terminal = None
        for detector in self.occupancy_detectors:
            if sender != detector.tagged_id:
                detector._record_occupancy(
                    invisible=detector.tagged_id not in sensors
                )


class ObservatorySubscription:
    """One detector's view: the shared :class:`MonitorChannel` it reads,
    plus the ``observed`` demux of its tagged node (and the decodable
    flags captured at transmission start), private to this (monitor,
    tagged) pair.
    """

    __slots__ = (
        "channel",
        "monitor_id",
        "tagged_id",
        "observed",
        "_observatory",
        "_decodable_keys",
        "_detector",
        "feed",
        "terminal",
    )

    def __init__(
        self,
        observatory: "SharedChannelObservatory",
        channel: MonitorChannel,
        monitor_id: int,
        tagged_id: int,
    ) -> None:
        self._observatory = observatory
        self.channel = channel
        self.monitor_id = monitor_id
        self.tagged_id = tagged_id
        #: ObservedTransmission of the tagged node (this sub's demux)
        self.observed: List[ObservedTransmission] = []
        #: id(transmission) of in-flight tagged tx decodable at start
        self._decodable_keys: Set[int] = set()
        self._detector: Optional[BackoffMisbehaviorDetector] = None
        #: the channel's shared ARMA feed this detector reads rho from
        self.feed: Optional[_ArmaFeed] = None
        #: the channel's shared competing-terminal estimator
        self.terminal: Optional[CompetingTerminalEstimator] = None

    def rho(self) -> float:
        """The detector's rho, read at the observatory's stream clock."""
        assert self.feed is not None
        return self.feed.read(self.channel, self._observatory.slot)

    @property
    def faults(self) -> "Optional[FaultSchedule]":
        """The observatory's injected fault schedule (None = clean)."""
        return self._observatory.faults


@dataclass
class _PendingWindow:
    """One rank-sum-ready window, snapshotted at deferral time.

    The log indices were reserved when the window became ready, so the
    dispatch-end fill lands every record exactly where an eager scalar
    evaluation would have written it; the (x, y) copies protect the
    window contents from later ``add_sample`` calls in the same flush
    cycle.  The rho/quarantine/skip counters are likewise frozen at
    deferral — provenance must describe the detector state *when the
    window became ready*, not whatever it drifted to by flush time
    (coarse flush cadences, as the streaming service runs, would
    otherwise leak later ingests into earlier records).
    """

    detector: BackoffMisbehaviorDetector
    slot: int
    alternative: str
    x: List[float]
    y: List[float]
    window_meta: List[Tuple[int, int, float, float]]
    audit_index: Optional[int]
    provenance_index: Optional[int]
    #: reserved ``detector.verdicts`` slot and ``_verdict_seq`` value —
    #: deterministic violations published between deferral and flush
    #: must not overtake this verdict's list position or id numbering
    verdict_index: int
    verdict_seq: Optional[int]
    rho: float
    quarantine_drops: Dict[str, int]
    skipped_samples: int


class BatchScheduler:
    """Coalesces ready rank-sum windows across all detectors.

    A detector tests each window at ingest, one scalar rank-sum per
    window.  A detector wired to a scheduler (``repro.serve`` wires
    every session detector to its own) *defers* ready windows here
    instead, and the owner's :meth:`flush` ranks them through
    :func:`repro.core.batch.rank_sum_many` in one vectorized call per
    alternative.  Verdict slots, per-detector ordering, and the shared
    audit/provenance interleaving are all preserved: the verdict slot
    is captured at deferral, and the log positions were reserved then.
    """

    def __init__(self) -> None:
        self._pending: List[_PendingWindow] = []

    def __len__(self) -> int:
        return len(self._pending)

    def defer(self, detector: BackoffMisbehaviorDetector, slot: Slots) -> None:
        """Snapshot one ready window and reserve its log positions."""
        x, y = detector.test.window_snapshot()
        audit_index = None if detector.audit is None else detector.audit.reserve()
        provenance_index = (
            None if detector.provenance is None else detector.provenance.reserve()
        )
        verdict_index = detector._reserve_verdict()
        verdict_seq: Optional[int] = None
        if detector.provenance is not None or detector._tracer is not None:
            # Mirror _publish's id numbering at deferral time, so a
            # deterministic verdict published before the flush cannot
            # steal this verdict's sequence number.
            verdict_seq = detector._verdict_seq
            detector._verdict_seq += 1
        self._pending.append(
            _PendingWindow(
                detector=detector,
                slot=slot,
                alternative=detector.test.alternative,
                x=x,
                y=y,
                window_meta=list(detector._window_meta),
                audit_index=audit_index,
                provenance_index=provenance_index,
                verdict_index=verdict_index,
                verdict_seq=verdict_seq,
                rho=detector.rho,
                quarantine_drops=dict(detector.quarantine_counts),
                skipped_samples=detector.skipped_samples,
            )
        )

    def flush(self) -> None:
        """Evaluate every deferred window and publish its verdict."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        groups: Dict[str, List[_PendingWindow]] = {}
        for entry in pending:
            groups.setdefault(entry.alternative, []).append(entry)
        for alternative, group in groups.items():
            if len(group) <= 2:
                # Below the kernel's numpy fixed cost; the scalar test
                # is bit-identical by contract, so the fallback never
                # moves a verdict.
                results = [
                    rank_sum_test(entry.x, entry.y, alternative)
                    for entry in group
                ]
            else:
                results = rank_sum_many(
                    [entry.x for entry in group],
                    [entry.y for entry in group],
                    alternative,
                )
            for entry, result in zip(group, results):
                entry.detector._finish_deferred_evaluation(entry, result)


class SharedChannelObservatory(SimulationListener):
    """The single engine listener behind every subscribed detector."""

    def __init__(self, faults: "Optional[FaultSchedule]" = None) -> None:
        if faults is None:
            from repro.faults.runtime import active_schedule

            faults = active_schedule()
        #: injected link faults (None = clean channel, the default);
        #: applied per monitor *node*: the draws are pure hashes of
        #: (monitor, sender, start slot), so every subscription on a
        #: node sees the same impairments.
        self.faults = faults
        #: monitor id -> shared channel (fresh channels live only in the list)
        self._channels: Dict[int, MonitorChannel] = {}
        #: every live channel, shared and fresh, in creation order
        self._channel_list: List[MonitorChannel] = []
        #: monitor id -> every live channel on that node, shared and
        #: fresh (the ingest dispatch index)
        self._monitor_index: Dict[int, List[MonitorChannel]] = {}
        #: channels that sensed each in-flight transmission at its start
        self._sensed_by_key: Dict[int, List[MonitorChannel]] = {}
        #: the stream clock: slot of the latest ingested event, where
        #: rho is read
        self.slot: Slots = 0
        #: tagged id -> subscriptions, in attach order (= audit order)
        self._subs_by_tagged: Dict[int, List[ObservatorySubscription]] = {}
        #: units receiving position epochs (detectors, hand-off managers)
        self._position_units: List[SimulationListener] = []
        #: live detectors in attach order
        self.detectors: List[BackoffMisbehaviorDetector] = []
        #: the process tracer when tracing is on (ingest/demux instants)
        self._tracer = active_tracer()

    # -- subscription management -------------------------------------------

    def attach(
        self,
        monitor_id: int,
        tagged_id: int,
        config: Optional[DetectorConfig] = None,
        timing: "Optional[MacTiming]" = None,
        separation: Optional[float] = None,
        audit: "Optional[DecisionAuditLog]" = None,
        metrics: "Optional[MetricsRegistry]" = None,
        provenance: "Optional[ProvenanceLog]" = None,
        fresh_channel: bool = False,
        position_unit: bool = True,
    ) -> BackoffMisbehaviorDetector:
        """Create a detector subscribed to this observatory.

        This is the only way to build a detector.  Register the
        observatory itself with the simulation (``sim.add_listener``)
        or drive its ``ingest_*`` methods directly.

        ``fresh_channel=True`` gives the detector a private, empty
        channel instead of the monitor node's shared one — what a
        monitor arriving mid-run (a hand-off replacement) could have
        recorded, with none of the node's earlier busy history.
        ``position_unit=False`` skips mobility-epoch forwarding (the
        hand-off manager forwards positions itself).
        """
        channel = self._channels.get(monitor_id) if not fresh_channel else None
        if channel is None:
            channel = MonitorChannel(monitor_id)
            self._channel_list.append(channel)
            self._monitor_index.setdefault(monitor_id, []).append(channel)
            if not fresh_channel:
                self._channels[monitor_id] = channel
        subscription = ObservatorySubscription(
            self, channel, monitor_id, tagged_id
        )
        detector = BackoffMisbehaviorDetector(
            monitor_id,
            tagged_id,
            config=config,
            timing=timing,
            separation=separation,
            audit=audit,
            metrics=metrics,
            observer=subscription,
            provenance=provenance,
        )
        subscription._detector = detector
        channel.subscribers += 1
        self._share_feeds(subscription, detector)
        self._subs_by_tagged.setdefault(tagged_id, []).append(subscription)
        self.detectors.append(detector)
        if position_unit:
            self._position_units.append(detector)
        return detector

    def _share_feeds(
        self,
        subscription: ObservatorySubscription,
        detector: BackoffMisbehaviorDetector,
    ) -> None:
        """Point the detector at the channel's shared estimator feeds."""
        channel = subscription.channel
        cfg = detector.config
        exchange = detector.timing.exchange_slots
        key: _ArmaKey = (cfg.arma_alpha, cfg.arma_interval_slots, exchange)
        feed = channel.unborn_feeds.get(key)
        if feed is None:
            feed = _ArmaFeed(cfg.arma_alpha, cfg.arma_interval_slots, exchange)
            channel.unborn_feeds[key] = feed
            channel.arma_feeds.append(feed)
        subscription.feed = feed
        terminal = channel.open_terminal
        if terminal is None:
            terminal = channel.open_terminal = CompetingTerminalEstimator()
            channel.terminal_feeds.append(terminal)
        subscription.terminal = terminal
        if cfg.occupancy_correction:
            channel.occupancy_detectors.append(detector)

    def detach(self, detector: BackoffMisbehaviorDetector) -> None:
        """Unsubscribe a detector; its recorded state freezes.

        Drops the demux, feed and position registrations; if the channel
        has no remaining subscribers it stops updating entirely (like a
        retired private observer).
        """
        subscription = detector.observer
        if not isinstance(subscription, ObservatorySubscription):
            raise ValueError("detector is not observatory-subscribed")
        channel = subscription.channel
        subs = self._subs_by_tagged.get(subscription.tagged_id, [])
        if subscription in subs:
            subs.remove(subscription)
        if detector in self.detectors:
            self.detectors.remove(detector)
        if detector in self._position_units:
            self._position_units.remove(detector)
        if detector in channel.occupancy_detectors:
            channel.occupancy_detectors.remove(detector)
        channel.subscribers -= 1
        if channel.subscribers <= 0:
            self._channel_list.remove(channel)
            siblings = self._monitor_index.get(channel.monitor_id)
            if siblings is not None and channel in siblings:
                siblings.remove(channel)
                if not siblings:
                    del self._monitor_index[channel.monitor_id]
            if self._channels.get(channel.monitor_id) is channel:
                del self._channels[channel.monitor_id]

    def add_position_listener(self, unit: SimulationListener) -> None:
        """Forward mobility epochs to ``unit`` (e.g. a MonitorHandoff)."""
        self._position_units.append(unit)

    # -- medium-free ingest plane ------------------------------------------
    #
    # The engine hooks below resolve physics (``sensors_of``,
    # ``clean_decode``) from the live medium and delegate here.  The
    # streaming service (``repro.serve``) calls these methods directly
    # with sensed/decodable sets read off the wire — same code path,
    # byte-identical demux, no simulator required.

    def ingest_start(
        self,
        slot: Slots,
        key: int,
        sender: int,
        sensors: "FrozenSet[int]",
        decodable_monitors: "FrozenSet[int]",
    ) -> None:
        """Mark one transmission start: sensing channels and decode flags."""
        self.slot = slot
        index = self._monitor_index
        sensed = [channel for node in sensors for channel in index.get(node, ())]
        if sender not in sensors:
            sensed.extend(index.get(sender, ()))
        if sensed:
            self._sensed_by_key[key] = sensed
            for channel in sensed:
                if channel.unborn_feeds:  # born at the first start it senses
                    for feed in channel.unborn_feeds.values():
                        feed.birth_slot = feed.cursor = slot
                    channel.unborn_feeds.clear()
        subs = self._subs_by_tagged.get(sender)
        if not subs:
            return
        for subscription in subs:
            if subscription.monitor_id in decodable_monitors:
                subscription._decodable_keys.add(key)

    def ingest_end(
        self,
        slot: Slots,
        key: int,
        sender: int,
        receiver: int,
        start_slot: Slots,
        end_slot: Slots,
        success: bool,
        frame: object,
        sensors: "FrozenSet[int]",
    ) -> None:
        """Absorb one transmission end: timelines, demux, evaluation."""
        self.slot = slot
        # Only the channels that sensed the start (the sender's own
        # included) gain a busy interval, and only the end-time sensing
        # monitors count the attempt; no other channel is touched.  A
        # channel detached while the transmission was in flight is dead
        # (subscribers == 0) and stays frozen.
        for channel in self._sensed_by_key.pop(key, ()):
            if channel.subscribers > 0:
                channel.close_busy(sender, start_slot, end_slot)
        collided = not success
        index = self._monitor_index
        for node in sensors:
            if node != sender:
                for channel in index.get(node, ()):
                    channel.record_sensed(sender, sensors, collided)
        subs = self._subs_by_tagged.get(sender)
        if self._tracer is not None:
            self._tracer.instant(
                "observatory.ingest",
                slot=slot,
                pid=PID_ENGINE,
                category="observatory",
                args={
                    "sender": sender,
                    "channels": len(self._channel_list),
                    "subscriptions": len(subs) if subs else 0,
                },
            )
        if not subs:
            return
        #: per-monitor-node fault resolution memo: (rts, impairment)
        delivered: Dict[int, Tuple[object, Optional[str]]] = {}
        for subscription in subs:
            decodable = key in subscription._decodable_keys
            if decodable:
                subscription._decodable_keys.remove(key)
            rts = frame if decodable else None
            impairment = None
            if decodable and self.faults is not None:
                monitor = subscription.monitor_id
                outcome = delivered.get(monitor)
                if outcome is None:
                    outcome = delivered[monitor] = self.faults.deliver_rts(
                        monitor, sender, start_slot, frame
                    )
                rts, impairment = outcome
            subscription.observed.append(
                ObservedTransmission(
                    start_slot=start_slot,
                    end_slot=end_slot,
                    rts=rts,
                    success=success,
                    receiver=receiver,
                    impairment=impairment,
                )
            )
        # Run the sample pipelines only after every demux appended, in
        # attach order (which fixes the audit-record order exactly as
        # the per-listener dispatch did).
        for subscription in subs:
            detector = subscription._detector
            if detector is not None:
                detector._process_new_observations()

    def ingest_positions(
        self,
        slot: Slots,
        positions: Dict[int, Position],
        medium: "Optional[Medium]" = None,
    ) -> None:
        """Forward a mobility epoch to every registered position unit."""
        self.slot = slot
        for unit in self._position_units:
            unit.on_positions_updated(slot, positions, medium)

    # -- engine listener callbacks -----------------------------------------

    def on_transmission_start(
        self, slot: Slots, transmission: "Transmission", medium: "Medium"
    ) -> None:
        key = id(transmission)
        sender = transmission.sender
        sensors = medium.sensors_of(sender)
        # Decodable iff in decode range, the monitor itself silent, and
        # no other sensed transmission garbling the preamble — resolved
        # once per monitor node, not once per detector.
        decodable_monitors: Set[int] = set()
        subs = self._subs_by_tagged.get(sender)
        if subs:
            flags: Dict[int, bool] = {}
            for subscription in subs:
                monitor = subscription.monitor_id
                decodable = flags.get(monitor)
                if decodable is None:
                    decodable = flags[monitor] = medium.clean_decode(
                        sender, monitor
                    )
                if decodable:
                    decodable_monitors.add(monitor)
        self.ingest_start(slot, key, sender, sensors, decodable_monitors)

    def on_transmission_end(
        self,
        slot: Slots,
        transmission: "Transmission",
        success: bool,
        medium: "Medium",
    ) -> None:
        self.ingest_end(
            slot,
            id(transmission),
            transmission.sender,
            transmission.receiver,
            transmission.start_slot,
            transmission.end_slot,
            success,
            transmission.frame,
            medium.sensors_of(transmission.sender),
        )

    def on_positions_updated(
        self, slot: Slots, positions: Dict[int, Position], medium: "Medium"
    ) -> None:
        self.ingest_positions(slot, positions, medium)
