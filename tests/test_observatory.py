"""The shared observation plane: sharing, lifecycle, construction.

Every detector is a :class:`SharedChannelObservatory` subscription.
These tests pin that subscriptions on one monitor node share one
channel and one set of estimator feeds, the subscription lifecycle
(fresh channels, detach), and that the old stand-alone wiring fails at
construction.  Same-seed equivalence of what the observatory computes
is pinned by ``tests/test_golden_fingerprints.py``.
"""

import itertools

import pytest

from repro.core.detector import (
    BackoffMisbehaviorDetector,
    DetectorConfig,
    cached_region_model,
    reset_region_cache,
)
from repro.core.observatory import SharedChannelObservatory
from repro.experiments.scenarios import MultiMonitorGridScenario
from repro.mac.misbehavior import PercentageMisbehavior
from repro.obs.audit import DecisionAuditLog
from repro.obs.registry import MetricsRegistry
from repro.phy.channel import Channel
from repro.phy.medium import Medium, Transmission
from repro.sim.listeners import overrides_hook
from repro.traffic import queue as traffic_queue

CONFIG = DetectorConfig(sample_size=25, known_n=5, known_k=5)


def _fresh_run_state():
    """Reset cross-run process state so same-seed runs are bytewise equal.

    Packet uids feed the RTS payload digests; the module-global counter
    keeps counting across runs in one process, so it must rewind for the
    second run to emit identical frames.
    """
    traffic_queue._packet_ids = itertools.count()
    reset_region_cache()


class TestFeedSharing:
    """The dense-monitor regime: 16 detectors on 4 shared channels."""

    def test_16_subscriptions_share_4_channels(self):
        _fresh_run_state()
        scenario = MultiMonitorGridScenario(seed=7)
        taggeds = scenario.tagged_nodes()
        policies = {
            taggeds[0]: PercentageMisbehavior(60),
            taggeds[2]: PercentageMisbehavior(75),
        }
        sim, pairs = scenario.build(policies=policies)
        audit = DecisionAuditLog()
        observatory = SharedChannelObservatory()
        sim.add_listener(observatory)
        detectors = [
            observatory.attach(
                monitor, tagged, config=CONFIG,
                separation=scenario.separation,
                audit=audit, metrics=MetricsRegistry(),
            )
            for monitor, tagged in pairs
        ]
        sim.run(5.0)
        assert len(detectors) == 16
        assert len(audit.records) > 0
        # 16 subscriptions collapse onto 4 monitor channels, each with
        # one shared ARMA feed and one shared competing-terminal
        # estimator.
        assert len(observatory._channels) == 4
        for channel in observatory._channels.values():
            assert channel.subscribers == 4
            assert len(channel.arma_feeds) == 1
            assert len(channel.terminal_feeds) == 1
        for detector in detectors:
            channel = observatory._channels[detector.monitor_id]
            assert detector.observer.channel is channel
            assert detector.observer.feed is channel.arma_feeds[0]
            assert detector.terminal_estimator is channel.terminal_feeds[0]


def _toy_plane():
    """A 3-node medium plus observatory for lifecycle tests."""
    medium = Medium(Channel())
    medium.update_positions({0: (0.0, 0.0), 1: (100.0, 0.0), 2: (200.0, 0.0)})
    observatory = SharedChannelObservatory()
    return medium, observatory


def _drive(medium, observatory, sender, start, end, receiver=1):
    tx = Transmission(
        sender=sender, receiver=receiver,
        start_slot=start, end_slot=end, kind="handshake",
    )
    tx_id = medium.start_transmission(tx)
    observatory.on_transmission_start(start, tx, medium)
    medium.end_transmission(tx_id)
    observatory.on_transmission_end(end, tx, False, medium)


class TestSubscriptionLifecycle:
    def test_detector_requires_a_subscription(self):
        """The old stand-alone idiom fails at construction instead of
        building a detector that would silently collect nothing."""
        with pytest.raises(TypeError, match="SharedChannelObservatory.attach"):
            BackoffMisbehaviorDetector(1, 0, config=CONFIG)

    def test_detector_is_not_a_channel_listener(self):
        """Only the observatory handles transmissions: registering a
        detector with the engine can never double-count one."""
        _, observatory = _toy_plane()
        detector = observatory.attach(1, 0, config=CONFIG)
        assert not overrides_hook(detector, "on_transmission_start")
        assert not overrides_hook(detector, "on_transmission_end")
        assert overrides_hook(observatory, "on_transmission_start")
        assert overrides_hook(observatory, "on_transmission_end")

    def test_fresh_channel_starts_empty(self):
        medium, observatory = _toy_plane()
        observatory.attach(1, 0, config=CONFIG)
        _drive(medium, observatory, sender=0, start=10, end=20)
        shared = observatory._channels[1]
        assert shared.busy_slots_in(0, 100) == 10
        late = observatory.attach(1, 2, config=CONFIG, fresh_channel=True)
        # The private channel never saw the earlier interval...
        assert late.observer.channel.busy_slots_in(0, 100) == 0
        # ...and the shared one is untouched by the new subscription.
        assert shared.subscribers == 1
        _drive(medium, observatory, sender=0, start=30, end=40)
        assert late.observer.channel.busy_slots_in(0, 100) == 10
        assert shared.busy_slots_in(0, 100) == 20

    def test_detach_freezes_state_and_releases_channel(self):
        medium, observatory = _toy_plane()
        first = observatory.attach(1, 0, config=CONFIG)
        second = observatory.attach(1, 2, config=CONFIG)
        assert observatory._channels[1].subscribers == 2
        _drive(medium, observatory, sender=0, start=10, end=20)
        observatory.detach(first)
        assert observatory._channels[1].subscribers == 1
        frozen = first.observer.channel.busy_slots_in(0, 100)
        _drive(medium, observatory, sender=0, start=30, end=40)
        assert first.observer.channel.busy_slots_in(0, 100) == frozen + 10  # shared
        assert len(first.observer.observed) == 1  # demux frozen
        observatory.detach(second)
        assert 1 not in observatory._channels
        assert observatory._channel_list == []


class TestRegionModelCache:
    def test_cached_model_is_shared(self):
        reset_region_cache()
        first = cached_region_model()
        assert cached_region_model() is first
        reset_region_cache()
        again = cached_region_model()
        assert again is not first
        assert again.regions.uniform_invisible_fraction == (
            first.regions.uniform_invisible_fraction
        )

    def test_detectors_share_default_model(self):
        reset_region_cache()
        one = SharedChannelObservatory().attach(1, 0, config=CONFIG)
        two = SharedChannelObservatory().attach(3, 2, config=CONFIG)
        assert one.state_estimator.region_model is (
            two.state_estimator.region_model
        )
