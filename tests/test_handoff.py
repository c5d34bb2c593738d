"""Tests for monitor hand-off under mobility."""

import pytest

from repro.core.detector import DetectorConfig
from repro.core.handoff import MonitorHandoff
from repro.core.observatory import SharedChannelObservatory
from repro.mac.misbehavior import PercentageMisbehavior
from repro.phy.channel import Channel
from repro.phy.medium import Medium
from repro.util.rng import RngStream


def _medium(positions):
    m = Medium(Channel())
    m.update_positions(positions)
    return m


def _handoff(tagged=0, monitor=1, seed=1):
    return MonitorHandoff(
        tagged,
        monitor,
        config=DetectorConfig(sample_size=10, known_n=5, known_k=5),
        rng=RngStream(seed, "handoff"),
        observatory=SharedChannelObservatory(),
    )


class TestHandoffMechanics:
    def test_keeps_monitor_while_in_range(self):
        h = _handoff()
        positions = {0: (0, 0), 1: (200, 0), 2: (400, 0)}
        medium = _medium(positions)
        h.on_positions_updated(0, positions, medium)
        assert h.monitor_id == 1
        assert h.handoffs == 0

    def test_hands_off_when_out_of_range(self):
        h = _handoff()
        positions = {0: (0, 0), 1: (5000, 0), 2: (200, 0)}
        medium = _medium(positions)
        h.on_positions_updated(0, positions, medium)
        assert h.monitor_id == 2
        assert h.handoffs == 1
        assert len(h.retired_detectors) == 1

    def test_no_candidates_keeps_old_monitor(self):
        h = _handoff()
        positions = {0: (0, 0), 1: (5000, 0), 2: (5000, 5000)}
        medium = _medium(positions)
        h.on_positions_updated(0, positions, medium)
        assert h.monitor_id == 1
        assert h.handoffs == 0

    def test_aggregated_views_concatenate(self):
        h = _handoff()
        positions = {0: (0, 0), 1: (5000, 0), 2: (200, 0)}
        medium = _medium(positions)
        h.on_positions_updated(0, positions, medium)
        assert h.observations == []
        assert h.verdicts == []
        assert h.violations == []
        assert h.observation_count == 0
        assert not h.flagged_malicious

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            MonitorHandoff(0, 1, rng=None)

    def test_requires_observatory(self):
        """The listener-path idiom (no observatory) fails at construction
        instead of silently collecting nothing."""
        with pytest.raises(TypeError, match="observatory"):
            MonitorHandoff(0, 1, rng=RngStream(1, "handoff"))

    def test_handoff_resubscribes_on_a_fresh_channel(self):
        h = _handoff()
        observatory = h.observatory
        first = h.detector
        positions = {0: (0, 0), 1: (5000, 0), 2: (200, 0)}
        h.on_positions_updated(0, positions, _medium(positions))
        assert h.retired_detectors == [first]
        assert first not in observatory.detectors
        assert observatory.detectors == [h.detector]
        assert h.detector.observer.channel.monitor_id == 2
        assert 2 not in observatory._channels  # private, not shared


class TestHandoffEndToEnd:
    def test_mobile_cheater_detected_across_handoffs(self):
        """A mobile network where the initial monitor eventually drifts
        away: the hand-off keeps detection going."""
        from repro.experiments.runner import collect_detection_samples
        from repro.experiments.scenarios import RandomScenario

        scenario = RandomScenario(load=0.6, mobile=True, seed=23)
        detector = collect_detection_samples(
            scenario, pm=70, target_samples=200, max_duration_s=120.0
        )
        assert isinstance(detector, MonitorHandoff)
        assert detector.observation_count >= 100
        assert detector.flagged_malicious
