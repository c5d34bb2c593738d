"""Tests for verdict aggregation into reputation scores."""

import pytest

from repro.core.records import Diagnosis, Verdict
from repro.core.reputation import ReputationConfig, ReputationTracker


def _malicious(slot=0, deterministic=False):
    return Verdict(
        diagnosis=Diagnosis.MALICIOUS, slot=slot, deterministic=deterministic
    )


def _clean(slot=0):
    return Verdict(diagnosis=Diagnosis.WELL_BEHAVED, slot=slot)


class TestScores:
    def test_unknown_node_trusted(self):
        tracker = ReputationTracker()
        assert tracker.score(42) == 1.0
        assert not tracker.is_quarantined(42)

    def test_malicious_verdict_reduces_score(self):
        tracker = ReputationTracker()
        score = tracker.ingest(1, _malicious())
        assert score == pytest.approx(0.5)

    def test_deterministic_penalty_heavier(self):
        tracker = ReputationTracker()
        stat = tracker.ingest(1, _malicious())
        det = tracker.ingest(2, _malicious(deterministic=True))
        assert det < stat

    def test_clean_verdicts_recover(self):
        tracker = ReputationTracker()
        tracker.ingest(1, _malicious())
        before = tracker.score(1)
        tracker.ingest(1, _clean())
        assert tracker.score(1) > before

    def test_score_bounded(self):
        tracker = ReputationTracker()
        for _ in range(50):
            tracker.ingest(1, _clean())
        assert tracker.score(1) <= 1.0
        for _ in range(50):
            tracker.ingest(1, _malicious(deterministic=True))
        assert tracker.score(1) >= 0.0

    def test_stats(self):
        tracker = ReputationTracker()
        tracker.ingest(1, _malicious())
        tracker.ingest(1, _clean())
        tracker.ingest(1, _clean())
        assert tracker.stats(1) == (1, 2)
        assert tracker.stats(9) == (0, 0)


class TestQuarantine:
    def test_repeat_offender_quarantined(self):
        tracker = ReputationTracker()
        for _ in range(3):
            tracker.ingest(1, _malicious())
        assert tracker.is_quarantined(1)
        assert tracker.quarantined_nodes() == [1]

    def test_hysteresis_rehabilitation(self):
        tracker = ReputationTracker()
        for _ in range(3):
            tracker.ingest(1, _malicious())
        assert tracker.is_quarantined(1)
        # A single clean window is not enough to rehabilitate.
        tracker.ingest(1, _clean())
        assert tracker.is_quarantined(1)
        for _ in range(60):
            tracker.ingest(1, _clean())
        assert not tracker.is_quarantined(1)

    def test_ingest_all(self):
        tracker = ReputationTracker()
        verdicts = [_malicious(), _malicious(), _clean()]
        tracker.ingest_all(1, verdicts)
        assert tracker.stats(1) == (2, 1)


class TestConfigValidation:
    def test_hysteresis_enforced(self):
        with pytest.raises(ValueError):
            ReputationConfig(
                quarantine_threshold=0.5, rehabilitate_threshold=0.4
            )

    def test_penalty_bounds(self):
        with pytest.raises(ValueError):
            ReputationConfig(statistical_penalty=1.5)


class TestEndToEnd:
    def test_cheater_ends_quarantined_honest_does_not(self):
        from repro.core.detector import DetectorConfig
        from repro.core.observatory import SharedChannelObservatory
        from repro.mac.misbehavior import PercentageMisbehavior
        from repro.sim.network import Flow, Simulation, SimulationConfig
        from repro.topology.placement import center_pair_indices, grid_positions

        positions = grid_positions(rows=5, cols=6, spacing=240)
        sender, monitor = center_pair_indices(5, 6)
        flows = [
            Flow(source=i, load=0.6)
            for i in range(len(positions))
            if i != monitor
        ]

        def run(policies):
            sim = Simulation(
                positions,
                flows=flows,
                policies=policies,
                config=SimulationConfig(seed=7),
            )
            observatory = SharedChannelObservatory()
            sim.add_listener(observatory)
            det = observatory.attach(
                monitor, sender,
                config=DetectorConfig(sample_size=25, known_n=5, known_k=5),
            )
            sim.run(12.0)
            tracker = ReputationTracker()
            tracker.ingest_all(sender, det.verdicts)
            return tracker

        cheater = run({sender: PercentageMisbehavior(70)})
        honest = run({})
        assert cheater.is_quarantined(sender)
        assert not honest.is_quarantined(sender)
        assert honest.score(sender) > 0.9
