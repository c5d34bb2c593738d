"""Tests for the extension misbehavior strategies and the occupancy
correction."""

import pytest

from repro.mac.misbehavior import (
    AdaptiveLoadCheat,
    FixedBackoff,
    IntermittentMisbehavior,
    PercentageMisbehavior,
)
from repro.mac.prng import VerifiableBackoffPrng
from repro.util.rng import RngStream


@pytest.fixture
def prng():
    return VerifiableBackoffPrng(3)


class TestIntermittentMisbehavior:
    def test_probability_zero_is_honest(self, prng):
        policy = IntermittentMisbehavior(
            FixedBackoff(0), 0.0, RngStream(1, "im")
        )
        for offset in range(50):
            assert policy.actual_backoff(prng, offset, 1) == (
                prng.dictated_backoff(offset, 1)
            )
        assert policy.cheated_draws == 0

    def test_probability_one_always_cheats(self, prng):
        policy = IntermittentMisbehavior(
            FixedBackoff(0), 1.0, RngStream(1, "im")
        )
        assert all(policy.actual_backoff(prng, o, 1) == 0 for o in range(50))
        assert policy.honest_draws == 0

    def test_dilution_roughly_matches_probability(self, prng):
        policy = IntermittentMisbehavior(
            FixedBackoff(0), 0.3, RngStream(2, "im")
        )
        for offset in range(2000):
            policy.actual_backoff(prng, offset, 1)
        fraction = policy.cheated_draws / 2000
        assert fraction == pytest.approx(0.3, abs=0.05)

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            IntermittentMisbehavior(FixedBackoff(0), 0.5, None)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            IntermittentMisbehavior(FixedBackoff(0), 1.5, RngStream(1, "x"))

    def test_describe(self):
        policy = IntermittentMisbehavior(
            PercentageMisbehavior(50), 0.25, RngStream(1, "x")
        )
        assert "0.25" in policy.describe()
        assert "50" in policy.describe()


class TestAdaptiveLoadCheat:
    def test_cheats_only_above_threshold(self, prng):
        load = {"value": 0.2}
        policy = AdaptiveLoadCheat(
            FixedBackoff(0), lambda: load["value"], threshold=0.5
        )
        assert policy.actual_backoff(prng, 0, 1) == prng.dictated_backoff(0, 1)
        load["value"] = 0.8
        assert policy.actual_backoff(prng, 1, 1) == 0
        assert policy.honest_draws == 1
        assert policy.cheated_draws == 1

    def test_probe_must_be_callable(self):
        with pytest.raises(TypeError):
            AdaptiveLoadCheat(FixedBackoff(0), 0.7)

    def test_describe(self):
        policy = AdaptiveLoadCheat(FixedBackoff(2), lambda: 0.0, threshold=0.4)
        assert "0.4" in policy.describe()


class TestOccupancyCorrection:
    def test_scale_defaults_to_one(self):
        from repro.core.detector import DetectorConfig
        from repro.core.observatory import SharedChannelObservatory

        det = SharedChannelObservatory().attach(1, 0, config=DetectorConfig())
        assert det.p_ib_scale == 1.0

    def test_scale_tracks_measurements(self):
        from repro.core.detector import DetectorConfig
        from repro.core.observatory import SharedChannelObservatory

        det = SharedChannelObservatory().attach(1, 0, config=DetectorConfig())
        baseline = det.state_estimator.region_model.regions.uniform_invisible_fraction
        for _ in range(100):
            det._record_occupancy(invisible=True)
        assert det.p_ib_scale == pytest.approx(1.0 / baseline, rel=0.05)

    def test_disabled_correction_stays_one(self):
        from repro.core.detector import DetectorConfig
        from repro.core.observatory import SharedChannelObservatory

        det = SharedChannelObservatory().attach(
            1, 0, config=DetectorConfig(occupancy_correction=False)
        )
        for _ in range(100):
            det._record_occupancy(invisible=True)
        assert det.p_ib_scale == 1.0

    def test_p_ib_scale_feeds_estimator(self):
        from repro.core.sysstate import SystemStateEstimator

        est = SystemStateEstimator()
        base = est.probabilities(0.8, 5, 5).p_idle_given_busy
        scaled_up = est.probabilities(0.8, 5, 5, p_ib_scale=2.0).p_idle_given_busy
        assert scaled_up == pytest.approx(2.0 * base)

    def test_p_ib_scale_clamped_to_probability(self):
        from repro.core.sysstate import SystemStateEstimator

        est = SystemStateEstimator()
        probs = est.probabilities(0.8, 5, 5, p_ib_scale=1_000.0)
        assert probs.p_idle_given_busy <= 1.0
