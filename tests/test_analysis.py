"""Tests for the offline analysis helpers (latency, ROC, summary)."""

import math

import pytest

from repro.analysis.latency import DetectionLatency, detection_latency
from repro.analysis.roc import roc_sweep
from repro.analysis.summary import summarize_estimation
from repro.core.records import BackoffObservation, Diagnosis, Verdict


class _FakeDetector:
    """Minimal stand-in exposing observations/verdicts/config."""

    def __init__(self, observations=(), verdicts=(), guard_band=0.0,
                 max_test_attempt=3):
        from repro.core.detector import DetectorConfig

        self.observations = list(observations)
        self.verdicts = list(verdicts)
        self.config = DetectorConfig(
            guard_band=guard_band, max_test_attempt=max_test_attempt
        )


def _obs(slot, dictated, estimated, attempt=1):
    return BackoffObservation(
        slot=slot,
        seq_off=slot,
        attempt=attempt,
        dictated=dictated,
        estimated=estimated,
        idle_slots=dictated,
        busy_slots=0,
        interval_slots=dictated + 3,
        rho=0.5,
        unambiguous=True,
    )


def _verdict(slot, malicious, deterministic=False):
    return Verdict(
        diagnosis=Diagnosis.MALICIOUS if malicious else Diagnosis.WELL_BEHAVED,
        p_value=0.001 if malicious else 0.9,
        sample_size=10,
        slot=slot,
        deterministic=deterministic,
    )


class TestDetectionLatency:
    def test_never_flagged(self):
        det = _FakeDetector(verdicts=[_verdict(100, False)])
        latency = detection_latency(det)
        assert not latency.flagged
        assert latency.first_flag_seconds == float("inf")

    def test_first_flag(self):
        det = _FakeDetector(
            observations=[_obs(s, 10, 10) for s in (10, 20, 30, 40)],
            verdicts=[_verdict(25, False), _verdict(35, True)],
        )
        latency = detection_latency(det)
        assert latency.flagged
        assert latency.first_flag_slot == 35
        assert latency.samples_at_flag == 3
        assert latency.first_flag_seconds == pytest.approx(35 * 20e-6)

    def test_deterministic_first(self):
        det = _FakeDetector(
            verdicts=[_verdict(50, True, deterministic=True), _verdict(60, True)]
        )
        assert detection_latency(det).deterministic_first

    def test_never_constructor(self):
        never = DetectionLatency.never()
        assert not never.flagged
        assert never.samples_at_flag == -1


class TestSummarizeEstimation:
    def test_empty(self):
        summary = summarize_estimation(_FakeDetector())
        assert summary.samples == 0
        assert math.isnan(summary.mean_error)

    def test_unbiased_samples(self):
        det = _FakeDetector(observations=[_obs(i, 10, 10) for i in range(10)])
        summary = summarize_estimation(det)
        assert summary.mean_error == 0.0
        assert summary.rmse == 0.0
        assert summary.relative_shift == 1.0
        assert summary.unambiguous_fraction == 1.0

    def test_cheating_shift(self):
        det = _FakeDetector(
            observations=[_obs(i, 20, 10) for i in range(10)]
        )
        summary = summarize_estimation(det)
        assert summary.relative_shift == pytest.approx(0.5)
        assert summary.mean_error == -10.0
        assert summary.rmse == 10.0

    def test_normalized_error(self):
        det = _FakeDetector(observations=[_obs(0, 32, 16)])
        summary = summarize_estimation(det)
        assert summary.mean_normalized_error == pytest.approx(-0.5)


class TestRocSweep:
    def _detector(self, shift, n=60, seed=0):
        import numpy as np

        rng = np.random.default_rng(seed)
        observations = []
        for i in range(n):
            dictated = int(rng.integers(0, 32))
            estimated = max(dictated * shift + rng.normal(0, 2), 0.0)
            observations.append(_obs(i * 100, dictated, estimated))
        return _FakeDetector(observations=observations)

    def test_roc_monotone_in_alpha(self):
        honest = self._detector(1.0, seed=1)
        cheat = self._detector(0.4, seed=2)
        points = roc_sweep(honest, cheat, sample_size=20)
        fars = [p.false_alarm_rate for p in points]
        dets = [p.detection_rate for p in points]
        assert fars == sorted(fars)
        assert dets == sorted(dets)

    def test_cheater_dominates_honest(self):
        honest = self._detector(1.0, seed=3)
        cheat = self._detector(0.4, seed=4)
        points = roc_sweep(honest, cheat, sample_size=20)
        for p in points:
            assert p.detection_rate >= p.false_alarm_rate

    def test_requires_full_windows(self):
        honest = self._detector(1.0, n=5)
        cheat = self._detector(0.5, n=5)
        with pytest.raises(ValueError):
            roc_sweep(honest, cheat, sample_size=20)


class TestWilsonInterval:
    def test_textbook_values(self):
        from repro.analysis import wilson_interval

        low, high = wilson_interval(5, 10)
        assert low == pytest.approx(0.2366, abs=1e-4)
        assert high == pytest.approx(0.7634, abs=1e-4)
        # Zero successes: the upper end is z^2 / (n + z^2).
        z2 = 1.959963984540054 ** 2
        assert wilson_interval(0, 10) == (0.0, pytest.approx(z2 / (10 + z2)))

    def test_all_successes_mirror_zero_successes(self):
        from repro.analysis import wilson_interval

        for n in (1, 7, 40):
            for k in range(n + 1):
                low, high = wilson_interval(k, n)
                mirror_low, mirror_high = wilson_interval(n - k, n)
                assert low == pytest.approx(1.0 - mirror_high)
                assert high == pytest.approx(1.0 - mirror_low)
                assert 0.0 <= low <= k / n <= high <= 1.0
        assert wilson_interval(12, 12)[1] == 1.0

    def test_width_shrinks_with_trials(self):
        from repro.analysis import wilson_interval

        narrow = wilson_interval(100, 1000)
        wide = wilson_interval(10, 100)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_no_trials_and_bad_input(self):
        from repro.analysis import wilson_interval

        assert wilson_interval(0, 0) == (0.0, 1.0)
        with pytest.raises(ValueError):
            wilson_interval(3, 2)
        with pytest.raises(ValueError):
            wilson_interval(-1, 2)
