"""Equivalence tests for vectorized rank-sum evaluation (repro.core.batch).

The contract under test is *bit-identity*: every rank-sum statistic
and p-value :func:`rank_sum_many` produces, and every verdict, audit
and provenance record a :class:`BatchScheduler` publishes, must equal
the eager scalar reference exactly (``==`` on floats, not approx),
because the golden-fingerprint suites hash reprs of everything
downstream.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.core.batch import rank_sum_many
from repro.core.observatory import BatchScheduler, SharedChannelObservatory
from repro.core.ranksum import ALTERNATIVES, rank_sum_test

# Samples that provoke every rank-sum regime: coarse integers force
# heavy ties (normal path), continuous floats stay tie-free (exact path
# for small windows), and tiny windows hit the degenerate-variance and
# all-identical corners.
tied_values = st.integers(min_value=0, max_value=6).map(float)
continuous_values = st.floats(
    min_value=-32.0, max_value=32.0, allow_nan=False, allow_infinity=False
)
sample_values = st.one_of(tied_values, continuous_values)
sample = st.lists(sample_values, min_size=1, max_size=30)


class TestRankSumManyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        windows=st.lists(st.tuples(sample, sample), min_size=1, max_size=8),
        alternative=st.sampled_from(ALTERNATIVES),
    )
    def test_bit_identical_to_scalar(self, windows, alternative):
        xs = [w[0] for w in windows]
        ys = [w[1] for w in windows]
        batched = rank_sum_many(xs, ys, alternative)
        for x, y, ours in zip(xs, ys, batched):
            scalar = rank_sum_test(x, y, alternative)
            assert ours == scalar  # dataclass equality: every field, exact

    @settings(max_examples=30, deadline=None)
    @given(x=sample, y=sample, alternative=st.sampled_from(ALTERNATIVES))
    def test_fields_are_plain_python_types(self, x, y, alternative):
        # np.float64 leaking into RankSumResult would poison downstream
        # verdict reprs (numpy 2.x reprs as "np.float64(...)"), which the
        # fingerprint suites hash.
        result = rank_sum_many([x], [y], alternative)[0]
        assert type(result.statistic) is float
        assert type(result.u_statistic) is float
        assert type(result.p_value) is float
        assert type(result.n_x) is int and type(result.n_y) is int

    def test_all_identical_samples(self):
        for alternative in ALTERNATIVES:
            batched = rank_sum_many([[3.0] * 8], [[3.0] * 5], alternative)[0]
            assert batched == rank_sum_test([3.0] * 8, [3.0] * 5, alternative)
            assert batched.p_value == 1.0
            assert batched.method == "normal"

    def test_mixed_methods_in_one_batch(self):
        xs = [[1.0, 2.5, 4.0], [1.0, 1.0, 2.0], list(range(30))]
        ys = [[0.5, 3.0], [1.0, 3.0], [v + 0.25 for v in range(30)]]
        results = rank_sum_many(xs, ys, "less")
        assert [r.method for r in results] == ["exact", "normal", "normal"]
        for x, y, ours in zip(xs, ys, results):
            assert ours == rank_sum_test(x, y, "less")

    @pytest.mark.parametrize("alternative", ALTERNATIVES)
    def test_cross_checked_against_scipy(self, alternative):
        rng = np.random.default_rng(13)
        xs, ys = [], []
        for _ in range(12):
            xs.append(rng.normal(0, 1, size=int(rng.integers(8, 40))).tolist())
            ys.append(rng.normal(0.3, 1, size=int(rng.integers(8, 40))).tolist())
        for x, y, ours in zip(xs, ys, rank_sum_many(xs, ys, alternative)):
            method = "exact" if ours.method == "exact" else "asymptotic"
            theirs = scipy_stats.mannwhitneyu(
                y, x, alternative=alternative, method=method
            )
            rel = 1e-9 if method == "exact" else 1e-3
            assert ours.p_value == pytest.approx(theirs.pvalue, rel=rel, abs=1e-6)
            assert ours.u_statistic == pytest.approx(theirs.statistic)

    def test_empty_batch_and_validation(self):
        assert rank_sum_many([], [], "less") == []
        with pytest.raises(ValueError):
            rank_sum_many([[1.0]], [[1.0]], "sideways")
        with pytest.raises(ValueError):
            rank_sum_many([[1.0], []], [[1.0], [2.0]], "less")
        with pytest.raises(ValueError):
            rank_sum_many([[1.0]], [[1.0], [2.0]], "less")


class _FlushingObservatory(SharedChannelObservatory):
    """An observatory whose detectors defer windows to one scheduler,
    flushed every ``every``-th end event (a coarse cadence, as serve
    runs)."""

    def __init__(self, every):
        super().__init__()
        self.scheduler = BatchScheduler()
        self._every = every
        self._ends = 0
        #: windows ranked by the scheduler's flushes so far
        self.flushed = 0

    def attach(self, *args, **kwargs):
        detector = super().attach(*args, **kwargs)
        detector._batch_scheduler = self.scheduler
        return detector

    def ingest_end(self, *args, **kwargs):
        super().ingest_end(*args, **kwargs)
        self._ends += 1
        if self._ends % self._every == 0:
            self.flush()

    def flush(self):
        self.flushed += len(self.scheduler)
        self.scheduler.flush()


class TestObservatoryBackendEquivalence:
    """Full-run stream identity between eager and deferred evaluation.

    The golden suite pins the eager path against committed hashes; this
    test compares it *directly* against :class:`BatchScheduler`
    deferral on one dense run — including provenance records, which the
    goldens do not hash — with a short warmup so rank-sum windows flow
    through the scheduler's defer/reserve/fill path.
    """

    def _run(self, flush_every):
        import dataclasses
        import itertools
        import json

        from repro.core.detector import DetectorConfig, reset_region_cache
        from repro.experiments.scenarios import MultiMonitorGridScenario
        from repro.mac.misbehavior import PercentageMisbehavior
        from repro.obs.audit import DecisionAuditLog
        from repro.obs.provenance import ProvenanceLog
        from repro.traffic import queue as traffic_queue

        traffic_queue._packet_ids = itertools.count()
        reset_region_cache()
        config = dataclasses.replace(
            DetectorConfig(sample_size=25, known_n=5, known_k=5),
            warmup_slots=10_000,
        )
        scenario = MultiMonitorGridScenario(seed=7)
        taggeds = scenario.tagged_nodes()
        policies = {
            taggeds[0]: PercentageMisbehavior(60),
            taggeds[2]: PercentageMisbehavior(75),
        }
        sim, pairs = scenario.build(policies=policies)
        audit = DecisionAuditLog()
        provenance = ProvenanceLog()
        if flush_every is None:
            observatory = SharedChannelObservatory()
        else:
            observatory = _FlushingObservatory(flush_every)
        sim.add_listener(observatory)
        detectors = [
            observatory.attach(
                monitor,
                tagged,
                config=config,
                separation=scenario.separation,
                audit=audit,
                provenance=provenance,
            )
            for monitor, tagged in pairs
        ]
        sim.run(2.0)
        if flush_every is not None:
            observatory.flush()
            # The run must actually exercise the deferred rank-sum path.
            assert observatory.flushed > 0
        streams = {
            "observations": [
                repr(o) for d in detectors for o in d.observations
            ],
            "verdicts": [repr(v) for d in detectors for v in d.verdicts],
            "audit": [
                json.dumps(r.to_dict(), sort_keys=True)
                for r in audit.records
            ],
            "provenance": provenance.to_jsonl(),
        }
        rules = audit.counts_by_rule()
        return streams, rules

    def test_streams_byte_identical(self):
        eager, eager_rules = self._run(None)
        deferred, deferred_rules = self._run(flush_every=5)
        assert eager_rules.get("rank_sum", 0) > 0
        assert eager_rules == deferred_rules
        assert eager == deferred
