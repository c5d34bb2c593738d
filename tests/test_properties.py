"""Property-based tests (hypothesis) on core data structures and
invariants: geometry, rank statistics, back-off scheduling, the
verifiable PRS, the observer's interval algebra, and the analytical
model's probability bounds.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.arma import ArmaTrafficEstimator
from repro.core.observation import ChannelViewBase
from repro.core.ranksum import rank_sum_test, wilcoxon_ranks
from repro.core.sysstate import SystemStateEstimator
from repro.geometry.circles import circle_area, circle_intersection_area
from repro.geometry.regions import RegionModel
from repro.mac.backoff import BackoffScheduler
from repro.mac.prng import VerifiableBackoffPrng, contention_window_for_attempt

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestGeometryProperties:
    @given(
        r1=st.floats(min_value=0.1, max_value=1000),
        r2=st.floats(min_value=0.1, max_value=1000),
        d=st.floats(min_value=0, max_value=3000),
    )
    def test_lens_bounded_by_smaller_circle(self, r1, r2, d):
        lens = circle_intersection_area(r1, r2, d)
        assert 0.0 <= lens <= circle_area(min(r1, r2)) + 1e-6

    @given(
        r=st.floats(min_value=1, max_value=1000),
        d1=st.floats(min_value=0, max_value=2000),
        d2=st.floats(min_value=0, max_value=2000),
    )
    def test_lens_monotone_in_distance(self, r, d1, d2):
        lo, hi = sorted((d1, d2))
        assert circle_intersection_area(r, r, lo) >= (
            circle_intersection_area(r, r, hi) - 1e-9
        )

    @given(
        sensing=st.floats(min_value=100, max_value=1000),
        separation=st.floats(min_value=10, max_value=900),
        offset=st.floats(min_value=10, max_value=900),
    )
    def test_region_fractions_are_probabilities(self, sensing, separation, offset):
        model = RegionModel(
            sensing_range=sensing,
            separation=min(separation, 2 * sensing - 1),
            interferer_offset=offset,
        )
        regions = model.regions
        assert 0.0 <= regions.left_exclusive_fraction <= 1.0
        assert 0.0 <= regions.right_exclusive_fraction <= 1.0
        assert regions.left_exclusive_fraction + regions.left_hidden_fraction == (
            1.0
        ) or abs(
            regions.left_exclusive_fraction
            + regions.left_hidden_fraction
            - 1.0
        ) < 1e-9


class TestRankProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=60))
    def test_rank_sum_is_triangular_number(self, values):
        n = len(values)
        assert sum(wilcoxon_ranks(values)) == (
            n * (n + 1) / 2
        ) or math.isclose(sum(wilcoxon_ranks(values)), n * (n + 1) / 2)

    @given(st.lists(finite_floats, min_size=1, max_size=40))
    def test_ranks_within_bounds(self, values):
        ranks = wilcoxon_ranks(values)
        assert all(1.0 <= r <= len(values) for r in ranks)

    @given(
        x=st.lists(finite_floats, min_size=2, max_size=30),
        y=st.lists(finite_floats, min_size=2, max_size=30),
    )
    def test_p_values_valid_and_directional(self, x, y):
        less = rank_sum_test(x, y, "less").p_value
        greater = rank_sum_test(x, y, "greater").p_value
        two = rank_sum_test(x, y, "two-sided").p_value
        for p in (less, greater, two):
            assert 0.0 <= p <= 1.0
        # One-sided p-values overlap: they cannot both be tiny.
        assert less + greater >= 0.99

    @given(
        x=st.lists(st.integers(0, 1000), min_size=3, max_size=20),
        shift=st.integers(1, 500),
    )
    def test_shifting_y_down_lowers_less_p(self, x, shift):
        y_equal = [float(v) + 0.25 for v in x]  # break exact ties
        y_lower = [v - shift for v in y_equal]
        p_equal = rank_sum_test(x, y_equal, "less").p_value
        p_lower = rank_sum_test(x, y_lower, "less").p_value
        assert p_lower <= p_equal + 1e-9


class TestBackoffSchedulerProperties:
    @given(
        initial=st.integers(0, 1023),
        events=st.lists(
            st.tuples(st.integers(1, 300), st.integers(1, 300)), max_size=20
        ),
    )
    def test_counted_slots_conserved(self, initial, events):
        """Across arbitrary freeze/resume interleavings, the total slots
        counted equals the initial draw."""
        scheduler = BackoffScheduler()
        scheduler.start(initial)
        now = 0
        counted = 0
        for idle_gap, count_span in events:
            if scheduler.remaining == 0:
                break
            now += idle_gap
            scheduler.resume(now)
            span = min(count_span, scheduler.remaining)
            now += span
            before = scheduler.remaining
            scheduler.freeze(now)
            counted += before - scheduler.remaining
        if scheduler.remaining and scheduler.remaining > 0:
            counted += scheduler.remaining
        assert counted == initial

    @given(initial=st.integers(0, 1023), anchor=st.integers(0, 10_000))
    def test_completion_slot_arithmetic(self, initial, anchor):
        s = BackoffScheduler()
        s.start(initial)
        assert s.resume(anchor) == anchor + initial


class TestPrngProperties:
    @given(
        address=st.integers(0, 2**48 - 1),
        offset=st.integers(0, 100_000),
        attempt=st.integers(1, 7),
    )
    def test_backoff_in_window(self, address, offset, attempt):
        prng = VerifiableBackoffPrng(address)
        window = contention_window_for_attempt(attempt, 31, 1023)
        assert 0 <= prng.dictated_backoff(offset, attempt) <= window

    @given(address=st.integers(0, 2**48 - 1), offset=st.integers(0, 10_000))
    def test_monitor_agreement(self, address, offset):
        assert VerifiableBackoffPrng(address).dictated_backoff(offset, 1) == (
            VerifiableBackoffPrng(address).dictated_backoff(offset, 1)
        )


class TestObserverProperties:
    @given(
        intervals=st.lists(
            st.tuples(st.integers(0, 2000), st.integers(1, 100)), max_size=30
        ),
        query=st.tuples(st.integers(0, 2100), st.integers(0, 200)),
    )
    def test_busy_plus_idle_equals_span(self, intervals, query):
        obs = ChannelViewBase()
        for start, length in intervals:
            obs._add_busy_interval(start, start + length)
        q_start, q_len = query
        idle, busy = obs.idle_busy_counts(q_start, q_start + q_len)
        assert idle + busy == q_len
        assert busy <= q_len
        assert obs.busy_slots_in(q_start, q_start + q_len) == busy

    @given(
        intervals=st.lists(
            st.tuples(st.integers(0, 2000), st.integers(1, 100)), max_size=30
        )
    )
    def test_merged_intervals_disjoint_sorted(self, intervals):
        obs = ChannelViewBase()
        for start, length in intervals:
            obs._add_busy_interval(start, start + length)
        starts, ends = obs._busy_starts, obs._busy_ends
        for i in range(len(starts)):
            assert starts[i] < ends[i]
            if i:
                assert starts[i] > ends[i - 1]

    @given(
        intervals=st.lists(
            st.tuples(st.integers(0, 500), st.integers(1, 50)), max_size=15
        )
    )
    def test_busy_count_matches_bruteforce(self, intervals):
        obs = ChannelViewBase()
        covered = set()
        for start, length in intervals:
            obs._add_busy_interval(start, start + length)
            covered.update(range(start, start + length))
        assert obs.busy_slots_in(0, 600) == len([s for s in covered if s < 600])


class TestAnalyticalModelProperties:
    @given(
        rho=st.floats(min_value=0, max_value=1),
        n=st.floats(min_value=0, max_value=50),
        k=st.floats(min_value=0, max_value=50),
    )
    def test_probabilities_always_valid(self, rho, n, k):
        probs = SystemStateEstimator().probabilities(rho, n, k)
        assert 0.0 <= probs.p_busy_given_idle <= 1.0
        assert 0.0 <= probs.p_idle_given_busy <= 1.0
        assert math.isclose(
            probs.p_idle_given_idle, 1.0 - probs.p_busy_given_idle
        )

    @given(
        idle=st.integers(0, 10_000),
        busy=st.integers(0, 10_000),
        rho=st.floats(min_value=0, max_value=1),
    )
    def test_estimates_within_interval(self, idle, busy, rho):
        i_est, b_est = SystemStateEstimator().estimate_sender_slots(
            idle, busy, rho, 5, 5
        )
        total = idle + busy
        assert 0.0 <= i_est <= total
        assert 0.0 <= b_est <= total
        assert math.isclose(i_est + b_est, total)


class TestArmaProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=200))
    def test_estimate_bounded_by_input_range(self, samples):
        est = ArmaTrafficEstimator(alpha=0.9)
        for s in samples:
            est.update(s)
        assert min(samples) - 1e-9 <= est.estimate <= max(samples) + 1e-9

    @given(
        chunks=st.lists(
            st.tuples(st.integers(0, 100), st.integers(0, 100)), max_size=100
        )
    )
    def test_ingest_never_crashes_or_escapes_bounds(self, chunks):
        est = ArmaTrafficEstimator(sample_interval_slots=50)
        for busy, extra in chunks:
            est.ingest(busy, busy + extra)
            assert 0.0 <= est.estimate <= 1.0
