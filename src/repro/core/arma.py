"""Online traffic-intensity estimation: the ARMA filter of paper eq. 6.

    rho(t+1) = alpha * rho(t) + (1 - alpha) * (1/s) * sum_{i=1..s} b_i

where ``b_i`` is 1 if the node sensed slot i busy and 0 otherwise, ``s``
is the sample-interval length in slots, and ``alpha = 0.995`` (the paper
takes the value from Bianchi & Tinnirello's run-time estimator and notes
the results are insensitive to alpha as long as it is close to 1).

The observatory's feeds (:class:`repro.core.observatory._ArmaFeed`)
apply it exactly: each interval is a fixed ``s``-slot window of the
monitor's own busy timeline, folded through :meth:`update`.
"""

from __future__ import annotations

from typing import Optional

from repro.util.validation import check_in_range, check_positive


class ArmaTrafficEstimator:
    """Smoothed estimate of the local traffic intensity rho.

    Feed it one *sample interval* at a time via :meth:`update` (the mean
    busy fraction of the last ``s`` slots), or let it consume raw slot
    counts with :meth:`ingest`, which buffers until a full interval is
    available.  Until the first full interval the estimate reports the
    running raw mean of what :meth:`ingest` buffered, so early reads are
    sensible rather than zero.
    """

    def __init__(
        self, alpha: float = 0.995, sample_interval_slots: int = 500
    ) -> None:
        self.alpha = check_in_range(alpha, 0.0, 1.0, "alpha")
        self.sample_interval_slots = int(
            check_positive(sample_interval_slots, "sample_interval_slots")
        )
        self._estimate: Optional[float] = None
        self._pending_busy = 0.0
        self._pending_total = 0.0
        self.intervals_consumed = 0

    @property
    def estimate(self) -> float:
        """Current rho estimate in [0, 1] (0.0 before any data)."""
        if self._estimate is not None:
            return self._estimate
        if self._pending_total > 0:
            return self._pending_busy / self._pending_total
        return 0.0

    @property
    def warmed_up(self) -> bool:
        """True once at least one full sample interval was absorbed."""
        return self._estimate is not None

    def update(self, busy_fraction: float) -> float:
        """Absorb one sample interval's mean busy fraction."""
        check_in_range(busy_fraction, 0.0, 1.0, "busy_fraction")
        if self._estimate is None:
            self._estimate = busy_fraction
        else:
            self._estimate = (
                self.alpha * self._estimate + (1.0 - self.alpha) * busy_fraction
            )
        self.intervals_consumed += 1
        return self._estimate

    def ingest(self, busy_slots: int, total_slots: int) -> None:
        """Absorb raw slot counts, applying eq. 6 per full interval."""
        if busy_slots < 0 or total_slots < 0 or busy_slots > total_slots:
            raise ValueError(
                f"invalid slot counts: busy={busy_slots}, total={total_slots}"
            )
        self._pending_busy += busy_slots
        self._pending_total += total_slots
        s = self.sample_interval_slots
        while self._pending_total >= s:
            # Apportion the buffered busy mass to one interval.  Chunk
            # totals do not say where inside a chunk the busy slots
            # fell, so the split is proportional (it preserves the
            # mean); a caller holding the slot timeline folds exact
            # intervals through update() instead.
            fraction = self._pending_busy / self._pending_total
            take_busy = fraction * s
            self.update(min(max(take_busy / s, 0.0), 1.0))
            self._pending_total -= s
            self._pending_busy = max(self._pending_busy - take_busy, 0.0)
