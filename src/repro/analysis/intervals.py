"""Confidence intervals for detection and false-alarm rates.

A Fig. 5 or Fig. 6 cell is a binomial proportion: ``hits`` of
``windows`` observation windows diagnosed malicious.  At the trial
counts a benchmark can afford, the point estimate alone says little (0
alarms in 12 windows does not show a rate near the paper's 0.01), so
claims are stated on an interval instead.
"""

from __future__ import annotations

from typing import Tuple

#: two-sided 95% standard-normal quantile
_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Unlike the normal (Wald) interval it stays inside ``[0, 1]`` and
    keeps a nonzero width at 0 or ``trials`` successes, which is where
    detection cells at small trial counts sit.  ``trials == 0`` carries
    no information and returns ``(0.0, 1.0)``.
    """
    if trials < 0 or not 0 <= successes <= max(trials, 0):
        raise ValueError(
            f"need 0 <= successes <= trials, got {successes} of {trials}"
        )
    if trials == 0:
        return 0.0, 1.0
    z = _Z95
    z2 = z * z
    p = successes / trials
    denominator = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denominator
    half = z * ((p * (1.0 - p) + z2 / (4.0 * trials)) / trials) ** 0.5 / denominator
    # Clamp the ends that are exact in theory (0 or all successes)
    # against rounding.
    low = 0.0 if successes == 0 else max(center - half, 0.0)
    high = 1.0 if successes == trials else min(center + half, 1.0)
    return low, high
