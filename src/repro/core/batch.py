"""Vectorized Wilcoxon rank-sum evaluation for many windows at once.

The scalar :func:`~repro.core.ranksum.rank_sum_test` ranks one
(monitor, tagged) window per call.  A streaming session
(:mod:`repro.serve`) collects hundreds of ready windows per flush; its
:class:`~repro.core.observatory.BatchScheduler` evaluates them with
:func:`rank_sum_many` in one numpy pass per alternative — padded 2-D
sample matrices, stable argsort ranking with vectorized tie grouping,
and a normal approximation whose arithmetic mirrors the scalar test
operation-for-operation, so p-values and statistics are bit-identical
(pinned by ``tests/test_batch.py`` and the serve equivalence suite).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.core.ranksum import (
    ALTERNATIVES,
    EXACT_LIMIT,
    RankSumResult,
    _exact_p,
)

_SQRT2 = math.sqrt(2.0)


def _phi(z: float) -> float:
    """Standard normal CDF, exactly as the scalar ``_normal_p`` computes it."""
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def rank_sum_many(
    xs: Sequence[Sequence[float]],
    ys: Sequence[Sequence[float]],
    alternative: str = "two-sided",
) -> List[RankSumResult]:
    """Batched Wilcoxon rank-sum tests, bit-identical to the scalar path.

    ``xs[i]``/``ys[i]`` are the i-th window's dictated/estimated
    samples; windows may have different lengths (rows are padded with
    ``+inf``, which sorts past every finite sample and never joins a
    finite tie group).  Returns one
    :class:`~repro.core.ranksum.RankSumResult` per window whose every
    field equals ``rank_sum_test(xs[i], ys[i], alternative)`` exactly:

    * ranks are half-integers, so rank sums are exact in float64 in any
      summation order;
    * the tie correction's ``sum(t**3 - t)`` is integer arithmetic;
    * the normal approximation repeats the scalar operation order
      elementwise (IEEE-correctly-rounded ops on identical inputs), and
      ``math.erf`` is applied per element;
    * tie-free small windows fall back to the shared memoized exact-null
      tables of :mod:`repro.core.ranksum`.
    """
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}")
    if len(xs) != len(ys):
        raise ValueError("rank_sum_many requires as many x rows as y rows")
    batch = len(xs)
    if batch == 0:
        return []
    n_x = np.array([len(x) for x in xs], dtype=np.int64)
    n_y = np.array([len(y) for y in ys], dtype=np.int64)
    if not (n_x.min() and n_y.min()):
        raise ValueError("rank_sum_test requires two non-empty samples")
    n_total = n_x + n_y
    width = int(n_total.max())

    # Fill the padded sample matrix with two boolean-mask assignments:
    # C-order mask filling enumerates (row, ascending column) exactly
    # like concatenating the rows, so a flat value list drops into
    # place without a per-row python loop.
    index = np.arange(width, dtype=np.int64)
    in_x = index[np.newaxis, :] < n_x[:, np.newaxis]
    in_row = index[np.newaxis, :] < n_total[:, np.newaxis]
    combined = np.full((batch, width), np.inf, dtype=np.float64)
    combined[in_x] = [v for row in xs for v in row]
    combined[in_row & ~in_x] = [v for row in ys for v in row]

    # Average ranks with ties, vectorized: stable argsort (the scalar
    # sort is stable too, so tie groups enumerate identically), then
    # every sorted position learns its tie group's [first, last] bounds
    # via running max/min scans, giving mean rank (first+last)/2 + 1.
    order = np.argsort(combined, axis=1, kind="stable")
    svals = np.take_along_axis(combined, order, axis=1)
    first_of_group = np.ones((batch, width), dtype=bool)
    np.not_equal(svals[:, 1:], svals[:, :-1], out=first_of_group[:, 1:])
    group_first = np.maximum.accumulate(
        np.where(first_of_group, index, -1), axis=1
    )
    last_of_group = np.empty((batch, width), dtype=bool)
    last_of_group[:, -1] = True
    last_of_group[:, :-1] = first_of_group[:, 1:]
    group_last = np.minimum.accumulate(
        np.where(last_of_group, index, width)[:, ::-1], axis=1
    )[:, ::-1]
    mean_rank = (group_first + group_last) / 2.0 + 1.0
    ranks = np.empty_like(combined)
    np.put_along_axis(ranks, order, mean_rank, axis=1)

    w_y = np.where(in_row & ~in_x, ranks, 0.0).sum(axis=1)
    u_y = w_y - (n_y * (n_y + 1)) / 2.0

    # Tie group sizes live on the sorted axis; only groups of real
    # samples count (the +inf padding forms its own group past n_total).
    sizes = group_last - group_first + 1
    real_group = first_of_group & in_row
    tie_term = np.where(real_group, sizes**3 - sizes, 0).sum(axis=1)
    has_ties = tie_term > 0

    exact_rows = ~has_ties & (n_total <= EXACT_LIMIT)
    # Normal approximation, mirroring _normal_p's operation order.
    nt_float = n_total.astype(np.float64)
    mean = (n_y * (n_total + 1)) / 2.0
    variance = (n_x * n_y * (n_total + 1)) / 12.0
    correction = (n_x * n_y * tie_term) / (12.0 * nt_float * (nt_float - 1.0))
    variance = variance - correction
    degenerate = variance <= 0
    sd = np.sqrt(np.where(degenerate, 1.0, variance))
    if alternative == "less":
        args = (w_y - mean + 0.5) / sd
    elif alternative == "greater":
        args = (w_y - mean - 0.5) / sd
    else:
        z = (w_y - mean) / sd
        args = np.abs(z) - 0.5 / sd

    results: List[RankSumResult] = []
    arg_list = args.tolist()
    for i in range(batch):
        ny_i = int(n_y[i])
        nt_i = int(n_total[i])
        wy_i = float(w_y[i])
        if exact_rows[i]:
            p = _exact_p(wy_i, ny_i, nt_i, alternative)
            method = "exact"
        else:
            method = "normal"
            if degenerate[i]:
                p = 1.0
            elif alternative == "less":
                p = _phi(arg_list[i])
            elif alternative == "greater":
                p = 1.0 - _phi(arg_list[i])
            else:
                p = min(1.0, 2.0 * (1.0 - _phi(arg_list[i])))
        results.append(
            RankSumResult(
                statistic=wy_i,
                u_statistic=float(u_y[i]),
                p_value=min(max(p, 0.0), 1.0),
                alternative=alternative,
                method=method,
                n_x=int(n_x[i]),
                n_y=ny_i,
            )
        )
    return results
