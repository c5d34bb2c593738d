"""Deterministic fork-based process-pool mapping (the pool substrate).

This is the layer-0 core of the repo's parallelism story: a single
``fork_map`` primitive that maps a function over a work list with a
``fork`` process pool while keeping every observable output *identical*
to the serial loop:

* results come back in item order, regardless of completion order;
* the worker count never feeds into the work items themselves, so a
  caller whose items are pure functions of their inputs gets
  byte-identical results for any ``jobs`` value;
* whenever the parallel path cannot be set up faithfully — one job, one
  item, no ``fork`` start method, unpicklable items or results, or a
  nested call from inside a worker — execution silently falls back to a
  serial loop, which is always correct, just slower;
* an exception raised *by the work function* is never mistaken for a
  setup failure: the parent re-raises it (the first failing item in
  item order) with a :class:`WorkerItemError` cause naming the item
  index and carrying the worker-side traceback.

Higher layers build policy on top of this mechanism:
:mod:`repro.experiments.parallel` adds per-trial metrics-snapshot
merging for experiment sweeps, and :mod:`repro.sim.partition` uses it to
prewarm per-tile sensing adjacency at mobility epochs.  Keeping the
substrate in ``util`` (rank 0 in the layering DAG) lets both of those —
one above and one below ``experiments`` — share the same machinery.

Worker-count resolution (first match wins): the ``jobs=`` argument,
:func:`set_default_jobs` (the CLI's ``--jobs`` flag), the ``REPRO_JOBS``
environment variable, else 1 (serial).  A value of 0 means "all CPU
cores".

The function handed to ``fork_map`` is *inherited by the forked
workers* rather than pickled, so closures and locally-composed wrappers
work; only the items and the results cross the process boundary and
must pickle.  Callers that need different parent-side behaviour on the
serial path (e.g. not resetting a metrics registry that workers reset
freely in their forked copies) pass ``serial_fn``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import os
import pickle
import traceback
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: Environment variable holding the default worker count.
JOBS_ENV = "REPRO_JOBS"

_default_jobs: Optional[int] = None

#: The work function of the in-flight pool, inherited by forked workers
#: (set immediately before the fork, cleared after).  Doubles as a
#: re-entrancy latch: a work item that itself calls ``fork_map`` —
#: including inside a worker, where pools cannot nest — runs serially.
_WORK_FN: Optional[Callable[[Any], Any]] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Install a process-wide default worker count (the ``--jobs`` flag).

    ``None`` clears the default, falling back to ``REPRO_JOBS``.
    """
    global _default_jobs
    _default_jobs = None if jobs is None else int(jobs)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count: argument, default, env var, or 1.

    0 (from any source) means "all CPU cores"; the result is always
    >= 1.
    """
    if jobs is None:
        jobs = _default_jobs
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError as exc:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {raw!r}"
                ) from exc
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(jobs, 1)


def pool_active() -> bool:
    """True inside a ``fork_map`` worker (or while a pool is being set up).

    Callers can use this to skip work that is redundant in a forked
    child, but ``fork_map`` itself already degrades to serial when
    nested, so most code never needs to check.
    """
    return _WORK_FN is not None


class WorkerItemError(Exception):
    """The cause attached to an exception a work item raised in a worker.

    ``index`` is the item's position in the ``fork_map`` input; the
    message carries the worker-side traceback.
    """

    def __init__(self, index: int, remote_traceback: str) -> None:
        super().__init__(
            f"fork_map item {index} raised in a worker:\n{remote_traceback}"
        )
        self.index = index


def _invoke(task: Tuple[int, Any]) -> Tuple[bool, Any]:
    """Worker-side trampoline: run the fork-inherited function.

    Returns ``(True, result)``, or ``(False, (index, exception,
    traceback text))`` when the function raised — as a value, so that
    an error inside the work function can never surface from
    ``pool.map`` looking like a pickling or fork failure.
    """
    fn = _WORK_FN
    assert fn is not None, "_invoke outside a fork_map pool"
    index, item = task
    try:
        return True, fn(item)
    except Exception as exc:
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return False, (index, exc, traceback.format_exc())


def fork_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
    serial_fn: Optional[Callable[[Any], Any]] = None,
) -> List[Any]:
    """``[fn(item) for item in items]``, possibly across forked processes.

    ``fn`` runs in the workers (inherited through ``fork``, so it need
    not pickle — items and results must).  ``serial_fn`` (default:
    ``fn``) runs in the parent whenever the serial path is taken; pass a
    distinct function when worker-side ``fn`` performs process-local
    setup that must not happen in the parent.  Both must compute the
    same results for the output to be path-independent.  The returned
    list is in item order.  If ``fn`` raises in a worker, the exception
    propagates with a :class:`WorkerItemError` cause; the map is not
    re-run serially.
    """
    global _WORK_FN
    if serial_fn is None:
        serial_fn = fn
    items = list(items)
    jobs = min(resolve_jobs(jobs), len(items))
    if jobs <= 1 or _WORK_FN is not None:
        return [serial_fn(item) for item in items]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork (Windows): stay correct
        return [serial_fn(item) for item in items]
    _WORK_FN = fn
    try:
        with ctx.Pool(processes=jobs) as pool:
            # chunksize=1: item costs are uneven (detection trials stop
            # on a sample-count condition; boundary tiles are denser
            # than interior ones), so fine-grained dispatch keeps the
            # pool busy.
            outcomes = pool.map(_invoke, list(enumerate(items)), chunksize=1)
    except (
        pickle.PicklingError,            # unpicklable work item
        multiprocessing.pool.MaybeEncodingError,  # unpicklable result
        AttributeError,                  # unpicklable work item (local object)
        TypeError,                       # unpicklable work item (e.g. a lock)
        OSError,                         # fork/pipe failure
    ):
        # ``_invoke`` returns errors raised by ``fn`` as values, so
        # whatever reaches here failed in the pool machinery.  Work
        # items are pure, so re-running serially is safe.
        return [serial_fn(item) for item in items]
    finally:
        _WORK_FN = None
    for ok, value in outcomes:
        if not ok:
            index, exc, remote_traceback = value
            raise exc from WorkerItemError(index, remote_traceback)
    return [value for _ok, value in outcomes]
