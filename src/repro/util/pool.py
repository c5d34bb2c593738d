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
  index and carrying the worker-side traceback;
* a worker that dies (killed by a signal, ``os._exit``) fails the map
  at once with a :class:`WorkerDiedError` naming the item it held —
  never a hang, never a serial re-run.

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
import multiprocessing.connection
import os
import pickle
import traceback
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

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


class WorkerDiedError(RuntimeError):
    """A worker process died; ``index`` is the item it held.

    ``index`` is None when the worker died idle, between items: it is
    seen when the next item cannot be sent, and that item never left
    the parent.
    """

    def __init__(self, index: Optional[int], exitcode: Optional[int]) -> None:
        where = "while idle" if index is None else f"while running item {index}"
        super().__init__(f"fork_map worker died (exit code {exitcode}) {where}")
        self.index = index
        self.exitcode = exitcode


class _SetupFailure(Exception):
    """The pool machinery failed (fork, pipe, or pickling); go serial."""


#: What a worker sends back when its result does not pickle.
_UNPICKLABLE_RESULT = (None, None)


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
        try:  # the parent must be able to rebuild it, not just receive it
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return False, (index, exc, traceback.format_exc())


def _raise_died(process: Any, index: Optional[int]) -> NoReturn:
    process.join()
    raise WorkerDiedError(index, process.exitcode)


def _serve(conn: Any) -> None:
    """Worker loop: run each ``(index, item)`` task until a ``None``."""
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            outcome = _invoke(task)
            try:
                payload = ForkingPickler.dumps(outcome)
            except Exception:
                payload = ForkingPickler.dumps(_UNPICKLABLE_RESULT)
            conn.send_bytes(payload)
    except (EOFError, OSError):
        return  # the parent is gone or tearing the pool down


def _parallel_map(items: List[Any], jobs: int) -> List[Tuple[bool, Any]]:
    """Every item's ``_invoke`` outcome, from ``jobs`` forked workers.

    One task per idle worker at a time (item costs are uneven: detection
    trials stop on a sample-count condition, boundary tiles are denser
    than interior ones).  The parent waits on every busy worker's pipe
    *and* process sentinel, so a dead worker is seen at once.
    """
    ctx = multiprocessing.get_context("fork")
    workers: Dict[Any, Any] = {}  # parent pipe end -> process
    try:
        for _ in range(jobs):
            try:
                conn, child_conn = ctx.Pipe()
            except OSError as exc:
                raise _SetupFailure from exc
            process = ctx.Process(target=_serve, args=(child_conn,), daemon=True)
            workers[conn] = process
            try:
                process.start()
            except OSError as exc:  # fork failure
                raise _SetupFailure from exc
            finally:
                child_conn.close()
        outcomes: List[Any] = [None] * len(items)
        held: Dict[Any, int] = {}  # busy pipe end -> item index
        idle = list(workers)
        next_index = done = 0
        while done < len(items):
            while idle and next_index < len(items):
                conn = idle.pop()
                held[conn] = next_index
                try:
                    conn.send((next_index, items[next_index]))
                except (pickle.PicklingError, AttributeError, TypeError) as exc:
                    raise _SetupFailure from exc  # unpicklable work item
                except OSError:  # died idle; this item was never sent
                    _raise_died(workers[conn], None)
                next_index += 1
            sentinels = {workers[conn].sentinel: conn for conn in held}
            for ready in multiprocessing.connection.wait([*held, *sentinels]):
                conn = sentinels.get(ready, ready)
                if conn not in held:  # its pipe and sentinel both fired
                    continue
                try:
                    payload = conn.recv_bytes()
                except (EOFError, OSError):
                    _raise_died(workers[conn], held[conn])
                try:
                    outcome = ForkingPickler.loads(payload)
                except Exception as exc:  # a result that does not unpickle
                    raise _SetupFailure from exc
                if outcome[0] is None:
                    raise _SetupFailure("unpicklable result")
                outcomes[held.pop(conn)] = outcome
                idle.append(conn)
                done += 1
        return outcomes
    finally:
        for conn, process in workers.items():
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
            if process.pid is None:  # never started
                continue
            process.join(timeout=1.0)
            if process.exitcode is None:
                process.terminate()
                process.join()


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
    propagates with a :class:`WorkerItemError` cause; if a worker dies,
    :class:`WorkerDiedError` names its item.  Neither re-runs the map
    serially.
    """
    global _WORK_FN
    if serial_fn is None:
        serial_fn = fn
    items = list(items)
    jobs = min(resolve_jobs(jobs), len(items))
    if jobs <= 1 or _WORK_FN is not None:
        return [serial_fn(item) for item in items]
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # platform without fork (Windows): stay correct
        return [serial_fn(item) for item in items]
    _WORK_FN = fn
    try:
        outcomes = _parallel_map(items, jobs)
    except _SetupFailure:
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
