"""fork_map: worker errors and deaths propagate; only setup failures fall
back serially."""

import os
import signal
import threading
import time

import pytest

from repro.util.pool import WorkerDiedError, WorkerItemError, fork_map


def _square(item):
    return item * item


def _raise_on_three(error_type):
    def fn(item):
        if item == 3:
            raise error_type(f"bad item {item}")
        return item

    return fn


def _serial_recorder(calls):
    def serial_fn(item):
        calls.append(item)
        return item * item

    return serial_fn


@pytest.mark.parametrize("error_type", [TypeError, AttributeError, ValueError])
def test_error_inside_fn_propagates_with_index(error_type):
    calls = []
    with pytest.raises(error_type, match="bad item 3") as excinfo:
        fork_map(
            _raise_on_three(error_type),
            list(range(6)),
            jobs=2,
            serial_fn=_serial_recorder(calls),
        )
    cause = excinfo.value.__cause__
    assert isinstance(cause, WorkerItemError)
    assert cause.index == 3
    assert "bad item 3" in str(cause)  # the worker-side traceback
    assert calls == []  # never silently re-run in the parent


def test_unpicklable_error_still_propagates():
    def fn(item):
        if item == 2:
            error = RuntimeError("holds a lock")
            error.lock = threading.Lock()
            raise error
        return item

    calls = []
    with pytest.raises(RuntimeError, match="holds a lock") as excinfo:
        fork_map(fn, list(range(4)), jobs=2, serial_fn=_serial_recorder(calls))
    assert excinfo.value.__cause__.index == 2
    assert calls == []


class _TwoArgError(Exception):
    """Pickles, but its pickle cannot rebuild it (two required args)."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def test_error_that_does_not_unpickle_still_propagates_with_index():
    def fn(item):
        if item == 3:
            raise _TwoArgError(7, f"bad item {item}")
        return item

    calls = []
    with pytest.raises(RuntimeError, match="_TwoArgError: 7: bad item 3") as excinfo:
        fork_map(fn, list(range(6)), jobs=2, serial_fn=_serial_recorder(calls))
    assert excinfo.value.__cause__.index == 3
    assert calls == []


def _refuse_to_rebuild():
    raise ValueError("cannot rebuild")


class _Unloadable:
    """Pickles, but raises when unpickled."""

    def __reduce__(self):
        return (_refuse_to_rebuild, ())


def test_result_that_does_not_unpickle_falls_back_to_serial():
    calls = []
    result = fork_map(
        lambda item: _Unloadable(),
        [1, 2, 3],
        jobs=2,
        serial_fn=_serial_recorder(calls),
    )
    assert result == [1, 4, 9]
    assert calls == [1, 2, 3]


def test_unpicklable_item_falls_back_to_serial():
    calls = []
    items = [1, 2, threading.Lock()]
    result = fork_map(
        lambda item: 0, items, jobs=2, serial_fn=lambda item: calls.append(item)
    )
    assert result == [None, None, None]
    assert calls == items


def test_unpicklable_result_falls_back_to_serial():
    calls = []
    result = fork_map(
        lambda item: threading.Lock(),
        [1, 2, 3],
        jobs=2,
        serial_fn=_serial_recorder(calls),
    )
    assert result == [1, 4, 9]
    assert calls == [1, 2, 3]


def test_parallel_results_match_serial_in_item_order():
    items = list(range(9))
    assert fork_map(_square, items, jobs=2) == [_square(i) for i in items]


def _sigkill_on_three(item):
    if item == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def _alarm(signum, frame):
    raise TimeoutError("fork_map hung on a dead worker")


def test_dead_worker_fails_fast_with_its_index():
    calls = []
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(30)
    try:
        with pytest.raises(WorkerDiedError) as excinfo:
            fork_map(
                _sigkill_on_three,
                list(range(8)),
                jobs=2,
                serial_fn=_serial_recorder(calls),
            )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert excinfo.value.index == 3
    assert excinfo.value.exitcode == -signal.SIGKILL
    assert "item 3" in str(excinfo.value)
    assert calls == []  # never silently re-run in the parent


def _sigkill_soon_after_returning(item):
    threading.Timer(0.05, os.kill, (os.getpid(), signal.SIGKILL)).start()
    return item


class _SlowToPickle(int):
    """Takes a second to pickle in the parent, so an idle worker dies first."""

    def __reduce__(self):
        time.sleep(1.0)
        return (int, (int(self),))


def test_worker_that_dies_idle_is_not_blamed_for_the_next_item():
    calls = []
    items = [0, 1, *map(_SlowToPickle, range(2, 6))]
    with pytest.raises(WorkerDiedError, match="while idle") as excinfo:
        fork_map(
            _sigkill_soon_after_returning,
            items,
            jobs=2,
            serial_fn=_serial_recorder(calls),
        )
    assert excinfo.value.index is None
    assert "item" not in str(excinfo.value)
    assert calls == []
