"""fork_map: worker errors propagate; only setup failures fall back serially."""

import threading

import pytest

from repro.util.pool import WorkerItemError, fork_map


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
