"""The traced pass: spans and counters around the program's layer calls.

A :class:`Tracer` records spans (name, start, end, parent) in memory;
all spans of one repetition share its trace id.  A :class:`Patcher`
wraps functions looked up by dotted name and restores them afterwards;
a name that no longer exists is reported absent instead of failing, so
the pass survives refactors that move or delete a wrapped function.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int]


class Tracer:
    """In-memory span store plus named counters for one repetition."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: List[int] = []
        self.counts: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span named ``name``."""
        name_id = self.name_id(name)
        tracer_open, tracer_close = self.open, self.close

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer_open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer_close(index)

        return traced

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a call counter (no clock reads)."""
        counts = self.counts
        counts.setdefault(name, 0)

        def tallied(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return tallied

    def spans(self) -> List[Span]:
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)
        ]

    def to_json(self) -> Dict[str, object]:
        """Column form: one entry per span, names by index."""
        return {
            "trace_id": self.trace_id,
            "names": self.names,
            "name": list(self.name_ids),
            "start": list(self.starts),
            "end": list(self.ends),
            "parent": list(self.parents),
        }


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def summarize(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """Span name -> (calls, total self seconds)."""
    totals: Dict[str, Tuple[int, float]] = {}
    for (name, _s, _e, _p), own in zip(spans, self_times(spans)):
        calls, seconds = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, seconds + own)
    return totals


def resolve(path: str) -> Tuple[Optional[Any], str, Optional[Any]]:
    """``"pkg.module:Owner.attr"`` -> (owner, attr, current value or None)."""
    module_name, _, dotted = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None, "", None
    *parents, attr = dotted.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    return owner, attr, getattr(owner, attr, None)


class Patcher:
    """Swap attributes for wrappers; :meth:`restore` undoes every swap."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []
        self.absent: List[str] = []

    def wrap(
        self, path: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]
    ) -> bool:
        """Replace ``path`` by ``make(original)``; False if it is absent.

        A module-level function is also replaced in every ``repro``
        module that imported it by name, so callers holding their own
        reference see the wrapper too.
        """
        owner, attr, original = resolve(path)
        if owner is None or not callable(original):
            self.absent.append(path)
            return False
        wrapper = make(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return True
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)
        return True

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, previous, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)


def write_traces(path: str, tracers: Sequence[Tracer]) -> None:
    """Write every repetition's spans, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            handle.write(json.dumps(tracer.to_json(), separators=(",", ":")))
            handle.write("\n")
