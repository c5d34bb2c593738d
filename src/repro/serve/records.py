"""The streaming wire schema: one JSON object per line.

Four record kinds flow into ``repro serve``:

``start``
    a transmission began: which monitors sensed it at that instant and
    which could cleanly decode the announcement;
``end``
    a transmission finished, carrying the full
    :class:`~repro.core.observation.ObservedTransmission` codec dict
    (unwrapped ``seq_off`` and exact integer slots — see
    :mod:`repro.core.observation`);
``positions``
    a mobility epoch: node positions for separation tracking;
``shutdown``
    clean end-of-stream (the only way to stop a socket/tail source).

Parsing mirrors the PR 5 quarantine pattern: a bad line never raises
past :func:`parse_line` as anything but :class:`RecordRejected`, whose
``reason`` is a closed vocabulary (:data:`REJECT_REASONS`) the server
counts per code.  Sensed/decoded sets are serialized sorted so a
captured stream is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.core.observation import (
    OBSERVED_KEYS,
    RTS_KEYS,
    ObservedTransmission,
    observed_from_json,
    observed_to_json,
)
from repro.obs.audit import encode_line
from repro.util.units import Slots

#: Reason codes a rejected line (or event) is counted under.
REASON_JSON = "json"
REASON_NOT_OBJECT = "not_object"
REASON_KIND = "kind"
REASON_UNKNOWN_KEY = "unknown_key"
REASON_SCHEMA = "schema"
REASON_OUT_OF_ORDER = "out_of_order"
REASON_ORPHAN_END = "orphan_end"
REASON_DUPLICATE_TX = "duplicate_tx"

REJECT_REASONS: Tuple[str, ...] = (
    REASON_JSON,
    REASON_NOT_OBJECT,
    REASON_KIND,
    REASON_UNKNOWN_KEY,
    REASON_SCHEMA,
    REASON_OUT_OF_ORDER,
    REASON_ORPHAN_END,
    REASON_DUPLICATE_TX,
)

_KEYS_BY_KIND: Dict[str, FrozenSet[str]] = {
    "start": frozenset({"kind", "slot", "tx", "sender", "sensed", "decoded"}),
    "end": frozenset({"kind", "slot", "tx", "sender", "sensed", "observed"}),
    "positions": frozenset({"kind", "slot", "positions"}),
    "shutdown": frozenset({"kind", "slot"}),
}

_INT_ONLY = frozenset({int})


class RecordRejected(Exception):
    """One line (or event) the server refuses, with its reason code."""

    def __init__(self, reason: str, detail: str) -> None:
        if reason not in REJECT_REASONS:
            raise ValueError(f"unknown reject reason {reason!r}")
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class StartEvent:
    slot: Slots
    tx: int
    sender: int
    sensed: FrozenSet[int]
    decoded: FrozenSet[int]


@dataclass(frozen=True)
class EndEvent:
    slot: Slots
    tx: int
    sender: int
    sensed: FrozenSet[int]
    observed: ObservedTransmission


@dataclass(frozen=True)
class PositionsEvent:
    slot: Slots
    positions: Dict[int, Tuple[float, float]]


@dataclass(frozen=True)
class ShutdownEvent:
    slot: Slots


StreamEvent = Union[StartEvent, EndEvent, PositionsEvent, ShutdownEvent]


def _require_int(data: Dict[str, object], field: str) -> int:
    value = data.get(field)
    if type(value) is int:  # the common case, one check
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise RecordRejected(
            REASON_SCHEMA, f"field {field!r} must be an integer, got {value!r}"
        )
    return value


def _require_id_set(data: Dict[str, object], field: str) -> FrozenSet[int]:
    value = data.get(field)
    # Fast path: item *types* are checked before any item is hashed, so
    # an unhashable item (a nested list) still reaches the schema reject.
    if type(value) is list and _INT_ONLY.issuperset(map(type, value)):
        return frozenset(value)
    if not isinstance(value, list):
        raise RecordRejected(
            REASON_SCHEMA, f"field {field!r} must be a list, got {value!r}"
        )
    ids = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise RecordRejected(
                REASON_SCHEMA, f"field {field!r} holds non-integer id {item!r}"
            )
        ids.append(item)
    return frozenset(ids)


def _check_unknown_keys(data: Dict[str, object], allowed: FrozenSet[str]) -> None:
    if not allowed.issuperset(data):
        unknown = sorted(set(data) - allowed)
        raise RecordRejected(REASON_UNKNOWN_KEY, f"unknown keys: {unknown}")


def parse_line(line: str) -> Optional[StreamEvent]:
    """Parse one stream line; None for blanks, RecordRejected otherwise."""
    text = line.strip()
    if not text:
        return None
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise RecordRejected(REASON_JSON, str(exc)) from exc
    if not isinstance(data, dict):
        raise RecordRejected(
            REASON_NOT_OBJECT, f"line is {type(data).__name__}, not an object"
        )
    kind = data.get("kind")
    allowed = _KEYS_BY_KIND.get(kind) if isinstance(kind, str) else None
    if allowed is None:
        raise RecordRejected(REASON_KIND, f"unknown record kind {kind!r}")
    _check_unknown_keys(data, allowed)
    slot = _require_int(data, "slot")
    if kind == "shutdown":
        return ShutdownEvent(slot=slot)
    if kind == "positions":
        return PositionsEvent(slot=slot, positions=_parse_positions(data))
    tx = _require_int(data, "tx")
    sender = _require_int(data, "sender")
    sensed = _require_id_set(data, "sensed")
    if kind == "start":
        return StartEvent(
            slot=slot,
            tx=tx,
            sender=sender,
            sensed=sensed,
            decoded=_require_id_set(data, "decoded"),
        )
    observed_data = data.get("observed")
    if isinstance(observed_data, dict):
        # Unknown-key probes inside the nested codec dicts get their own
        # reason code, like the top level; every other codec complaint
        # is a schema reject.
        _check_unknown_keys(observed_data, OBSERVED_KEYS)
        rts_data = observed_data.get("rts")
        if isinstance(rts_data, dict):
            _check_unknown_keys(rts_data, RTS_KEYS)
    try:
        observed = observed_from_json(observed_data)
    except ValueError as exc:
        raise RecordRejected(REASON_SCHEMA, str(exc)) from exc
    return EndEvent(
        slot=slot, tx=tx, sender=sender, sensed=sensed, observed=observed
    )


def _parse_positions(data: Dict[str, object]) -> Dict[int, Tuple[float, float]]:
    value = data.get("positions")
    if not isinstance(value, dict):
        raise RecordRejected(
            REASON_SCHEMA, f"field 'positions' must be an object, got {value!r}"
        )
    positions: Dict[int, Tuple[float, float]] = {}
    for node_key, point in value.items():
        try:
            node = int(node_key)
        except ValueError as exc:
            raise RecordRejected(
                REASON_SCHEMA, f"non-integer node id {node_key!r}"
            ) from exc
        if (
            not isinstance(point, list)
            or len(point) != 2
            or not all(isinstance(c, (int, float)) for c in point)
        ):
            raise RecordRejected(
                REASON_SCHEMA, f"position of node {node} must be [x, y]"
            )
        positions[node] = (float(point[0]), float(point[1]))
    return positions


# -- serialization (the capture side) -------------------------------------


def start_line(
    slot: Slots,
    tx: int,
    sender: int,
    sensed: FrozenSet[int],
    decoded: FrozenSet[int],
) -> str:
    return encode_line(
        {
            "kind": "start",
            "slot": slot,
            "tx": tx,
            "sender": sender,
            "sensed": sorted(sensed),
            "decoded": sorted(decoded),
        }
    )


def end_line(
    slot: Slots,
    tx: int,
    sender: int,
    sensed: FrozenSet[int],
    observed: ObservedTransmission,
) -> str:
    return encode_line(
        {
            "kind": "end",
            "slot": slot,
            "tx": tx,
            "sender": sender,
            "sensed": sorted(sensed),
            "observed": observed_to_json(observed),
        }
    )


def positions_line(slot: Slots, positions: Dict[int, Tuple[float, float]]) -> str:
    return encode_line(
        {
            "kind": "positions",
            "slot": slot,
            "positions": {
                str(node): [x, y]
                for node, (x, y) in sorted(positions.items())
            },
        }
    )


def shutdown_line(slot: Slots) -> str:
    return encode_line({"kind": "shutdown", "slot": slot})
