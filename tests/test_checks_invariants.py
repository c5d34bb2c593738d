"""Tests for the runtime invariant checker (repro.checks.invariants).

Each engine contract is exercised twice: a clean stream (or a real
simulation run) must pass, and a deliberately corrupted stream must trip
exactly the invariant under test.  The corrupted streams are delivered
through the same listener hooks the engine uses, via small stand-ins
for the engine/medium/MAC objects.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import pytest

from repro.checks import (
    disable_runtime_checks,
    enable_runtime_checks,
    runtime_checks_enabled,
)
from repro.checks.invariants import (
    InvariantChecker,
    InvariantError,
    InvariantViolation,
)
from repro.sim.engine import EventKind
from repro.sim.network import Flow, Simulation, SimulationConfig
from tests.test_golden_fingerprints import GOLDEN_DIR, capture
from tests.test_reconcile_oracle import relay_simulation

# -- stand-ins for engine internals ------------------------------------------


@dataclass
class FakeBackoff:
    generation: int = 0
    counting: bool = False
    remaining: Optional[int] = None
    initial: Optional[int] = None
    completion_slot: Optional[int] = None


class FakeState:
    def __init__(self, value: str = "idle") -> None:
        self.value = value


class FakeQueue:
    def __init__(self, length: int = 0) -> None:
        self.is_empty = length == 0


class FakeMac:
    def __init__(self, queued: int = 0, **backoff_kwargs: Any) -> None:
        self.backoff = FakeBackoff(**backoff_kwargs)
        self.state = FakeState()
        self.queue = FakeQueue(queued)


@dataclass
class FakeTransmission:
    sender: int
    receiver: int = 99
    start_slot: int = 0
    end_slot: int = 1
    kind: str = "handshake"


class FakeMedium:
    def __init__(self, active: Optional[List[FakeTransmission]] = None) -> None:
        self.active = list(active or [])
        self.sensed: Set[Tuple[int, int]] = set()
        self.busy: Set[int] = set()

    def active_items(self):
        return list(enumerate(self.active))

    def active_transmissions(self):
        return list(self.active)

    def senses(self, a: int, b: int) -> bool:
        return (a, b) in self.sensed

    def senses_busy(self, node_id: int) -> bool:
        return node_id in self.busy


@dataclass
class FakeEngine:
    now: int = 0
    macs: Dict[int, FakeMac] = field(default_factory=dict)
    medium: FakeMedium = field(default_factory=FakeMedium)


def collecting_checker() -> InvariantChecker:
    return InvariantChecker(strict=False)


def kinds(checker: InvariantChecker) -> List[str]:
    return [violation.kind for violation in checker.violations]


# -- event stream invariants -------------------------------------------------


def test_clean_event_stream_passes():
    checker = collecting_checker()
    engine = FakeEngine(now=0)
    checker.on_event(3, EventKind.TRANSMISSION_PHASE, 0, engine)
    checker.on_event(3, EventKind.ARRIVAL, 1, engine)
    checker.on_event(5, EventKind.TRANSMISSION_PHASE, 0, engine)
    assert checker.ok
    assert checker.events_checked == 3


def test_non_integral_timestamp_trips():
    checker = collecting_checker()
    checker.on_event(2.5, EventKind.ARRIVAL, 1, FakeEngine(now=0))
    assert "integer-slot-clock" in kinds(checker)


def test_event_behind_engine_time_trips():
    checker = collecting_checker()
    checker.on_event(3, EventKind.ARRIVAL, 1, FakeEngine(now=10))
    assert "event-time-monotonicity" in kinds(checker)


def test_event_slot_regression_trips():
    checker = collecting_checker()
    engine = FakeEngine(now=0)
    checker.on_event(5, EventKind.ARRIVAL, 1, engine)
    checker.on_event(4, EventKind.ARRIVAL, 2, engine)
    assert "event-time-monotonicity" in kinds(checker)


def test_within_slot_kind_order_trips():
    checker = collecting_checker()
    engine = FakeEngine(now=0)
    checker.on_event(5, EventKind.COUNTDOWN_COMPLETE, (7, 0), engine)
    checker.on_event(5, EventKind.ARRIVAL, 1, engine)
    assert "within-slot-ordering" in kinds(checker)


def test_kind_order_resets_across_slots():
    checker = collecting_checker()
    engine = FakeEngine(now=0, macs={7: FakeMac(generation=0, counting=True)})
    checker.on_event(5, EventKind.COUNTDOWN_COMPLETE, (7, 0), engine)
    checker.on_event(6, EventKind.TRANSMISSION_PHASE, 0, engine)
    assert checker.ok


def test_countdown_for_unknown_node_trips():
    checker = collecting_checker()
    checker.on_event(5, EventKind.COUNTDOWN_COMPLETE, (404, 0), FakeEngine())
    assert "unknown-node" in kinds(checker)


# -- stale completion discard ------------------------------------------------


def _engine_with_node(node_id: int, **backoff_kwargs: Any) -> FakeEngine:
    return FakeEngine(now=0, macs={node_id: FakeMac(**backoff_kwargs)})


def test_fresh_completion_transmission_passes():
    checker = collecting_checker()
    engine = _engine_with_node(7, generation=3, counting=True)
    checker.on_event(5, EventKind.COUNTDOWN_COMPLETE, (7, 3), engine)
    tx = FakeTransmission(sender=7, start_slot=5, end_slot=9)
    checker.on_transmission_start(5, tx, FakeMedium([tx]))
    assert checker.ok


def test_stale_generation_transmission_trips():
    checker = collecting_checker()
    # Generation counter moved on (3 -> 4): the completion is stale and
    # a transmission acting on it violates the discard contract.
    engine = _engine_with_node(7, generation=4, counting=True)
    checker.on_event(5, EventKind.COUNTDOWN_COMPLETE, (7, 3), engine)
    tx = FakeTransmission(sender=7, start_slot=5, end_slot=9)
    checker.on_transmission_start(5, tx, FakeMedium([tx]))
    assert "stale-completion-discard" in kinds(checker)


def test_frozen_countdown_transmission_trips():
    checker = collecting_checker()
    engine = _engine_with_node(7, generation=3, counting=False)
    checker.on_event(5, EventKind.COUNTDOWN_COMPLETE, (7, 3), engine)
    tx = FakeTransmission(sender=7, start_slot=5, end_slot=9)
    checker.on_transmission_start(5, tx, FakeMedium([tx]))
    assert "stale-completion-discard" in kinds(checker)


def test_transmission_without_any_completion_trips():
    checker = collecting_checker()
    checker.on_event(5, EventKind.ARRIVAL, 7, _engine_with_node(7))
    tx = FakeTransmission(sender=7, start_slot=5, end_slot=9)
    checker.on_transmission_start(5, tx, FakeMedium([tx]))
    assert "stale-completion-discard" in kinds(checker)


# -- carrier sense and timestamps --------------------------------------------


def _fresh_sender(checker: InvariantChecker, node_id: int, slot: int) -> None:
    engine = _engine_with_node(node_id, generation=0, counting=True)
    checker.on_event(slot, EventKind.COUNTDOWN_COMPLETE, (node_id, 0), engine)


def test_transmit_into_sensed_busy_air_trips():
    checker = collecting_checker()
    _fresh_sender(checker, 7, 5)
    earlier = FakeTransmission(sender=3, start_slot=2, end_slot=20)
    mine = FakeTransmission(sender=7, start_slot=5, end_slot=9)
    medium = FakeMedium([earlier, mine])
    medium.sensed.add((3, 7))  # node 7 can hear node 3's transmission
    checker.on_transmission_start(5, mine, medium)
    assert "carrier-sense" in kinds(checker)


def test_same_slot_collision_is_legitimate():
    checker = collecting_checker()
    _fresh_sender(checker, 7, 5)
    _fresh_sender(checker, 3, 5)
    other = FakeTransmission(sender=3, start_slot=5, end_slot=9)
    mine = FakeTransmission(sender=7, start_slot=5, end_slot=9)
    medium = FakeMedium([other, mine])
    medium.sensed.add((3, 7))
    checker.on_transmission_start(5, mine, medium)
    checker.on_transmission_start(5, other, medium)
    assert checker.ok


def test_hidden_terminal_start_is_legitimate():
    checker = collecting_checker()
    _fresh_sender(checker, 7, 5)
    earlier = FakeTransmission(sender=3, start_slot=2, end_slot=20)
    mine = FakeTransmission(sender=7, start_slot=5, end_slot=9)
    medium = FakeMedium([earlier, mine])  # nothing sensed: hidden terminal
    checker.on_transmission_start(5, mine, medium)
    assert checker.ok


def test_start_slot_mismatch_trips():
    checker = collecting_checker()
    _fresh_sender(checker, 7, 5)
    tx = FakeTransmission(sender=7, start_slot=4, end_slot=9)
    checker.on_transmission_start(5, tx, FakeMedium([tx]))
    assert "transmission-timestamps" in kinds(checker)


def test_non_positive_duration_trips():
    checker = collecting_checker()
    _fresh_sender(checker, 7, 5)
    tx = FakeTransmission(sender=7, start_slot=5, end_slot=5)
    checker.on_transmission_start(5, tx, FakeMedium([tx]))
    assert "transmission-timestamps" in kinds(checker)


def test_end_slot_mismatch_trips():
    checker = collecting_checker()
    tx = FakeTransmission(sender=7, start_slot=5, end_slot=9)
    checker.on_transmission_end(10, tx, True, FakeMedium())
    assert "transmission-timestamps" in kinds(checker)


# -- per-slot state invariants -----------------------------------------------


def test_negative_backoff_counter_trips():
    checker = collecting_checker()
    engine = _engine_with_node(7, remaining=-2, initial=15)
    checker.on_slot_end(5, engine)
    assert "non-negative-backoff" in kinds(checker)


def test_backoff_counter_growth_trips():
    checker = collecting_checker()
    engine = _engine_with_node(7, remaining=20, initial=15)
    checker.on_slot_end(5, engine)
    assert "non-negative-backoff" in kinds(checker)


def test_missed_completion_trips():
    checker = collecting_checker()
    engine = _engine_with_node(
        7, counting=True, remaining=3, initial=15, completion_slot=4
    )
    checker.on_slot_end(5, engine)
    assert "missed-completion" in kinds(checker)


def test_mac_transmitting_without_medium_trips():
    checker = collecting_checker()
    engine = _engine_with_node(7)
    engine.macs[7].state.value = "transmitting"
    checker.on_slot_end(5, engine)
    assert "medium-consistency" in kinds(checker)


def test_medium_active_without_mac_trips():
    checker = collecting_checker()
    engine = _engine_with_node(7)
    engine.medium = FakeMedium([FakeTransmission(sender=7)])
    checker.on_slot_end(5, engine)
    assert "medium-consistency" in kinds(checker)


def test_counting_while_sensing_busy_trips():
    checker = collecting_checker()
    engine = _engine_with_node(
        7, counting=True, remaining=3, initial=15, completion_slot=9
    )
    engine.medium.busy.add(7)
    checker.on_slot_end(5, engine)
    assert kinds(checker) == ["reconcile-consistency"]


def test_frozen_while_sensing_idle_trips():
    checker = collecting_checker()
    engine = _engine_with_node(7, counting=False, remaining=3, initial=15)
    checker.on_slot_end(5, engine)
    assert kinds(checker) == ["reconcile-consistency"]


def test_frozen_while_sensing_busy_passes():
    checker = collecting_checker()
    engine = _engine_with_node(7, counting=False, remaining=3, initial=15)
    engine.medium.busy.add(7)
    checker.on_slot_end(5, engine)
    assert checker.ok


def test_queued_traffic_without_backoff_trips():
    checker = collecting_checker()
    engine = FakeEngine(now=0, macs={7: FakeMac(queued=1)})
    checker.on_slot_end(5, engine)
    assert kinds(checker) == ["reconcile-consistency"]


def test_transmitting_node_is_exempt_from_reconcile_consistency():
    checker = collecting_checker()
    engine = FakeEngine(now=0, macs={7: FakeMac(queued=1)})
    engine.macs[7].state.value = "transmitting"
    engine.medium = FakeMedium([FakeTransmission(sender=7)])
    checker.on_slot_end(5, engine)
    assert checker.ok


def test_idle_node_passes_slot_end():
    checker = collecting_checker()
    engine = _engine_with_node(
        7, counting=True, remaining=3, initial=15, completion_slot=9
    )
    checker.on_slot_end(5, engine)
    assert checker.ok
    assert checker.slots_checked == 1


# -- strict mode, summary, plumbing ------------------------------------------


def test_strict_mode_raises_with_violation_attached():
    checker = InvariantChecker(strict=True)
    with pytest.raises(InvariantError) as excinfo:
        checker.on_event(3, EventKind.ARRIVAL, 1, FakeEngine(now=10))
    violation = excinfo.value.violation
    assert isinstance(violation, InvariantViolation)
    assert violation.kind == "event-time-monotonicity"
    assert "slot 3" in violation.render()


def test_summary_reports_counts():
    checker = collecting_checker()
    checker.on_event(3, EventKind.ARRIVAL, 1, FakeEngine(now=0))
    checker.on_slot_end(3, FakeEngine(now=3))
    assert "ok" in checker.summary()
    checker.on_event(1, EventKind.ARRIVAL, 1, FakeEngine(now=5))
    assert "violation" in checker.summary()


def test_runtime_switch_toggles():
    assert not runtime_checks_enabled()
    enable_runtime_checks()
    try:
        assert runtime_checks_enabled()
    finally:
        disable_runtime_checks()
    assert not runtime_checks_enabled()


def test_env_var_enables_checks(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")
    assert runtime_checks_enabled()
    monkeypatch.setenv("REPRO_CHECK", "0")
    assert not runtime_checks_enabled()


# -- integration: a real simulation under the checker ------------------------


def _small_simulation() -> Simulation:
    positions = [(0.0, 0.0), (150.0, 0.0), (300.0, 0.0), (450.0, 0.0)]
    flows = [
        Flow(source=0, destination=1, kind="poisson", load=0.4),
        Flow(source=2, destination=3, kind="poisson", load=0.4),
    ]
    return Simulation(
        positions, flows=flows, config=SimulationConfig(seed=11)
    )


def test_engine_autoinstalls_checker_when_enabled():
    enable_runtime_checks()
    try:
        sim = _small_simulation()
    finally:
        disable_runtime_checks()
    checker = sim.engine.invariant_checker
    assert isinstance(checker, InvariantChecker)
    assert checker in sim.engine.listeners
    sim.run(0.25)
    assert checker.ok
    assert checker.events_checked > 0
    assert checker.slots_checked > 0


def test_engine_skips_checker_by_default():
    assert os.environ.get("REPRO_CHECK", "") in ("", "0")
    sim = _small_simulation()
    assert sim.engine.invariant_checker is None


def test_attach_registers_listener():
    sim = _small_simulation()
    checker = InvariantChecker(strict=True).attach(sim.engine)
    assert checker in sim.engine.listeners
    sim.run(0.25)  # strict mode: any violation would raise
    assert checker.ok


def test_real_run_trips_on_corrupted_backoff():
    sim = _small_simulation()
    checker = InvariantChecker(strict=False).attach(sim.engine)
    sim.run(0.1)
    # Corrupt a node's back-off counter behind the engine's back; the
    # next slot-end sweep must catch it.
    mac = sim.engine.macs[0]
    mac.backoff.remaining = -1
    checker.on_slot_end(sim.engine.now, sim.engine)
    assert "non-negative-backoff" in kinds(checker)


# -- integration: golden scenarios under REPRO_CHECK=1 -----------------------


class _CountingChecker(InvariantChecker):
    """A strict checker that remembers every instance the engine built."""

    instances: List["_CountingChecker"] = []

    def __init__(self, strict: bool = True) -> None:
        super().__init__(strict=strict)
        _CountingChecker.instances.append(self)


@pytest.fixture
def checked_runs(monkeypatch):
    """Turn on REPRO_CHECK and collect the checkers engines install."""
    from repro.checks import invariants

    monkeypatch.setenv("REPRO_CHECK", "1")
    monkeypatch.setattr(invariants, "InvariantChecker", _CountingChecker)
    _CountingChecker.instances = []
    return _CountingChecker.instances


@pytest.mark.parametrize("name", ["grid", "mobile_handoff"])
def test_golden_scenario_runs_clean_under_checks(name, checked_runs):
    """Strict checking raises on the first violation; the run must also
    reproduce its committed golden, since the checker only observes."""
    fingerprint = capture(name)
    assert checked_runs and all(c.ok for c in checked_runs)
    assert sum(c.slots_checked for c in checked_runs) > 0
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert fingerprint == golden


def test_relay_run_keeps_queued_receivers_drawn(checked_runs):
    """Relayed packets land at receivers that may still sense busy air;
    each must get its back-off draw in the same slot."""
    sim, relay = relay_simulation()
    sim.run(4.0)
    assert relay.forwarded > 0
    (checker,) = checked_runs
    assert checker.ok and checker.slots_checked > 0
