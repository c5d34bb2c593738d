"""Runtime invariant checking for the slot-exact simulation engine.

The engine's docstring promises a set of timing and determinism
contracts — integer event times that never run backwards, within-slot
processing in :class:`~repro.sim.engine.EventKind` order, back-off
countdowns that never go negative, stale completion events discarded
via the generation counter, carrier sensing that prevents a node
from transmitting into air it can hear is busy, and back-off state
that agrees with the air after every reconcile pass.  This module turns
those promises into machine-checked assertions: install an
:class:`InvariantChecker` as a listener (the engine does it for you
when :func:`repro.checks.runtime.runtime_checks_enabled` is true) and
every run becomes a race detector for the reconcile pass.

The checker observes; it never mutates simulation state.  In strict
mode (the default) the first violation raises :class:`InvariantError`
with a precise description; in collecting mode violations accumulate in
:attr:`InvariantChecker.violations` for post-mortem inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.sim.listeners import SimulationListener

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.phy.medium import Medium, Transmission
    from repro.sim.engine import SimulationEngine


@dataclass(frozen=True)
class InvariantViolation:
    """One broken engine contract, pinned to a slot."""

    slot: int
    kind: str
    detail: str

    def render(self) -> str:
        return f"slot {self.slot}: [{self.kind}] {self.detail}"


class InvariantError(AssertionError):
    """Raised in strict mode when a simulation invariant is violated."""

    def __init__(self, violation: InvariantViolation) -> None:
        super().__init__(violation.render())
        self.violation = violation


class InvariantChecker(SimulationListener):
    """Listener asserting the engine's documented invariants per slot.

    Parameters
    ----------
    strict:
        When True (default), raise :class:`InvariantError` at the first
        violation; when False, collect violations without interrupting
        the run.
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: List[InvariantViolation] = []
        self.events_checked = 0
        self.slots_checked = 0
        self._last_slot: Optional[int] = None
        self._last_kind: Optional[int] = None
        # Nodes whose COUNTDOWN_COMPLETE this slot was fresh (acted on)
        # vs. stale (must be discarded by the engine).
        self._fresh: Set[Any] = set()
        self._stale: Set[Any] = set()

    # -- plumbing ----------------------------------------------------------

    def attach(self, engine: "SimulationEngine") -> "InvariantChecker":
        """Register on ``engine``; returns self for chaining."""
        engine.add_listener(self)
        return self

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"invariant checks: {state} "
            f"({self.events_checked} events, {self.slots_checked} slots)"
        )

    def _fail(self, slot: int, kind: str, detail: str) -> None:
        violation = InvariantViolation(slot=int(slot), kind=kind, detail=detail)
        self.violations.append(violation)
        if self.strict:
            raise InvariantError(violation)

    # -- event stream invariants -------------------------------------------

    def on_event(
        self, slot: int, kind: int, data: Any, engine: "SimulationEngine"
    ) -> None:
        """Called by the engine before each event is dispatched."""
        self.events_checked += 1
        if slot != int(slot):
            self._fail(
                slot, "integer-slot-clock", f"event timestamp {slot!r} is not integral"
            )
        if slot < engine.now:
            self._fail(
                slot,
                "event-time-monotonicity",
                f"event at slot {slot} scheduled behind engine time {engine.now}",
            )
        if self._last_slot is not None and slot < self._last_slot:
            self._fail(
                slot,
                "event-time-monotonicity",
                f"event at slot {slot} processed after slot {self._last_slot}",
            )
        if slot != self._last_slot:
            # New slot batch: reset the within-slot bookkeeping.
            self._last_kind = None
            self._fresh = set()
            self._stale = set()
        self._last_slot = slot
        if self._last_kind is not None and kind < self._last_kind:
            self._fail(
                slot,
                "within-slot-ordering",
                f"EventKind {kind} processed after EventKind {self._last_kind} "
                "in the same slot (must be non-decreasing)",
            )
        self._last_kind = kind

        # EventKind.COUNTDOWN_COMPLETE payloads are (node_id, generation):
        # classify the event as fresh or stale *before* the handler runs,
        # so on_transmission_start can verify the discard contract.
        from repro.sim.engine import EventKind

        if kind == EventKind.COUNTDOWN_COMPLETE:
            node_id, generation = data
            mac = engine.macs.get(node_id)
            if mac is None:
                self._fail(
                    slot, "unknown-node", f"countdown completion for unknown node "
                    f"{node_id!r}"
                )
                return
            if mac.backoff.generation == generation and mac.backoff.counting:
                self._fresh.add(node_id)
            else:
                self._stale.add(node_id)

    # -- transmission invariants -------------------------------------------

    def on_transmission_start(
        self, slot: int, transmission: "Transmission", medium: "Medium"
    ) -> None:
        sender = transmission.sender
        if transmission.start_slot != slot:
            self._fail(
                slot,
                "transmission-timestamps",
                f"node {sender} transmission stamped start_slot="
                f"{transmission.start_slot} at slot {slot}",
            )
        if transmission.end_slot <= transmission.start_slot:
            self._fail(
                slot,
                "transmission-timestamps",
                f"node {sender} transmission has non-positive duration "
                f"({transmission.start_slot} -> {transmission.end_slot})",
            )
        if sender in self._stale and sender not in self._fresh:
            self._fail(
                slot,
                "stale-completion-discard",
                f"node {sender} transmitted on a stale countdown completion "
                "(generation counter moved on; the event must be discarded)",
            )
        elif sender not in self._fresh:
            self._fail(
                slot,
                "stale-completion-discard",
                f"node {sender} transmitted without a fresh countdown "
                "completion this slot",
            )
        # Carrier-sense contract: the reconcile pass must have frozen any
        # countdown whose owner senses busy air, so a node may only start
        # transmitting alongside *same-slot* starters (a genuine DCF
        # collision), never into a transmission already on the air.
        for _tx_id, other in medium.active_items():
            if other is transmission or other.sender == sender:
                continue
            if other.start_slot < slot and medium.senses(other.sender, sender):
                self._fail(
                    slot,
                    "carrier-sense",
                    f"node {sender} transmitted while sensing node "
                    f"{other.sender}'s transmission (started slot "
                    f"{other.start_slot}, ends {other.end_slot}): the "
                    "reconcile pass failed to freeze its countdown",
                )

    def on_transmission_end(
        self,
        slot: int,
        transmission: "Transmission",
        success: bool,
        medium: "Medium",
    ) -> None:
        if transmission.end_slot != slot:
            self._fail(
                slot,
                "transmission-timestamps",
                f"node {transmission.sender} transmission ended at slot {slot} "
                f"but was stamped end_slot={transmission.end_slot}",
            )

    # -- per-slot state invariants -----------------------------------------

    def on_slot_end(self, slot: int, engine: "SimulationEngine") -> None:
        """Called by the engine after a slot's batch and reconcile pass."""
        self.slots_checked += 1
        medium = engine.medium
        transmitting = {t.sender for t in medium.active_transmissions()}
        for node_id, mac in engine.macs.items():
            backoff = mac.backoff
            if backoff.remaining is not None and backoff.remaining < 0:
                self._fail(
                    slot,
                    "non-negative-backoff",
                    f"node {node_id} back-off counter is negative "
                    f"({backoff.remaining})",
                )
            if (
                backoff.remaining is not None
                and backoff.initial is not None
                and backoff.remaining > backoff.initial
            ):
                self._fail(
                    slot,
                    "non-negative-backoff",
                    f"node {node_id} back-off counter grew "
                    f"({backoff.remaining} > initial {backoff.initial})",
                )
            if backoff.counting and backoff.completion_slot <= slot:
                self._fail(
                    slot,
                    "missed-completion",
                    f"node {node_id} countdown completion at slot "
                    f"{backoff.completion_slot} lies in the past",
                )
            is_transmitting = mac.state.value == "transmitting"
            if is_transmitting and node_id not in transmitting:
                self._fail(
                    slot,
                    "medium-consistency",
                    f"node {node_id} MAC is transmitting but the medium has "
                    "no active transmission for it",
                )
            if not is_transmitting and node_id in transmitting:
                self._fail(
                    slot,
                    "medium-consistency",
                    f"node {node_id} has an active transmission on the medium "
                    "but its MAC is not in the transmitting state",
                )
            if is_transmitting:
                continue
            # The reconcile contract the engine's narrowed affected set
            # relies on: a node whose busy/idle state did not flip needs
            # no visit because it is already consistent with the air.
            if backoff.remaining is not None:
                busy = medium.senses_busy(node_id)
                if backoff.counting == busy:
                    self._fail(
                        slot,
                        "reconcile-consistency",
                        f"node {node_id} back-off is "
                        f"{'counting' if busy else 'frozen'} while it senses "
                        f"{'busy' if busy else 'idle'} air",
                    )
            elif not mac.queue.is_empty:
                self._fail(
                    slot,
                    "reconcile-consistency",
                    f"node {node_id} has queued traffic but no back-off",
                )
