"""Equivalence of the incremental Medium against a brute-force reference.

The incremental carrier-sense index (per-listener sensed maps) must
answer every query exactly as a full scan of the active transmissions
would, and its flip set must name exactly the listeners whose busy/idle
state changed.  A seeded random driver applies start / extend / end /
update_positions sequences to both and compares every query after
every operation.
"""

import pytest

from repro.phy.channel import Channel
from repro.phy.medium import Medium, Transmission
from repro.util.rng import RngStream


class BruteForceReference:
    """The O(active transmissions) semantics the Medium must match.

    Reuses the Medium's adjacency sets (those are not under test) but
    answers every carrier-sense query by scanning a shadow copy of the
    active transmissions.
    """

    def __init__(self, medium):
        self._medium = medium
        self._active = {}

    def start(self, tx_id, tx):
        self._active[tx_id] = tx

    def end(self, tx_id):
        del self._active[tx_id]

    def is_transmitting(self, node_id):
        return any(tx.sender == node_id for tx in self._active.values())

    def senses_busy(self, node_id):
        return any(
            self._medium.senses(tx.sender, node_id)
            for tx in self._active.values()
        )

    def busy_until(self, node_id):
        ends = [
            tx.end_slot
            for tx in self._active.values()
            if self._medium.senses(tx.sender, node_id)
        ]
        return max(ends) if ends else None

    def interferers_at(self, receiver, exclude_sender):
        return [
            tx.sender
            for tx in self._active.values()
            if self._medium.senses(tx.sender, receiver)
            and tx.sender != exclude_sender
        ]

    def active_handshakes(self):
        return [
            (tx_id, tx)
            for tx_id, tx in self._active.items()
            if tx.kind == "handshake"
        ]


def _assert_equivalent(medium, reference, node_ids):
    for node in node_ids:
        assert medium.is_transmitting(node) == reference.is_transmitting(node)
        assert medium.senses_busy(node) == reference.senses_busy(node)
        assert medium.busy_until(node) == reference.busy_until(node)
        for exclude in (None, node):
            assert medium.interferers_at(node, exclude_sender=exclude) == (
                reference.interferers_at(node, exclude_sender=exclude)
            )
    assert list(medium.active_handshakes()) == reference.active_handshakes()


def _positions(rng, count, span=1200.0):
    return {i: rng.random_point(span, span) for i in range(count)}


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_random_sequences_match_brute_force(seed):
    rng = RngStream(seed, "medium-equivalence")
    nodes = 14
    medium = Medium(Channel())
    medium.update_positions(_positions(rng, nodes))
    reference = BruteForceReference(medium)
    node_ids = range(nodes)

    live = {}  # tx_id -> Transmission
    clock = 0
    for _step in range(300):
        clock += 1
        busy_before = {node: reference.senses_busy(node) for node in node_ids}
        sender = None  # set by start / end: whose sensors may flip
        op = rng.integers(0, 100)
        if op < 40 or not live:  # start
            sender = rng.integers(0, nodes)
            receiver = (sender + 1 + rng.integers(0, nodes - 1)) % nodes
            tx = Transmission(
                sender=sender,
                receiver=receiver,
                start_slot=clock,
                end_slot=clock + 1 + rng.integers(0, 30),
                kind="handshake" if rng.integers(0, 2) else "data",
            )
            tx_id = medium.start_transmission(tx)
            reference.start(tx_id, tx)
        elif op < 70:  # end
            tx_id = rng.choice(sorted(live))
            sender = medium.end_transmission(tx_id).sender
            reference.end(tx_id)
        elif op < 90:  # extend (never shrink), sometimes flip the kind
            tx_id = rng.choice(sorted(live))
            tx = live[tx_id]
            new_end = tx.end_slot + rng.integers(0, 25)
            kind = "exchange" if rng.integers(0, 2) else None
            medium.extend_transmission(tx_id, new_end, kind=kind)
            if kind is not None:
                tx.kind = kind  # the reference shares the Transmission
        else:  # mobility epoch: reachability and indexes rebuild
            medium.update_positions(_positions(rng, nodes))
        live = dict(medium.active_items())
        _assert_equivalent(medium, reference, node_ids)
        flips = medium.take_sensing_flips()
        if sender is None:  # extend and epochs never flip carrier sense
            assert flips == set()
        else:
            flipped = {
                node
                for node in node_ids
                if reference.senses_busy(node) != busy_before[node]
            }
            assert flips == flipped
            assert flips <= medium.sensors_of(sender)


def test_busy_until_stays_exact_under_churn():
    """Over 2k start/extend/end cycles beside one persistent sensed
    transmission, busy_until always equals the brute-force maximum and
    the listener's sensed map holds only live transmissions."""
    rng = RngStream(13, "medium-busy-until-churn")
    medium = Medium(Channel())
    medium.update_positions({0: (0, 0), 1: (100, 0), 2: (200, 0)})
    reference = BruteForceReference(medium)
    listener = 1
    # One persistent transmission keeps listener 1 busy throughout.
    persistent = Transmission(sender=0, receiver=1, start_slot=0, end_slot=10**9)
    persistent_id = medium.start_transmission(persistent)
    reference.start(persistent_id, persistent)
    clock = 0
    for _cycle in range(2000):
        clock += 1
        tx = Transmission(
            sender=2,
            receiver=1,
            start_slot=clock,
            end_slot=clock + 1 + rng.integers(0, 5),
        )
        tx_id = medium.start_transmission(tx)
        reference.start(tx_id, tx)
        if rng.integers(0, 2):
            medium.extend_transmission(tx_id, 10**9 + rng.integers(1, 5))
        assert medium.busy_until(listener) == reference.busy_until(listener)
        medium.end_transmission(tx_id)
        reference.end(tx_id)
        assert medium.busy_until(listener) == persistent.end_slot
        assert list(medium._sensed_active[listener]) == [persistent_id]
    medium.end_transmission(persistent_id)
    reference.end(persistent_id)
    assert medium.busy_until(listener) is None
    assert listener not in medium._sensed_active


def test_extend_keeps_busy_until_exact():
    """busy_until follows every extension of a sensed transmission."""
    rng = RngStream(5, "medium-extend")
    medium = Medium(Channel())
    medium.update_positions({0: (0, 0), 1: (100, 0), 2: (200, 0)})
    reference = BruteForceReference(medium)
    tx = Transmission(sender=0, receiver=1, start_slot=0, end_slot=10)
    tx_id = medium.start_transmission(tx)
    reference.start(tx_id, tx)
    for _ in range(20):
        medium.extend_transmission(tx_id, tx.end_slot + rng.integers(0, 9))
        assert medium.busy_until(1) == reference.busy_until(1) == tx.end_slot
    medium.end_transmission(tx_id)
    reference.end(tx_id)
    assert medium.busy_until(1) is None
