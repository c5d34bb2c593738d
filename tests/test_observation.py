"""Unit tests for a monitor's raw channel view.

Transmissions are fed through a :class:`SharedChannelObservatory` (the
one engine listener every detector subscribes to); the queries run
against the monitor node's :class:`MonitorChannel` and the tagged
node's demux in the detector's subscription.
"""

from repro.core.observation import ChannelViewBase, joint_state_counts
from repro.core.observatory import SharedChannelObservatory
from repro.mac.frames import RtsFrame
from repro.phy.channel import Channel
from repro.phy.medium import Medium, Transmission


def _medium():
    m = Medium(Channel())
    m.update_positions({0: (0, 0), 1: (240, 0), 2: (480, 0), 9: (5000, 0)})
    return m


def _tx(sender, receiver, start, end, frame=None):
    return Transmission(
        sender=sender, receiver=receiver, start_slot=start, end_slot=end,
        kind="handshake", frame=frame,
    )


def _rts(sender, receiver=1):
    return RtsFrame(
        sender=sender, receiver=receiver, seq_off=3, attempt=1,
        digest=b"d" * 16,
    )


def _view(monitor, tagged):
    """(observatory, subscription) of one detector ``monitor`` -> ``tagged``."""
    observatory = SharedChannelObservatory()
    return observatory, observatory.attach(monitor, tagged).observer


def _feed(observatory, medium, transmissions, success=True):
    for tx in transmissions:
        observatory.on_transmission_start(tx.start_slot, tx, medium)
    for tx in transmissions:
        observatory.on_transmission_end(tx.end_slot, tx, success, medium)


class TestBusyIntervals:
    def test_single_interval(self):
        m = _medium()
        plane, sub = _view(1, 0)
        _feed(plane, m, [_tx(0, 1, 10, 20)])
        assert sub.channel.busy_slots_in(0, 30) == 10
        assert sub.channel.idle_busy_counts(0, 30) == (20, 10)

    def test_clipping(self):
        m = _medium()
        plane, sub = _view(1, 0)
        _feed(plane, m, [_tx(0, 1, 10, 20)])
        assert sub.channel.busy_slots_in(15, 18) == 3
        assert sub.channel.busy_slots_in(0, 10) == 0
        assert sub.channel.busy_slots_in(20, 30) == 0

    def test_merge_overlapping(self):
        m = _medium()
        plane, sub = _view(1, 0)
        _feed(plane, m, [_tx(0, 1, 10, 20), _tx(2, 1, 15, 25)])
        assert sub.channel.busy_slots_in(0, 40) == 15

    def test_merge_adjacent(self):
        m = _medium()
        plane, sub = _view(1, 0)
        _feed(plane, m, [_tx(0, 1, 10, 20), _tx(2, 1, 20, 30)])
        assert sub.channel.busy_slots_in(0, 40) == 20
        # Adjacent intervals merge into one busy period.
        assert sub.channel.busy_intervals_in(0, 40) == [(10, 30)]

    def test_out_of_range_tx_ignored(self):
        m = _medium()
        plane, sub = _view(1, 0)
        _feed(plane, m, [_tx(9, 0, 10, 20)])  # node 9 is 5 km away
        assert sub.channel.busy_slots_in(0, 30) == 0

    def test_own_transmission_is_busy(self):
        m = _medium()
        plane, sub = _view(1, 0)
        _feed(plane, m, [_tx(1, 0, 10, 20)])
        assert sub.channel.busy_slots_in(0, 30) == 10
        assert sub.channel.monitor_tx_slots == 10
        assert sub.channel.own_tx_slots_in(0, 30) == 10
        assert sub.channel.own_tx_slots_in(12, 15) == 3

    def test_insert_out_of_order(self):
        m = _medium()
        plane, sub = _view(1, 0)
        _feed(plane, m, [_tx(0, 1, 50, 60)])
        _feed(plane, m, [_tx(0, 1, 10, 20)])
        assert sub.channel.busy_slots_in(0, 100) == 20
        assert sub.channel.busy_intervals_in(0, 100) == [(10, 20), (50, 60)]

    def test_traffic_intensity(self):
        """The paper's rho over a span: the busy fraction of the view."""
        m = _medium()
        plane, sub = _view(1, 0)
        _feed(plane, m, [_tx(0, 1, 0, 25)])
        idle, busy = sub.channel.idle_busy_counts(0, 100)
        assert (idle, busy) == (75, 25)
        assert busy / (idle + busy) == 0.25

    def test_empty_range(self):
        _plane, sub = _view(1, 0)
        assert sub.channel.idle_busy_counts(10, 10) == (0, 0)
        assert sub.channel.busy_intervals_in(10, 10) == []


class TestTaggedObservations:
    def test_decoded_rts_recorded(self):
        m = _medium()
        plane, sub = _view(1, 0)
        frame = _rts(0)
        _feed(plane, m, [_tx(0, 1, 10, 20, frame=frame)])
        assert len(sub.observed) == 1
        assert sub.observed[0].rts is frame
        assert sub.observed[0].success

    def test_sensed_but_not_decodable(self):
        m = _medium()
        # Node 0 is 480 m from node 2: inside sensing range, outside
        # decode range.
        plane, sub = _view(0, 2)
        _feed(plane, m, [_tx(2, 1, 30, 40, frame=_rts(2))])
        assert len(sub.observed) == 1
        assert sub.observed[0].rts is None  # sensed only
        assert sub.channel.busy_slots_in(0, 50) == 10

    def test_concurrent_interference_blocks_decode(self):
        m = _medium()
        plane, sub = _view(1, 0)
        jam = _tx(2, 1, 5, 30)
        rts = _tx(0, 1, 10, 20, frame=_rts(0))
        plane.on_transmission_start(5, jam, m)
        m.start_transmission(jam)
        plane.on_transmission_start(10, rts, m)
        plane.on_transmission_end(20, rts, False, m)
        assert sub.observed[0].rts is None

    def test_monitor_transmitting_blocks_decode(self):
        m = _medium()
        plane, sub = _view(1, 0)
        own = _tx(1, 2, 5, 30)
        m.start_transmission(own)
        rts = _tx(0, 1, 10, 20, frame=_rts(0))
        plane.on_transmission_start(10, rts, m)
        plane.on_transmission_end(20, rts, True, m)
        assert sub.observed[0].rts is None

    def test_other_senders_not_demuxed(self):
        m = _medium()
        plane, sub = _view(1, 0)
        _feed(plane, m, [_tx(2, 1, 10, 20, frame=_rts(2))])
        assert sub.observed == []
        assert sub.channel.busy_slots_in(0, 30) == 10


class TestJointStateCounts:
    def test_partition_sums_to_range(self):
        m = _medium()
        plane_a, a = _view(1, 0)
        plane_b, b = _view(0, 1)
        _feed(plane_a, m, [_tx(0, 1, 10, 20)])
        _feed(plane_b, m, [_tx(0, 1, 10, 20)])
        counts = joint_state_counts(a.channel, b.channel, 0, 100)
        assert sum(counts.values()) == 100

    def test_disjoint_busy_periods(self):
        m = _medium()
        plane_a, a = _view(1, 0)
        _plane_b, b = _view(0, 1)
        _feed(plane_a, m, [_tx(2, 1, 0, 10)])
        counts = joint_state_counts(a.channel, b.channel, 0, 10)
        # node 2 is 480 m from node 0: still within sensing range, so b
        # missed it only because it wasn't fed.
        assert counts["BI"] == 10

    def test_both_busy(self):
        m = _medium()
        plane, a = _view(1, 0)
        b = plane.attach(0, 1).observer  # a second node on one plane
        _feed(plane, m, [_tx(0, 1, 5, 15)])
        counts = joint_state_counts(a.channel, b.channel, 0, 20)
        assert counts["BB"] == 10
        assert counts["II"] == 10

    def test_empty_range(self):
        a, b = ChannelViewBase(), ChannelViewBase()
        assert joint_state_counts(a, b, 5, 5)["II"] == 0
