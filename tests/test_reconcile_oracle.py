"""The event-driven reconcile set against the full-neighborhood oracle.

After a transmission starts or ends, the engine reconciles the sender
plus only the listeners whose carrier sense flipped between idle and
busy (:meth:`repro.phy.medium.Medium.take_sensing_flips`).  The wider
pass it replaces visited every sensor of the sender.  Reconcile is
idempotent on a node whose busy/idle state did not flip, so both must
produce the same run; this suite keeps the wide pass as a test-only
engine subclass and compares event streams, audit logs and metrics
snapshots byte for byte.
"""

import hashlib
import json

import pytest

from repro.experiments.scenarios import GridScenario, RandomScenario
from repro.sim import network
from repro.sim.engine import SimulationEngine
from tests.test_golden_fingerprints import (
    CONFIG,
    _audit_jsonl,
    _detector_text,
    _fresh_process_state,
    _run_single,
    _sha,
)

SEEDS = (3, 17, 29)

SCENARIOS = {
    "grid": lambda seed: GridScenario(seed=seed),
    "random": lambda seed: RandomScenario(seed=seed),
    "mobile_handoff": lambda seed: RandomScenario(mobile=True, seed=seed),
}


class _RecordingEngine(SimulationEngine):
    """Hashes every dispatched event and counts reconcile visits."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.event_hash = hashlib.sha256()
        self.reconcile_visits = 0
        _ENGINES.append(self)

    def _process_batch(self, slot, batch):
        for event_slot, kind, _seq, data in batch:
            self.event_hash.update(repr((event_slot, kind, data)).encode())
        return super()._process_batch(slot, batch)

    def _reconcile(self, slot, affected):
        self.reconcile_visits += len(affected)
        super()._reconcile(slot, affected)


class _FullNeighborhoodEngine(_RecordingEngine):
    """The old reconcile set: every sensor of the sender, flipped or not."""

    def _handle_phase(self, slot, tx_id):
        sender = self.medium.active_item(tx_id).sender
        affected = super()._handle_phase(slot, tx_id)
        if affected:  # the transmission ended
            affected |= self.medium.sensors_of(sender)
        return affected

    def _handle_countdown(self, slot, data):
        affected = super()._handle_countdown(slot, data)
        if affected:  # a fresh completion started a transmission
            affected |= self.medium.sensors_of(data[0])
        return affected


_ENGINES = []


def _fingerprint(engine_cls, make_scenario, monkeypatch):
    monkeypatch.setattr(network, "SimulationEngine", engine_cls)
    _ENGINES.clear()
    _fresh_process_state()
    detectors, audit, registry, _extra = _run_single(
        CONFIG, make_scenario, 60, 80, 12.0
    )
    # A detection run may build more than one simulation (the fidelity
    # probe runs its own); fingerprint all of them, in build order.
    fingerprint = {
        "events_sha256": [e.event_hash.hexdigest() for e in _ENGINES],
        "audit_sha256": _sha(_audit_jsonl(audit)),
        "metrics_sha256": _sha(json.dumps(registry.snapshot(), sort_keys=True)),
        "detector_sha256": _sha(_detector_text(detectors)),
        "observations": sum(len(d.observations) for d in detectors),
    }
    return fingerprint, sum(e.reconcile_visits for e in _ENGINES)


def _assert_oracle_agrees(make_scenario, monkeypatch):
    narrow, narrow_visits = _fingerprint(
        _RecordingEngine, make_scenario, monkeypatch
    )
    wide, wide_visits = _fingerprint(
        _FullNeighborhoodEngine, make_scenario, monkeypatch
    )
    assert narrow["observations"] > 0
    assert narrow == wide
    # The oracle must really be the wider pass, or the check is vacuous.
    assert narrow_visits < wide_visits


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_flip_set_matches_full_neighborhood(name, seed, monkeypatch):
    _assert_oracle_agrees(lambda: SCENARIOS[name](seed), monkeypatch)


def test_flip_set_matches_full_neighborhood_with_tile_partition(monkeypatch):
    _assert_oracle_agrees(
        lambda: RandomScenario(mobile=True, seed=23, tile_partition=True),
        monkeypatch,
    )


def relay_simulation():
    """The 7x8 grid with background flows plus 20 multi-hop packets that
    a relay listener forwards hop by hop across the grid."""
    from repro.routing.relay import MultiHopService
    from repro.sim.network import Flow, Simulation, SimulationConfig
    from repro.topology.placement import center_pair_indices, grid_positions
    from repro.traffic.queue import Packet

    positions = grid_positions()
    sender, monitor = center_pair_indices()
    flows = [Flow(source=sender, destination=monitor, load=0.6)] + [
        Flow(source=i, load=0.4)
        for i in range(0, len(positions), 3)
        if i not in (monitor, sender)
    ]
    sim = Simulation(positions, flows=flows, config=SimulationConfig(seed=17))
    relay = MultiHopService(sim.macs, link_provider=sim.medium)
    sim.add_listener(relay)
    far_src, far_dst = 0, len(positions) - 1
    hop = relay.first_hop(far_src, far_dst)
    for _ in range(20):
        sim.macs[far_src].enqueue(
            Packet(source=far_src, destination=hop, final_destination=far_dst)
        )
    return sim, relay


def _relay_fingerprint(engine_cls, monkeypatch):
    """Events and per-node MAC stats of the relay run."""
    monkeypatch.setattr(network, "SimulationEngine", engine_cls)
    _ENGINES.clear()
    _fresh_process_state()
    sim, relay = relay_simulation()
    sim.run(4.0)
    (engine,) = _ENGINES
    stats = sorted((node, repr(mac.stats)) for node, mac in sim.macs.items())
    return (
        engine.event_hash.hexdigest(),
        stats,
        relay.forwarded,
        relay.delivered_end_to_end,
    )


def test_flip_set_matches_full_neighborhood_with_relays(monkeypatch):
    """A relayed packet lands at a receiver that may still sense busy
    air; the engine must still give it a back-off."""
    narrow = _relay_fingerprint(_RecordingEngine, monkeypatch)
    assert narrow[2] > 0  # packets really were forwarded
    assert narrow == _relay_fingerprint(_FullNeighborhoodEngine, monkeypatch)
