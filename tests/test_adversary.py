"""Announcement adversaries and the colluding pair (repro.mac.adversary).

Unit tests pin each policy's rewrite semantics; integration tests drive
them through a live grid and check which detection layer (if any)
catches each shape:

* ``AttemptReplay``  — caught deterministically (Attempt#/MD rule);
* ``DigestForgery``  — evades the Attempt#/MD rule by construction;
* ``SequenceOffsetLie`` — self-consistent, so SeqOff# monotonicity
  never fires; paired with a shrinking back-off the statistical layer
  still convicts;
* colluding pair — two nodes generate real cover traffic for each
  other (the counters prove the alibi mechanism engaged).
"""

from __future__ import annotations

import pytest

from repro.core.detector import DetectorConfig
from repro.core.observatory import SharedChannelObservatory
from repro.experiments.scenarios import GridScenario
from repro.mac.adversary import (
    AttemptReplay,
    DigestForgery,
    HonestAnnouncement,
    SequenceOffsetLie,
    install_colluding_pair,
)
from repro.mac.digest import data_digest
from repro.mac.frames import RtsFrame
from repro.mac.misbehavior import AlibiBackoff, PercentageMisbehavior

CONFIG = DetectorConfig(sample_size=25, known_n=5, known_k=5)


def _frame(seq_off=0, attempt=1, digest=b"d" * 16):
    return RtsFrame(sender=1, receiver=2, seq_off=seq_off, attempt=attempt,
                    digest=digest)


# -- unit: rewrite semantics --------------------------------------------------


def test_honest_announcement_is_identity():
    frame = _frame(seq_off=7, attempt=3)
    assert HonestAnnouncement().rewrite(frame) is frame


def test_digest_forgery_passes_first_attempts_through():
    policy = DigestForgery()
    frame = _frame(attempt=1)
    assert policy.rewrite(frame) is frame
    assert policy.forged == 0


def test_digest_forgery_disguises_retransmissions():
    policy = DigestForgery()
    retry = _frame(seq_off=5, attempt=3)
    forged = policy.rewrite(retry)
    assert forged.attempt == 1
    assert forged.digest != retry.digest
    assert forged.seq_off == retry.seq_off  # only the identity fields lie
    assert policy.forged == 1
    # Deterministic forgery: the same retry always forges the same digest.
    assert DigestForgery().rewrite(retry).digest == forged.digest


def test_attempt_replay_replays_the_previous_attempt():
    policy = AttemptReplay()
    digest = data_digest(b"pkt-1")
    first = policy.rewrite(_frame(seq_off=0, attempt=1, digest=digest))
    assert first.attempt == 1
    replayed = policy.rewrite(_frame(seq_off=1, attempt=2, digest=digest))
    assert replayed.attempt == 1  # the lie
    assert policy.replays == 1
    # Still stuck on the recorded attempt for further retries.
    again = policy.rewrite(_frame(seq_off=2, attempt=3, digest=digest))
    assert again.attempt == 1
    assert policy.replays == 2


def test_attempt_replay_tracks_fresh_packets():
    policy = AttemptReplay()
    policy.rewrite(_frame(attempt=1, digest=data_digest(b"a")))
    fresh = policy.rewrite(_frame(attempt=1, digest=data_digest(b"b")))
    assert fresh.attempt == 1
    assert policy.replays == 0


def test_sequence_offset_lie_fabricates_a_consistent_counter():
    policy = SequenceOffsetLie(start_offset=100)
    out = [policy.rewrite(_frame(seq_off=real)) for real in (0, 1, 5)]
    assert [f.seq_off for f in out] == [100, 101, 102]
    assert policy.lies == 3  # every announcement differed from reality


def test_sequence_offset_lie_rejects_negative_start():
    with pytest.raises(ValueError):
        SequenceOffsetLie(start_offset=-1)


# -- unit: the colluding pair -------------------------------------------------


def test_alibi_backoff_covers_when_partner_contends():
    partner_active = [False]
    policy = AlibiBackoff(
        partner_probe=lambda: partner_active[0], cover_backoff=1, pm=50.0
    )
    from repro.mac.prng import VerifiableBackoffPrng

    prng = VerifiableBackoffPrng(3, cw_min=31, cw_max=1023)
    own = policy.actual_backoff(prng, 0, 1)
    assert own == int(round(prng.dictated_backoff(0, 1) * 0.5))
    assert policy.own_draws == 1 and policy.cover_draws == 0
    partner_active[0] = True
    assert policy.actual_backoff(prng, 1, 1) == 1
    assert policy.cover_draws == 1


def test_install_colluding_pair_rejects_self_collusion():
    sim, sender, _monitor = GridScenario(load=0.6, seed=11).build()
    with pytest.raises(ValueError):
        install_colluding_pair(sim, sender, sender)


def test_install_colluding_pair_wires_both_macs():
    sim, sender, monitor = GridScenario(load=0.6, seed=11).build()
    partner = next(n for n in sim.macs if n not in (sender, monitor))
    policy_a, policy_b = install_colluding_pair(sim, sender, partner, pm=60.0)
    assert sim.macs[sender].policy is policy_a
    assert sim.macs[partner].policy is policy_b
    # Each probe watches the *other* node's contention state.
    sim.macs[partner].backoff.start(5)
    assert policy_a.partner_probe() and not policy_b.partner_probe()


# -- integration: which layer catches what ------------------------------------


def _run_grid(announcement=None, policy=None, seconds=40.0, target=150, seed=11):
    scenario = GridScenario(load=0.6, seed=seed)
    _sim, sender, _monitor = scenario.build()
    policies = {sender: policy} if policy is not None else None
    mac_options = (
        {sender: {"announcement": announcement}}
        if announcement is not None
        else None
    )
    sim, sender, monitor = scenario.build(
        policies=policies, mac_options=mac_options
    )
    observatory = SharedChannelObservatory()
    sim.add_listener(observatory)
    detector = observatory.attach(monitor, sender, config=CONFIG)
    sim.run(
        seconds,
        stop_condition=lambda: detector.observation_count >= target,
    )
    return detector


def test_attempt_replay_is_caught_deterministically():
    policy = AttemptReplay()
    detector = _run_grid(announcement=policy)
    assert policy.replays > 0  # collisions forced retransmissions
    kinds = {v.kind for v in detector.violations}
    assert "attempt_number" in kinds


def test_digest_forgery_evades_the_attempt_verifier():
    policy = DigestForgery()
    detector = _run_grid(announcement=policy)
    assert policy.forged > 0
    kinds = {v.kind for v in detector.violations}
    # The forged announcements are internally consistent: no digest
    # repeats, every fresh digest starts at attempt 1, offsets advance.
    assert "attempt_number" not in kinds
    assert "seq_offset" not in kinds


def test_sequence_offset_lie_never_trips_monotonicity():
    policy = SequenceOffsetLie(start_offset=300)
    detector = _run_grid(announcement=policy)
    assert policy.lies > 0
    assert "seq_offset" not in {v.kind for v in detector.violations}


def test_sequence_offset_lie_with_shrink_caught_statistically():
    """The pure statistical test case: a coherent announcement stream
    over a shrunken countdown still shifts the rank-sum comparison."""
    detector = _run_grid(
        announcement=SequenceOffsetLie(start_offset=300),
        policy=PercentageMisbehavior(60),
        seconds=60.0,
        target=200,
    )
    malicious = [
        v for v in detector.verdicts if v.diagnosis.value == "malicious"
    ]
    assert malicious


def test_colluding_pair_generates_cover_traffic():
    scenario = GridScenario(load=0.6, seed=11)
    sim, sender, monitor = scenario.build()
    sim.run(2.0)
    partner = next(
        n
        for n, mac in sim.macs.items()
        if n not in (sender, monitor) and mac.stats.backoffs_drawn > 0
    )
    sim, sender, monitor = scenario.build()
    policy_a, policy_b = install_colluding_pair(
        sim, sender, partner, pm=60.0, cover_backoff=1
    )
    observatory = SharedChannelObservatory()
    sim.add_listener(observatory)
    detector = observatory.attach(monitor, sender, config=CONFIG)
    sim.run(20.0)
    # Both halves of the alibi engaged: shrunken own draws and cover
    # jumps into the partner's contention intervals.
    assert policy_a.own_draws > 0 and policy_b.own_draws > 0
    assert policy_a.cover_draws + policy_b.cover_draws > 0
    assert detector.observation_count > 0
