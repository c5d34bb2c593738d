"""From verdicts to action: reputation scores and quarantine.

Runs three senders side by side — honest, mildly cheating (PM = 30),
and blatantly cheating (PM = 80) — each watched by a neighbor, and
folds every monitor's verdict stream into a reputation tracker.  The
blatant cheater collapses to quarantine fastest; the honest node keeps
a near-perfect score.

Run:  python examples/reputation_quarantine.py
"""

from repro import (
    DetectorConfig,
    Flow,
    PercentageMisbehavior,
    SharedChannelObservatory,
    Simulation,
    SimulationConfig,
    grid_positions,
)
from repro.core.reputation import ReputationTracker


def main():
    positions = grid_positions()
    # Three monitored senders in different grid neighborhoods, each with
    # the adjacent node to its right as receiver/monitor.
    subjects = {
        17: None,                        # honest
        27: PercentageMisbehavior(30),   # subtle cheat
        37: PercentageMisbehavior(80),   # blatant cheat
    }
    monitors = {sender: sender + 1 for sender in subjects}

    flows = [
        Flow(
            source=i,
            destination=monitors.get(i),
            load=0.6,
        )
        for i in range(len(positions))
        if i not in monitors.values()
    ]
    sim = Simulation(
        positions,
        flows=flows,
        policies={s: p for s, p in subjects.items() if p is not None},
        config=SimulationConfig(seed=77),
    )
    observatory = SharedChannelObservatory()
    sim.add_listener(observatory)
    detectors = {
        sender: observatory.attach(
            monitor, sender,
            config=DetectorConfig(sample_size=25, known_n=5, known_k=5),
        )
        for sender, monitor in monitors.items()
    }

    sim.run(duration_s=15.0)

    tracker = ReputationTracker()
    print(f"{'sender':>7s} {'policy':>24s} {'score':>7s} {'quarantined':>12s} "
          f"{'mal/clean':>10s}")
    for sender, policy in subjects.items():
        tracker.ingest_all(sender, detectors[sender].verdicts)
        mal, clean = tracker.stats(sender)
        name = policy.describe() if policy else "honest"
        print(
            f"{sender:>7d} {name:>24s} {tracker.score(sender):7.3f} "
            f"{str(tracker.is_quarantined(sender)):>12s} {mal:>4d}/{clean:<4d}"
        )

    assert not tracker.is_quarantined(17)
    assert tracker.is_quarantined(37)
    print()
    print("The blatant cheater is quarantined; the honest node keeps its "
          "reputation.")


if __name__ == "__main__":
    main()
