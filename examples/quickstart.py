"""Quickstart: catch a back-off cheater in the paper's grid network.

Builds the 7x8 grid of the paper, makes the central sender S cheat on
its back-off timers (PM = 60: it counts only 40% of each dictated
back-off), attaches the detection framework at its receiver R, and runs
a few simulated seconds.

Run:  python examples/quickstart.py
"""

from repro import (
    DetectorConfig,
    Flow,
    PercentageMisbehavior,
    SharedChannelObservatory,
    Simulation,
    SimulationConfig,
    center_pair_indices,
    grid_positions,
)


def main():
    positions = grid_positions()                    # 7x8, 240 m spacing
    sender, monitor = center_pair_indices()        # adjacent central pair

    # Every node except the monitor offers Poisson traffic; the tagged
    # sender streams to the monitor, everyone else to a random neighbor.
    flows = [
        Flow(source=i, destination=monitor if i == sender else None, load=0.6)
        for i in range(len(positions))
        if i != monitor
    ]

    sim = Simulation(
        positions,
        flows=flows,
        policies={sender: PercentageMisbehavior(pm=60)},
        config=SimulationConfig(seed=42),
    )

    # The observatory records what each monitor node senses; the
    # detector subscribes to the monitor's view of the sender.
    observatory = SharedChannelObservatory()
    sim.add_listener(observatory)
    detector = observatory.attach(
        monitor,
        sender,
        config=DetectorConfig(sample_size=25, known_n=5, known_k=5),
    )

    print(f"monitoring node {sender} from node {monitor} ...")
    sim.run(duration_s=6.0)

    observations = detector.observations
    mean_dictated = sum(o.dictated for o in observations) / len(observations)
    mean_estimated = sum(o.estimated for o in observations) / len(observations)
    print(f"collected {len(observations)} back-off samples")
    print(f"mean dictated back-off : {mean_dictated:6.1f} slots")
    print(f"mean estimated back-off: {mean_estimated:6.1f} slots")
    print(f"traffic intensity (ARMA): {detector.rho:.2f}")
    print(f"deterministic violations: {len(detector.violations)}")

    verdict = detector.latest_verdict
    print(f"verdict: {verdict.diagnosis.value} (p = {verdict.p_value})")
    assert detector.flagged_malicious, "the cheater should have been caught"
    print("the cheater was caught.")


if __name__ == "__main__":
    main()
