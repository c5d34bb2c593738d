"""Compare attack strategies against the detection framework.

The paper's PM attack shrinks every dictated back-off, but the intro
describes other shapes: a small constant back-off, refusing to double
the contention window on retransmission, and drawing from a private
distribution.  This example runs each strategy through the same grid
scenario and reports how the framework catches it — statistically, via
the deterministic verifiers, or both.

Run:  python examples/misbehavior_strategies.py
"""

from repro import (
    AlienDistributionBackoff,
    FixedBackoff,
    HonestBackoff,
    NoExponentialBackoff,
    PercentageMisbehavior,
    RngStream,
    SharedChannelObservatory,
)
from repro.core.detector import DetectorConfig
from repro.experiments.scenarios import GridScenario


def evaluate(policy, seed):
    scenario = GridScenario(load=0.6, seed=seed)
    # First build discovers which node is the monitored sender, the
    # second installs the strategy on it.
    _sim, sender, _monitor = scenario.build()
    sim, sender, monitor = scenario.build(policies={sender: policy})
    observatory = SharedChannelObservatory()
    sim.add_listener(observatory)
    detector = observatory.attach(
        monitor,
        sender,
        config=DetectorConfig(sample_size=25, known_n=5, known_k=5),
    )
    sim.run(
        30.0,
        stop_condition=lambda: len(detector.observations) >= 150,
    )
    stat = [v for v in detector.verdicts if not v.deterministic]
    stat_rate = (
        sum(v.is_malicious for v in stat) / len(stat) if stat else float("nan")
    )
    return stat_rate, len(detector.violations), len(detector.observations)


def main():
    strategies = [
        ("honest (baseline)", HonestBackoff()),
        ("PM=50 timer cheat", PercentageMisbehavior(50)),
        ("fixed back-off of 2", FixedBackoff(2)),
        ("no exponential back-off", NoExponentialBackoff()),
        ("private uniform [0,4]", AlienDistributionBackoff(RngStream(7, "alien"), cw=4)),
    ]
    print(f"{'strategy':28s} {'stat rate':>10s} {'violations':>11s} {'samples':>8s}")
    print("-" * 62)
    for name, policy in strategies:
        stat_rate, violations, samples = evaluate(policy, seed=55)
        print(f"{name:28s} {stat_rate:>10.2f} {violations:>11d} {samples:>8d}")
    print()
    print("The honest baseline shows ~0 everywhere; every attack shape is")
    print("flagged by the statistical test, the deterministic verifiers,")
    print("or both.")


if __name__ == "__main__":
    main()
