"""repro — reproduction of "Detecting MAC Layer Back-off Timer Violations
in Mobile Ad Hoc Networks" (Lolla, Law, Krishnamurthy, Ravishankar,
Manjunath; IEEE ICDCS 2006).

Quick start::

    from repro import (
        Simulation, Flow, grid_positions, PercentageMisbehavior,
        SharedChannelObservatory,
    )

    positions = grid_positions()                 # the paper's 7x8 grid
    sender, monitor = 27, 28
    sim = Simulation(
        positions,
        flows=[Flow(source=sender, load=0.6)],
        policies={sender: PercentageMisbehavior(pm=50)},
    )
    observatory = SharedChannelObservatory()   # sees the channel for
    sim.add_listener(observatory)              # every detector
    detector = observatory.attach(monitor, sender)
    sim.run(duration_s=5.0)
    print(detector.latest_verdict)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core import (
    ArmaTrafficEstimator,
    BackoffHypothesisTest,
    BackoffMisbehaviorDetector,
    BackoffObservation,
    BianchiModel,
    CompetingTerminalEstimator,
    DetectorConfig,
    MonitorHandoff,
    NodeDensityEstimator,
    SharedChannelObservatory,
    SystemStateEstimator,
    Verdict,
    rank_sum_test,
)
from repro.core.records import Diagnosis
from repro.geometry import RegionModel, SensingRegions
from repro.mac import (
    AdaptiveLoadCheat,
    AlienDistributionBackoff,
    DcfMac,
    FixedBackoff,
    HonestBackoff,
    IntermittentMisbehavior,
    MacTiming,
    NoExponentialBackoff,
    PercentageMisbehavior,
    RtsFrame,
    VerifiableBackoffPrng,
)
from repro.obs import (
    AuditRecord,
    DecisionAuditLog,
    MetricsListener,
    MetricsRegistry,
    RunManifest,
    disable_metrics,
    enable_metrics,
    metrics_enabled,
    shared_registry,
)
from repro.sim import Flow, Simulation, SimulationConfig, StatsCollector
from repro.topology import (
    RandomWaypoint,
    StaticMobility,
    center_pair_indices,
    grid_positions,
    random_positions,
)
from repro.util import RngStream

__version__ = "1.0.0"

__all__ = [
    "AdaptiveLoadCheat",
    "AlienDistributionBackoff",
    "ArmaTrafficEstimator",
    "AuditRecord",
    "BackoffHypothesisTest",
    "BackoffMisbehaviorDetector",
    "BackoffObservation",
    "BianchiModel",
    "CompetingTerminalEstimator",
    "DcfMac",
    "DecisionAuditLog",
    "DetectorConfig",
    "Diagnosis",
    "FixedBackoff",
    "Flow",
    "HonestBackoff",
    "IntermittentMisbehavior",
    "MacTiming",
    "MetricsListener",
    "MetricsRegistry",
    "MonitorHandoff",
    "NoExponentialBackoff",
    "NodeDensityEstimator",
    "PercentageMisbehavior",
    "RandomWaypoint",
    "RegionModel",
    "RngStream",
    "RtsFrame",
    "RunManifest",
    "SensingRegions",
    "SharedChannelObservatory",
    "Simulation",
    "SimulationConfig",
    "StaticMobility",
    "StatsCollector",
    "SystemStateEstimator",
    "Verdict",
    "VerifiableBackoffPrng",
    "center_pair_indices",
    "disable_metrics",
    "enable_metrics",
    "grid_positions",
    "metrics_enabled",
    "random_positions",
    "rank_sum_test",
    "shared_registry",
    "__version__",
]
