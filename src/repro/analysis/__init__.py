"""Offline analysis of detection runs.

Post-processes a detector's sample/verdict stream into the quantities a
deployment (or a reviewer) asks about: how *fast* a cheater is caught,
the ROC trade-off as the significance level sweeps, summary statistics
of the estimation error, and confidence intervals on detection rates.
"""

from repro.analysis.intervals import wilson_interval
from repro.analysis.latency import DetectionLatency, detection_latency
from repro.analysis.roc import RocPoint, roc_sweep
from repro.analysis.summary import EstimationSummary, summarize_estimation

__all__ = [
    "DetectionLatency",
    "EstimationSummary",
    "RocPoint",
    "detection_latency",
    "roc_sweep",
    "summarize_estimation",
    "wilson_interval",
]
