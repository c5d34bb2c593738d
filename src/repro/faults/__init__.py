"""Deterministic fault/adversary injection (chaos conformance layer).

Two halves:

* :mod:`repro.faults.schedule` — seeded per-link channel impairments
  (decode failure, RTS corruption/truncation, burst loss) applied
  monitor-side, as pure hash functions of (seed, monitor, sender,
  start slot) so faulted runs stay deterministic regardless of worker
  count or how many detectors share a monitor node;
* :mod:`repro.faults.runtime` — the process-wide ``--faults <spec>`` /
  ``REPRO_FAULTS`` switch the observation layer consults.

Adversary *behavior* shapes (digest forgery, attempt replay,
sequence-offset lying, colluding pairs) live with the MAC in
:mod:`repro.mac.adversary` — they are things a cheating node does, not
things the channel does — but are part of the same conformance story:
see DESIGN.md §12.
"""

from repro.faults.runtime import (
    active_schedule,
    faults_enabled,
    installed_spec,
    reset_fault_runtime,
    set_fault_spec,
)
from repro.faults.schedule import (
    IMPAIRMENT_BURST_LOSS,
    IMPAIRMENT_DECODE_FAILURE,
    IMPAIRMENT_REASONS,
    IMPAIRMENT_RTS_CORRUPT,
    IMPAIRMENT_RTS_TRUNCATED,
    IMPAIRMENT_UNDECODABLE,
    FaultSchedule,
    FaultSpec,
    parse_fault_spec,
)

__all__ = [
    "FaultSchedule",
    "FaultSpec",
    "IMPAIRMENT_BURST_LOSS",
    "IMPAIRMENT_DECODE_FAILURE",
    "IMPAIRMENT_REASONS",
    "IMPAIRMENT_RTS_CORRUPT",
    "IMPAIRMENT_RTS_TRUNCATED",
    "IMPAIRMENT_UNDECODABLE",
    "active_schedule",
    "faults_enabled",
    "installed_spec",
    "parse_fault_spec",
    "reset_fault_runtime",
    "set_fault_spec",
]
