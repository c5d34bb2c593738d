"""Which program functions the traced pass wraps, and the per-layer report.

Layers are named after the modules under ``src/repro``.  Functions run
once per slot or per estimator fold are only counted; timed spans sit
at coarser boundaries (engine phases, observatory hooks and ingest,
parsing, event handling, scheduler flush, emission, rank-sum, log
records), so the wrapper's own cost stays small against what it times.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, Sequence

from repro.serve.records import REJECT_REASONS

from perfbench.tracing import Patcher, Tracer, summarize

#: (metric prefix, dotted path): call counters, no clock reads.
COUNTED = (
    ("phy.senses_busy", "repro.phy.medium:Medium.senses_busy"),
    ("phy.sensors_of", "repro.phy.medium:Medium.sensors_of"),
    ("phy.start_transmission", "repro.phy.medium:Medium.start_transmission"),
    ("phy.end_transmission", "repro.phy.medium:Medium.end_transmission"),
    ("mac.freeze", "repro.mac.backoff:BackoffScheduler.freeze"),
    ("mac.resume", "repro.mac.backoff:BackoffScheduler.resume"),
    ("mac.draw_backoff", "repro.mac.dcf:DcfMac.draw_backoff"),
    (
        "traffic.next_arrival_after",
        "repro.traffic.generators:PoissonTrafficGenerator.next_arrival_after",
    ),
    (
        "traffic.next_arrival_after",
        "repro.traffic.generators:CbrTrafficGenerator.next_arrival_after",
    ),
    ("core.arma.ingest", "repro.core.arma:ArmaTrafficEstimator.ingest"),
)

_OBSERVATORY = "repro.core.observatory:SharedChannelObservatory."
OBSERVATORY_HOOKS = (
    "on_transmission_start",
    "on_transmission_end",
    "ingest_start",
    "ingest_end",
    "sync_ingest",
)

#: (span name, dotted path): timed spans.
TIMED = tuple(
    (f"core.observatory.{hook}", _OBSERVATORY + hook) for hook in OBSERVATORY_HOOKS
) + (
    ("obs.record", "repro.obs.audit:DecisionAuditLog.record"),
    ("obs.record", "repro.obs.audit:DecisionAuditLog.fill"),
    ("obs.record", "repro.obs.provenance:ProvenanceLog.record"),
    ("obs.record", "repro.obs.provenance:ProvenanceLog.fill"),
    ("serve.parse", "repro.serve.records:parse_line"),
    ("serve.handle_event", "repro.serve.server:ServeSession.handle_event"),
    ("serve.emit", "repro.serve.server:ServeSession._emit_incremental"),
)

#: Metric name -> unit, in report order (BENCHMARK.json's per_layer).
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.events.calls": "count",
    "sim.events.self_s": "s",
    "sim.reconcile.calls": "count",
    "sim.reconcile.self_s": "s",
    "sim.reconcile.nodes": "count",
    "sim.reconcile.useful_ratio": "ratio",
    "phy.senses_busy.calls": "count",
    "phy.sensors_of.calls": "count",
    "phy.start_transmission.calls": "count",
    "phy.end_transmission.calls": "count",
    "mac.freeze.calls": "count",
    "mac.resume.calls": "count",
    "mac.draw_backoff.calls": "count",
    "traffic.next_arrival_after.calls": "count",
    **{
        f"core.observatory.{hook}.{kind}": unit
        for hook in OBSERVATORY_HOOKS
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    },
    "core.arma.ingest.calls": "count",
    "core.arma.folds_per_end_event": "ratio",
    "core.detector.samples": "count",
    "core.detector.verdicts": "count",
    "core.detector.violations": "count",
    "core.ranksum.windows": "count",
    "core.ranksum.self_s": "s",
    "obs.audit.records": "count",
    "obs.provenance.records": "count",
    "obs.record.self_s": "s",
    "serve.parse.calls": "count",
    "serve.parse.self_s": "s",
    **{f"serve.rejected.{reason}": "count" for reason in REJECT_REASONS},
    "serve.handle_event.self_s": "s",
    "serve.flush.calls": "count",
    "serve.flush.self_s": "s",
    "serve.windows_per_flush": "ratio",
    "serve.emit.self_s": "s",
    "serve.links.tracked": "count",
    "serve.state_kb_per_10k_links": "KB",
    "share.sim": "ratio",
    "share.core": "ratio",
    "share.obs": "ratio",
    "share.serve": "ratio",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every class- and module-level target; run before ``setup``."""
    for prefix, path in COUNTED:
        patcher.wrap(path, lambda fn, p=prefix: tracer.counted(p, fn))
    for name, path in TIMED:
        patcher.wrap(path, lambda fn, n=name: tracer.timed(n, fn))

    def rank_sum(windows: Callable[[Any], int]) -> Callable[..., Any]:
        """Time a rank-sum entry point and count the windows it ranks."""

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            timed = tracer.timed("core.ranksum", fn)

            def ranked(first: Any, *args: Any, **kwargs: Any) -> Any:
                tracer.count("core.ranksum.windows", windows(first))
                return timed(first, *args, **kwargs)

            return ranked

        return make

    # rank_sum_test(x, y, ...) ranks one window; rank_sum_many(xs, ys, ...)
    # ranks one per entry of xs.
    patcher.wrap("repro.core.ranksum:rank_sum_test", rank_sum(lambda _x: 1))
    patcher.wrap("repro.core.batch:rank_sum_many", rank_sum(len))

    def flush(fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = tracer.timed("serve.flush", fn)

        def flushed(scheduler: Any) -> Any:
            pending = len(scheduler)
            if not pending:
                return fn(scheduler)
            tracer.count("serve.flush.windows", pending)
            return timed(scheduler)

        return flushed

    patcher.wrap("repro.core.observatory:BatchScheduler.flush", flush)


def instrument_engines(tracer: Tracer, patcher: Patcher, engines: Sequence[Any]) -> None:
    """Time the engines' slot-loop phases through their public seam."""

    def wrap(phase: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = tracer.timed(f"sim.{phase}", fn)
        if phase != "reconcile":
            return timed

        def reconcile(slot: Any, affected: Any) -> Any:
            tracer.count("sim.reconcile.nodes", len(affected))
            return timed(slot, affected)

        return reconcile

    for engine in engines:
        seam = getattr(engine, "instrument_phases", None)
        if seam is None:
            patcher.absent.append("repro.sim.engine:SimulationEngine.instrument_phases")
            return
        seam(wrap)


def report(
    tracers: Sequence[Tracer],
    traced: Sequence[Any],
    untraced: Any,
    program_counts: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics: counts from the first traced repetition
    (they repeat exactly), self times as medians over repetitions.

    ``traced`` and ``untraced`` are repetitions (``wall_s``, ``speed``);
    shares divide host self time by host wall time, and the overhead
    compares walls at reference speed."""
    summaries = [summarize(tracer.spans()) for tracer in tracers]
    first = summaries[0]
    counts = dict(tracers[0].counts)

    def calls(span: str) -> int:
        return first.get(span, (0, 0.0))[0]

    def self_s(span: str) -> float:
        return statistics.median(summary.get(span, (0, 0.0))[1] for summary in summaries)

    def count(name: str) -> float:
        return counts.get(name, 0)

    metrics: Dict[str, float] = {name: 0 for name in PER_LAYER_UNITS}
    for span in ("sim.events", "sim.reconcile", "serve.parse", "serve.flush"):
        metrics[f"{span}.calls"] = calls(span)
    for span in (
        "sim.events",
        "sim.reconcile",
        "core.ranksum",
        "obs.record",
        "serve.parse",
        "serve.handle_event",
        "serve.flush",
        "serve.emit",
    ):
        metrics[f"{span}.self_s"] = self_s(span)
    for hook in OBSERVATORY_HOOKS:
        span = f"core.observatory.{hook}"
        metrics[f"{span}.calls"] = calls(span)
        metrics[f"{span}.self_s"] = self_s(span)
    nodes = count("sim.reconcile.nodes")
    metrics["sim.reconcile.nodes"] = nodes
    useful = count("mac.freeze") + count("mac.resume") + count("mac.draw_backoff")
    metrics["sim.reconcile.useful_ratio"] = useful / nodes if nodes else 0.0
    for prefix, _path in COUNTED:
        metrics[f"{prefix}.calls"] = count(prefix)
    end_events = calls("core.observatory.ingest_end")
    metrics["core.arma.folds_per_end_event"] = (
        count("core.arma.ingest") / end_events if end_events else 0.0
    )
    metrics["core.ranksum.windows"] = count("core.ranksum.windows")
    flushes = calls("serve.flush")
    metrics["serve.windows_per_flush"] = (
        count("serve.flush.windows") / flushes if flushes else 0.0
    )
    for name, value in program_counts.items():
        if name in metrics:
            metrics[name] = value
    host_wall = statistics.median(rep.wall_s for rep in traced)
    for layer in ("sim", "core", "obs", "serve"):
        own = sum(self_s(span) for span in first if span.startswith(layer + "."))
        metrics[f"share.{layer}"] = own / host_wall if host_wall > 0 else 0.0
    wall = statistics.median(rep.wall_s / rep.speed for rep in traced)
    untraced_wall = untraced.wall_s / untraced.speed
    metrics["trace.traced_wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_ratio"] = wall / untraced_wall if untraced_wall > 0 else 0.0
    return metrics
