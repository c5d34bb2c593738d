"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid16 --seed 1 --seconds 10 --trace 0

``--trace 0`` times repetitions of the workload untraced for
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` makes
one untraced repetition and then traced ones, and prints the per-layer
metrics with the tracing overhead.  Human-readable lines come first;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads and metrics are described in
``perfbench/METRICS.md``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
#: Repetitions every run makes at least (their digests must agree).
MIN_REPS = 2
#: Fresh-interpreter set-up probes per run (their median is setup_s).
SETUP_PROBES = 3
UNSET_ENV = ("REPRO_CHECK", "REPRO_METRICS", "REPRO_TRACE", "REPRO_FAULTS", "REPRO_SCALE")

END_TO_END_UNITS = {
    "setup_s": "s",
    "slots_per_s": "slots/s",
    "samples_per_s": "1/s",
    "verdicts_per_s": "1/s",
    "lines_per_s": "lines/s",
    "verdict_lag_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def pin_environment() -> None:
    """One thread, no fork pool, no opt-in instrumentation, fixed sizes."""
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_JOBS"] = "1"
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def host_fingerprint() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def reset_peak_rss() -> None:
    """Restart the kernel's resident-memory high-water mark (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up probe: import, set up, print the elapsed time."""
    from perfbench.workloads import WORKLOADS

    WORKLOADS[workload](seed).setup()
    elapsed = time.perf_counter() - _START
    from perfbench.hostclock import REFERENCE_KERNEL_S, calibrate

    print(elapsed * REFERENCE_KERNEL_S / calibrate())


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, at reference speed."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT), env=dict(os.environ), capture_output=True,
            text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def repeat(workload, seconds: float, traced=None, min_reps: int = MIN_REPS):
    """Set up and run repetitions until ``seconds`` elapsed (at least ``min_reps``)."""
    reps = []
    begin = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - begin < seconds:
        gc.collect()
        if traced is None:
            reps.append(workload.run(workload.setup()))
        else:
            reps.append(traced(workload))
    return reps


def end_to_end(workload, seconds: float, seed: int):
    setup_s = measure_setup(workload.name, seed)
    gc.collect()
    reset_peak_rss()
    reps = repeat(workload, seconds)
    metrics = {"setup_s": setup_s}
    for name in ("slots", "samples", "verdicts", "lines"):
        metrics[f"{name}_per_s"] = median_or_zero(
            getattr(r, name) * r.speed / r.wall_s for r in reps
        )
    metrics["verdict_lag_p50_ms"] = median_or_zero(
        median_or_zero(r.lags_ms) for r in reps
    )
    metrics["peak_rss_mb"] = peak_rss_mb()
    p99 = median_or_zero(percentile(r.lags_ms, 0.99) for r in reps)
    print(f"verdict_lag_p99_ms {p99:.3f} ms (not gated)")
    return reps, metrics


def traced_pass(workload, seconds: float):
    from perfbench import layers
    from perfbench.tracing import Patcher, Tracer, write_traces

    begin = time.perf_counter()
    gc.collect()
    untraced = workload.run(workload.setup())
    program_counts = {}
    if hasattr(workload, "state_kb_per_10k_links"):
        gc.collect()
        program_counts["serve.state_kb_per_10k_links"] = workload.state_kb_per_10k_links()
    tracers = []
    absent = set()

    def traced(w):
        tracer = Tracer(f"{w.name}-{w.seed}-{len(tracers)}")
        patcher = Patcher()
        layers.install(tracer, patcher)
        try:
            state = w.setup()
            layers.instrument_engines(tracer, patcher, w.engines(state))
            rep = w.run(state)
        finally:
            patcher.restore()
        tracers.append(tracer)
        absent.update(patcher.absent)
        return rep

    remaining = max(seconds - (time.perf_counter() - begin), 0.0)
    reps = [untraced] + repeat(workload, remaining, traced, min_reps=1)
    program_counts.update(reps[1].counts)
    metrics = layers.report(tracers, reps[1:], untraced, program_counts)
    WORKDIR.mkdir(exist_ok=True)
    write_traces(str(WORKDIR / f"trace-{workload.name}.jsonl"), tracers)
    for path in sorted(absent):
        print(f"absent: {path}")
    return reps, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    options = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    if options.probe_setup:
        probe_setup(options.workload, options.seed)
        return 0

    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    if options.workload not in WORKLOADS:
        parser.error(f"unknown workload {options.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[options.workload](options.seed)
    WORKDIR.mkdir(exist_ok=True)
    print(json.dumps({"host": host_fingerprint(), "workload": workload.name,
                      "seed": options.seed, "env": {"REPRO_JOBS": "1"}}))
    problems = []
    reps = []
    metrics = {}
    units = END_TO_END_UNITS if options.trace == 0 else PER_LAYER_UNITS
    try:
        print(f"input_digest {workload.prepare(str(WORKDIR))}")
        if options.trace == 0:
            reps, metrics = end_to_end(workload, options.seconds, options.seed)
        else:
            reps, metrics = traced_pass(workload, options.seconds)
    except Exception:  # noqa: BLE001 - a crashed run is reported, not raised
        traceback.print_exc()
        problems.append("the run raised")
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup()

    digests = sorted({rep.digest for rep in reps})
    for index, rep in enumerate(reps):
        print(
            f"rep {index}: wall {rep.wall_s:.3f} s, host speed {rep.speed:.3f}, "
            f"digest {rep.digest}"
        )
        problems.extend(rep.problems)
    if len(digests) > 1:
        problems.append(f"repetitions disagree: {len(digests)} distinct digests")
    attempted = sum(rep.attempted for rep in reps) or 1
    failed = sum(rep.failed for rep in reps) + (1 if "the run raised" in problems else 0)
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
    for problem in problems:
        print(f"check failed: {problem}")
    for name in units:
        print(f"{name} {metrics.get(name, 0.0):.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
