"""Process-wide switch for fault injection.

Mirrors :mod:`repro.obs.runtime`: the observation plane
(:class:`repro.core.observatory.SharedChannelObservatory`) consults
this module at construction time, so one ``--faults <spec>`` flag (or
``REPRO_FAULTS=<spec>``) impairs every monitor a command builds —
including the many short-lived runs inside an experiment sweep and the
forked workers of ``run_trials`` (children inherit the installed spec;
the schedule's draws are pure hashes, so worker count cannot change
outcomes).

Kept import-light so the observation layer can depend on it without
cycles.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.faults.schedule import FaultSchedule, FaultSpec, parse_fault_spec
from repro.util.caches import register_cache_reset

_installed: Optional[FaultSpec] = None
#: Memoized (source, schedule) of the last active_schedule() resolution;
#: the source key is the installed spec or the raw env string, so both
#: set_fault_spec and a monkeypatched REPRO_FAULTS invalidate it.
_schedule_cache: Optional[tuple] = None


def set_fault_spec(spec: "Optional[FaultSpec | str]") -> Optional[FaultSpec]:
    """Install the process-wide fault spec (``None`` or ``"off"`` clears).

    Accepts a parsed :class:`FaultSpec` or a spec string; returns the
    installed spec.  Takes precedence over ``REPRO_FAULTS``.
    """
    global _installed, _schedule_cache
    if isinstance(spec, str):
        spec = parse_fault_spec(spec)
    _installed = spec
    _schedule_cache = None
    return _installed


def installed_spec() -> Optional[FaultSpec]:
    """The explicitly installed spec, ignoring the environment."""
    return _installed


def faults_enabled() -> bool:
    """True if new observatories should consult a fault schedule."""
    return active_schedule() is not None


def active_schedule() -> Optional[FaultSchedule]:
    """The :class:`FaultSchedule` new observatories should use, or ``None``.

    Resolution order: an installed spec (:func:`set_fault_spec`) wins;
    otherwise ``REPRO_FAULTS`` is parsed.  The schedule object is
    memoized per source so every observatory in a run shares one instance
    (and its per-link seed memo).
    """
    global _schedule_cache
    source: object = _installed
    if source is None:
        raw = os.environ.get("REPRO_FAULTS", "").strip()
        if not raw:
            return None
        source = raw
    cached = _schedule_cache
    if cached is not None and cached[0] == source:
        return cached[1]
    spec = source if isinstance(source, FaultSpec) else parse_fault_spec(source)
    schedule = FaultSchedule(spec) if spec is not None else None
    _schedule_cache = (source, schedule)
    return schedule


@register_cache_reset
def reset_fault_runtime() -> None:
    """Clear the installed spec and the schedule memo (test isolation)."""
    global _installed, _schedule_cache
    _installed = None
    _schedule_cache = None
