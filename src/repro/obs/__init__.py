"""repro.obs — structured tracing, metrics and profiling for runs.

Three independent, composable observers (see ``docs/observability.md``):

- **events** (:mod:`repro.obs.events`) — typed per-cycle / per-LB-phase
  / per-fault records into a bounded ring buffer or a streaming-JSONL
  file, the raw series behind Figure 8;
- **metrics** (:mod:`repro.obs.registry`) — counters/gauges/histograms
  (nodes expanded, donations per matcher, checkpoint bytes, per-scheme
  ledger lines) snapshotable to JSON and rendered by
  ``python -m repro stats``;
- **profiler** (:mod:`repro.obs.profile`) — wall-clock span timers
  around the host kernels, exported as Chrome-trace JSON for Perfetto
  via ``python -m repro trace``.

An :class:`Observability` bundle carries any subset of the three into
``Scheduler(obs=...)`` / ``ParallelIDAStar(obs=...)`` / ``run_grid``.
The contract for all of them is **purity**: observation never changes
what a run computes — ``RunMetrics`` with everything enabled is
bit-identical to an instrumentation-off run (asserted by
``tests/obs/test_purity.py`` and
:func:`repro.lint.runtime.check_observation_purity`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.events import (
    CycleEvent,
    EventSink,
    FaultEvent,
    IterationEvent,
    JsonlSink,
    LBPhaseEvent,
    RecoveryEvent,
    RingBufferSink,
    TraceEvent,
    event_from_dict,
    read_jsonl_events,
    register_event_type,
)
from repro.obs.profile import (
    Profiler,
    active_profiler,
    profiled,
    span,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    check_snapshot_identity,
    load_snapshot,
    record_run,
    render_snapshot,
)

__all__ = [
    "Observability",
    # events
    "TraceEvent",
    "CycleEvent",
    "LBPhaseEvent",
    "RecoveryEvent",
    "FaultEvent",
    "IterationEvent",
    "EventSink",
    "RingBufferSink",
    "JsonlSink",
    "event_from_dict",
    "register_event_type",
    "read_jsonl_events",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "record_run",
    "load_snapshot",
    "render_snapshot",
    "check_snapshot_identity",
    # profiling
    "Profiler",
    "span",
    "profiled",
    "active_profiler",
]


@dataclass
class Observability:
    """The observers one run should report to (any subset may be None).

    Pass to ``Scheduler(obs=...)`` or ``ParallelIDAStar(obs=...)``;
    ``run_grid`` takes the registry directly.  The bundle is deliberately
    not checkpointed — a resumed run re-attaches fresh observers.
    """

    events: EventSink | None = None
    metrics: MetricsRegistry | None = None
    profiler: Profiler | None = None

    def emit(self, event: TraceEvent) -> None:
        """Forward one event to the sink, if any."""
        if self.events is not None:
            self.events.emit(event)
