"""Lightweight span timers and Chrome-trace export.

The simulated machine's ledger answers "how much *simulated* time did
the run cost"; this module answers the orthogonal operational question
"where does *host* kernel time actually go", so a BENCH_* regression can
be attributed to a specific kernel (arena expansion, scans, the LB
matcher) instead of guessed at.

Usage::

    profiler = Profiler()
    with profiled(profiler):
        ParallelIDAStar(...).run()
    profiler.save_chrome_trace("trace.json")   # open in Perfetto / chrome://tracing

Hot code marks its kernels with :func:`span`::

    with span("expand.search.arena"):
        ... the vectorized kernel ...

``span`` reads one module global; with no active profiler it returns a
shared no-op context, so instrumentation costs a dict lookup and a
falsy check per call — cheap enough to leave in the production kernels
permanently.  Wall-clock reads live only here, never in the lock-step
subsystems (lint rule R002), and never touch simulated state: profiled
runs are bit-identical to unprofiled ones.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = [
    "Profiler",
    "SpanRecord",
    "span",
    "profiled",
    "active_profiler",
]

#: Default cap on retained spans; a span beyond it is counted, not kept.
DEFAULT_MAX_SPANS = 1 << 20


class SpanRecord(tuple):
    """One finished span: ``(name, cat, start_s, dur_s)``.

    A tuple subclass (not a dataclass) keeps per-span overhead minimal;
    named accessors cover readability where it matters.
    """

    __slots__ = ()

    @property
    def name(self) -> str:
        return self[0]

    @property
    def cat(self) -> str:
        return self[1]

    @property
    def start(self) -> float:
        return self[2]

    @property
    def duration(self) -> float:
        return self[3]


class _ActiveSpan:
    """Context manager produced by :meth:`Profiler.span`."""

    __slots__ = ("_profiler", "_name", "_cat", "_t0")

    def __init__(self, profiler: "Profiler", name: str, cat: str) -> None:
        self._profiler = profiler
        self._name = name
        self._cat = cat

    def __enter__(self) -> "_ActiveSpan":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        t1 = time.perf_counter()
        self._profiler._record(self._name, self._cat, self._t0, t1 - self._t0)


class _NullSpan:
    """Shared no-op context used when no profiler is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Profiler:
    """Collects spans; exports Chrome-trace JSON and per-name totals.

    ``max_spans`` bounds memory like the event ring does: spans past the
    cap still count toward :meth:`totals` but are not retained for the
    trace file (``n_dropped`` reports how many).
    """

    def __init__(self, *, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self.epoch = time.perf_counter()
        self.spans: list[SpanRecord] = []
        self.n_spans = 0
        self.n_dropped = 0
        self._totals: dict[str, list[float]] = {}  # name -> [count, seconds]

    def span(self, name: str, cat: str = "kernel") -> _ActiveSpan:
        """A context manager timing one named span."""
        return _ActiveSpan(self, name, cat)

    def _record(self, name: str, cat: str, t0: float, dur: float) -> None:
        self.n_spans += 1
        agg = self._totals.get(name)
        if agg is None:
            self._totals[name] = [1, dur]
        else:
            agg[0] += 1
            agg[1] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append(SpanRecord((name, cat, t0 - self.epoch, dur)))
        else:
            self.n_dropped += 1

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-span-name ``{"count": n, "seconds": s}`` over *all* spans
        (including any dropped past ``max_spans``)."""
        return {
            name: {"count": int(c), "seconds": s}
            for name, (c, s) in sorted(self._totals.items())
        }

    def total_seconds(self, name: str) -> float:
        """Summed duration of every span named ``name`` (0.0 if none)."""
        agg = self._totals.get(name)
        return agg[1] if agg is not None else 0.0

    # -- export ------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The retained spans as a Chrome-trace / Perfetto JSON object.

        Complete events (``ph == "X"``) with microsecond timestamps on
        one pid/tid; nesting renders as flame-graph stacking.
        """
        events = [
            {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": s.start * 1e6,
                "dur": s.duration * 1e6,
                "pid": os.getpid(),
                "tid": 0,
            }
            for s in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs.profile",
                "n_spans": self.n_spans,
                "n_dropped": self.n_dropped,
            },
        }

    def save_chrome_trace(self, path: str | Path) -> Path:
        """Write :meth:`chrome_trace` to ``path`` atomically."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self.chrome_trace(), indent=1) + "\n")
        os.replace(tmp, path)
        return path

    def render_totals(self) -> str:
        """Per-kernel summary table, widest-total first."""
        totals = self.totals()
        if not totals:
            return "(no spans recorded)"
        order = sorted(totals, key=lambda n: -totals[n]["seconds"])
        width = max(len(n) for n in order)
        lines = [f"{'span':<{width}}  {'count':>8}  {'total':>10}"]
        for name in order:
            row = totals[name]
            lines.append(
                f"{name:<{width}}  {row['count']:>8d}  {row['seconds'] * 1e3:>8.2f}ms"
            )
        if self.n_dropped:
            lines.append(f"({self.n_dropped} spans past max_spans kept only in totals)")
        return "\n".join(lines)


#: The process-wide active profiler ``span()`` reports to (None = off).
_ACTIVE: Profiler | None = None


def active_profiler() -> Profiler | None:
    """The currently active profiler, if any."""
    return _ACTIVE


@contextmanager
def profiled(profiler: Profiler) -> Iterator[Profiler]:
    """Activate ``profiler`` for the duration of the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = profiler
    try:
        yield profiler
    finally:
        _ACTIVE = previous


def span(name: str, cat: str = "kernel"):
    """A span context on the active profiler (no-op when none is active)."""
    profiler = _ACTIVE
    if profiler is None:
        return _NULL_SPAN
    return profiler.span(name, cat)
