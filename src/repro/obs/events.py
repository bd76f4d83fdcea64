"""Typed per-cycle / per-phase trace events and their sinks.

The paper's empirical story (Tables 3-5, Figure 8's busy-PE curves) is a
set of per-cycle time series.  This module gives those series a typed,
bounded representation: the scheduler and IDA* driver emit
:class:`TraceEvent` records into an :class:`EventSink`, and the two sink
implementations bound memory explicitly —

- :class:`RingBufferSink` keeps the most recent ``maxlen`` events in a
  ring (``maxlen=None`` is the explicit unbounded escape hatch) and
  counts what it evicted, so a truncated trace is always *known* to be
  truncated;
- :class:`JsonlSink` streams every event to a file as one JSON object
  per line, keeping O(1) memory regardless of run length — the backend
  for post-hoc Figure-8-style reconstruction of arbitrarily long runs.

Events are plain frozen dataclasses; ``to_dict()`` gives the stable JSON
schema documented in ``docs/observability.md``, and ``to_jsonl()`` its
compact line.  Each event class writes that line through one template
built from its fields (:func:`_line_encoder`): ints and finite floats
print as ``json`` prints them, strings go through ``json``'s own ASCII
escaper, and any other value — a bool, a numpy scalar, a non-finite
float — falls back to ``json.dumps``, so a line is byte for byte what
``json.dumps(e.to_dict(), separators=(",", ":"))`` writes.  Emission is strictly
observational: no sink ever touches workload state, machine ledgers or
RNG streams, so a traced run is bit-identical to an untraced one (the
purity suite asserts this).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Iterator

__all__ = [
    "TraceEvent",
    "CycleEvent",
    "LBPhaseEvent",
    "IterationEvent",
    "EventSink",
    "RingBufferSink",
    "JsonlSink",
    "event_from_dict",
    "register_event_type",
    "read_jsonl_events",
]

#: Default ring capacity — generous for any paper-scale run (the largest
#: Table 2 cell is ~2.1k cycles) while bounding a runaway grid cell.
DEFAULT_MAXLEN = 1 << 16


@dataclass(frozen=True)
class TraceEvent:
    """Base of every trace event: what happened and on which cycle.

    ``cycle`` counts node-expansion cycles on the machine's cumulative
    axis (so events from later IDA* iterations keep increasing).
    """

    cycle: int

    #: Discriminator used by ``to_dict`` / :func:`event_from_dict`.
    kind = "event"

    def to_dict(self) -> dict:
        """The event as a JSON-ready dict (``kind`` first).

        Fields are scalars, read straight off the instance in
        declaration order; ``dataclasses.asdict`` would deep-copy each
        one recursively, once per event of a streamed run.
        """
        d = {"kind": self.kind}
        for name in self.__dataclass_fields__:
            d[name] = getattr(self, name)
        return d

    def to_jsonl(self) -> str:
        """The event as its one compact line of a JSONL stream."""
        cls = type(self)
        encode = _LINE_ENCODERS.get(cls)
        if encode is None:
            encode = _LINE_ENCODERS[cls] = _line_encoder(cls)
        return encode(self)


def _json_line(event: TraceEvent) -> str:
    return json.dumps(event.to_dict(), separators=(",", ":")) + "\n"


def _line_encoder(cls: type[TraceEvent]) -> Callable[[TraceEvent], str]:
    """``cls``'s line writer: one ``%`` template over its fields.

    ``%s`` prints an ``int`` by ``int.__repr__`` and a ``float`` by
    ``float.__repr__`` — what ``json`` writes for them when the float is
    finite — and a ``str`` field is pre-escaped by
    ``encode_basestring_ascii``, ``json.dumps``'s own escaper.  A value
    of any other exact type (a bool, a numpy scalar) or a non-finite
    float goes to ``json.dumps`` whole.
    """
    names = tuple(f.name for f in fields(cls))
    template = "{" + ",".join(
        encode_basestring_ascii(key).replace("%", "%%") + ":%s"
        for key in ("kind", *names)
    ) + "}\n"
    kind = encode_basestring_ascii(cls.kind)
    get = attrgetter(*names) if len(names) > 1 else lambda e: (getattr(e, names[0]),)

    def encode(event: TraceEvent) -> str:
        out = [kind]
        for value in get(event):
            t = type(value)
            if t is int or (t is float and value - value == 0.0):
                out.append(value)
            elif t is str:
                out.append(encode_basestring_ascii(value))
            else:
                return _json_line(event)
        return template % tuple(out)

    return encode


#: One line encoder per event class, built on its first ``to_jsonl``.
_LINE_ENCODERS: dict[type, Callable[[TraceEvent], str]] = {}


@dataclass(frozen=True)
class CycleEvent(TraceEvent):
    """One node-expansion cycle: Figure 8's raw sample.

    ``busy`` is ``A`` (PEs with splittable work) after the cycle,
    ``expanding`` the PEs that popped a node, and ``r1``/``r2`` the two
    Figure 1 trigger areas observed after the cycle.
    """

    busy: int
    expanding: int
    r1: float
    r2: float

    kind = "cycle"


@dataclass(frozen=True)
class LBPhaseEvent(TraceEvent):
    """One load-balancing phase: rounds matched, work actually moved,
    and the phase's simulated duration ``dt`` (seconds of ``T_par``)."""

    rounds: int
    transfers: int
    dt: float

    kind = "lb"


@dataclass(frozen=True)
class IterationEvent(TraceEvent):
    """One IDA* iteration boundary: the bound it ran, what it expanded,
    and what it cost the machine.

    ``cycles``, ``n_lb``, ``n_transfers``, ``t_calc`` and ``elapsed``
    are this iteration's deltas of the run's shared ledger, so over a
    run they sum to its ``RunMetrics`` totals (``n_expand``, ``n_lb``,
    ``n_transfers``, ``ledger.t_calc``, ``ledger.elapsed``).
    """

    bound: int
    expanded: int
    cycles: int
    n_lb: int
    n_transfers: int
    t_calc: float
    elapsed: float

    kind = "iteration"


_EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.kind: cls
    for cls in (CycleEvent, LBPhaseEvent, IterationEvent)
}


def register_event_type(cls: type[TraceEvent]) -> type[TraceEvent]:
    """Register a :class:`TraceEvent` subclass with the JSONL codec.

    Layers above ``repro.obs`` (e.g. the serve layer's job-lifecycle
    events) define their own event kinds; registering them here lets
    :func:`event_from_dict` / :func:`read_jsonl_events` round-trip a
    stream that interleaves them with the built-in cycle/LB events.
    Usable as a class decorator; re-registering the same class is a
    no-op, but a *different* class under an existing kind is refused.
    """
    kind = getattr(cls, "kind", None)
    if not isinstance(kind, str) or not kind:
        raise ValueError(f"{cls.__name__} needs a non-empty string 'kind'")
    current = _EVENT_TYPES.get(kind)
    if current is not None and current is not cls:
        raise ValueError(
            f"event kind {kind!r} is already registered to {current.__name__}"
        )
    _EVENT_TYPES[kind] = cls
    return cls


def event_from_dict(data: dict) -> TraceEvent:
    """Rebuild a :class:`TraceEvent` from its ``to_dict`` form."""
    data = dict(data)
    kind = data.pop("kind", None)
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown trace event kind {kind!r}")
    return cls(**data)


class EventSink:
    """Destination of trace events.  Subclasses implement :meth:`emit`."""

    #: Events handed to :meth:`emit` over the sink's lifetime.
    n_emitted: int = 0

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources (idempotent)."""


class RingBufferSink(EventSink):
    """Keep the most recent ``maxlen`` events; count what fell off.

    ``maxlen=None`` is the explicit unbounded escape hatch — the caller
    owns the memory consequence.
    """

    def __init__(self, maxlen: int | None = DEFAULT_MAXLEN) -> None:
        if maxlen is not None and maxlen < 1:
            raise ValueError(f"maxlen must be >= 1 or None, got {maxlen}")
        self.maxlen = maxlen
        self._events: deque[TraceEvent] = deque(maxlen=maxlen)
        self.n_emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)
        self.n_emitted += 1

    @property
    def dropped(self) -> int:
        """Events evicted by the ring (0 while under capacity)."""
        return self.n_emitted - len(self._events)

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """The retained events, oldest first (optionally one ``kind``)."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)


class JsonlSink(EventSink):
    """Stream every event to ``path`` as one JSON line; O(1) memory.

    The file handle opens lazily, in append mode, on the first emit; the
    parent directory is made only when it is missing.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.n_emitted = 0
        self._fh: IO[str] | None = None

    def emit(self, event: TraceEvent) -> None:
        if self._fh is None:
            try:
                self._fh = self.path.open("a", encoding="utf-8")
            except FileNotFoundError:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(event.to_jsonl())
        self.n_emitted += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_jsonl_events(path: str | Path) -> list[TraceEvent]:
    """Load the events a :class:`JsonlSink` streamed to ``path``."""
    events: list[TraceEvent] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events
