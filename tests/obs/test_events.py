"""Typed trace events and the two bounded sinks."""

import pickle

import pytest

from repro.obs.events import (
    CycleEvent,
    IterationEvent,
    JsonlSink,
    LBPhaseEvent,
    RingBufferSink,
    event_from_dict,
    read_jsonl_events,
)

ALL_EVENTS = [
    CycleEvent(cycle=3, busy=7, expanding=9, r1=1.5, r2=0.25),
    LBPhaseEvent(cycle=4, rounds=2, transfers=11, dt=0.125),
    IterationEvent(
        cycle=7, bound=22, expanded=900, cycles=31, n_lb=4, n_transfers=57,
        t_calc=0.5, elapsed=0.375,
    ),
]


class TestEventSchema:
    @pytest.mark.parametrize("event", ALL_EVENTS, ids=lambda e: e.kind)
    def test_dict_round_trip(self, event):
        d = event.to_dict()
        assert d["kind"] == event.kind
        assert event_from_dict(d) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            event_from_dict({"kind": "nope", "cycle": 0})

    def test_events_are_immutable(self):
        with pytest.raises(AttributeError):
            ALL_EVENTS[0].busy = 99


class TestRingBufferSink:
    def test_wraparound_keeps_newest_and_counts_dropped(self):
        sink = RingBufferSink(maxlen=4)
        for i in range(10):
            sink.emit(LBPhaseEvent(cycle=i, rounds=i, transfers=i, dt=0.0))
        assert len(sink) == 4
        assert sink.n_emitted == 10
        assert sink.dropped == 6
        assert [e.cycle for e in sink] == [6, 7, 8, 9]

    def test_unbounded_escape_hatch(self):
        sink = RingBufferSink(maxlen=None)
        for i in range(100):
            sink.emit(CycleEvent(cycle=i, busy=0, expanding=0, r1=0.0, r2=0.0))
        assert len(sink) == 100 and sink.dropped == 0

    def test_kind_filter(self):
        sink = RingBufferSink()
        for event in ALL_EVENTS:
            sink.emit(event)
        assert [e.kind for e in sink.events("lb")] == ["lb"]
        assert sink.events() == ALL_EVENTS

    def test_rejects_bad_maxlen(self):
        with pytest.raises(ValueError, match="maxlen"):
            RingBufferSink(maxlen=0)


class TestJsonlSink:
    def test_streams_and_reads_back(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        for event in ALL_EVENTS:
            sink.emit(event)
        sink.close()
        assert read_jsonl_events(path) == ALL_EVENTS

    def test_append_across_reopen(self, tmp_path):
        path = tmp_path / "events.jsonl"
        first = JsonlSink(path)
        first.emit(ALL_EVENTS[0])
        first.close()
        second = JsonlSink(path)
        second.emit(ALL_EVENTS[1])
        second.close()
        assert read_jsonl_events(path) == ALL_EVENTS[:2]

    def test_stream_bytes_are_golden(self, tmp_path):
        """The stream's bytes, pinned at the commit before the sink
        stopped going through ``dataclasses.asdict`` and ``json.dump``:
        every registered kind, and the floats whose repr is not plain
        digits."""
        import json

        from repro.obs.events import _EVENT_TYPES
        from repro.serve.schemas import JobEvent

        events = [
            *ALL_EVENTS,
            CycleEvent(cycle=2**40, busy=0, expanding=0, r1=1e-07, r2=1e22),
            CycleEvent(cycle=0, busy=1, expanding=1, r1=float("inf"), r2=0.1 + 0.2),
            JobEvent(cycle=0, status="queued"),
            JobEvent(
                cycle=1, status="cache-hit", detail='record "3f2a\u2026" served\tfrom store'
            ),
        ]
        golden = (
            b'{"kind":"cycle","cycle":3,"busy":7,"expanding":9,"r1":1.5,"r2":0.25}\n'
            b'{"kind":"lb","cycle":4,"rounds":2,"transfers":11,"dt":0.125}\n'
            b'{"kind":"iteration","cycle":7,"bound":22,"expanded":900,"cycles":31,'
            b'"n_lb":4,"n_transfers":57,"t_calc":0.5,"elapsed":0.375}\n'
            b'{"kind":"cycle","cycle":1099511627776,"busy":0,"expanding":0,'
            b'"r1":1e-07,"r2":1e+22}\n'
            b'{"kind":"cycle","cycle":0,"busy":1,"expanding":1,"r1":Infinity,'
            b'"r2":0.30000000000000004}\n'
            b'{"kind":"job","cycle":0,"status":"queued","detail":""}\n'
            b'{"kind":"job","cycle":1,"status":"cache-hit",'
            b'"detail":"record \\"3f2a\\u2026\\" served\\tfrom store"}\n'
        )
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        for event in events:
            sink.emit(event)
        sink.close()
        assert path.read_bytes() == golden
        assert "".join(e.to_jsonl() for e in events).encode() == golden
        # A new event kind has to add its line here.
        registered = {k for k in _EVENT_TYPES if not k.startswith("test-")}
        assert {json.loads(line)["kind"] for line in golden.splitlines()} == registered

    def test_picklable_mid_stream(self, tmp_path):
        """Checkpointed runs can carry a streaming sink: the live file
        handle is dropped on pickle and reopens on the next emit."""
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.emit(ALL_EVENTS[0])
        clone = pickle.loads(pickle.dumps(sink))
        sink.close()
        clone.emit(ALL_EVENTS[1])
        clone.close()
        assert read_jsonl_events(path) == ALL_EVENTS[:2]


class TestRegisterEventType:
    def test_round_trip_of_registered_kind(self, tmp_path):
        from dataclasses import dataclass

        from repro.obs.events import (
            TraceEvent,
            event_from_dict,
            register_event_type,
        )

        @register_event_type
        @dataclass(frozen=True)
        class ProbeEvent(TraceEvent):
            note: str = ""
            kind = "test-probe"

        original = ProbeEvent(cycle=3, note="hello")
        rebuilt = event_from_dict(original.to_dict())
        assert rebuilt == original

    def test_reregistering_same_class_is_noop(self):
        from repro.serve.schemas import JobEvent
        from repro.obs.events import register_event_type

        assert register_event_type(JobEvent) is JobEvent

    def test_conflicting_kind_is_refused(self):
        from dataclasses import dataclass

        from repro.obs.events import TraceEvent, register_event_type

        @dataclass(frozen=True)
        class Impostor(TraceEvent):
            kind = "cycle"  # the built-in scheduler event's kind

        with pytest.raises(ValueError, match="already registered"):
            register_event_type(Impostor)

    def test_missing_kind_is_refused(self):
        from dataclasses import dataclass

        from repro.obs.events import TraceEvent, register_event_type

        @dataclass(frozen=True)
        class Unkinded(TraceEvent):
            kind = ""

        with pytest.raises(ValueError, match="non-empty string"):
            register_event_type(Unkinded)
