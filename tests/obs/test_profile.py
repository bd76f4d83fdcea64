"""Span profiler: totals, Chrome-trace export, and kernel-time fidelity."""

import json
import time

import pytest

from repro.core.scheduler import Scheduler
from repro.obs.profile import (
    Profiler,
    active_profiler,
    profiled,
    span,
)
from repro.simd.machine import SimdMachine
from repro.workmodel.stackmodel import StackWorkload


class TestProfilerBasics:
    def test_span_off_by_default(self):
        assert active_profiler() is None
        with span("noop"):  # must be a free no-op when nothing is active
            pass

    def test_totals_aggregate_per_name(self):
        prof = Profiler()
        with profiled(prof):
            for _ in range(3):
                with span("k"):
                    pass
        totals = prof.totals()
        assert totals["k"]["count"] == 3
        assert totals["k"]["seconds"] >= 0.0
        assert active_profiler() is None  # context manager restored

    def test_max_spans_keeps_totals(self):
        prof = Profiler(max_spans=2)
        with profiled(prof):
            for _ in range(5):
                with span("k"):
                    pass
        assert len(prof.spans) == 2
        assert prof.n_dropped == 3
        assert prof.totals()["k"]["count"] == 5

    def test_chrome_trace_is_valid_json_schema(self, tmp_path):
        prof = Profiler()
        with profiled(prof):
            with span("outer", cat="test"):
                with span("inner", cat="test"):
                    pass
        path = prof.save_chrome_trace(tmp_path / "trace.json")
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert len(events) == 2
        for e in events:
            assert e["ph"] == "X"
            assert set(e) >= {"name", "cat", "ts", "dur", "pid", "tid"}
        # Nesting: the outer span encloses the inner one on the timeline.
        by_name = {e["name"]: e for e in events}
        assert by_name["outer"]["ts"] <= by_name["inner"]["ts"]
        assert (
            by_name["outer"]["ts"] + by_name["outer"]["dur"]
            >= by_name["inner"]["ts"] + by_name["inner"]["dur"]
        )


class TestKernelSpanFidelity:
    def test_expand_span_sum_matches_directly_timed_kernel(self, monkeypatch):
        """The acceptance bar: the profiler's expansion-kernel span sum
        agrees with an independent perf_counter measurement of the same
        kernel bodies to within 10%."""
        manual = [0.0]
        inner = StackWorkload._expand_cycle_arena_inner

        def timed_inner(self):
            t0 = time.perf_counter()
            out = inner(self)
            manual[0] += time.perf_counter() - t0
            return out

        monkeypatch.setattr(
            StackWorkload, "_expand_cycle_arena_inner", timed_inner
        )
        workload = StackWorkload(40_000, 128, rng=0)
        machine = SimdMachine(128)
        prof = Profiler()
        with profiled(prof):
            Scheduler(
                workload, machine, "GP-DK", init_threshold=0.85
            ).run()
        kernel = prof.total_seconds("expand.stack.arena")
        assert kernel > 0.0
        assert kernel == pytest.approx(manual[0], rel=0.10)
        # Every expansion cycle produced exactly one span.
        assert prof.totals()["expand.stack.arena"]["count"] == machine.n_cycles
